//! Training workloads: OOD-GNN (the paper's Algorithm 1) through the
//! public `OodGnn::train_run`, and a replica of that loop built from the
//! same public calls, timed layer by layer from this file.

use crate::catalog::Workload;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, sorted, FAST_PCT};
use crate::Plan;
use datasets::OodBenchmark;
use gnn::trainer::{evaluate, per_sample_loss, TrainConfig};
use gnn::ModelConfig;
use graph::GraphBatch;
use oodgnn_core::health::all_finite;
use oodgnn_core::{OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tensor::nn::Module;
use tensor::ops::loss::weighted_mean;
use tensor::optim::{global_grad_norm, Adam, Optimizer};
use tensor::profile::{ProfileSnapshot, KERNEL_NAMES};
use tensor::rng::Rng;
use tensor::{Mode, Tape, Tensor};

/// Which generated benchmark a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// TRIANGLES at 0.2 scale: 600/100/100 graphs of ~14.5 nodes.
    Triangles,
    /// D&D-300 at 0.5 scale: 250/25/339 graphs of ~162 nodes.
    Dd,
}

impl Data {
    pub fn of(w: Workload) -> Data {
        match w {
            Workload::TrainTri | Workload::ServeTriTcp => Data::Triangles,
            Workload::TrainDd | Workload::ServeDdStdio => Data::Dd,
        }
    }

    /// Generate the benchmark; `smoke` shrinks it. The graphs come from a
    /// fixed generator seed: across D&D-300 draws the largest test batches
    /// differ enough to move peak RSS by a fifth, which would hide any
    /// change smaller than that. `--seed` drives everything else.
    pub fn generate(self, smoke: bool) -> OodBenchmark {
        const DATA_SEED: u64 = 1;
        match self {
            Data::Triangles => {
                let frac = if smoke { 0.03 } else { 0.2 };
                let config = datasets::triangles::TrianglesConfig::scaled(frac);
                datasets::triangles::generate(&config, DATA_SEED)
            }
            Data::Dd => {
                let frac = if smoke { 0.05 } else { 0.5 };
                let config = datasets::social::SocialConfig::dd300(frac);
                datasets::social::generate(&config, DATA_SEED)
            }
        }
    }

    /// Inner reweighting steps per batch: the paper's 20 where reweighting
    /// is the layer under study, 5 where message passing is.
    pub fn epoch_reweight(self) -> usize {
        match self {
            Data::Triangles => 20,
            Data::Dd => 5,
        }
    }
}

/// Epochs per `train_run` repetition: short, so that a run holds enough
/// repetitions to catch the host at its uncontended speed.
fn rep_epochs(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        2
    }
}

/// GIN, 2 layers × 32 hidden, dropout 0.1, batch 32, lr 3e-3.
pub fn config(data: Data, epochs: usize) -> OodGnnConfig {
    OodGnnConfig {
        model: ModelConfig {
            hidden: 32,
            layers: 2,
            dropout: 0.1,
            ..Default::default()
        },
        train: TrainConfig {
            epochs,
            batch_size: 32,
            lr: 3e-3,
            ..Default::default()
        },
        epoch_reweight: data.epoch_reweight(),
        ..Default::default()
    }
}

/// A freshly initialized model; the same `seed` gives the same weights.
pub fn new_model(bench: &OodBenchmark, data: Data, epochs: usize, seed: u64) -> OodGnn {
    let mut rng = Rng::seed_from(seed.wrapping_add(1));
    OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        config(data, epochs),
        &mut rng,
    )
}

/// The seed `train_run` gets: shuffling, dropout and RFF draws.
fn train_seed(seed: u64) -> u64 {
    seed.wrapping_add(2)
}

/// FNV-1a over the bits of a loss curve.
fn digest(curve: &[f32]) -> u64 {
    curve.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One timed `train_run` from a fresh model.
fn timed_rep(
    bench: &OodBenchmark,
    data: Data,
    epochs: usize,
    seed: u64,
) -> Result<(f64, OodGnnReport), String> {
    let mut model = new_model(bench, data, epochs, seed);
    let start = Instant::now();
    let out = model
        .train_run(bench, train_seed(seed), TrainOptions::default())
        .map_err(|e| format!("train_run failed: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), out))
}

/// Guardrail interventions: each one is a batch that did not train as
/// asked.
fn interventions(out: &OodGnnReport) -> u64 {
    let h = out.health;
    (h.nan_batches + h.skipped_steps + h.inner_retries + h.uniform_fallbacks) as u64
}

fn steps_per_epoch(bench: &OodBenchmark) -> u64 {
    bench.split.train.len().div_ceil(32) as u64
}

/// Generate the data and build the model; returns the data and the
/// seconds that took.
fn setup(data: Data, seed: u64, smoke: bool) -> (OodBenchmark, f64) {
    let start = Instant::now();
    let bench = data.generate(smoke);
    black_box(new_model(&bench, data, 1, seed));
    (bench, start.elapsed().as_secs_f64())
}

/// Tracing off: repetitions of `train_run` until the run time is spent.
pub fn end_to_end(w: Workload, seed: u64, plan: &Plan, report: &mut Report) {
    let data = Data::of(w);
    let (bench, first_setup) = setup(data, seed, plan.smoke);
    report.check(bench.validate().is_ok(), "generated split is valid");
    let epochs = rep_epochs(plan.smoke);
    let graphs = (bench.split.train.len() * epochs) as f64;
    if let Err(e) = timed_rep(&bench, data, epochs, seed) {
        report.check(false, format!("warm-up: {e}"));
        return;
    }
    let start = Instant::now();
    let (mut walls, mut digests, mut test) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = vec![first_setup];
    while walls.len() < plan.max_reps && (walls.is_empty() || start.elapsed() < plan.run) {
        // A set-up takes milliseconds, so a burst of them all lands in one
        // host state; one before each repetition samples the whole run.
        setups.push(setup(data, seed, plan.smoke).1);
        let (wall, out) = match timed_rep(&bench, data, epochs, seed) {
            Ok(r) => r,
            Err(e) => return report.check(false, e),
        };
        report.attempted += steps_per_epoch(&bench) * epochs as u64;
        report.failed += interventions(&out);
        report.check(
            out.loss_curve.iter().all(|l| l.is_finite()) && out.test_metric.is_finite(),
            "loss curve and test metric are finite",
        );
        walls.push(wall);
        digests.push(digest(&out.loss_curve));
        test.push(out.test_metric);
    }
    report.check(
        digests.iter().all(|&d| d == digests[0]) && test.iter().all(|&t| t == test[0]),
        format!("every rep trains bitwise-identically (digests {digests:x?})"),
    );
    report.set("setup_s", median(&setups), "s");
    let walls = sorted(&walls);
    let fast = percentile(&walls, FAST_PCT);
    report.set("latency_ms", fast * 1e3 / epochs as f64, "ms");
    report.set("train.graphs_per_s", graphs / fast, "1/s");
    for p in [50.0, 90.0] {
        report.set(
            &format!("train.rep_ms_p{p}"),
            percentile(&walls, p) * 1e3,
            "ms",
        );
    }
    match peak_rss_mb("self") {
        Ok(mb) => report.set("peak_rss_mb", mb, "MiB"),
        Err(e) => report.check(false, e),
    }
    report.set("train.reps", walls.len() as f64, "count");
    report.set("train.epochs_per_rep", epochs as f64, "count");
    report.set("train.test_metric", f64::from(test[0]), "accuracy");
    report.set(
        "train.fail_pct",
        100.0 * report.failed as f64 / report.attempted.max(1) as f64,
        "%",
    );
}

/// Wall time per layer over the epochs of one replica run.
#[derive(Default)]
struct Layers {
    batch: Duration,
    encode: Duration,
    reweight: Duration,
    head: Duration,
    backward: Duration,
    optim: Duration,
    epochs: Duration,
}

fn lap(acc: &mut Duration, since: Instant) -> Instant {
    let now = Instant::now();
    *acc += now - since;
    now
}

struct Replica {
    loss_curve: Vec<f32>,
    test_metric: f32,
    layers: Layers,
    steps: u64,
    before: ProfileSnapshot,
    after: ProfileSnapshot,
}

/// `OodGnn::train_run`'s loop (Algorithm 1) rebuilt from the public
/// calls it makes, in its order and with its RNG stream, so the loss curve
/// is bitwise the same, with every call timed. Guardrail skips are not
/// replayed: a non-finite value is an error here.
fn replica(model: &mut OodGnn, bench: &OodBenchmark, seed: u64) -> Result<Replica, String> {
    let cfg = model.config().train.clone();
    let ds = &bench.dataset;
    let mut rng = Rng::seed_from(train_seed(seed));
    let mut opt = Adam::new(cfg.lr)
        .with_weight_decay(cfg.weight_decay)
        .with_grad_clip(cfg.grad_clip);
    let mut l = Layers::default();
    let mut loss_curve = Vec::new();
    let mut steps = 0;
    tensor::profile::reset();
    let before = tensor::profile::snapshot();
    for _ in 0..cfg.epochs {
        let epoch_start = Instant::now();
        let mut order = bench.split.train.clone();
        rng.shuffle(&mut order);
        let (mut loss_sum, mut batches) = (0f32, 0usize);
        for chunk in order.chunks(cfg.batch_size) {
            let t = Instant::now();
            let batch = GraphBatch::from_dataset(ds, chunk);
            let t = lap(&mut l.batch, t);
            let mut tape = Tape::new();
            let z = model
                .model_mut()
                .encode(&mut tape, &batch, Mode::Train, &mut rng);
            let z_value = tape.value(z).clone();
            let t = lap(&mut l.encode, t);
            if !all_finite(&z_value) {
                return Err("non-finite representations".into());
            }
            let w = model
                .reweight(&z_value, &mut rng)
                .map_err(|e| format!("reweight: {e}"))?;
            let t = lap(&mut l.reweight, t);
            let logits = model
                .model_mut()
                .predict_from_rep(&mut tape, z, Mode::Train);
            let per_sample = per_sample_loss(&mut tape, logits, ds, chunk);
            let loss = weighted_mean(&mut tape, per_sample, &Tensor::from_vec(w, [chunk.len()]));
            let loss_value = tape.value(loss).item();
            let t = lap(&mut l.head, t);
            if !loss_value.is_finite() {
                return Err("non-finite loss".into());
            }
            loss_sum += loss_value;
            batches += 1;
            let grads = tape.backward(loss);
            let t = lap(&mut l.backward, t);
            let params = model.model_mut().params_mut();
            if !global_grad_norm(&params, &grads).is_finite() {
                return Err("non-finite gradients".into());
            }
            opt.step(params, &grads);
            drop((grads, tape, batch));
            lap(&mut l.optim, t);
            steps += 1;
        }
        loss_curve.push(loss_sum / batches.max(1) as f32);
        l.epochs += epoch_start.elapsed();
    }
    let after = tensor::profile::snapshot();
    // `train_run` ends by evaluating train, val and test, in that order.
    let bs = cfg.batch_size;
    for split in [&bench.split.train, &bench.split.val] {
        evaluate(model.model_mut(), ds, split, bs, &mut rng);
    }
    let test_metric = evaluate(model.model_mut(), ds, &bench.split.test, bs, &mut rng);
    Ok(Replica {
        loss_curve,
        test_metric,
        layers: l,
        steps,
        before,
        after,
    })
}

/// Tracing on: pairs of one untraced `train_run` and one traced replica
/// of it until the run time is spent; each per-layer number is the median
/// over pairs.
pub fn traced(w: Workload, seed: u64, plan: &Plan, report: &mut Report) {
    let data = Data::of(w);
    let bench = data.generate(plan.smoke);
    let epochs = rep_epochs(plan.smoke);
    let graphs = (bench.split.train.len() * epochs) as f64;
    if let Err(e) = timed_rep(&bench, data, epochs, seed) {
        return report.check(false, format!("warm-up: {e}"));
    }
    let mut samples: BTreeMap<String, (&str, Vec<f64>)> = BTreeMap::new();
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < plan.max_reps && (pairs == 0 || start.elapsed() < plan.run) {
        pairs += 1;
        let (untraced_wall, out) = match timed_rep(&bench, data, epochs, seed) {
            Ok(r) => r,
            Err(e) => return report.check(false, e),
        };
        let mut model = new_model(&bench, data, epochs, seed);
        let replica_start = Instant::now();
        let r = match replica(&mut model, &bench, seed) {
            Ok(r) => r,
            Err(e) => return report.check(false, format!("replica: {e}")),
        };
        let replica_wall = replica_start.elapsed().as_secs_f64();
        report.attempted += steps_per_epoch(&bench) * epochs as u64 + r.steps;
        report.failed += interventions(&out);
        report.check(
            digest(&r.loss_curve) == digest(&out.loss_curve)
                && r.test_metric.to_bits() == out.test_metric.to_bits(),
            format!(
                "replica trains like train_run (loss digests {:x} vs {:x})",
                digest(&r.loss_curve),
                digest(&out.loss_curve)
            ),
        );
        let overhead = 100.0 * (replica_wall / untraced_wall - 1.0);
        let metrics = layer_metrics(&r, graphs).into_iter().chain([(
            "train.trace_overhead_pct".to_string(),
            overhead,
            "%",
        )]);
        for (name, value, unit) in metrics {
            samples
                .entry(name)
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    for (name, (unit, values)) in &samples {
        report.set(name, median(values), unit);
    }
    report.set("train.pairs", pairs as f64, "count");
}

/// Per-layer numbers of one replica run: shares of epoch wall time,
/// absolute ms per epoch, and tensor-profile counters per graph.
fn layer_metrics(r: &Replica, graphs: f64) -> Vec<(String, f64, &'static str)> {
    let l = &r.layers;
    let epochs = r.loss_curve.len().max(1) as f64;
    let wall = l.epochs.as_secs_f64();
    let parts = [
        ("graph.batch", l.batch),
        ("gnn.encode", l.encode),
        ("core.reweight", l.reweight),
        ("gnn.head", l.head),
        ("tensor.backward", l.backward),
        ("tensor.optim", l.optim),
    ];
    let mut out = Vec::new();
    let mut covered = 0.0;
    for (name, d) in parts {
        let s = d.as_secs_f64();
        covered += s;
        out.push((format!("{name}_pct"), 100.0 * s / wall, "%"));
        out.push((format!("{name}_ms"), s * 1e3 / epochs, "ms"));
    }
    out.push((
        "train.layer_coverage_pct".into(),
        100.0 * covered / wall,
        "%",
    ));
    out.push(("train.epoch_ms".into(), wall * 1e3 / epochs, "ms"));
    out.push((
        "graph.batch_mean".into(),
        graphs / r.steps.max(1) as f64,
        "count",
    ));
    out.push((
        "gnn.forward_us_per_graph".into(),
        (l.encode + l.head).as_secs_f64() * 1e6 / graphs,
        "us",
    ));
    out.extend(profile_metrics(&r.before, &r.after, wall, graphs));
    out
}

/// Tensor-layer counters between two profile snapshots: each kernel
/// family's share of `wall` seconds, and op/allocation counts per graph.
pub fn profile_metrics(
    before: &ProfileSnapshot,
    after: &ProfileSnapshot,
    wall: f64,
    graphs: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (k, name) in KERNEL_NAMES.iter().enumerate() {
        let ns = after.par_nanos[k] - before.par_nanos[k];
        out.push((
            format!("tensor.kernel_{name}_pct"),
            100.0 * ns as f64 * 1e-9 / wall,
            "%",
        ));
    }
    let pct = |hits: u64, misses: u64| 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    let (pb, pa) = (&before.pool, &after.pool);
    out.push((
        "tensor.ops_per_graph".into(),
        (after.ops_total - before.ops_total) as f64 / graphs,
        "count",
    ));
    out.push((
        "tensor.allocations_per_graph".into(),
        (pa.allocations - pb.allocations) as f64 / graphs,
        "count",
    ));
    out.push((
        "tensor.pool_hit_pct".into(),
        pct(pa.hits - pb.hits, pa.misses - pb.misses),
        "%",
    ));
    out.push((
        "tensor.csr_hit_pct".into(),
        pct(
            after.csr_hits - before.csr_hits,
            after.csr_misses - before.csr_misses,
        ),
        "%",
    ));
    out.push((
        "tensor.peak_live_mb".into(),
        after.peak_live_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    ));
    out
}
