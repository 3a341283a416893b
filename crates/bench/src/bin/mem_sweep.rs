//! Memory-engine sweep: measures how much allocator traffic the tensor
//! buffer pool absorbs on a real training run, and asserts the pool's
//! neutrality contract — **bitwise-identical** training results with the
//! pool on or off, at every thread count.
//!
//! Usage: `cargo run -p bench --release --bin mem_sweep`
//! (`OOD_BENCH_FAST=1` shrinks the workload for smoke runs; `--strict`
//! exits non-zero unless the pool also reaches a 50% hit rate.)
//!
//! Always-on gates (exit non-zero on violation):
//! * loss-curve / final-weight checksums identical across all
//!   pool × thread configurations;
//! * pooled runs serve at least one allocation from a recycled buffer
//!   (hit rate > 0);
//! * pooled runs make strictly fewer fresh heap allocations than
//!   unpooled runs at the same thread count.
//!
//! Markdown goes to stdout (redirect into `results/mem_sweep.md`);
//! progress and telemetry to stderr/JSONL as usual. A machine-readable
//! record of the same numbers is written to `results/mem_sweep.json`
//! (override with `--json <path>`, disable with `--json -`) in the shared
//! `bench::perf::MetricFile` format.

use datasets::triangles::{generate, TrianglesConfig};
use datasets::OodBenchmark;
use gnn::models::ModelConfig;
use gnn::trainer::TrainConfig;
use oodgnn_core::{OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use tensor::rng::Rng;
use tensor::{par, pool};

const SEED: u64 = 17;
const MODEL_SEED: u64 = 5;

fn sweep_config(fast: bool) -> OodGnnConfig {
    OodGnnConfig {
        model: ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: if fast { 3 } else { 8 },
            batch_size: 16,
            lr: 3e-3,
            ..Default::default()
        },
        epoch_reweight: if fast { 4 } else { 8 },
        ..Default::default()
    }
}

fn train_once(bench: &OodBenchmark, cfg: &OodGnnConfig) -> OodGnnReport {
    let mut rng = Rng::seed_from(MODEL_SEED);
    let mut model = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        cfg.clone(),
        &mut rng,
    );
    model
        .train_run(bench, SEED, TrainOptions::default())
        .expect("sweep run completes")
}

struct ConfigResult {
    label: String,
    pooled: bool,
    threads: usize,
    wall_ms: f64,
    stats: pool::PoolStats,
    checksum: u64,
    epochs: usize,
}

fn main() {
    let strict = std::env::args().any(|a| a == "--strict");
    let json_out = bench::Args::from_env().get_str("json", "results/mem_sweep.json");
    let fast = std::env::var("OOD_BENCH_FAST").is_ok_and(|v| v != "0");
    let jsonl = bench::telemetry::init("mem_sweep", SEED);

    let cfg = sweep_config(fast);
    let bench_data = generate(&TrianglesConfig::scaled(if fast { 0.01 } else { 0.02 }), 1);

    let threads: Vec<usize> = [1usize, 4]
        .into_iter()
        .filter(|&t| t <= par::max_threads())
        .collect();

    println!("# Memory-engine sweep: tensor buffer pool\n");
    println!(
        "Training workload ({} epochs, reweight {}), pool off vs on at \
         {threads:?} thread(s). Loss-curve and final-weight checksums must \
         be identical across every configuration (neutrality contract).\n",
        cfg.train.epochs, cfg.epoch_reweight
    );
    println!("| config | wall | allocations | allocs/epoch | hit rate | bytes reused | retained |");
    println!("|---|---|---|---|---|---|---|");

    let mut results: Vec<ConfigResult> = Vec::new();
    for &t in &threads {
        for pooled in [false, true] {
            par::set_threads(t);
            pool::set_enabled(pooled);
            pool::reset_stats();
            tensor::profile::reset();
            let start = std::time::Instant::now();
            let report = train_once(&bench_data, &cfg);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let stats = pool::stats();
            let checksum = tensor::fnv::hash_f32_bits(
                report
                    .loss_curve
                    .iter()
                    .chain(report.hsic_curve.iter())
                    .chain(report.final_weights.iter())
                    .copied(),
            );
            let epochs = report.loss_curve.len();
            let label = format!("{} / t={t}", if pooled { "pool on" } else { "pool off" });
            let hit_rate = if stats.hits + stats.misses > 0 {
                stats.hits as f64 / (stats.hits + stats.misses) as f64
            } else {
                0.0
            };
            println!(
                "| {label} | {:.0} ms | {} | {:.0} | {:.1}% | {} | {} |",
                wall_ms,
                stats.allocations,
                stats.allocations as f64 / epochs.max(1) as f64,
                hit_rate * 100.0,
                fmt_bytes(stats.bytes_reused),
                fmt_bytes(stats.retained_bytes),
            );
            trace::emit_event(
                trace::names::TENSOR_MEMORY,
                &[
                    ("config", label.as_str().into()),
                    ("threads", (t as i64).into()),
                    ("pool_enabled", pooled.into()),
                    ("wall_ms", wall_ms.into()),
                    ("hits", (stats.hits as i64).into()),
                    ("misses", (stats.misses as i64).into()),
                    ("allocations", (stats.allocations as i64).into()),
                    ("bytes_reused", (stats.bytes_reused as i64).into()),
                    ("checksum", (checksum as i64).into()),
                ],
            );
            results.push(ConfigResult {
                label,
                pooled,
                threads: t,
                wall_ms,
                stats,
                checksum,
                epochs,
            });
        }
    }
    pool::set_enabled(true);
    par::set_threads(par::max_threads());

    // ---- gates ----
    let mut failures: Vec<String> = Vec::new();
    let reference = results[0].checksum;
    for r in &results {
        if r.checksum != reference {
            failures.push(format!(
                "{}: checksum {:#018x} differs from {:#018x} — pool neutrality broken",
                r.label, r.checksum, reference
            ));
        }
    }
    for &t in &threads {
        let off = results
            .iter()
            .find(|r| !r.pooled && r.threads == t)
            .expect("off run recorded");
        let on = results
            .iter()
            .find(|r| r.pooled && r.threads == t)
            .expect("on run recorded");
        if on.stats.hits == 0 {
            failures.push(format!("{}: pool never served a recycled buffer", on.label));
        }
        if on.stats.allocations >= off.stats.allocations {
            failures.push(format!(
                "{}: {} fresh allocations with the pool vs {} without — no reduction",
                on.label, on.stats.allocations, off.stats.allocations
            ));
        }
        let total = on.stats.hits + on.stats.misses;
        let rate = if total > 0 {
            on.stats.hits as f64 / total as f64
        } else {
            0.0
        };
        if strict && rate < 0.5 {
            failures.push(format!(
                "{}: STRICT hit rate {:.1}% < 50%",
                on.label,
                rate * 100.0
            ));
        }
    }

    println!();
    if let (Some(off), Some(on)) = (
        results.iter().find(|r| !r.pooled),
        results.iter().find(|r| r.pooled),
    ) {
        let reduction = 1.0 - on.stats.allocations as f64 / off.stats.allocations.max(1) as f64;
        println!(
            "Pool cut fresh heap allocations by {:.1}% at t={} ({} → {}, \
             {} epochs; {:.0} ms → {:.0} ms wall).",
            reduction * 100.0,
            off.threads,
            off.stats.allocations,
            on.stats.allocations,
            on.epochs,
            off.wall_ms,
            on.wall_ms,
        );
    }
    if failures.is_empty() {
        println!("All checksums identical across pool and thread configurations.");
    } else {
        for f in &failures {
            println!("GATE FAIL: {f}");
            eprintln!("mem_sweep: GATE FAIL: {f}");
        }
    }

    // Machine-readable record in the shared perf format: one metric set
    // per swept configuration, checksum and verdict in meta.
    if json_out != "-" {
        let mut record = bench::MetricFile::new("mem_sweep");
        record.set_meta("checksum", format!("{reference:#018x}"));
        record.set_meta("fast", fast.to_string());
        record.set_meta("verdict", if failures.is_empty() { "pass" } else { "fail" });
        for r in &results {
            let key = format!(
                "t{}_{}",
                r.threads,
                if r.pooled { "pool_on" } else { "pool_off" }
            );
            record.set(&format!("{key}_wall_ms"), r.wall_ms);
            record.set(&format!("{key}_allocations"), r.stats.allocations as f64);
            record.set(&format!("{key}_hits"), r.stats.hits as f64);
            record.set(&format!("{key}_misses"), r.stats.misses as f64);
            record.set(&format!("{key}_bytes_reused"), r.stats.bytes_reused as f64);
            record.set(
                &format!("{key}_peak_retained_bytes"),
                r.stats.peak_retained_bytes as f64,
            );
        }
        match record.save(&json_out) {
            Ok(()) => eprintln!("mem_sweep: wrote {json_out}"),
            Err(e) => eprintln!("mem_sweep: cannot write {json_out}: {e}"),
        }
    }

    bench::telemetry::finish(&jsonl);
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}
