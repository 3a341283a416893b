//! Baseline-gated perf harness: runs a fixed-seed training workload,
//! extracts key metrics (wall time, per-epoch span time, per-kernel
//! parallel totals, allocator traffic, memory high-waters, and a bitwise
//! checksum of the training result), and compares them against a
//! committed baseline under `results/baselines/` within per-metric
//! tolerance bands. Any regression names the offending metric and exits
//! non-zero, so CI catches perf drift the way tests catch logic drift.
//!
//! The gated run is followed by the same workload at every other config
//! of `OOD_THREADS` {1,2,4} × pool {off,on}, each from a drained pool,
//! inside one `matrix` span and gated by `bench::perf::matrix_failures`.
//! Its table (wall, allocations, hit rate, bytes reused, speedup over
//! t=1) goes to stdout and its numbers to the trajectory line under
//! `matrix_*` keys, which no baseline gates.
//!
//! Usage:
//! ```text
//!   cargo run -p bench --release --bin perf_gate            # gate
//!   cargo run -p bench --release --bin perf_gate -- --update  # refresh baseline
//! ```
//!
//! Flags:
//! ```text
//!   --baseline <path>   override the baseline file (default is derived
//!                       from the thread count: perf_gate_t{N}.json)
//!   --tolerance <x>     scale every band's headroom (CI uses >1 to absorb
//!                       shared-runner noise; 0 disables wall-time gating
//!                       entirely and checks only deterministic metrics)
//!   --update            write the measured metrics as the new baseline
//!                       (implies --record)
//!   --record            append the trajectory line to the tracked
//!                       results/BENCH_trajectory.jsonl instead of
//!                       target/bench-results/
//!   --inject-slow       synthetic wall-time regression (self-test)
//!   --inject-alloc      synthetic allocation spike (self-test)
//! ```
//!
//! Baselines are bound to a thread count and to the workload shape; the
//! checksum is compared bitwise (determinism contract), wall metrics
//! within bands. `OOD_BENCH_FAST=1` shrinks the workload — fast and full
//! runs use distinct baseline files so the two never cross-compare.

use bench::perf::{compare, matrix_failures, Band, ConfigRun, MetricFile};
use bench::Args;
use datasets::triangles::{generate, TrianglesConfig};
use datasets::OodBenchmark;
use gnn::models::ModelConfig;
use gnn::trainer::TrainConfig;
use oodgnn_core::{OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use tensor::rng::Rng;
use tensor::{par, pool};
use trace::sink::MemorySink;
use trace::{agg, names};

const SEED: u64 = 17;
const MODEL_SEED: u64 = 5;

/// Thread counts of the matrix; each runs with the pool off and on.
const MATRIX_THREADS: [usize; 3] = [1, 2, 4];

/// Span-attribution coverage the analysis tier must reach on this run:
/// root span totals within 5% of the measured workload wall time.
const MIN_COVERAGE: f64 = 0.95;

fn gate_config(fast: bool) -> OodGnnConfig {
    OodGnnConfig {
        model: ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: if fast { 3 } else { 6 },
            batch_size: 16,
            lr: 3e-3,
            ..Default::default()
        },
        epoch_reweight: if fast { 4 } else { 8 },
        ..Default::default()
    }
}

/// Tolerance band per metric name. Wall-clock metrics get generous
/// multiplicative headroom plus absolute slack (single-core CI runners
/// timeshare); counter and byte metrics are deterministic, so their bands
/// only absorb intentional small drift, not noise.
fn band_for(key: &str) -> Option<Band> {
    if key == "wall_ms" || key == "epoch_ms" {
        Some(Band {
            ratio: 1.5,
            slack: 150.0,
        })
    } else if key.starts_with("kernel_") {
        Some(Band {
            ratio: 2.0,
            slack: 20.0,
        })
    } else if key == "allocations" {
        Some(Band {
            ratio: 1.2,
            slack: 256.0,
        })
    } else if key == "peak_live_bytes" || key == "peak_retained_bytes" {
        Some(Band {
            ratio: 1.25,
            slack: (1 << 16) as f64,
        })
    } else {
        None
    }
}

fn train(bench_data: &OodBenchmark, cfg: &OodGnnConfig) -> OodGnnReport {
    let mut rng = Rng::seed_from(MODEL_SEED);
    let mut model = OodGnn::new(
        bench_data.dataset.feature_dim(),
        bench_data.dataset.task(),
        cfg.clone(),
        &mut rng,
    );
    model
        .train_run(bench_data, SEED, TrainOptions::default())
        .expect("gate run completes")
}

/// Bitwise fingerprint of a training result.
fn result_checksum(report: &OodGnnReport) -> u64 {
    tensor::fnv::hash_f32_bits(
        report
            .loss_curve
            .iter()
            .chain(report.hsic_curve.iter())
            .chain(report.final_weights.iter())
            .copied(),
    )
}

fn main() {
    let args = Args::from_env();
    let update = args.get_bool("update", false);
    let record_results = update || args.get_bool("record", false);
    let tolerance = args.get_f32("tolerance", 1.0) as f64;
    let inject_slow = args.get_bool("inject-slow", false);
    let inject_alloc = args.get_bool("inject-alloc", false);
    let fast = std::env::var("OOD_BENCH_FAST").is_ok_and(|v| v != "0");
    let threads = par::current_threads();
    let default_baseline = format!(
        "results/baselines/perf_gate_t{threads}{}.json",
        if fast { "_fast" } else { "" }
    );
    let baseline_path = args.get_str("baseline", &default_baseline);

    let jsonl = bench::telemetry::init("perf_gate", SEED);
    // Mirror the stream into memory so the analysis tier can attribute
    // this very run without re-reading the JSONL from disk.
    let mirror = MemorySink::shared();
    trace::attach(Box::new(mirror.clone()));

    let cfg = gate_config(fast);
    let bench_data = {
        let _setup = trace::span!("setup");
        generate(&TrianglesConfig::scaled(if fast { 0.01 } else { 0.02 }), 1)
    };

    pool::reset_stats();
    tensor::profile::reset();
    let start = std::time::Instant::now();
    let report: OodGnnReport;
    {
        let _run = trace::span!("run");
        report = train(&bench_data, &cfg);
        if inject_slow {
            // Synthetic regression: double the measured wall time and add
            // half a second, clearing both the multiplicative band and its
            // absolute slack regardless of workload size and host speed.
            std::thread::sleep(start.elapsed() + std::time::Duration::from_millis(500));
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // The gated run's own pool counters, before any injected spike.
    let gated_pool = pool::stats();
    // Everything after the workload (injection, analysis, baseline
    // comparison, report) runs inside one span so the recorded trace stays
    // attributable end to end for `trace_report --min-coverage`.
    let report_span = trace::span!("report");

    if inject_alloc {
        // Synthetic allocation spike: force fresh heap allocations past
        // any plausible band by churning unpooled buffers.
        let pooled = pool::enabled();
        pool::set_enabled(false);
        let mut acc = 0.0f32;
        for _ in 0..50_000 {
            let t = tensor::Tensor::zeros([64]);
            acc += t.data()[0];
        }
        std::hint::black_box(acc);
        pool::set_enabled(pooled);
    }

    let snap = tensor::profile::snapshot();
    let checksum = result_checksum(&report);

    // ---- attribution self-check: the span tree must account for the
    // measured wall time (tentpole acceptance: within 5%). ----
    bench::telemetry::emit_tensor_profile();
    let analysis = agg::analyze(&mirror.events());
    let run_node = analysis.find("run").expect("run span recorded");
    let attributed_ms = run_node.total_us as f64 / 1e3;
    let coverage = attributed_ms / wall_ms;
    let epoch = analysis.find("run/train/epoch");
    let epoch_ms = epoch
        .map(|n| n.total_us as f64 / 1e3 / n.count.max(1) as f64)
        .unwrap_or(0.0);

    // ---- build the metric record ----
    let mut current = MetricFile::new("perf_gate");
    current.set_meta("checksum", format!("{checksum:#018x}"));
    current.set_meta("threads", threads.to_string());
    current.set_meta("pool", pool::enabled().to_string());
    current.set_meta(
        "workload",
        format!("triangles/e{}r{}", cfg.train.epochs, cfg.epoch_reweight),
    );
    current.set("wall_ms", wall_ms);
    current.set("epoch_ms", epoch_ms);
    current.set("allocations", snap.pool.allocations as f64);
    current.set("peak_live_bytes", snap.peak_live_bytes as f64);
    current.set("peak_retained_bytes", snap.pool.peak_retained_bytes as f64);
    for (name, _regions, _chunks, nanos) in snap.per_kernel_nonzero() {
        current.set(&format!("kernel_{name}_ms"), nanos as f64 / 1e6);
    }

    println!("# Perf gate\n");
    println!(
        "Fixed-seed triangles workload ({} epochs, reweight {}), t={threads}, \
         pool {}. Baseline: `{baseline_path}`.\n",
        cfg.train.epochs,
        cfg.epoch_reweight,
        if pool::enabled() { "on" } else { "off" },
    );
    println!("| metric | value |");
    println!("|---|---|");
    for (k, v) in &current.metrics {
        println!("| {k} | {v:.3} |");
    }
    println!("| checksum | {} |", current.meta["checksum"]);
    println!("| span coverage | {:.1}% |", coverage * 100.0);

    let mut failures: Vec<String> = Vec::new();
    if coverage < MIN_COVERAGE || !coverage.is_finite() {
        failures.push(format!(
            "coverage: span tree attributes {attributed_ms:.1} ms of {wall_ms:.1} ms wall \
             ({:.1}% < {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }

    if update {
        match current.save(&baseline_path) {
            Ok(()) => println!("\nBaseline updated: `{baseline_path}`."),
            Err(e) => {
                eprintln!("perf_gate: cannot write {baseline_path}: {e}");
                failures.push(format!("baseline write failed: {e}"));
            }
        }
    } else {
        match MetricFile::load(&baseline_path) {
            Err(e) => {
                failures.push(format!(
                    "no baseline ({e}); run with --update to create one"
                ));
            }
            Ok(baseline) => {
                // The baseline must describe the same experiment.
                for key in ["threads", "pool", "workload"] {
                    let base = baseline.meta.get(key).cloned().unwrap_or_default();
                    let cur = &current.meta[key];
                    if &base != cur {
                        failures.push(format!(
                            "{key}: baseline recorded {base:?}, this run is {cur:?} \
                             — refresh with --update"
                        ));
                    }
                }
                // Bitwise determinism: the training result must not drift.
                let base_sum = baseline.meta.get("checksum").cloned().unwrap_or_default();
                if failures.is_empty() && base_sum != current.meta["checksum"] {
                    failures.push(format!(
                        "checksum: {} != baseline {base_sum} — training result changed bitwise",
                        current.meta["checksum"]
                    ));
                }
                let gate_wall = tolerance > 0.0;
                let (regressions, improvements) = compare(
                    &baseline,
                    &current,
                    |k| {
                        if !gate_wall
                            && (k == "wall_ms" || k == "epoch_ms" || k.starts_with("kernel_"))
                        {
                            return None;
                        }
                        band_for(k)
                    },
                    if gate_wall { tolerance } else { 1.0 },
                );
                for d in &regressions {
                    failures.push(format!(
                        "{}: {:.3} exceeds limit {:.3} (baseline {:.3})",
                        d.key, d.current, d.limit, d.baseline
                    ));
                }
                if !improvements.is_empty() {
                    println!();
                    for d in &improvements {
                        println!(
                            "Improvement: {} {:.3} → {:.3}; consider refreshing the baseline.",
                            d.key, d.baseline, d.current
                        );
                    }
                }
            }
        }
    }

    // ---- thread × pool matrix: the same workload at every other config ----
    let record = |threads, pooled, checksum, s: &pool::PoolStats, wall_ms| ConfigRun {
        threads,
        pooled,
        checksum,
        hits: s.hits,
        misses: s.misses,
        allocations: s.allocations,
        bytes_reused: s.bytes_reused,
        wall_ms,
    };
    let pooled = pool::enabled();
    let mut runs = vec![record(threads, pooled, checksum, &gated_pool, wall_ms)];
    {
        let _matrix = trace::span!("matrix");
        for t in MATRIX_THREADS {
            for on in [false, true] {
                if (t, on) == (threads, pooled) {
                    continue;
                }
                par::set_threads(t);
                pool::set_enabled(on);
                pool::drain_thread_pool();
                pool::reset_stats();
                let start = std::time::Instant::now();
                let report = train(&bench_data, &cfg);
                let wall = start.elapsed().as_secs_f64() * 1e3;
                let sum = result_checksum(&report);
                runs.push(record(t, on, sum, &pool::stats(), wall));
            }
        }
        par::set_threads(threads);
        pool::set_enabled(pooled);
    }
    failures.extend(matrix_failures(&runs));

    println!("\n## Thread × pool matrix (first row: the gated run)\n");
    println!("| config | wall | allocations | hit rate | bytes reused | speedup vs t=1 |");
    println!("|---|---|---|---|---|---|");
    for r in &runs {
        let t1 = runs
            .iter()
            .find(|b| b.threads == 1 && b.pooled == r.pooled)
            .map_or(r.wall_ms, |b| b.wall_ms);
        println!(
            "| {} | {:.0} ms | {} | {:.1}% | {:.1} MiB | {:.2}x |",
            r.label(),
            r.wall_ms,
            r.allocations,
            r.hit_rate() * 100.0,
            r.bytes_reused as f64 / (1 << 20) as f64,
            t1 / r.wall_ms,
        );
    }

    // Run-over-run history: every gate run appends one line, pass or fail.
    current.set("coverage", coverage);
    let gated_metrics = current.metrics.len();
    for r in &runs {
        let key = format!(
            "matrix_t{}_pool_{}",
            r.threads,
            if r.pooled { "on" } else { "off" }
        );
        current.set(&format!("{key}_wall_ms"), r.wall_ms);
        current.set(&format!("{key}_allocations"), r.allocations as f64);
        current.set(&format!("{key}_hits"), r.hits as f64);
        current.set(&format!("{key}_misses"), r.misses as f64);
        current.set(&format!("{key}_bytes_reused"), r.bytes_reused as f64);
    }
    current.set_meta("verdict", if failures.is_empty() { "pass" } else { "fail" });
    current.persist(None, record_results);
    trace::emit_event(
        names::PERF_GATE,
        &[
            ("verdict", current.meta["verdict"].as_str().into()),
            ("wall_ms", wall_ms.into()),
            ("coverage", coverage.into()),
            ("failures", (failures.len() as i64).into()),
        ],
    );

    println!();
    if failures.is_empty() {
        println!(
            "PERF GATE PASS ({gated_metrics} metrics within tolerance, {} matrix configs agree).",
            runs.len()
        );
    } else {
        for f in &failures {
            println!("PERF GATE FAIL: {f}");
            eprintln!("perf_gate: FAIL: {f}");
        }
    }
    drop(report_span);
    bench::telemetry::finish(&jsonl);
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
