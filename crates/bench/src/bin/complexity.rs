//! §4.7 — time-complexity measurements: the paper claims
//! `O(|E|d + |V|d² + K|B|d²)` per step, i.e. the reweighting overhead is
//! independent of the dataset size and the total cost scales linearly with
//! the number of graphs.
//!
//! This binary measures (a) wall-time per training epoch vs. dataset size
//! (expect ~linear), (b) weight-optimization time vs. batch size (expect
//! ~linear) and (c) vs. representation dimensionality (expect ~quadratic),
//! and compares one epoch of OOD-GNN against plain GIN.
//!
//! Usage: `cargo run -p bench --release --bin complexity [--seeds 1]`

use bench::{run_method, Args, MethodSpec, SuiteConfig};
use datasets::triangles::TrianglesConfig;
use gnn::models::BaselineKind;
use std::time::Instant;

fn time_it(f: impl FnOnce()) -> f32 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f32()
}

fn main() {
    let args = Args::from_env();
    let mut suite = SuiteConfig::from_args(&args);
    suite.epochs = args.get_usize("epochs", 3);
    let base_seed = args.get_u64("seed", 7);
    let telemetry = bench::telemetry::init("complexity", base_seed);

    println!("# §4.7: time complexity\n");

    println!("## (a) total training time vs. dataset size (expect ~linear)\n");
    println!("| #graphs | OOD-GNN time (s) | GIN time (s) | ratio |");
    println!("|---|---|---|---|");
    for frac in [0.02f32, 0.04, 0.08, 0.16] {
        let bench = datasets::triangles::generate(&TrianglesConfig::scaled(frac), base_seed);
        let n = bench.dataset.len();
        let t_ood = time_it(|| {
            run_method(MethodSpec::OodGnn, &bench, &suite, base_seed);
        });
        let t_gin = time_it(|| {
            run_method(
                MethodSpec::Baseline(BaselineKind::Gin),
                &bench,
                &suite,
                base_seed,
            );
        });
        println!(
            "| {n} | {t_ood:.2} | {t_gin:.2} | {:.2}x |",
            t_ood / t_gin.max(1e-9)
        );
    }

    println!("\n## (b) weight-optimization step vs. batch size (expect ~linear)\n");
    println!("| batch rows (K+1)|B| | time per inner step (ms) |");
    println!("|---|---|");
    use oodgnn_core::{DecorrelationCtx, DecorrelationKind};
    use tensor::optim::Adam;
    use tensor::rng::Rng;
    use tensor::Tensor;
    let d = 64;
    for rows in [32usize, 64, 128, 256, 512] {
        let mut rng = Rng::seed_from(1);
        let z = Tensor::randn([rows, d], &mut rng);
        let mut w = oodgnn_core::GraphWeights::uniform(rows);
        let mut opt = Adam::new(0.05);
        let reps = 10;
        // One lift per batch, then `reps` weight steps, as the trainer runs.
        let t = time_it(|| {
            let ctx = DecorrelationCtx::new(d, &DecorrelationKind::Rff { q: 1 }, &mut rng);
            let lifted = ctx.lift(&z);
            for _ in 0..reps {
                let (_, grad) = w.objective_and_grad(&lifted, &[], 0.0);
                opt.update(w.param_mut(), &grad);
                w.project();
            }
        });
        println!("| {rows} | {:.2} |", 1000.0 * t / reps as f32);
    }

    println!("\n## (c) weight-optimization step vs. representation dim d (expect ~quadratic)\n");
    println!("| d | time per inner step (ms) |");
    println!("|---|---|");
    for d in [16usize, 32, 64, 128] {
        let mut rng = Rng::seed_from(2);
        let rows = 128;
        let z = Tensor::randn([rows, d], &mut rng);
        let mut w = oodgnn_core::GraphWeights::uniform(rows);
        let mut opt = Adam::new(0.05);
        let reps = 10;
        // One lift per batch, then `reps` weight steps, as the trainer runs.
        let t = time_it(|| {
            let ctx = DecorrelationCtx::new(d, &DecorrelationKind::Rff { q: 1 }, &mut rng);
            let lifted = ctx.lift(&z);
            for _ in 0..reps {
                let (_, grad) = w.objective_and_grad(&lifted, &[], 0.0);
                opt.update(w.param_mut(), &grad);
                w.project();
            }
        });
        println!("| {d} | {:.2} |", 1000.0 * t / reps as f32);
    }
    println!("\nExpected shape (paper): OOD-GNN's per-epoch cost stays within a small constant factor of GIN's and scales linearly with dataset and batch size, quadratically with d.");
    bench::telemetry::finish(&telemetry);
}
