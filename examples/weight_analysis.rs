//! Inspecting what OOD-GNN's reweighting does: sample weights can remove
//! dependence that is *carried by a subpopulation* (down-weight the rows
//! that create it), which is exactly the spurious-correlation structure of
//! OOD training sets — and they provably cannot fix dependence that holds
//! for every sample (e.g. duplicated dimensions).
//!
//! The example (1) demonstrates the mechanism on a constructed
//! representation matrix via the public [`OodGnn::reweight`] API and the
//! `analysis` diagnostics, then (2) trains OOD-GNN on the PROTEINS-like
//! size-shift benchmark and summarizes the learned weight distribution.
//!
//! Run with: `cargo run --release --example weight_analysis`

use ood_gnn::core::analysis::dependence_report;
use ood_gnn::prelude::*;

fn main() {
    let mut rng = Rng::seed_from(3);

    // ---------------------------------------------------------------------
    // Part 1: the mechanism. Build a representation matrix where dimension
    // 0 and 1 are strongly dependent *only within the first half of the
    // samples* (the "spurious subpopulation"); the rest are independent.
    // ---------------------------------------------------------------------
    let n = 64;
    let d = 8;
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        let shared = rng.normal();
        for j in 0..d {
            if i < n / 2 && j < 2 {
                data.push(shared + 0.05 * rng.normal()); // dependent pair
            } else {
                data.push(rng.normal());
            }
        }
    }
    let z = Tensor::from_vec(data, [n, d]);

    let cfg = OodGnnConfig {
        model: ModelConfig {
            hidden: d,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            batch_size: n,
            ..Default::default()
        },
        epoch_reweight: 120,
        weight_lr: 0.3,
        lambda: 0.002,
        // The planted dependence is linear, so use the linear variant for a
        // crisp demonstration (RFF targets nonlinear dependence).
        decorrelation: DecorrelationKind::Linear,
        ..Default::default()
    };
    let mut model = OodGnn::new(4, TaskType::MultiClass { classes: 2 }, cfg, &mut rng);

    let uniform = Tensor::ones([n]);
    let learned_vec = model
        .reweight(&z, &mut rng)
        .expect("reweight on [n, d] input");
    let learned = Tensor::from_vec(learned_vec.clone(), [n]);
    let before = dependence_report(&z, &uniform, 11).expect("one weight per row");
    let after = dependence_report(&z, &learned, 11).expect("one weight per row");
    println!("mechanism demo (dependence carried by half the samples):");
    println!(
        "  uniform weights : mean |corr| = {:.4}, max |corr| = {:.4}",
        before.mean_abs_correlation, before.max_abs_correlation
    );
    println!(
        "  learned weights : mean |corr| = {:.4}, max |corr| = {:.4}",
        after.mean_abs_correlation, after.max_abs_correlation
    );
    let dep_weight: f32 = learned_vec[..n / 2].iter().sum::<f32>() / (n / 2) as f32;
    let ind_weight: f32 = learned_vec[n / 2..].iter().sum::<f32>() / (n / 2) as f32;
    println!(
        "  avg weight of dependent rows {dep_weight:.3} vs independent rows {ind_weight:.3} (down-weighting the culprits)"
    );

    // ---------------------------------------------------------------------
    // Part 2: end-to-end on the size-shift benchmark.
    // ---------------------------------------------------------------------
    let bench = ood_gnn::datasets::social::generate(&SocialConfig::proteins25(0.3), 17);
    println!(
        "\nPROTEINS-25: {} train graphs; spurious size↔label bias = 0.85",
        bench.split.train.len()
    );
    let cfg = OodGnnConfig {
        model: ModelConfig {
            hidden: 24,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 20,
            batch_size: 64,
            lr: 2e-3,
            ..Default::default()
        },
        epoch_reweight: 20,
        ..Default::default()
    };
    let mut model = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        cfg,
        &mut rng,
    );
    let report = model.train(&bench, 5).expect("training failed");
    let stats = report.weight_stats;
    println!(
        "learned weights: mean {:.3} (projected to 1), std {:.3}, range [{:.3}, {:.3}], effective sample fraction {:.2}",
        stats.mean,
        stats.std,
        stats.min,
        stats.max,
        stats.ess / report.final_weights.len() as f32
    );
    println!(
        "OOD test accuracy: {:.3} (train {:.3})",
        report.test_metric, report.train_metric
    );
}
