//! The weight inner loop's divergence guard: an injected spike must be
//! caught, retried and leave finite, projected weights, while a fault plan
//! that never fires must leave the run bitwise untouched.

use datasets::triangles::{generate, TrianglesConfig};
use gnn::encoder::ConvKind;
use gnn::models::ModelConfig;
use gnn::trainer::TrainConfig;
use oodgnn_core::{FaultPlan, OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use tensor::rng::Rng;

/// The weight floor `GraphWeights::project` enforces.
const FLOOR: f32 = 1e-3;

fn run(faults: Option<FaultPlan>) -> OodGnnReport {
    let config = OodGnnConfig {
        model: ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 3e-3,
            ..Default::default()
        },
        epoch_reweight: 4,
        encoder: ConvKind::Gin,
        ..Default::default()
    };
    let bench = generate(&TrianglesConfig::scaled(0.02), 1);
    let mut mrng = Rng::seed_from(7);
    let mut model = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        config,
        &mut mrng,
    );
    let opts = TrainOptions {
        faults,
        ..Default::default()
    };
    model
        .train_run(&bench, 11, opts)
        .expect("training run completes")
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn spiked_inner_loop_retries_and_ends_with_finite_projected_weights() {
    let report = run(Some(FaultPlan::seeded(3).with_inner_spikes(1.0)));
    assert!(
        report.health.inner_retries > 0,
        "every batch was spiked, so the guard must retry: {:?}",
        report.health
    );
    let w = &report.final_weights;
    assert!(!w.is_empty());
    assert!(
        w.iter().all(|x| x.is_finite() && *x >= FLOOR),
        "weights must be finite and above the floor: {w:?}"
    );
    // Each batch is projected to mean 1 (within the floor's slack), so the
    // last epoch's weights average to 1 too.
    let mean = w.iter().sum::<f32>() / w.len() as f32;
    assert!((mean - 1.0).abs() < 1e-2, "mean weight {mean}");
    assert!(report.loss_curve.iter().all(|l| l.is_finite()));
}

#[test]
fn plan_that_never_fires_leaves_the_run_bitwise_untouched() {
    let clean = run(None);
    let idle = run(Some(FaultPlan::seeded(3).with_inner_spikes(0.0)));
    assert_eq!(
        bits(&clean.loss_curve),
        bits(&idle.loss_curve),
        "loss curve"
    );
    assert_eq!(
        bits(&clean.hsic_curve),
        bits(&idle.hsic_curve),
        "HSIC curve"
    );
    assert_eq!(
        bits(&clean.final_weights),
        bits(&idle.final_weights),
        "final weights"
    );
    assert!(idle.health.is_clean(), "{:?}", idle.health);
}
