//! The training guardrails: an injected inner-loop spike must be caught,
//! retried and leave finite, projected weights; NaN-corrupted batches must
//! be contained before any optimizer step; each intervention must reach
//! the telemetry; and a fault plan that never fires must leave the run
//! bitwise untouched.

use datasets::triangles::{generate, TrianglesConfig};
use gnn::encoder::ConvKind;
use gnn::models::ModelConfig;
use gnn::trainer::TrainConfig;
use oodgnn_core::{FaultPlan, OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use std::sync::Mutex;
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

/// Trace sinks are process-wide: the tests that record telemetry take
/// turns.
static TRACE: Mutex<()> = Mutex::new(());

/// [`run`] under `faults` with an in-memory trace sink attached; also
/// returns the names of the events the run emitted.
fn run_traced(faults: FaultPlan) -> (OodGnnReport, Vec<String>) {
    let _g = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    let sink = trace::MemorySink::shared();
    trace::attach(Box::new(sink.clone()));
    let report = run(Some(faults));
    trace::detach_all();
    (report, sink.events().into_iter().map(|e| e.name).collect())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn spiked_inner_loop_retries_and_ends_with_finite_projected_weights() {
    let (report, events) = run_traced(FaultPlan::seeded(3).with_inner_spikes(1.0));
    assert!(
        report.health.inner_retries > 0,
        "every batch was spiked, so the guard must retry: {:?}",
        report.health
    );
    for name in ["fault_injected", "inner_retry"] {
        assert!(events.iter().any(|e| e == name), "no `{name}` event");
    }
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
fn nan_batches_are_contained_and_the_run_stays_finite() {
    let (report, events) = run_traced(FaultPlan::seeded(11).with_nan_batches(0.4));
    // NaN features are scrubbed by ReLU in the forward pass and resurface
    // in the gradients (`skipped_steps`); Inf can survive to the encoded
    // representations (`nan_batches`). Either way no optimizer step sees it.
    assert!(
        report.health.nan_batches + report.health.skipped_steps > 0,
        "{:?}",
        report.health
    );
    assert!(report.test_metric.is_finite(), "{}", report.test_metric);
    assert!(report.loss_curve.iter().all(|l| l.is_finite()));
    assert!(report.final_weights.iter().all(|w| w.is_finite()));
    for name in ["fault_injected", "nan_detected"] {
        assert!(events.iter().any(|e| e == name), "no `{name}` event");
    }
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
