//! Checkpoint/resume round-trip: a run killed mid-training and resumed
//! from its last checkpoint must reproduce the uninterrupted run's loss
//! curve, HSIC curve and learned weights **bitwise** — the contract that
//! makes mid-run failures invisible to experiment results.

use datasets::triangles::{generate, TrianglesConfig};
use gnn::encoder::ConvKind;
use gnn::models::{BaselineKind, GnnModel, ModelConfig};
use gnn::trainer::TrainConfig;
use oodgnn_core::{
    train_run, CheckpointConfig, FaultPlan, OodGnn, OodGnnConfig, OodGnnError, TrainCheckpoint,
    TrainOptions, TrainReport,
};
use std::path::PathBuf;
use tensor::rng::Rng;

fn quick_config(encoder: ConvKind) -> OodGnnConfig {
    OodGnnConfig {
        model: ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 6,
            batch_size: 16,
            lr: 3e-3,
            eval_every: Some(2),
            ..Default::default()
        },
        epoch_reweight: 4,
        encoder,
        ..Default::default()
    }
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oodgnn_ckpt_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("train.oods")
}

fn assert_bitwise_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} != {y} (bitwise)"
        );
    }
}

fn kill_resume_roundtrip(encoder: ConvKind, name: &str) {
    let bench = generate(&TrianglesConfig::scaled(0.02), 1);
    let seed = 11;
    let fresh = || {
        let mut mrng = Rng::seed_from(7);
        OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            quick_config(encoder),
            &mut mrng,
        )
    };

    // Uninterrupted reference run (no checkpointing at all, proving the
    // checkpoint writes themselves never perturb the training stream).
    let clean = fresh()
        .train_run(&bench, seed, TrainOptions::default())
        .unwrap();

    // Run with periodic checkpoints, killed mid-epoch 4 by the fault plan.
    let path = scratch_path(name);
    let killed = fresh().train_run(
        &bench,
        seed,
        TrainOptions {
            checkpoint: Some(CheckpointConfig::new(&path, 3)),
            faults: Some(FaultPlan::seeded(9).with_kill_at(4, 0)),
            ..Default::default()
        },
    );
    match killed {
        Err(OodGnnError::Interrupted { epoch: 4, batch: 0 }) => {}
        other => panic!("expected Interrupted at (4, 0), got {other:?}"),
    }
    assert!(path.exists(), "checkpoint must exist after the kill");

    // Resume into a fresh process-equivalent: new model, same seeds.
    let resumed = fresh()
        .train_run(
            &bench,
            seed,
            TrainOptions {
                checkpoint: Some(CheckpointConfig::new(&path, 3)),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap();

    assert_bitwise_eq(&clean.loss_curve, &resumed.loss_curve, "loss_curve");
    assert_bitwise_eq(&clean.hsic_curve, &resumed.hsic_curve, "hsic_curve");
    assert_bitwise_eq(
        &clean.final_weights,
        &resumed.final_weights,
        "final_weights",
    );
    assert_eq!(
        clean.test_metric.to_bits(),
        resumed.test_metric.to_bits(),
        "test metric must match bitwise"
    );
    assert_eq!(clean.best_val_metric, resumed.best_val_metric);
    assert!(resumed.health.is_clean(), "{:?}", resumed.health);

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn gin_kill_and_resume_is_bitwise_identical() {
    // The only test here that attaches a trace sink, so no other test's
    // `detach_all` can take it away mid-run.
    let sink = trace::MemorySink::shared();
    trace::attach(Box::new(sink.clone()));
    kill_resume_roundtrip(ConvKind::Gin, "gin");
    trace::detach_all();
    let events = sink.events();
    for name in ["checkpoint_saved", "checkpoint_restored"] {
        assert!(events.iter().any(|e| e.name == name), "no `{name}` event");
    }
}

#[test]
fn gcn_kill_and_resume_is_bitwise_identical() {
    kill_resume_roundtrip(ConvKind::Gcn, "gcn");
}

#[test]
fn resume_with_wrong_seed_is_rejected() {
    let bench = generate(&TrianglesConfig::scaled(0.02), 1);
    let path = scratch_path("wrong_seed");
    let fresh = || {
        let mut mrng = Rng::seed_from(7);
        OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            quick_config(ConvKind::Gin),
            &mut mrng,
        )
    };
    fresh()
        .train_run(
            &bench,
            11,
            TrainOptions {
                checkpoint: Some(CheckpointConfig::new(&path, 3)),
                ..Default::default()
            },
        )
        .unwrap();
    let err = fresh()
        .train_run(
            &bench,
            12,
            TrainOptions {
                checkpoint: Some(CheckpointConfig::new(&path, 3)),
                resume: true,
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, OodGnnError::Checkpoint(_)),
        "expected a checkpoint error, got {err:?}"
    );
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// The GIN baseline built from the same seed and sizes as
/// `quick_config`'s OOD-GNN: the same parameter shapes.
fn gin_baseline(bench: &datasets::OodBenchmark) -> GnnModel {
    GnnModel::baseline(
        BaselineKind::Gin,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &quick_config(ConvKind::Gin).model,
        &mut Rng::seed_from(7),
    )
}

/// A baseline run (no reweighter) of `quick_config`'s schedule.
fn baseline_run(
    model: &mut GnnModel,
    bench: &datasets::OodBenchmark,
    opts: TrainOptions,
) -> Result<TrainReport, OodGnnError> {
    train_run(
        model,
        None,
        bench,
        &quick_config(ConvKind::Gin).train,
        11,
        opts,
    )
}

#[test]
fn baseline_kill_and_resume_is_bitwise_identical() {
    let bench = generate(&TrianglesConfig::scaled(0.02), 1);
    let clean = baseline_run(&mut gin_baseline(&bench), &bench, TrainOptions::default()).unwrap();

    let path = scratch_path("baseline");
    let killed = baseline_run(
        &mut gin_baseline(&bench),
        &bench,
        TrainOptions {
            checkpoint: Some(CheckpointConfig::new(&path, 1)),
            faults: Some(FaultPlan::seeded(9).with_kill_at(4, 1)),
            ..Default::default()
        },
    );
    match killed {
        Err(OodGnnError::Interrupted { epoch: 4, batch: 1 }) => {}
        other => panic!("expected Interrupted at (4, 1), got {other:?}"),
    }
    let resumed = baseline_run(
        &mut gin_baseline(&bench),
        &bench,
        TrainOptions {
            checkpoint: Some(CheckpointConfig::new(&path, 1)),
            resume: true,
            ..Default::default()
        },
    )
    .unwrap();

    assert_bitwise_eq(&clean.loss_curve, &resumed.loss_curve, "loss_curve");
    let metrics = |r: &TrainReport| [r.train_metric, r.val_metric, r.test_metric].map(f32::to_bits);
    assert_eq!(
        metrics(&clean),
        metrics(&resumed),
        "metrics must match bitwise"
    );
    let best = |r: &TrainReport| {
        (
            r.best_val_metric.map(f32::to_bits),
            r.test_at_best_val.map(f32::to_bits),
        )
    };
    assert!(best(&clean).0.is_some());
    assert_eq!(best(&clean), best(&resumed));
    assert!(resumed.final_weights.is_empty() && resumed.hsic_curve.is_empty());
    assert_eq!(clean.health, resumed.health);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn checkpoint_of_the_other_kind_is_rejected() {
    let bench = generate(&TrianglesConfig::scaled(0.02), 1);
    let save = |path: &PathBuf| TrainOptions {
        checkpoint: Some(CheckpointConfig::new(path, 2)),
        ..Default::default()
    };
    let resume = |path: &PathBuf| TrainOptions {
        resume: true,
        ..save(path)
    };
    let ood = || {
        OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            quick_config(ConvKind::Gin),
            &mut Rng::seed_from(7),
        )
    };
    let base_path = scratch_path("kind_baseline");
    let ood_path = scratch_path("kind_oodgnn");
    baseline_run(&mut gin_baseline(&bench), &bench, save(&base_path)).unwrap();
    ood().train_run(&bench, 11, save(&ood_path)).unwrap();

    // Shapes alone cannot tell the two apart: either model restores
    // from either checkpoint.
    let ood_ck = TrainCheckpoint::load(&ood_path).unwrap();
    ood_ck.restore_model(&mut gin_baseline(&bench)).unwrap();
    TrainCheckpoint::load(&base_path)
        .unwrap()
        .restore_model(ood().model_mut())
        .unwrap();
    assert!(!ood_ck.memory_tensors.is_empty());

    let err = baseline_run(&mut gin_baseline(&bench), &bench, resume(&ood_path)).unwrap_err();
    assert!(
        matches!(err, OodGnnError::Checkpoint(_)),
        "baseline resumed from an OOD-GNN checkpoint: {err:?}"
    );
    let err = ood().train_run(&bench, 11, resume(&base_path)).unwrap_err();
    assert!(
        matches!(err, OodGnnError::Checkpoint(_)),
        "OOD-GNN resumed from a baseline checkpoint: {err:?}"
    );
    for p in [base_path, ood_path] {
        std::fs::remove_dir_all(p.parent().unwrap()).ok();
    }
}
