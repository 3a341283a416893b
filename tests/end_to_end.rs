//! Cross-crate integration tests: full pipelines from dataset generation
//! through training to evaluation, exercising the public API exactly as
//! the examples and the experiment harness do.

use ood_gnn::prelude::*;

fn small_train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 3e-3,
        ..Default::default()
    }
}

fn small_model_cfg() -> ModelConfig {
    ModelConfig {
        hidden: 16,
        layers: 2,
        dropout: 0.0,
        ..Default::default()
    }
}

#[test]
fn triangles_pipeline_baseline_and_oodgnn() {
    let bench = ood_gnn::datasets::triangles::generate(&TrianglesConfig::scaled(0.02), 1);
    bench.validate().unwrap();
    let mut rng = Rng::seed_from(2);

    let mut gin = GnnModel::baseline(
        BaselineKind::Gin,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &small_model_cfg(),
        &mut rng,
    );
    let base = train_run(
        &mut gin,
        None,
        &bench,
        &small_train_cfg(6),
        3,
        TrainOptions::default(),
    )
    .expect("training failed");
    assert!(base.train_metric.is_finite() && base.test_metric.is_finite());

    let cfg = OodGnnConfig {
        model: small_model_cfg(),
        train: small_train_cfg(6),
        epoch_reweight: 3,
        ..Default::default()
    };
    let mut ood = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        cfg,
        &mut rng,
    );
    let report = ood.train(&bench, 3).expect("training failed");
    assert!(report.test_metric.is_finite());
    assert_eq!(report.final_weights.len(), bench.split.train.len());
}

#[test]
fn multitask_molecule_pipeline() {
    // CLINTOX-like: 2 binary tasks with a scaffold split.
    let bench = ood_gnn::datasets::ogb::generate(OgbDataset::Clintox, Some(120), 5);
    bench.validate().unwrap();
    assert_eq!(
        bench.dataset.task(),
        TaskType::BinaryClassification { tasks: 2 }
    );
    let mut rng = Rng::seed_from(6);
    let mut model = GnnModel::baseline(
        BaselineKind::GcnVirtual,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &small_model_cfg(),
        &mut rng,
    );
    let report = train_run(
        &mut model,
        None,
        &bench,
        &small_train_cfg(4),
        7,
        TrainOptions::default(),
    )
    .expect("training failed");
    // ROC-AUC is bounded in [0, 1].
    for m in [report.train_metric, report.val_metric, report.test_metric] {
        assert!((0.0..=1.0).contains(&m), "auc {m}");
    }
}

#[test]
fn regression_pipeline() {
    let bench = ood_gnn::datasets::ogb::generate(OgbDataset::Freesolv, Some(100), 8);
    let mut rng = Rng::seed_from(9);
    let cfg = OodGnnConfig {
        model: small_model_cfg(),
        train: small_train_cfg(5),
        epoch_reweight: 3,
        ..Default::default()
    };
    let mut ood = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        cfg,
        &mut rng,
    );
    let report = ood.train(&bench, 10).expect("training failed");
    assert!(report.test_metric >= 0.0, "rmse must be non-negative");
    // Training should reduce the loss.
    let first = report.loss_curve[0];
    let last = *report.loss_curve.last().unwrap();
    assert!(
        last < first,
        "regression loss should fall: {first} -> {last}"
    );
}

#[test]
fn size_shift_pipeline_all_social_families() {
    for cfg in [
        SocialConfig::collab35(0.04),
        SocialConfig::proteins25(0.04),
        SocialConfig::dd200(0.04),
        SocialConfig::dd300(0.04),
    ] {
        let bench = ood_gnn::datasets::social::generate(&cfg, 11);
        bench.validate().unwrap();
        let mut rng = Rng::seed_from(12);
        let mut model = GnnModel::baseline(
            BaselineKind::Gcn,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &small_model_cfg(),
            &mut rng,
        );
        let report = train_run(
            &mut model,
            None,
            &bench,
            &small_train_cfg(2),
            13,
            TrainOptions::default(),
        )
        .expect("training failed");
        assert!(report.test_metric.is_finite(), "{}", cfg.name);
    }
}

#[test]
fn mnistsp_noise_variants_share_structures() {
    use ood_gnn::datasets::mnistsp::{self, NoiseVariant};
    let clean = mnistsp::generate(&MnistSpConfig::scaled(0.004), 20);
    let noise = mnistsp::generate(
        &MnistSpConfig::scaled(0.004).with_variant(NoiseVariant::Noise),
        20,
    );
    for (&i, &j) in clean.split.test.iter().zip(noise.split.test.iter()) {
        assert_eq!(
            clean.dataset.graph(i).edges(),
            noise.dataset.graph(j).edges()
        );
    }
}

#[test]
fn all_nine_baselines_run_on_one_batch() {
    let bench = ood_gnn::datasets::triangles::generate(&TrianglesConfig::scaled(0.01), 30);
    let batch = GraphBatch::from_dataset(
        &bench.dataset,
        &bench.split.train[..8.min(bench.split.train.len())],
    );
    let mut rng = Rng::seed_from(31);
    for kind in gnn::models::ALL_BASELINES {
        let mut m = GnnModel::baseline(
            kind,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &small_model_cfg(),
            &mut rng,
        );
        let mut tape = Tape::new();
        let out = m.predict(&mut tape, &batch, Mode::Train, &mut rng);
        assert_eq!(
            tape.shape(out).dims(),
            &[batch.num_graphs, 10],
            "{}",
            kind.name()
        );
        assert!(!tape.value(out).has_non_finite(), "{}", kind.name());
    }
}

#[test]
fn determinism_across_identical_runs() {
    let bench = ood_gnn::datasets::triangles::generate(&TrianglesConfig::scaled(0.01), 40);
    let run = || {
        let mut rng = Rng::seed_from(41);
        let cfg = OodGnnConfig {
            model: small_model_cfg(),
            train: small_train_cfg(3),
            epoch_reweight: 2,
            ..Default::default()
        };
        let mut ood = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            cfg,
            &mut rng,
        );
        let r = ood.train(&bench, 42).expect("training failed");
        (r.test_metric, r.loss_curve, r.final_weights)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn oodgnn_weights_respect_constraint_after_training() {
    let bench = ood_gnn::datasets::ogb::generate(OgbDataset::Bbbp, Some(80), 50);
    let mut rng = Rng::seed_from(51);
    let cfg = OodGnnConfig {
        model: small_model_cfg(),
        train: small_train_cfg(4),
        epoch_reweight: 5,
        ..Default::default()
    };
    let mut ood = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        cfg,
        &mut rng,
    );
    let report = ood.train(&bench, 52).expect("training failed");
    assert!(report.final_weights.iter().all(|&w| w > 0.0));
    let mean: f32 = report.final_weights.iter().sum::<f32>() / report.final_weights.len() as f32;
    assert!((mean - 1.0).abs() < 0.3, "weight mean {mean}");
}
