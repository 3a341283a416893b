//! Integration tests for the library extensions: checkpointing trained
//! models, validation-based model selection and the GAT/GraphSAGE
//! backbones.

use ood_gnn::core::TrainCheckpoint;
use ood_gnn::prelude::*;

fn small_bench() -> OodBenchmark {
    ood_gnn::datasets::triangles::generate(&TrianglesConfig::scaled(0.02), 99)
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    let bench = small_bench();
    let mut rng = Rng::seed_from(1);
    let cfg = ModelConfig {
        hidden: 12,
        layers: 2,
        dropout: 0.0,
        ..Default::default()
    };
    let mut model = GnnModel::baseline(
        BaselineKind::Gin,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &cfg,
        &mut rng,
    );
    let train_cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        ..Default::default()
    };
    let _ = train_run(
        &mut model,
        None,
        &bench,
        &train_cfg,
        2,
        TrainOptions::default(),
    )
    .expect("training failed");

    let dir = std::env::temp_dir().join(format!("oodgnn_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.oods");
    TrainCheckpoint::from_model(&mut model).save(&path).unwrap();

    // A second model with different random init must predict identically
    // after loading the checkpoint.
    let mut model2 = GnnModel::baseline(
        BaselineKind::Gin,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &cfg,
        &mut rng,
    );
    TrainCheckpoint::load(&path)
        .unwrap()
        .restore_model(&mut model2)
        .unwrap();

    let batch = GraphBatch::from_dataset(&bench.dataset, &bench.split.test[..4]);
    let out1 = {
        let mut tape = Tape::new();
        let o = model.predict(&mut tape, &batch, Mode::Eval, &mut rng);
        tape.value(o).clone()
    };
    let out2 = {
        let mut tape = Tape::new();
        let o = model2.predict(&mut tape, &batch, Mode::Eval, &mut rng);
        tape.value(o).clone()
    };
    assert!(out1.max_abs_diff(&out2) < 1e-6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_selection_tracks_best_validation_epoch() {
    let bench = small_bench();
    let mut rng = Rng::seed_from(3);
    let cfg = ModelConfig {
        hidden: 12,
        layers: 2,
        dropout: 0.0,
        ..Default::default()
    };
    let mut model = GnnModel::baseline(
        BaselineKind::Gcn,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &cfg,
        &mut rng,
    );
    let train_cfg = TrainConfig {
        epochs: 6,
        batch_size: 16,
        eval_every: Some(2),
        ..Default::default()
    };
    let report = train_run(
        &mut model,
        None,
        &bench,
        &train_cfg,
        4,
        TrainOptions::default(),
    )
    .expect("training failed");
    let best = report
        .best_val_metric
        .expect("eval_every should record best val");
    let test_at_best = report.test_at_best_val.expect("and the paired test metric");
    assert!((0.0..=1.0).contains(&best));
    assert!((0.0..=1.0).contains(&test_at_best));
    // Best-val accuracy can never be below the final val metric minus noise
    // tolerance: it is a maximum over evaluated epochs.
    assert!(best >= report.val_metric - 1e-6);
}

#[test]
fn oodgnn_supports_model_selection_too() {
    let bench = small_bench();
    let mut rng = Rng::seed_from(5);
    let cfg = OodGnnConfig {
        model: ModelConfig {
            hidden: 12,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 4,
            batch_size: 16,
            eval_every: Some(2),
            ..Default::default()
        },
        epoch_reweight: 2,
        ..Default::default()
    };
    let mut model = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        cfg,
        &mut rng,
    );
    let report = model.train(&bench, 6).expect("training failed");
    assert!(report.best_val_metric.is_some());
    assert!(report.test_at_best_val.is_some());
}

#[test]
fn gat_and_sage_backbones_train() {
    use ood_gnn::gnn::encoder::{ConvKind, GraphEncoder, Readout, StackedEncoder};
    let bench = small_bench();
    let mut rng = Rng::seed_from(7);
    for kind in [ConvKind::Gat { heads: 2 }, ConvKind::Sage] {
        let enc: Box<dyn GraphEncoder> = Box::new(StackedEncoder::new(
            kind,
            bench.dataset.feature_dim(),
            12,
            2,
            false,
            Readout::Mean,
            0.0,
            &mut rng,
        ));
        let mut model = GnnModel::from_encoder(enc, bench.dataset.task(), &mut rng);
        let config = TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..Default::default()
        };
        let report = train_run(
            &mut model,
            None,
            &bench,
            &config,
            8,
            TrainOptions::default(),
        )
        .expect("training failed");
        assert!(report.test_metric.is_finite(), "{kind:?}");
    }
}

#[test]
fn oodgnn_runs_on_alternative_backbones() {
    use ood_gnn::gnn::encoder::ConvKind;
    let bench = small_bench();
    let mut rng = Rng::seed_from(9);
    for kind in [ConvKind::Sage, ConvKind::Gcn] {
        let cfg = OodGnnConfig {
            model: ModelConfig {
                hidden: 12,
                layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            train: TrainConfig {
                epochs: 2,
                batch_size: 16,
                ..Default::default()
            },
            epoch_reweight: 2,
            encoder: kind,
            ..Default::default()
        };
        let mut model = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            cfg,
            &mut rng,
        );
        let report = model.train(&bench, 10).expect("training failed");
        assert!(report.test_metric.is_finite(), "{kind:?}");
    }
}
