//! Quickstart: train OOD-GNN on the TRIANGLES size-shift benchmark and
//! compare against a plain GIN baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use ood_gnn::prelude::*;

fn main() {
    // 1. Generate the TRIANGLES benchmark: train on graphs with 4–25 nodes,
    //    test on strictly larger graphs (up to 100 nodes). `scaled(0.1)`
    //    uses 10% of the paper-scale dataset so this example runs in
    //    seconds; pass 1.0 for the full 3000/500/500 split.
    let bench = ood_gnn::datasets::triangles::generate(&TrianglesConfig::scaled(0.1), 42);
    println!(
        "TRIANGLES: {} train / {} val / {} test graphs, {} node features",
        bench.split.train.len(),
        bench.split.val.len(),
        bench.split.test.len(),
        bench.dataset.feature_dim()
    );

    // 2. Train a plain GIN baseline by empirical risk minimization.
    let mut rng = Rng::seed_from(0);
    let model_cfg = ModelConfig {
        hidden: 32,
        layers: 2,
        dropout: 0.1,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        epochs: 20,
        batch_size: 32,
        lr: 3e-3,
        ..Default::default()
    };
    let mut gin = GnnModel::baseline(
        BaselineKind::Gin,
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        &model_cfg,
        &mut rng,
    );
    let gin_report = train_run(
        &mut gin,
        None,
        &bench,
        &train_cfg,
        1,
        TrainOptions::default(),
    )
    .expect("training failed");
    println!(
        "GIN      : train acc {:.3} | OOD test acc {:.3}",
        gin_report.train_metric, gin_report.test_metric
    );

    // 3. Train OOD-GNN: the same GIN backbone plus nonlinear representation
    //    decorrelation with learned sample weights (Algorithm 1).
    let ood_cfg = OodGnnConfig {
        model: model_cfg,
        train: train_cfg,
        epoch_reweight: 8,
        ..Default::default()
    };
    let mut ood = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        ood_cfg,
        &mut rng,
    );
    let ood_report = ood.train(&bench, 1).expect("training failed");
    println!(
        "OOD-GNN  : train acc {:.3} | OOD test acc {:.3}",
        ood_report.train_metric, ood_report.test_metric
    );

    // 4. Inspect what the method learned: the per-graph sample weights.
    let (wmin, wmax) = ood_report
        .final_weights
        .iter()
        .fold((f32::MAX, f32::MIN), |(lo, hi), &w| (lo.min(w), hi.max(w)));
    println!("learned sample weights span [{wmin:.3}, {wmax:.3}] (mean is projected to 1)");
}
