//! Molecular property prediction under scaffold shift — the drug-discovery
//! scenario the paper's introduction motivates (Figure 1c): models trained
//! on molecules with one group of scaffolds must predict properties of
//! structurally distinct, unseen scaffolds.
//!
//! This example builds the BACE-like benchmark, shows why the scaffold
//! split is hard (the scaffold↔label correlation holds in training but not
//! on test scaffolds), then trains GIN vs. OOD-GNN and reports ROC-AUC.
//!
//! Run with: `cargo run --release --example molecule_scaffold_ood`

use ood_gnn::prelude::*;

fn main() {
    // BACE-like dataset, capped at 600 molecules for a fast run.
    let bench = ood_gnn::datasets::ogb::generate(OgbDataset::Bace, Some(600), 11);
    println!(
        "BACE-like: {} molecules, avg {:.1} atoms",
        bench.dataset.len(),
        bench.dataset.stats().1
    );

    // Demonstrate the spurious correlation: within the *training* split,
    // scaffold parity predicts the label far better than chance; on the
    // test scaffolds it cannot (they were never biased).
    let label_rate_by_parity = |ids: &[usize]| -> [f32; 2] {
        let mut pos = [0f32; 2];
        let mut tot = [0f32; 2];
        for &i in ids {
            let g = bench.dataset.graph(i);
            let parity = (g.scaffold().unwrap() % 2) as usize;
            if let Label::MultiBinary { values, .. } = g.label() {
                tot[parity] += 1.0;
                pos[parity] += values[0];
            }
        }
        [pos[0] / tot[0].max(1.0), pos[1] / tot[1].max(1.0)]
    };
    let train_rates = label_rate_by_parity(&bench.split.train);
    println!(
        "train scaffolds: P(active | even scaffold) = {:.2}, P(active | odd scaffold) = {:.2}  <- spurious signal",
        train_rates[0], train_rates[1]
    );

    let scaffold_of = |ids: &[usize]| -> std::collections::BTreeSet<u32> {
        ids.iter()
            .map(|&i| bench.dataset.graph(i).scaffold().unwrap())
            .collect()
    };
    println!(
        "train scaffolds {:?} vs test scaffolds {:?} (disjoint)",
        scaffold_of(&bench.split.train),
        scaffold_of(&bench.split.test)
    );

    // Train GIN vs OOD-GNN.
    let mut rng = Rng::seed_from(3);
    let model_cfg = ModelConfig {
        hidden: 32,
        layers: 3,
        dropout: 0.1,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        epochs: 15,
        batch_size: 32,
        lr: 2e-3,
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
        5,
        TrainOptions::default(),
    )
    .expect("training failed");
    println!(
        "GIN     : train AUC {:.3} | scaffold-OOD test AUC {:.3}",
        gin_report.train_metric, gin_report.test_metric
    );

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
    let ood_report = ood.train(&bench, 5).expect("training failed");
    println!(
        "OOD-GNN : train AUC {:.3} | scaffold-OOD test AUC {:.3}",
        ood_report.train_metric, ood_report.test_metric
    );
}
