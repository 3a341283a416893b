//! Using OOD-GNN on your own graphs: build a [`GraphDataset`] by hand,
//! define a split, and train. This is the template for plugging any
//! downstream graph-classification corpus into the library.
//!
//! The toy task: classify whether a communication network is
//! "ring-shaped" (class 0) or "star-shaped" (class 1), where the training
//! sample spuriously couples shape with a noisy feature channel.
//!
//! Run with: `cargo run --release --example custom_dataset`

use ood_gnn::prelude::*;

/// Build one graph: ring or star over `n` nodes, with 3 feature channels:
/// [1, degree/n, bias-channel]. During training the bias channel is
/// correlated with the class; at test it is pure noise.
fn make_graph(class: usize, n: usize, biased: bool, rng: &mut Rng) -> Graph {
    let mut feats = Tensor::zeros([n, 3]);
    let bias_value = if biased {
        // 85% label-correlated at train time: tempting but imperfect, so
        // reweighting has conflicting samples to amplify.
        if rng.bernoulli(0.85) {
            class as f32
        } else {
            1.0 - class as f32
        }
    } else {
        rng.unit().round() // coin flip at test time
    };
    for i in 0..n {
        *feats.at_mut(i, 0) = 1.0;
        *feats.at_mut(i, 2) = bias_value + 0.1 * rng.normal();
    }
    let mut g = Graph::new(n, feats, Label::Class(class));
    match class {
        0 => {
            for i in 0..n {
                g.add_undirected_edge(i, (i + 1) % n);
            }
        }
        _ => {
            for i in 1..n {
                g.add_undirected_edge(0, i);
            }
        }
    }
    // Fill in the degree feature now that edges exist.
    let degs = g.degrees();
    for (i, &d) in degs.iter().enumerate() {
        *g.features_mut().at_mut(i, 1) = d as f32 / n as f32;
    }
    g
}

fn main() {
    let mut rng = Rng::seed_from(77);
    let mut graphs = Vec::new();
    let mut split = Split::default();
    // 200 biased training graphs, 40 validation, 80 unbiased test graphs.
    for i in 0..320 {
        let class = rng.below(2);
        let n = rng.range_inclusive(6, 14);
        let biased = i < 240;
        graphs.push(make_graph(class, n, biased, &mut rng));
        if i < 200 {
            split.train.push(i);
        } else if i < 240 {
            split.val.push(i);
        } else {
            split.test.push(i);
        }
    }
    let dataset = GraphDataset::new(
        "rings-vs-stars",
        graphs,
        TaskType::MultiClass { classes: 2 },
    );
    let bench = OodBenchmark { dataset, split };
    bench.validate().expect("valid split");

    println!(
        "custom dataset: {} graphs ({} train / {} val / {} test), feature dim {}",
        bench.dataset.len(),
        bench.split.train.len(),
        bench.split.val.len(),
        bench.split.test.len(),
        bench.dataset.feature_dim()
    );

    let model_cfg = ModelConfig {
        hidden: 16,
        layers: 2,
        dropout: 0.0,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        epochs: 15,
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
        13,
        TrainOptions::default(),
    )
    .expect("training failed");
    println!(
        "GIN     : train acc {:.3} | unbiased-test acc {:.3}",
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
    let ood_report = ood.train(&bench, 13).expect("training failed");
    println!(
        "OOD-GNN : train acc {:.3} | unbiased-test acc {:.3}",
        ood_report.train_metric, ood_report.test_metric
    );
    println!("(the structural ring/star signal is perfectly predictive; a model leaning on the bias channel drops to ~50% on the unbiased test set)");
}
