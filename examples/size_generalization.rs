//! Size generalization on PROTEINS-like graphs: train on graphs with at
//! most 25 nodes, test on graphs with up to hundreds of nodes (the
//! paper's Table 3 protocol), and inspect how each method's accuracy
//! decays with test-graph size.
//!
//! Run with: `cargo run --release --example size_generalization`

use ood_gnn::prelude::*;

fn accuracy_by_size_bucket(
    model: &mut GnnModel,
    bench: &OodBenchmark,
    rng: &mut Rng,
) -> Vec<(String, f32, usize)> {
    // Bucket test graphs by node count and evaluate each bucket.
    let buckets: [(usize, usize); 3] = [(0, 60), (61, 150), (151, usize::MAX)];
    let mut out = Vec::new();
    for (lo, hi) in buckets {
        let ids: Vec<usize> = bench
            .split
            .test
            .iter()
            .copied()
            .filter(|&i| {
                let n = bench.dataset.graph(i).num_nodes();
                n >= lo && n <= hi
            })
            .collect();
        if ids.is_empty() {
            continue;
        }
        let acc = evaluate(model, &bench.dataset, &ids, 32, rng);
        let label = if hi == usize::MAX {
            format!("{lo}+")
        } else {
            format!("{lo}-{hi}")
        };
        out.push((label, acc, ids.len()));
    }
    out
}

fn main() {
    let bench = ood_gnn::datasets::social::generate(&SocialConfig::proteins25(0.5), 21);
    println!(
        "PROTEINS-25: {} train (≤25 nodes) / {} OOD test (26+ nodes)",
        bench.split.train.len(),
        bench.split.test.len()
    );

    let mut rng = Rng::seed_from(4);
    let model_cfg = ModelConfig {
        hidden: 32,
        layers: 3,
        dropout: 0.1,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        epochs: 20,
        batch_size: 32,
        lr: 2e-3,
        ..Default::default()
    };

    // GIN baseline.
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
        9,
        TrainOptions::default(),
    )
    .expect("training failed");
    println!(
        "\nGIN     : train acc {:.3} | overall OOD test acc {:.3}",
        gin_report.train_metric, gin_report.test_metric
    );
    for (bucket, acc, n) in accuracy_by_size_bucket(&mut gin, &bench, &mut rng) {
        println!("  test graphs with {bucket} nodes: acc {acc:.3} (n={n})");
    }

    // OOD-GNN.
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
    let ood_report = ood.train(&bench, 9).expect("training failed");
    println!(
        "\nOOD-GNN : train acc {:.3} | overall OOD test acc {:.3}",
        ood_report.train_metric, ood_report.test_metric
    );
    for (bucket, acc, n) in accuracy_by_size_bucket(ood.model_mut(), &bench, &mut rng) {
        println!("  test graphs with {bucket} nodes: acc {acc:.3} (n={n})");
    }
}
