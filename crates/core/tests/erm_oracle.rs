//! Oracle for the baselines' training path: the one training loop with no
//! reweighter must reproduce, bit for bit, what the retired dedicated ERM
//! loop (`gnn::trainer::train_erm`) produced for every baseline. The
//! constants were recorded from that loop on three tiny benchmarks that
//! cover every `per_sample_loss` arm: multi-class (TRIANGLES), binary
//! multi-task (BACE) and regression (ESOL).

use datasets::ogb::{self, OgbDataset};
use datasets::triangles::{generate, TrianglesConfig};
use datasets::OodBenchmark;
use gnn::models::{GnnModel, ModelConfig, ALL_BASELINES};
use gnn::trainer::TrainConfig;
use oodgnn_core::{train_run, TrainOptions};
use tensor::fnv::hash_f32_bits;
use tensor::rng::Rng;

/// `(dataset, baseline, loss-curve FNV-1a, [train, val, test] metric bits)`.
#[rustfmt::skip]
const ORACLE: [(&str, &str, u64, [u32; 3]); 24] = [
    ("TRIANGLES", "GCN", 0xc4a955dcbf0595c5, [0x3d4ccccd, 0x3d800000, 0x00000000]),
    ("TRIANGLES", "GCN-virtual", 0x8ea33f7ed8b1ba71, [0x00000000, 0x00000000, 0x3e400000]),
    ("TRIANGLES", "GIN", 0xc1c433a723906f49, [0x3e19999a, 0x3ee00000, 0x3e000000]),
    ("TRIANGLES", "GIN-virtual", 0x61c5d97314b0f845, [0x3e3bbbbc, 0x3ea00000, 0x3e000000]),
    ("TRIANGLES", "FactorGCN", 0xf97c896914575293, [0x3e911111, 0x3ee00000, 0x3d800000]),
    ("TRIANGLES", "PNA", 0x059571c8e5a5d412, [0x3e6eeeef, 0x3e800000, 0x3e000000]),
    ("TRIANGLES", "TopKPool", 0x5474e157f284d9cd, [0x3eaaaaab, 0x3ea00000, 0x3ea00000]),
    ("TRIANGLES", "SAGPool", 0x3b0767d480af09f0, [0x3e5dddde, 0x3ea00000, 0x3ea00000]),
    ("BACE", "GCN", 0x61abadeb1d7595a3, [0x3f1d92bd, 0x3e800000, 0x3e800000]),
    ("BACE", "GCN-virtual", 0x3cceb3f062eefbad, [0x3f2e4756, 0x3e800000, 0x00000000]),
    ("BACE", "GIN", 0x8cb437ab8eded3e6, [0x3f3d2d9a, 0x3f800000, 0x3ec00000]),
    ("BACE", "GIN-virtual", 0x3f6d2bd7a549eaef, [0x3f068bf7, 0x3f000000, 0x3f000000]),
    ("BACE", "FactorGCN", 0x88d874cb7b442478, [0x3f4de233, 0x00000000, 0x3e800000]),
    ("BACE", "PNA", 0x741ff1a859f9157a, [0x3f09b50d, 0x3f800000, 0x3f400000]),
    ("BACE", "TopKPool", 0x9f3ea3a8c8f3dece, [0x3f3a0484, 0x3f200000, 0x3f200000]),
    ("BACE", "SAGPool", 0x89b98a9a759b4bcb, [0x3f3425ed, 0x3f400000, 0x3f000000]),
    ("ESOL", "GCN", 0x90ba97e596948c44, [0x3ffd3deb, 0x3fae4a95, 0x40071632]),
    ("ESOL", "GCN-virtual", 0x54a85f749b18ea0d, [0x401063e7, 0x3fb39805, 0x4010894b]),
    ("ESOL", "GIN", 0xc37002f75a51ea05, [0x4000aefb, 0x3fb42f81, 0x4007ab6e]),
    ("ESOL", "GIN-virtual", 0x7001efd3e979e0fb, [0x3ff03c99, 0x3fa1e559, 0x3ffd4cd1]),
    ("ESOL", "FactorGCN", 0x0ab5e8535a42a82d, [0x3fd7998e, 0x3fadd80d, 0x3fd847fb]),
    ("ESOL", "PNA", 0xfdc5ce788d0a1051, [0x3fd9958f, 0x3fa31746, 0x3fd04906]),
    ("ESOL", "TopKPool", 0x0aea199cf633ace1, [0x3ffe2e8b, 0x3fb0f86f, 0x4006c12a]),
    ("ESOL", "SAGPool", 0x0a757cfa3e62049c, [0x3fef3699, 0x3fb441bd, 0x3ff8cab6]),
];

#[test]
fn no_reweighter_reproduces_erm_for_every_baseline() {
    let benches: [(&str, OodBenchmark); 3] = [
        ("TRIANGLES", generate(&TrianglesConfig::scaled(0.02), 1)),
        ("BACE", ogb::generate(OgbDataset::Bace, Some(60), 2)),
        ("ESOL", ogb::generate(OgbDataset::Esol, Some(60), 3)),
    ];
    let model_cfg = ModelConfig {
        hidden: 8,
        layers: 2,
        dropout: 0.1,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        lr: 3e-3,
        eval_every: Some(2),
        ..Default::default()
    };
    let mut expected = ORACLE.iter();
    for (name, bench) in &benches {
        for kind in ALL_BASELINES {
            let &(ds, method, loss_digest, metrics) = expected.next().unwrap();
            assert_eq!((ds, method), (*name, kind.name()), "oracle table order");
            let mut model = GnnModel::baseline(
                kind,
                bench.dataset.feature_dim(),
                bench.dataset.task(),
                &model_cfg,
                &mut Rng::seed_from(5),
            );
            let r = train_run(
                &mut model,
                None,
                bench,
                &train_cfg,
                0x5151,
                TrainOptions::default(),
            )
            .expect("training failed");
            assert_eq!(
                hash_f32_bits(r.loss_curve.iter().copied()),
                loss_digest,
                "{name} {method}: loss curve {:?}",
                r.loss_curve
            );
            let got = [r.train_metric, r.val_metric, r.test_metric].map(f32::to_bits);
            assert_eq!(got, metrics, "{name} {method}: train/val/test metric bits");
            assert!(r.final_weights.is_empty() && r.hsic_curve.is_empty());
            assert_eq!(r.health, Default::default(), "{name} {method}: clean run");
        }
    }
}
