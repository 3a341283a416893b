//! `oodgnn` — command-line trainer for the OOD-GNN reproduction.
//!
//! Train any baseline or OOD-GNN on any of the 14 built-in OOD benchmarks,
//! report train/val/OOD-test metrics, and optionally checkpoint the model:
//!
//! ```text
//! oodgnn --dataset proteins25 --method ood-gnn --epochs 30 --frac 0.3
//! oodgnn --dataset bace --method gin --ogb-cap 600 --save model.oods
//! oodgnn --list
//! ```

use ood_gnn::core::TrainCheckpoint;
use ood_gnn::prelude::*;
use std::collections::BTreeMap;

fn usage() -> ! {
    eprintln!(
        "oodgnn — train GNN baselines and OOD-GNN on out-of-distribution graph benchmarks

USAGE:
    oodgnn --dataset <NAME> --method <METHOD> [OPTIONS]
    oodgnn --list

OPTIONS:
    --dataset <NAME>      triangles | mnistsp-noise | mnistsp-color | collab35 |
                          proteins25 | dd200 | dd300 | tox21 | bace | bbbp |
                          clintox | sider | toxcast | hiv | esol | freesolv
    --method <METHOD>     ood-gnn (default) | gcn | gcn-virtual | gin | gin-virtual |
                          factorgcn | pna | topkpool | sagpool
    --frac <F>            dataset scale for synthetic/TU-like benchmarks (default 0.1)
    --ogb-cap <N>         molecule count cap for OGB-like datasets (default 400; 0 = paper scale)
    --epochs <N>          training epochs (default 20)
    --batch-size <N>      mini-batch size (default 64)
    --hidden <N>          hidden dimension d (default 32)
    --layers <N>          message-passing layers (default 2)
    --lr <F>              learning rate (default 0.002)
    --epoch-reweight <N>  OOD-GNN inner weight epochs (default 15)
    --seed <N>            RNG seed (default 7)
    --save <PATH>         write a checksummed TrainCheckpoint after training
    --list                list datasets and exit"
    );
    std::process::exit(2);
}

fn parse_args() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut key: Option<String> = None;
    for a in std::env::args().skip(1) {
        if let Some(k) = a.strip_prefix("--") {
            if let Some(prev) = key.take() {
                out.insert(prev, "true".into());
            }
            key = Some(k.to_string());
        } else if let Some(k) = key.take() {
            out.insert(k, a);
        } else {
            eprintln!("unexpected argument: {a}\n");
            usage();
        }
    }
    if let Some(k) = key.take() {
        out.insert(k, "true".into());
    }
    out
}

const DATASETS: [&str; 16] = [
    "triangles",
    "mnistsp-noise",
    "mnistsp-color",
    "collab35",
    "proteins25",
    "dd200",
    "dd300",
    "tox21",
    "bace",
    "bbbp",
    "clintox",
    "sider",
    "toxcast",
    "hiv",
    "esol",
    "freesolv",
];

fn build_dataset(name: &str, frac: f32, ogb_cap: Option<usize>, seed: u64) -> OodBenchmark {
    use ood_gnn::datasets::mnistsp::{self, MnistSpConfig, NoiseVariant};
    use ood_gnn::datasets::ogb::{self, OgbDataset};
    use ood_gnn::datasets::social::{self, SocialConfig};
    use ood_gnn::datasets::triangles::{self, TrianglesConfig};
    match name {
        "triangles" => triangles::generate(&TrianglesConfig::scaled(frac), seed),
        "mnistsp-noise" => mnistsp::generate(
            &MnistSpConfig::scaled(frac).with_variant(NoiseVariant::Noise),
            seed,
        ),
        "mnistsp-color" => mnistsp::generate(
            &MnistSpConfig::scaled(frac).with_variant(NoiseVariant::Color),
            seed,
        ),
        "collab35" => social::generate(&SocialConfig::collab35(frac), seed),
        "proteins25" => social::generate(&SocialConfig::proteins25(frac), seed),
        "dd200" => social::generate(&SocialConfig::dd200(frac), seed),
        "dd300" => social::generate(&SocialConfig::dd300(frac), seed),
        other => {
            let which = match other {
                "tox21" => OgbDataset::Tox21,
                "bace" => OgbDataset::Bace,
                "bbbp" => OgbDataset::Bbbp,
                "clintox" => OgbDataset::Clintox,
                "sider" => OgbDataset::Sider,
                "toxcast" => OgbDataset::Toxcast,
                "hiv" => OgbDataset::Hiv,
                "esol" => OgbDataset::Esol,
                "freesolv" => OgbDataset::Freesolv,
                _ => {
                    eprintln!("unknown dataset: {other}\n");
                    usage();
                }
            };
            ogb::generate(which, ogb_cap, seed)
        }
    }
}

fn baseline_kind(name: &str) -> Option<BaselineKind> {
    Some(match name {
        "gcn" => BaselineKind::Gcn,
        "gcn-virtual" => BaselineKind::GcnVirtual,
        "gin" => BaselineKind::Gin,
        "gin-virtual" => BaselineKind::GinVirtual,
        "factorgcn" => BaselineKind::FactorGcn,
        "pna" => BaselineKind::Pna,
        "topkpool" => BaselineKind::TopKPool,
        "sagpool" => BaselineKind::SagPool,
        _ => return None,
    })
}

fn main() {
    let args = parse_args();
    if args.contains_key("list") {
        println!("datasets:");
        for d in DATASETS {
            println!("  {d}");
        }
        return;
    }
    let Some(dataset) = args.get("dataset") else {
        usage()
    };
    let method = args.get("method").map(String::as_str).unwrap_or("ood-gnn");
    let get_f = |k: &str, d: f32| args.get(k).map(|v| v.parse().expect(k)).unwrap_or(d);
    let get_u = |k: &str, d: usize| args.get(k).map(|v| v.parse().expect(k)).unwrap_or(d);
    let frac = get_f("frac", 0.1);
    let ogb_cap = match get_u("ogb-cap", 400) {
        0 => None,
        n => Some(n),
    };
    let seed = get_u("seed", 7) as u64;

    // Validate the method before paying for dataset generation.
    if method != "ood-gnn" && baseline_kind(method).is_none() {
        eprintln!("unknown method: {method}\n");
        usage();
    }

    let bench = build_dataset(dataset, frac, ogb_cap, seed);
    let (n, avg_nodes, avg_edges) = bench.dataset.stats();
    let metric_name = if bench.dataset.task().is_regression() {
        "RMSE (lower is better)"
    } else {
        match bench.dataset.task() {
            TaskType::MultiClass { .. } => "accuracy",
            _ => "ROC-AUC",
        }
    };
    println!(
        "{}: {n} graphs (avg {avg_nodes:.1} nodes / {avg_edges:.1} edges), split {}/{}/{}, metric: {metric_name}",
        bench.dataset.name(),
        bench.split.train.len(),
        bench.split.val.len(),
        bench.split.test.len(),
    );

    let model_cfg = ModelConfig {
        hidden: get_u("hidden", 32),
        layers: get_u("layers", 2),
        dropout: 0.1,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        epochs: get_u("epochs", 20),
        batch_size: get_u("batch-size", 64),
        lr: get_f("lr", 2e-3),
        ..Default::default()
    };

    let mut rng = Rng::seed_from(seed);
    println!("training {method} for {} epochs ...", train_cfg.epochs);
    let in_dim = bench.dataset.feature_dim();
    let task = bench.dataset.task();
    let (mut model, mut reweighter) = match baseline_kind(method) {
        Some(kind) => (
            GnnModel::baseline(kind, in_dim, task, &model_cfg, &mut rng),
            None,
        ),
        None => {
            let cfg = OodGnnConfig {
                model: model_cfg,
                train: train_cfg.clone(),
                epoch_reweight: get_u("epoch-reweight", 15),
                ..Default::default()
            };
            let (model, reweighter) = OodGnn::new(in_dim, task, cfg, &mut rng).into_parts();
            (model, Some(reweighter))
        }
    };
    let r = train_run(
        &mut model,
        reweighter.as_mut(),
        &bench,
        &train_cfg,
        seed ^ 0x5151,
        TrainOptions::default(),
    )
    .expect("training failed");
    println!(
        "train {:.4} | val {:.4} | OOD test {:.4}",
        r.train_metric, r.val_metric, r.test_metric
    );
    if reweighter.is_some() {
        let w = r.weight_stats;
        println!(
            "learned weights: std {:.3}, range [{:.3}, {:.3}], effective sample fraction {:.2}",
            w.std,
            w.min,
            w.max,
            w.ess / r.final_weights.len() as f32
        );
    }
    if let Some(path) = args.get("save") {
        TrainCheckpoint::from_model(&mut model)
            .save(path)
            .expect("failed to save checkpoint");
        println!("checkpoint written to {path}");
    }
}
