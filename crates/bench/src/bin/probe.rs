//! Development probe: quick GIN vs OOD-GNN comparisons with tunable knobs,
//! used to calibrate hyper-parameters. Not part of the paper's tables.
//!
//! `cargo run -p bench --release --bin probe -- --dataset proteins --frac 0.3`

use bench::{Args, SuiteConfig};
use datasets::ogb::{self, OgbDataset};
use datasets::social::SocialConfig;
use datasets::triangles::TrianglesConfig;
use datasets::OodBenchmark;
use gnn::models::{BaselineKind, GnnModel};
use oodgnn_core::{train_run, DecorrelationKind, OodGnn, TrainOptions};
use tensor::rng::Rng;

fn main() {
    let args = Args::from_env();
    let suite = SuiteConfig::from_args(&args);
    let base_seed = args.get_u64("seed", 7);
    let telemetry = bench::telemetry::init("probe", base_seed);
    let name = args.get_str("dataset", "proteins");
    let bias = args.get_f32("bias", 0.85);
    let social = |mut cfg: SocialConfig| {
        cfg.bias = bias;
        datasets::social::generate(&cfg, base_seed)
    };
    let bench: OodBenchmark = match name.as_str() {
        "triangles" => {
            datasets::triangles::generate(&TrianglesConfig::scaled(suite.frac), base_seed)
        }
        "proteins" => social(SocialConfig::proteins25(suite.frac)),
        "dd300" => social(SocialConfig::dd300(suite.frac)),
        "collab" => social(SocialConfig::collab35(suite.frac)),
        "bace" => ogb::generate(
            OgbDataset::Bace,
            Some(args.get_usize("ogb-cap", 400)),
            base_seed,
        ),
        other => panic!("unknown dataset {other}"),
    };
    println!(
        "{name}: train {} / test {}",
        bench.split.train.len(),
        bench.split.test.len()
    );
    let weight_lr = args.get_f32("weight-lr", 0.05);
    let lambda = args.get_f32("lambda", 0.1);
    let q = args.get_usize("q", 1);
    let readout = match args.get_str("readout", "sum").as_str() {
        "mean" => gnn::encoder::Readout::Mean,
        "max" => gnn::encoder::Readout::Max,
        _ => gnn::encoder::Readout::Sum,
    };

    for s in 0..suite.seeds as u64 {
        let mut rng = Rng::seed_from(base_seed + s);
        let mut mc = suite.model_config();
        mc.readout = readout;
        let mut gin = GnnModel::baseline(
            BaselineKind::Gin,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &mc,
            &mut rng,
        );
        let rb = train_run(
            &mut gin,
            None,
            &bench,
            &suite.train_config(),
            base_seed + s,
            TrainOptions::default(),
        )
        .expect("training failed");
        let mut cfg = suite.oodgnn_config();
        cfg.model.readout = readout;
        cfg.weight_lr = weight_lr;
        cfg.lambda = lambda;
        cfg.decorrelation = DecorrelationKind::Rff { q };
        let mut ood = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            cfg,
            &mut rng,
        );
        let ro = ood.train(&bench, base_seed + s).expect("training failed");
        let ws = ro.weight_stats;
        println!(
            "seed {s}: GIN train {:.3} test {:.3} | OOD-GNN train {:.3} test {:.3} \
             (weights: spread {:.3}, entropy {:.3}, ESS {:.1}/{})",
            rb.train_metric,
            rb.test_metric,
            ro.train_metric,
            ro.test_metric,
            ws.max - ws.min,
            ws.entropy,
            ws.ess,
            ro.final_weights.len()
        );
    }
    bench::telemetry::finish(&telemetry);
}
