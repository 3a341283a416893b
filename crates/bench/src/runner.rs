//! Method runners: train any of the eight baselines or OOD-GNN on a
//! benchmark and report the metrics the paper's tables need.

use datasets::metrics::mean_std;
use datasets::OodBenchmark;
use gnn::models::{BaselineKind, GnnModel, ModelConfig};
use gnn::trainer::TrainConfig;
use oodgnn_core::{train_run, DecorrelationKind, OodGnn, OodGnnConfig, TrainOptions, TrainReport};
use tensor::rng::Rng;

/// Which method a table row reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodSpec {
    /// One of the eight baselines, trained by plain ERM (the one training
    /// loop without a reweighter).
    Baseline(BaselineKind),
    /// OOD-GNN with the default decorrelation (RFF, q=1).
    OodGnn,
    /// OOD-GNN with a custom RFF function count (Figure 2, Variant 1).
    OodGnnQ(usize),
    /// OOD-GNN restricted to a fraction of representation dims (Figure 2).
    OodGnnDimFraction(f32),
    /// OOD-GNN with linear (no-RFF) decorrelation (Figure 2, Variant 2).
    OodGnnNoRff,
}

impl MethodSpec {
    /// Display name matching the paper's tables/figures.
    pub fn name(self) -> String {
        match self {
            MethodSpec::Baseline(b) => b.name().to_string(),
            MethodSpec::OodGnn => "OOD-GNN".to_string(),
            MethodSpec::OodGnnQ(q) => format!("OOD-GNN ({q}x RFF)"),
            MethodSpec::OodGnnDimFraction(f) => format!("OOD-GNN ({f:.1}x dims)"),
            MethodSpec::OodGnnNoRff => "OOD-GNN (no RFF)".to_string(),
        }
    }

    /// The nine methods of Tables 2–4, in paper order.
    pub fn table_methods() -> Vec<MethodSpec> {
        let mut v: Vec<MethodSpec> = gnn::models::ALL_BASELINES
            .iter()
            .map(|&b| MethodSpec::Baseline(b))
            .collect();
        v.push(MethodSpec::OodGnn);
        v
    }
}

/// Shared experiment-scale settings, controlled by each binary's CLI.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Dataset scale fraction (1.0 = paper scale).
    pub frac: f32,
    /// Number of repeated runs (paper: 10).
    pub seeds: usize,
    /// Epochs per run (paper: 100).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Message-passing layers.
    pub layers: usize,
    /// Learning rate.
    pub lr: f32,
    /// Inner reweighting epochs for OOD-GNN (paper: 20).
    pub epoch_reweight: usize,
}

impl SuiteConfig {
    /// CPU-friendly defaults; `--full` style flags in the binaries raise
    /// them toward paper scale.
    pub fn quick() -> Self {
        SuiteConfig {
            frac: 0.05,
            seeds: 3,
            epochs: 12,
            batch_size: 32,
            hidden: 32,
            layers: 2,
            lr: 3e-3,
            epoch_reweight: 5,
        }
    }

    /// Read overrides from parsed CLI args.
    pub fn from_args(args: &crate::Args) -> Self {
        let q = Self::quick();
        SuiteConfig {
            frac: args.get_f32("frac", q.frac),
            seeds: args.get_usize("seeds", q.seeds),
            epochs: args.get_usize("epochs", q.epochs),
            batch_size: args.get_usize("batch-size", q.batch_size),
            hidden: args.get_usize("hidden", q.hidden),
            layers: args.get_usize("layers", q.layers),
            lr: args.get_f32("lr", q.lr),
            epoch_reweight: args.get_usize("epoch-reweight", q.epoch_reweight),
        }
    }

    /// The model hyper-parameters this suite config implies.
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            hidden: self.hidden,
            layers: self.layers,
            dropout: 0.1,
            ..Default::default()
        }
    }

    /// The training hyper-parameters this suite config implies.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            ..Default::default()
        }
    }

    /// The OOD-GNN hyper-parameters this suite config implies.
    pub fn oodgnn_config(&self) -> OodGnnConfig {
        OodGnnConfig {
            model: self.model_config(),
            train: self.train_config(),
            epoch_reweight: self.epoch_reweight,
            ..Default::default()
        }
    }
}

/// Train one method on a benchmark with one seed.
pub fn run_method(
    method: MethodSpec,
    bench: &OodBenchmark,
    suite: &SuiteConfig,
    seed: u64,
) -> TrainReport {
    let _span = trace::span!("run_method");
    let in_dim = bench.dataset.feature_dim();
    let task = bench.dataset.task();
    let mut rng = Rng::seed_from(seed);
    let (mut model, mut reweighter) = match method {
        MethodSpec::Baseline(kind) => (
            GnnModel::baseline(kind, in_dim, task, &suite.model_config(), &mut rng),
            None,
        ),
        _ => {
            let mut cfg = suite.oodgnn_config();
            match method {
                MethodSpec::OodGnnQ(q) => cfg.decorrelation = DecorrelationKind::Rff { q },
                MethodSpec::OodGnnDimFraction(f) => cfg.dim_fraction = f,
                MethodSpec::OodGnnNoRff => cfg.decorrelation = DecorrelationKind::Linear,
                _ => {}
            }
            let (model, reweighter) = OodGnn::new(in_dim, task, cfg, &mut rng).into_parts();
            (model, Some(reweighter))
        }
    };
    let outcome = train_run(
        &mut model,
        reweighter.as_mut(),
        bench,
        &suite.train_config(),
        seed ^ 0x5151,
        TrainOptions::default(),
    )
    .expect("training failed");
    // The next run trains a different model on different shapes: free
    // this run's buffers instead of carrying them to the retention cap.
    // Bitwise-neutral by the pool's contract.
    tensor::pool::drain_thread_pool();
    if trace::enabled() {
        trace::emit_event(
            "run",
            &[
                ("method", method.name().into()),
                ("dataset", bench.dataset.name().into()),
                ("run_seed", (seed as i64).into()),
                ("train_metric", outcome.train_metric.into()),
                ("val_metric", outcome.val_metric.into()),
                ("test_metric", outcome.test_metric.into()),
            ],
        );
        trace::metrics::flush();
        trace::flush_sinks();
    }
    outcome
}

/// Format a `mean±std` table cell from repeated-run values. Regression
/// metrics keep two decimals; others are shown as percentages with one.
pub fn fmt_cell(values: &[f32], is_regression: bool) -> String {
    let (m, s) = mean_std(values);
    if is_regression {
        format!("{m:.2}±{s:.2}")
    } else {
        format!("{:.1}±{:.1}", 100.0 * m, 100.0 * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::triangles::{generate, TrianglesConfig};

    #[test]
    fn fmt_cells() {
        assert_eq!(fmt_cell(&[0.5, 0.7], false), "60.0±14.1");
        assert_eq!(fmt_cell(&[1.234], true), "1.23±0.00");
    }

    #[test]
    fn table_methods_are_nine() {
        let ms = MethodSpec::table_methods();
        assert_eq!(ms.len(), 9);
        assert_eq!(ms[8].name(), "OOD-GNN");
    }

    #[test]
    fn run_both_method_kinds() {
        let bench = generate(&TrianglesConfig::scaled(0.01), 1);
        let suite = SuiteConfig {
            seeds: 1,
            epochs: 2,
            epoch_reweight: 2,
            hidden: 8,
            ..SuiteConfig::quick()
        };
        let base = run_method(MethodSpec::Baseline(BaselineKind::Gcn), &bench, &suite, 1);
        assert!(base.test_metric.is_finite());
        assert!(base.final_weights.is_empty());
        let ood = run_method(MethodSpec::OodGnn, &bench, &suite, 1);
        assert!(ood.test_metric.is_finite());
        assert_eq!(ood.final_weights.len(), bench.split.train.len());
    }
}
