//! Training hyper-parameters and the loss/metric plumbing of the one
//! training loop (`oodgnn_core::train_run`): per-sample losses for every
//! task type, and evaluation of a model on a split.

use crate::models::GnnModel;
use datasets::metrics::{accuracy, rmse, roc_auc_multitask};
use graph::{GraphBatch, GraphDataset, TaskType};
use tensor::nn::Module;
use tensor::ops::loss::{bce_with_logits, cross_entropy, mse};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape, Tensor};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs (paper: 100).
    pub epochs: usize,
    /// Mini-batch size (paper: {64, 128, 256}).
    pub batch_size: usize,
    /// Adam learning rate (paper: {1e-4, 1e-3}).
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Gradient-norm clip (0 = off).
    pub grad_clip: f32,
    /// If `Some(k)`, evaluate validation and test every `k` epochs and also
    /// report the test metric at the best validation epoch (the paper's
    /// model-selection protocol: "hyper-parameters are tuned on the
    /// validation set").
    pub eval_every: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 1e-3,
            weight_decay: 1e-5,
            grad_clip: 2.0,
            eval_every: None,
        }
    }
}

/// Build the per-sample loss vector for a batch of dataset indices.
/// Returns a `[batch, ]` node.
pub fn per_sample_loss(
    tape: &mut Tape,
    logits: NodeId,
    ds: &GraphDataset,
    indices: &[usize],
) -> NodeId {
    match ds.task() {
        TaskType::MultiClass { .. } => {
            let labels = ds.class_labels(indices);
            cross_entropy(tape, logits, &labels)
        }
        TaskType::BinaryClassification { .. } => {
            let (targets, mask) = ds.binary_labels(indices);
            bce_with_logits(tape, logits, &targets, &mask)
        }
        TaskType::Regression { .. } => {
            let targets = ds.regression_targets(indices);
            mse(tape, logits, &targets)
        }
    }
}

/// Evaluate a model on a set of indices: accuracy for multi-class, mean
/// ROC-AUC for binary multi-task, RMSE for regression.
pub fn evaluate(
    model: &mut GnnModel,
    ds: &GraphDataset,
    indices: &[usize],
    batch_size: usize,
    rng: &mut Rng,
) -> f32 {
    if indices.is_empty() {
        return f32::NAN;
    }
    let mut all_preds: Vec<Tensor> = Vec::new();
    for chunk in indices.chunks(batch_size) {
        let batch = GraphBatch::from_dataset(ds, chunk);
        let mut tape = Tape::new();
        let out = model.predict(&mut tape, &batch, Mode::Eval, rng);
        all_preds.push(tape.value(out).clone());
        for p in model.params_mut() {
            p.clear_binding();
        }
    }
    let refs: Vec<&Tensor> = all_preds.iter().collect();
    let preds = Tensor::vcat(&refs);
    match ds.task() {
        TaskType::MultiClass { .. } => accuracy(&preds, &ds.class_labels(indices)),
        TaskType::BinaryClassification { .. } => {
            let (targets, mask) = ds.binary_labels(indices);
            roc_auc_multitask(&preds, &targets, &mask)
        }
        TaskType::Regression { .. } => rmse(&preds, &ds.regression_targets(indices)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BaselineKind, ModelConfig};
    use datasets::triangles::{generate, TrianglesConfig};

    #[test]
    fn evaluate_handles_regression() {
        use datasets::ogb::{generate as gen_ogb, OgbDataset};
        let bench = gen_ogb(OgbDataset::Esol, Some(60), 7);
        let mut rng = Rng::seed_from(8);
        let cfg = ModelConfig {
            hidden: 8,
            layers: 2,
            ..Default::default()
        };
        let mut model = GnnModel::baseline(
            BaselineKind::Gcn,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &cfg,
            &mut rng,
        );
        let r = evaluate(&mut model, &bench.dataset, &bench.split.test, 16, &mut rng);
        assert!(r.is_finite() && r >= 0.0, "rmse {r}");
    }

    #[test]
    fn empty_split_evaluates_to_nan() {
        let bench = generate(&TrianglesConfig::scaled(0.01), 4);
        let mut rng = Rng::seed_from(9);
        let cfg = ModelConfig {
            hidden: 4,
            layers: 1,
            ..Default::default()
        };
        let mut model = GnnModel::baseline(
            BaselineKind::Gcn,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &cfg,
            &mut rng,
        );
        assert!(evaluate(&mut model, &bench.dataset, &[], 8, &mut rng).is_nan());
    }
}
