//! # ood-gnn
//!
//! A pure-Rust reproduction of **"OOD-GNN: Out-of-Distribution Generalized
//! Graph Neural Network"** (Li, Wang, Zhang, Zhu — ICDE 2024 / TKDE).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`tensor`] — dense tensors + reverse-mode autodiff + NN layers +
//!   optimizers (the PyTorch substitute).
//! * [`graph`] — graph data model, batching, splits, graph algorithms.
//! * [`datasets`] — synthetic OOD benchmarks (TRIANGLES, MNIST-75SP-like,
//!   COLLAB/PROTEINS/D&D-like, nine OGB-like molecule datasets) + metrics.
//! * [`gnn`] — GNN layers, pooling, the eight baseline models, losses and
//!   evaluation.
//! * [`core`] — OOD-GNN itself: RFF decorrelation, sample reweighting, the
//!   global–local weight estimator, and the one training loop (Algorithm 1;
//!   the baselines run it without a reweighter, as plain ERM).
//!
//! ## Quickstart
//!
//! ```
//! use ood_gnn::prelude::*;
//!
//! // A small TRIANGLES benchmark with a train-on-small / test-on-large split.
//! let bench = ood_gnn::datasets::triangles::generate(
//!     &TrianglesConfig::scaled(0.01), 42);
//!
//! // Train OOD-GNN for a couple of epochs.
//! let mut rng = Rng::seed_from(0);
//! let mut config = OodGnnConfig::default();
//! config.train.epochs = 2;
//! config.epoch_reweight = 2;
//! config.model.hidden = 8;
//! let mut model = OodGnn::new(
//!     bench.dataset.feature_dim(), bench.dataset.task(), config, &mut rng);
//! let report = model.train(&bench, 7).expect("training failed");
//! assert!(report.test_metric.is_finite());
//! ```

pub use datasets;
pub use gnn;
pub use graph;
pub use oodgnn_core as core;
pub use tensor;

/// Commonly used items for examples and downstream code.
pub mod prelude {
    pub use crate::core::{
        train_run, DecorrelationKind, GlobalMemory, OodGnn, OodGnnConfig, OodGnnReport,
        TrainOptions, TrainReport,
    };
    pub use datasets::mnistsp::MnistSpConfig;
    pub use datasets::ogb::OgbDataset;
    pub use datasets::social::SocialConfig;
    pub use datasets::triangles::TrianglesConfig;
    pub use datasets::OodBenchmark;
    pub use gnn::models::{BaselineKind, GnnModel, ModelConfig};
    pub use gnn::trainer::{evaluate, TrainConfig};
    pub use graph::{Graph, GraphBatch, GraphDataset, Label, Split, TaskType};
    pub use tensor::rng::Rng;
    pub use tensor::{Mode, Tape, Tensor};
}
