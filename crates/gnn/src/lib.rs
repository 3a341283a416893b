//! # ood-gnn-models
//!
//! GNN layers, pooling operators, the eight baseline models of the OOD-GNN
//! paper (GCN, GCN-virtual, GIN, GIN-virtual, FactorGCN, PNA, TopKPool,
//! SAGPool) and the losses and metrics their training uses, all built on
//! the `ood-tensor` autodiff tape and the `ood-graph` batch layout. Every
//! model trains through the one loop in `oodgnn-core`.
//!
//! The central abstraction is [`encoder::GraphEncoder`]: anything that maps
//! a [`graph::GraphBatch`] to a `[num_graphs, d]` representation node on a
//! tape. Baselines combine an encoder with an MLP head ([`models::GnnModel`]);
//! OOD-GNN (in the `oodgnn-core` crate) reuses the same encoders and adds
//! representation decorrelation.

pub mod encoder;
pub mod layers;
pub mod models;
pub mod pool;
pub mod trainer;

pub use encoder::{GraphEncoder, Readout};
pub use models::{BaselineKind, GnnModel, ModelConfig};
