//! # ood-graph
//!
//! Graph data model for the OOD-GNN workspace: the [`Graph`] value type,
//! mini-batching via disjoint union ([`GraphBatch`]), dataset containers
//! with task metadata ([`GraphDataset`]), train/val/test index sets and
//! the scaffold split, and classic graph
//! algorithms (exact triangle counting, connectivity, degrees) used by the
//! synthetic benchmark generators.

pub mod algo;
pub mod batch;
pub mod dataset;
pub mod graph;
pub mod split;

pub use batch::{GraphBatch, NormCache};
pub use dataset::{GraphDataset, Label, TaskType};
pub use graph::Graph;
pub use split::Split;
