//! # ood-tensor
//!
//! A from-scratch dense `f32` tensor library with reverse-mode automatic
//! differentiation, written as the numerical substrate for the OOD-GNN
//! reproduction. It provides:
//!
//! * [`Tensor`] — a row-major dense tensor with NumPy-style broadcasting,
//!   matrix multiplication, reductions and segment operations.
//! * [`Tape`] — an arena-based reverse-mode autodiff tape. Operations are
//!   recorded as explicit [`ops::Op`] enum variants (no closures), each with
//!   a hand-written, gradient-checked backward rule.
//! * [`nn`] — neural-network layers (Linear, BatchNorm1d, Dropout, MLP)
//!   built on the tape.
//! * [`optim`] — the Adam optimizer (with decoupled weight decay and
//!   gradient clipping).
//! * [`rng`] — deterministic random utilities (Box–Muller normal sampling,
//!   permutations) so that every experiment in the workspace is reproducible
//!   from a single `u64` seed.
//!
//! The library is deliberately CPU-only and dependency-light: the OOD-GNN
//! algorithm needs differentiable matmul / elementwise / cosine / segment
//! reductions, nothing more. Gradients are verified against central finite
//! differences in `tests` and by property tests.

pub mod check;
pub mod csr;
pub mod fnv;
pub mod nn;
pub mod ops;
pub mod optim;
pub mod par;
pub mod pool;
pub mod profile;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod simd;
pub mod tape;
pub mod tensor;

pub use shape::{broadcast_shapes, Shape};
pub use tape::{Gradients, NodeId, Tape};
pub use tensor::Tensor;

/// Training/evaluation mode switch for layers with different behaviour at
/// train vs. inference time (Dropout, BatchNorm running statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training mode: dropout active, batch statistics used and accumulated.
    Train,
    /// Evaluation mode: dropout inactive, running statistics used.
    Eval,
}

impl Mode {
    /// Whether this is [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}
