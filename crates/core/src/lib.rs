//! # oodgnn-core
//!
//! The paper's primary contribution: **OOD-GNN**, an out-of-distribution
//! generalized graph neural network trained by *nonlinear graph
//! representation decorrelation*.
//!
//! The method (paper §3) jointly optimizes a graph encoder Φ, a classifier
//! R and per-graph sample weights **W**:
//!
//! 1. **Random Fourier features** ([`rff`]) lift every representation
//!    dimension into a feature space where vanishing covariance implies
//!    statistical independence (Eq. 4).
//! 2. The **weighted partial cross-covariance** between every pair of
//!    representation dimensions ([`decorrelation`]) measures their
//!    dependence (Eq. 5); its squared Frobenius norm is the decorrelation
//!    objective (Eq. 7/10).
//! 3. A **global–local weight estimator** ([`global_local`]) keeps `K`
//!    momentum-updated memory groups of representations and weights so the
//!    per-batch weight optimization stays consistent across the whole
//!    dataset at `O((K+1)|B|)` cost (Eq. 8–9).
//! 4. The **training loop** ([`trainer`]) alternates `Epoch_Reweight` inner
//!    steps on the weights with one weighted-ERM step on encoder +
//!    classifier (Algorithm 1). It is the one loop for every model: the
//!    eight baselines run it without a [`Reweighter`], as plain ERM.
//!
//! The training runtime is **fault tolerant**: [`checkpoint`] snapshots the
//! full training state atomically and resumes to a bitwise-identical loss
//! curve, [`health`] guards every step against non-finite values with a
//! clip → retry → uniform-fallback policy, and [`fault`] injects seeded
//! faults for drills. Failures surface as typed [`OodGnnError`]s instead of
//! panics.

pub mod analysis;
pub mod checkpoint;
pub mod decorrelation;
pub mod error;
pub mod fault;
pub mod global_local;
pub mod health;
pub mod rff;
pub mod trainer;
pub mod weights;

pub use checkpoint::{CheckpointConfig, TrainCheckpoint};
pub use decorrelation::{
    decorrelation_loss, linear_loss_reference, DecorrelationCtx, DecorrelationKind,
};
pub use error::OodGnnError;
pub use fault::FaultPlan;
pub use global_local::GlobalMemory;
pub use health::{HealthPolicy, HealthReport};
pub use rff::RffParams;
pub use trainer::{
    train_run, OodGnn, OodGnnConfig, OodGnnReport, Reweighter, TrainOptions, TrainReport,
};
pub use weights::GraphWeights;

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialize tests that attach/detach the process-global trace sinks.
    pub fn telemetry_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        trace::detach_all();
        guard
    }
}
