//! The one training loop, for every model: weighted ERM over a
//! [`GnnModel`] ([`train_run`]). With a [`Reweighter`] it is Algorithm 1
//! of the paper: each batch's sample weights are optimized against the
//! decorrelation objective over global+local representations, then the
//! encoder/classifier takes a step on the weighted prediction loss.
//! Without one, every weight is 1 and the loop is plain ERM — how the
//! eight baselines train.
//!
//! The runtime is fault tolerant: [`train_run`] can write atomic periodic
//! checkpoints and resume a run to a bitwise-identical loss curve, guards
//! every step against non-finite values (see [`crate::health`]), and
//! accepts a [`FaultPlan`] that injects faults for drills. [`OodGnn`]
//! bundles a GIN-backbone model with its reweighter; [`OodGnn::train`] is
//! the convenience wrapper with guardrails on and checkpointing off.

use crate::checkpoint::{CheckpointConfig, TrainCheckpoint};
use crate::decorrelation::{DecorrelationCtx, DecorrelationKind};
use crate::error::OodGnnError;
use crate::fault::FaultPlan;
use crate::global_local::GlobalMemory;
use crate::health::{self, all_finite, HealthPolicy, HealthReport};
use crate::weights::{weight_stats, GraphWeights, WeightStats};
use datasets::OodBenchmark;
use gnn::encoder::{ConvKind, StackedEncoder};
use gnn::models::{GnnModel, ModelConfig};
use gnn::trainer::{evaluate, per_sample_loss, TrainConfig};
use graph::{GraphBatch, TaskType};
use std::collections::HashMap;
use tensor::nn::{Module, Param};
use tensor::ops::loss::weighted_mean;
use tensor::optim::{Adam, Optimizer};
use tensor::rng::Rng;
use tensor::{Mode, Tape, Tensor};

/// Hyper-parameters of OOD-GNN (paper §4.1.3 defaults).
#[derive(Debug, Clone)]
pub struct OodGnnConfig {
    /// Encoder/head sizes (the paper uses GIN with d ∈ {64…300}).
    pub model: ModelConfig,
    /// Outer training loop settings.
    pub train: TrainConfig,
    /// Feature lifting for the decorrelation loss (`Rff { q: 1 }` is the
    /// paper's default; `Linear` is the "no RFF" ablation).
    pub decorrelation: DecorrelationKind,
    /// Inner weight-optimization epochs per batch (paper: 20).
    pub epoch_reweight: usize,
    /// Number of global memory groups `K` (paper: 1).
    pub k_groups: usize,
    /// Momentum coefficient γ of the global memory (paper: 0.9).
    pub gamma: f32,
    /// Learning rate of the inner weight optimizer.
    pub weight_lr: f32,
    /// ℓ² regularization strength on the weights.
    pub lambda: f32,
    /// Backbone convolution (GIN in the paper).
    pub encoder: ConvKind,
    /// Fraction of representation dimensions entering the decorrelation
    /// loss (1.0 = all; the paper's "0.2x" ablation uses 0.2).
    pub dim_fraction: f32,
}

impl Default for OodGnnConfig {
    fn default() -> Self {
        OodGnnConfig {
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            decorrelation: DecorrelationKind::Rff { q: 1 },
            epoch_reweight: 10,
            k_groups: 1,
            gamma: 0.9,
            weight_lr: 0.2,
            lambda: 0.02,
            encoder: ConvKind::Gin,
            dim_fraction: 1.0,
        }
    }
}

/// Runtime options of a fault-tolerant training run (see [`train_run`]).
#[derive(Default)]
pub struct TrainOptions {
    /// Numerical-health guardrail policy.
    pub health: HealthPolicy,
    /// Periodic atomic checkpointing (off when `None`).
    pub checkpoint: Option<CheckpointConfig>,
    /// Resume from `checkpoint.path` when the file exists.
    pub resume: bool,
    /// Injected faults for drills (off when `None`).
    pub faults: Option<FaultPlan>,
}

/// Report of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Metric on the training split.
    pub train_metric: f32,
    /// Metric on the validation split.
    pub val_metric: f32,
    /// Metric on the (OOD) test split.
    pub test_metric: f32,
    /// Mean **weighted** prediction loss per epoch (Figure 3).
    pub loss_curve: Vec<f32>,
    /// Final learned weight of every training graph, indexed like the
    /// train split (Figure 4). Empty without a reweighter.
    pub final_weights: Vec<f32>,
    /// Best validation metric seen during periodic evaluation (requires
    /// `eval_every`).
    pub best_val_metric: Option<f32>,
    /// Test metric at the epoch with the best validation metric.
    pub test_at_best_val: Option<f32>,
    /// Mean decorrelation (HSIC-style) penalty per epoch, measured after
    /// each batch's inner reweighting converged. Empty without a
    /// reweighter.
    pub hsic_curve: Vec<f32>,
    /// Statistics (min/max/entropy/ESS) of the final learned weights.
    pub weight_stats: WeightStats,
    /// Guardrail interventions during the run (all zero for a clean run).
    pub health: HealthReport,
}

/// OOD-GNN's name for [`TrainReport`], kept for callers that import it.
pub type OodGnnReport = TrainReport;

/// Outcome of one inner weight-optimization run (Algorithm 1 lines 5–8).
#[derive(Debug, Clone, Copy)]
struct InnerStats {
    /// Gradient steps taken.
    iters: usize,
    /// Decorrelation loss at the first iteration (uniform weights).
    initial_loss: f32,
    /// Decorrelation loss at the last iteration.
    final_loss: f32,
}

/// Why a single inner weight-optimization attempt stopped early.
enum InnerFailure {
    /// Non-finite decorrelation loss or weights: retryable.
    Diverged,
    /// A structural error that retrying cannot fix.
    Fatal(OodGnnError),
}

/// Standardize every column of a matrix to zero mean / unit variance
/// (degenerate columns are left centered). Used to condition the
/// representations before the RFF lifting.
pub fn standardize_columns(z: &Tensor) -> Tensor {
    let (n, d) = z.shape().as_matrix();
    let mut out = z.clone();
    for j in 0..d {
        let mut mean = 0f32;
        for i in 0..n {
            mean += z.at(i, j);
        }
        mean /= n.max(1) as f32;
        let mut var = 0f32;
        for i in 0..n {
            let c = z.at(i, j) - mean;
            var += c * c;
        }
        var /= n.max(1) as f32;
        let inv_std = if var > 1e-10 { 1.0 / var.sqrt() } else { 1.0 };
        for i in 0..n {
            *out.at_mut(i, j) = (z.at(i, j) - mean) * inv_std;
        }
    }
    out
}

/// Algorithm 1 lines 4–8 for a model it does not own: the global memory
/// and the reweighting settings. [`train_run`] with a reweighter is
/// OOD-GNN; without one it is plain ERM.
pub struct Reweighter {
    memory: GlobalMemory,
    config: OodGnnConfig,
}

impl Reweighter {
    /// One inner weight-optimization attempt (Algorithm 1 lines 5–8):
    /// `Epoch_Reweight` gradient steps on
    /// `Σ_{i<j} ‖Ĉ^Ŵ_{Ẑi,Ẑj}‖²_F + λ‖w‖²` with the representations fixed.
    ///
    /// With `check` on, a non-finite decorrelation loss or weight vector
    /// aborts with [`InnerFailure::Diverged`] (retryable at a lower `lr`).
    /// With `spike` on, an Inf is injected into the weights after the first
    /// step — the fault-injection hook exercising exactly that path.
    fn optimize_weights_once(
        &mut self,
        z_local: &Tensor,
        rng: &mut Rng,
        lr: f32,
        spike: bool,
        check: bool,
    ) -> Result<(GraphWeights, InnerStats), InnerFailure> {
        let _span = trace::span!("reweight");
        let b = z_local.nrows();
        let mut w = GraphWeights::uniform(b);
        let mut opt = Adam::new(lr);
        // Column subset for the paper's dim-fraction ablation.
        let d = z_local.ncols();
        let cols: Option<Vec<usize>> = if self.config.dim_fraction < 1.0 {
            let keep = ((d as f32 * self.config.dim_fraction).round() as usize).clamp(2, d);
            Some(rng.choose_distinct(d, keep))
        } else {
            None
        };
        let z_used = match &cols {
            Some(c) => z_local.select_cols(c),
            None => z_local.clone(),
        };
        // Standardize each representation dimension before the RFF lifting:
        // the frequencies are drawn N(0,1), so the covariance statistic is
        // only informative when the inputs are O(1) (sum-pooled
        // representations scale with graph size otherwise).
        let z_used = standardize_columns(&z_used);
        let mut stats = InnerStats {
            iters: self.config.epoch_reweight,
            initial_loss: 0.0,
            final_loss: 0.0,
        };
        // Only the weights change inside the loop, so everything else is
        // built once: the concatenated representations (the memory updates
        // only after the loop, and `concat`'s weight tail is discarded —
        // only the global prefix `[..kb]` is read), and the lifted features
        // (one RFF draw per batch). Each step is then a hand-written value
        // and gradient plus one Adam update — no tape. With a column subset
        // the memory layout (full d) cannot align, so the covariance runs
        // over the local batch only.
        let (z_hat, w_hat_globals) = if cols.is_none() {
            self.memory
                .concat(&z_used, w.values())
                .map_err(InnerFailure::Fatal)?
        } else {
            (z_used.clone(), w.values().clone())
        };
        let kb = z_hat.nrows() - b; // rows contributed by global groups
        let globals = &w_hat_globals.data()[..kb];
        let ctx = DecorrelationCtx::new(z_hat.ncols(), &self.config.decorrelation, rng);
        let lifted = trace::span::time("lift", || ctx.lift(&z_hat));
        for iter in 0..self.config.epoch_reweight {
            let (dec_value, grad) = trace::span::time("penalty", || {
                w.objective_and_grad(&lifted, globals, self.config.lambda)
            });
            if check && !dec_value.is_finite() {
                return Err(InnerFailure::Diverged);
            }
            if iter == 0 {
                stats.initial_loss = dec_value;
            }
            stats.final_loss = dec_value;
            let _step = trace::span!("step");
            opt.update(w.param_mut(), &grad);
            w.project();
            if spike && iter == 0 {
                // Simulate a perturbed inner gradient blowing up a weight.
                w.param_mut().value.data_mut()[0] = f32::INFINITY;
            }
        }
        if check && !all_finite(w.values()) {
            return Err(InnerFailure::Diverged);
        }
        trace::metrics::counter_add("reweight/inner_iters", stats.iters as u64);
        trace::metrics::observe("reweight/final_dec_loss", stats.final_loss as f64);
        // Memory update uses the same column subset as the covariance so the
        // stored global representations stay aligned — but the memory is
        // sized for the full rep dim, so only full-dim runs update it.
        // Note: memory rows were standardized under their own batch's
        // statistics; as the encoder drifts this adds mild inconsistency to
        // Eq. 8's concatenation, bounded by the momentum decay γ.
        if cols.is_none() {
            self.memory
                .update(&z_used, w.values())
                .map_err(InnerFailure::Fatal)?;
        }
        Ok((w, stats))
    }

    /// Inner optimization with the clip → retry → uniform-fallback policy:
    /// a diverged attempt is retried with a backed-off learning rate up to
    /// `policy.max_inner_retries` times, then the batch degrades to uniform
    /// weights. Emits `inner_retry` / `fallback_uniform` anomaly events.
    #[allow(clippy::too_many_arguments)]
    fn optimize_weights_guarded(
        &mut self,
        z_local: &Tensor,
        rng: &mut Rng,
        policy: &HealthPolicy,
        epoch: usize,
        batch: usize,
        spike: bool,
        report: &mut HealthReport,
    ) -> Result<(GraphWeights, InnerStats), OodGnnError> {
        let mut lr = self.config.weight_lr;
        let mut spike = spike;
        for attempt in 0..=policy.max_inner_retries {
            match self.optimize_weights_once(z_local, rng, lr, spike, policy.check_finite) {
                Ok(out) => return Ok(out),
                Err(InnerFailure::Fatal(e)) => return Err(e),
                Err(InnerFailure::Diverged) => {
                    // The injected fault fires once; real divergence retries
                    // at a gentler step size.
                    spike = false;
                    if attempt < policy.max_inner_retries {
                        lr *= policy.retry_backoff;
                        report.inner_retries += 1;
                        health::emit_inner_retry(epoch, batch, attempt + 1, lr);
                    }
                }
            }
        }
        report.uniform_fallbacks += 1;
        health::emit_fallback_uniform(epoch, batch, policy.max_inner_retries);
        let stats = InnerStats {
            iters: 0,
            initial_loss: 0.0,
            final_loss: 0.0,
        };
        Ok((GraphWeights::uniform(z_local.nrows()), stats))
    }

    /// Unguarded inner optimization (no divergence signalling), the legacy
    /// path used by [`OodGnn::reweight`] and the tests.
    fn optimize_weights(
        &mut self,
        z_local: &Tensor,
        rng: &mut Rng,
    ) -> Result<(GraphWeights, InnerStats), OodGnnError> {
        self.optimize_weights_once(z_local, rng, self.config.weight_lr, false, false)
            .map_err(|f| match f {
                InnerFailure::Fatal(e) => e,
                InnerFailure::Diverged => unreachable!("divergence checks were disabled"),
            })
    }
}

/// The OOD-GNN model: a GIN-backbone encoder + classifier trained with
/// graph reweighting and nonlinear representation decorrelation.
pub struct OodGnn {
    model: GnnModel,
    reweighter: Reweighter,
}

impl OodGnn {
    /// Build for a task over `in_dim`-dimensional node features.
    pub fn new(in_dim: usize, task: TaskType, config: OodGnnConfig, rng: &mut Rng) -> Self {
        let encoder = Box::new(StackedEncoder::new(
            config.encoder,
            in_dim,
            config.model.hidden,
            config.model.layers,
            false,
            config.model.readout,
            config.model.dropout,
            rng,
        ));
        let model = GnnModel::from_encoder(encoder, task, rng);
        let memory = GlobalMemory::with_uniform_gamma(
            config.k_groups,
            config.train.batch_size,
            model.rep_dim(),
            config.gamma,
        );
        OodGnn {
            model,
            reweighter: Reweighter { memory, config },
        }
    }

    /// Total trainable parameter count (the paper's §4.8; note the graph
    /// weights are transient per-batch variables, not stored parameters).
    pub fn num_params(&mut self) -> usize {
        self.model.num_params()
    }

    /// Mutable access to the wrapped predictive model.
    pub fn model_mut(&mut self) -> &mut GnnModel {
        &mut self.model
    }

    /// Split into the predictive model and its reweighter, the two
    /// arguments [`train_run`] takes.
    pub fn into_parts(self) -> (GnnModel, Reweighter) {
        (self.model, self.reweighter)
    }

    /// The configuration in use.
    pub fn config(&self) -> &OodGnnConfig {
        &self.reweighter.config
    }

    /// Optimize sample weights for an arbitrary representation matrix
    /// (`[n, d]`) against the decorrelation objective, without touching the
    /// encoder — the public API for diagnostics and custom training loops.
    /// Returns the optimized, projected weights.
    ///
    /// # Errors
    /// Fails if the representation shape disagrees with the model/memory.
    pub fn reweight(&mut self, z: &Tensor, rng: &mut Rng) -> Result<Vec<f32>, OodGnnError> {
        let (w, _) = self.reweighter.optimize_weights(z, rng)?;
        Ok(w.values().data().to_vec())
    }

    /// Train with Algorithm 1 and report metrics. `seed` drives batching,
    /// dropout and the RFF draws. Guardrails on, checkpointing and fault
    /// injection off — see [`OodGnn::train_run`] for the full runtime.
    ///
    /// # Errors
    /// Propagates [`train_run`] failures — dataset or shape validation
    /// errors in particular. (The default options carry no fault plan, so
    /// [`OodGnnError::Interrupted`] cannot occur here.)
    pub fn train(&mut self, bench: &OodBenchmark, seed: u64) -> Result<TrainReport, OodGnnError> {
        self.train_run(bench, seed, TrainOptions::default())
    }

    /// [`train_run`] with this model's reweighter and `config().train`.
    ///
    /// # Errors
    /// As [`train_run`].
    pub fn train_run(
        &mut self,
        bench: &OodBenchmark,
        seed: u64,
        opts: TrainOptions,
    ) -> Result<TrainReport, OodGnnError> {
        let config = self.reweighter.config.train.clone();
        train_run(
            &mut self.model,
            Some(&mut self.reweighter),
            bench,
            &config,
            seed,
            opts,
        )
    }
}

/// Drop any stale tape bindings on the model parameters (used when a
/// guardrail skips a batch after the forward pass bound them).
fn clear_bindings(model: &mut GnnModel) {
    for p in model.params_mut() {
        p.clear_binding();
    }
}

/// The fault-tolerant training loop: weighted ERM with numerical-health
/// guardrails, periodic atomic checkpointing, resume, and (for drills)
/// fault injection. With a `reweighter`, each batch's weights come from
/// Algorithm 1's inner loop; without one they are uniform, the batch draws
/// nothing extra from the RNG, and the run is plain ERM. `seed` drives
/// batching, dropout and the RFF draws.
///
/// A run resumed from a checkpoint written by the same seed/config
/// produces a bitwise-identical loss curve: checkpoints land on epoch
/// boundaries and capture the full RNG, optimizer, and memory state. A
/// checkpoint only resumes a run of its own kind: one written with a
/// reweighter carries the global memory, one written without does not.
///
/// # Errors
/// [`OodGnnError::Interrupted`] when a [`FaultPlan`] kill fires;
/// checkpoint I/O or state-mismatch errors; structural shape errors.
pub fn train_run(
    model: &mut GnnModel,
    mut reweighter: Option<&mut Reweighter>,
    bench: &OodBenchmark,
    config: &TrainConfig,
    seed: u64,
    mut opts: TrainOptions,
) -> Result<TrainReport, OodGnnError> {
    let ds = &bench.dataset;
    // Stamp the run manifest before any work: the analysis tier keys
    // every report and baseline comparison off this record.
    if trace::enabled() {
        let mut manifest = trace::RunManifest::new("train_run")
            .seed(seed)
            .threads(tensor::par::current_threads())
            .pool(tensor::pool::enabled())
            .dataset(ds.name());
        manifest.backbone = reweighter
            .as_ref()
            .map(|r| format!("{:?}", r.config.encoder));
        manifest
            .epochs(config.epochs)
            .with("batch_size", config.batch_size)
            .with(
                "epoch_reweight",
                reweighter.as_ref().map_or(0, |r| r.config.epoch_reweight),
            )
            .with("train_graphs", bench.split.train.len())
            .emit();
    }
    let mut st = RunState {
        rng: Rng::seed_from(seed),
        opt: Adam::new(config.lr)
            .with_weight_decay(config.weight_decay)
            .with_grad_clip(config.grad_clip),
        loss_curve: Vec::with_capacity(config.epochs),
        hsic_curve: Vec::with_capacity(config.epochs),
        best_val: None,
        test_at_best: None,
        weight_of: HashMap::new(),
        health: HealthReport::default(),
    };
    let mut start_epoch = 0usize;
    if opts.resume {
        if let Some(ck_cfg) = &opts.checkpoint {
            if ck_cfg.path.exists() {
                let ck = TrainCheckpoint::load(&ck_cfg.path)?;
                start_epoch = ck.epochs_done;
                let memory = reweighter.as_deref_mut().map(|r| &mut r.memory);
                st.restore(&ck, seed, model, memory)?;
                if trace::enabled() {
                    trace::emit_event(
                        "checkpoint_restored",
                        &[
                            ("epoch", (start_epoch as i64).into()),
                            ("path", ck_cfg.path.display().to_string().into()),
                        ],
                    );
                }
            }
        }
    }
    let lower_is_better = ds.task().is_regression();
    let _train_span = trace::span!("train");
    for epoch in start_epoch..config.epochs {
        let _epoch_span = trace::span!("epoch");
        let mut order = bench.split.train.clone();
        st.rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut epoch_hsic = 0.0;
        let mut grad_norm_sum = 0.0;
        let mut batches = 0usize;
        for (bi, chunk) in order.chunks(config.batch_size).enumerate() {
            let _batch_span = trace::span!("batch");
            if let Some(plan) = &opts.faults {
                if plan.should_kill(epoch, bi) {
                    return Err(OodGnnError::Interrupted { epoch, batch: bi });
                }
            }
            let mut batch = GraphBatch::from_dataset(ds, chunk);
            if let Some(plan) = opts.faults.as_mut() {
                plan.maybe_corrupt_features(&mut batch.features, epoch, bi);
            }
            // Line 3: local representations.
            let mut tape = Tape::new();
            let z = trace::span::time("encode", || {
                model.encode(&mut tape, &batch, Mode::Train, &mut st.rng)
            });
            let z_value = tape.value(z);
            if opts.health.check_finite && !all_finite(z_value) {
                // Poisoned inputs (or a diverged encoder) would propagate
                // NaN into the weights and optimizer state: skip.
                st.health.nan_batches += 1;
                health::emit_nan_detected("encode", epoch, bi);
                clear_bindings(model);
                continue;
            }
            // Lines 4–8: optimize local weights (representations fixed).
            // Plain ERM keeps them uniform.
            let weights = match reweighter.as_deref_mut() {
                Some(r) => {
                    let spike = opts
                        .faults
                        .as_mut()
                        .map(|p| p.take_inner_spike(epoch, bi))
                        .unwrap_or(false);
                    let (w, inner) = r.optimize_weights_guarded(
                        z_value,
                        &mut st.rng,
                        &opts.health,
                        epoch,
                        bi,
                        spike,
                        &mut st.health,
                    )?;
                    epoch_hsic += inner.final_loss;
                    for (i, &gi) in chunk.iter().enumerate() {
                        st.weight_of.insert(gi, w.values().data()[i]);
                    }
                    w.into_values()
                }
                None => Tensor::ones([chunk.len()]),
            };
            // Line 9: weighted prediction loss on the same tape.
            let loss = trace::span::time("head", || {
                let logits = model.predict_from_rep(&mut tape, z, Mode::Train);
                let per_sample = per_sample_loss(&mut tape, logits, ds, chunk);
                weighted_mean(&mut tape, per_sample, &weights)
            });
            let loss_value = tape.value(loss).item();
            if opts.health.check_finite && !loss_value.is_finite() {
                st.health.skipped_steps += 1;
                health::emit_nan_detected("loss", epoch, bi);
                clear_bindings(model);
                continue;
            }
            epoch_loss += loss_value;
            batches += 1;
            let grads = trace::span::time("backward", || tape.backward(loss));
            let _optim_span = trace::span!("optim");
            let params = model.params_mut();
            if trace::enabled() || opts.health.check_finite {
                let gn = tensor::optim::global_grad_norm(&params, &grads);
                if opts.health.check_finite && !gn.is_finite() {
                    st.health.skipped_steps += 1;
                    health::emit_nan_detected("grad", epoch, bi);
                    for p in params {
                        p.clear_binding();
                    }
                    // The skipped batch keeps its loss contribution (it
                    // was finite); only the update is dropped.
                    continue;
                }
                grad_norm_sum += gn;
            }
            st.opt.step(params, &grads);
        }
        let denom = batches.max(1) as f32;
        st.loss_curve
            .push(if batches > 0 { epoch_loss / denom } else { 0.0 });
        if reweighter.is_some() {
            st.hsic_curve
                .push(if batches > 0 { epoch_hsic / denom } else { 0.0 });
        }
        if trace::enabled() {
            let ws: Vec<f32> = st.weight_of.values().copied().collect();
            let s = weight_stats(&ws);
            trace::emit_event(
                trace::names::EPOCH,
                &[
                    ("epoch", (epoch as i64).into()),
                    ("loss", (epoch_loss / denom).into()),
                    ("hsic", (epoch_hsic / denom).into()),
                    ("grad_norm", (grad_norm_sum / denom).into()),
                    ("w_min", s.min.into()),
                    ("w_max", s.max.into()),
                    ("w_entropy", s.entropy.into()),
                    ("w_ess", s.ess.into()),
                ],
            );
            let pool = tensor::pool::stats();
            trace::emit_event(
                trace::names::TENSOR_MEMORY,
                &[
                    ("epoch", (epoch as i64).into()),
                    ("pool_enabled", pool.enabled.into()),
                    ("pool_hits", (pool.hits as i64).into()),
                    ("pool_misses", (pool.misses as i64).into()),
                    ("allocations", (pool.allocations as i64).into()),
                    ("bytes_reused", (pool.bytes_reused as i64).into()),
                    ("retained_bytes", (pool.retained_bytes as i64).into()),
                ],
            );
            trace::metrics::flush();
        }
        if let Some(k) = config.eval_every {
            if k > 0 && (epoch + 1) % k == 0 {
                let v = evaluate(model, ds, &bench.split.val, config.batch_size, &mut st.rng);
                let t = evaluate(model, ds, &bench.split.test, config.batch_size, &mut st.rng);
                st.observe(lower_is_better, v, t);
            }
        }
        if let Some(ck_cfg) = &opts.checkpoint {
            if ck_cfg.every > 0 && (epoch + 1) % ck_cfg.every == 0 {
                let memory = reweighter.as_deref().map(|r| &r.memory);
                st.checkpoint(seed, epoch + 1, model, memory)
                    .save(&ck_cfg.path)?;
                health::emit_checkpoint_saved(epoch + 1, &ck_cfg.path);
            }
        }
    }
    let final_weights: Vec<f32> = match reweighter {
        Some(_) => bench
            .split
            .train
            .iter()
            .map(|gi| *st.weight_of.get(gi).unwrap_or(&1.0))
            .collect(),
        None => Vec::new(),
    };
    let bs = config.batch_size;
    Ok(TrainReport {
        train_metric: evaluate(model, ds, &bench.split.train, bs, &mut st.rng),
        val_metric: evaluate(model, ds, &bench.split.val, bs, &mut st.rng),
        test_metric: evaluate(model, ds, &bench.split.test, bs, &mut st.rng),
        loss_curve: st.loss_curve,
        weight_stats: weight_stats(&final_weights),
        final_weights,
        best_val_metric: st.best_val,
        test_at_best_val: st.test_at_best,
        hsic_curve: st.hsic_curve,
        health: st.health,
    })
}

/// The loop's state at an epoch boundary, besides the model and the
/// global memory: everything else a checkpoint captures.
struct RunState {
    rng: Rng,
    opt: Adam,
    loss_curve: Vec<f32>,
    hsic_curve: Vec<f32>,
    /// Best validation metric seen by periodic evaluation.
    best_val: Option<f32>,
    /// Test metric at the best validation epoch.
    test_at_best: Option<f32>,
    /// Latest learned weight of every train graph seen so far.
    weight_of: HashMap<usize, f32>,
    health: HealthReport,
}

impl RunState {
    /// Keep the (validation, test) pair of the best finite validation
    /// metric; "better" respects the task direction (higher AUC/accuracy,
    /// lower RMSE).
    fn observe(&mut self, lower_is_better: bool, val: f32, test: f32) {
        let better = match self.best_val {
            None => true,
            Some(b) if lower_is_better => val < b,
            Some(b) => val > b,
        };
        if better && val.is_finite() {
            self.best_val = Some(val);
            self.test_at_best = Some(test);
        }
    }

    /// Snapshot the full training state.
    fn checkpoint(
        &self,
        seed: u64,
        epochs_done: usize,
        model: &mut GnnModel,
        memory: Option<&GlobalMemory>,
    ) -> TrainCheckpoint {
        let (adam_tensors, adam_steps) = {
            let params = model.params_mut();
            let refs: Vec<&Param> = params.iter().map(|p| &**p).collect();
            self.opt.export_state(&refs)
        };
        let (memory_tensors, memory_initialized) =
            memory.map_or((Vec::new(), false), GlobalMemory::export_state);
        let mut pairs: Vec<(u64, f32)> = self
            .weight_of
            .iter()
            .map(|(&k, &v)| (k as u64, v))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        TrainCheckpoint {
            seed,
            epochs_done,
            rng: self.rng.state(),
            adam_tensors,
            adam_steps,
            memory_tensors,
            memory_initialized,
            weight_indices: pairs.iter().map(|&(k, _)| k).collect(),
            weight_values: pairs.iter().map(|&(_, v)| v).collect(),
            loss_curve: self.loss_curve.clone(),
            hsic_curve: self.hsic_curve.clone(),
            best_val: self.best_val,
            test_at_best: self.test_at_best,
            health: self.health,
            ..TrainCheckpoint::from_model(model)
        }
    }

    /// Restore every piece of state captured by [`RunState::checkpoint`].
    /// Fails on any seed/shape mismatch, and when the checkpoint's
    /// global-memory section does not match the presence of `memory`.
    fn restore(
        &mut self,
        ck: &TrainCheckpoint,
        seed: u64,
        model: &mut GnnModel,
        memory: Option<&mut GlobalMemory>,
    ) -> Result<(), OodGnnError> {
        if ck.seed != seed {
            return Err(OodGnnError::Checkpoint(format!(
                "checkpoint was written by seed {}, resume requested seed {seed}",
                ck.seed
            )));
        }
        // A GIN baseline and OOD-GNN have the same parameter shapes, so
        // only the memory section tells their checkpoints apart.
        let ck_reweights = !ck.memory_tensors.is_empty();
        if ck_reweights != memory.is_some() {
            let kind = |r: bool| if r { "with" } else { "without" };
            return Err(OodGnnError::Checkpoint(format!(
                "checkpoint was written by a run {} a reweighter, resume requested one {}",
                kind(ck_reweights),
                kind(memory.is_some())
            )));
        }
        ck.restore_model(model)?;
        let params = model.params_mut();
        let refs: Vec<&Param> = params.iter().map(|p| &**p).collect();
        self.opt
            .import_state(&refs, &ck.adam_tensors, &ck.adam_steps)
            .map_err(OodGnnError::Checkpoint)?;
        if let Some(memory) = memory {
            memory.import_state(&ck.memory_tensors, ck.memory_initialized)?;
        }
        self.rng = Rng::from_state(ck.rng);
        self.weight_of = ck
            .weight_indices
            .iter()
            .zip(&ck.weight_values)
            .map(|(&k, &v)| (k as usize, v))
            .collect();
        self.loss_curve = ck.loss_curve.clone();
        self.hsic_curve = ck.hsic_curve.clone();
        self.best_val = ck.best_val;
        self.test_at_best = ck.test_at_best;
        self.health = ck.health;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::triangles::{generate, TrianglesConfig};
    use graph::{Graph, GraphDataset, Label, Split};

    fn quick_config() -> OodGnnConfig {
        OodGnnConfig {
            model: ModelConfig {
                hidden: 16,
                layers: 2,
                dropout: 0.0,
                ..Default::default()
            },
            train: TrainConfig {
                epochs: 6,
                batch_size: 16,
                lr: 3e-3,
                ..Default::default()
            },
            epoch_reweight: 4,
            ..Default::default()
        }
    }

    #[test]
    fn trains_and_reports() {
        let bench = generate(&TrianglesConfig::scaled(0.02), 1);
        let mut rng = Rng::seed_from(2);
        let mut model = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            quick_config(),
            &mut rng,
        );
        let report = model.train(&bench, 3).expect("training failed");
        assert_eq!(report.loss_curve.len(), 6);
        assert_eq!(report.hsic_curve.len(), 6);
        assert!(report.hsic_curve.iter().all(|h| h.is_finite() && *h >= 0.0));
        assert_eq!(report.final_weights.len(), bench.split.train.len());
        assert!(report.train_metric.is_finite());
        assert!(report.test_metric.is_finite());
        // The reported weight stats describe the final weights.
        let n = report.final_weights.len() as f32;
        assert!(report.weight_stats.ess > 0.0 && report.weight_stats.ess <= n + 1e-3);
        assert!((report.weight_stats.mean - 1.0).abs() < 0.3);
    }

    #[test]
    fn weights_become_nontrivial_but_stay_projected() {
        let bench = generate(&TrianglesConfig::scaled(0.02), 4);
        let mut rng = Rng::seed_from(5);
        let mut model = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            quick_config(),
            &mut rng,
        );
        let report = model.train(&bench, 6).expect("training failed");
        let mean: f32 =
            report.final_weights.iter().sum::<f32>() / report.final_weights.len() as f32;
        assert!(
            (mean - 1.0).abs() < 0.25,
            "weights should stay near mean 1, got {mean}"
        );
        assert!(report.final_weights.iter().all(|&w| w > 0.0));
        // Figure 4: the learned weights should not all be exactly 1.
        let spread = report
            .final_weights
            .iter()
            .map(|&w| (w - mean).abs())
            .fold(0f32, f32::max);
        assert!(
            spread > 1e-3,
            "weights are trivially uniform (spread {spread})"
        );
    }

    #[test]
    fn weight_optimization_reduces_decorrelation_loss() {
        let mut rng = Rng::seed_from(7);
        let bench = generate(&TrianglesConfig::scaled(0.02), 8);
        let mut model = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            OodGnnConfig {
                epoch_reweight: 15,
                ..quick_config()
            },
            &mut rng,
        );
        // Correlated representations by construction.
        let n = 32;
        let mut data = Vec::with_capacity(n * 16);
        for _ in 0..n {
            let x = rng.normal();
            for k in 0..16 {
                data.push(x + 0.1 * rng.normal() * (k as f32 + 1.0));
            }
        }
        let z = Tensor::from_vec(data, [n, 16]);
        let eval_loss = |w: &Tensor, rng: &mut Rng| {
            let mut tape = Tape::new();
            let zn = tape.constant(z.clone());
            let wn = tape.leaf(w.clone());
            let l = crate::decorrelation::decorrelation_loss(
                &mut tape,
                zn,
                wn,
                &DecorrelationKind::Linear,
                rng,
            )
            .unwrap();
            tape.value(l).item()
        };
        let uniform_loss = eval_loss(&Tensor::ones([n]), &mut Rng::seed_from(0));
        let (w, inner) = model.reweighter.optimize_weights(&z, &mut rng).unwrap();
        assert_eq!(inner.iters, 15);
        assert!(inner.initial_loss.is_finite() && inner.final_loss.is_finite());
        let opt_loss = eval_loss(w.values(), &mut Rng::seed_from(0));
        assert!(
            opt_loss < uniform_loss,
            "optimized weights must lower the objective: {opt_loss} vs {uniform_loss}"
        );
    }

    #[test]
    fn dim_fraction_runs() {
        let bench = generate(&TrianglesConfig::scaled(0.015), 9);
        let mut rng = Rng::seed_from(10);
        let mut model = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            OodGnnConfig {
                dim_fraction: 0.5,
                ..quick_config()
            },
            &mut rng,
        );
        let report = model.train(&bench, 11).expect("training failed");
        assert!(report.test_metric.is_finite());
    }

    #[test]
    fn linear_ablation_runs() {
        let bench = generate(&TrianglesConfig::scaled(0.015), 12);
        let mut rng = Rng::seed_from(13);
        let mut model = OodGnn::new(
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            OodGnnConfig {
                decorrelation: DecorrelationKind::Linear,
                ..quick_config()
            },
            &mut rng,
        );
        let report = model.train(&bench, 14).expect("training failed");
        assert!(report.test_metric.is_finite());
    }

    #[test]
    fn param_count_close_to_plain_gin() {
        // §4.8: OOD-GNN's stored parameters are the GIN encoder + head.
        let mut rng = Rng::seed_from(15);
        let task = TaskType::MultiClass { classes: 10 };
        let mut ood = OodGnn::new(16, task, quick_config(), &mut rng);
        let mut gin = GnnModel::baseline(
            gnn::models::BaselineKind::Gin,
            16,
            task,
            &quick_config().model,
            &mut rng,
        );
        let (a, b) = (ood.num_params(), gin.num_params());
        let ratio = a as f32 / b as f32;
        assert!((0.8..1.25).contains(&ratio), "OOD-GNN {a} vs GIN {b}");
    }

    /// A tiny dataset where class = presence of an edge pattern the GNN can
    /// easily learn: class 1 graphs are triangles, class 0 are paths.
    fn easy_benchmark(n_per_class: usize) -> OodBenchmark {
        let mut graphs = Vec::new();
        let mut rng = Rng::seed_from(1);
        for i in 0..2 * n_per_class {
            let class = i % 2;
            let n = 3 + rng.below(3);
            let mut feats = Tensor::ones([n, 2]);
            for r in 0..n {
                *feats.at_mut(r, 1) = rng.unit();
            }
            let mut g = Graph::new(n, feats, Label::Class(class));
            for j in 1..n {
                g.add_undirected_edge(j - 1, j);
            }
            if class == 1 {
                g.add_undirected_edge(0, 2.min(n - 1));
            }
            graphs.push(g);
        }
        let ds = GraphDataset::new("easy", graphs, TaskType::MultiClass { classes: 2 });
        let n = ds.len();
        let train: Vec<usize> = (0..n * 8 / 10).collect();
        let val: Vec<usize> = (n * 8 / 10..n * 9 / 10).collect();
        let test: Vec<usize> = (n * 9 / 10..n).collect();
        OodBenchmark {
            dataset: ds,
            split: Split { train, val, test },
        }
    }

    #[test]
    fn erm_learns_easy_task() {
        let bench = easy_benchmark(40);
        let mut rng = Rng::seed_from(2);
        let cfg = ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        };
        let mut model = GnnModel::baseline(
            gnn::models::BaselineKind::Gin,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &cfg,
            &mut rng,
        );
        let config = TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 3e-3,
            ..Default::default()
        };
        let report = train_run(
            &mut model,
            None,
            &bench,
            &config,
            3,
            TrainOptions::default(),
        )
        .expect("training failed");
        assert!(
            report.train_metric > 0.9,
            "train acc {}",
            report.train_metric
        );
        assert!(report.test_metric > 0.8, "test acc {}", report.test_metric);
        // Loss should decrease substantially.
        let first = report.loss_curve[0];
        let last = *report.loss_curve.last().unwrap();
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn triangles_baseline_shows_ood_gap() {
        // Even a briefly-trained GIN should do better in-distribution than on
        // the larger OOD test graphs — the effect the paper studies.
        let bench = generate(&TrianglesConfig::scaled(0.06), 4);
        let mut rng = Rng::seed_from(5);
        let cfg = ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        };
        let mut model = GnnModel::baseline(
            gnn::models::BaselineKind::Gin,
            bench.dataset.feature_dim(),
            bench.dataset.task(),
            &cfg,
            &mut rng,
        );
        let config = TrainConfig {
            epochs: 15,
            batch_size: 32,
            lr: 3e-3,
            ..Default::default()
        };
        let report = train_run(
            &mut model,
            None,
            &bench,
            &config,
            6,
            TrainOptions::default(),
        )
        .expect("training failed");
        assert!(
            report.train_metric > report.test_metric,
            "expected OOD gap: train {} vs test {}",
            report.train_metric,
            report.test_metric
        );
    }
}
