//! The OOD-GNN training procedure (Algorithm 1 of the paper): iterative
//! optimization of the sample weights (against the decorrelation objective
//! over global+local representations) and of the encoder/classifier
//! (against the weighted prediction loss).
//!
//! The runtime is fault tolerant: [`OodGnn::train_run`] can write atomic
//! periodic checkpoints and resume a run to a bitwise-identical loss
//! curve, guards every step against non-finite values (see
//! [`crate::health`]), and accepts a [`FaultPlan`] that injects faults for
//! drills. [`OodGnn::train`] is the convenience wrapper with guardrails on
//! and checkpointing off.

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
use gnn::trainer::{evaluate, per_sample_loss, BestTracker, TrainConfig};
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

/// Runtime options of a fault-tolerant training run (see
/// [`OodGnn::train_run`]).
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

/// Report of an OOD-GNN training run.
#[derive(Debug, Clone)]
pub struct OodGnnReport {
    /// Metric on the training split.
    pub train_metric: f32,
    /// Metric on the validation split.
    pub val_metric: f32,
    /// Metric on the (OOD) test split.
    pub test_metric: f32,
    /// Mean **weighted** prediction loss per epoch (Figure 3).
    pub loss_curve: Vec<f32>,
    /// Final learned weight of every training graph, indexed like the
    /// train split (Figure 4).
    pub final_weights: Vec<f32>,
    /// Best validation metric seen during periodic evaluation (requires
    /// `train.eval_every`).
    pub best_val_metric: Option<f32>,
    /// Test metric at the epoch with the best validation metric.
    pub test_at_best_val: Option<f32>,
    /// Mean decorrelation (HSIC-style) penalty per epoch, measured after
    /// each batch's inner reweighting converged.
    pub hsic_curve: Vec<f32>,
    /// Statistics (min/max/entropy/ESS) of the final learned weights.
    pub weight_stats: WeightStats,
    /// Guardrail interventions during the run (all zero for a clean run).
    pub health: HealthReport,
}

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

/// The OOD-GNN model: a GIN-backbone encoder + classifier trained with
/// graph reweighting and nonlinear representation decorrelation.
pub struct OodGnn {
    model: GnnModel,
    memory: GlobalMemory,
    config: OodGnnConfig,
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
        let rep_dim = model.rep_dim();
        let memory = GlobalMemory::with_uniform_gamma(
            config.k_groups,
            config.train.batch_size,
            rep_dim,
            config.gamma,
        );
        OodGnn {
            model,
            memory,
            config,
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

    /// The configuration in use.
    pub fn config(&self) -> &OodGnnConfig {
        &self.config
    }

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

    /// Optimize sample weights for an arbitrary representation matrix
    /// (`[n, d]`) against the decorrelation objective, without touching the
    /// encoder — the public API for diagnostics and custom training loops.
    /// Returns the optimized, projected weights.
    ///
    /// # Errors
    /// Fails if the representation shape disagrees with the model/memory.
    pub fn reweight(&mut self, z: &Tensor, rng: &mut Rng) -> Result<Vec<f32>, OodGnnError> {
        let (w, _) = self.optimize_weights(z, rng)?;
        Ok(w.values().data().to_vec())
    }

    /// Drop any stale tape bindings on the model parameters (used when a
    /// guardrail skips a batch after the forward pass bound them).
    fn clear_model_bindings(&mut self) {
        for p in self.model.params_mut() {
            p.clear_binding();
        }
    }

    /// Train with Algorithm 1 and report metrics. `seed` drives batching,
    /// dropout and the RFF draws. Guardrails on, checkpointing and fault
    /// injection off — see [`OodGnn::train_run`] for the full runtime.
    ///
    /// # Errors
    /// Propagates [`train_run`](OodGnn::train_run) failures — dataset or
    /// shape validation errors in particular. (The default options carry no
    /// fault plan, so [`OodGnnError::Interrupted`] cannot occur here.)
    pub fn train(&mut self, bench: &OodBenchmark, seed: u64) -> Result<OodGnnReport, OodGnnError> {
        self.train_run(bench, seed, TrainOptions::default())
    }

    /// Fault-tolerant training run: Algorithm 1 plus numerical-health
    /// guardrails, periodic atomic checkpointing, resume, and (for drills)
    /// fault injection.
    ///
    /// A run resumed from a checkpoint written by the same seed/config
    /// produces a bitwise-identical loss curve: checkpoints land on epoch
    /// boundaries and capture the full RNG, optimizer, and memory state.
    ///
    /// # Errors
    /// [`OodGnnError::Interrupted`] when a [`FaultPlan`] kill fires;
    /// checkpoint I/O or state-mismatch errors; structural shape errors.
    pub fn train_run(
        &mut self,
        bench: &OodBenchmark,
        seed: u64,
        mut opts: TrainOptions,
    ) -> Result<OodGnnReport, OodGnnError> {
        let ds = &bench.dataset;
        let cfg_train = self.config.train.clone();
        // Stamp the run manifest before any work: the analysis tier keys
        // every report and baseline comparison off this record.
        if trace::enabled() {
            trace::RunManifest::new("train_run")
                .seed(seed)
                .threads(tensor::par::current_threads())
                .pool(tensor::pool::enabled())
                .dataset(ds.name())
                .backbone(format!("{:?}", self.config.encoder))
                .epochs(self.config.train.epochs)
                .with("batch_size", cfg_train.batch_size)
                .with("epoch_reweight", self.config.epoch_reweight)
                .with("train_graphs", bench.split.train.len())
                .emit();
        }
        let mut rng = Rng::seed_from(seed);
        let mut opt = Adam::new(cfg_train.lr)
            .with_weight_decay(cfg_train.weight_decay)
            .with_grad_clip(cfg_train.grad_clip);
        let mut loss_curve = Vec::with_capacity(cfg_train.epochs);
        let mut hsic_curve = Vec::with_capacity(cfg_train.epochs);
        let mut tracker = BestTracker::new(ds.task().is_regression());
        let mut weight_of: HashMap<usize, f32> = HashMap::new();
        let mut health = HealthReport::default();
        let mut start_epoch = 0usize;
        if opts.resume {
            if let Some(ck_cfg) = &opts.checkpoint {
                if ck_cfg.path.exists() {
                    let ck = TrainCheckpoint::load(&ck_cfg.path)?;
                    start_epoch = ck.epochs_done;
                    self.restore_from_checkpoint(
                        &ck,
                        seed,
                        &mut rng,
                        &mut opt,
                        &mut loss_curve,
                        &mut hsic_curve,
                        &mut tracker,
                        &mut weight_of,
                        &mut health,
                    )?;
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
        let _train_span = trace::span!("train");
        for epoch in start_epoch..cfg_train.epochs {
            let _epoch_span = trace::span!("epoch");
            let mut order = bench.split.train.clone();
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut epoch_hsic = 0.0;
            let mut grad_norm_sum = 0.0;
            let mut batches = 0usize;
            for (bi, chunk) in order.chunks(cfg_train.batch_size).enumerate() {
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
                    self.model.encode(&mut tape, &batch, Mode::Train, &mut rng)
                });
                let z_value = tape.value(z).clone();
                if opts.health.check_finite && !all_finite(&z_value) {
                    // Poisoned inputs (or a diverged encoder) would propagate
                    // NaN into the weights and optimizer state: skip.
                    health.nan_batches += 1;
                    health::emit_nan_detected("encode", epoch, bi);
                    self.clear_model_bindings();
                    continue;
                }
                // Lines 4–8: optimize local weights (representations fixed).
                let spike = opts
                    .faults
                    .as_mut()
                    .map(|p| p.take_inner_spike(epoch, bi))
                    .unwrap_or(false);
                let (w, inner) = self.optimize_weights_guarded(
                    &z_value,
                    &mut rng,
                    &opts.health,
                    epoch,
                    bi,
                    spike,
                    &mut health,
                )?;
                epoch_hsic += inner.final_loss;
                for (i, &gi) in chunk.iter().enumerate() {
                    weight_of.insert(gi, w.values().data()[i]);
                }
                // Line 9: weighted prediction loss on the same tape.
                let loss = trace::span::time("head", || {
                    let logits = self.model.predict_from_rep(&mut tape, z, Mode::Train);
                    let per_sample = per_sample_loss(&mut tape, logits, ds, chunk);
                    weighted_mean(&mut tape, per_sample, w.values())
                });
                let loss_value = tape.value(loss).item();
                if opts.health.check_finite && !loss_value.is_finite() {
                    health.skipped_steps += 1;
                    health::emit_nan_detected("loss", epoch, bi);
                    self.clear_model_bindings();
                    continue;
                }
                epoch_loss += loss_value;
                batches += 1;
                let grads = trace::span::time("backward", || tape.backward(loss));
                let _optim_span = trace::span!("optim");
                let params = self.model.params_mut();
                if trace::enabled() || opts.health.check_finite {
                    let gn = tensor::optim::global_grad_norm(&params, &grads);
                    if opts.health.check_finite && !gn.is_finite() {
                        health.skipped_steps += 1;
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
                opt.step(params, &grads);
            }
            let denom = batches.max(1) as f32;
            loss_curve.push(if batches > 0 { epoch_loss / denom } else { 0.0 });
            hsic_curve.push(if batches > 0 { epoch_hsic / denom } else { 0.0 });
            if trace::enabled() {
                let ws: Vec<f32> = weight_of.values().copied().collect();
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
            if let Some(k) = cfg_train.eval_every {
                if k > 0 && (epoch + 1) % k == 0 {
                    let v = evaluate(
                        &mut self.model,
                        ds,
                        &bench.split.val,
                        cfg_train.batch_size,
                        &mut rng,
                    );
                    let t = evaluate(
                        &mut self.model,
                        ds,
                        &bench.split.test,
                        cfg_train.batch_size,
                        &mut rng,
                    );
                    tracker.observe(v, t);
                }
            }
            if let Some(ck_cfg) = &opts.checkpoint {
                if ck_cfg.every > 0 && (epoch + 1) % ck_cfg.every == 0 {
                    self.save_checkpoint(
                        ck_cfg,
                        seed,
                        epoch + 1,
                        &rng,
                        &mut opt,
                        &loss_curve,
                        &hsic_curve,
                        &tracker,
                        &weight_of,
                        &health,
                    )?;
                }
            }
        }
        let final_weights: Vec<f32> = bench
            .split
            .train
            .iter()
            .map(|gi| *weight_of.get(gi).unwrap_or(&1.0))
            .collect();
        let (best_val_metric, test_at_best_val) = tracker.into_parts();
        let weight_stats = weight_stats(&final_weights);
        Ok(OodGnnReport {
            train_metric: evaluate(
                &mut self.model,
                ds,
                &bench.split.train,
                cfg_train.batch_size,
                &mut rng,
            ),
            val_metric: evaluate(
                &mut self.model,
                ds,
                &bench.split.val,
                cfg_train.batch_size,
                &mut rng,
            ),
            test_metric: evaluate(
                &mut self.model,
                ds,
                &bench.split.test,
                cfg_train.batch_size,
                &mut rng,
            ),
            loss_curve,
            final_weights,
            best_val_metric,
            test_at_best_val,
            hsic_curve,
            weight_stats,
            health,
        })
    }

    /// Snapshot the full training state into an atomic checkpoint file.
    #[allow(clippy::too_many_arguments)]
    fn save_checkpoint(
        &mut self,
        cfg: &CheckpointConfig,
        seed: u64,
        epochs_done: usize,
        rng: &Rng,
        opt: &mut Adam,
        loss_curve: &[f32],
        hsic_curve: &[f32],
        tracker: &BestTracker,
        weight_of: &HashMap<usize, f32>,
        health: &HealthReport,
    ) -> Result<(), OodGnnError> {
        let (mut model_tensors, n_params, adam_tensors, adam_steps) = {
            let params = self.model.params_mut();
            let n_params = params.len();
            let refs: Vec<&Param> = params.iter().map(|p| &**p).collect();
            let tensors: Vec<Tensor> = refs.iter().map(|p| p.value.clone()).collect();
            let (adam_tensors, adam_steps) = opt.export_state(&refs);
            (tensors, n_params, adam_tensors, adam_steps)
        };
        model_tensors.extend(self.model.buffers_mut().iter().map(|b| (**b).clone()));
        let (memory_tensors, memory_initialized) = self.memory.export_state();
        let mut pairs: Vec<(u64, f32)> = weight_of.iter().map(|(&k, &v)| (k as u64, v)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let (best_val, test_at_best) = tracker.parts();
        let ck = TrainCheckpoint {
            seed,
            epochs_done,
            rng: rng.state(),
            model_tensors,
            n_params,
            adam_tensors,
            adam_steps,
            memory_tensors,
            memory_initialized,
            weight_indices: pairs.iter().map(|&(k, _)| k).collect(),
            weight_values: pairs.iter().map(|&(_, v)| v).collect(),
            loss_curve: loss_curve.to_vec(),
            hsic_curve: hsic_curve.to_vec(),
            best_val,
            test_at_best,
            health: *health,
        };
        ck.save(&cfg.path)?;
        health::emit_checkpoint_saved(epochs_done, &cfg.path);
        Ok(())
    }

    /// Restore every piece of training state captured by
    /// [`OodGnn::save_checkpoint`]. Fails on any seed/shape mismatch.
    #[allow(clippy::too_many_arguments)]
    fn restore_from_checkpoint(
        &mut self,
        ck: &TrainCheckpoint,
        seed: u64,
        rng: &mut Rng,
        opt: &mut Adam,
        loss_curve: &mut Vec<f32>,
        hsic_curve: &mut Vec<f32>,
        tracker: &mut BestTracker,
        weight_of: &mut HashMap<usize, f32>,
        health: &mut HealthReport,
    ) -> Result<(), OodGnnError> {
        if ck.seed != seed {
            return Err(OodGnnError::Checkpoint(format!(
                "checkpoint was written by seed {}, resume requested seed {seed}",
                ck.seed
            )));
        }
        {
            let mut params = self.model.params_mut();
            if params.len() != ck.n_params {
                return Err(OodGnnError::Checkpoint(format!(
                    "checkpoint has {} parameters, model has {}",
                    ck.n_params,
                    params.len()
                )));
            }
            for (i, p) in params.iter_mut().enumerate() {
                let t = &ck.model_tensors[i];
                if t.shape() != p.value.shape() {
                    return Err(OodGnnError::Checkpoint(format!(
                        "parameter {i} shape mismatch: checkpoint {:?}, model {:?}",
                        t.shape(),
                        p.value.shape()
                    )));
                }
                p.value = t.clone();
            }
            let refs: Vec<&Param> = params.iter().map(|p| &**p).collect();
            opt.import_state(&refs, &ck.adam_tensors, &ck.adam_steps)
                .map_err(OodGnnError::Checkpoint)?;
        }
        let buffers = self.model.buffers_mut();
        if ck.n_params + buffers.len() != ck.model_tensors.len() {
            return Err(OodGnnError::Checkpoint(format!(
                "checkpoint holds {} model tensors, model needs {} params + {} buffers",
                ck.model_tensors.len(),
                ck.n_params,
                buffers.len()
            )));
        }
        for (i, b) in buffers.into_iter().enumerate() {
            let t = &ck.model_tensors[ck.n_params + i];
            if t.shape() != b.shape() {
                return Err(OodGnnError::Checkpoint(format!(
                    "buffer {i} shape mismatch: checkpoint {:?}, model {:?}",
                    t.shape(),
                    b.shape()
                )));
            }
            *b = t.clone();
        }
        self.memory
            .import_state(&ck.memory_tensors, ck.memory_initialized)?;
        *rng = Rng::from_state(ck.rng);
        weight_of.clear();
        for (&k, &v) in ck.weight_indices.iter().zip(&ck.weight_values) {
            weight_of.insert(k as usize, v);
        }
        *loss_curve = ck.loss_curve.clone();
        *hsic_curve = ck.hsic_curve.clone();
        *tracker = BestTracker::from_parts(tracker.lower_is_better(), ck.best_val, ck.test_at_best);
        *health = ck.health;
        Ok(())
    }

    /// Evaluate the trained model on arbitrary indices.
    pub fn evaluate(&mut self, ds: &graph::GraphDataset, indices: &[usize], rng: &mut Rng) -> f32 {
        let bs = self.config.train.batch_size;
        evaluate(&mut self.model, ds, indices, bs, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::triangles::{generate, TrianglesConfig};

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
        let (w, inner) = model.optimize_weights(&z, &mut rng).unwrap();
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
}
