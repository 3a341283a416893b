//! Full-training-state checkpoints for the OOD-GNN trainer.
//!
//! A [`TrainCheckpoint`] captures everything [`crate::OodGnn::train_run`]
//! needs to resume a run to a **bitwise-identical** loss curve: model
//! parameters and buffers, Adam moment buffers and step counters, the
//! xoshiro RNG state (including the cached Box–Muller spare), the
//! `GlobalMemory` groups, the learned per-graph sample weights, the
//! loss/HSIC curves, the best-validation tracker and the guardrail
//! counters. Serialization uses the section-based [`Snapshot`] format from
//! the tensor crate, written atomically (write-tmp + rename) and sealed with
//! a mandatory content checksum.
//!
//! It is also the one format for a trained model alone:
//! [`TrainCheckpoint::from_model`] captures a module's parameters and
//! buffers, and [`TrainCheckpoint::restore_model`] is the shape-checked
//! restore behind trainer resume, the serving registry and the CLI's
//! `--save` files.

use crate::error::OodGnnError;
use crate::health::HealthReport;
use std::path::{Path, PathBuf};
use tensor::fnv;
use tensor::nn::Module;
use tensor::rng::{Rng, RngState};
use tensor::serialize::{Section, Snapshot};
use tensor::{Shape, Tensor};

/// Checkpoint format version inside the snapshot's `meta` section.
const FORMAT: u64 = 1;

/// Name of the trailing integrity section holding the content checksum.
const INTEGRITY_SECTION: &str = "integrity";

/// Where and how often the trainer writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path (parent directories are created on save).
    pub path: PathBuf,
    /// Save every `every` epochs (at epoch boundaries); 0 disables saving.
    pub every: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every `every` epochs.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointConfig {
            path: path.into(),
            every,
        }
    }
}

/// The complete training state at an epoch boundary.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Seed the run was started with (validated on resume).
    pub seed: u64,
    /// Number of fully completed epochs.
    pub epochs_done: usize,
    /// Training RNG state at the epoch boundary.
    pub rng: RngState,
    /// Model parameters followed by buffers, in module order.
    pub model_tensors: Vec<Tensor>,
    /// How many of `model_tensors` are trainable parameters.
    pub n_params: usize,
    /// Adam moment tensors (`m`, `v` per parameter, positionally).
    pub adam_tensors: Vec<Tensor>,
    /// Adam per-parameter step counters.
    pub adam_steps: Vec<u64>,
    /// Global-memory group tensors (`z`, `w` per group).
    pub memory_tensors: Vec<Tensor>,
    /// Whether the global memory had absorbed an update yet.
    pub memory_initialized: bool,
    /// Train-split graph indices with learned weights, sorted.
    pub weight_indices: Vec<u64>,
    /// Learned weight for each entry of `weight_indices`.
    pub weight_values: Vec<f32>,
    /// Per-epoch weighted-loss curve so far.
    pub loss_curve: Vec<f32>,
    /// Per-epoch decorrelation-penalty curve so far.
    pub hsic_curve: Vec<f32>,
    /// Best validation metric seen by the periodic tracker.
    pub best_val: Option<f32>,
    /// Test metric at the best validation epoch.
    pub test_at_best: Option<f32>,
    /// Guardrail intervention counters so far.
    pub health: HealthReport,
}

impl TrainCheckpoint {
    /// Capture a module's parameters followed by its buffers (BatchNorm
    /// running statistics etc.), in `params_mut()` / `buffers_mut()`
    /// order. Every other field is empty, so the result restores a model
    /// for inference but not a training run.
    pub fn from_model(model: &mut dyn Module) -> Self {
        let mut model_tensors: Vec<Tensor> =
            model.params_mut().iter().map(|p| p.value.clone()).collect();
        let n_params = model_tensors.len();
        model_tensors.extend(model.buffers_mut().iter().map(|b| (**b).clone()));
        TrainCheckpoint {
            seed: 0,
            epochs_done: 0,
            rng: Rng::seed_from(0).state(),
            model_tensors,
            n_params,
            adam_tensors: Vec::new(),
            adam_steps: Vec::new(),
            memory_tensors: Vec::new(),
            memory_initialized: false,
            weight_indices: Vec::new(),
            weight_values: Vec::new(),
            loss_curve: Vec::new(),
            hsic_curve: Vec::new(),
            best_val: None,
            test_at_best: None,
            health: HealthReport::default(),
        }
    }

    /// Copy the captured parameters and buffers into `model`. Counts and
    /// shapes are checked for every tensor before anything is copied, so
    /// a mismatched checkpoint leaves `model` untouched.
    ///
    /// # Errors
    /// Fails with [`OodGnnError::Checkpoint`] when the checkpoint was taken
    /// from a differently-structured model.
    pub fn restore_model(&self, model: &mut dyn Module) -> Result<(), OodGnnError> {
        let (params, buffers) = self
            .model_tensors
            .split_at_checked(self.n_params)
            .ok_or_else(|| OodGnnError::Checkpoint("more parameters than model tensors".into()))?;
        check_shapes(
            "parameter",
            model.params_mut().iter().map(|p| p.value.shape()),
            params,
        )?;
        check_shapes(
            "buffer",
            model.buffers_mut().iter().map(|b| b.shape()),
            buffers,
        )?;
        for (p, t) in model.params_mut().into_iter().zip(params) {
            p.value = t.clone();
        }
        for (b, t) in model.buffers_mut().into_iter().zip(buffers) {
            *b = t.clone();
        }
        Ok(())
    }

    /// Encode into a section-based snapshot.
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();

        let mut meta = Section::new("meta");
        meta.ints = vec![FORMAT, self.seed, self.epochs_done as u64];
        snap.push(meta);

        let mut rng = Section::new("rng");
        rng.ints = self.rng.s.to_vec();
        rng.ints.push(self.rng.spare_normal.is_some() as u64);
        rng.floats = vec![self.rng.spare_normal.unwrap_or(0.0)];
        snap.push(rng);

        let mut model = Section::new("model");
        model.tensors = self.model_tensors.clone();
        model.ints = vec![self.n_params as u64];
        snap.push(model);

        let mut adam = Section::new("adam");
        adam.tensors = self.adam_tensors.clone();
        adam.ints = self.adam_steps.clone();
        snap.push(adam);

        let mut memory = Section::new("memory");
        memory.tensors = self.memory_tensors.clone();
        memory.ints = vec![self.memory_initialized as u64];
        snap.push(memory);

        let mut weights = Section::new("weights");
        weights.ints = self.weight_indices.clone();
        weights.floats = self.weight_values.clone();
        snap.push(weights);

        let mut curves = Section::new("curves");
        curves.ints = vec![self.loss_curve.len() as u64];
        curves.floats = self.loss_curve.clone();
        curves.floats.extend_from_slice(&self.hsic_curve);
        snap.push(curves);

        let mut tracker = Section::new("tracker");
        tracker.ints = vec![self.best_val.is_some() as u64];
        tracker.floats = vec![
            self.best_val.unwrap_or(0.0),
            self.test_at_best.unwrap_or(0.0),
        ];
        snap.push(tracker);

        let mut health = Section::new("health");
        health.ints = vec![
            self.health.nan_batches as u64,
            self.health.skipped_steps as u64,
            self.health.inner_retries as u64,
            self.health.uniform_fallbacks as u64,
        ];
        snap.push(health);

        snap
    }

    /// Decode a snapshot written by [`TrainCheckpoint::to_snapshot`].
    ///
    /// # Errors
    /// Fails with [`OodGnnError::Checkpoint`] on a missing section, wrong
    /// format version or malformed payload.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, OodGnnError> {
        let section = |name: &str| -> Result<&Section, OodGnnError> {
            snap.section(name)
                .ok_or_else(|| OodGnnError::Checkpoint(format!("missing section `{name}`")))
        };
        let meta = section("meta")?;
        if meta.ints.len() != 3 {
            return Err(OodGnnError::Checkpoint("malformed meta section".into()));
        }
        if meta.ints[0] != FORMAT {
            return Err(OodGnnError::Checkpoint(format!(
                "unsupported checkpoint format {} (expected {FORMAT})",
                meta.ints[0]
            )));
        }
        let rng = section("rng")?;
        if rng.ints.len() != 5 || rng.floats.len() != 1 {
            return Err(OodGnnError::Checkpoint("malformed rng section".into()));
        }
        let rng_state = RngState {
            s: [rng.ints[0], rng.ints[1], rng.ints[2], rng.ints[3]],
            spare_normal: (rng.ints[4] != 0).then_some(rng.floats[0]),
        };
        let model = section("model")?;
        let n_params = *model
            .ints
            .first()
            .ok_or_else(|| OodGnnError::Checkpoint("malformed model section".into()))?
            as usize;
        if n_params > model.tensors.len() {
            return Err(OodGnnError::Checkpoint(format!(
                "model section claims {n_params} params but holds {} tensors",
                model.tensors.len()
            )));
        }
        let adam = section("adam")?;
        let memory = section("memory")?;
        let memory_initialized = memory.ints.first().copied().unwrap_or(0) != 0;
        let weights = section("weights")?;
        if weights.ints.len() != weights.floats.len() {
            return Err(OodGnnError::Checkpoint(
                "weights section index/value length mismatch".into(),
            ));
        }
        let curves = section("curves")?;
        let n_epochs = curves.ints.first().copied().unwrap_or(0) as usize;
        if n_epochs.checked_mul(2) != Some(curves.floats.len()) {
            return Err(OodGnnError::Checkpoint(
                "curves section length mismatch".into(),
            ));
        }
        let tracker = section("tracker")?;
        if tracker.floats.len() != 2 {
            return Err(OodGnnError::Checkpoint("malformed tracker section".into()));
        }
        let has_best = tracker.ints.first().copied().unwrap_or(0) != 0;
        let health_sec = section("health")?;
        if health_sec.ints.len() != 4 {
            return Err(OodGnnError::Checkpoint("malformed health section".into()));
        }
        Ok(TrainCheckpoint {
            seed: meta.ints[1],
            epochs_done: meta.ints[2] as usize,
            rng: rng_state,
            model_tensors: model.tensors.clone(),
            n_params,
            adam_tensors: adam.tensors.clone(),
            adam_steps: adam.ints.clone(),
            memory_tensors: memory.tensors.clone(),
            memory_initialized,
            weight_indices: weights.ints.clone(),
            weight_values: weights.floats.clone(),
            loss_curve: curves.floats[..n_epochs].to_vec(),
            hsic_curve: curves.floats[n_epochs..].to_vec(),
            best_val: has_best.then_some(tracker.floats[0]),
            test_at_best: has_best.then_some(tracker.floats[1]),
            health: HealthReport {
                nan_batches: health_sec.ints[0] as usize,
                skipped_steps: health_sec.ints[1] as usize,
                inner_retries: health_sec.ints[2] as usize,
                uniform_fallbacks: health_sec.ints[3] as usize,
            },
        })
    }

    /// Atomically write the checkpoint to `path` (write-tmp + rename),
    /// appending an FNV-1a content checksum over the serialized payload so
    /// [`TrainCheckpoint::load`] can reject truncated or bit-flipped files.
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), OodGnnError> {
        let mut snap = self.to_snapshot();
        let mut payload = Vec::new();
        snap.write_to(&mut payload)?;
        let mut integrity = Section::new(INTEGRITY_SECTION);
        integrity.ints = vec![fnv::hash_bytes(&payload)];
        snap.push(integrity);
        snap.save_atomic(path)?;
        Ok(())
    }

    /// Load a checkpoint saved with [`TrainCheckpoint::save`], verifying
    /// the content checksum.
    ///
    /// # Errors
    /// Fails on filesystem errors, a malformed/incompatible snapshot, a
    /// missing integrity section, or a checksum mismatch (corrupt or
    /// tampered file).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, OodGnnError> {
        let path = path.as_ref();
        let mut snap = Snapshot::load(path)?;
        let stored = match snap.sections.pop() {
            Some(s) if s.name == INTEGRITY_SECTION => s.ints.first().copied().ok_or_else(|| {
                OodGnnError::Checkpoint("integrity section holds no checksum".into())
            })?,
            _ => {
                return Err(OodGnnError::Checkpoint(format!(
                    "`{}` has no integrity section (not written by TrainCheckpoint::save)",
                    path.display()
                )))
            }
        };
        // The format is deterministic, so re-serializing the remaining
        // sections reproduces the bytes `save` hashed.
        let mut payload = Vec::new();
        snap.write_to(&mut payload)?;
        let actual = fnv::hash_bytes(&payload);
        if actual != stored {
            return Err(OodGnnError::Checkpoint(format!(
                "checksum mismatch in `{}`: stored {stored:#018x}, computed \
                 {actual:#018x} (file is corrupt or truncated)",
                path.display()
            )));
        }
        Self::from_snapshot(&snap)
    }
}

/// Check a model's tensor shapes against a checkpoint's, one `kind`
/// (parameter or buffer) at a time.
fn check_shapes<'a>(
    kind: &str,
    model: impl ExactSizeIterator<Item = &'a Shape>,
    ck: &[Tensor],
) -> Result<(), OodGnnError> {
    if model.len() != ck.len() {
        return Err(OodGnnError::Checkpoint(format!(
            "checkpoint has {} {kind}s, model has {}",
            ck.len(),
            model.len()
        )));
    }
    for (i, (m, t)) in model.zip(ck).enumerate() {
        if m != t.shape() {
            return Err(OodGnnError::Checkpoint(format!(
                "{kind} {i} shape mismatch: checkpoint {:?}, model {m:?}",
                t.shape()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::nn::{Linear, Mlp};
    use tensor::{Mode, Tape};

    fn sample_checkpoint() -> TrainCheckpoint {
        let mut rng = Rng::seed_from(3);
        for _ in 0..3 {
            rng.normal(); // leave a Box–Muller spare cached
        }
        TrainCheckpoint {
            seed: 42,
            epochs_done: 5,
            rng: rng.state(),
            model_tensors: vec![
                Tensor::randn([3, 2], &mut rng),
                Tensor::randn([2], &mut rng),
            ],
            n_params: 2,
            adam_tensors: vec![
                Tensor::randn([3, 2], &mut rng),
                Tensor::randn([3, 2], &mut rng),
                Tensor::randn([2], &mut rng),
                Tensor::randn([2], &mut rng),
            ],
            adam_steps: vec![17, 17],
            memory_tensors: vec![Tensor::randn([4, 2], &mut rng), Tensor::ones([4])],
            memory_initialized: true,
            weight_indices: vec![0, 3, 9],
            weight_values: vec![0.8, 1.1, 1.1],
            loss_curve: vec![1.0, 0.8, 0.6, 0.5, 0.45],
            hsic_curve: vec![0.2, 0.15, 0.12, 0.1, 0.09],
            best_val: Some(0.7),
            test_at_best: Some(0.65),
            health: HealthReport {
                nan_batches: 1,
                skipped_steps: 0,
                inner_retries: 2,
                uniform_fallbacks: 0,
            },
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let ck = sample_checkpoint();
        let back = TrainCheckpoint::from_snapshot(&ck.to_snapshot()).unwrap();
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.epochs_done, ck.epochs_done);
        assert_eq!(back.rng, ck.rng);
        assert_eq!(back.model_tensors, ck.model_tensors);
        assert_eq!(back.n_params, ck.n_params);
        assert_eq!(back.adam_tensors, ck.adam_tensors);
        assert_eq!(back.adam_steps, ck.adam_steps);
        assert_eq!(back.memory_tensors, ck.memory_tensors);
        assert_eq!(back.memory_initialized, ck.memory_initialized);
        assert_eq!(back.weight_indices, ck.weight_indices);
        assert_eq!(back.weight_values, ck.weight_values);
        assert_eq!(back.loss_curve, ck.loss_curve);
        assert_eq!(back.hsic_curve, ck.hsic_curve);
        assert_eq!(back.best_val, ck.best_val);
        assert_eq!(back.test_at_best, ck.test_at_best);
        assert_eq!(back.health, ck.health);
    }

    #[test]
    fn file_roundtrip_is_atomic_and_identical() {
        let dir = std::env::temp_dir().join(format!("ood_ckpt_{}", std::process::id()));
        let path = dir.join("train.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        // Second save replaces cleanly.
        ck.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.rng, ck.rng);
        assert_eq!(back.loss_curve, ck.loss_curve);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_section_is_a_checkpoint_error() {
        let ck = sample_checkpoint();
        let mut snap = ck.to_snapshot();
        snap.sections.retain(|s| s.name != "rng");
        let err = TrainCheckpoint::from_snapshot(&snap).unwrap_err();
        assert!(err.to_string().contains("rng"), "{err}");
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let ck = sample_checkpoint();
        let mut snap = ck.to_snapshot();
        for s in &mut snap.sections {
            if s.name == "meta" {
                s.ints[0] = 99;
            }
        }
        assert!(TrainCheckpoint::from_snapshot(&snap).is_err());
    }

    #[test]
    fn overflowing_curve_length_is_rejected() {
        // A checksum only proves the file is intact, not that it is sane:
        // a forged epoch count must not overflow `2 * n_epochs`.
        let mut snap = sample_checkpoint().to_snapshot();
        for s in &mut snap.sections {
            if s.name == "curves" {
                s.ints[0] = 1 << 63;
                s.floats.clear();
            }
        }
        assert!(TrainCheckpoint::from_snapshot(&snap).is_err());
    }

    #[test]
    fn bit_flipped_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ood_ckpt_flip_{}", std::process::id()));
        let path = dir.join("train.ckpt");
        sample_checkpoint().save(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Every single-bit flip: header, length fields, payload and the
        // stored checksum itself.
        for bit in 0..clean.len() * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            assert!(TrainCheckpoint::load(&path).is_err(), "flip {bit} loaded");
        }
        // A flip in the tensor payload is named as a checksum mismatch.
        let mut bytes = clean;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = TrainCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ood_ckpt_trunc_{}", std::process::id()));
        let path = dir.join("train.ckpt");
        sample_checkpoint().save(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for len in 0..clean.len() {
            std::fs::write(&path, &clean[..len]).unwrap();
            assert!(TrainCheckpoint::load(&path).is_err(), "{len} bytes loaded");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_less_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ood_ckpt_bare_{}", std::process::id()));
        let path = dir.join("train.ckpt");
        // A raw snapshot with no integrity section cannot be verified.
        sample_checkpoint()
            .to_snapshot()
            .save_atomic(&path)
            .unwrap();
        let err = TrainCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("no integrity section"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_roundtrip_is_transparent() {
        let dir = std::env::temp_dir().join(format!("ood_ckpt_sum_{}", std::process::id()));
        let path = dir.join("train.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back.model_tensors, ck.model_tensors);
        assert_eq!(back.rng, ck.rng);
        assert_eq!(back.health, ck.health);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn none_tracker_survives_roundtrip() {
        let mut ck = sample_checkpoint();
        ck.best_val = None;
        ck.test_at_best = None;
        let back = TrainCheckpoint::from_snapshot(&ck.to_snapshot()).unwrap();
        assert_eq!(back.best_val, None);
        assert_eq!(back.test_at_best, None);
    }

    fn param_values(m: &mut dyn Module) -> Vec<Tensor> {
        m.params_mut().iter().map(|p| p.value.clone()).collect()
    }

    #[test]
    fn restore_model_rejects_param_count_mismatch() {
        let mut rng = Rng::seed_from(4);
        let ck = TrainCheckpoint::from_model(&mut Linear::new(2, 2, &mut rng));
        let mut mlp = Mlp::new(&[2, 2, 2], false, &mut rng); // 4 params
        let before = param_values(&mut mlp);
        let err = ck.restore_model(&mut mlp).unwrap_err();
        assert!(
            err.to_string().contains("2 parameters, model has 4"),
            "{err}"
        );
        assert_eq!(param_values(&mut mlp), before);
    }

    #[test]
    fn restore_model_rejects_param_shape_mismatch() {
        let mut rng = Rng::seed_from(3);
        let ck = TrainCheckpoint::from_model(&mut Linear::new(2, 2, &mut rng));
        let mut big = Linear::new(4, 4, &mut rng);
        let err = ck.restore_model(&mut big).unwrap_err();
        assert!(
            err.to_string().contains("parameter 0 shape mismatch"),
            "{err}"
        );
    }

    #[test]
    fn restore_model_rejects_buffer_shape_mismatch() {
        let mut rng = Rng::seed_from(5);
        let mut ck = TrainCheckpoint::from_model(&mut Mlp::new(&[3, 4, 2], true, &mut rng));
        ck.model_tensors[ck.n_params] = Tensor::zeros([5]);
        let mut dst = Mlp::new(&[3, 4, 2], true, &mut rng);
        let before = param_values(&mut dst);
        let err = ck.restore_model(&mut dst).unwrap_err();
        assert!(err.to_string().contains("buffer 0 shape mismatch"), "{err}");
        // Nothing is copied until every shape has been checked.
        assert_eq!(param_values(&mut dst), before);
    }

    #[test]
    fn restore_model_brings_back_batchnorm_running_stats() {
        let mut rng = Rng::seed_from(7);
        let mut src = Mlp::new(&[3, 4, 2], true, &mut rng);
        // Train-mode passes to move the BN running statistics off default.
        for _ in 0..10 {
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::randn([16, 3], &mut rng).add_scalar(2.0));
            let _ = src.forward(&mut tape, x, Mode::Train);
            for p in src.params_mut() {
                p.clear_binding();
            }
        }
        assert_eq!(src.buffers_mut().len(), 2);
        let mut dst = Mlp::new(&[3, 4, 2], true, &mut rng);
        TrainCheckpoint::from_model(&mut src)
            .restore_model(&mut dst)
            .unwrap();
        let probe = Tensor::randn([4, 3], &mut rng);
        let eval = |m: &mut Mlp| {
            let mut tape = Tape::new();
            let x = tape.constant(probe.clone());
            let y = m.forward(&mut tape, x, Mode::Eval);
            tape.value(y).clone()
        };
        assert_eq!(eval(&mut src), eval(&mut dst));
    }
}
