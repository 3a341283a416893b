//! The versioned model registry: named entries rebuilt from checksummed
//! [`TrainCheckpoint`] files, whether written by `train_run`'s periodic
//! checkpointing or by the `oodgnn` CLI's `--save`.
//!
//! A checkpoint stores raw tensors only (no architecture metadata), so
//! every entry pairs a [`ModelSpec`] — the constructor arguments of the
//! backbone the trainer used — with the restored [`GnnModel`]. Loading
//! goes through [`TrainCheckpoint::restore_model`], the same shape-checked
//! restore as the trainer's resume path: a checkpoint can only restore
//! into an identically-structured model. A failed reload
//! leaves the previous entry untouched (the registry swaps entries only
//! after a complete, validated restore), which is what makes hot reload
//! safe under corrupt checkpoint files.
//!
//! Models hold a `Box<dyn GraphEncoder>` (not `Send`), so the registry
//! lives entirely on the executor thread; admission threads see only the
//! [`crate::ModelMeta`] projection.

use gnn::encoder::{ConvKind, StackedEncoder};
use gnn::{GnnModel, Readout};
use graph::TaskType;
use oodgnn_core::TrainCheckpoint;
use std::collections::HashMap;
use std::path::Path;
use tensor::rng::Rng;

/// Everything needed to rebuild the architecture a checkpoint was trained
/// with (mirrors `OodGnn::new`'s encoder construction).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Backbone name: `gcn`, `gin`, `pna`, `sage`, `gat`, `factor`.
    pub backbone: String,
    /// Node-feature input dimension.
    pub in_dim: usize,
    /// Hidden / representation dimension.
    pub hidden: usize,
    /// Number of message-passing layers.
    pub layers: usize,
    /// Attention heads (GAT only).
    pub gat_heads: usize,
    /// Disentanglement factors (FactorGCN only).
    pub factors: usize,
    /// Global readout.
    pub readout: Readout,
    /// Prediction task (fixes the head's output dimension).
    pub task: TaskType,
}

impl ModelSpec {
    /// A spec with the trainer's defaults for the given shape and task.
    pub fn new(
        backbone: &str,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        task: TaskType,
    ) -> Self {
        ModelSpec {
            backbone: backbone.to_string(),
            in_dim,
            hidden,
            layers,
            gat_heads: 4,
            factors: 4,
            readout: Readout::Mean,
            task,
        }
    }

    fn conv_kind(&self) -> Result<ConvKind, String> {
        Ok(match self.backbone.as_str() {
            "gcn" => ConvKind::Gcn,
            "gin" => ConvKind::Gin,
            "pna" => ConvKind::Pna,
            "sage" => ConvKind::Sage,
            "gat" => ConvKind::Gat {
                heads: self.gat_heads,
            },
            "factor" => ConvKind::Factor {
                factors: self.factors,
            },
            other => return Err(format!("unknown backbone `{other}`")),
        })
    }

    /// Build a freshly-initialized model of this architecture. The RNG
    /// seed is irrelevant for serving: every parameter and buffer is
    /// overwritten by the checkpoint restore.
    pub fn build(&self) -> Result<GnnModel, String> {
        if self.in_dim == 0 || self.hidden == 0 || self.layers == 0 {
            return Err("in_dim, hidden and layers must be positive".into());
        }
        let mut rng = Rng::seed_from(0);
        let encoder = Box::new(StackedEncoder::new(
            self.conv_kind()?,
            self.in_dim,
            self.hidden,
            self.layers,
            false,
            self.readout,
            0.0,
            &mut rng,
        ));
        Ok(GnnModel::from_encoder(encoder, self.task, &mut rng))
    }
}

/// Restore a checkpoint's model tensors into a freshly built model via
/// [`TrainCheckpoint::restore_model`]. Optimizer/memory/weight state in the
/// checkpoint is ignored — serving only needs the forward path. Kept as a
/// `String`-error adapter because the `oodbench` harness imports it.
pub fn restore_into(model: &mut GnnModel, ck: &TrainCheckpoint) -> Result<(), String> {
    ck.restore_model(model).map_err(|e| e.to_string())
}

/// One loaded entry: the spec, the restored model and a version counter
/// bumped on every successful reload.
pub struct ModelEntry {
    /// Architecture the entry was built with.
    pub spec: ModelSpec,
    /// The restored model (eval-mode forward only).
    pub model: GnnModel,
    /// 1 for the initial load, +1 per successful reload.
    pub version: u64,
}

/// The executor-thread-owned registry of named models.
#[derive(Default)]
pub struct Registry {
    entries: HashMap<String, ModelEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Load (or replace) `name` from a checksum-verified checkpoint file.
    /// On any failure the previous entry, if one exists, is left serving.
    pub fn load(
        &mut self,
        name: &str,
        spec: &ModelSpec,
        path: impl AsRef<Path>,
    ) -> Result<u64, String> {
        let mut model = spec.build()?;
        TrainCheckpoint::load(path)
            .and_then(|ck| ck.restore_model(&mut model))
            .map_err(|e| e.to_string())?;
        let version = self.entries.get(name).map_or(1, |e| e.version + 1);
        self.entries.insert(
            name.to_string(),
            ModelEntry {
                spec: spec.clone(),
                model,
                version,
            },
        );
        Ok(version)
    }

    /// Reload `name` from a new checkpoint using its existing spec.
    pub fn reload(&mut self, name: &str, path: impl AsRef<Path>) -> Result<u64, String> {
        let spec = self
            .entries
            .get(name)
            .map(|e| e.spec.clone())
            .ok_or_else(|| format!("unknown model `{name}`"))?;
        self.load(name, &spec, path)
    }

    /// Mutable access to a loaded entry.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ModelEntry> {
        self.entries.get_mut(name)
    }

    /// Number of loaded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no model is loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::nn::Module;

    fn spec() -> ModelSpec {
        ModelSpec::new("gin", 4, 8, 2, TaskType::MultiClass { classes: 3 })
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("serve_reg_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn load_restores_exact_tensors() {
        let dir = scratch("load");
        let path = dir.join("m.oods");
        let mut src = spec().build().unwrap();
        TrainCheckpoint::from_model(&mut src).save(&path).unwrap();
        let mut reg = Registry::new();
        let v = reg.load("default", &spec(), &path).unwrap();
        assert_eq!(v, 1);
        let entry = reg.get_mut("default").unwrap();
        for (a, b) in entry.model.params_mut().iter().zip(src.params_mut().iter()) {
            assert_eq!(a.value, b.value);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_architecture_is_rejected_and_entry_survives() {
        let dir = scratch("mismatch");
        let good = dir.join("good.oods");
        let bad = dir.join("bad.oods");
        TrainCheckpoint::from_model(&mut spec().build().unwrap())
            .save(&good)
            .unwrap();
        let wide = ModelSpec::new("gin", 4, 16, 2, TaskType::MultiClass { classes: 3 });
        TrainCheckpoint::from_model(&mut wide.build().unwrap())
            .save(&bad)
            .unwrap();
        let mut reg = Registry::new();
        reg.load("default", &spec(), &good).unwrap();
        let err = reg.reload("default", &bad).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        // The previous entry still serves at its original version.
        assert_eq!(reg.get_mut("default").unwrap().version, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_bumps_version() {
        let dir = scratch("ver");
        let path = dir.join("m.oods");
        TrainCheckpoint::from_model(&mut spec().build().unwrap())
            .save(&path)
            .unwrap();
        let mut reg = Registry::new();
        assert_eq!(reg.load("default", &spec(), &path).unwrap(), 1);
        assert_eq!(reg.reload("default", &path).unwrap(), 2);
        assert_eq!(reg.reload("default", &path).unwrap(), 3);
        assert!(reg.reload("other", &path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_backbone_is_a_config_error() {
        let mut s = spec();
        s.backbone = "transformer".into();
        assert!(s.build().is_err());
    }
}
