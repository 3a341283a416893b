//! Graph encoders: the mapping Φ : G → Z from batched graphs to
//! `[num_graphs, d]` representations (the paper's §3.1).

pub use crate::pool::Readout;

use crate::layers::{Conv, FactorConv, GatConv, GcnConv, GinConv, PnaConv, SageConv, VirtualNode};
use crate::pool::{SagPool, TopKPool};
use graph::GraphBatch;
use tensor::nn::{Dropout, Linear, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape};

/// Anything that encodes a batch of graphs into a representation matrix.
pub trait GraphEncoder: Module {
    /// Encode a batch into `[num_graphs, out_dim]`.
    fn encode(&mut self, tape: &mut Tape, batch: &GraphBatch, mode: Mode, rng: &mut Rng) -> NodeId;

    /// Representation dimension.
    fn out_dim(&self) -> usize;
}

/// Which convolution a [`StackedEncoder`] stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvKind {
    /// GCN layers.
    Gcn,
    /// GIN layers (the paper's backbone).
    Gin,
    /// PNA layers.
    Pna,
    /// FactorGCN layers.
    Factor {
        /// Number of disentanglement factors.
        factors: usize,
    },
    /// GAT layers with the given number of attention heads.
    Gat {
        /// Number of attention heads.
        heads: usize,
    },
    /// GraphSAGE-mean layers.
    Sage,
}

fn build_conv(kind: ConvKind, in_dim: usize, out_dim: usize, rng: &mut Rng) -> Box<dyn Conv> {
    match kind {
        ConvKind::Gcn => Box::new(GcnConv::new(in_dim, out_dim, rng)),
        ConvKind::Gin => Box::new(GinConv::new(in_dim, out_dim, rng)),
        ConvKind::Pna => Box::new(PnaConv::new(in_dim, out_dim, rng)),
        ConvKind::Factor { factors } => Box::new(FactorConv::new(in_dim, out_dim, factors, rng)),
        ConvKind::Gat { heads } => Box::new(GatConv::new(in_dim, out_dim, heads, rng)),
        ConvKind::Sage => Box::new(SageConv::new(in_dim, out_dim, rng)),
    }
}

/// A standard flat message-passing encoder: input projection → `L` conv
/// layers (optionally interleaved with a virtual node) → dropout → global
/// readout.
pub struct StackedEncoder {
    input_proj: Linear,
    convs: Vec<Box<dyn Conv>>,
    virtual_node: Option<VirtualNode>,
    dropout: Dropout,
    readout: Readout,
    hidden: usize,
}

impl StackedEncoder {
    /// Build an encoder.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's hyper-parameter list
    pub fn new(
        kind: ConvKind,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        virtual_node: bool,
        readout: Readout,
        dropout_p: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(layers >= 1, "need at least one conv layer");
        let convs = (0..layers)
            .map(|_| build_conv(kind, hidden, hidden, rng))
            .collect();
        StackedEncoder {
            input_proj: Linear::new(in_dim, hidden, rng),
            convs,
            virtual_node: virtual_node.then(|| VirtualNode::new(hidden, rng)),
            dropout: Dropout::new(dropout_p),
            readout,
            hidden,
        }
    }
}

impl GraphEncoder for StackedEncoder {
    fn encode(&mut self, tape: &mut Tape, batch: &GraphBatch, mode: Mode, rng: &mut Rng) -> NodeId {
        let feats = tape.constant(batch.features.clone());
        let mut x = self.input_proj.forward(tape, feats);
        let mut vn_state = self
            .virtual_node
            .as_ref()
            .map(|vn| vn.init(tape, batch.num_graphs));
        let n_layers = self.convs.len();
        for (i, conv) in self.convs.iter_mut().enumerate() {
            if let (Some(vn), Some(state)) = (&self.virtual_node, vn_state) {
                x = vn.broadcast(tape, x, state, batch);
            }
            x = conv.forward(tape, x, batch, mode, rng);
            x = self.dropout.forward(tape, x, mode, rng);
            if i + 1 < n_layers {
                if let (Some(vn), Some(state)) = (&mut self.virtual_node, vn_state) {
                    vn_state = Some(vn.update(tape, x, state, batch, mode));
                }
            }
        }
        self.readout.apply_batch(tape, x, batch)
    }

    fn out_dim(&self) -> usize {
        self.hidden * self.readout.multiplier()
    }
}

impl Module for StackedEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.input_proj.params_mut();
        for c in &mut self.convs {
            p.extend(c.params_mut());
        }
        if let Some(vn) = &mut self.virtual_node {
            p.extend(vn.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut tensor::Tensor> {
        let mut b = Vec::new();
        for c in &mut self.convs {
            b.extend(c.buffers_mut());
        }
        if let Some(vn) = &mut self.virtual_node {
            b.extend(vn.buffers_mut());
        }
        b
    }
}

/// Which hierarchical pooling a [`HierarchicalEncoder`] uses per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// TopKPool (learned projection scores).
    TopK,
    /// SAGPool (GNN attention scores).
    Sag,
}

#[allow(clippy::large_enum_variant)] // few instances per model; boxing buys nothing
enum PoolLayer {
    TopK(TopKPool),
    Sag(SagPool),
}

impl PoolLayer {
    fn forward(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        mode: Mode,
        rng: &mut Rng,
    ) -> (NodeId, GraphBatch) {
        match self {
            PoolLayer::TopK(p) => p.forward(tape, x, batch),
            PoolLayer::Sag(p) => p.forward(tape, x, batch, mode, rng),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            PoolLayer::TopK(p) => p.params_mut(),
            PoolLayer::Sag(p) => p.params_mut(),
        }
    }
}

/// A hierarchical encoder (TopKPool/SAGPool baselines): levels of
/// `GCN conv → pool`, with a mean‖max readout at every level summed into
/// the final graph representation (the standard Graph U-Net / SAGPool
/// classification architecture).
pub struct HierarchicalEncoder {
    input_proj: Linear,
    levels: Vec<(GcnConv, PoolLayer)>,
    hidden: usize,
}

impl HierarchicalEncoder {
    /// Build with `levels` conv+pool stages keeping `ratio` nodes each.
    pub fn new(
        kind: PoolKind,
        in_dim: usize,
        hidden: usize,
        levels: usize,
        ratio: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(levels >= 1);
        let levels = (0..levels)
            .map(|_| {
                let conv = GcnConv::new(hidden, hidden, rng);
                let pool = match kind {
                    PoolKind::TopK => PoolLayer::TopK(TopKPool::new(hidden, ratio, rng)),
                    PoolKind::Sag => PoolLayer::Sag(SagPool::new(hidden, ratio, rng)),
                };
                (conv, pool)
            })
            .collect();
        HierarchicalEncoder {
            input_proj: Linear::new(in_dim, hidden, rng),
            levels,
            hidden,
        }
    }
}

impl GraphEncoder for HierarchicalEncoder {
    fn encode(&mut self, tape: &mut Tape, batch: &GraphBatch, mode: Mode, rng: &mut Rng) -> NodeId {
        let feats = tape.constant(batch.features.clone());
        let mut x = self.input_proj.forward(tape, feats);
        let mut cur = batch.clone();
        let mut acc: Option<NodeId> = None;
        for (conv, pool) in &mut self.levels {
            let h = conv.forward(tape, x, &cur, mode, rng);
            let (pooled, sub) = pool.forward(tape, h, &cur, mode, rng);
            let level_read =
                Readout::MeanMax.apply(tape, pooled, sub.batch.clone(), sub.num_graphs);
            acc = Some(match acc {
                Some(a) => tape.add(a, level_read),
                None => level_read,
            });
            x = pooled;
            cur = sub;
        }
        acc.expect("at least one level")
    }

    fn out_dim(&self) -> usize {
        2 * self.hidden
    }
}

impl Module for HierarchicalEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.input_proj.params_mut();
        for (conv, pool) in &mut self.levels {
            p.extend(conv.params_mut());
            p.extend(pool.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut tensor::Tensor> {
        let mut b = Vec::new();
        for (conv, _) in &mut self.levels {
            b.extend(conv.buffers_mut());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};
    use tensor::Tensor;

    fn batch() -> GraphBatch {
        let mk = |n: usize, seed: u64| {
            let mut rng = Rng::seed_from(seed);
            let mut g = Graph::new(n, Tensor::randn([n, 4], &mut rng), Label::Class(0));
            for i in 1..n {
                g.add_undirected_edge(i - 1, i);
            }
            g.add_undirected_edge(0, n - 1);
            g
        };
        let a = mk(6, 1);
        let b = mk(4, 2);
        GraphBatch::from_graphs(&[&a, &b])
    }

    #[test]
    fn stacked_encoder_shapes_all_kinds() {
        let batch = batch();
        let mut rng = Rng::seed_from(3);
        for kind in [
            ConvKind::Gcn,
            ConvKind::Gin,
            ConvKind::Pna,
            ConvKind::Factor { factors: 4 },
            ConvKind::Gat { heads: 2 },
            ConvKind::Sage,
        ] {
            let mut enc = StackedEncoder::new(kind, 4, 8, 2, false, Readout::Mean, 0.0, &mut rng);
            let mut tape = Tape::new();
            let z = enc.encode(&mut tape, &batch, Mode::Eval, &mut rng);
            assert_eq!(tape.shape(z).dims(), &[2, 8], "{kind:?}");
        }
    }

    #[test]
    fn virtual_node_variant_runs_and_differs() {
        let batch = batch();
        let mut rng = Rng::seed_from(4);
        let mut enc =
            StackedEncoder::new(ConvKind::Gin, 4, 8, 3, true, Readout::Sum, 0.0, &mut rng);
        let mut tape = Tape::new();
        let z = enc.encode(&mut tape, &batch, Mode::Eval, &mut rng);
        assert_eq!(tape.shape(z).dims(), &[2, 8]);
        // Virtual node adds parameters over the plain variant.
        let mut plain =
            StackedEncoder::new(ConvKind::Gin, 4, 8, 3, false, Readout::Sum, 0.0, &mut rng);
        assert!(enc.num_params() > plain.num_params());
    }

    #[test]
    fn hierarchical_encoder_both_kinds() {
        let batch = batch();
        let mut rng = Rng::seed_from(5);
        for kind in [PoolKind::TopK, PoolKind::Sag] {
            let mut enc = HierarchicalEncoder::new(kind, 4, 8, 2, 0.5, &mut rng);
            let mut tape = Tape::new();
            let z = enc.encode(&mut tape, &batch, Mode::Eval, &mut rng);
            assert_eq!(tape.shape(z).dims(), &[2, 16], "{kind:?}");
        }
    }

    #[test]
    fn all_params_get_gradients() {
        let batch = batch();
        let mut rng = Rng::seed_from(6);
        let mut enc =
            StackedEncoder::new(ConvKind::Gin, 4, 8, 2, true, Readout::Mean, 0.0, &mut rng);
        let mut tape = Tape::new();
        let z = enc.encode(&mut tape, &batch, Mode::Train, &mut rng);
        let s = tape.sum(z);
        let g = tape.backward(s);
        let missing = enc
            .params_mut()
            .into_iter()
            .filter(|p| g.get(p.bound_node().unwrap()).is_none())
            .count();
        assert_eq!(missing, 0);
    }

    #[test]
    fn encode_is_deterministic_in_eval() {
        let batch = batch();
        let mut rng = Rng::seed_from(7);
        let mut enc =
            StackedEncoder::new(ConvKind::Gcn, 4, 8, 2, false, Readout::Mean, 0.5, &mut rng);
        let run = |enc: &mut StackedEncoder, rng: &mut Rng| {
            let mut tape = Tape::new();
            let z = enc.encode(&mut tape, &batch, Mode::Eval, rng);
            tape.value(z).clone()
        };
        let a = run(&mut enc, &mut rng);
        let b = run(&mut enc, &mut rng);
        assert_eq!(a, b, "eval mode must not depend on the rng");
    }
}
