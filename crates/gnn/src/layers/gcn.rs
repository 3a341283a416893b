//! Graph convolutional network layer (Kipf & Welling).

use super::Conv;
use graph::GraphBatch;
use tensor::nn::{BatchNorm1d, Linear, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape};

/// A GCN layer with symmetric degree normalization and added self-loops:
/// `h' = ReLU(BN(Â h W + b))` where `Â = D̃^{-1/2}(A + I)D̃^{-1/2}`.
pub struct GcnConv {
    linear: Linear,
    /// BatchNorm with a ReLU epilogue; `None` for a plain layer.
    norm: Option<BatchNorm1d>,
}

impl GcnConv {
    /// A GCN layer with BatchNorm and ReLU.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        GcnConv {
            linear: Linear::new(in_dim, out_dim, rng),
            norm: Some(BatchNorm1d::new(out_dim)),
        }
    }

    /// A plain linear GCN layer (no norm, no activation); used as a score
    /// network by SAGPool.
    pub fn plain(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        GcnConv {
            linear: Linear::new(in_dim, out_dim, rng),
            norm: None,
        }
    }

    /// The normalized neighborhood aggregation `Â x` as a tape node. The
    /// degree-derived norm tensors come from the batch's
    /// [`graph::NormCache`], so the O(n+E) degree sweep runs once per
    /// batch, not once per layer.
    pub fn aggregate(tape: &mut Tape, x: NodeId, batch: &GraphBatch) -> NodeId {
        let n = batch.num_nodes();
        let msgs = tape.index_select(x, batch.edge_src.clone());
        let enorm = tape.constant(batch.gcn_edge_norm_tensor());
        let weighted = tape.mul(msgs, enorm);
        let agg = tape.scatter_add_rows(weighted, batch.edge_dst.clone(), n);
        let snorm = tape.constant(batch.gcn_self_norm_tensor());
        let self_term = tape.mul(x, snorm);
        tape.add(agg, self_term)
    }
}

impl Conv for GcnConv {
    fn forward(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        mode: Mode,
        _rng: &mut Rng,
    ) -> NodeId {
        let agg = Self::aggregate(tape, x, batch);
        let h = self.linear.forward(tape, agg);
        match &mut self.norm {
            Some(bn) => bn.forward_relu(tape, h, mode),
            None => h,
        }
    }

    fn out_dim(&self) -> usize {
        self.linear.out_dim()
    }
}

impl Module for GcnConv {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.linear.params_mut();
        if let Some(bn) = &mut self.norm {
            p.extend(bn.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut tensor::Tensor> {
        self.norm
            .as_mut()
            .map(|bn| bn.buffers_mut())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};
    use tensor::Tensor;

    fn toy_batch() -> GraphBatch {
        let mut g = Graph::new(
            3,
            Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], [3, 2]),
            Label::Class(0),
        );
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn aggregation_matches_hand_computation() {
        let batch = toy_batch();
        let mut tape = Tape::new();
        let x = tape.leaf(batch.features.clone());
        let agg = GcnConv::aggregate(&mut tape, x, &batch);
        let v = tape.value(agg);
        // Node 0: self 1/2*x0 + from node1 1/sqrt(6)*x1
        let e = 1.0 / 6f32.sqrt();
        assert!((v.at(0, 0) - (0.5 * 1.0 + e * 0.0)).abs() < 1e-5);
        assert!((v.at(0, 1) - (0.5 * 0.0 + e * 1.0)).abs() < 1e-5);
        // Node 1: self 1/3 x1 + e*(x0 + x2)
        assert!((v.at(1, 0) - (e * (1.0 + 1.0))).abs() < 1e-5);
        assert!((v.at(1, 1) - (1.0 / 3.0 + e * (0.0 + 1.0))).abs() < 1e-5);
    }

    #[test]
    fn forward_shape_and_grads() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(1);
        let mut conv = GcnConv::new(2, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Train, &mut rng);
        assert_eq!(tape.shape(h).dims(), &[3, 4]);
        let s = tape.sum(h);
        let g = tape.backward(s);
        for p in conv.params_mut() {
            assert!(g.get(p.bound_node().unwrap()).is_some());
        }
    }

    #[test]
    fn plain_variant_has_no_activation() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(2);
        let mut conv = GcnConv::plain(2, 1, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Eval, &mut rng);
        // Plain output can be negative (no ReLU); verify at least possible.
        assert_eq!(tape.shape(h).dims(), &[3, 1]);
    }
}
