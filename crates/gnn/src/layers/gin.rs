//! Graph isomorphism network layer (Xu et al.) — the paper's graph encoder
//! backbone ("We use GIN as the graph encoder Φ since it is shown to be one
//! of the most expressive GNNs").

use super::Conv;
use graph::GraphBatch;
use tensor::nn::{Mlp, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape, Tensor};

/// A GIN layer: `h' = MLP((1 + ε) h + Σ_{j∈N(i)} h_j)` with a learnable ε
/// and a `Linear → BN → ReLU → Linear` update MLP, followed by ReLU.
pub struct GinConv {
    mlp: Mlp,
    eps: Param,
}

impl GinConv {
    /// Standard GIN layer with hidden width equal to the output width.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        GinConv {
            mlp: Mlp::new(&[in_dim, out_dim, out_dim], true, rng),
            eps: Param::new(Tensor::from_vec(vec![0.0], [1])),
        }
    }

    /// Current ε value (for inspection).
    pub fn eps(&self) -> f32 {
        self.eps.value.item()
    }
}

impl Conv for GinConv {
    fn forward(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        mode: Mode,
        _rng: &mut Rng,
    ) -> NodeId {
        let n = batch.num_nodes();
        let agg = tape.neighbor_sum(x, batch.edge_src.clone(), batch.edge_dst.clone(), n);
        let eps = self.eps.bind(tape);
        let one_plus_eps = tape.add_scalar(eps, 1.0);
        let scaled = tape.mul(x, one_plus_eps);
        let combined = tape.add(scaled, agg);
        let h = self.mlp.forward(tape, combined, mode);
        tape.relu(h)
    }

    fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }
}

impl Module for GinConv {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.mlp.params_mut();
        p.push(&mut self.eps);
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.mlp.buffers_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};

    fn toy_batch() -> GraphBatch {
        let mut g = Graph::new(
            3,
            Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [3, 2]),
            Label::Class(0),
        );
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn sum_aggregation_with_eps_zero() {
        // With a fresh layer (ε = 0) the pre-MLP combination is x + Σ_N x.
        let batch = toy_batch();
        let mut rng = Rng::seed_from(1);
        let conv = GinConv::new(2, 4, &mut rng);
        assert_eq!(conv.eps(), 0.0);
        let mut tape = Tape::new();
        let x = tape.leaf(batch.features.clone());
        // Recreate the combination manually to validate the message sums.
        let agg = tape.neighbor_sum(x, batch.edge_src.clone(), batch.edge_dst.clone(), 3);
        let v = tape.value(agg);
        // Node 1 receives x0 + x2 = (1+5, 2+6).
        assert_eq!(v.row(1), &[6.0, 8.0]);
        // Node 0 receives only x1.
        assert_eq!(v.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn forward_shape_and_eps_gradient() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(2);
        let mut conv = GinConv::new(2, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Train, &mut rng);
        assert_eq!(tape.shape(h).dims(), &[3, 4]);
        let s = tape.sum(h);
        let g = tape.backward(s);
        for p in conv.params_mut() {
            assert!(
                g.get(p.bound_node().unwrap()).is_some(),
                "param {}",
                p.key()
            );
        }
    }

    #[test]
    fn param_count_matches_structure() {
        let mut rng = Rng::seed_from(3);
        let mut conv = GinConv::new(8, 16, &mut rng);
        // MLP: (8*16+16) + BN(32) + (16*16+16), plus eps(1).
        let expected = (8 * 16 + 16) + 32 + (16 * 16 + 16) + 1;
        assert_eq!(conv.num_params(), expected);
    }
}
