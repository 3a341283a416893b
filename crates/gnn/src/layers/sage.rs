//! GraphSAGE layer (Hamilton et al. — reference [31] of the paper):
//! mean-aggregate neighbors, concatenate with the node's own features,
//! and project.

use super::Conv;
use graph::GraphBatch;
use tensor::nn::{Linear, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape};

/// A GraphSAGE-mean layer: `h' = ReLU(W · [h ‖ mean_{j∈N(i)} h_j])` with
/// L2 normalization of the output rows.
pub struct SageConv {
    linear: Linear,
    out_dim: usize,
}

impl SageConv {
    /// A SAGE layer from `in_dim` to `out_dim` features with row
    /// normalization (as in the original paper).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        SageConv {
            linear: Linear::new(2 * in_dim, out_dim, rng),
            out_dim,
        }
    }
}

impl Conv for SageConv {
    fn forward(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        _mode: Mode,
        _rng: &mut Rng,
    ) -> NodeId {
        let n = batch.num_nodes();
        let mean = tape.neighbor_mean(x, batch.edge_src.clone(), batch.edge_dst.clone(), n);
        let cat = tape.concat_cols(&[x, mean]);
        let h = self.linear.forward(tape, cat);
        let h = tape.relu(h);
        // h / (‖h‖₂ + ε) per row.
        let sq = tape.square(h);
        let row_norms = tape.sum_axis(sq, tensor::ops::Axis::Cols);
        let row_norms = tape.add_scalar(row_norms, 1e-12);
        let row_norms = tape.sqrt(row_norms);
        let row_norms = tape.reshape(row_norms, [n, 1]);
        tape.div(h, row_norms)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Module for SageConv {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.linear.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};
    use tensor::check::check_gradients;
    use tensor::Tensor;

    fn toy_batch() -> GraphBatch {
        let mut rng = Rng::seed_from(5);
        let mut g = Graph::new(3, Tensor::randn([3, 4], &mut rng), Label::Class(0));
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn rows_are_unit_norm() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(1);
        let mut conv = SageConv::new(4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Eval, &mut rng);
        let v = tape.value(h);
        for i in 0..3 {
            let norm: f32 = v.row(i).iter().map(|a| a * a).sum::<f32>().sqrt();
            // ReLU can zero a whole row; otherwise rows are unit length.
            assert!(norm < 1.0 + 1e-4, "row {i} norm {norm}");
        }
    }

    #[test]
    fn grads_reach_params_and_match_finite_differences() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(2);
        let mut conv = SageConv::new(4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Train, &mut rng);
        assert_eq!(tape.shape(h).dims(), &[3, 6]);
        let s = tape.sum(h);
        let g = tape.backward(s);
        for p in conv.params_mut() {
            assert!(g.get(p.bound_node().unwrap()).is_some());
        }

        // The input gradient through aggregation, ReLU and the row norm.
        let conv = std::cell::RefCell::new(conv);
        let res = check_gradients(std::slice::from_ref(&batch.features), 1e-2, |t, ids| {
            let mut conv = conv.borrow_mut();
            let h = conv.forward(t, ids[0], &batch, Mode::Eval, &mut Rng::seed_from(0));
            t.sum(h)
        });
        assert!(res.within(1e-2), "{res:?}");
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed_from(3);
        let mut conv = SageConv::new(4, 6, &mut rng);
        assert_eq!(conv.num_params(), 8 * 6 + 6);
    }
}
