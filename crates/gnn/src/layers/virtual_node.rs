//! Virtual-node augmentation (Hu et al., OGB): a latent node connected to
//! every node of its graph, giving the GCN-virtual / GIN-virtual baselines.

use graph::GraphBatch;
use tensor::nn::{Mlp, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape, Tensor};

/// Per-graph virtual-node state threaded between message-passing layers.
///
/// Usage per forward pass: call [`VirtualNode::init`] once, then before
/// each conv layer call [`VirtualNode::broadcast`] to add the virtual
/// embedding to node features, and after the layer call
/// [`VirtualNode::update`] to absorb the pooled node features back.
pub struct VirtualNode {
    update_mlp: Mlp,
    dim: usize,
}

impl VirtualNode {
    /// Virtual node over `dim`-dimensional embeddings.
    pub fn new(dim: usize, rng: &mut Rng) -> Self {
        VirtualNode {
            update_mlp: Mlp::new(&[dim, dim, dim], true, rng),
            dim,
        }
    }

    /// Initial (zero) virtual embeddings: `[num_graphs, dim]`.
    pub fn init(&self, tape: &mut Tape, num_graphs: usize) -> NodeId {
        tape.constant(Tensor::zeros([num_graphs, self.dim]))
    }

    /// Add each graph's virtual embedding to its nodes: `x + vn[batch]`.
    pub fn broadcast(&self, tape: &mut Tape, x: NodeId, vn: NodeId, batch: &GraphBatch) -> NodeId {
        let expanded = tape.index_select(vn, batch.batch.clone());
        tape.add(x, expanded)
    }

    /// Update the virtual embeddings from pooled node features:
    /// `vn' = vn + MLP(vn + Σ_G x)`.
    pub fn update(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        vn: NodeId,
        batch: &GraphBatch,
        mode: Mode,
    ) -> NodeId {
        let pooled = tape.segment_sum(x, batch.batch.clone(), batch.num_graphs);
        let combined = tape.add(vn, pooled);
        let transformed = self.update_mlp.forward_relu(tape, combined, mode);
        tape.add(vn, transformed)
    }
}

impl Module for VirtualNode {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.update_mlp.params_mut()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.update_mlp.buffers_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};

    fn two_graph_batch() -> GraphBatch {
        let mk = |v: f32| {
            let mut g = Graph::new(2, Tensor::full([2, 3], v), Label::Class(0));
            g.add_undirected_edge(0, 1);
            g
        };
        let a = mk(1.0);
        let b = mk(2.0);
        GraphBatch::from_graphs(&[&a, &b])
    }

    #[test]
    fn broadcast_respects_graph_boundaries() {
        let batch = two_graph_batch();
        let mut rng = Rng::seed_from(1);
        let vn_mod = VirtualNode::new(3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let vn = tape.constant(Tensor::from_vec(vec![10., 10., 10., 20., 20., 20.], [2, 3]));
        let out = vn_mod.broadcast(&mut tape, x, vn, &batch);
        let v = tape.value(out);
        assert_eq!(v.row(0), &[11., 11., 11.]);
        assert_eq!(v.row(2), &[22., 22., 22.]);
    }

    #[test]
    fn update_changes_embedding_and_grads_flow() {
        let batch = two_graph_batch();
        let mut rng = Rng::seed_from(2);
        let mut vn_mod = VirtualNode::new(3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let vn0 = vn_mod.init(&mut tape, batch.num_graphs);
        let vn1 = vn_mod.update(&mut tape, x, vn0, &batch, Mode::Train);
        assert_eq!(tape.shape(vn1).dims(), &[2, 3]);
        let s = tape.sum(vn1);
        let g = tape.backward(s);
        for p in vn_mod.params_mut() {
            assert!(g.get(p.bound_node().unwrap()).is_some());
        }
    }
}
