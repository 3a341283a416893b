//! Graph attention layer (Veličković et al., GAT — reference [6] of the
//! paper). Multi-head additive attention over incoming edges with
//! per-graph softmax normalization via segment operations.

use super::Conv;
use graph::GraphBatch;
use std::rc::Rc;
use tensor::nn::{Linear, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape, Tensor};

/// One attention head: a feature projection plus the source/destination
/// halves of the additive attention vector.
struct Head {
    project: Linear,
    att_src: Param,
    att_dst: Param,
}

/// A GAT layer with `heads` attention heads whose outputs are averaged
/// (keeping the output dimension equal to `out_dim`), with self-loops via
/// an identity attention path and LeakyReLU(0.2) attention activations.
pub struct GatConv {
    heads: Vec<Head>,
    out_dim: usize,
}

impl GatConv {
    /// A GAT layer from `in_dim` to `out_dim` features with `heads` heads.
    pub fn new(in_dim: usize, out_dim: usize, heads: usize, rng: &mut Rng) -> Self {
        assert!(heads >= 1);
        let heads = (0..heads)
            .map(|_| Head {
                project: Linear::with_bias(in_dim, out_dim, false, rng),
                att_src: Param::new(Tensor::randn([out_dim, 1], rng).mul_scalar(0.1)),
                att_dst: Param::new(Tensor::randn([out_dim, 1], rng).mul_scalar(0.1)),
            })
            .collect();
        GatConv { heads, out_dim }
    }
}

/// Numerically stable per-destination softmax of edge scores:
/// `softmax_e(score_e)` grouped by destination node.
fn edge_softmax(tape: &mut Tape, scores: NodeId, dst: Rc<Vec<usize>>, num_nodes: usize) -> NodeId {
    // max per destination for stability
    let maxes = tape.segment_max(scores, dst.clone(), num_nodes);
    let max_per_edge = tape.index_select(maxes, dst.clone());
    let shifted = tape.sub(scores, max_per_edge);
    let exp = tape.exp(shifted);
    let sums = tape.segment_sum(exp, dst.clone(), num_nodes);
    let sums = tape.add_scalar(sums, 1e-12);
    let sum_per_edge = tape.index_select(sums, dst);
    tape.div(exp, sum_per_edge)
}

impl Conv for GatConv {
    fn forward(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        _mode: Mode,
        _rng: &mut Rng,
    ) -> NodeId {
        let n = batch.num_nodes();
        let mut head_outs = Vec::with_capacity(self.heads.len());
        for head in &mut self.heads {
            let h = head.project.forward(tape, x); // [N, out]
            let a_src = head.att_src.bind(tape);
            let a_dst = head.att_dst.bind(tape);
            let s_src = tape.matmul(h, a_src); // [N, 1]
            let s_dst = tape.matmul(h, a_dst); // [N, 1]
                                               // Per-edge attention logits: LeakyReLU(s_src[src] + s_dst[dst]).
            let e_src = tape.index_select(s_src, batch.edge_src.clone());
            let e_dst = tape.index_select(s_dst, batch.edge_dst.clone());
            let logits = tape.add(e_src, e_dst);
            // LeakyReLU(x) = max(x, 0) − 0.2·max(−x, 0) = relu(x) − 0.2·relu(−x)
            let pos = tape.relu(logits);
            let negl = tape.neg(logits);
            let neg = tape.relu(negl);
            let neg = tape.mul_scalar(neg, 0.2);
            let act = tape.sub(pos, neg);
            let alpha = edge_softmax(tape, act, batch.edge_dst.clone(), n);
            let msgs = tape.index_select(h, batch.edge_src.clone());
            let weighted = tape.mul(msgs, alpha);
            let agg = tape.scatter_add_rows(weighted, batch.edge_dst.clone(), n);
            // Self connection keeps isolated nodes alive.
            let combined = tape.add(agg, h);
            head_outs.push(tape.tanh(combined));
        }
        // Average heads.
        let mut acc = head_outs[0];
        for &h in &head_outs[1..] {
            acc = tape.add(acc, h);
        }
        tape.mul_scalar(acc, 1.0 / self.heads.len() as f32)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Module for GatConv {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        for h in &mut self.heads {
            p.extend(h.project.params_mut());
            p.push(&mut h.att_src);
            p.push(&mut h.att_dst);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};

    fn toy_batch() -> GraphBatch {
        let mut rng = Rng::seed_from(7);
        let mut g = Graph::new(4, Tensor::randn([4, 3], &mut rng), Label::Class(0));
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        g.add_undirected_edge(2, 3);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn attention_weights_sum_to_one_per_destination() {
        let batch = toy_batch();
        let mut tape = Tape::new();
        let mut rng = Rng::seed_from(1);
        let scores = tape.leaf(Tensor::randn([batch.num_edges(), 1], &mut rng));
        let alpha = edge_softmax(&mut tape, scores, batch.edge_dst.clone(), batch.num_nodes());
        let v = tape.value(alpha);
        let mut per_dst = vec![0f32; batch.num_nodes()];
        for (e, &d) in batch.edge_dst.iter().enumerate() {
            per_dst[d] += v.data()[e];
        }
        for (d, &s) in per_dst.iter().enumerate() {
            let has_in = batch.edge_dst.contains(&d);
            if has_in {
                assert!((s - 1.0).abs() < 1e-4, "dst {d} attention sums to {s}");
            }
        }
    }

    #[test]
    fn forward_shapes_and_grads() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(2);
        let mut conv = GatConv::new(3, 8, 2, &mut rng);
        // Two heads of (projection, source and destination attention).
        assert_eq!(conv.params_mut().len(), 2 * 3);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Train, &mut rng);
        assert_eq!(tape.shape(h).dims(), &[4, 8]);
        let s = tape.sum(h);
        let g = tape.backward(s);
        for p in conv.params_mut() {
            assert!(g.get(p.bound_node().unwrap()).is_some());
        }
    }

    #[test]
    fn isolated_nodes_survive_via_self_connection() {
        let mut rng = Rng::seed_from(3);
        let g = Graph::new(2, Tensor::randn([2, 3], &mut rng), Label::Class(0));
        let batch = GraphBatch::from_graphs(&[&g]); // no edges at all
        let mut conv = GatConv::new(3, 4, 1, &mut rng);
        // GAT with zero edges: gather/scatter run on empty index lists.
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Eval, &mut rng);
        let v = tape.value(h);
        assert!(!v.has_non_finite());
        assert!(v.frobenius_sq() > 0.0, "self path must carry features");
    }
}
