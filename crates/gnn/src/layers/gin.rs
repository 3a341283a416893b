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
        let eps = self.eps.bind(tape);
        let combined = tape.gin_aggregate(
            x,
            eps,
            batch.edge_src.clone(),
            batch.edge_dst.clone(),
            batch.num_nodes(),
        );
        self.mlp.forward_relu(tape, combined, mode)
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
    use crate::layers::VirtualNode;
    use graph::{Graph, Label};
    use std::rc::Rc;
    use tensor::ops::BatchNormStats;

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

    /// `Mlp::new(&[d, d, d], true)` then ReLU — the update of `GinConv`
    /// and of the virtual node — as the ops it recorded before the ReLU
    /// epilogues: `linear → batch_norm → relu → linear → relu`, on the
    /// MLP's parameters `[W1, b1, γ, β, W2, b2]`, updating its running
    /// statistics `[μ, σ²]` as `BatchNorm1d` does.
    fn mlp_relu_chain(mlp: &mut dyn Module, tape: &mut Tape, x: NodeId, mode: Mode) -> NodeId {
        const MOMENTUM: f32 = 0.1;
        let p: Vec<NodeId> = mlp.params_mut().into_iter().map(|p| p.bind(tape)).collect();
        let h = tape.linear(x, p[0], p[1]);
        let mut running = mlp.buffers_mut();
        let stats = match mode {
            Mode::Train => {
                let stats = BatchNormStats::of_batch(tape.value(h), 1e-5);
                let n = tape.shape(h).as_matrix().0 as f32;
                let unbias = if n > 1.0 { n / (n - 1.0) } else { 1.0 };
                for (buf, (stat, scale)) in running
                    .iter_mut()
                    .zip([(stats.mean(), MOMENTUM), (stats.var(), MOMENTUM * unbias)])
                {
                    let stat = Tensor::from_vec(stat.to_vec(), [stat.len()]);
                    **buf = buf.mul_scalar(1.0 - MOMENTUM).add(&stat.mul_scalar(scale));
                }
                stats
            }
            Mode::Eval => BatchNormStats::running(running[0], running[1], 1e-5),
        };
        let h = tape.batch_norm(h, p[2], p[3], Rc::new(stats));
        let h = tape.relu(h);
        let h = tape.linear(h, p[4], p[5]);
        tape.relu(h)
    }

    /// What `GinConv::forward` recorded before `Tape::gin_aggregate` and
    /// the ReLU epilogues, as the reference: `neighbor_sum → add_scalar
    /// → mul → add`, then [`mlp_relu_chain`].
    fn chain_forward(
        conv: &mut GinConv,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        mode: Mode,
    ) -> NodeId {
        let n = batch.num_nodes();
        let agg = tape.neighbor_sum(x, batch.edge_src.clone(), batch.edge_dst.clone(), n);
        let eps = conv.eps.bind(tape);
        let one_plus_eps = tape.add_scalar(eps, 1.0);
        let scaled = tape.mul(x, one_plus_eps);
        let combined = tape.add(scaled, agg);
        mlp_relu_chain(&mut conv.mlp, tape, combined, mode)
    }

    /// `VirtualNode::update` with its MLP as [`mlp_relu_chain`].
    fn chain_vn_update(
        vn: &mut VirtualNode,
        tape: &mut Tape,
        x: NodeId,
        state: NodeId,
        batch: &GraphBatch,
        mode: Mode,
    ) -> NodeId {
        let pooled = tape.segment_sum(x, batch.batch.clone(), batch.num_graphs);
        let combined = tape.add(state, pooled);
        let transformed = mlp_relu_chain(vn, tape, combined, mode);
        tape.add(state, transformed)
    }

    /// A two-layer GIN-virtual stack, as `StackedEncoder` runs it: input
    /// projection, then per layer virtual-node broadcast → GIN → dropout
    /// (→ virtual-node update), then a sum readout.
    struct GinVirtual {
        proj: tensor::nn::Linear,
        convs: Vec<GinConv>,
        vn: VirtualNode,
        dropout: tensor::nn::Dropout,
    }

    impl GinVirtual {
        fn new(seed: u64) -> Self {
            let mut rng = Rng::seed_from(seed);
            let proj = tensor::nn::Linear::new(2, 8, &mut rng);
            let mut convs: Vec<GinConv> = (0..2).map(|_| GinConv::new(8, 8, &mut rng)).collect();
            for (c, e) in convs.iter_mut().zip([0.3f32, -0.45]) {
                c.eps.value = Tensor::from_vec(vec![e], [1]);
            }
            let vn = VirtualNode::new(8, &mut rng);
            let dropout = tensor::nn::Dropout::new(0.2);
            GinVirtual {
                proj,
                convs,
                vn,
                dropout,
            }
        }

        /// Loss bits, then every gradient but the ε ones and every buffer
        /// (the virtual node's too), in order; and the ε gradients.
        fn run(&mut self, batch: &GraphBatch, mode: Mode, fused: bool) -> (Vec<u32>, Vec<f32>) {
            let mut rng = Rng::seed_from(9);
            let mut tape = Tape::new();
            let feats = tape.constant(batch.features.clone());
            let mut x = self.proj.forward(&mut tape, feats);
            let mut state = self.vn.init(&mut tape, batch.num_graphs);
            for i in 0..self.convs.len() {
                x = self.vn.broadcast(&mut tape, x, state, batch);
                x = if fused {
                    self.convs[i].forward(&mut tape, x, batch, mode, &mut rng)
                } else {
                    chain_forward(&mut self.convs[i], &mut tape, x, batch, mode)
                };
                x = self.dropout.forward(&mut tape, x, mode, &mut rng);
                if i + 1 < self.convs.len() {
                    state = if fused {
                        self.vn.update(&mut tape, x, state, batch, mode)
                    } else {
                        chain_vn_update(&mut self.vn, &mut tape, x, state, batch, mode)
                    };
                }
            }
            let pooled = tape.segment_sum(x, batch.batch.clone(), batch.num_graphs);
            let sq = tape.square(pooled);
            let loss = tape.sum(sq);
            let grads = tape.backward(loss);
            let grad = |p: &Param| grads.get(p.bound_node().unwrap()).unwrap();
            let mut out = vec![tape.value(loss).item().to_bits()];
            let mut params = self.proj.params_mut();
            for c in &mut self.convs {
                params.extend(c.mlp.params_mut());
            }
            params.extend(self.vn.params_mut());
            for p in params {
                out.extend(grad(p).data().iter().map(|v| v.to_bits()));
            }
            let mut buffers: Vec<&mut Tensor> = self
                .convs
                .iter_mut()
                .flat_map(|c| c.buffers_mut())
                .collect();
            buffers.extend(self.vn.buffers_mut());
            for b in buffers {
                out.extend(b.data().iter().map(|v| v.to_bits()));
            }
            let g_eps = self.convs.iter().map(|c| grad(&c.eps).item()).collect();
            (out, g_eps)
        }
    }

    #[test]
    fn gin_virtual_stack_equals_the_unfused_chain() {
        // Two graphs: a repeated edge, a self-loop and an isolated node.
        let mut a = Graph::new(
            4,
            Tensor::from_vec(vec![1., -2., 3., 0.5, -1., 4., 2., 2.], [4, 2]),
            Label::Class(0),
        );
        a.add_undirected_edge(0, 1);
        a.add_undirected_edge(0, 1);
        a.add_undirected_edge(1, 2);
        let mut b = Graph::new(
            3,
            Tensor::from_vec(vec![0.25, 1., -3., 2., 5., -0.5], [3, 2]),
            Label::Class(1),
        );
        b.add_undirected_edge(0, 2);
        b.add_undirected_edge(1, 1);
        let batch = GraphBatch::from_graphs(&[&a, &b]);
        for mode in [Mode::Train, Mode::Eval] {
            let (fused, fused_g_eps) = GinVirtual::new(4).run(&batch, mode, true);
            let (chain, chain_g_eps) = GinVirtual::new(4).run(&batch, mode, false);
            assert_eq!(fused, chain, "{mode:?}");
            // `gε` is a tree reduction in the fused op, a sequential fold
            // in the chain: equal to rounding.
            for (f, c) in fused_g_eps.iter().zip(&chain_g_eps) {
                assert!(
                    (f - c).abs() <= 1e-4 * c.abs().max(1.0),
                    "{mode:?} gε {f} vs {c}"
                );
            }
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
