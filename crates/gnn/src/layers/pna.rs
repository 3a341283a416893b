//! Principal neighbourhood aggregation layer (Corso et al.): multiple
//! aggregators (mean, max, min, std) combined with degree scalers
//! (identity, amplification, attenuation).

use super::Conv;
use graph::GraphBatch;
use tensor::nn::{BatchNorm1d, Linear, Module, Param};
use tensor::rng::Rng;
use tensor::{Mode, NodeId, Tape, Tensor};

/// Number of neighborhood aggregators (mean, max, min, std).
const NUM_AGGREGATORS: usize = 4;
/// Number of degree scalers (identity, amplification, attenuation).
const NUM_SCALERS: usize = 3;

/// A PNA layer: the 4×3 aggregator/scaler tower is concatenated with the
/// node's own features and mixed by a linear layer
/// (`[x ‖ S(D) ⊗ agg(x)] W`), then BatchNorm + ReLU.
pub struct PnaConv {
    linear: Linear,
    norm: BatchNorm1d,
    in_dim: usize,
    out_dim: usize,
}

impl PnaConv {
    /// A PNA layer from `in_dim` to `out_dim` features.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        let tower = in_dim * (1 + NUM_AGGREGATORS * NUM_SCALERS);
        PnaConv {
            linear: Linear::new(tower, out_dim, rng),
            norm: BatchNorm1d::new(out_dim),
            in_dim,
            out_dim,
        }
    }
}

impl Conv for PnaConv {
    fn forward(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        batch: &GraphBatch,
        mode: Mode,
        _rng: &mut Rng,
    ) -> NodeId {
        let n = batch.num_nodes();
        assert_eq!(tape.shape(x).dim(1), self.in_dim, "PNA input dim");
        let msgs = tape.index_select(x, batch.edge_src.clone());
        // Aggregators over incoming neighbors (empty neighborhoods → 0).
        let mean = tape.segment_mean(msgs, batch.edge_dst.clone(), n);
        let maxv = tape.segment_max(msgs, batch.edge_dst.clone(), n);
        let minv = tape.segment_min(msgs, batch.edge_dst.clone(), n);
        // std = sqrt(relu(E[x²] − E[x]²) + eps)
        let sq = tape.square(msgs);
        let mean_sq = tape.segment_mean(sq, batch.edge_dst.clone(), n);
        let mean2 = tape.square(mean);
        let var = tape.sub(mean_sq, mean2);
        let var = tape.relu(var);
        let var = tape.add_scalar(var, 1e-5);
        let std = tape.sqrt(var);
        // Degree scalers: identity, amplification log(d+1)/δ, attenuation
        // δ/log(d+1); δ is the mean log-degree over this batch.
        let degs = batch.in_degrees();
        let logd: Vec<f32> = degs.iter().map(|&d| ((d + 1) as f32).ln()).collect();
        let delta = (logd.iter().sum::<f32>() / logd.len().max(1) as f32).max(1e-6);
        let amp: Vec<f32> = logd.iter().map(|&l| l / delta).collect();
        let att: Vec<f32> = logd.iter().map(|&l| delta / l.max(1e-6)).collect();
        let amp = tape.constant(Tensor::from_vec(amp, [n, 1]));
        let att = tape.constant(Tensor::from_vec(att, [n, 1]));
        let mut parts: Vec<NodeId> = vec![x];
        for agg in [mean, maxv, minv, std] {
            parts.push(agg);
            parts.push(tape.mul(agg, amp));
            parts.push(tape.mul(agg, att));
        }
        let tower = tape.concat_cols(&parts);
        let h = self.linear.forward(tape, tower);
        self.norm.forward_relu(tape, h, mode)
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Module for PnaConv {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.linear.params_mut();
        p.extend(self.norm.params_mut());
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.norm.buffers_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{Graph, Label};

    fn toy_batch() -> GraphBatch {
        let mut g = Graph::new(
            4,
            Tensor::from_vec(vec![1., 0., 2., 0., 3., 0., 4., 0.], [4, 2]),
            Label::Class(0),
        );
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        g.add_undirected_edge(2, 3);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn forward_shapes() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(1);
        let mut conv = PnaConv::new(2, 8, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Train, &mut rng);
        assert_eq!(tape.shape(h).dims(), &[4, 8]);
    }

    #[test]
    fn tower_width_accounts_for_all_aggregator_scaler_pairs() {
        let mut rng = Rng::seed_from(2);
        let mut conv = PnaConv::new(4, 8, &mut rng);
        // Linear input = 4 * (1 + 12) = 52.
        let expected_linear = 52 * 8 + 8;
        let expected = expected_linear + 16; // + BN gamma/beta
        assert_eq!(conv.num_params(), expected);
    }

    #[test]
    fn pna_is_heavier_than_gin_at_same_width() {
        // The paper's §4.8 notes PNA has far more parameters than GIN.
        let mut rng = Rng::seed_from(3);
        let mut pna = PnaConv::new(64, 64, &mut rng);
        let mut gin = super::super::GinConv::new(64, 64, &mut rng);
        assert!(pna.num_params() > 2 * gin.num_params());
    }

    #[test]
    fn gradients_flow() {
        let batch = toy_batch();
        let mut rng = Rng::seed_from(4);
        let mut conv = PnaConv::new(2, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(batch.features.clone());
        let h = conv.forward(&mut tape, x, &batch, Mode::Train, &mut rng);
        let s = tape.sum(h);
        let g = tape.backward(s);
        for p in conv.params_mut() {
            assert!(g.get(p.bound_node().unwrap()).is_some());
        }
    }
}
