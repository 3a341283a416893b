//! 1-D batch normalization with running statistics.

use super::module::{Module, Param};
use crate::ops::BatchNormStats;
use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;
use crate::Mode;
use std::rc::Rc;

/// BatchNorm over the feature dimension of `[n, d]` inputs.
///
/// Training mode normalizes with differentiable batch statistics and updates
/// exponential running statistics; evaluation mode uses the running
/// statistics as constants (standard `BatchNorm1d` semantics). Either way
/// the forward pass records one fused tape op.
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    dim: usize,
    batches_seen: u64,
}

impl BatchNorm1d {
    /// BatchNorm over `dim` features with default momentum 0.1 and eps 1e-5.
    pub fn new(dim: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(Tensor::ones([dim])),
            beta: Param::new(Tensor::zeros([dim])),
            running_mean: Tensor::zeros([dim]),
            running_var: Tensor::ones([dim]),
            momentum: 0.1,
            eps: 1e-5,
            dim,
            batches_seen: 0,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of training batches that have updated the running statistics.
    pub fn batches_seen(&self) -> u64 {
        self.batches_seen
    }

    /// Current running mean (for inspection/testing).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Current running variance (for inspection/testing).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Forward pass on `[n, d]`, recorded as one [`Tape::batch_norm`] op.
    ///
    /// Training mode computes the batch statistics once, updates the
    /// running statistics from them, and normalizes with them; evaluation
    /// mode normalizes with the running statistics.
    ///
    /// The op is bitwise-equal to the unfused chain only while `x` has no
    /// other consumer, as for the `Linear` output every caller passes
    /// (see [`crate::ops::batch_norm`]).
    pub fn forward(&mut self, tape: &mut Tape, x: NodeId, mode: Mode) -> NodeId {
        let (gamma, beta, stats) = self.bind(tape, x, mode);
        tape.batch_norm(x, gamma, beta, stats)
    }

    /// `relu(forward(x))` as one [`Tape::batch_norm_relu`] op, the ReLU as
    /// the epilogue of the normalization's row pass. Bitwise-equal to
    /// `forward` then [`Tape::relu`] under the same condition on `x`, as
    /// the normalized pre-activation feeds only the ReLU.
    pub fn forward_relu(&mut self, tape: &mut Tape, x: NodeId, mode: Mode) -> NodeId {
        let (gamma, beta, stats) = self.bind(tape, x, mode);
        tape.batch_norm_relu(x, gamma, beta, stats)
    }

    /// Bind `γ` and `β` and pick the statistics for `mode`, updating the
    /// running statistics in training.
    fn bind(
        &mut self,
        tape: &mut Tape,
        x: NodeId,
        mode: Mode,
    ) -> (NodeId, NodeId, Rc<BatchNormStats>) {
        let (n, d) = tape.shape(x).as_matrix();
        assert_eq!(d, self.dim, "BatchNorm1d: input dim {d} != {}", self.dim);
        let gamma = self.gamma.bind(tape);
        let beta = self.beta.bind(tape);
        let stats = match mode {
            Mode::Train => {
                let stats = BatchNormStats::of_batch(tape.value(x), self.eps);
                let mu_v = Tensor::from_vec(stats.mean().to_vec(), [d]);
                let var_v = Tensor::from_vec(stats.var().to_vec(), [d]);
                let unbias = if n > 1 {
                    n as f32 / (n as f32 - 1.0)
                } else {
                    1.0
                };
                self.running_mean = self
                    .running_mean
                    .mul_scalar(1.0 - self.momentum)
                    .add(&mu_v.mul_scalar(self.momentum));
                self.running_var = self
                    .running_var
                    .mul_scalar(1.0 - self.momentum)
                    .add(&var_v.mul_scalar(self.momentum * unbias));
                self.batches_seen += 1;
                stats
            }
            Mode::Eval => BatchNormStats::running(&self.running_mean, &self.running_var, self.eps),
        };
        (gamma, beta, Rc::new(stats))
    }
}

impl Module for BatchNorm1d {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = Rng::seed_from(1);
        let mut bn = BatchNorm1d::new(4);
        let mut tape = Tape::new();
        let data = Tensor::randn([64, 4], &mut rng)
            .mul_scalar(3.0)
            .add_scalar(5.0);
        let x = tape.constant(data);
        let y = bn.forward(&mut tape, x, Mode::Train);
        let yv = tape.value(y);
        let mean = yv.mean_rows();
        assert!(mean.data().iter().all(|m| m.abs() < 1e-4), "{mean:?}");
        let var = yv.map(|v| v * v).mean_rows();
        assert!(var.data().iter().all(|v| (v - 1.0).abs() < 1e-2), "{var:?}");
    }

    #[test]
    fn running_stats_track_data() {
        let mut rng = Rng::seed_from(2);
        let mut bn = BatchNorm1d::new(2);
        for _ in 0..200 {
            let mut tape = Tape::new();
            let data = Tensor::randn([32, 2], &mut rng).add_scalar(2.0);
            let x = tape.constant(data);
            let _ = bn.forward(&mut tape, x, Mode::Train);
        }
        assert!(bn
            .running_mean()
            .data()
            .iter()
            .all(|m| (m - 2.0).abs() < 0.2));
        assert!(bn
            .running_var()
            .data()
            .iter()
            .all(|v| (v - 1.0).abs() < 0.3));
        assert_eq!(bn.batches_seen(), 200);
    }

    #[test]
    fn eval_mode_uses_running_stats_and_is_deterministic() {
        let mut rng = Rng::seed_from(3);
        let mut bn = BatchNorm1d::new(2);
        // Prime running stats.
        for _ in 0..50 {
            let mut tape = Tape::new();
            let data = Tensor::randn([32, 2], &mut rng);
            let x = tape.constant(data);
            let _ = bn.forward(&mut tape, x, Mode::Train);
        }
        let probe = Tensor::from_vec(vec![0.5, -0.5], [1, 2]);
        let run = |bn: &mut BatchNorm1d| {
            let mut tape = Tape::new();
            let x = tape.constant(probe.clone());
            let y = bn.forward(&mut tape, x, Mode::Eval);
            tape.value(y).clone()
        };
        let a = run(&mut bn);
        let b = run(&mut bn);
        assert_eq!(a, b, "eval must not mutate stats");
    }

    #[test]
    fn gradients_flow_to_gamma_beta() {
        let mut rng = Rng::seed_from(4);
        let mut bn = BatchNorm1d::new(3);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::randn([8, 3], &mut rng));
        let y = bn.forward(&mut tape, x, Mode::Train);
        let s = tape.sum(y);
        let g = tape.backward(s);
        for p in bn.params_mut() {
            assert!(g.get(p.bound_node().unwrap()).is_some());
        }
    }
}
