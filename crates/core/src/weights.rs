//! Learnable per-graph sample weights with the paper's constraints:
//! `Σ_n w_n = N` (§3.1) and an ℓ²-norm regularizer "to prevent degenerated
//! solutions" (§4.1.3), implemented as projection after every optimizer
//! step.

use crate::decorrelation::Lifted;
use tensor::nn::Param;
use tensor::{NodeId, Tape, Tensor};

/// The local graph-weight vector `W^(l)` for a mini-batch, uniformly
/// initialized to 1 (Algorithm 1 line 4) and optimized against the
/// decorrelation objective.
pub struct GraphWeights {
    param: Param,
    floor: f32,
}

impl GraphWeights {
    /// Uniform weights of length `n` with the default floor `1e-3`.
    pub fn uniform(n: usize) -> Self {
        GraphWeights {
            param: Param::new(Tensor::ones([n])),
            floor: 1e-3,
        }
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.param.value.numel()
    }

    /// True if the weight vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current weights.
    pub fn values(&self) -> &Tensor {
        &self.param.value
    }

    /// Consume into the weight tensor.
    pub fn into_values(self) -> Tensor {
        self.param.value
    }

    /// Access the underlying parameter (for the optimizer).
    pub fn param_mut(&mut self) -> &mut Param {
        &mut self.param
    }

    /// Project onto the constraint set: clamp to the floor and rescale so
    /// the weights sum to `n` (mean 1), the mini-batch version of the
    /// paper's `Σ w = N` constraint. Alternates clamp/rescale so the floor
    /// holds *after* normalization too (rescaling alone can push entries
    /// back below it when a few weights dominate).
    pub fn project(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let floor = self.floor;
        for _ in 0..4 {
            self.param.value.map_inplace(|x| x.max(floor));
            let sum: f32 = self.param.value.data().iter().sum();
            if sum <= 0.0 {
                break;
            }
            let scale = n as f32 / sum;
            self.param.value.map_inplace(|x| x * scale);
            if self.param.value.data().iter().all(|&x| x >= floor * 0.999) {
                break;
            }
        }
        // Final clamp guarantees the floor; the sum is then within
        // `n * floor` of the target, which the optimizer tolerates.
        self.param.value.map_inplace(|x| x.max(floor));
    }

    /// The ℓ² regularization term `λ·mean(w²)` added to the inner
    /// objective; returns the term's node.
    pub fn l2_penalty(&self, tape: &mut Tape, w_node: NodeId, lambda: f32) -> NodeId {
        let sq = tape.square(w_node);
        let m = tape.mean(sq);
        tape.mul_scalar(m, lambda)
    }

    /// Gradient of [`GraphWeights::l2_penalty`] in the weights,
    /// `((λ/n)·2)·w`: the order in which the tape's `Mean` and `PowScalar`
    /// backward rules evaluate it, so the two agree bitwise.
    pub fn l2_grad(&self, lambda: f32) -> Tensor {
        let c = lambda / self.len().max(1) as f32 * 2.0;
        self.param.value.map(|x| c * x)
    }

    /// One hand-written step of the inner objective
    /// `dec(w_full) + λ·mean(w²)`, where `w_full` is `globals` (the
    /// memory's weight prefix) followed by these weights. Returns the
    /// decorrelation value and the gradient in these weights: the ℓ² term
    /// first, the decorrelation part `axpy`'d onto it, as
    /// [`tensor::Tape::backward`] accumulates the two.
    pub fn objective_and_grad(
        &self,
        lifted: &Lifted,
        globals: &[f32],
        lambda: f32,
    ) -> (f32, Tensor) {
        let kb = globals.len();
        let w_full = Tensor::from_vec(
            [globals, self.values().data()].concat(),
            [kb + self.len(), 1],
        );
        let (dec, g_full) = lifted.penalty_and_grad(&w_full);
        let mut grad = self.l2_grad(lambda);
        tensor::simd::axpy_assign(grad.data_mut(), 1.0, &g_full.data()[kb..]);
        (dec, grad)
    }

    /// Summary statistics of the current weights (see [`weight_stats`]).
    pub fn stats(&self) -> WeightStats {
        weight_stats(self.values().data())
    }
}

/// Summary statistics of a sample-weight vector, used to monitor how far
/// the reweighting drifts from uniform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightStats {
    /// Smallest weight.
    pub min: f32,
    /// Largest weight.
    pub max: f32,
    /// Arithmetic mean (≈1 after projection).
    pub mean: f32,
    /// Population standard deviation around `mean`.
    pub std: f32,
    /// Shannon entropy of the normalized weights in nats; uniform weights
    /// attain the maximum `ln n`.
    pub entropy: f32,
    /// Kish's effective sample size `(Σw)² / Σw²`, in `[1, n]`; `n` for
    /// uniform weights, approaching 1 as one weight dominates.
    pub ess: f32,
}

/// Compute [`WeightStats`] for a weight vector. Weights are assumed
/// non-negative (as guaranteed by [`GraphWeights::project`]); an empty
/// slice yields all-zero stats.
pub fn weight_stats(w: &[f32]) -> WeightStats {
    if w.is_empty() {
        return WeightStats {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            std: 0.0,
            entropy: 0.0,
            ess: 0.0,
        };
    }
    let n = w.len() as f32;
    let sum: f32 = w.iter().sum();
    let mean = sum / n;
    let var = w.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
    let sum_sq: f32 = w.iter().map(|&x| x * x).sum();
    let min = w.iter().copied().fold(f32::MAX, f32::min);
    let max = w.iter().copied().fold(f32::MIN, f32::max);
    let mut entropy = 0.0;
    if sum > 0.0 {
        for &x in w {
            let p = x / sum;
            if p > 0.0 {
                entropy -= p * p.ln();
            }
        }
    }
    let ess = if sum_sq > 0.0 {
        sum * sum / sum_sq
    } else {
        0.0
    };
    WeightStats {
        min,
        max,
        mean,
        std: var.sqrt(),
        entropy,
        ess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::optim::{Adam, Optimizer};

    #[test]
    fn starts_uniform() {
        let w = GraphWeights::uniform(5);
        assert_eq!(w.len(), 5);
        assert!(w.values().data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn project_restores_mean_one() {
        let mut w = GraphWeights::uniform(4);
        w.param.value = Tensor::from_vec(vec![8.0, 0.0, -3.0, 1.0], [4]);
        w.project();
        let sum: f32 = w.values().data().iter().sum();
        assert!((sum - 4.0).abs() < 1e-5, "sum {sum}");
        assert!(
            w.values().data().iter().all(|&x| x > 0.0),
            "{:?}",
            w.values()
        );
    }

    #[test]
    fn project_keeps_uniform_fixed() {
        let mut w = GraphWeights::uniform(7);
        w.project();
        assert!(w.values().data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn optimization_step_then_project_preserves_constraint() {
        let mut w = GraphWeights::uniform(3);
        let mut opt = Adam::new(0.5);
        let mut tape = Tape::new();
        let wn = w.param_mut().bind(&mut tape);
        // Loss pushing first weight up: -w[0] via mask.
        let mask = tape.constant(Tensor::from_vec(vec![-1.0, 0.0, 0.0], [3]));
        let l = tape.mul(wn, mask);
        let loss = tape.sum(l);
        let g = tape.backward(loss);
        opt.step(vec![w.param_mut()], &g);
        w.project();
        let sum: f32 = w.values().data().iter().sum();
        assert!((sum - 3.0).abs() < 1e-5);
        assert!(w.values().data()[0] > w.values().data()[1]);
    }

    #[test]
    fn uniform_weight_stats_are_maximal() {
        let s = weight_stats(&[1.0; 8]);
        assert!(
            (s.ess - 8.0).abs() < 1e-5,
            "uniform ESS must be n, got {}",
            s.ess
        );
        assert!((s.entropy - (8f32).ln()).abs() < 1e-5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1.0);
        assert!((s.mean - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concentrated_weight_stats_collapse() {
        // One dominant weight: ESS → ~1, entropy → ~0.
        let mut w = vec![1e-6f32; 7];
        w.push(8.0);
        let s = weight_stats(&w);
        assert!(s.ess < 1.001, "ESS {}", s.ess);
        assert!(s.entropy < 0.01, "entropy {}", s.entropy);
        assert_eq!(s.max, 8.0);
    }

    #[test]
    fn std_is_population_deviation() {
        assert_eq!(weight_stats(&[0.5, 1.5, 0.5, 1.5]).std, 0.5);
    }

    #[test]
    fn empty_weight_stats_are_zero() {
        let s = weight_stats(&[]);
        assert_eq!(s.ess, 0.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.entropy, 0.0);
    }

    #[test]
    fn stats_accessor_matches_free_function() {
        let mut w = GraphWeights::uniform(4);
        w.param.value = Tensor::from_vec(vec![0.5, 1.5, 1.0, 1.0], [4]);
        assert_eq!(w.stats(), weight_stats(&[0.5, 1.5, 1.0, 1.0]));
    }

    #[test]
    fn l2_penalty_value() {
        let w = GraphWeights::uniform(2);
        let mut tape = Tape::new();
        let wn = tape.leaf(w.values().clone());
        let p = w.l2_penalty(&mut tape, wn, 2.0);
        assert!((tape.value(p).item() - 2.0).abs() < 1e-6); // 2 * mean(1,1)
    }
}
