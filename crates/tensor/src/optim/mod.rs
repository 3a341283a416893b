//! The Adam optimizer, plus gradient clipping.
//!
//! Optimizers update [`crate::nn::Param`]s from the gradients of
//! their most recently bound tape nodes; per-parameter state (the Adam
//! moments) is keyed by the parameter's stable key, so the
//! same optimizer instance tracks parameters across training steps even
//! though each step uses a fresh tape.

mod adam;

pub use adam::Adam;

use crate::nn::Param;
use crate::tape::Gradients;
use crate::tensor::Tensor;

/// Common optimizer interface.
pub trait Optimizer {
    /// Apply one update step to `params` using `grads` (from the current
    /// tape's backward pass). Parameters that were never bound or received
    /// no gradient are skipped. Bindings are cleared after the step.
    fn step(&mut self, params: Vec<&mut Param>, grads: &Gradients);
}

/// Global L2 norm of the gradients that reached a set of bound
/// parameters: `sqrt(Σ_p ‖∂L/∂p‖²)`. Parameters without a binding or a
/// gradient contribute zero. Call before [`Optimizer::step`] (which
/// clears bindings).
pub fn global_grad_norm(params: &[&mut Param], grads: &Gradients) -> f32 {
    let mut sq = 0f64;
    for p in params {
        if let Some(node) = p.bound_node() {
            if let Some(g) = grads.get(node) {
                sq += g.data().iter().map(|&x| x as f64 * x as f64).sum::<f64>();
            }
        }
    }
    sq.sqrt() as f32
}

/// Clip a gradient to a maximum L2 norm; returns the (possibly scaled)
/// gradient. A `max_norm` of 0 disables clipping.
pub fn clip_grad(grad: &Tensor, max_norm: f32) -> Tensor {
    if max_norm <= 0.0 {
        return grad.clone();
    }
    let norm = grad.norm();
    if norm > max_norm {
        grad.mul_scalar(max_norm / norm)
    } else {
        grad.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_reduces_large_gradients() {
        let g = Tensor::from_vec(vec![3.0, 4.0], [2]);
        let c = clip_grad(&g, 1.0);
        assert!((c.norm() - 1.0).abs() < 1e-6);
        // Direction preserved.
        assert!((c.data()[0] / c.data()[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn clip_leaves_small_gradients() {
        let g = Tensor::from_vec(vec![0.3, 0.4], [2]);
        let c = clip_grad(&g, 1.0);
        assert_eq!(c, g);
    }

    #[test]
    fn clip_zero_disables() {
        let g = Tensor::from_vec(vec![30.0, 40.0], [2]);
        let c = clip_grad(&g, 0.0);
        assert_eq!(c, g);
    }

    #[test]
    fn global_grad_norm_sums_over_params() {
        use crate::Tape;
        let mut tape = Tape::new();
        let mut a = Param::new(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let mut b = Param::new(Tensor::scalar(3.0));
        let an = a.bind(&mut tape);
        let bn = b.bind(&mut tape);
        let sa = tape.sum(an); // d/da = [1, 1]
        let sb = tape.mul_scalar(bn, 2.0); // d/db = 2
        let loss = tape.add(sa, sb);
        let grads = tape.backward(loss);
        let mut params = vec![&mut a, &mut b];
        let norm = global_grad_norm(&params, &grads);
        assert!((norm - (1.0f32 + 1.0 + 4.0).sqrt()).abs() < 1e-6, "{norm}");
        // Unbound params contribute nothing.
        params.iter_mut().for_each(|p| p.clear_binding());
        assert_eq!(global_grad_norm(&params, &grads), 0.0);
    }
}
