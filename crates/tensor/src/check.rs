//! Central finite-difference gradient checking.
//!
//! Every backward rule in this crate is validated by comparing analytic
//! gradients to central differences of the forward function. The checker is
//! exposed publicly so downstream crates (GNN layers, the decorrelation
//! loss) can gradient-check their own compositions.

use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;

/// Result of a gradient check: the largest absolute and relative deviation
/// between analytic and numeric gradients over all checked inputs.
#[derive(Debug, Clone, Copy)]
pub struct GradCheck {
    /// Largest absolute difference.
    pub max_abs: f32,
    /// Largest relative difference (normalized by magnitude, floored at 1).
    pub max_rel: f32,
}

impl GradCheck {
    /// True if both deviations are within `tol`.
    pub fn within(&self, tol: f32) -> bool {
        self.max_abs <= tol || self.max_rel <= tol
    }
}

/// Check gradients of a scalar-valued function of several tensor inputs.
///
/// `f` receives a fresh tape and the leaf ids of the inputs (in the order of
/// `inputs`), and must return the id of a scalar output node. The analytic
/// gradient from [`Tape::backward`] is compared against central finite
/// differences with step `eps` on every element of every input.
///
/// f32 precision limits accuracy; `eps` around `1e-2`..`1e-3` with a
/// tolerance of `1e-2` is the practical sweet spot.
pub fn check_gradients(
    inputs: &[Tensor],
    eps: f32,
    f: impl Fn(&mut Tape, &[NodeId]) -> NodeId,
) -> GradCheck {
    // Analytic pass.
    let mut tape = Tape::new();
    let ids: Vec<NodeId> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = f(&mut tape, &ids);
    let grads = tape.backward(out);

    let mut worst = GradCheck {
        max_abs: 0.0,
        max_rel: 0.0,
    };
    for (i, input) in inputs.iter().enumerate() {
        let analytic = grads.get_or_zeros(ids[i], input.shape());
        let res = check_gradient_fn(input, &analytic, eps, |x| {
            let mut tape = Tape::new();
            let ids: Vec<NodeId> = inputs
                .iter()
                .enumerate()
                .map(|(j, t)| tape.leaf(if j == i { x.clone() } else { t.clone() }))
                .collect();
            let out = f(&mut tape, &ids);
            tape.value(out).item()
        });
        worst.max_abs = worst.max_abs.max(res.max_abs);
        worst.max_rel = worst.max_rel.max(res.max_rel);
    }
    worst
}

/// Check a gradient computed without a tape: compare `analytic` against
/// central finite differences of the scalar function `f` at `input`, with
/// step `eps` on every element.
pub fn check_gradient_fn(
    input: &Tensor,
    analytic: &Tensor,
    eps: f32,
    f: impl Fn(&Tensor) -> f32,
) -> GradCheck {
    assert_eq!(
        input.numel(),
        analytic.numel(),
        "one gradient entry per input"
    );
    let mut max_abs = 0f32;
    let mut max_rel = 0f32;
    let mut work = input.clone();
    for k in 0..input.numel() {
        let orig = input.data()[k];
        work.data_mut()[k] = orig + eps;
        let fp = f(&work);
        work.data_mut()[k] = orig - eps;
        let fm = f(&work);
        work.data_mut()[k] = orig;
        let numeric = (fp - fm) / (2.0 * eps);
        let a = analytic.data()[k];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheck { max_abs, max_rel }
}

/// Convenience assertion wrapper around [`check_gradients`].
///
/// # Panics
/// Panics if the check exceeds `tol`.
pub fn assert_gradients(
    inputs: &[Tensor],
    eps: f32,
    tol: f32,
    f: impl Fn(&mut Tape, &[NodeId]) -> NodeId,
) {
    let res = check_gradients(inputs, eps, f);
    assert!(
        res.within(tol),
        "gradient check failed: max_abs={} max_rel={} (tol={tol})",
        res.max_abs,
        res.max_rel
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Axis;
    use crate::rng::Rng;
    use std::rc::Rc;

    fn rand(shape: impl Into<crate::Shape>, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from(seed);
        Tensor::randn(shape, &mut rng)
    }

    #[test]
    fn gradcheck_catches_wrong_gradient() {
        // sum(x * 3) has gradient 3, but we build sum(x * x) and compare to a
        // deliberately different function shape to prove the checker is not
        // trivially passing — here we just confirm a correct case passes and
        // rely on the op tests for the adversarial direction.
        let x = rand([4], 7);
        let res = check_gradients(std::slice::from_ref(&x), 1e-2, |t, ids| {
            let y = t.mul(ids[0], ids[0]);
            t.sum(y)
        });
        assert!(res.within(1e-2), "{res:?}");
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let a = rand([3, 4], 1);
        let b = rand([4, 2], 2);
        assert_gradients(&[a, b], 1e-2, 2e-2, |t, ids| {
            let m = t.matmul(ids[0], ids[1]);
            let r = t.relu(m);
            t.sum(r)
        });
    }

    #[test]
    fn gradcheck_activations() {
        let x = rand([6], 3);
        for op in 0..5 {
            assert_gradients(std::slice::from_ref(&x), 1e-2, 2e-2, |t, ids| {
                let y = match op {
                    0 => t.sigmoid(ids[0]),
                    1 => t.tanh(ids[0]),
                    2 => t.cos(ids[0]),
                    3 => t.softplus(ids[0]),
                    _ => {
                        let sq = t.square(ids[0]);
                        let shifted = t.add_scalar(sq, 1.0);
                        t.sqrt(shifted)
                    }
                };
                t.sum(y)
            });
        }
    }

    #[test]
    fn gradcheck_log_softmax_nll() {
        let x = rand([2, 5], 4);
        assert_gradients(&[x], 1e-2, 2e-2, |t, ids| {
            let ls = t.log_softmax(ids[0]);
            let mask = t.constant(Tensor::from_vec(
                vec![-1., 0., 0., 0., 0., 0., 0., -1., 0., 0.],
                [2, 5],
            ));
            let l = t.mul(ls, mask);
            t.sum(l)
        });
    }

    #[test]
    fn gradcheck_segment_pipeline() {
        // Mimics a message-passing round: gather -> transform -> scatter -> pool.
        let x = rand([4, 3], 5);
        let w = rand([3, 3], 6);
        let edges_src = Rc::new(vec![0usize, 1, 2, 3, 0]);
        let edges_dst = Rc::new(vec![1usize, 0, 3, 2, 2]);
        let batch = Rc::new(vec![0usize, 0, 1, 1]);
        assert_gradients(&[x, w], 1e-2, 3e-2, move |t, ids| {
            let msgs = t.index_select(ids[0], edges_src.clone());
            let agg = t.scatter_add_rows(msgs, edges_dst.clone(), 4);
            let h = t.matmul(agg, ids[1]);
            let h = t.tanh(h);
            let pooled = t.segment_mean(h, batch.clone(), 2);
            let sq = t.square(pooled);
            t.sum(sq)
        });
    }

    #[test]
    fn gradcheck_neighbor_sum() {
        // Self-loop (2→2), duplicate edge (0→1 twice), isolated node 4.
        let x = rand([5, 3], 9);
        let w = rand([5, 3], 10);
        let src = Rc::new(vec![0usize, 0, 1, 2, 3]);
        let dst = Rc::new(vec![1usize, 1, 0, 2, 2]);
        assert_gradients(&[x], 1e-2, 2e-2, move |t, ids| {
            let agg = t.neighbor_sum(ids[0], src.clone(), dst.clone(), 5);
            let weights = t.constant(w.clone());
            let h = t.mul(agg, weights);
            let h = t.tanh(h);
            t.sum(h)
        });
    }

    #[test]
    fn gradcheck_gin_aggregate() {
        // The same graph as `gradcheck_neighbor_sum`, with ε a leaf too.
        let x = rand([5, 3], 11);
        let eps = Tensor::from_vec(vec![0.3], [1]);
        let w = rand([5, 3], 12);
        let src = Rc::new(vec![0usize, 0, 1, 2, 3]);
        let dst = Rc::new(vec![1usize, 1, 0, 2, 2]);
        assert_gradients(&[x, eps], 1e-2, 2e-2, move |t, ids| {
            let agg = t.gin_aggregate(ids[0], ids[1], src.clone(), dst.clone(), 5);
            let weights = t.constant(w.clone());
            let h = t.mul(agg, weights);
            let h = t.tanh(h);
            t.sum(h)
        });
    }

    #[test]
    fn gradcheck_axis_reductions() {
        let x = rand([3, 4], 8);
        assert_gradients(std::slice::from_ref(&x), 1e-2, 2e-2, |t, ids| {
            let r = t.mean_axis(ids[0], Axis::Rows);
            let sq = t.square(r);
            t.sum(sq)
        });
        assert_gradients(&[x], 1e-2, 2e-2, |t, ids| {
            let c = t.sum_axis(ids[0], Axis::Cols);
            let sq = t.square(c);
            t.sum(sq)
        });
    }

    #[test]
    fn gradcheck_div_and_broadcast() {
        let mut rng = Rng::seed_from(9);
        // keep denominators away from zero
        let a = Tensor::randn([2, 3], &mut rng);
        let b = Tensor::rand_uniform([2, 1], 0.5, 2.0, &mut rng);
        assert_gradients(&[a, b], 1e-3, 2e-2, |t, ids| {
            let d = t.div(ids[0], ids[1]);
            let sq = t.square(d);
            t.sum(sq)
        });
    }

    #[test]
    fn gradcheck_sub_mul_div_broadcast_either_side() {
        let mut rng = Rng::seed_from(14);
        for small in [&[4][..], &[1, 4], &[3, 1], &[1]] {
            for small_first in [false, true] {
                // Values in [0.5, 2] keep every denominator away from zero.
                let m = Tensor::rand_uniform([3, 4], 0.5, 2.0, &mut rng);
                let v = Tensor::rand_uniform(small, 0.5, 2.0, &mut rng);
                let inputs = if small_first { [v, m] } else { [m, v] };
                for (name, op) in
                    ["sub", "mul", "div"]
                        .into_iter()
                        .zip([Tape::sub, Tape::mul, Tape::div])
                {
                    let res = check_gradients(&inputs, 1e-3, |t, ids| {
                        let o = op(t, ids[0], ids[1]);
                        let sq = t.square(o);
                        t.sum(sq)
                    });
                    assert!(
                        res.within(2e-2),
                        "{name} with {small:?} first={small_first}: {res:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradcheck_segment_max() {
        let x = rand([5, 2], 10);
        let seg = Rc::new(vec![0usize, 0, 1, 1, 1]);
        assert_gradients(&[x], 1e-3, 2e-2, move |t, ids| {
            let m = t.segment_max(ids[0], seg.clone(), 2);
            let sq = t.square(m);
            t.sum(sq)
        });
    }
}
