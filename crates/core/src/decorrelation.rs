//! The weighted partial cross-covariance decorrelation objective
//! (Eq. 5 and 7/10 of the paper).
//!
//! For representations `Z ∈ R^{n×d}` and sample weights `w ∈ R^n`, the
//! objective is `Σ_{1 ≤ i < j ≤ d} ‖Ĉ^w_{Z_i, Z_j}‖²_F`, where `Ĉ^w` is
//! the weighted covariance between the RFF liftings of dimensions `i` and
//! `j`. Minimizing it in `w` reweights the sample so all representation
//! dimensions become (approximately, and nonlinearly) independent; the
//! squared Frobenius norm of the *linear* covariance is the "no RFF"
//! ablation (the paper's Variant 2, Figure 2).
//!
//! Implementation: with `U_q = center(w ⊙ f_q(Z))` and
//! `V_{q'} = center(w ⊙ g_{q'}(Z))`, all pairwise entries are computed at
//! once as `P^{qq'} = U_qᵀ V_{q'} / (n−1) ∈ R^{d×d}` — the loss is the sum
//! of squared strict-upper-triangle entries over all `(q, q')`, costing
//! `O(Q² n d²)` (linear in the sample size, as the paper requires).

use crate::error::OodGnnError;
use crate::rff::RffParams;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use tensor::rng::Rng;
use tensor::{ops, NodeId, Tape, Tensor};

/// Which feature lifting the decorrelation loss uses.
#[derive(Clone, Debug)]
pub enum DecorrelationKind {
    /// Random Fourier features with `q` functions per dimension (the
    /// paper's method; `q = 1` is its default setting).
    Rff {
        /// Number of RFF functions per dimension.
        q: usize,
    },
    /// Identity features — eliminates only *linear* correlation (the
    /// paper's "no RFF" ablation, Variant 2).
    Linear,
}

/// A strict-upper-triangle 0/1 mask of size `d×d`.
fn upper_triangle_mask(d: usize) -> Tensor {
    let mut m = Tensor::zeros([d, d]);
    for i in 0..d {
        for j in (i + 1)..d {
            *m.at_mut(i, j) = 1.0;
        }
    }
    m
}

thread_local! {
    /// Per-thread cache of upper-triangle masks keyed by `d`. The mask is
    /// pure graph structure — it depends only on the representation width,
    /// which is fixed for the lifetime of a model — so it is built once and
    /// shared by `Rc` across every decorrelation call on the thread.
    static MASK_CACHE: RefCell<HashMap<usize, Rc<Tensor>>> = RefCell::new(HashMap::new());
}

/// The shared strict-upper-triangle mask for width `d`.
fn cached_upper_triangle_mask(d: usize) -> Rc<Tensor> {
    MASK_CACHE.with(|c| {
        Rc::clone(
            c.borrow_mut()
                .entry(d)
                .or_insert_with(|| Rc::new(upper_triangle_mask(d))),
        )
    })
}

/// The pairwise covariance penalty between two centered feature matrices:
/// `‖mask ⊙ (UᵀV)/(n−1)‖²_F` summed over the strict upper triangle.
///
/// The scale/mask/square/sum tail is a single fused
/// [`Tape::scaled_masked_sq_sum`] node: one pass over the `d×d` product
/// instead of three intermediate `d×d` tensors plus a reduction.
fn pair_penalty(tape: &mut Tape, u: NodeId, v: NodeId, mask: &Rc<Tensor>, n: usize) -> NodeId {
    let ut = tape.transpose(u);
    let prod = tape.matmul(ut, v);
    tape.scaled_masked_sq_sum(prod, Rc::clone(mask), penalty_scale(n))
}

/// Per-batch state of the decorrelation objective: the cached `d×d`
/// strict-upper-triangle mask and (for the RFF variant) the two
/// independent RFF draws `f`, `g`.
///
/// [`decorrelation_loss`] builds one per call and records the objective on
/// a tape. The weight inner loop builds one per batch and calls
/// [`DecorrelationCtx::lift`] once: the representations and the draws are
/// fixed inside the loop, so only the weighting changes between steps.
pub struct DecorrelationCtx {
    d: usize,
    mask: Rc<Tensor>,
    rff: Option<(RffParams, RffParams)>,
}

impl DecorrelationCtx {
    /// Prepare a context for representations of width `d`. For
    /// [`DecorrelationKind::Rff`] this draws the `f` and `g` function
    /// tuples from `rng` (two independent draws, as in Eq. 4).
    pub fn new(d: usize, kind: &DecorrelationKind, rng: &mut Rng) -> Self {
        let rff = match kind {
            DecorrelationKind::Rff { q } => {
                Some((RffParams::sample(d, *q, rng), RffParams::sample(d, *q, rng)))
            }
            DecorrelationKind::Linear => None,
        };
        DecorrelationCtx {
            d,
            mask: cached_upper_triangle_mask(d),
            rff,
        }
    }

    /// The representation width this context was prepared for.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Lift fixed representations `z` (`[n, d]`) once: the `f_q(z)` and
    /// `g_q'(z)` feature matrices for the RFF variant, `z` itself for the
    /// linear one.
    ///
    /// # Panics
    /// Panics if `z` is not `[n, d]` for this context's `d`.
    pub fn lift(&self, z: &Tensor) -> Lifted {
        let (n, d) = z.shape().as_matrix();
        assert_eq!(d, self.d, "decorrelation ctx prepared for d={}", self.d);
        let (feats, q) = match &self.rff {
            None => (vec![z.clone()], 1),
            Some((f, g)) => {
                let mut feats = f.features(z);
                feats.extend(g.features(z));
                (feats, f.q())
            }
        };
        Lifted {
            feats,
            q,
            n,
            mask: Rc::clone(&self.mask),
        }
    }
}

/// Representations lifted by [`DecorrelationCtx::lift`]: the objective as
/// a function of the sample weights alone, with a hand-written gradient.
///
/// [`Lifted::penalty_and_grad`] evaluates exactly the graph that
/// [`decorrelation_loss`] records — the same kernels, and the gradient
/// accumulated in the tape's reverse node order — so its value and
/// gradient are bitwise-equal to the tape's.
pub struct Lifted {
    /// Feature matrices in tape node order: `f_1..f_Q` then `g_1..g_Q`
    /// (RFF), or `z` alone (linear), where both operands are the same.
    feats: Vec<Tensor>,
    /// Number of left operands; the right operands are `feats[q..]`, or
    /// `feats` itself when it holds only the `q` left ones.
    q: usize,
    n: usize,
    mask: Rc<Tensor>,
}

impl Lifted {
    /// The decorrelation value at weights `w_full` (`[n, 1]`, global rows
    /// first) and its gradient `∂/∂w_full` (`[n, 1]`).
    ///
    /// Forward: `weighted_center` → `UᵀV` → `scaled_masked_sq_sum` for
    /// every `(q, q')` pair. Backward: the tape's reverse sweep by hand —
    /// the pairs in reverse, then the `gw` half of each centering, last
    /// feature first.
    ///
    /// # Panics
    /// Panics if `w_full` does not hold one weight per sample.
    pub fn penalty_and_grad(&self, w_full: &Tensor) -> (f32, Tensor) {
        trace::metrics::counter_add("decorrelation/calls", 1);
        assert_eq!(w_full.numel(), self.n, "one weight per lifted sample");
        let q = self.q;
        let right = if self.feats.len() == q {
            0..q
        } else {
            q..self.feats.len()
        };
        let centered: Vec<Tensor> = self
            .feats
            .iter()
            .map(|x| ops::weighted_center(x, w_full))
            .collect();
        let transposed: Vec<Tensor> = centered.iter().map(Tensor::transpose).collect();
        let scale = penalty_scale(self.n);
        let mut total: Option<f32> = None;
        let mut pairs = Vec::with_capacity(q * right.len());
        for (u, ut) in transposed[..q].iter().enumerate() {
            for v in right.clone() {
                let prod = ut.matmul(&centered[v]);
                let s = ops::scaled_masked_sq_sum(&prod, &self.mask, scale);
                total = Some(total.map_or(s, |t| t + s));
                pairs.push((u, v, prod));
            }
        }
        let value = total.expect("q >= 1");
        if trace::enabled() {
            trace::metrics::observe("decorrelation/loss", value as f64);
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.feats.len()];
        // The `Matmul` arm's two gradients: `G·Vᵀ`, and `(Uᵀ)ᵀ·G`, which is
        // `U·G` bit for bit (a transpose is a copy). With one shared
        // operand (linear), `gb` lands before `gaᵀ`, as on the tape.
        for (u, v, prod) in pairs.iter().rev() {
            let g = ops::scaled_masked_sq_sum_grad(prod, &self.mask, scale, 1.0);
            let ga = g.matmul(&transposed[*v]);
            accumulate(&mut grads[*v], centered[*u].matmul(&g));
            accumulate(&mut grads[*u], ga.transpose());
        }
        let mut gw = None;
        for (x, g) in self.feats.iter().zip(&grads).rev() {
            let g = g.as_ref().expect("every feature enters a pair");
            accumulate(&mut gw, ops::weighted_center_grad_w(x, g));
        }
        (value, gw.expect("at least one feature"))
    }
}

/// Add `g` into a gradient slot the way [`Tape::backward`] does: the first
/// contribution is stored, later ones are `axpy`'d on.
fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(acc) => acc.axpy(1.0, &g),
        None => *slot = Some(g),
    }
}

/// The `1/(n−1)` covariance normalizer of the pair penalty.
fn penalty_scale(n: usize) -> f32 {
    1.0 / (n.max(2) as f32 - 1.0)
}

/// Build the decorrelation loss node for representations `z` (`[n, d]`)
/// and weights `w` (`[n]` or `[n, 1]`).
///
/// For the RFF variant, `f` and `g` are two independent RFF draws (as in
/// Eq. 4 where `f` and `g` are separate function tuples) taken from `rng`.
/// Gradients flow into both `z` and `w`. The centering and
/// covariance-penalty stages run as fused single-pass kernels
/// ([`Tape::weighted_center`], [`Tape::scaled_masked_sq_sum`],
/// [`Tape::cos_feature`] inside [`RffParams::apply`]). With `z` fixed, the
/// weight inner loop uses [`DecorrelationCtx::lift`] instead, which gives
/// the same value and weight gradient without a tape.
///
/// # Errors
/// Fails with [`OodGnnError::Shape`] when the weights are not rank 1 or 2
/// or do not carry one entry per sample.
pub fn decorrelation_loss(
    tape: &mut Tape,
    z: NodeId,
    w: NodeId,
    kind: &DecorrelationKind,
    rng: &mut Rng,
) -> Result<NodeId, OodGnnError> {
    trace::metrics::counter_add("decorrelation/calls", 1);
    let (n, d) = tape.shape(z).as_matrix();
    let ctx = DecorrelationCtx::new(d, kind, rng);
    let w = match tape.shape(w).rank() {
        1 => tape.reshape(w, [n, 1]),
        2 => w,
        r => {
            return Err(OodGnnError::Shape(format!(
                "weights must be rank 1 or 2, got rank {r}"
            )))
        }
    };
    if tape.shape(w).dims() != [n, 1] {
        return Err(OodGnnError::Shape(format!(
            "weights must have one entry per sample: {} vs [{n}, 1]",
            tape.shape(w)
        )));
    }
    let loss = match &ctx.rff {
        None => {
            let u = tape.weighted_center(z, w);
            pair_penalty(tape, u, u, &ctx.mask, n)
        }
        Some((f, g)) => {
            let fu: Vec<NodeId> = f
                .apply(tape, z)
                .into_iter()
                .map(|feat| tape.weighted_center(feat, w))
                .collect();
            let gv: Vec<NodeId> = g
                .apply(tape, z)
                .into_iter()
                .map(|feat| tape.weighted_center(feat, w))
                .collect();
            let mut total: Option<NodeId> = None;
            for &u in &fu {
                for &v in &gv {
                    let p = pair_penalty(tape, u, v, &ctx.mask, n);
                    total = Some(match total {
                        Some(t) => tape.add(t, p),
                        None => p,
                    });
                }
            }
            total.expect("q >= 1")
        }
    };
    if trace::enabled() {
        trace::metrics::observe("decorrelation/loss", tape.value(loss).item() as f64);
    }
    Ok(loss)
}

/// Closed-form reference implementation of the **linear** decorrelation
/// loss (no tape): used to cross-check the autodiff construction in tests
/// and as the non-autodiff fast path in benchmarks.
///
/// The `O(d²·n)` pairwise accumulation is chunked over the `(i, j)` pair
/// list through the deterministic pool: per-pair covariances are exact
/// dot products and per-chunk partials combine in a fixed-order tree, so
/// the result is bitwise-identical at any thread count.
pub fn linear_loss_reference(z: &Tensor, w: &Tensor) -> f32 {
    let (n, d) = z.shape().as_matrix();
    assert_eq!(w.numel(), n);
    // Weighted, centered columns.
    let mut u = vec![vec![0f32; n]; d];
    for (i, ui) in u.iter_mut().enumerate() {
        let col: Vec<f32> = (0..n).map(|r| w.data()[r] * z.at(r, i)).collect();
        let mean = col.iter().sum::<f32>() / n as f32;
        for r in 0..n {
            ui[r] = col[r] - mean;
        }
    }
    let scale = 1.0 / (n.max(2) as f32 - 1.0);
    let pairs: Vec<(usize, usize)> = (0..d)
        .flat_map(|i| ((i + 1)..d).map(move |j| (i, j)))
        .collect();
    // Keep every chunk a few thousand multiply-adds.
    let grain = (4096 / n.max(1)).max(1);
    tensor::par::map_reduce(
        pairs.len(),
        grain,
        tensor::profile::Kernel::Reduce,
        |range| {
            let mut partial = 0f32;
            for &(i, j) in &pairs[range] {
                let c: f32 = (0..n).map(|r| u[i][r] * u[j][r]).sum::<f32>() * scale;
                partial += c * c;
            }
            partial
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::check::assert_gradients;

    #[test]
    fn bad_weight_rank_is_a_typed_error() {
        let mut rng = Rng::seed_from(0);
        let mut tape = Tape::new();
        let zn = tape.constant(Tensor::randn([4, 3], &mut rng));
        let wn = tape.constant(Tensor::zeros([4, 1, 1]));
        let err = decorrelation_loss(&mut tape, zn, wn, &DecorrelationKind::Linear, &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("rank"), "{err}");
        // Wrong per-sample count is also rejected.
        let mut tape = Tape::new();
        let zn = tape.constant(Tensor::randn([4, 3], &mut rng));
        let wn = tape.constant(Tensor::zeros([3, 1]));
        assert!(
            decorrelation_loss(&mut tape, zn, wn, &DecorrelationKind::Linear, &mut rng).is_err()
        );
    }

    #[test]
    fn linear_variant_matches_reference() {
        let mut rng = Rng::seed_from(1);
        let z = Tensor::randn([16, 5], &mut rng);
        let w = Tensor::rand_uniform([16], 0.5, 1.5, &mut rng);
        let mut tape = Tape::new();
        let zn = tape.leaf(z.clone());
        let wn = tape.leaf(w.clone());
        let loss =
            decorrelation_loss(&mut tape, zn, wn, &DecorrelationKind::Linear, &mut rng).unwrap();
        let reference = linear_loss_reference(&z, &w);
        assert!(
            (tape.value(loss).item() - reference).abs() < 1e-4,
            "{} vs {reference}",
            tape.value(loss).item()
        );
    }

    #[test]
    fn independent_dims_give_small_loss_correlated_give_large() {
        let mut rng = Rng::seed_from(2);
        let n = 256;
        // Independent columns.
        let indep = Tensor::randn([n, 2], &mut rng);
        // Perfectly correlated columns.
        let col: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mut corr_data = Vec::with_capacity(2 * n);
        for &c in &col {
            corr_data.push(c);
            corr_data.push(c);
        }
        let corr = Tensor::from_vec(corr_data, [n, 2]);
        let w = Tensor::ones([n]);
        let eval = |z: &Tensor, rng: &mut Rng| {
            let mut tape = Tape::new();
            let zn = tape.constant(z.clone());
            let wn = tape.leaf(w.clone());
            let l = decorrelation_loss(&mut tape, zn, wn, &DecorrelationKind::Linear, rng).unwrap();
            tape.value(l).item()
        };
        let li = eval(&indep, &mut rng);
        let lc = eval(&corr, &mut rng);
        assert!(lc > 20.0 * li, "correlated {lc} vs independent {li}");
    }

    #[test]
    fn rff_detects_nonlinear_dependence_linear_does_not() {
        // y = x² is uncorrelated with x for symmetric x, but dependent.
        let mut rng = Rng::seed_from(3);
        let n = 512;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mut data = Vec::with_capacity(2 * n);
        for &x in &xs {
            data.push(x);
            data.push(x * x - 1.0); // centered x²
        }
        let z = Tensor::from_vec(data, [n, 2]);
        let w = Tensor::ones([n]);
        let eval = |kind: &DecorrelationKind, seed: u64| {
            // Average over RFF draws for stability.
            let mut acc = 0.0;
            let reps = 16;
            for r in 0..reps {
                let mut rng = Rng::seed_from(seed + r);
                let mut tape = Tape::new();
                let zn = tape.constant(z.clone());
                let wn = tape.leaf(w.clone());
                let l = decorrelation_loss(&mut tape, zn, wn, kind, &mut rng).unwrap();
                acc += tape.value(l).item();
            }
            acc / reps as f32
        };
        let linear = eval(&DecorrelationKind::Linear, 100);
        let rff = eval(&DecorrelationKind::Rff { q: 4 }, 100);
        assert!(
            rff > 5.0 * linear.max(1e-4),
            "RFF should expose the nonlinear dependence: rff {rff} vs linear {linear}"
        );
    }

    #[test]
    fn gradcheck_weights_linear() {
        let mut rng = Rng::seed_from(4);
        let z = Tensor::randn([8, 3], &mut rng);
        let w = Tensor::rand_uniform([8], 0.5, 1.5, &mut rng);
        assert_gradients(&[w], 1e-3, 2e-2, move |tape, ids| {
            let mut r = Rng::seed_from(9);
            let zn = tape.constant(z.clone());
            decorrelation_loss(tape, zn, ids[0], &DecorrelationKind::Linear, &mut r).unwrap()
        });
    }

    #[test]
    fn gradcheck_weights_rff() {
        let mut rng = Rng::seed_from(5);
        let z = Tensor::randn([8, 3], &mut rng);
        let w = Tensor::rand_uniform([8], 0.5, 1.5, &mut rng);
        // Same RFF draw for every evaluation: fixed inner seed.
        assert_gradients(&[w], 1e-3, 2e-2, move |tape, ids| {
            let mut r = Rng::seed_from(11);
            let zn = tape.constant(z.clone());
            decorrelation_loss(tape, zn, ids[0], &DecorrelationKind::Rff { q: 2 }, &mut r).unwrap()
        });
    }

    #[test]
    fn gradcheck_representations_rff() {
        let mut rng = Rng::seed_from(6);
        let z = Tensor::randn([6, 3], &mut rng);
        assert_gradients(&[z], 1e-3, 3e-2, move |tape, ids| {
            let mut r = Rng::seed_from(13);
            let n = tape.shape(ids[0]).dim(0);
            let wn = tape.constant(Tensor::ones([n]));
            decorrelation_loss(tape, ids[0], wn, &DecorrelationKind::Rff { q: 1 }, &mut r).unwrap()
        });
    }

    #[test]
    fn reweighting_can_reduce_dependence() {
        // Construct data where half the samples carry a strong correlation;
        // down-weighting them should reduce the linear loss.
        let mut rng = Rng::seed_from(7);
        let n = 64;
        let mut data = Vec::with_capacity(2 * n);
        for i in 0..n {
            let x = rng.normal();
            let y = if i < n / 2 { x } else { rng.normal() };
            data.push(x);
            data.push(y);
        }
        let z = Tensor::from_vec(data, [n, 2]);
        let uniform = Tensor::ones([n]);
        let mut down = Tensor::ones([n]);
        for i in 0..n / 2 {
            down.data_mut()[i] = 0.2;
        }
        // Keep total mass comparable.
        let s: f32 = down.data().iter().sum();
        down = down.mul_scalar(n as f32 / s);
        let eval = |w: &Tensor| {
            let mut r = Rng::seed_from(1);
            let mut tape = Tape::new();
            let zn = tape.constant(z.clone());
            let wn = tape.leaf(w.clone());
            let l =
                decorrelation_loss(&mut tape, zn, wn, &DecorrelationKind::Linear, &mut r).unwrap();
            tape.value(l).item()
        };
        assert!(
            eval(&down) < eval(&uniform),
            "down-weighting correlated samples must help"
        );
    }

    #[test]
    fn loss_scales_linearly_with_samples() {
        // Doubling n should roughly preserve the loss magnitude (it is an
        // average-based statistic), demonstrating O(n) behaviour rather than
        // growing quadratically.
        let mut rng = Rng::seed_from(8);
        let eval_n = |n: usize, rng: &mut Rng| {
            let z = Tensor::randn([n, 4], rng);
            let w = Tensor::ones([n]);
            let mut tape = Tape::new();
            let zn = tape.constant(z);
            let wn = tape.leaf(w);
            let l = decorrelation_loss(&mut tape, zn, wn, &DecorrelationKind::Linear, rng).unwrap();
            tape.value(l).item()
        };
        let small = eval_n(64, &mut rng);
        let large = eval_n(256, &mut rng);
        // Sample covariance of independent data shrinks with n; the loss
        // must not blow up.
        assert!(large < small * 4.0 + 1.0, "{small} vs {large}");
    }
}
