//! Fused batch normalization: the statistics, forward and backward of
//! [`super::Op::BatchNorm`], with an optional ReLU epilogue.
//!
//! Every value is bitwise-equal to the unfused tape chain it replaces —
//! `mean_axis → sub → square → mean_axis → add_scalar → sqrt → div → mul
//! → add` in training, `sub → sqrt → div → mul → add` on the running
//! statistics in evaluation, then `relu` when the epilogue is on —
//! because each element goes through the same float operations in the
//! same order:
//!
//! * Every column fold runs on the calling thread over whole contiguous
//!   rows, each column in ascending row order starting from `+0.0`: the
//!   order `sum_rows` and the backward column folds use, for any thread
//!   count. Those folds are the two of [`BatchNormStats::of_batch`], the
//!   backward's `gσ/gγ/gβ` fold and its `gμ` fold. Splitting them into
//!   column blocks across threads made every thread write part of every
//!   `gx` row, and the threads then fought over the same cache lines.
//! * The purely elementwise passes are row-parallel: the forward, the
//!   backward's `t` (written into `gx`, which the `gμ` fold then reads
//!   back) and its final add.
//! * Squares are `x · x`: the variance adds `(x − μ)·(x − μ)`, as the
//!   chain's `square` computes it.
//! * In the backward pass, the two gradients that reached `x − μ` and
//!   `x` on the tape are summed in the order the tape's `axpy` summed
//!   them.
//! * The ReLU epilogue takes `y.max(0.0)` after `·γ + β` in the same row
//!   pass, the expression of `Op::Relu`. Its backward masks the incoming
//!   gradient with the op's own output, `if y > 0 { g } else { 0 }`, read
//!   inline in the fold and `t` passes: `y > 0` exactly when the
//!   pre-activation is `> 0` (a NaN pre-activation gives `y = 0`, a `±0`
//!   gives `±0`), which is the rule `Op::Relu` applies to its input.
//!
//! The fusion is exact only while `x` has no consumer besides this op: a
//! second consumer's gradient would be added to `gx` here, not in the
//! order the chain's reverse sweep added it. Every caller today feeds
//! batch norm the output of a `Linear`, which has no other consumer. The
//! epilogue likewise needs the normalized pre-activation to feed only
//! the ReLU, since it is never materialized.

use crate::par;
use crate::pool;
use crate::profile::Kernel;
use crate::simd::{self, LANES};
use crate::tensor::Tensor;

/// The per-column statistics an [`super::Op::BatchNorm`] normalizes with.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormStats {
    mean: Vec<f32>,
    var: Vec<f32>,
    std: Vec<f32>,
    batch: bool,
}

impl BatchNormStats {
    /// Batch statistics of `x: [n, d]` (training mode): per column
    /// `μ = (Σx)·inv`, the biased `var = (Σ (x − μ)·(x − μ))·inv` and
    /// `σ = sqrt(var + eps)`, with `inv = 1/max(n, 1)`. Gradients flow
    /// through them.
    pub fn of_batch(x: &Tensor, eps: f32) -> Self {
        let (n, d) = x.shape().as_matrix();
        let inv = inv_rows(n);
        let (mean, var) = par::sequential(Kernel::Reduce, || {
            let mut mean = vec![0.0f32; d];
            for i in 0..n {
                simd::add_assign(&mut mean, x.row(i));
            }
            for m in &mut mean {
                *m *= inv;
            }
            let mut var = vec![0.0f32; d];
            let mut sq = vec![0.0f32; d];
            for i in 0..n {
                for ((s, &m), &xv) in sq.iter_mut().zip(&mean).zip(x.row(i)) {
                    let d = xv - m;
                    *s = d * d;
                }
                simd::add_assign(&mut var, &sq);
            }
            for v in &mut var {
                *v *= inv;
            }
            (mean, var)
        });
        let std = var.iter().map(|&v| (v + eps).sqrt()).collect();
        BatchNormStats {
            mean,
            var,
            std,
            batch: true,
        }
    }

    /// Fixed statistics (evaluation mode): `μ = running_mean` and
    /// `σ = sqrt(running_var + eps)`, constants for the backward pass.
    pub fn running(running_mean: &Tensor, running_var: &Tensor, eps: f32) -> Self {
        BatchNormStats {
            mean: running_mean.data().to_vec(),
            var: running_var.data().to_vec(),
            std: running_var
                .data()
                .iter()
                .map(|&v| (v + eps).sqrt())
                .collect(),
            batch: false,
        }
    }

    /// Column means `μ`.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Column variances (biased, without `eps`).
    pub fn var(&self) -> &[f32] {
        &self.var
    }

    /// Number of columns.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

/// `1/max(n, 1)`, the `mean_axis` scale in both directions.
fn inv_rows(n: usize) -> f32 {
    1.0 / n.max(1) as f32
}

/// Forward: `y = ((x − μ)/σ)·γ + β`, then `y.max(0.0)` with `relu`, in
/// one row-parallel pass.
pub fn forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    stats: &BatchNormStats,
    relu: bool,
) -> Tensor {
    let (n, d) = x.shape().as_matrix();
    let (mu, sd, g, b) = (&stats.mean, &stats.std, gamma.data(), beta.data());
    let mut out = pool::take_raw(n * d);
    par::for_each_row(
        &mut out,
        n,
        d,
        super::row_grain(d),
        Kernel::Elementwise,
        |i, row| {
            let (xr, row) = (&x.row(i)[..d], &mut row[..d]);
            let (mu, sd, g, b) = (&mu[..d], &sd[..d], &g[..d], &b[..d]);
            for j in 0..d {
                row[j] = ((xr[j] - mu[j]) / sd[j]) * g[j] + b[j];
            }
            if relu {
                simd::map_assign(row, |y| y.max(0.0));
            }
        },
    );
    Tensor::from_vec(out, x.shape().clone())
}

/// The gradients of an [`super::Op::BatchNorm`].
pub struct Grads {
    /// `∂/∂x`, when asked for.
    pub x: Option<Tensor>,
    /// `∂/∂γ`.
    pub gamma: Tensor,
    /// `∂/∂β`.
    pub beta: Tensor,
}

/// Backward for an incoming gradient `grad`, with `gx` computed only when
/// `want_x`. With the ReLU epilogue, `relu_out` is the op's output `y`,
/// and `g` below is `grad` masked by `y > 0`. Per column, `gβ = Σg` and
/// `gγ = Σ g·((x−μ)/σ)`. With batch statistics, `gx` runs the chain's
/// backward through `μ` and `σ`:
///
/// * `gσ = Σ −((g·γ)·(x−μ))/(σ·σ)` and `s = (gσ/(2σ))·inv`;
/// * `t = (g·γ)/σ + (s·2)·(x−μ)` and `gμ = Σ(−t)`;
/// * `gx = t + gμ·inv`.
///
/// With running statistics, `gx = (g·γ)/σ`.
pub fn backward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    stats: &BatchNormStats,
    grad: &Tensor,
    relu_out: Option<&Tensor>,
    want_x: bool,
) -> Grads {
    match relu_out {
        Some(y) => backward_with::<true>(x, gamma, beta, stats, grad, y, want_x),
        None => backward_with::<false>(x, gamma, beta, stats, grad, grad, want_x),
    }
}

/// The incoming gradient at one element: `g`, or with the ReLU epilogue
/// `g` where the output `y` is positive and `0` elsewhere.
#[inline(always)]
fn masked<const RELU: bool>(g: f32, y: f32) -> f32 {
    if !RELU || y > 0.0 {
        g
    } else {
        0.0
    }
}

/// [`backward`], with `y` read only when `RELU`.
fn backward_with<const RELU: bool>(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    stats: &BatchNormStats,
    grad: &Tensor,
    y: &Tensor,
    want_x: bool,
) -> Grads {
    let (n, d) = x.shape().as_matrix();
    let inv = inv_rows(n);
    let (mu, sd, ga) = (&stats.mean[..d], &stats.std[..d], &gamma.data()[..d]);
    let mut g_gamma = pool::take_zeroed(d);
    let mut g_beta = pool::take_zeroed(d);
    let batch_x = want_x && stats.batch;
    // The fold pass: gβ, gγ and, for a batch-statistics gx, gσ.
    let mut g_std = vec![0.0f32; d];
    let cols = [mu, sd, ga];
    let (xd, gd, yd) = (x.data(), grad.data(), y.data());
    par::sequential(Kernel::Reduce, || {
        if batch_x {
            fold_rows::<RELU, true>([xd, gd, yd], cols, [&mut g_gamma, &mut g_beta, &mut g_std]);
        } else {
            fold_rows::<RELU, false>([xd, gd, yd], cols, [&mut g_gamma, &mut g_beta, &mut g_std]);
        }
    });
    let gx = want_x.then(|| {
        let mut gx = pool::take_raw(n * d);
        if !stats.batch {
            par::for_each_row(
                &mut gx,
                n,
                d,
                super::row_grain(d),
                Kernel::Elementwise,
                |i, row| {
                    let (gr, yr, row) = (&grad.row(i)[..d], &y.row(i)[..d], &mut row[..d]);
                    for j in 0..d {
                        row[j] = (masked::<RELU>(gr[j], yr[j]) * ga[j]) / sd[j];
                    }
                },
            );
            return Tensor::from_vec(gx, x.shape().clone());
        }
        let s: Vec<f32> = (0..d).map(|j| (g_std[j] / (2.0 * sd[j])) * inv).collect();
        // The `t` pass.
        par::for_each_row(
            &mut gx,
            n,
            d,
            super::row_grain(d),
            Kernel::Elementwise,
            |i, row| {
                let (xr, gr, yr) = (&x.row(i)[..d], &grad.row(i)[..d], &y.row(i)[..d]);
                let (s, row) = (&s[..d], &mut row[..d]);
                for j in 0..d {
                    let g = masked::<RELU>(gr[j], yr[j]);
                    row[j] = (g * ga[j]) / sd[j] + (s[j] * 2.0) * (xr[j] - mu[j]);
                }
            },
        );
        // The gμ fold over the `t` just written.
        let g_mean = par::sequential(Kernel::Reduce, || {
            let mut g_mean = vec![0.0f32; d];
            fold_neg_rows(&mut g_mean, &gx);
            g_mean
        });
        // The add pass.
        par::for_each_row(
            &mut gx,
            n,
            d,
            super::row_grain(d),
            Kernel::Elementwise,
            |_, row| {
                for (o, &m) in row.iter_mut().zip(&g_mean) {
                    *o += m * inv;
                }
            },
        );
        Tensor::from_vec(gx, x.shape().clone())
    });
    Grads {
        x: gx,
        gamma: Tensor::from_vec(g_gamma, gamma.shape().clone()),
        beta: Tensor::from_vec(g_beta, beta.shape().clone()),
    }
}

/// The fold pass over whole rows of `x`, `g` and `y`, in ascending row
/// order: `gβ += g`, `gγ += g·((x−μ)/σ)` and, with `STD`,
/// `gσ += −((g·γ)·(x−μ))/(σ·σ)`, where `g` is masked by `y` with `RELU`.
///
/// A row's first `d − d % LANES` columns and its tail are separate loops,
/// the partition [`simd::add_terms`] folds the chain's rows with, so the
/// two compile alike and even a NaN's sign comes out as the chain's. Kept
/// out of line so the accumulators' `&mut` tells the compiler they alias
/// no input, and no run-time overlap check picks another code path.
#[inline(never)]
fn fold_rows<const RELU: bool, const STD: bool>(
    [x, grad, y]: [&[f32]; 3],
    [mu, sd, ga]: [&[f32]; 3],
    [gg, gb, g_std]: [&mut [f32]; 3],
) {
    let d = mu.len();
    if d == 0 {
        return;
    }
    let main = d - d % LANES;
    let rows = x
        .chunks_exact(d)
        .zip(grad.chunks_exact(d))
        .zip(y.chunks_exact(d));
    for ((xr, gr), yr) in rows {
        let (ins, cols) = ([xr, gr, yr], [mu, sd, ga]);
        for j in 0..main {
            fold_step::<RELU, STD>(j, ins, cols, [&mut *gg, &mut *gb, &mut *g_std]);
        }
        for j in main..d {
            fold_step::<RELU, STD>(j, ins, cols, [&mut *gg, &mut *gb, &mut *g_std]);
        }
    }
}

/// Column `j` of one row of [`fold_rows`]. Each term is added as
/// `term + acc`: IEEE addition is commutative except for which NaN a
/// `NaN + NaN` returns, and in this order the compiled fold returns the
/// term's, as the chain's does.
#[allow(clippy::assign_op_pattern)] // `acc += term` is `acc + term`
#[inline(always)]
fn fold_step<const RELU: bool, const STD: bool>(
    j: usize,
    [x, grad, y]: [&[f32]; 3],
    [mu, sd, ga]: [&[f32]; 3],
    [gg, gb, g_std]: [&mut [f32]; 3],
) {
    let (g, xc) = (masked::<RELU>(grad[j], y[j]), x[j] - mu[j]);
    gb[j] = g + gb[j];
    gg[j] = g * (xc / sd[j]) + gg[j];
    if STD {
        g_std[j] = -((g * ga[j]) * xc) / (sd[j] * sd[j]) + g_std[j];
    }
}

/// `acc += −t` row by row over the `[n, d]` rows of `t`, split and
/// ordered like [`fold_rows`], each term added as `term + acc`.
#[allow(clippy::assign_op_pattern)] // `acc += term` is `acc + term`
#[inline(never)]
fn fold_neg_rows(acc: &mut [f32], t: &[f32]) {
    let d = acc.len();
    if d == 0 {
        return;
    }
    let main = d - d % LANES;
    for row in t.chunks_exact(d) {
        let row = &row[..d];
        for j in 0..main {
            acc[j] = -row[j] + acc[j];
        }
        for j in main..d {
            acc[j] = -row[j] + acc[j];
        }
    }
}
