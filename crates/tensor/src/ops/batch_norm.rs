//! Fused batch normalization: the statistics, forward and backward of
//! [`super::Op::BatchNorm`].
//!
//! Every value is bitwise-equal to the unfused tape chain it replaces —
//! `mean_axis → sub → square → mean_axis → add_scalar → sqrt → div → mul
//! → add` in training, `sub → sqrt → div → mul → add` on the running
//! statistics in evaluation — because each element goes through the same
//! float operations in the same order:
//!
//! * Columns are independent, so the kernels work on blocks of
//!   16 columns in parallel, and each block runs every fold of its
//!   columns over the rows in ascending order, starting from `+0.0`. That
//!   is the order `sum_rows` and the backward column folds use, and it
//!   does not depend on the thread count.
//! * The square stays `powf(x − μ, 2)` with a runtime exponent, as the
//!   chain's `pow_scalar` computed it: `powf(x, 2)` and `x · x` round
//!   differently on some inputs, and a literal exponent would let the
//!   compiler rewrite one into the other.
//! * In the backward pass, the two gradients that reached `x − μ` and
//!   `x` on the tape are summed in the order the tape's `axpy` summed
//!   them.
//!
//! The fusion is exact only while `x` has no consumer besides this op: a
//! second consumer's gradient would be added to `gx` here, not in the
//! order the chain's reverse sweep added it. Every caller today feeds
//! batch norm the output of a `Linear`, which has no other consumer.

use crate::par::{self, SendPtr};
use crate::pool;
use crate::profile::Kernel;
use crate::tensor::Tensor;

/// Columns per parallel block.
const BLOCK: usize = 16;

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
    /// `μ = (Σx)·inv`, the biased `var = (Σ powf(x − μ, 2))·inv` and
    /// `σ = sqrt(var + eps)`, with `inv = 1/max(n, 1)`. Gradients flow
    /// through them.
    pub fn of_batch(x: &Tensor, eps: f32) -> Self {
        let (n, d) = x.shape().as_matrix();
        let inv = inv_rows(n);
        let two = std::hint::black_box(2.0f32);
        let mut mean = vec![0.0f32; d];
        let mut var = vec![0.0f32; d];
        let (mp, vp) = (SendPtr(mean.as_mut_ptr()), SendPtr(var.as_mut_ptr()));
        for_each_block(n, d, Kernel::Reduce, |j0, w| {
            // SAFETY: `mean` and `var` hold `d` entries and outlive the
            // region, and each block's columns `j0..j0 + w` are visited by
            // one chunk only.
            let mu = unsafe { std::slice::from_raw_parts_mut(mp.get().add(j0), w) };
            let vr = unsafe { std::slice::from_raw_parts_mut(vp.get().add(j0), w) };
            for i in 0..n {
                for (m, &xv) in mu.iter_mut().zip(&x.row(i)[j0..j0 + w]) {
                    *m += xv;
                }
            }
            for m in mu.iter_mut() {
                *m *= inv;
            }
            for i in 0..n {
                for ((v, &m), &xv) in vr.iter_mut().zip(mu.iter()).zip(&x.row(i)[j0..j0 + w]) {
                    *v += (xv - m).powf(two);
                }
            }
            for v in vr.iter_mut() {
                *v *= inv;
            }
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

/// Run `f(j0, width)` for every block of `BLOCK` columns of a `[n, d]`
/// matrix, one block per chunk, in parallel when the matrix is big
/// enough.
fn for_each_block(n: usize, d: usize, kernel: Kernel, f: impl Fn(usize, usize) + Sync) {
    par::for_each_chunk_weighted(d.div_ceil(BLOCK), 1, kernel, n * d, |range| {
        for b in range {
            let j0 = b * BLOCK;
            f(j0, BLOCK.min(d - j0));
        }
    });
}

/// Forward: `y = ((x − μ)/σ)·γ + β`, one row-parallel pass.
pub fn forward(x: &Tensor, gamma: &Tensor, beta: &Tensor, stats: &BatchNormStats) -> Tensor {
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
            let (xr, mu, sd, g, b) = (x.row(i), &mu[..d], &sd[..d], &g[..d], &b[..d]);
            for j in 0..d {
                row[j] = ((xr[j] - mu[j]) / sd[j]) * g[j] + b[j];
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
/// `want_x`. Per column, `gβ = Σg` and `gγ = Σ g·((x−μ)/σ)`. With batch
/// statistics, `gx` runs the chain's backward through `μ` and `σ`:
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
    want_x: bool,
) -> Grads {
    let (n, d) = x.shape().as_matrix();
    let inv = inv_rows(n);
    let (mu, sd, ga) = (&stats.mean, &stats.std, gamma.data());
    let mut g_gamma = pool::take_zeroed(d);
    let mut g_beta = pool::take_zeroed(d);
    let batch_x = want_x && stats.batch;
    let mut gx = if want_x {
        pool::take_raw(n * d)
    } else {
        Vec::new()
    };
    let (gp, bp, xp) = (
        SendPtr(g_gamma.as_mut_ptr()),
        SendPtr(g_beta.as_mut_ptr()),
        SendPtr(gx.as_mut_ptr()),
    );
    for_each_block(n, d, Kernel::Reduce, |j0, w| {
        let cols = j0..j0 + w;
        let (mu, sd, ga) = (&mu[cols.clone()], &sd[cols.clone()], &ga[cols.clone()]);
        let rows = || {
            x.data()
                .chunks_exact(d)
                .zip(grad.data().chunks_exact(d))
                .map(|(xr, gr)| (&xr[cols.clone()], &gr[cols.clone()]))
        };
        // SAFETY: `g_gamma` and `g_beta` hold `d` entries, and `gx` holds
        // `n · d` whenever `gx_row` is called (only with `want_x`); all
        // outlive the region. Each block's columns `j0..j0 + w` are
        // visited by one chunk only, so no two chunks' slices overlap, and
        // each `gx_row` slice is dropped before the next is made.
        let gg = unsafe { std::slice::from_raw_parts_mut(gp.get().add(j0), w) };
        let gb = unsafe { std::slice::from_raw_parts_mut(bp.get().add(j0), w) };
        let gx_row =
            |i: usize| unsafe { std::slice::from_raw_parts_mut(xp.get().add(i * d + j0), w) };
        // The fold pass: gβ, gγ and, for gx, gσ.
        let mut g_std = [0.0f32; BLOCK];
        let g_std = &mut g_std[..w];
        if !batch_x {
            fold_rows::<false>(rows(), [mu, sd, ga], gg, gb, g_std);
            return;
        }
        fold_rows::<true>(rows(), [mu, sd, ga], gg, gb, g_std);
        let mut s = [0.0f32; BLOCK];
        let s = &mut s[..w];
        for j in 0..w {
            s[j] = (g_std[j] / (2.0 * sd[j])) * inv;
        }
        // The elementwise pass, folding gμ.
        let mut g_mean = [0.0f32; BLOCK];
        let g_mean = &mut g_mean[..w];
        for (i, (xr, gr)) in rows().enumerate() {
            let out = gx_row(i);
            for j in 0..w {
                let t = (gr[j] * ga[j]) / sd[j] + (s[j] * 2.0) * (xr[j] - mu[j]);
                out[j] = t;
                g_mean[j] += -t;
            }
        }
        // The add pass.
        for i in 0..n {
            let out = gx_row(i);
            for j in 0..w {
                out[j] += g_mean[j] * inv;
            }
        }
    });
    if want_x && !stats.batch {
        par::for_each_row(
            &mut gx,
            n,
            d,
            super::row_grain(d),
            Kernel::Elementwise,
            |i, row| {
                let (gr, ga, sd) = (grad.row(i), &ga[..d], &sd[..d]);
                for j in 0..d {
                    row[j] = (gr[j] * ga[j]) / sd[j];
                }
            },
        );
    }
    Grads {
        x: want_x.then(|| Tensor::from_vec(gx, x.shape().clone())),
        gamma: Tensor::from_vec(g_gamma, gamma.shape().clone()),
        beta: Tensor::from_vec(g_beta, beta.shape().clone()),
    }
}

/// The fold pass over one block's `(x, g)` row slices, in ascending row
/// order: `gβ += g` and `gγ += g·((x−μ)/σ)`, and with `STD` also
/// `gσ += −((g·γ)·(x−μ))/(σ·σ)`.
fn fold_rows<'r, const STD: bool>(
    rows: impl Iterator<Item = (&'r [f32], &'r [f32])>,
    [mu, sd, ga]: [&[f32]; 3],
    gg: &mut [f32],
    gb: &mut [f32],
    g_std: &mut [f32],
) {
    let w = mu.len();
    let (sd, ga) = (&sd[..w], &ga[..w]);
    let (gg, gb, g_std) = (&mut gg[..w], &mut gb[..w], &mut g_std[..w]);
    for (xr, gr) in rows {
        let (xr, gr) = (&xr[..w], &gr[..w]);
        for j in 0..w {
            let (g, xc) = (gr[j], xr[j] - mu[j]);
            gb[j] += g;
            gg[j] += g * (xc / sd[j]);
            if STD {
                g_std[j] += -((g * ga[j]) * xc) / (sd[j] * sd[j]);
            }
        }
    }
}
