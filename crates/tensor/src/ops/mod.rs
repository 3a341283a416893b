//! Differentiable operations: the [`Op`] enum, forward/backward rules, and
//! the builder methods on [`Tape`] that record them.
//!
//! Every op's backward rule is hand-written and covered by central
//! finite-difference gradient checks (see `crate::check` and the crate's
//! integration tests).

pub mod batch_norm;
pub mod loss;

pub use batch_norm::BatchNormStats;

use crate::csr::{self, CsrIndex};
use crate::par;
use crate::pool;
use crate::profile::Kernel;
use crate::shape::{broadcast_shapes, fold_grad_to, reduce_grad_to, Shape};
use crate::simd;
use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;
use std::rc::Rc;

/// Rows per chunk for row-wise kernels, scaled by the row width.
fn row_grain(cols: usize) -> usize {
    (4096 / cols.max(1)).max(1)
}

/// The gradient reaching operand `y` of a broadcasting binary op whose
/// other operand is `x`: `term(g, x)` at every output element, summed
/// down to `y`'s shape when `y` was broadcast.
fn operand_grad(
    grad: &Tensor,
    x: &Tensor,
    y: &Tensor,
    term: impl Fn(f32, f32) -> f32 + Sync,
) -> Tensor {
    if y.shape() == grad.shape() {
        grad.zip_broadcast(x, term)
    } else {
        fold_grad_to(grad, x, y, |g, xx, _| term(g, xx))
    }
}

/// Axis selector for matrix reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Reduce over rows (output has one entry per column).
    Rows,
    /// Reduce over columns (output has one entry per row).
    Cols,
}

/// A recorded differentiable operation. Fields are the input node ids plus
/// whatever constants the backward rule needs.
#[derive(Clone)]
pub enum Op {
    /// A leaf (parameter or constant); no inputs.
    Leaf,
    /// Broadcasting element-wise addition.
    Add(NodeId, NodeId),
    /// Broadcasting element-wise subtraction.
    Sub(NodeId, NodeId),
    /// Broadcasting element-wise multiplication.
    Mul(NodeId, NodeId),
    /// Broadcasting element-wise division.
    Div(NodeId, NodeId),
    /// Element-wise negation.
    Neg(NodeId),
    /// Add a scalar constant.
    AddScalar(NodeId, f32),
    /// Multiply by a scalar constant.
    MulScalar(NodeId, f32),
    /// Raise to a scalar power; a square is computed as `x · x`.
    PowScalar(NodeId, f32),
    /// Dense 2-D matrix product.
    Matmul(NodeId, NodeId),
    /// Affine map `x·W + b` for `x: [n,k]`, `W: [k,m]`, `b: [m]` — the
    /// `matmul → add` chain with the bias added in the matmul's row pass —
    /// followed, when the flag is set, by a ReLU epilogue in the same
    /// pass. See [`Tape::linear_relu`].
    Linear(NodeId, NodeId, NodeId, bool),
    /// 2-D transpose.
    Transpose(NodeId),
    /// Rectified linear unit.
    Relu(NodeId),
    /// Logistic sigmoid.
    Sigmoid(NodeId),
    /// Hyperbolic tangent.
    Tanh(NodeId),
    /// Element-wise cosine (used by random Fourier features).
    Cos(NodeId),
    /// Element-wise exponential.
    Exp(NodeId),
    /// Element-wise square root.
    Sqrt(NodeId),
    /// Numerically stable `log(1 + e^x)`.
    Softplus(NodeId),
    /// Sum of all elements to a scalar.
    Sum(NodeId),
    /// Mean of all elements to a scalar.
    Mean(NodeId),
    /// Matrix reduction along an axis to a vector.
    SumAxis(NodeId, Axis),
    /// Matrix mean along an axis to a vector.
    MeanAxis(NodeId, Axis),
    /// Shape change preserving element order.
    Reshape(NodeId, Shape),
    /// Vertical concatenation of matrices (equal column counts).
    ConcatRows(Rc<Vec<NodeId>>),
    /// Horizontal concatenation of matrices (equal row counts).
    ConcatCols(Rc<Vec<NodeId>>),
    /// Row gather: `out[i] = in[idx[i]]`.
    IndexSelect(NodeId, Rc<Vec<usize>>),
    /// Row scatter-add: `out[idx[i]] += in[i]` into `num_rows` rows.
    ScatterAddRows(NodeId, Rc<Vec<usize>>, usize),
    /// Fused message passing `out[dst[e]] += in[src[e]]` into `num_rows`
    /// rows — `IndexSelect(src)` then `ScatterAddRows(dst)` without the
    /// `[E, c]` message tensor.
    NeighborSum(NodeId, Rc<Vec<usize>>, Rc<Vec<usize>>, usize),
    /// GIN's aggregation `x·(ε+1) + Σ_{e: dst[e]=s} x[src[e]]` of
    /// `x: [n, c]` with a one-element `ε` — the `neighbor_sum → add_scalar
    /// → mul → add` chain as one op, its forward and `gx` bitwise-equal to
    /// the chain's. See [`Tape::gin_aggregate`].
    GinAggregate(NodeId, NodeId, Rc<Vec<usize>>, Rc<Vec<usize>>, usize),
    /// Per-segment max over rows (empty segments produce 0).
    SegmentMax(NodeId, Rc<Vec<usize>>, usize),
    /// Per-segment min over rows (empty segments produce 0).
    SegmentMin(NodeId, Rc<Vec<usize>>, usize),
    /// Row-wise log-softmax of a matrix.
    LogSoftmax(NodeId),
    /// Fused weighted centering `w ⊙ x − colmean(w ⊙ x)` for `x: [n,d]`,
    /// `w: [n,1]` — the decorrelation `mul → mean_axis → sub` chain as a
    /// single two-pass kernel over one output buffer.
    WeightedCenter(NodeId, NodeId),
    /// Fused scalar penalty `Σ (scale · x ⊙ mask)²` with a constant mask
    /// — the pair-penalty `mul_scalar → mul → square → sum` chain as one
    /// single-pass reduction, no intermediates materialized.
    ScaledMaskedSqSum(NodeId, Rc<Tensor>, f32),
    /// Fused RFF feature `amp · cos(x ⊙ w_row + phi_row)` with constant
    /// `[d]` rows broadcast over the rows of `x: [n,d]` — one node per
    /// feature instead of four ops plus two constant nodes.
    CosFeature(NodeId, Rc<Tensor>, Rc<Tensor>, f32),
    /// Fused batch normalization `((x − μ)/σ)·γ + β` of `x: [n,d]` with
    /// per-column statistics: the nine-op training chain (or the
    /// five-op evaluation chain) as one op, bitwise-equal to it, followed
    /// by a ReLU epilogue when the flag is set. See [`batch_norm`].
    BatchNorm(NodeId, NodeId, NodeId, Rc<BatchNormStats>, bool),
}

impl Op {
    /// The input node ids of this op.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Leaf => vec![],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Matmul(a, b)
            | Op::WeightedCenter(a, b)
            | Op::GinAggregate(a, b, _, _, _) => {
                vec![*a, *b]
            }
            Op::Neg(a)
            | Op::AddScalar(a, _)
            | Op::MulScalar(a, _)
            | Op::PowScalar(a, _)
            | Op::Transpose(a)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Cos(a)
            | Op::Exp(a)
            | Op::Sqrt(a)
            | Op::Softplus(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::SumAxis(a, _)
            | Op::MeanAxis(a, _)
            | Op::Reshape(a, _)
            | Op::IndexSelect(a, _)
            | Op::ScatterAddRows(a, _, _)
            | Op::NeighborSum(a, _, _, _)
            | Op::SegmentMax(a, _, _)
            | Op::SegmentMin(a, _, _)
            | Op::LogSoftmax(a)
            | Op::ScaledMaskedSqSum(a, _, _)
            | Op::CosFeature(a, _, _, _) => vec![*a],
            Op::Linear(a, b, c, _) | Op::BatchNorm(a, b, c, _, _) => vec![*a, *b, *c],
            Op::ConcatRows(xs) | Op::ConcatCols(xs) => xs.as_ref().clone(),
        }
    }

    /// Compute the forward value of this op from its inputs on `tape`.
    pub(crate) fn forward(&self, tape: &Tape) -> Tensor {
        let v = |id: &NodeId| tape.value(*id);
        match self {
            Op::Leaf => unreachable!("Leaf has no forward"),
            Op::Add(a, b) => v(a).add(v(b)),
            Op::Sub(a, b) => v(a).sub(v(b)),
            Op::Mul(a, b) => v(a).mul(v(b)),
            Op::Div(a, b) => v(a).div(v(b)),
            Op::Neg(a) => v(a).map(|x| -x),
            Op::AddScalar(a, c) => v(a).add_scalar(*c),
            Op::MulScalar(a, c) => v(a).mul_scalar(*c),
            Op::PowScalar(a, p) if *p == 2.0 => v(a).map(|x| x * x),
            Op::PowScalar(a, p) => v(a).map(|x| x.powf(*p)),
            Op::Matmul(a, b) => v(a).matmul(v(b)),
            Op::Linear(x, w, b, relu) => v(x).matmul_bias(v(w), Some(v(b)), *relu),
            Op::Transpose(a) => v(a).transpose(),
            Op::Relu(a) => v(a).map(|x| x.max(0.0)),
            Op::Sigmoid(a) => v(a).map(sigmoid),
            Op::Tanh(a) => v(a).map(f32::tanh),
            Op::Cos(a) => v(a).map(f32::cos),
            Op::Exp(a) => v(a).map(f32::exp),
            Op::Sqrt(a) => v(a).map(f32::sqrt),
            Op::Softplus(a) => v(a).map(softplus),
            Op::Sum(a) => Tensor::scalar(v(a).sum()),
            Op::Mean(a) => Tensor::scalar(v(a).mean()),
            Op::SumAxis(a, axis) => sum_axis(v(a), *axis),
            Op::MeanAxis(a, axis) => {
                let x = v(a);
                let n = match axis {
                    Axis::Rows => x.nrows(),
                    Axis::Cols => x.ncols(),
                };
                sum_axis(x, *axis).mul_scalar(1.0 / n.max(1) as f32)
            }
            Op::Reshape(a, shape) => v(a).reshape(shape.clone()),
            Op::ConcatRows(xs) => {
                let parts: Vec<&Tensor> = xs.iter().map(|id| tape.value(*id)).collect();
                Tensor::vcat(&parts)
            }
            Op::ConcatCols(xs) => {
                concat_cols(&xs.iter().map(|id| tape.value(*id)).collect::<Vec<_>>())
            }
            Op::IndexSelect(a, idx) => v(a).index_select_rows(idx),
            Op::ScatterAddRows(a, idx, n) => v(a).scatter_add_rows_csr(&csr::cached(idx, *n)),
            Op::NeighborSum(a, src, dst, n) => v(a).gather_scatter_csr(src, &csr::cached(dst, *n)),
            Op::GinAggregate(x, eps, src, dst, n) => {
                let scale = v(eps).item() + 1.0;
                v(x).gather_scatter_csr_plus_self(src, &csr::cached(dst, *n), Some(scale))
            }
            Op::SegmentMax(a, seg, n) => segment_extreme(v(a), &csr::cached(seg, *n), true).0,
            Op::SegmentMin(a, seg, n) => segment_extreme(v(a), &csr::cached(seg, *n), false).0,
            Op::LogSoftmax(a) => log_softmax(v(a)),
            Op::WeightedCenter(a, b) => weighted_center(v(a), v(b)),
            Op::ScaledMaskedSqSum(a, mask, scale) => {
                Tensor::scalar(scaled_masked_sq_sum(v(a), mask, *scale))
            }
            Op::CosFeature(a, w_row, phi_row, amp) => cos_feature(v(a), w_row, phi_row, *amp),
            Op::BatchNorm(x, gamma, beta, stats, relu) => {
                batch_norm::forward(v(x), v(gamma), v(beta), stats, *relu)
            }
        }
    }

    /// Given the output `value` and the incoming gradient `grad`, compute the
    /// gradients flowing into each input. The multi-operand ops compute an
    /// operand's gradient only when that operand needs one: constants
    /// (input features, dropout masks, degree counts) get none.
    pub(crate) fn backward(
        &self,
        tape: &Tape,
        value: &Tensor,
        grad: &Tensor,
    ) -> Vec<(NodeId, Tensor)> {
        let v = |id: &NodeId| tape.value(*id);
        match self {
            Op::Leaf => vec![],
            Op::Add(a, b) => tape.operand_grads([
                (*a, &|| reduce_grad_to(grad, v(a).shape())),
                (*b, &|| reduce_grad_to(grad, v(b).shape())),
            ]),
            Op::Sub(a, b) => tape.operand_grads([
                (*a, &|| reduce_grad_to(grad, v(a).shape())),
                (*b, &|| operand_grad(grad, grad, v(b), |g, _| -g)),
            ]),
            Op::Mul(a, b) => {
                let (va, vb) = (v(a), v(b));
                tape.operand_grads([
                    (*a, &|| operand_grad(grad, vb, va, |g, bb| g * bb)),
                    (*b, &|| operand_grad(grad, va, vb, |g, aa| g * aa)),
                ])
            }
            Op::Div(a, b) => {
                let (va, vb) = (v(a), v(b));
                tape.operand_grads([
                    (*a, &|| operand_grad(grad, vb, va, |g, bb| g / bb)),
                    (*b, &|| {
                        // An unbroadcast `b` has nothing to fold.
                        if vb.shape() == grad.shape() {
                            let gnum = grad.zip_broadcast(va, |g, aa| g * aa);
                            gnum.zip_broadcast(vb, |t, bb| -t / (bb * bb))
                        } else {
                            fold_grad_to(grad, va, vb, |g, aa, bb| -(g * aa) / (bb * bb))
                        }
                    }),
                ])
            }
            Op::Neg(a) => vec![(*a, grad.map(|x| -x))],
            Op::AddScalar(a, _) => vec![(*a, grad.clone())],
            Op::MulScalar(a, c) => vec![(*a, grad.mul_scalar(*c))],
            Op::PowScalar(a, p) => {
                let x = v(a);
                // powf(x, 1.0) == x for every x, so squares skip the powf.
                let g = if *p == 2.0 {
                    grad.zip_broadcast(x, |g, x| g * p * x)
                } else {
                    grad.zip_broadcast(x, |g, x| g * p * x.powf(p - 1.0))
                };
                vec![(*a, g)]
            }
            Op::Matmul(a, b) => tape.operand_grads([
                (*a, &|| grad.matmul(&v(b).transpose())),
                (*b, &|| v(a).matmul_tn(grad)),
            ]),
            Op::Linear(x, w, b, relu) => {
                // The ReLU epilogue's gradient, masked by the output once
                // and shared by the three operands.
                let masked = relu.then(|| relu_grad(grad, value));
                let grad = masked.as_ref().unwrap_or(grad);
                tape.operand_grads([
                    (*x, &|| grad.matmul(&v(w).transpose())),
                    (*w, &|| v(x).matmul_tn(grad)),
                    (*b, &|| reduce_grad_to(grad, v(b).shape())),
                ])
            }
            Op::Transpose(a) => vec![(*a, grad.transpose())],
            Op::Relu(a) => vec![(*a, relu_grad(grad, v(a)))],
            Op::Sigmoid(a) => {
                let g = grad.zip_broadcast(value, |g, y| g * y * (1.0 - y));
                vec![(*a, g)]
            }
            Op::Tanh(a) => {
                let g = grad.zip_broadcast(value, |g, y| g * (1.0 - y * y));
                vec![(*a, g)]
            }
            Op::Cos(a) => {
                let g = grad.zip_broadcast(v(a), |g, x| -g * x.sin());
                vec![(*a, g)]
            }
            Op::Exp(a) => {
                let g = grad.zip_broadcast(value, |g, y| g * y);
                vec![(*a, g)]
            }
            Op::Sqrt(a) => {
                let g = grad.zip_broadcast(value, |g, y| g / (2.0 * y));
                vec![(*a, g)]
            }
            Op::Softplus(a) => {
                let g = grad.zip_broadcast(v(a), |g, x| g * sigmoid(x));
                vec![(*a, g)]
            }
            Op::Sum(a) => {
                let s = grad.item();
                vec![(*a, Tensor::full(v(a).shape().clone(), s))]
            }
            Op::Mean(a) => {
                let n = v(a).numel().max(1) as f32;
                vec![(*a, Tensor::full(v(a).shape().clone(), grad.item() / n))]
            }
            Op::SumAxis(a, axis) => vec![(*a, spread_axis(grad, v(a).shape(), *axis, 1.0))],
            Op::MeanAxis(a, axis) => {
                let x = v(a);
                let n = match axis {
                    Axis::Rows => x.nrows(),
                    Axis::Cols => x.ncols(),
                } as f32;
                vec![(*a, spread_axis(grad, x.shape(), *axis, 1.0 / n.max(1.0)))]
            }
            Op::Reshape(a, _) => vec![(*a, grad.reshape(v(a).shape().clone()))],
            Op::ConcatRows(xs) => {
                let c = value.ncols();
                let mut out = Vec::with_capacity(xs.len());
                let mut row = 0usize;
                for id in xs.iter() {
                    let r = tape.value(*id).nrows();
                    let data = grad.data()[row * c..(row + r) * c].to_vec();
                    out.push((*id, Tensor::from_vec(data, [r, c])));
                    row += r;
                }
                out
            }
            Op::ConcatCols(xs) => {
                let rows = value.nrows();
                let mut out = Vec::with_capacity(xs.len());
                let mut col = 0usize;
                let total_c = value.ncols();
                for id in xs.iter() {
                    let c = tape.value(*id).ncols();
                    let mut g = Tensor::zeros([rows, c]);
                    let gd = g.data_mut();
                    for i in 0..rows {
                        for j in 0..c {
                            gd[i * c + j] = grad.data()[i * total_c + col + j];
                        }
                    }
                    out.push((*id, g));
                    col += c;
                }
                out
            }
            Op::IndexSelect(a, idx) => {
                let n = v(a).nrows();
                vec![(*a, grad.scatter_add_rows_csr(&csr::cached(idx, n)))]
            }
            Op::ScatterAddRows(a, idx, _) => vec![(*a, grad.index_select_rows(idx))],
            Op::NeighborSum(a, src, dst, _) => {
                // The same kernel with the roles swapped: input row s
                // collects grad[dst[e]] over the edges leaving it.
                let n = v(a).nrows();
                vec![(*a, grad.gather_scatter_csr(dst, &csr::cached(src, n)))]
            }
            Op::GinAggregate(x, eps, src, dst, n) => {
                // `gx` is the forward kernel on `grad` with the roles of
                // `src` and `dst` swapped; `gε = Σ g·x`.
                let (vx, ve) = (v(x), v(eps));
                tape.operand_grads([
                    (*x, &|| {
                        let scale = ve.item() + 1.0;
                        grad.gather_scatter_csr_plus_self(dst, &csr::cached(src, *n), Some(scale))
                    }),
                    (*eps, &|| {
                        Tensor::from_vec(vec![dot(grad, vx)], ve.shape().clone())
                    }),
                ])
            }
            Op::SegmentMax(a, seg, n) => {
                vec![(
                    *a,
                    segment_extreme_backward(v(a), &csr::cached(seg, *n), true, grad),
                )]
            }
            Op::SegmentMin(a, seg, n) => {
                vec![(
                    *a,
                    segment_extreme_backward(v(a), &csr::cached(seg, *n), false, grad),
                )]
            }
            Op::WeightedCenter(a, b) => {
                let (gx, gw) = weighted_center_backward(v(a), v(b), grad);
                vec![(*a, gx), (*b, gw)]
            }
            Op::ScaledMaskedSqSum(a, mask, scale) => {
                vec![(
                    *a,
                    scaled_masked_sq_sum_grad(v(a), mask, *scale, grad.item()),
                )]
            }
            Op::CosFeature(a, w_row, phi_row, amp) => {
                vec![(*a, cos_feature_backward(v(a), w_row, phi_row, *amp, grad))]
            }
            Op::BatchNorm(x, gamma, beta, stats, relu) => {
                // `gγ` and `gβ` share the fold pass; `gx` is the expensive part.
                let want_x = tape.nodes[x.0].needs_grad;
                let relu_out = relu.then_some(value);
                let g =
                    batch_norm::backward(v(x), v(gamma), v(beta), stats, grad, relu_out, want_x);
                let mut out = vec![(*gamma, g.gamma), (*beta, g.beta)];
                out.extend(g.x.map(|gx| (*x, gx)));
                out
            }
            Op::LogSoftmax(a) => {
                // dx = g - softmax(x) * rowsum(g)
                let (r, c) = value.shape().as_matrix();
                let mut g = Tensor::zeros([r, c]);
                par::for_each_row(
                    g.data_mut(),
                    r,
                    c,
                    row_grain(c),
                    Kernel::LogSoftmax,
                    |i, g_row| {
                        let gs = simd::sum(grad.row(i));
                        simd::zip_to(grad.row(i), value.row(i), g_row, |g, lp| g - lp.exp() * gs);
                    },
                );
                vec![(*a, g)]
            }
        }
    }
}

/// ReLU's backward rule: `g` where `x > 0`, else `0`. `x` is either the
/// pre-activation or the ReLU's own output, which are positive at the same
/// elements (a NaN pre-activation has output `0`, a `±0` has `±0`).
fn relu_grad(grad: &Tensor, x: &Tensor) -> Tensor {
    grad.zip_broadcast(x, |g, x| if x > 0.0 { g } else { 0.0 })
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[inline]
fn softplus(x: f32) -> f32 {
    // log(1 + e^x) computed stably for large |x|.
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

fn sum_axis(x: &Tensor, axis: Axis) -> Tensor {
    let (r, c) = x.shape().as_matrix();
    match axis {
        Axis::Rows => x.sum_rows(),
        Axis::Cols => {
            let mut out = Tensor::zeros([r]);
            let od = out.data_mut();
            for (i, slot) in od.iter_mut().enumerate() {
                *slot = x.row(i).iter().sum();
            }
            let _ = c;
            out
        }
    }
}

/// Spread a reduced vector gradient back over the matrix shape, scaled.
fn spread_axis(grad: &Tensor, input_shape: &Shape, axis: Axis, scale: f32) -> Tensor {
    let (r, c) = input_shape.as_matrix();
    let gd = grad.data();
    debug_assert_eq!(gd.len(), if axis == Axis::Rows { c } else { r });
    let mut out = pool::take_raw(r * c);
    par::for_each_row(
        &mut out,
        r,
        c,
        row_grain(c),
        Kernel::Elementwise,
        |i, row| match axis {
            Axis::Rows => simd::map_to(gd, row, |g| g * scale),
            Axis::Cols => row.fill(gd[i] * scale),
        },
    );
    Tensor::from_vec(out, [r, c])
}

fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_cols of zero tensors");
    let r = parts[0].nrows();
    let total_c: usize = parts.iter().map(|t| t.ncols()).sum();
    let mut out = Tensor::zeros([r, total_c]);
    let od = out.data_mut();
    let mut col = 0usize;
    for p in parts {
        assert_eq!(p.nrows(), r, "concat_cols row mismatch");
        let c = p.ncols();
        for i in 0..r {
            for j in 0..c {
                od[i * total_c + col + j] = p.at(i, j);
            }
        }
        col += c;
    }
    out
}

/// Per-segment extreme over rows: `(values, argrows)`. Empty segments give 0
/// and argrow `usize::MAX`. Tie-break: first row wins.
///
/// Parallelized over *output* segments through a (typically cached)
/// [`CsrIndex`]; within a segment candidates are scanned in ascending input
/// row order with the same strict comparison as the original input-order
/// sweep, so values, tie-breaks and argrows are identical at any thread
/// count.
fn segment_extreme(x: &Tensor, csr: &CsrIndex, is_max: bool) -> (Tensor, Vec<usize>) {
    let (r, c) = x.shape().as_matrix();
    assert_eq!(r, csr.num_items(), "segment ids must cover every row");
    let n = csr.num_rows();
    let mut vals = Tensor::zeros([n, c]);
    let mut args = vec![usize::MAX; n * c];
    {
        let args_base = par::SendPtr(args.as_mut_ptr());
        par::for_each_row(
            vals.data_mut(),
            n,
            c,
            row_grain(c),
            Kernel::Segment,
            |s, val_row| {
                // Disjoint args rows: each segment is visited by one chunk.
                let arg_row =
                    unsafe { std::slice::from_raw_parts_mut(args_base.get().add(s * c), c) };
                let rows = csr.row(s);
                if rows.is_empty() {
                    return; // empty segment: zeros + usize::MAX markers
                }
                let init = if is_max {
                    f32::NEG_INFINITY
                } else {
                    f32::INFINITY
                };
                val_row.fill(init);
                for &i in rows {
                    for (j, slot) in val_row.iter_mut().enumerate() {
                        let xv = x.at(i, j);
                        let better = if is_max { xv > *slot } else { xv < *slot };
                        if better {
                            *slot = xv;
                            arg_row[j] = i;
                        }
                    }
                }
                // Entries never beaten (e.g. all-(-inf) candidates): 0, like
                // an empty segment.
                for (j, slot) in val_row.iter_mut().enumerate() {
                    if arg_row[j] == usize::MAX {
                        *slot = 0.0;
                    }
                }
            },
        );
    }
    (vals, args)
}

fn segment_extreme_backward(x: &Tensor, csr: &CsrIndex, is_max: bool, grad: &Tensor) -> Tensor {
    let (r, c) = x.shape().as_matrix();
    let n = csr.num_rows();
    let (_, args) = segment_extreme(x, csr, is_max);
    let mut g = Tensor::zeros([r, c]);
    let gd = g.data_mut();
    for s in 0..n {
        for j in 0..c {
            let i = args[s * c + j];
            if i != usize::MAX {
                gd[i * c + j] += grad.at(s, j);
            }
        }
    }
    g
}

fn log_softmax(x: &Tensor) -> Tensor {
    let (r, c) = x.shape().as_matrix();
    let mut out = Tensor::zeros([r, c]);
    par::for_each_row(
        out.data_mut(),
        r,
        c,
        row_grain(c),
        Kernel::LogSoftmax,
        |i, out_row| {
            let row = x.row(i);
            let m = simd::max(row);
            if m == f32::NEG_INFINITY {
                // Degenerate row (every logit -inf): `m + ln(0)` would be
                // NaN. Define the distribution as uniform instead so the
                // loss stays finite and the backward (p = 1/c) is exact.
                out_row.fill(-(c as f32).ln());
                return;
            }
            let lse = m + simd::sum_shifted_exp(row, m).ln();
            simd::map_to(row, out_row, |v| v - lse);
        },
    );
    out
}

/// Column means of a row-major `[n,d]` buffer, accumulated in ascending
/// row order — the same float schedule as `sum_rows`, so the fused ops
/// match their unfused compositions bitwise.
fn colmeans(data: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut m = vec![0.0f32; d];
    for i in 0..n {
        simd::add_assign(&mut m, &data[i * d..(i + 1) * d]);
    }
    let inv = 1.0 / n.max(1) as f32;
    simd::map_assign(&mut m, |x| x * inv);
    m
}

/// `w ⊙ x − colmean(w ⊙ x)` for `x: [n,d]` and one weight per row
/// (`w: [n,1]` or `[n]`) — the forward of [`Op::WeightedCenter`]. Two
/// passes over one output buffer; the unfused chain materializes three
/// intermediates and walks the matrix four times.
pub fn weighted_center(x: &Tensor, w: &Tensor) -> Tensor {
    let (n, d) = x.shape().as_matrix();
    let mut data = pool::take_raw(n * d);
    par::for_each_row(
        &mut data,
        n,
        d,
        row_grain(d),
        Kernel::Elementwise,
        |i, row| {
            let wi = w.data()[i];
            simd::map_to(x.row(i), row, |xv| xv * wi);
        },
    );
    let mean = colmeans(&data, n, d);
    par::for_each_row(
        &mut data,
        n,
        d,
        row_grain(d),
        Kernel::Elementwise,
        |_, row| {
            for (slot, &m) in row.iter_mut().zip(mean.iter()) {
                *slot -= m;
            }
        },
    );
    Tensor::from_vec(data, [n, d])
}

/// Backward for [`Op::WeightedCenter`]:
/// `gx[i,j] = w[i]·(g[i,j] − ḡ[j])`, `gw[i] = Σ_j x[i,j]·(g[i,j] − ḡ[j])`
/// where `ḡ` is the column mean of the incoming gradient.
fn weighted_center_backward(x: &Tensor, w: &Tensor, grad: &Tensor) -> (Tensor, Tensor) {
    let (n, d) = x.shape().as_matrix();
    let gmean = colmeans(grad.data(), n, d);
    let mut gx = pool::take_raw(n * d);
    par::for_each_row(
        &mut gx,
        n,
        d,
        row_grain(d),
        Kernel::Elementwise,
        |i, row| {
            let wi = w.data()[i];
            for ((slot, &gv), &mv) in row.iter_mut().zip(grad.row(i)).zip(gmean.iter()) {
                *slot = wi * (gv - mv);
            }
        },
    );
    (
        Tensor::from_vec(gx, [n, d]),
        weighted_center_grad_w(x, grad),
    )
}

/// The weight half of [`Op::WeightedCenter`]'s backward: `gw: [n,1]` with
/// `gw[i] = Σ_j x[i,j]·(g[i,j] − ḡ[j])`. Callers whose `x` is a constant
/// need only this half.
pub fn weighted_center_grad_w(x: &Tensor, grad: &Tensor) -> Tensor {
    let (n, d) = x.shape().as_matrix();
    let gmean = colmeans(grad.data(), n, d);
    let mut gw = pool::take_raw(n);
    par::fill(&mut gw, row_grain(d), Kernel::Reduce, |i| {
        simd::center_dot(x.row(i), grad.row(i), &gmean)
    });
    Tensor::from_vec(gw, [n, 1])
}

/// `Σ ((scale·x) ⊙ mask)²` as a chunked tree reduction (deterministic at
/// any thread count) — the forward of [`Op::ScaledMaskedSqSum`].
pub fn scaled_masked_sq_sum(x: &Tensor, mask: &Tensor, scale: f32) -> f32 {
    let xd = x.data();
    let md = mask.data();
    par::map_reduce(
        xd.len(),
        4096,
        Kernel::Reduce,
        |range| simd::masked_sq_sum(&xd[range.clone()], &md[range], scale),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// `Σ a·b` over two same-shaped tensors as a chunked tree reduction
/// (deterministic at any thread count).
fn dot(a: &Tensor, b: &Tensor) -> f32 {
    let (ad, bd) = (a.data(), b.data());
    par::map_reduce(
        ad.len(),
        4096,
        Kernel::Reduce,
        |range| simd::dot(&ad[range.clone()], &bd[range]),
        |x, y| x + y,
    )
    .unwrap_or(0.0)
}

/// Backward of [`scaled_masked_sq_sum`] for an incoming scalar gradient
/// `g`: `gx = g · 2·scale²·x ⊙ mask²`.
pub fn scaled_masked_sq_sum_grad(x: &Tensor, mask: &Tensor, scale: f32, g: f32) -> Tensor {
    let xd = x.data();
    let md = mask.data();
    let coef = 2.0 * scale * scale * g;
    let mut gx = pool::take_raw(xd.len());
    par::fill(&mut gx, 4096, Kernel::Elementwise, |k| {
        coef * xd[k] * md[k] * md[k]
    });
    Tensor::from_vec(gx, x.shape().clone())
}

/// `amp · cos(x ⊙ w_row + phi_row)` with the `[d]` rows broadcast over
/// every row of `x` — the forward of [`Op::CosFeature`].
pub fn cos_feature(x: &Tensor, w_row: &Tensor, phi_row: &Tensor, amp: f32) -> Tensor {
    let (n, d) = x.shape().as_matrix();
    let wd = w_row.data();
    let pd = phi_row.data();
    let mut out = pool::take_raw(n * d);
    par::for_each_row(
        &mut out,
        n,
        d,
        row_grain(d),
        Kernel::Elementwise,
        |i, row| {
            simd::cos_feature_row(x.row(i), wd, pd, amp, row);
        },
    );
    Tensor::from_vec(out, x.shape().clone())
}

/// Backward for [`Op::CosFeature`]:
/// `gx[i,j] = −amp · sin(x[i,j]·w[j] + phi[j]) · w[j] · g[i,j]`.
fn cos_feature_backward(
    x: &Tensor,
    w_row: &Tensor,
    phi_row: &Tensor,
    amp: f32,
    grad: &Tensor,
) -> Tensor {
    let (n, d) = x.shape().as_matrix();
    let wd = w_row.data();
    let pd = phi_row.data();
    let mut gx = pool::take_raw(n * d);
    par::for_each_row(
        &mut gx,
        n,
        d,
        row_grain(d),
        Kernel::Elementwise,
        |i, row| {
            simd::cos_feature_grad_row(x.row(i), wd, pd, amp, grad.row(i), row);
        },
    );
    Tensor::from_vec(gx, x.shape().clone())
}

// -------------------------------------------------------------------------
// Builder methods on Tape
// -------------------------------------------------------------------------

impl Tape {
    /// `(id, gradient)` for each operand that needs a gradient, in
    /// operand order; the other operands' gradient closures never run.
    fn operand_grads<const N: usize>(
        &self,
        parts: [(NodeId, &dyn Fn() -> Tensor); N],
    ) -> Vec<(NodeId, Tensor)> {
        parts
            .into_iter()
            .filter(|(id, _)| self.nodes[id.0].needs_grad)
            .map(|(id, g)| (id, g()))
            .collect()
    }

    fn check_broadcast(&self, a: NodeId, b: NodeId, what: &str) {
        assert!(
            broadcast_shapes(self.shape(a), self.shape(b)).is_some(),
            "{what}: incompatible shapes {} and {}",
            self.shape(a),
            self.shape(b)
        );
    }

    /// Broadcasting element-wise addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check_broadcast(a, b, "add");
        self.record(Op::Add(a, b))
    }

    /// Broadcasting element-wise subtraction.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check_broadcast(a, b, "sub");
        self.record(Op::Sub(a, b))
    }

    /// Broadcasting element-wise multiplication.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check_broadcast(a, b, "mul");
        self.record(Op::Mul(a, b))
    }

    /// Broadcasting element-wise division.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check_broadcast(a, b, "div");
        self.record(Op::Div(a, b))
    }

    /// Element-wise negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Neg(a))
    }

    /// Add a scalar constant to every element.
    pub fn add_scalar(&mut self, a: NodeId, c: f32) -> NodeId {
        self.record(Op::AddScalar(a, c))
    }

    /// Multiply every element by a scalar constant.
    pub fn mul_scalar(&mut self, a: NodeId, c: f32) -> NodeId {
        self.record(Op::MulScalar(a, c))
    }

    /// Raise every element to a scalar power.
    pub fn pow_scalar(&mut self, a: NodeId, p: f32) -> NodeId {
        self.record(Op::PowScalar(a, p))
    }

    /// Element-wise square `a · a` (`pow_scalar(a, 2)`, whose forward
    /// multiplies instead of calling `powf`, with an exact backward).
    pub fn square(&mut self, a: NodeId) -> NodeId {
        self.pow_scalar(a, 2.0)
    }

    /// Dense 2-D matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (_, k) = self.shape(a).as_matrix();
        let (k2, _) = self.shape(b).as_matrix();
        assert_eq!(
            k,
            k2,
            "matmul: inner dims {} vs {}",
            self.shape(a),
            self.shape(b)
        );
        self.record(Op::Matmul(a, b))
    }

    /// Affine map `x·W + b` for `x: [n,k]`, `W: [k,m]` and a bias of `m`
    /// entries: bitwise `add(matmul(x, W), b)` in one op, whose backward
    /// reads the weight gradient `xᵀ·G` in place.
    pub fn linear(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        self.record_linear(x, w, b, false)
    }

    /// `relu(linear(x, W, b))` as one op: the ReLU is the epilogue of the
    /// matmul's row pass, and the backward masks the incoming gradient by
    /// the output once, then shares it between `gx`, `gW` and `gb`.
    /// Bitwise-equal to the two-op chain while the pre-activation feeds
    /// nothing but the ReLU — it is never materialized, so no other
    /// consumer can read it.
    pub fn linear_relu(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        self.record_linear(x, w, b, true)
    }

    fn record_linear(&mut self, x: NodeId, w: NodeId, b: NodeId, relu: bool) -> NodeId {
        let (_, k) = self.shape(x).as_matrix();
        let (k2, m) = self.shape(w).as_matrix();
        assert_eq!(
            k,
            k2,
            "linear: inner dims {} vs {}",
            self.shape(x),
            self.shape(w)
        );
        assert_eq!(
            self.shape(b).numel(),
            m,
            "linear: bias {} for {m} outputs",
            self.shape(b)
        );
        self.record(Op::Linear(x, w, b, relu))
    }

    /// Batch normalization `((x − μ)/σ)·γ + β` of `x: [n,d]` with
    /// per-column `[d]` parameters `γ`, `β` and the given statistics —
    /// batch statistics ([`BatchNormStats::of_batch`]), which gradients
    /// flow through, or fixed running ones ([`BatchNormStats::running`]).
    /// Bitwise-equal to the unfused chain while `x` feeds nothing else
    /// (see [`batch_norm`]).
    pub fn batch_norm(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        stats: Rc<BatchNormStats>,
    ) -> NodeId {
        self.record_batch_norm(x, gamma, beta, stats, false)
    }

    /// `relu(batch_norm(x, γ, β, stats))` as one op, the ReLU applied in
    /// the normalization's row pass and its mask read inline in the
    /// backward passes. Bitwise-equal to the two-op chain while both `x`
    /// and the normalized pre-activation feed nothing else (see
    /// [`batch_norm`]).
    pub fn batch_norm_relu(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        stats: Rc<BatchNormStats>,
    ) -> NodeId {
        self.record_batch_norm(x, gamma, beta, stats, true)
    }

    fn record_batch_norm(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        stats: Rc<BatchNormStats>,
        relu: bool,
    ) -> NodeId {
        let (_, d) = self.shape(x).as_matrix();
        for (what, id) in [("gamma", gamma), ("beta", beta)] {
            assert_eq!(
                self.shape(id).numel(),
                d,
                "batch_norm: {what} for {d} columns"
            );
        }
        assert_eq!(stats.dim(), d, "batch_norm: statistics for {d} columns");
        self.record(Op::BatchNorm(x, gamma, beta, stats, relu))
    }

    /// 2-D transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Transpose(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Tanh(a))
    }

    /// Element-wise cosine.
    pub fn cos(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Cos(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Exp(a))
    }

    /// Element-wise square root.
    pub fn sqrt(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Sqrt(a))
    }

    /// Numerically stable softplus.
    pub fn softplus(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Softplus(a))
    }

    /// Sum all elements to a scalar node.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Sum(a))
    }

    /// Mean of all elements to a scalar node.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        self.record(Op::Mean(a))
    }

    /// Sum a matrix along `axis` to a vector.
    pub fn sum_axis(&mut self, a: NodeId, axis: Axis) -> NodeId {
        self.record(Op::SumAxis(a, axis))
    }

    /// Mean of a matrix along `axis` to a vector.
    pub fn mean_axis(&mut self, a: NodeId, axis: Axis) -> NodeId {
        self.record(Op::MeanAxis(a, axis))
    }

    /// Reshape preserving element order.
    pub fn reshape(&mut self, a: NodeId, shape: impl Into<Shape>) -> NodeId {
        let shape = shape.into();
        assert_eq!(
            self.shape(a).numel(),
            shape.numel(),
            "reshape numel mismatch"
        );
        self.record(Op::Reshape(a, shape))
    }

    /// Vertical concatenation of matrices.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        self.record(Op::ConcatRows(Rc::new(parts.to_vec())))
    }

    /// Horizontal concatenation of matrices.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        self.record(Op::ConcatCols(Rc::new(parts.to_vec())))
    }

    /// Row gather by index list.
    pub fn index_select(&mut self, a: NodeId, indices: Rc<Vec<usize>>) -> NodeId {
        self.record(Op::IndexSelect(a, indices))
    }

    /// Row scatter-add into `num_rows` rows.
    pub fn scatter_add_rows(
        &mut self,
        a: NodeId,
        indices: Rc<Vec<usize>>,
        num_rows: usize,
    ) -> NodeId {
        self.record(Op::ScatterAddRows(a, indices, num_rows))
    }

    /// Message-passing sum `out[dst[e]] += a[src[e]]` into `num_rows`
    /// rows: bitwise `index_select(a, src)` then `scatter_add_rows(·, dst)`
    /// without the `[E, c]` message tensor. Forward walks the cached CSR
    /// index of `dst`, backward the one of `src`.
    pub fn neighbor_sum(
        &mut self,
        a: NodeId,
        src: Rc<Vec<usize>>,
        dst: Rc<Vec<usize>>,
        num_rows: usize,
    ) -> NodeId {
        assert_eq!(src.len(), dst.len(), "neighbor_sum src/dst length mismatch");
        self.record(Op::NeighborSum(a, src, dst, num_rows))
    }

    /// GIN's aggregation `x·(ε+1) + Σ_{e: dst[e]=s} x[src[e]]` for
    /// `x: [num_rows, c]` and a one-element `ε`, in one row pass that
    /// writes one `[num_rows, c]` tensor.
    ///
    /// The forward value and `gx` are bitwise-equal to the chain
    /// `combined = add(mul(x, add_scalar(ε, 1)), neighbor_sum(x, src,
    /// dst))` that `GinConv` recorded before:
    ///
    /// * forward, each row folds `x[src[e]]` over its `dst`-CSR row in
    ///   ascending `e` from `+0.0`, exactly as [`Tape::neighbor_sum`]
    ///   does, and then becomes `x[s]·(ε+1) + sum`;
    /// * `gx` is `g·(ε+1) + Σ g[dst[e]]` over the `src`-CSR row: the
    ///   chain's `mul` term reached `x` first in the reverse sweep and
    ///   `neighbor_sum`'s term was added to it;
    /// * `gε` is `Σ g·x`, a chunked tree reduction like every other
    ///   parallel sum (the chain's `mul` folded it in one sequential pass).
    ///
    /// The fusion is exact only while `x` has no consumer besides this
    /// op: a second consumer's gradient would reach `x` before the fused
    /// sum instead of between the chain's two terms. Every `GinConv`
    /// input is the output of an input projection, of a dropout or of a
    /// virtual-node broadcast, and feeds only that layer.
    pub fn gin_aggregate(
        &mut self,
        x: NodeId,
        eps: NodeId,
        src: Rc<Vec<usize>>,
        dst: Rc<Vec<usize>>,
        num_rows: usize,
    ) -> NodeId {
        assert_eq!(
            src.len(),
            dst.len(),
            "gin_aggregate src/dst length mismatch"
        );
        assert_eq!(
            self.shape(x).as_matrix().0,
            num_rows,
            "gin_aggregate: x rows vs {num_rows} output rows"
        );
        assert_eq!(
            self.shape(eps).numel(),
            1,
            "gin_aggregate: ε must be one element"
        );
        self.record(Op::GinAggregate(x, eps, src, dst, num_rows))
    }

    /// Message-passing mean: [`Tape::neighbor_sum`] divided by each
    /// destination's in-degree (isolated rows stay zero) — bitwise
    /// `segment_mean(index_select(a, src), dst)`.
    pub fn neighbor_mean(
        &mut self,
        a: NodeId,
        src: Rc<Vec<usize>>,
        dst: Rc<Vec<usize>>,
        num_rows: usize,
    ) -> NodeId {
        let index = csr::cached(&dst, num_rows);
        let sums = self.neighbor_sum(a, src, dst, num_rows);
        self.divide_by_degree(sums, &index)
    }

    /// Per-segment sum over rows (alias of scatter-add keyed by segment id).
    pub fn segment_sum(&mut self, a: NodeId, seg: Rc<Vec<usize>>, num_segments: usize) -> NodeId {
        self.scatter_add_rows(a, seg, num_segments)
    }

    /// Per-segment mean over rows. Empty segments produce zero rows.
    pub fn segment_mean(&mut self, a: NodeId, seg: Rc<Vec<usize>>, num_segments: usize) -> NodeId {
        // Degrees come from the same cached CSR index the segment-sum
        // forward will hit, so the O(rows) count pass runs once per batch.
        let index = csr::cached(&seg, num_segments);
        let sums = self.segment_sum(a, seg, num_segments);
        self.divide_by_degree(sums, &index)
    }

    /// `sums[s] / max(degree(s), 1)` for every row `s` of `index`.
    fn divide_by_degree(&mut self, sums: NodeId, index: &CsrIndex) -> NodeId {
        let n = index.num_rows();
        let counts: Vec<f32> = (0..n).map(|s| (index.degree(s).max(1)) as f32).collect();
        let counts = self.constant(Tensor::from_vec(counts, [n, 1]));
        self.div(sums, counts)
    }

    /// Per-segment max over rows.
    pub fn segment_max(&mut self, a: NodeId, seg: Rc<Vec<usize>>, num_segments: usize) -> NodeId {
        self.record(Op::SegmentMax(a, seg, num_segments))
    }

    /// Per-segment min over rows.
    pub fn segment_min(&mut self, a: NodeId, seg: Rc<Vec<usize>>, num_segments: usize) -> NodeId {
        self.record(Op::SegmentMin(a, seg, num_segments))
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        assert!(self.shape(a).is_matrix(), "log_softmax expects a matrix");
        self.record(Op::LogSoftmax(a))
    }

    /// Fused weighted centering `w ⊙ x − colmean(w ⊙ x)` for `x: [n,d]`
    /// and a column weight vector `w: [n,1]`. Bitwise-equal to the
    /// unfused `mul → mean_axis(Rows) → sub` chain.
    pub fn weighted_center(&mut self, x: NodeId, w: NodeId) -> NodeId {
        let (n, _) = self.shape(x).as_matrix();
        assert_eq!(
            self.shape(w).dims(),
            &[n, 1],
            "weighted_center expects w of shape [n,1]"
        );
        self.record(Op::WeightedCenter(x, w))
    }

    /// Fused scalar penalty `Σ ((scale·x) ⊙ mask)²`. The mask is a plain
    /// constant captured by the op (no tape node), shareable across calls
    /// via the `Rc`.
    pub fn scaled_masked_sq_sum(&mut self, x: NodeId, mask: Rc<Tensor>, scale: f32) -> NodeId {
        assert_eq!(
            self.shape(x).numel(),
            mask.numel(),
            "scaled_masked_sq_sum mask size mismatch"
        );
        self.record(Op::ScaledMaskedSqSum(x, mask, scale))
    }

    /// Fused RFF feature `amp · cos(x ⊙ w_row + phi_row)` for `x: [n,d]`
    /// and constant `[d]` rows broadcast over every row of `x`. The rows
    /// are captured by the op (no constant nodes), shareable across calls
    /// via the `Rc`s.
    pub fn cos_feature(
        &mut self,
        x: NodeId,
        w_row: Rc<Tensor>,
        phi_row: Rc<Tensor>,
        amp: f32,
    ) -> NodeId {
        let (_, d) = self.shape(x).as_matrix();
        assert_eq!(w_row.numel(), d, "cos_feature w_row length mismatch");
        assert_eq!(phi_row.numel(), d, "cos_feature phi_row length mismatch");
        self.record(Op::CosFeature(x, w_row, phi_row, amp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: impl Into<Shape>) -> Tensor {
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn forward_values() {
        let mut tp = Tape::new();
        let a = tp.leaf(t(vec![1., 2., 3., 4.], [2, 2]));
        let b = tp.leaf(t(vec![5., 6., 7., 8.], [2, 2]));
        let sum = tp.add(a, b);
        assert_eq!(tp.value(sum).data(), &[6., 8., 10., 12.]);
        let m = tp.matmul(a, b);
        assert_eq!(tp.value(m).data(), &[19., 22., 43., 50.]);
        let x = tp.leaf(t(vec![-1., 2.], [2]));
        let r = tp.relu(x);
        assert_eq!(tp.value(r).data(), &[0., 2.]);
    }

    #[test]
    fn matmul_grads() {
        let mut tp = Tape::new();
        let a = tp.leaf(t(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
        let b = tp.leaf(t(vec![1., 0., 0., 1., 1., 1.], [3, 2]));
        let m = tp.matmul(a, b);
        let s = tp.sum(m);
        let g = tp.backward(s);
        // d/dA sum(AB) = 1 * B^T rows summed -> each row of gA is colsum of B rows
        assert_eq!(g.get(a).unwrap().data(), &[1., 1., 2., 1., 1., 2.]);
        assert_eq!(g.get(b).unwrap().data(), &[5., 5., 7., 7., 9., 9.]);
    }

    #[test]
    fn broadcast_bias_grad_sums_over_rows() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
        let b = tp.leaf(t(vec![0.1, 0.2, 0.3], [3]));
        let y = tp.add(x, b);
        let s = tp.sum(y);
        let g = tp.backward(s);
        assert_eq!(g.get(b).unwrap().data(), &[2., 2., 2.]);
        assert_eq!(g.get(x).unwrap().data(), &[1.; 6]);
    }

    #[test]
    fn column_weight_grad() {
        // z = w ⊙ x with w of shape [n,1]: dz/dw sums over cols.
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 4.], [2, 2]));
        let w = tp.leaf(t(vec![2., 3.], [2, 1]));
        let z = tp.mul(x, w);
        let s = tp.sum(z);
        let g = tp.backward(s);
        assert_eq!(g.get(w).unwrap().data(), &[3., 7.]);
    }

    #[test]
    fn div_grads() {
        let mut tp = Tape::new();
        let a = tp.leaf(t(vec![4.0], [1]));
        let b = tp.leaf(t(vec![2.0], [1]));
        let y = tp.div(a, b);
        let g = tp.backward(y);
        assert!((g.get(a).unwrap().data()[0] - 0.5).abs() < 1e-6);
        assert!((g.get(b).unwrap().data()[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn activations_forward() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![0.0], [1]));
        let s = tp.sigmoid(x);
        assert!((tp.value(s).data()[0] - 0.5).abs() < 1e-6);
        let c = tp.cos(x);
        assert!((tp.value(c).data()[0] - 1.0).abs() < 1e-6);
        let sp = tp.softplus(x);
        assert!((tp.value(sp).data()[0] - 2f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn softplus_extremes_are_stable() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![50.0, -50.0], [2]));
        let y = tp.softplus(x);
        assert!((tp.value(y).data()[0] - 50.0).abs() < 1e-3);
        assert!(tp.value(y).data()[1].abs() < 1e-6);
        let s = tp.sum(y);
        let g = tp.backward(s);
        assert!(g.get(x).unwrap().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cos_grad() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1.0], [1]));
        let y = tp.cos(x);
        let g = tp.backward(y);
        assert!((g.get(x).unwrap().data()[0] + 1f32.sin()).abs() < 1e-6);
    }

    #[test]
    fn sum_axis_and_back() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
        let r = tp.sum_axis(x, Axis::Rows);
        assert_eq!(tp.value(r).data(), &[5., 7., 9.]);
        let c = tp.sum_axis(x, Axis::Cols);
        assert_eq!(tp.value(c).data(), &[6., 15.]);
        let s = tp.sum(c);
        let g = tp.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[1.; 6]);
    }

    #[test]
    fn mean_axis_grads_scale() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
        let m = tp.mean_axis(x, Axis::Rows);
        assert_eq!(tp.value(m).data(), &[2.5, 3.5, 4.5]);
        let s = tp.sum(m);
        let g = tp.backward(s);
        assert!(g
            .get(x)
            .unwrap()
            .data()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn concat_rows_splits_grad() {
        let mut tp = Tape::new();
        let a = tp.leaf(t(vec![1., 2.], [1, 2]));
        let b = tp.leaf(t(vec![3., 4., 5., 6.], [2, 2]));
        let cat = tp.concat_rows(&[a, b]);
        assert_eq!(tp.value(cat).shape().dims(), &[3, 2]);
        let w = tp.constant(t(vec![1., 10., 100., 1000., 2., 20.], [3, 2]));
        let p = tp.mul(cat, w);
        let s = tp.sum(p);
        let g = tp.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[1., 10.]);
        assert_eq!(g.get(b).unwrap().data(), &[100., 1000., 2., 20.]);
    }

    #[test]
    fn concat_cols_splits_grad() {
        let mut tp = Tape::new();
        let a = tp.leaf(t(vec![1., 2.], [2, 1]));
        let b = tp.leaf(t(vec![3., 4., 5., 6.], [2, 2]));
        let cat = tp.concat_cols(&[a, b]);
        assert_eq!(tp.value(cat).shape().dims(), &[2, 3]);
        assert_eq!(tp.value(cat).data(), &[1., 3., 4., 2., 5., 6.]);
        let w = tp.constant(t(vec![1., 2., 3., 4., 5., 6.], [2, 3]));
        let p = tp.mul(cat, w);
        let s = tp.sum(p);
        let g = tp.backward(s);
        assert_eq!(g.get(a).unwrap().data(), &[1., 4.]);
        assert_eq!(g.get(b).unwrap().data(), &[2., 3., 5., 6.]);
    }

    #[test]
    fn index_select_grad_scatters() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 4.], [2, 2]));
        let sel = tp.index_select(x, Rc::new(vec![1, 1, 0]));
        assert_eq!(tp.value(sel).data(), &[3., 4., 3., 4., 1., 2.]);
        let s = tp.sum(sel);
        let g = tp.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[1., 1., 2., 2.]);
    }

    #[test]
    fn scatter_add_grad_gathers() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 4.], [2, 2]));
        let sc = tp.scatter_add_rows(x, Rc::new(vec![1, 1]), 3);
        assert_eq!(tp.value(sc).data(), &[0., 0., 4., 6., 0., 0.]);
        let w = tp.constant(t(vec![1., 1., 5., 7., 1., 1.], [3, 2]));
        let p = tp.mul(sc, w);
        let s = tp.sum(p);
        let g = tp.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[5., 7., 5., 7.]);
    }

    #[test]
    fn segment_mean_divides_by_counts() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![2., 4., 6., 8., 10., 12.], [3, 2]));
        let m = tp.segment_mean(x, Rc::new(vec![0, 0, 1]), 2);
        assert_eq!(tp.value(m).data(), &[4., 6., 10., 12.]);
        let s = tp.sum(m);
        let g = tp.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[0.5, 0.5, 0.5, 0.5, 1., 1.]);
    }

    #[test]
    fn segment_max_routes_grad_to_argmax() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 9., 5., 2., 7., 3.], [3, 2]));
        let m = tp.segment_max(x, Rc::new(vec![0, 0, 0]), 1);
        assert_eq!(tp.value(m).data(), &[7., 9.]);
        let s = tp.sum(m);
        let g = tp.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[0., 1., 0., 0., 1., 0.]);
    }

    #[test]
    fn segment_min_and_empty_segments() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![3., -1.], [2, 1]));
        let m = tp.segment_min(x, Rc::new(vec![0, 0]), 2);
        assert_eq!(tp.value(m).data(), &[-1., 0.]); // segment 1 empty -> 0
        let s = tp.sum(m);
        let g = tp.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[0., 1.]);
    }

    #[test]
    fn log_softmax_rows_sum_to_one_in_prob_space() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![1., 2., 3., 1000., 1000., 1000.], [2, 3]));
        let ls = tp.log_softmax(x);
        let p = tp.value(ls).map(f32::exp);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {i} sums to {s}");
        }
        // Numerical stability: no NaNs for large logits.
        assert!(!tp.value(ls).has_non_finite());
    }

    #[test]
    fn log_softmax_grad_formula() {
        let mut tp = Tape::new();
        let x = tp.leaf(t(vec![0.5, -0.2, 0.1], [1, 3]));
        let ls = tp.log_softmax(x);
        // pick element 0 as "correct class": loss = -ls[0,0]
        let mask = tp.constant(t(vec![-1., 0., 0.], [1, 3]));
        let l = tp.mul(ls, mask);
        let s = tp.sum(l);
        let g = tp.backward(s);
        let gx = g.get(x).unwrap();
        // grad = p - onehot
        let p = tp.value(ls).map(f32::exp);
        assert!((gx.data()[0] - (p.data()[0] - 1.0)).abs() < 1e-5);
        assert!((gx.data()[1] - p.data()[1]).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_all_neg_inf_row_is_finite() {
        // Regression: a row whose max is -inf used to produce
        // lse = -inf + ln(0) = NaN for every entry. The degenerate row now
        // falls back to the uniform distribution.
        let mut tp = Tape::new();
        let x = tp.leaf(t(
            vec![
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                1.,
                2.,
                3.,
            ],
            [2, 3],
        ));
        let ls = tp.log_softmax(x);
        let v = tp.value(ls);
        assert!(!v.has_non_finite(), "degenerate row produced non-finite");
        for j in 0..3 {
            assert!((v.at(0, j) + 3f32.ln()).abs() < 1e-6);
        }
        // The healthy row is unaffected.
        let s: f32 = v.row(1).iter().map(|&x| x.exp()).sum();
        assert!((s - 1.0).abs() < 1e-5);
        // Backward stays finite too.
        let sum = tp.sum(ls);
        let g = tp.backward(sum);
        assert!(!g.get(x).unwrap().has_non_finite());
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn add_rejects_bad_shapes() {
        let mut tp = Tape::new();
        let a = tp.leaf(Tensor::zeros([2, 3]));
        let b = tp.leaf(Tensor::zeros([3, 2]));
        let _ = tp.add(a, b);
    }

    // ------------------------------------------------------- fused kernels

    #[test]
    fn weighted_center_matches_unfused_bitwise() {
        let mut rng = crate::rng::Rng::seed_from(7);
        let x = Tensor::randn([5, 4], &mut rng);
        let w = Tensor::rand_uniform([5, 1], 0.1, 2.0, &mut rng);

        let mut tp = Tape::new();
        let xn = tp.leaf(x.clone());
        let wn = tp.leaf(w.clone());
        let fused = tp.weighted_center(xn, wn);

        let wx = tp.mul(xn, wn);
        let mean = tp.mean_axis(wx, Axis::Rows);
        let unfused = tp.sub(wx, mean);

        let (a, b) = (tp.value(fused).data(), tp.value(unfused).data());
        assert_eq!(a.len(), b.len());
        for (va, vb) in a.iter().zip(b.iter()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "fused {va} vs unfused {vb}");
        }
    }

    #[test]
    fn weighted_center_gradcheck() {
        use crate::check::assert_gradients;
        let mut rng = crate::rng::Rng::seed_from(11);
        let x = Tensor::randn([4, 3], &mut rng);
        let w = Tensor::rand_uniform([4, 1], 0.2, 1.5, &mut rng);
        // Sum of the centered output is identically zero, so square first
        // to get a non-degenerate scalar.
        assert_gradients(&[x, w], 1e-2, 2e-2, |t, ids| {
            let y = t.weighted_center(ids[0], ids[1]);
            let y2 = t.mul(y, y);
            t.sum(y2)
        });
    }

    #[test]
    fn scaled_masked_sq_sum_matches_unfused() {
        let mut rng = crate::rng::Rng::seed_from(13);
        let x = Tensor::randn([6, 6], &mut rng);
        let mut mask = Tensor::zeros([6, 6]);
        let md = mask.data_mut();
        for i in 0..6 {
            for j in (i + 1)..6 {
                md[i * 6 + j] = 1.0;
            }
        }
        let scale = 1.0 / 5.0;

        let mut tp = Tape::new();
        let xn = tp.leaf(x.clone());
        let fused = tp.scaled_masked_sq_sum(xn, Rc::new(mask.clone()), scale);

        let mn = tp.constant(mask);
        let scaled = tp.mul_scalar(xn, scale);
        let masked = tp.mul(scaled, mn);
        let sq = tp.mul(masked, masked);
        let unfused = tp.sum(sq);

        let (a, b) = (tp.value(fused).item(), tp.value(unfused).item());
        // Chunked tree reduction vs. sequential sum: tolerance, not bits.
        assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn scaled_masked_sq_sum_gradcheck() {
        use crate::check::assert_gradients;
        let mut rng = crate::rng::Rng::seed_from(17);
        let x = Tensor::randn([4, 4], &mut rng);
        let mut mask = Tensor::zeros([4, 4]);
        let md = mask.data_mut();
        for i in 0..4 {
            for j in (i + 1)..4 {
                md[i * 4 + j] = 1.0;
            }
        }
        let mask = Rc::new(mask);
        assert_gradients(&[x], 1e-2, 2e-2, move |t, ids| {
            t.scaled_masked_sq_sum(ids[0], mask.clone(), 0.5)
        });
    }

    #[test]
    fn cos_feature_matches_unfused_bitwise() {
        let mut rng = crate::rng::Rng::seed_from(19);
        let x = Tensor::randn([5, 3], &mut rng);
        let w = Tensor::randn([3], &mut rng);
        let phi = Tensor::rand_uniform([3], 0.0, std::f32::consts::TAU, &mut rng);
        let amp = std::f32::consts::SQRT_2;

        let mut tp = Tape::new();
        let xn = tp.leaf(x.clone());
        let fused = tp.cos_feature(xn, Rc::new(w.clone()), Rc::new(phi.clone()), amp);

        let wn = tp.constant(w);
        let pn = tp.constant(phi);
        let prod = tp.mul(xn, wn);
        let arg = tp.add(prod, pn);
        let cosv = tp.cos(arg);
        let unfused = tp.mul_scalar(cosv, amp);

        let (a, b) = (tp.value(fused).data(), tp.value(unfused).data());
        for (va, vb) in a.iter().zip(b.iter()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "fused {va} vs unfused {vb}");
        }
    }

    #[test]
    fn cos_feature_gradcheck() {
        use crate::check::assert_gradients;
        let mut rng = crate::rng::Rng::seed_from(23);
        let x = Tensor::randn([4, 3], &mut rng);
        let w = Rc::new(Tensor::randn([3], &mut rng));
        let phi = Rc::new(Tensor::rand_uniform(
            [3],
            0.0,
            std::f32::consts::TAU,
            &mut rng,
        ));
        assert_gradients(&[x], 1e-3, 2e-2, move |t, ids| {
            let y = t.cos_feature(ids[0], w.clone(), phi.clone(), 1.5);
            t.sum(y)
        });
    }
}
