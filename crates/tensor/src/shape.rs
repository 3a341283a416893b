//! Shapes, strides and NumPy-style broadcasting rules.

use crate::par;
use crate::pool;
use crate::profile::Kernel;
use crate::simd;
use crate::Tensor;
use std::fmt;

/// The shape of a tensor: a list of dimension sizes, row-major.
///
/// A scalar is represented by the empty shape `[]` (one element). Shapes are
/// cheap to clone (they are almost always rank ≤ 2 in this workspace).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Construct a shape from dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Size of dimension `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0usize; self.rank()];
        let mut acc = 1usize;
        for i in (0..self.rank()).rev() {
            strides[i] = acc;
            acc *= self.0[i];
        }
        strides
    }

    /// True if the shape describes a 2-D matrix.
    pub fn is_matrix(&self) -> bool {
        self.rank() == 2
    }

    /// For a matrix shape, its `(rows, cols)`.
    ///
    /// # Panics
    /// Panics if the shape is not rank 2.
    pub fn as_matrix(&self) -> (usize, usize) {
        assert!(self.is_matrix(), "expected rank-2 shape, got {self}");
        (self.0[0], self.0[1])
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Compute the broadcast result shape of two shapes under NumPy rules:
/// dimensions are aligned from the right; each pair must be equal or one of
/// them must be 1. Returns `None` if the shapes are incompatible.
pub fn broadcast_shapes(a: &Shape, b: &Shape) -> Option<Shape> {
    let ra = a.rank();
    let rb = b.rank();
    let r = ra.max(rb);
    let mut out = Vec::with_capacity(r);
    for i in 0..r {
        let da = if i < r - ra { 1 } else { a.0[i - (r - ra)] };
        let db = if i < r - rb { 1 } else { b.0[i - (r - rb)] };
        if da == db || da == 1 || db == 1 {
            out.push(da.max(db));
        } else {
            return None;
        }
    }
    Some(Shape(out))
}

/// An iterator-free index mapper used to evaluate broadcast binary ops:
/// maps a linear index in the broadcast output shape to linear indices in
/// each input.
pub(crate) struct BroadcastMap {
    /// For each output dim: (out_stride, a_stride, b_stride). A stride of 0
    /// means the input is broadcast along that dim.
    dims: Vec<(usize, usize, usize)>,
}

impl BroadcastMap {
    pub(crate) fn new(a: &Shape, b: &Shape, out: &Shape) -> Self {
        let r = out.rank();
        let ra = a.rank();
        let rb = b.rank();
        let sa = a.strides();
        let sb = b.strides();
        let so = out.strides();
        let mut dims = Vec::with_capacity(r);
        for i in 0..r {
            let da = if i < r - ra { 1 } else { a.0[i - (r - ra)] };
            let db = if i < r - rb { 1 } else { b.0[i - (r - rb)] };
            let stride_a = if i < r - ra || da == 1 {
                0
            } else {
                sa[i - (r - ra)]
            };
            let stride_b = if i < r - rb || db == 1 {
                0
            } else {
                sb[i - (r - rb)]
            };
            dims.push((so[i], stride_a, stride_b));
        }
        BroadcastMap { dims }
    }

    /// Map a linear output index to `(a_index, b_index)`.
    #[inline]
    pub(crate) fn map(&self, mut out_idx: usize) -> (usize, usize) {
        let mut ia = 0usize;
        let mut ib = 0usize;
        for &(so, sa, sb) in &self.dims {
            let Some(coord) = out_idx.checked_div(so) else {
                continue;
            };
            out_idx -= coord * so;
            ia += coord * sa;
            ib += coord * sb;
        }
        (ia, ib)
    }
}

/// Sum a gradient shaped like a broadcast output back down to `target`,
/// the shape of one of the broadcast inputs. Used by the backward pass of
/// broadcasting add and subtract.
pub fn reduce_grad_to(grad: &Tensor, target: &Shape) -> Tensor {
    if grad.shape() == target {
        return grad.clone();
    }
    // The zeros only carry `target`'s shape: this term never reads them.
    fold_grad_to(grad, grad, &Tensor::zeros(target.clone()), |g, _, _| g)
}

/// The gradient reaching operand `y` of a broadcasting binary op whose
/// other operand is `x`: output element `k` adds `term(grad[k], x[kx],
/// y[ky])` to slot `ky` of a `y`-shaped result, where `kx` and `ky` are
/// the elements of `x` and `y` that `k` was broadcast from.
///
/// Every slot starts at `0.0` and folds its terms in ascending order of
/// `k`. The shape-specialised folds keep that order, so they give the
/// same bits as the generic loop. Timed under [`Kernel::Reduce`].
pub(crate) fn fold_grad_to(
    grad: &Tensor,
    x: &Tensor,
    y: &Tensor,
    term: impl Fn(f32, f32, f32) -> f32,
) -> Tensor {
    par::sequential(Kernel::Reduce, || {
        fold_fast(grad, x, y, &term).unwrap_or_else(|| fold_generic(grad, x, y, &term))
    })
}

/// The vectorized folds, for an `x` of `grad`'s shape and a `y` that is
/// one element, or the row shape `[c]`/`[1, c]` or column shape `[r, 1]`
/// of a `[r, c]` grad. `None` for any other shapes.
fn fold_fast(
    grad: &Tensor,
    x: &Tensor,
    y: &Tensor,
    term: &impl Fn(f32, f32, f32) -> f32,
) -> Option<Tensor> {
    if x.shape() != grad.shape() {
        return None;
    }
    let (g, xs, ys) = (grad.data(), x.data(), y.data());
    if let &[y0] = ys {
        let mut out = pool::take_raw(1);
        out[0] = g
            .iter()
            .zip(xs)
            .fold(0.0, |acc, (&gk, &xk)| acc + term(gk, xk, y0));
        return Some(Tensor::from_vec(out, y.shape().clone()));
    }
    let &[r, c] = grad.shape().dims() else {
        return None;
    };
    if c == 0 {
        return None;
    }
    let yd = y.shape().dims();
    let out = if yd == [c] || yd == [1, c] {
        let mut out = pool::take_zeroed(c);
        for (gr, xr) in g.chunks_exact(c).zip(xs.chunks_exact(c)) {
            simd::add_terms(&mut out, gr, xr, ys, term);
        }
        out
    } else if yd == [r, 1] {
        let mut out = pool::take_raw(r);
        let rows = g.chunks_exact(c).zip(xs.chunks_exact(c)).zip(ys);
        for (o, ((gr, xr), &yi)) in out.iter_mut().zip(rows) {
            *o = gr
                .iter()
                .zip(xr)
                .fold(0.0, |acc, (&gk, &xk)| acc + term(gk, xk, yi));
        }
        out
    } else {
        return None;
    };
    Some(Tensor::from_vec(out, y.shape().clone()))
}

/// The generic fold: maps each output element to its `x` and `y`
/// elements through a [`BroadcastMap`].
fn fold_generic(
    grad: &Tensor,
    x: &Tensor,
    y: &Tensor,
    term: &impl Fn(f32, f32, f32) -> f32,
) -> Tensor {
    let map = BroadcastMap::new(x.shape(), y.shape(), grad.shape());
    let (xs, ys) = (x.data(), y.data());
    let mut out = pool::take_zeroed(ys.len());
    for (k, &gk) in grad.data().iter().enumerate() {
        let (kx, ky) = map.map(k);
        out[ky] += term(gk, xs[kx], ys[ky]);
    }
    Tensor::from_vec(out, y.shape().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::new(&[3, 4]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.numel(), 12);
        assert_eq!(s.strides(), vec![4, 1]);
        assert_eq!(s.as_matrix(), (3, 4));
        assert!(s.is_matrix());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn broadcast_equal() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[2, 3])));
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::new(&[3]);
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[4, 3])));
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::new(&[4, 1]);
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[4, 3])));
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::scalar();
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[4, 3])));
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(broadcast_shapes(&a, &b), None);
    }

    #[test]
    fn broadcast_map_column() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[2, 1]);
        let out = broadcast_shapes(&a, &b).unwrap();
        let m = BroadcastMap::new(&a, &b, &out);
        // out index 4 = (row 1, col 1) -> a idx 4, b idx 1
        assert_eq!(m.map(4), (4, 1));
        assert_eq!(m.map(0), (0, 0));
        assert_eq!(m.map(5), (5, 1));
    }

    #[test]
    fn reduce_grad_row_vector() {
        // grad of shape [2,3] reduced to [3] sums over rows.
        let g = crate::Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let r = reduce_grad_to(&g, &Shape::new(&[3]));
        assert_eq!(r.data(), &[5., 7., 9.]);
    }

    #[test]
    fn reduce_grad_column_vector() {
        let g = crate::Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let r = reduce_grad_to(&g, &Shape::new(&[2, 1]));
        assert_eq!(r.data(), &[6., 15.]);
    }

    #[test]
    fn reduce_grad_scalar() {
        let g = crate::Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]);
        let r = reduce_grad_to(&g, &Shape::scalar());
        assert_eq!(r.data(), &[10.]);
    }

    /// Normal values of mixed magnitude (so summation order shows in the
    /// bits), sprinkled with −0.0, ±inf, NaN and subnormals.
    fn awkward(shape: &[usize], rng: &mut crate::rng::Rng) -> Tensor {
        let special = [
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            -3e-39,
            f32::MIN_POSITIVE / 4.0,
        ];
        let shape = Shape::new(shape);
        let data = (0..shape.numel())
            .map(|_| match rng.below(64) {
                0 => special[rng.below(special.len())],
                1..=6 => [-0.0, 1e-40, -3e-39][rng.below(3)],
                _ => rng.normal() * [1e-3, 1.0, 1e4][rng.below(3)],
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// Bit patterns, with every NaN as one canonical NaN: IEEE 754 and
    /// Rust leave the sign and payload of a NaN result unspecified, and
    /// the compiler may commute an addition of two NaNs.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data()
            .iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    #[test]
    fn fold_fast_paths_match_generic_loop_bitwise() {
        let mut rng = crate::rng::Rng::seed_from(14);
        let terms: [&dyn Fn(f32, f32, f32) -> f32; 3] =
            [&|g, _, _| g, &|g, x, _| g * x, &|g, x, y| {
                -(g * x) / (y * y)
            }];
        for r in [0, 1, 7, 8, 9, 65, 1000] {
            for c in [1, 7, 8, 32, 33] {
                let grad = awkward(&[r, c], &mut rng);
                let x = awkward(&[r, c], &mut rng);
                let targets: [&[usize]; 5] = [&[c], &[1, c], &[r, 1], &[1], &[]];
                for target in targets {
                    let y = awkward(target, &mut rng);
                    for (i, term) in terms.iter().enumerate() {
                        let fast = fold_fast(&grad, &x, &y, term)
                            .unwrap_or_else(|| panic!("[{r},{c}] -> {target:?} has no fast path"));
                        let generic = fold_generic(&grad, &x, &y, term);
                        assert_eq!(fast.shape(), y.shape());
                        assert_eq!(
                            bits(&fast),
                            bits(&generic),
                            "[{r},{c}] -> {target:?}, term {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_falls_back_for_other_shapes() {
        let mut rng = crate::rng::Rng::seed_from(15);
        let term = |g: f32, x: f32, _| g * x;
        // `x` broadcast as well: only the generic loop handles it.
        let grad = awkward(&[4, 3], &mut rng);
        let (x, y) = (awkward(&[4, 1], &mut rng), awkward(&[1, 3], &mut rng));
        assert!(fold_fast(&grad, &x, &y, &term).is_none());
        let folded = fold_grad_to(&grad, &x, &y, term);
        assert_eq!(bits(&folded), bits(&fold_generic(&grad, &x, &y, &term)));
        // A rank-3 grad folded to a row shape.
        let grad = awkward(&[2, 3, 4], &mut rng);
        let y = awkward(&[3, 4], &mut rng);
        assert!(fold_fast(&grad, &grad, &y, &term).is_none());
        let g = Tensor::from_vec((0..24).map(|v| v as f32).collect(), [2, 3, 4]);
        // Slot b sums 12a + 4b + k over a < 2, k < 4.
        let r = reduce_grad_to(&g, &Shape::new(&[3, 1]));
        assert_eq!(r.data(), &[60., 92., 124.]);
    }
}
