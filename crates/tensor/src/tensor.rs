//! The dense, row-major `f32` tensor type and its eager (non-autodiff) ops.

use crate::par;
use crate::pool;
use crate::profile::Kernel;
use crate::rng::Rng;
use crate::shape::{broadcast_shapes, BroadcastMap, Shape};
use crate::simd;
use std::fmt;
use std::sync::Arc;

/// Elementwise kernels fan out above this many elements per chunk.
const ELEMENTWISE_GRAIN: usize = 4096;
/// Approximate multiply-adds per matmul row-chunk.
const MATMUL_GRAIN_OPS: usize = 16_384;

/// Heap buffer that recycles itself through the [`pool`] on drop.
struct Buf(Vec<f32>);

impl Drop for Buf {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.0));
    }
}

impl Clone for Buf {
    fn clone(&self) -> Buf {
        let mut v = pool::take_raw(self.0.len());
        v.copy_from_slice(&self.0);
        Buf(v)
    }
}

/// Copy-on-write tensor storage: an `Arc`-shared, pool-recycled buffer.
///
/// Cloning is O(1) (a refcount bump); the first mutation of a shared
/// buffer copies it ([`Arc::make_mut`]). `Arc` rather than `Rc` because
/// the parallel kernels capture `&Tensor` in `Sync` closures.
#[derive(Clone)]
struct Storage(Arc<Buf>);

impl Storage {
    #[inline]
    fn new(v: Vec<f32>) -> Storage {
        Storage(Arc::new(Buf(v)))
    }

    /// Mutable view, copying first if the buffer is shared.
    #[inline]
    fn make_mut(&mut self) -> &mut [f32] {
        &mut Arc::make_mut(&mut self.0).0
    }

    /// Extract the raw buffer without a copy when uniquely owned.
    fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.0) {
            // mem::take leaves the Buf empty so its Drop gives nothing back.
            Ok(mut b) => std::mem::take(&mut b.0),
            Err(arc) => {
                let mut v = pool::take_raw(arc.0.len());
                v.copy_from_slice(&arc.0);
                v
            }
        }
    }

    #[inline]
    fn ptr_eq(&self, other: &Storage) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::ops::Deref for Storage {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.0 .0
    }
}

/// A dense, row-major tensor of `f32` values.
///
/// All autodiff flows through [`crate::Tape`]; `Tensor` itself is the plain
/// value type with eager operations used both by the tape internals and by
/// non-differentiable code (data generation, metrics, weight projection).
/// Storage is copy-on-write and pool-recycled: clones share the buffer
/// until one side mutates, and dropped buffers return to the thread's
/// [`pool`] for the next identically-shaped allocation.
#[derive(Clone)]
pub struct Tensor {
    data: Storage,
    shape: Shape,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && (self.data.ptr_eq(&other.data) || self.data[..] == other.data[..])
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Build a tensor from a flat row-major buffer and a shape.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            data: Storage::new(data),
            shape,
        }
    }

    /// Internal ctor: wrap a pool-obtained buffer (length already checked
    /// by the caller's construction).
    #[inline]
    fn from_raw(data: Vec<f32>, shape: Shape) -> Self {
        debug_assert_eq!(data.len(), shape.numel());
        Tensor {
            data: Storage::new(data),
            shape,
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::full(Shape::scalar(), v)
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = pool::take_zeroed(shape.numel());
        Tensor::from_raw(data, shape)
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor of the given shape.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Self {
        let shape = shape.into();
        let mut data = pool::take_raw(shape.numel());
        data.fill(v);
        Tensor::from_raw(data, shape)
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        let d = t.data.make_mut();
        for i in 0..n {
            d[i * n + i] = 1.0;
        }
        t
    }

    /// Tensor with entries drawn i.i.d. from `N(0, 1)`.
    pub fn randn(shape: impl Into<Shape>, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let mut data = pool::take_raw(shape.numel());
        for slot in data.iter_mut() {
            *slot = rng.normal();
        }
        Tensor::from_raw(data, shape)
    }

    /// Tensor with entries drawn i.i.d. from `Uniform(lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let mut data = pool::take_raw(shape.numel());
        for slot in data.iter_mut() {
            *slot = rng.uniform(lo, hi);
        }
        Tensor::from_raw(data, shape)
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data (copies first if the buffer is shared —
    /// hoist this call out of per-element loops).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Consume into the raw buffer (no copy when uniquely owned).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Matrix element accessor.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        let (_, c) = self.shape.as_matrix();
        self.data[row * c + col]
    }

    /// Mutable matrix element accessor.
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut f32 {
        let (_, c) = self.shape.as_matrix();
        &mut self.data.make_mut()[row * c + col]
    }

    /// A row of a matrix as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let (_, c) = self.shape.as_matrix();
        &self.data[r * c..(r + 1) * c]
    }

    /// Number of rows of a matrix.
    pub fn nrows(&self) -> usize {
        self.shape.as_matrix().0
    }

    /// Number of columns of a matrix.
    pub fn ncols(&self) -> usize {
        self.shape.as_matrix().1
    }

    // ----------------------------------------------------------- reshaping

    /// Return a tensor with the same data and a new shape (numel must match).
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "reshape {} -> {shape}",
            self.shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Transpose of a 2-D matrix: output rows (input columns) filled in
    /// parallel, a pure copy.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = self.shape.as_matrix();
        let mut data = pool::take_raw(r * c);
        par::for_each_row(
            &mut data,
            c,
            r,
            (ELEMENTWISE_GRAIN / r.max(1)).max(1),
            Kernel::Gather,
            |j, out_row| {
                for (i, o) in out_row.iter_mut().enumerate() {
                    *o = self.data[i * c + j];
                }
            },
        );
        Tensor::from_raw(data, Shape::new(&[c, r]))
    }

    // ------------------------------------------------------- element-wise

    /// Apply `f` to every element, producing a new tensor. Chunked over
    /// the parallel pool for large tensors, with the vectorized
    /// [`simd::map_to`] body inside each chunk; element order (and
    /// therefore the result, bitwise) is identical at any thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut data = pool::take_raw(self.data.len());
        let base = par::SendPtr(data.as_mut_ptr());
        par::for_each_chunk(
            data.len(),
            ELEMENTWISE_GRAIN,
            Kernel::Elementwise,
            |range| {
                // Disjoint subslice: chunk ranges never overlap.
                let out = unsafe {
                    std::slice::from_raw_parts_mut(base.get().add(range.start), range.len())
                };
                simd::map_to(&self.data[range], out, &f);
            },
        );
        Tensor::from_raw(data, self.shape.clone())
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let data = self.data.make_mut();
        let base = par::SendPtr(data.as_mut_ptr());
        par::for_each_chunk(
            data.len(),
            ELEMENTWISE_GRAIN,
            Kernel::Elementwise,
            |range| {
                // Disjoint subslice: chunk ranges never overlap.
                let out = unsafe {
                    std::slice::from_raw_parts_mut(base.get().add(range.start), range.len())
                };
                simd::map_assign(out, &f);
            },
        );
    }

    /// Broadcasting binary op: `f(a, b)` with NumPy broadcast semantics.
    ///
    /// Same-shape pairs and the matrix-broadcast patterns on the message-
    /// passing hot path (scalar, row-vector `[c]`/`[1,c]`, column-vector
    /// `[r,1]` against a `[r,c]` matrix) take vectorized slice kernels;
    /// everything else goes through the general per-index
    /// [`BroadcastMap`]. All paths apply `f` to exactly the same operand
    /// pairs, so which one runs is not observable in the result bits.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        if self.shape == other.shape {
            // Fast path: same shape, no index mapping.
            let mut data = pool::take_raw(self.data.len());
            let base = par::SendPtr(data.as_mut_ptr());
            par::for_each_chunk(
                self.data.len(),
                ELEMENTWISE_GRAIN,
                Kernel::Elementwise,
                |range| {
                    // Disjoint subslice: chunk ranges never overlap.
                    let out = unsafe {
                        std::slice::from_raw_parts_mut(base.get().add(range.start), range.len())
                    };
                    simd::zip_to(&self.data[range.clone()], &other.data[range], out, &f);
                },
            );
            return Tensor::from_raw(data, self.shape.clone());
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape)
            .unwrap_or_else(|| panic!("incompatible broadcast: {} vs {}", self.shape, other.shape));
        if out_shape == self.shape {
            if let Some(t) = Self::zip_big_small(self, other, &f) {
                return t;
            }
        } else if out_shape == other.shape {
            if let Some(t) = Self::zip_big_small(other, self, &|a, b| f(b, a)) {
                return t;
            }
        }
        let map = BroadcastMap::new(&self.shape, &other.shape, &out_shape);
        let n = out_shape.numel();
        let mut data = pool::take_raw(n);
        par::fill(&mut data, ELEMENTWISE_GRAIN, Kernel::Elementwise, |i| {
            let (ia, ib) = map.map(i);
            f(self.data[ia], other.data[ib])
        });
        Tensor::from_raw(data, out_shape)
    }

    /// Vectorized broadcast fast paths for `big (op) small` where the
    /// output has `big`'s shape: `small` a scalar (any `big` rank), or a
    /// row/column vector against a rank-2 `big`. Returns `None` when the
    /// pattern doesn't match and the caller must use the general path.
    fn zip_big_small(
        big: &Tensor,
        small: &Tensor,
        f: &(impl Fn(f32, f32) -> f32 + Sync),
    ) -> Option<Tensor> {
        if small.numel() == 1 {
            let s = small.data[0];
            return Some(big.map(|x| f(x, s)));
        }
        if big.shape.dims().len() != 2 {
            return None;
        }
        let (r, c) = big.shape.as_matrix();
        let sd = small.shape.dims();
        let row_grain = (ELEMENTWISE_GRAIN / c.max(1)).max(1);
        if sd == [c] || sd == [1, c] {
            let mut out = Tensor::zeros([r, c]);
            par::for_each_row(
                out.data.make_mut(),
                r,
                c,
                row_grain,
                Kernel::Elementwise,
                |i, out_row| {
                    simd::zip_to(&big.data[i * c..(i + 1) * c], &small.data, out_row, f);
                },
            );
            return Some(out);
        }
        if sd == [r, 1] {
            let mut out = Tensor::zeros([r, c]);
            par::for_each_row(
                out.data.make_mut(),
                r,
                c,
                row_grain,
                Kernel::Elementwise,
                |i, out_row| {
                    let s = small.data[i];
                    simd::map_to(&big.data[i * c..(i + 1) * c], out_row, |x| f(x, s));
                },
            );
            return Some(out);
        }
        None
    }

    /// Element-wise (broadcasting) addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, |a, b| a + b)
    }

    /// Element-wise (broadcasting) subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, |a, b| a - b)
    }

    /// Element-wise (broadcasting) multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, |a, b| a * b)
    }

    /// Element-wise (broadcasting) division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_broadcast(other, |a, b| a / b)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// In-place `self += alpha * other` (same shapes).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        simd::axpy_assign(self.data.make_mut(), alpha, &other.data);
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements, under the fixed [`simd`] lane schedule.
    pub fn sum(&self) -> f32 {
        simd::sum(&self.data)
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        simd::max(&self.data)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum over axis 0 of a matrix, producing a row vector of shape `[cols]`.
    /// Rows accumulate in ascending order (per-column fixed schedule).
    pub fn sum_rows(&self) -> Tensor {
        let (r, c) = self.shape.as_matrix();
        let mut data = pool::take_zeroed(c);
        for i in 0..r {
            simd::add_assign(&mut data, &self.data[i * c..(i + 1) * c]);
        }
        Tensor::from_raw(data, Shape::new(&[c]))
    }

    /// Mean over axis 0 of a matrix, shape `[cols]`.
    pub fn mean_rows(&self) -> Tensor {
        let (r, _) = self.shape.as_matrix();
        let mut s = self.sum_rows();
        if r > 0 {
            s.map_inplace(|x| x / r as f32);
        }
        s
    }

    /// Index of the maximum entry within each row of a matrix.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (r, c) = self.shape.as_matrix();
        (0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Squared Frobenius norm (sum of squares of all elements), under the
    /// fixed [`simd`] lane schedule.
    pub fn frobenius_sq(&self) -> f32 {
        simd::sq_sum(&self.data)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.frobenius_sq().sqrt()
    }

    // -------------------------------------------------------------- matmul

    /// Dense matrix multiplication `self @ other` for rank-2 tensors.
    ///
    /// Row-blocked over the parallel pool; each output row runs the
    /// blocked [`simd::matmul_row`] microkernel (16-column register
    /// accumulator tiles over an ascending-`k` loop). Per output element
    /// the accumulation order is the classic i-k-j schedule, so the
    /// result is bitwise-identical at any thread count. `other` is
    /// scanned once: when it is all finite, the branch-free body is
    /// exact (a zero `a[k]` adds a `±0.0` product to a sum that started
    /// at `+0.0`, which cannot change it); a non-finite `other` takes
    /// [`simd::matmul_row_guarded`], which skips zero `a[k]` so `0 · ∞`
    /// never enters the sum. The pool cutoff counts multiply-adds, so a
    /// long inner dimension fans out too.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_bias(other, None)
    }

    /// `self @ other + bias` with the `[n]` bias added to each output row
    /// in the same row pass, after its `k` loop: the same single rounding
    /// as a separate broadcast add, without the second pass.
    pub(crate) fn matmul_bias(&self, other: &Tensor, bias: Option<&Tensor>) -> Tensor {
        let (m, k) = self.shape.as_matrix();
        let (k2, n) = other.shape.as_matrix();
        assert_eq!(
            k, k2,
            "matmul inner dims: {} vs {}",
            self.shape, other.shape
        );
        let mut out = pool::take_raw(m * n);
        let grain_rows = (MATMUL_GRAIN_OPS / (k * n).max(1)).max(1);
        let b_finite = simd::all_finite(&other.data);
        // The microkernel accumulates its tail columns into the row.
        let tail = n - n % (2 * simd::LANES);
        par::for_each_row_weighted(
            &mut out,
            m,
            n,
            grain_rows,
            Kernel::Matmul,
            m * k * n,
            |i, out_row| {
                out_row[tail..].fill(0.0);
                let a_row = &self.data[i * k..(i + 1) * k];
                if b_finite {
                    simd::matmul_row(a_row, &other.data, n, out_row);
                } else {
                    simd::matmul_row_guarded(a_row, &other.data, n, out_row);
                }
                if let Some(b) = bias {
                    simd::add_assign(out_row, &b.data);
                }
            },
        );
        Tensor::from_raw(out, Shape::new(&[m, n]))
    }

    /// `selfᵀ @ other` for `self: [m, k]` and `other: [m, n]`, giving
    /// `[k, n]` — the weight gradient `Aᵀ·G` — read from `self` in place
    /// instead of through [`Tensor::transpose`]. Bitwise-equal to
    /// `self.transpose().matmul(other)`: each output accumulates over `i`
    /// in ascending order from `+0.0`, and zero entries of `self` are
    /// skipped only when `other` is not all finite. Parallel over pairs
    /// of output rows, each a 2 × 16 register tile.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape.as_matrix();
        let (m2, n) = other.shape.as_matrix();
        assert_eq!(
            m, m2,
            "matmul_tn outer dims: {} vs {}",
            self.shape, other.shape
        );
        let mut out = pool::take_raw(k * n);
        let guarded = !simd::all_finite(&other.data);
        let pairs = k.div_ceil(2);
        let grain = (MATMUL_GRAIN_OPS / (2 * m * n).max(1)).max(1);
        let base = par::SendPtr(out.as_mut_ptr());
        par::for_each_chunk_weighted(pairs, grain, Kernel::Matmul, m * k * n, |range| {
            for q in range {
                let p = 2 * q;
                let rows = (k - p).min(2);
                // SAFETY: rows `p..p + rows` lie inside the `k · n` buffer,
                // which outlives the region, and each pair of rows is
                // visited by one chunk only.
                let rows_out =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(p * n), rows * n) };
                simd::matmul_tn_rows(&self.data, k, p, &other.data, n, guarded, rows_out);
            }
        });
        Tensor::from_raw(out, Shape::new(&[k, n]))
    }

    // --------------------------------------------------------- row select

    /// Gather rows: `out[i] = self[indices[i]]`.
    pub fn index_select_rows(&self, indices: &[usize]) -> Tensor {
        let (r, c) = self.shape.as_matrix();
        let mut out = Tensor::zeros([indices.len(), c]);
        let grain_rows = (ELEMENTWISE_GRAIN / c.max(1)).max(1);
        par::for_each_row(
            out.data.make_mut(),
            indices.len(),
            c,
            grain_rows,
            Kernel::Gather,
            |i, out_row| {
                let idx = indices[i];
                assert!(idx < r, "index {idx} out of range for {r} rows");
                out_row.copy_from_slice(&self.data[idx * c..(idx + 1) * c]);
            },
        );
        out
    }

    /// Scatter-add rows: `out[indices[i]] += self[i]`, with `num_rows` output
    /// rows.
    ///
    /// Large inputs build a [`crate::csr::CsrIndex`] and take the
    /// per-destination-row path of [`Tensor::scatter_add_rows_csr`]; tiny
    /// scatters stay on the sequential input-order loop (inverting the
    /// index would cost more than the adds). Both paths accumulate each
    /// output row's contributions in ascending input-row order — the same
    /// per-element float schedule — so they are bitwise-identical to each
    /// other at any thread count.
    pub fn scatter_add_rows(&self, indices: &[usize], num_rows: usize) -> Tensor {
        let (r, c) = self.shape.as_matrix();
        assert_eq!(r, indices.len(), "scatter_add rows/indices mismatch");
        for &idx in indices {
            assert!(
                idx < num_rows,
                "index {idx} out of range for {num_rows} rows"
            );
        }
        if r * c < 4 * ELEMENTWISE_GRAIN || num_rows < 2 {
            let mut out = Tensor::zeros([num_rows, c]);
            let out_data = out.data.make_mut();
            for (i, &idx) in indices.iter().enumerate() {
                simd::add_assign(
                    &mut out_data[idx * c..(idx + 1) * c],
                    &self.data[i * c..(i + 1) * c],
                );
            }
            return out;
        }
        self.scatter_add_rows_csr(&crate::csr::CsrIndex::build(indices, num_rows))
    }

    /// Scatter-add through a prebuilt (typically [`crate::csr::cached`])
    /// CSR index: `out[s] = Σ self[i]` over `i ∈ csr.row(s)`, parallelized
    /// over destination rows. The index lists input rows ascending per
    /// destination, so every output element sees contributions in the same
    /// order as the sequential scatter — bitwise-identical results at any
    /// thread count, attributed to the `csr` kernel family in profiles.
    pub fn scatter_add_rows_csr(&self, csr: &crate::csr::CsrIndex) -> Tensor {
        let (r, _) = self.shape.as_matrix();
        assert_eq!(r, csr.num_items(), "scatter_add rows/index mismatch");
        self.csr_row_sums(csr, |i| i)
    }

    /// Gather-then-scatter through a CSR index without materializing the
    /// gathered rows: `out[s] = Σ self[from[e]]` over `e ∈ csr.row(s)`,
    /// where `csr` inverts the scatter list. Because a gather copies rows
    /// exactly, this is bitwise `index_select_rows(from)` followed by
    /// [`Tensor::scatter_add_rows_csr`], at any thread count.
    pub fn gather_scatter_csr(&self, from: &[usize], csr: &crate::csr::CsrIndex) -> Tensor {
        assert_eq!(
            from.len(),
            csr.num_items(),
            "gather/scatter length mismatch"
        );
        let r = self.nrows();
        self.csr_row_sums(csr, |e| {
            let i = from[e];
            assert!(i < r, "index {i} out of range for {r} rows");
            i
        })
    }

    /// The CSR aggregation body: output row `s` folds `self[row_of(e)]`
    /// for `e ∈ csr.row(s)` in ascending `e`, starting from `+0.0`.
    fn csr_row_sums(
        &self,
        csr: &crate::csr::CsrIndex,
        row_of: impl Fn(usize) -> usize + Sync,
    ) -> Tensor {
        let c = self.ncols();
        let num_rows = csr.num_rows();
        let mut out = Tensor::zeros([num_rows, c]);
        let grain_rows = ((4 * ELEMENTWISE_GRAIN) / c.max(1)).max(1);
        par::for_each_row(
            out.data.make_mut(),
            num_rows,
            c,
            grain_rows,
            Kernel::Csr,
            |s, out_row| {
                for &e in csr.row(s) {
                    let i = row_of(e);
                    simd::add_assign(out_row, &self.data[i * c..(i + 1) * c]);
                }
            },
        );
        out
    }

    /// Vertically stack matrices with identical column counts.
    pub fn vcat(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vcat of zero tensors");
        let c = parts[0].ncols();
        let total: usize = parts.iter().map(|t| t.nrows()).sum();
        let mut data = pool::take_raw(total * c);
        let mut off = 0;
        for p in parts {
            assert_eq!(p.ncols(), c, "vcat column mismatch");
            data[off..off + p.numel()].copy_from_slice(p.data());
            off += p.numel();
        }
        Tensor::from_raw(data, Shape::new(&[total, c]))
    }

    /// Select a subset of columns of a matrix, in the given order.
    pub fn select_cols(&self, cols: &[usize]) -> Tensor {
        let (r, c) = self.shape.as_matrix();
        let mut data = pool::take_raw(r * cols.len());
        for i in 0..r {
            for (k, &j) in cols.iter().enumerate() {
                assert!(j < c, "column {j} out of range {c}");
                data[i * cols.len() + k] = self.data[i * c + j];
            }
        }
        Tensor::from_raw(data, Shape::new(&[r, cols.len()]))
    }

    /// Extract a column of a matrix as a `[rows]` vector.
    pub fn col(&self, j: usize) -> Tensor {
        let (r, c) = self.shape.as_matrix();
        assert!(j < c);
        let data = (0..r).map(|i| self.data[i * c + j]).collect();
        Tensor::from_vec(data, [r])
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?})", self.data())
        } else {
            write!(f, "[{} elements])", self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full([2, 2], 3.5);
        assert_eq!(f.mean(), 3.5);
        let e = Tensor::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.at(1, 1), 1.0);
        assert_eq!(e.at(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn randn_stats() {
        let mut rng = Rng::seed_from(42);
        let t = Tensor::randn([10_000], &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.06, "var {var}");
    }

    #[test]
    fn matmul_takes_the_skip_path_for_non_finite_b() {
        // Zeros of A against the ∞/NaN row of B: the skip reference
        // never forms 0 · ∞, so the result stays finite.
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -0.0, 0.0, 3.0], [2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, f32::INFINITY, f32::NAN, 3.0, 4.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[7.0, 10.0, 9.0, 12.0]);
        // A non-zero a[k] against ∞ still propagates.
        let ones = Tensor::ones([1, 3]);
        assert!(ones.matmul(&b).data().iter().all(|v| !v.is_finite()));
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]);
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], [2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn([3, 3], &mut rng);
        let i = Tensor::eye(3);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let b = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[4., 5., 10., 11.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let at = a.transpose();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.at(0, 1), 4.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn broadcast_add_bias() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let b = Tensor::from_vec(vec![10., 20., 30.], [3]);
        let y = x.add(&b);
        assert_eq!(y.data(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn broadcast_mul_column() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2]);
        let w = Tensor::from_vec(vec![2., 3.], [2, 1]);
        let y = x.mul(&w);
        assert_eq!(y.data(), &[2., 4., 9., 12.]);
    }

    #[test]
    fn reductions() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        assert_eq!(x.sum(), 21.0);
        assert_eq!(x.mean(), 3.5);
        assert_eq!(x.max(), 6.0);
        assert_eq!(x.min(), 1.0);
        assert_eq!(x.sum_rows().data(), &[5., 7., 9.]);
        assert_eq!(x.mean_rows().data(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn argmax_rows() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.0, 1.0, 0.5, 0.2], [2, 3]);
        assert_eq!(x.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn index_select_and_scatter_roundtrip() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [3, 2]);
        let sel = x.index_select_rows(&[2, 0]);
        assert_eq!(sel.data(), &[5., 6., 1., 2.]);
        let sc = sel.scatter_add_rows(&[0, 0], 2);
        assert_eq!(sc.data(), &[6., 8., 0., 0.]);
    }

    #[test]
    fn select_cols_picks_and_orders() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3]);
        let s = x.select_cols(&[2, 0]);
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.data(), &[3., 1., 6., 4.]);
    }

    #[test]
    fn vcat_and_col() {
        let a = Tensor::from_vec(vec![1., 2.], [1, 2]);
        let b = Tensor::from_vec(vec![3., 4., 5., 6.], [2, 2]);
        let c = Tensor::vcat(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.col(1).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_works() {
        let mut a = Tensor::from_vec(vec![1., 2.], [2]);
        let b = Tensor::from_vec(vec![10., 20.], [2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6., 12.]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::zeros([2]);
        assert!(!a.has_non_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(a.has_non_finite());
    }
}
