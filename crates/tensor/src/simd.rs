//! Vectorized kernel bodies: 8-lane unrolled loops with scalar tails.
//!
//! Every function here is written as manual 8-wide blocks the compiler
//! can autovectorize (array accumulators, `chunks_exact(8)` main loops,
//! scalar tails). There is exactly one body per kernel.
//!
//! ## The fixed-order accumulation contract
//!
//! The bitwise-determinism contract of this workspace requires every
//! kernel to produce identical bits at any `OOD_THREADS` × `OOD_POOL`
//! setting. For elementwise maps and zips that is trivial (element `i` is
//! a pure function of input `i`). For reductions, the accumulation
//! *schedule* is part of the kernel's definition:
//!
//! * the first `len - len % 8` elements feed eight lane accumulators —
//!   lane `l` combines elements `l, l+8, l+16, …` in ascending order;
//! * the eight lanes are combined in a fixed pairwise tree:
//!   `((l0⊕l1)⊕(l2⊕l3)) ⊕ ((l4⊕l5)⊕(l6⊕l7))`;
//! * the scalar tail is folded in afterwards, left to right.
//!
//! The schedule depends only on the slice length, never on the thread
//! count or buffer reuse; the unit tests pin it against a one-element-at-
//! a-time reference fold. Chunked callers combine per-chunk partials with
//! [`crate::par::tree_reduce`], whose order is a pure function of the
//! chunk count. The matmul microkernel needs no lane schedule at all: its
//! vector dimension is the *output* column, and each output element still
//! accumulates over `k` in strict ascending order — bitwise-identical to
//! the classic i-k-j loop.

/// Lane width of the unrolled kernel bodies (f32x8-style blocking).
pub const LANES: usize = 8;

// ------------------------------------------------------- elementwise maps

/// `out[i] = f(src[i])`. Order-preserving.
pub fn map_to(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(src.len(), out.len());
    let mut chunks = src.chunks_exact(LANES).zip(out.chunks_exact_mut(LANES));
    for (s, o) in &mut chunks {
        for l in 0..LANES {
            o[l] = f(s[l]);
        }
    }
    let main = src.len() - src.len() % LANES;
    for (s, o) in src[main..].iter().zip(out[main..].iter_mut()) {
        *o = f(*s);
    }
}

/// `out[i] = f(out[i])` in place.
pub fn map_assign(out: &mut [f32], f: impl Fn(f32) -> f32) {
    for o in out.chunks_exact_mut(LANES) {
        for v in o.iter_mut() {
            *v = f(*v);
        }
    }
    let main = out.len() - out.len() % LANES;
    for o in &mut out[main..] {
        *o = f(*o);
    }
}

/// `out[i] = f(a[i], b[i])` for same-length slices.
pub fn zip_to(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let mut it = a
        .chunks_exact(LANES)
        .zip(b.chunks_exact(LANES))
        .zip(out.chunks_exact_mut(LANES));
    for ((av, bv), o) in &mut it {
        for l in 0..LANES {
            o[l] = f(av[l], bv[l]);
        }
    }
    let main = a.len() - a.len() % LANES;
    for ((av, bv), o) in a[main..]
        .iter()
        .zip(b[main..].iter())
        .zip(out[main..].iter_mut())
    {
        *o = f(*av, *bv);
    }
}

/// `acc[i] += x[i]`. The CSR aggregation inner loop: per output element
/// the addition order over input rows is whatever the caller's row order
/// is, so this stays bitwise-identical to the classic scatter loop.
pub fn add_assign(acc: &mut [f32], x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    let mut it = acc.chunks_exact_mut(LANES).zip(x.chunks_exact(LANES));
    for (a, v) in &mut it {
        for l in 0..LANES {
            a[l] += v[l];
        }
    }
    let main = acc.len() - acc.len() % LANES;
    for (a, v) in acc[main..].iter_mut().zip(x[main..].iter()) {
        *a += v;
    }
}

/// `acc[i] += term(g[i], x[i], y[i])`: one row of a backward broadcast
/// fold. Each term is rounded before it is added, exactly as if it had
/// been materialized first.
pub fn add_terms(
    acc: &mut [f32],
    g: &[f32],
    x: &[f32],
    y: &[f32],
    term: impl Fn(f32, f32, f32) -> f32,
) {
    debug_assert!(acc.len() == g.len() && acc.len() == x.len() && acc.len() == y.len());
    let mut it = acc
        .chunks_exact_mut(LANES)
        .zip(g.chunks_exact(LANES))
        .zip(x.chunks_exact(LANES))
        .zip(y.chunks_exact(LANES));
    for (((a, gv), xv), yv) in &mut it {
        for l in 0..LANES {
            a[l] += term(gv[l], xv[l], yv[l]);
        }
    }
    let main = acc.len() - acc.len() % LANES;
    for (((a, gv), xv), yv) in acc[main..]
        .iter_mut()
        .zip(&g[main..])
        .zip(&x[main..])
        .zip(&y[main..])
    {
        *a += term(*gv, *xv, *yv);
    }
}

/// `acc[i] += alpha * x[i]`.
pub fn axpy_assign(acc: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    let mut it = acc.chunks_exact_mut(LANES).zip(x.chunks_exact(LANES));
    for (a, v) in &mut it {
        for l in 0..LANES {
            a[l] += alpha * v[l];
        }
    }
    let main = acc.len() - acc.len() % LANES;
    for (a, v) in acc[main..].iter_mut().zip(x[main..].iter()) {
        *a += alpha * v;
    }
}

// ---------------------------------------------------------- lane reductions

/// Combine eight lane accumulators in the fixed pairwise order that is
/// part of the reduction schedule (see the module docs).
#[inline]
fn combine_lanes(l: [f32; LANES], op: impl Fn(f32, f32) -> f32) -> f32 {
    op(
        op(op(l[0], l[1]), op(l[2], l[3])),
        op(op(l[4], l[5]), op(l[6], l[7])),
    )
}

/// The shared reduction engine: `fold(op, init, term(x) for x in xs)` under
/// the fixed lane schedule, 8 lanes per block.
#[inline]
fn lane_fold(
    xs: &[f32],
    init: f32,
    term: impl Fn(f32) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> f32 {
    let main = xs.len() - xs.len() % LANES;
    let mut lanes = [init; LANES];
    for block in xs[..main].chunks_exact(LANES) {
        for l in 0..LANES {
            lanes[l] = op(lanes[l], term(block[l]));
        }
    }
    let mut acc = combine_lanes(lanes, &op);
    for &x in &xs[main..] {
        acc = op(acc, term(x));
    }
    acc
}

/// Two-input variant of [`lane_fold`] for fused product reductions.
#[inline]
fn lane_fold2(
    xs: &[f32],
    ys: &[f32],
    init: f32,
    term: impl Fn(f32, f32) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> f32 {
    debug_assert_eq!(xs.len(), ys.len());
    let main = xs.len() - xs.len() % LANES;
    let mut lanes = [init; LANES];
    for (bx, by) in xs[..main]
        .chunks_exact(LANES)
        .zip(ys[..main].chunks_exact(LANES))
    {
        for l in 0..LANES {
            lanes[l] = op(lanes[l], term(bx[l], by[l]));
        }
    }
    let mut acc = combine_lanes(lanes, &op);
    for (&x, &y) in xs[main..].iter().zip(ys[main..].iter()) {
        acc = op(acc, term(x, y));
    }
    acc
}

/// Sum under the fixed lane schedule.
pub fn sum(xs: &[f32]) -> f32 {
    lane_fold(xs, 0.0, |x| x, |a, b| a + b)
}

/// Sum of squares under the fixed lane schedule.
pub fn sq_sum(xs: &[f32]) -> f32 {
    lane_fold(xs, 0.0, |x| x * x, |a, b| a + b)
}

/// `Σ ((scale · x) ⊙ mask)²` under the fixed lane schedule — the
/// scaled-masked-square-sum chunk body.
pub fn masked_sq_sum(xs: &[f32], mask: &[f32], scale: f32) -> f32 {
    lane_fold2(
        xs,
        mask,
        0.0,
        |x, m| {
            let t = scale * x * m;
            t * t
        },
        |a, b| a + b,
    )
}

/// `Σ exp(x − m)` under the fixed lane schedule — the log-softmax
/// normalizer body.
pub fn sum_shifted_exp(xs: &[f32], m: f32) -> f32 {
    lane_fold(xs, 0.0, |x| (x - m).exp(), |a, b| a + b)
}

/// Maximum element under the fixed lane schedule (−∞ for empty slices).
pub fn max(xs: &[f32]) -> f32 {
    lane_fold(xs, f32::NEG_INFINITY, |x| x, f32::max)
}

/// `Σ x[j] · (g[j] − mean[j])` under the fixed lane schedule — the
/// weighted-center backward row dot.
pub fn center_dot(x: &[f32], g: &[f32], mean: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), g.len());
    debug_assert_eq!(x.len(), mean.len());
    let main = x.len() - x.len() % LANES;
    let mut lanes = [0.0f32; LANES];
    for ((bx, bg), bm) in x[..main]
        .chunks_exact(LANES)
        .zip(g[..main].chunks_exact(LANES))
        .zip(mean[..main].chunks_exact(LANES))
    {
        for l in 0..LANES {
            lanes[l] += bx[l] * (bg[l] - bm[l]);
        }
    }
    let mut acc = combine_lanes(lanes, |a, b| a + b);
    for ((&xv, &gv), &mv) in x[main..]
        .iter()
        .zip(g[main..].iter())
        .zip(mean[main..].iter())
    {
        acc += xv * (gv - mv);
    }
    acc
}

// ------------------------------------------------------ matmul microkernel

/// Column tile width of the matmul microkernel: two 8-lane register
/// accumulator arrays per tile.
const MM_TILE: usize = 2 * LANES;

/// One output row of `C = A·B`: `out_row[j] = Σ_k a_row[k] · b[k,j]` with
/// `b` row-major `[k, n]`. `out_row` must be zeroed by the caller and `b`
/// must be all finite (see [`all_finite`]); use [`matmul_row_guarded`]
/// otherwise.
///
/// The output row is tiled into 16-column blocks held in register
/// accumulator arrays across the whole `k` loop (one load/store of the
/// output per tile instead of per `k`). Per output element the
/// accumulation order is strict ascending `k`. There is no branch on
/// zero `a[k]`, yet the result is bitwise-identical to the classic i-k-j
/// loop that skips them: every accumulator starts at `+0.0`, and under
/// round-to-nearest a sum starting at `+0.0` never becomes `−0.0` (a sum
/// is `−0.0` only when both addends are), so adding the `±0.0` product of
/// a zero `a[k]` and a finite `b[k,j]` leaves it unchanged.
pub fn matmul_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    matmul_row_body::<false>(a_row, b, n, out_row);
}

/// [`matmul_row`] for a `b` holding ±∞ or NaN: zero `a[k]` are skipped,
/// as `0 · ∞` would otherwise turn the sum into NaN. Same accumulation
/// order as [`matmul_row`].
pub fn matmul_row_guarded(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    matmul_row_body::<true>(a_row, b, n, out_row);
}

/// The one matmul row body; `SKIP_ZERO` is resolved at compile time, so
/// the unguarded instance has no data-dependent branch in its `k` loop.
#[inline(always)]
fn matmul_row_body<const SKIP_ZERO: bool>(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    debug_assert_eq!(out_row.len(), n);
    debug_assert_eq!(b.len(), a_row.len() * n);
    let mut j0 = 0;
    while j0 + MM_TILE <= n {
        let mut acc = [0.0f32; MM_TILE];
        for (kk, &a) in a_row.iter().enumerate() {
            if SKIP_ZERO && a == 0.0 {
                continue;
            }
            let b_tile = &b[kk * n + j0..kk * n + j0 + MM_TILE];
            for l in 0..MM_TILE {
                acc[l] += a * b_tile[l];
            }
        }
        out_row[j0..j0 + MM_TILE].copy_from_slice(&acc);
        j0 += MM_TILE;
    }
    if j0 < n {
        // Tail columns: same k-ascending order, unblocked.
        let tail = &mut out_row[j0..];
        for (kk, &a) in a_row.iter().enumerate() {
            if SKIP_ZERO && a == 0.0 {
                continue;
            }
            let b_tail = &b[kk * n + j0..(kk + 1) * n];
            for (o, &bv) in tail.iter_mut().zip(b_tail.iter()) {
                *o += a * bv;
            }
        }
    }
}

/// Rows `p..p + R` of `C = Aᵀ·G` for row-major `a: [m, k]` and
/// `g: [m, n]`, written to `out` (`R` rows of `n`): `out[r][j] =
/// Σ_i a[i, p + r] · g[i, j]`, read from `a` in place.
///
/// The same schedule as [`matmul_row`] on a row of the materialized
/// transpose: each output starts at `+0.0` and accumulates over `i` in
/// ascending order, in 16-column register tiles (here `R` × 16), with
/// the tail columns in a zeroed tile. `SKIP_ZERO` skips zero `a[i, p+r]`
/// exactly as [`matmul_row_guarded`] does, for a `g` holding ±∞ or NaN.
#[inline(always)]
fn matmul_tn_body<const SKIP_ZERO: bool, const R: usize>(
    a: &[f32],
    k: usize,
    p: usize,
    g: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), R * n);
    let rows = || a.chunks_exact(k).zip(g.chunks_exact(n));
    let mut j0 = 0;
    while j0 + MM_TILE <= n {
        let mut acc = [[0.0f32; MM_TILE]; R];
        for (a_row, g_row) in rows() {
            let g_tile: &[f32; MM_TILE] = g_row[j0..j0 + MM_TILE]
                .try_into()
                .expect("a full 16-column tile");
            for (acc_r, &av) in acc.iter_mut().zip(&a_row[p..p + R]) {
                if SKIP_ZERO && av == 0.0 {
                    continue;
                }
                for l in 0..MM_TILE {
                    acc_r[l] += av * g_tile[l];
                }
            }
        }
        for (r, tile) in acc.iter().enumerate() {
            out[r * n + j0..r * n + j0 + MM_TILE].copy_from_slice(tile);
        }
        j0 += MM_TILE;
    }
    if j0 < n {
        // Tail columns: the same order, in a zeroed partial tile.
        let w = n - j0;
        let mut acc = [[0.0f32; MM_TILE]; R];
        for (a_row, g_row) in rows() {
            for (acc_r, &av) in acc.iter_mut().zip(&a_row[p..p + R]) {
                if SKIP_ZERO && av == 0.0 {
                    continue;
                }
                for (o, &gv) in acc_r.iter_mut().zip(&g_row[j0..]) {
                    *o += av * gv;
                }
            }
        }
        for (r, tile) in acc.iter().enumerate() {
            out[r * n + j0..(r + 1) * n].copy_from_slice(&tile[..w]);
        }
    }
}

/// Rows `p..p + out.len() / n` (one or two) of `C = Aᵀ·G` — the weight
/// gradient of `A·W` — without materializing `Aᵀ`. `g` must be all finite
/// unless `guarded`, which skips zero entries of `A` so `0 · ∞` never
/// enters a sum. Bitwise-equal to [`matmul_row`] /
/// [`matmul_row_guarded`] on the rows of `A`'s transpose.
pub(crate) fn matmul_tn_rows(
    a: &[f32],
    k: usize,
    p: usize,
    g: &[f32],
    n: usize,
    guarded: bool,
    out: &mut [f32],
) {
    if n == 0 {
        return;
    }
    match (guarded, out.len() / n) {
        (false, 2) => matmul_tn_body::<false, 2>(a, k, p, g, n, out),
        (true, 2) => matmul_tn_body::<true, 2>(a, k, p, g, n, out),
        (false, _) => matmul_tn_body::<false, 1>(a, k, p, g, n, out),
        (true, _) => matmul_tn_body::<true, 1>(a, k, p, g, n, out),
    }
}

/// True when no element is ±∞ or NaN: `x · 0` is `±0.0` exactly for
/// finite `x` and NaN otherwise, so the branch-free lane sum of those
/// products is zero iff every element is finite.
pub fn all_finite(xs: &[f32]) -> bool {
    lane_fold(xs, 0.0, |x| x * 0.0, |a, b| a + b) == 0.0
}

// ------------------------------------------------------- fused RFF bodies

/// One row of the fused RFF feature: `out[j] = amp · cos(x[j]·w[j] + φ[j])`.
pub fn cos_feature_row(x: &[f32], w: &[f32], phi: &[f32], amp: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let mut it = x
        .chunks_exact(LANES)
        .zip(w.chunks_exact(LANES))
        .zip(phi.chunks_exact(LANES))
        .zip(out.chunks_exact_mut(LANES));
    for (((xv, wv), pv), o) in &mut it {
        for l in 0..LANES {
            o[l] = (xv[l] * wv[l] + pv[l]).cos() * amp;
        }
    }
    let main = x.len() - x.len() % LANES;
    for (j, o) in out[main..].iter_mut().enumerate() {
        let j = main + j;
        *o = (x[j] * w[j] + phi[j]).cos() * amp;
    }
}

/// One row of the fused RFF backward:
/// `out[j] = −amp · sin(x[j]·w[j] + φ[j]) · w[j] · g[j]`.
pub fn cos_feature_grad_row(
    x: &[f32],
    w: &[f32],
    phi: &[f32],
    amp: f32,
    g: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), out.len());
    let mut it = x
        .chunks_exact(LANES)
        .zip(w.chunks_exact(LANES))
        .zip(phi.chunks_exact(LANES))
        .zip(g.chunks_exact(LANES))
        .zip(out.chunks_exact_mut(LANES));
    for ((((xv, wv), pv), gv), o) in &mut it {
        for l in 0..LANES {
            o[l] = -amp * (xv[l] * wv[l] + pv[l]).sin() * wv[l] * gv[l];
        }
    }
    let main = x.len() - x.len() % LANES;
    for (j, o) in out[main..].iter_mut().enumerate() {
        let j = main + j;
        *o = -amp * (x[j] * w[j] + phi[j]).sin() * w[j] * g[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented lane schedule, one element at a time: element `i`
    /// of the main body goes to lane `i % 8`, the lanes combine pairwise,
    /// then the tail folds in left to right. Every lane reduction must
    /// match it bitwise.
    fn reference_fold(terms: &[f32], init: f32, op: impl Fn(f32, f32) -> f32) -> f32 {
        let main = terms.len() - terms.len() % LANES;
        let mut lanes = [init; LANES];
        for (i, &t) in terms[..main].iter().enumerate() {
            lanes[i % LANES] = op(lanes[i % LANES], t);
        }
        let mut acc = combine_lanes(lanes, &op);
        for &t in &terms[main..] {
            acc = op(acc, t);
        }
        acc
    }

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect()
    }

    #[test]
    fn reductions_follow_the_reference_schedule_bitwise() {
        // Lengths straddling the 8-lane boundary, including empty.
        for n in [0usize, 1, 7, 8, 9, 64, 65, 1000] {
            let xs = data(n);
            let m: Vec<f32> = xs.iter().map(|x| x.abs().min(1.0)).collect();
            let mx = max(&xs);
            let terms = |f: &dyn Fn(usize) -> f32| (0..n).map(f).collect::<Vec<f32>>();
            let sq = terms(&|i| xs[i] * xs[i]);
            let masked = terms(&|i| (0.7 * xs[i] * m[i]) * (0.7 * xs[i] * m[i]));
            let shifted = terms(&|i| (xs[i] - mx).exp());
            let centered = terms(&|i| xs[i] * (m[i] - xs[i]));
            let add = |a: f32, b: f32| a + b;
            let cases = [
                ("sum", sum(&xs), reference_fold(&xs, 0.0, add)),
                ("sq_sum", sq_sum(&xs), reference_fold(&sq, 0.0, add)),
                (
                    "masked_sq_sum",
                    masked_sq_sum(&xs, &m, 0.7),
                    reference_fold(&masked, 0.0, add),
                ),
                ("max", mx, reference_fold(&xs, f32::NEG_INFINITY, f32::max)),
                (
                    "sum_shifted_exp",
                    sum_shifted_exp(&xs, mx),
                    reference_fold(&shifted, 0.0, add),
                ),
                (
                    "center_dot",
                    center_dot(&xs, &m, &xs),
                    reference_fold(&centered, 0.0, add),
                ),
            ];
            for (name, got, want) in cases {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} n={n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn lane_schedule_is_the_documented_one() {
        // 9 elements: lanes get one element each, tail element folds last.
        let xs: Vec<f32> = (0..9).map(|i| (i + 1) as f32).collect();
        let lanes: Vec<f32> = xs[..8].to_vec();
        let expect = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + xs[8];
        assert_eq!(sum(&xs).to_bits(), expect.to_bits());
    }

    #[test]
    fn maps_preserve_element_order() {
        for n in [0usize, 5, 8, 17, 200] {
            let xs = data(n);
            let expect: Vec<f32> = xs.iter().map(|x| x.cos()).collect();
            let mut out = vec![0.0; n];
            map_to(&xs, &mut out, f32::cos);
            assert_eq!(out, expect);
            let mut inpl = xs.clone();
            map_assign(&mut inpl, f32::cos);
            assert_eq!(inpl, expect);
            let mut z = vec![0.0; n];
            zip_to(&xs, &expect, &mut z, |a, b| a * b);
            let ze: Vec<f32> = xs.iter().zip(&expect).map(|(a, b)| a * b).collect();
            assert_eq!(z, ze);
            let mut acc = xs.clone();
            add_assign(&mut acc, &expect);
            let ae: Vec<f32> = xs.iter().zip(&expect).map(|(a, b)| a + b).collect();
            assert_eq!(acc, ae);
            let mut axv = xs.clone();
            axpy_assign(&mut axv, 0.5, &expect);
            let axe: Vec<f32> = xs.iter().zip(&expect).map(|(a, b)| a + 0.5 * b).collect();
            assert_eq!(axv, axe);
        }
    }

    /// The classic i-k-j row loop with the skip-zero-`a[k]` guard.
    fn matmul_row_reference(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n];
        for (kk, &av) in a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[j] += av * b[kk * n + j];
            }
        }
        out
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} col {j}: {g} vs {w}");
        }
    }

    #[test]
    fn matmul_row_matches_reference_bitwise() {
        // A subnormal, and k/n tails: n below, at and past the 16-column
        // tile; odd k.
        let sub = f32::MIN_POSITIVE / 8.0;
        for (k, n) in [
            (1usize, 1usize),
            (4, 5),
            (7, 16),
            (13, 35),
            (8, 64),
            (9, 17),
        ] {
            let mut b = data(k * n);
            let len = b.len();
            for (i, v) in [-0.0, sub, 0.0, -sub].into_iter().enumerate() {
                b[i * 3 % len] = v;
            }
            let mut mixed = data(k);
            mixed[0] = 0.0;
            mixed[k / 2] = -0.0;
            if k > 2 {
                mixed[k - 1] = sub;
            }
            let rows = [mixed, vec![0.0; k], vec![-0.0; k], vec![sub; k]];
            for a in &rows {
                let want = matmul_row_reference(a, &b, n);
                let mut plain = vec![0.0f32; n];
                matmul_row(a, &b, n, &mut plain);
                assert_bits_eq(&plain, &want, &format!("k={k} n={n} guard-free"));
                let mut guarded = vec![0.0f32; n];
                matmul_row_guarded(a, &b, n, &mut guarded);
                assert_bits_eq(&guarded, &want, &format!("k={k} n={n} guarded"));
            }
        }
    }

    #[test]
    fn guarded_matmul_row_skips_zeros_against_non_finite_b() {
        let (k, n) = (5usize, 19usize);
        let mut b = data(k * n);
        b[2 * n + 3] = f32::INFINITY;
        b[2 * n + 17] = f32::NAN;
        b[4 * n] = f32::NEG_INFINITY;
        let mut a = data(k);
        a[2] = 0.0;
        a[4] = -0.0;
        let want = matmul_row_reference(&a, &b, n);
        assert!(want.iter().all(|v| v.is_finite()));
        let mut guarded = vec![0.0f32; n];
        matmul_row_guarded(&a, &b, n, &mut guarded);
        assert_bits_eq(&guarded, &want, "guarded");
        // The guard-free body is only exact for finite b: 0 · ∞ is NaN.
        let mut plain = vec![0.0f32; n];
        matmul_row(&a, &b, n, &mut plain);
        assert!(plain[3].is_nan() && plain[17].is_nan() && plain[0].is_nan());
    }

    #[test]
    fn all_finite_flags_any_non_finite_element() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            f32::MIN
        ]));
        assert!(all_finite(&data(1000)));
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            // In the 8-lane body and in the scalar tail.
            for pos in [0usize, 5, 8] {
                let mut xs = data(9);
                xs[pos] = bad;
                assert!(!all_finite(&xs), "{bad} at {pos}");
            }
        }
    }
}
