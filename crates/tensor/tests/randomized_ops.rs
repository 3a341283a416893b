//! Randomized tests for the tensor substrate: algebraic identities of the
//! eager ops and finite-difference validation of the autodiff rules. Each
//! property runs over a fixed fan of seeds through the in-tree [`Rng`], so
//! failures reproduce exactly.

use ood_tensor::check::check_gradients;
use ood_tensor::ops::Axis;
use ood_tensor::rng::Rng;
use ood_tensor::{broadcast_shapes, Shape, Tape, Tensor};
use std::rc::Rc;

fn random_tensor(rng: &mut Rng, rows: usize, cols: usize, lo: f32, hi: f32) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
    Tensor::from_vec(data, [rows, cols])
}

#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 3, 4, -3.0, 3.0);
        let b = random_tensor(&mut rng, 4, 2, -3.0, 3.0);
        let c = random_tensor(&mut rng, 4, 2, -3.0, 3.0);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-3, "seed {seed}");
    }
}

#[test]
fn matmul_associates() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 2, 3, -3.0, 3.0);
        let b = random_tensor(&mut rng, 3, 4, -3.0, 3.0);
        let c = random_tensor(&mut rng, 4, 2, -3.0, 3.0);
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-2, "seed {seed}");
    }
}

#[test]
fn transpose_is_involution() {
    for seed in 0..32 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 3, 5, -3.0, 3.0);
        assert_eq!(a.transpose().transpose(), a, "seed {seed}");
    }
}

#[test]
fn transpose_reverses_matmul() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 3, 4, -3.0, 3.0);
        let b = random_tensor(&mut rng, 4, 2, -3.0, 3.0);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-3, "seed {seed}");
    }
}

#[test]
fn broadcast_shape_is_commutative() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let d1 = rng.range_inclusive(1, 4);
        let d2 = rng.range_inclusive(1, 4);
        let d3 = rng.range_inclusive(1, 4);
        let a = Shape::new(&[d1, d2]);
        let b = Shape::new(&[d3.min(d2).max(1)]);
        assert_eq!(
            broadcast_shapes(&a, &b),
            broadcast_shapes(&b, &a),
            "seed {seed}: [{d1},{d2}] vs [{d3}]"
        );
    }
}

#[test]
fn sum_axis_decomposes_total() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 4, 6, -3.0, 3.0);
        let rows: f32 = {
            let mut t = Tape::new();
            let x = t.leaf(a.clone());
            let s = t.sum_axis(x, Axis::Rows);
            t.value(s).sum()
        };
        assert!(
            (rows - a.sum()).abs() < 1e-3 * (1.0 + a.sum().abs()),
            "seed {seed}: {rows} vs {}",
            a.sum()
        );
    }
}

#[test]
fn index_select_then_scatter_preserves_rowsums() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 5, 3, -3.0, 3.0);
        let len = rng.range_inclusive(1, 9);
        let idx: Vec<usize> = (0..len).map(|_| rng.below(5)).collect();
        // scatter_add(select(x, idx), idx) accumulates each selected row back
        // onto its source: total mass equals sum over selected rows.
        let sel = a.index_select_rows(&idx);
        let back = sel.scatter_add_rows(&idx, 5);
        let expected: f32 = idx.iter().map(|&i| a.row(i).iter().sum::<f32>()).sum();
        assert!(
            (back.sum() - expected).abs() < 1e-3 * (1.0 + expected.abs()),
            "seed {seed}: {} vs {expected}",
            back.sum()
        );
    }
}

#[test]
fn gradcheck_random_composition() {
    for seed in 0..40 {
        let mut rng = Rng::seed_from(seed);
        let a = random_tensor(&mut rng, 3, 3, -3.0, 3.0);
        let b = random_tensor(&mut rng, 3, 3, -3.0, 3.0);
        let pick = (seed % 5) as u8;
        let res = check_gradients(&[a, b], 1e-2, move |t, ids| {
            let combined = match pick {
                0 => t.add(ids[0], ids[1]),
                1 => t.mul(ids[0], ids[1]),
                2 => t.matmul(ids[0], ids[1]),
                3 => {
                    let s = t.sigmoid(ids[0]);
                    t.mul(s, ids[1])
                }
                _ => {
                    let c = t.cos(ids[0]);
                    t.add(c, ids[1])
                }
            };
            let sq = t.square(combined);
            t.mean(sq)
        });
        assert!(res.within(5e-2), "{res:?} for op {pick}, seed {seed}");
    }
}

#[test]
fn weighted_mean_bounded_by_extremes() {
    use ood_tensor::ops::loss::weighted_mean;
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let vals: Vec<f32> = (0..4).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut t = Tape::new();
        let per = t.leaf(Tensor::from_vec(vals.clone(), [4]));
        let w = Tensor::ones([4]);
        let l = weighted_mean(&mut t, per, &w);
        let m = t.value(l).item();
        let lo = vals.iter().copied().fold(f32::MAX, f32::min);
        let hi = vals.iter().copied().fold(f32::MIN, f32::max);
        assert!(
            m >= lo - 1e-5 && m <= hi + 1e-5,
            "seed {seed}: {m} not in [{lo}, {hi}]"
        );
    }
}

#[test]
fn segment_ops_cover_all_rows() {
    for seed in 0..32 {
        let mut rng = Rng::seed_from(seed);
        let seg: Vec<usize> = (0..6).map(|_| rng.below(4)).collect();
        let x = Tensor::randn([6, 2], &mut rng);
        let mut t = Tape::new();
        let xn = t.leaf(x.clone());
        let sums = t.segment_sum(xn, Rc::new(seg.clone()), 4);
        // Total mass preserved by segment_sum.
        assert!(
            (t.value(sums).sum() - x.sum()).abs() < 1e-3,
            "seed {seed}, seg {seg:?}"
        );
    }
}
