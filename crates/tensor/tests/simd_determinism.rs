//! Bitwise-determinism contract for the vectorized and CSR kernel
//! families: every kernel must produce **identical bits** across the full
//! configuration grid `OOD_THREADS={1,2,4}` × `OOD_POOL={0,1}` — six
//! configurations per case, compared with no tolerance. Gradients ride
//! along with forward values, and the edge cases that broke naive scatter
//! implementations (empty segments, collision-heavy indices, degenerate
//! −∞ rows, sub-lane-width tails) are pinned explicitly. The lane
//! schedule itself is pinned by the unit tests in `simd.rs`.

use ood_tensor::profile::Kernel;
use ood_tensor::rng::Rng;
use ood_tensor::{csr, par, pool, Tape, Tensor};
use std::rc::Rc;
use std::sync::Mutex;

/// `par::set_threads` and `pool::set_enabled` are process-global;
/// serialize tests touching them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` across the full thread × pool grid and assert all six outputs
/// match the (t=1, pool on) reference bitwise.
fn bitwise_across_grid(name: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_threads(1);
    pool::set_enabled(true);
    let reference: Vec<u32> = f().iter().map(|x| x.to_bits()).collect();
    assert!(!reference.is_empty(), "{name}: case produced no output");
    for threads in [1usize, 2, 4] {
        for pool_on in [false, true] {
            par::set_threads(threads);
            pool::set_enabled(pool_on);
            let got: Vec<u32> = f().iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                reference, got,
                "{name}: t={threads} pool={pool_on} differs bitwise"
            );
        }
    }
    par::set_threads(par::max_threads());
    pool::set_enabled(true);
}

/// Forward value + every leaf gradient, concatenated, so one comparison
/// covers both passes.
fn value_and_grads(
    leaves: &[Tensor],
    build: impl Fn(&mut Tape, &[ood_tensor::NodeId]) -> ood_tensor::NodeId,
) -> Vec<f32> {
    let mut tape = Tape::new();
    let ids: Vec<_> = leaves.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = build(&mut tape, &ids);
    let mut all = tape.value(out).data().to_vec();
    let s = tape.sum(out);
    let grads = tape.backward(s);
    for &id in &ids {
        if let Some(g) = grads.get(id) {
            all.extend_from_slice(g.data());
        }
    }
    all
}

#[test]
fn matmul_microkernel_is_grid_invariant() {
    let mut rng = Rng::seed_from(41);
    // 41 columns: two full 16-wide tiles plus a 9-column tail; zeros in A
    // exercise the guard-free body.
    let mut a = Tensor::randn([97, 53], &mut rng);
    for v in a.data_mut().iter_mut().step_by(17) {
        *v = 0.0;
    }
    let b = Tensor::randn([53, 41], &mut rng);
    bitwise_across_grid("matmul", || a.matmul(&b).into_vec());
    bitwise_across_grid("matmul grad", || {
        value_and_grads(&[a.clone(), b.clone()], |t, ids| t.matmul(ids[0], ids[1]))
    });
}

#[test]
fn elementwise_maps_are_grid_invariant() {
    let mut rng = Rng::seed_from(42);
    // 209 elements per row: not a multiple of 8, so every row has a tail.
    let x = Tensor::randn([150, 209], &mut rng);
    let y = Tensor::randn([150, 209], &mut rng);
    bitwise_across_grid("map cos", || x.map(f32::cos).into_vec());
    bitwise_across_grid("map_inplace", || {
        let mut z = x.clone();
        z.map_inplace(|v| (0.1 * v).exp());
        z.into_vec()
    });
    bitwise_across_grid("zip mul", || x.mul(&y).into_vec());
}

#[test]
fn broadcast_fast_paths_are_grid_invariant() {
    let mut rng = Rng::seed_from(43);
    let x = Tensor::randn([90, 35], &mut rng);
    let row = Tensor::randn([35], &mut rng);
    let row2 = Tensor::randn([1, 35], &mut rng);
    let col = Tensor::randn([90, 1], &mut rng);
    let scalar = Tensor::scalar(1.7);
    bitwise_across_grid("broadcast row", || x.add(&row).into_vec());
    bitwise_across_grid("broadcast [1,c]", || x.mul(&row2).into_vec());
    bitwise_across_grid("broadcast col", || x.mul(&col).into_vec());
    bitwise_across_grid("broadcast scalar", || x.div(&scalar).into_vec());
    // Swapped argument order must hit the mirrored fast path with f's
    // operands un-swapped.
    bitwise_across_grid("broadcast col swapped", || col.sub(&x).into_vec());
    bitwise_across_grid("broadcast row swapped", || row.sub(&x).into_vec());
}

#[test]
fn reductions_are_grid_invariant() {
    let mut rng = Rng::seed_from(44);
    // 10_007 elements: prime, so lane tails and chunk tails both appear.
    let x = Tensor::randn([10_007], &mut rng);
    bitwise_across_grid("sum", || vec![x.sum()]);
    bitwise_across_grid("frobenius_sq", || vec![x.frobenius_sq()]);
    bitwise_across_grid("max", || vec![x.max()]);
    let m = Tensor::randn([151, 67], &mut rng);
    bitwise_across_grid("sum_rows", || m.sum_rows().into_vec());
    bitwise_across_grid("axpy", || {
        let mut acc = m.clone();
        acc.axpy(0.25, &m);
        acc.into_vec()
    });
}

#[test]
fn log_softmax_is_grid_invariant() {
    let mut rng = Rng::seed_from(45);
    let mut x = Tensor::randn([120, 37], &mut rng);
    // A degenerate all-(−∞) row: the uniform-distribution guard must be
    // schedule-independent too.
    for v in &mut x.data_mut()[37..74] {
        *v = f32::NEG_INFINITY;
    }
    bitwise_across_grid("log_softmax", || {
        value_and_grads(&[x.clone()], |t, ids| t.log_softmax(ids[0]))
    });
}

#[test]
fn csr_scatter_add_is_grid_invariant() {
    let mut rng = Rng::seed_from(46);
    let big = Tensor::randn([900, 48], &mut rng);
    // Collision-heavy, out-of-order destinations; rows 97 and 113 stay
    // empty so the CSR path must emit zero rows for them.
    let idx: Vec<usize> = (0..900)
        .map(|i| (i * 7 + 3) % 120)
        .map(|d| if d == 97 || d == 113 { 0 } else { d })
        .collect();
    bitwise_across_grid("scatter_add_rows", || {
        big.scatter_add_rows(&idx, 120).into_vec()
    });
    // Explicit CSR entry point, bitwise-equal to the index form.
    let csr_idx = csr::CsrIndex::build(&idx, 120);
    bitwise_across_grid("scatter_add_rows_csr", || {
        big.scatter_add_rows_csr(&csr_idx).into_vec()
    });
    // Degenerate inputs: zero edges, zero destinations.
    let empty = Tensor::zeros([0, 5]);
    assert_eq!(empty.scatter_add_rows(&[], 4).shape().dims(), &[4, 5]);
    assert_eq!(empty.scatter_add_rows(&[], 0).shape().dims(), &[0, 5]);
}

#[test]
fn tape_scatter_and_gather_are_grid_invariant() {
    let mut rng = Rng::seed_from(47);
    let x = Tensor::randn([300, 24], &mut rng);
    let idx: Rc<Vec<usize>> = Rc::new((0..700).map(|i| (i * 13 + 5) % 300).collect());
    let sel: Rc<Vec<usize>> = Rc::new((0..300).map(|i| (i * 17) % 300).collect());
    bitwise_across_grid("tape scatter_add_rows", || {
        let idx = Rc::clone(&idx);
        value_and_grads(std::slice::from_ref(&x), move |t, ids| {
            let g = t.index_select(ids[0], Rc::clone(&idx));
            t.scatter_add_rows(g, Rc::clone(&idx), 300)
        })
    });
    bitwise_across_grid("tape index_select backward", || {
        let sel = Rc::clone(&sel);
        value_and_grads(std::slice::from_ref(&x), move |t, ids| {
            t.index_select(ids[0], Rc::clone(&sel))
        })
    });
}

/// Forward value and input gradient of `build` under a loss that weights
/// every output element differently (`Σ out ⊙ w`), so the gradient rows
/// are distinct and their summation order shows in the bits.
fn value_and_weighted_grad(
    x: &Tensor,
    w: &Tensor,
    build: impl Fn(&mut Tape, ood_tensor::NodeId) -> ood_tensor::NodeId,
) -> Vec<f32> {
    let mut tape = Tape::new();
    let xn = tape.leaf(x.clone());
    let out = build(&mut tape, xn);
    let wn = tape.constant(w.clone());
    let weighted = tape.mul(out, wn);
    let loss = tape.sum(weighted);
    let grads = tape.backward(loss);
    let mut all = tape.value(out).data().to_vec();
    all.extend_from_slice(grads.get(xn).expect("x reached").data());
    all
}

#[test]
fn neighbor_sum_matches_gather_scatter_across_grid() {
    let mut rng = Rng::seed_from(52);
    let n = 700usize;
    // Random edges with duplicates and self-loops; nodes ≥ 650 isolated.
    let mut src: Vec<usize> = (0..2500).map(|_| rng.below(650)).collect();
    let mut dst: Vec<usize> = (0..2500).map(|_| rng.below(650)).collect();
    src.extend([3, 3, 9, 9, 9]);
    dst.extend([7, 7, 9, 9, 2]);
    let big = (Rc::new(src), Rc::new(dst), n);
    let tiny = (
        Rc::new(vec![0usize, 0, 2, 1]),
        Rc::new(vec![1usize, 1, 2, 0]),
        4,
    );
    let no_edges = (Rc::new(vec![]), Rc::new(vec![]), 6);
    for (case, (src, dst, n)) in [("big", big), ("tiny", tiny), ("no edges", no_edges)] {
        let x = Tensor::randn([n, 24], &mut rng);
        let w = Tensor::randn([n, 24], &mut rng);
        for mean in [false, true] {
            let (src, dst) = (Rc::clone(&src), Rc::clone(&dst));
            let (x, w) = (x.clone(), w.clone());
            bitwise_across_grid(&format!("neighbor {case} mean={mean}"), move || {
                let fused = value_and_weighted_grad(&x, &w, |t, xn| {
                    let (s, d) = (Rc::clone(&src), Rc::clone(&dst));
                    if mean {
                        t.neighbor_mean(xn, s, d, n)
                    } else {
                        t.neighbor_sum(xn, s, d, n)
                    }
                });
                let composed = value_and_weighted_grad(&x, &w, |t, xn| {
                    let msgs = t.index_select(xn, Rc::clone(&src));
                    if mean {
                        t.segment_mean(msgs, Rc::clone(&dst), n)
                    } else {
                        t.scatter_add_rows(msgs, Rc::clone(&dst), n)
                    }
                });
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fused), bits(&composed), "{case} mean={mean}");
                fused
            });
        }
    }
}

#[test]
fn weight_gradient_matmul_is_grid_invariant() {
    let mut rng = Rng::seed_from(53);
    // The `Aᵀ·G` weight gradient of a large batch: 32 output rows over a
    // 1500-long inner dimension, ReLU-sparse A — enough multiply-adds to
    // fan out across the pool.
    let a = Tensor::randn([1500, 32], &mut rng).map(|v| v.max(0.0));
    let g = Tensor::randn([1500, 32], &mut rng);
    assert!(par::would_dispatch(Kernel::Matmul, 32 * 1500 * 32));
    bitwise_across_grid("transpose", || a.transpose().into_vec());
    bitwise_across_grid("Aᵀ·G", || a.transpose().matmul(&g).into_vec());
}

#[test]
fn segment_reductions_are_grid_invariant() {
    let mut rng = Rng::seed_from(48);
    let x = Tensor::randn([400, 32], &mut rng);
    // Unsorted ids, empty segment 5, heavily loaded segment 0.
    let seg: Rc<Vec<usize>> = Rc::new(
        (0..400)
            .map(|i| if i % 3 == 0 { 0 } else { (i * 11) % 12 })
            .map(|s| if s == 5 { 6 } else { s })
            .collect(),
    );
    for (name, which) in [("sum", 0usize), ("mean", 1), ("max", 2), ("min", 3)] {
        let seg = Rc::clone(&seg);
        let x = x.clone();
        bitwise_across_grid(&format!("segment_{name}"), move || {
            value_and_grads(std::slice::from_ref(&x), |t, ids| match which {
                0 => t.segment_sum(ids[0], Rc::clone(&seg), 12),
                1 => t.segment_mean(ids[0], Rc::clone(&seg), 12),
                2 => t.segment_max(ids[0], Rc::clone(&seg), 12),
                _ => t.segment_min(ids[0], Rc::clone(&seg), 12),
            })
        });
    }
}

#[test]
fn fused_decorrelation_kernels_are_grid_invariant() {
    let mut rng = Rng::seed_from(49);
    let (n, d) = (40usize, 19usize); // d with a lane tail
    let x = Tensor::randn([n, d], &mut rng);
    let w = Tensor::rand_uniform([n, 1], 0.5, 1.5, &mut rng);
    let w_row = Rc::new(Tensor::randn([d], &mut rng));
    let phi_row = Rc::new(Tensor::rand_uniform(
        [d],
        0.0,
        2.0 * std::f32::consts::PI,
        &mut rng,
    ));
    let mut mask = Tensor::zeros([d, d]);
    for i in 0..d {
        for j in (i + 1)..d {
            *mask.at_mut(i, j) = 1.0;
        }
    }
    let mask = Rc::new(mask);
    bitwise_across_grid("decorrelation chain", || {
        let (w_row, phi_row, mask) = (Rc::clone(&w_row), Rc::clone(&phi_row), Rc::clone(&mask));
        value_and_grads(&[x.clone(), w.clone()], move |t, ids| {
            let feat = t.cos_feature(ids[0], Rc::clone(&w_row), Rc::clone(&phi_row), 1.4);
            let u = t.weighted_center(feat, ids[1]);
            let ut = t.transpose(u);
            let prod = t.matmul(ut, u);
            t.scaled_masked_sq_sum(prod, Rc::clone(&mask), 1.0 / (n as f32 - 1.0))
        })
    });
}

#[test]
fn csr_cache_reuses_across_passes_without_changing_results() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from(50);
    let x = Tensor::randn([60, 8], &mut rng);
    let idx: Rc<Vec<usize>> = Rc::new((0..60).map(|i| i % 10).collect());
    let sel: Rc<Vec<usize>> = Rc::new((0..60).map(|i| i % 10).collect());
    let run = || {
        let mut tape = Tape::new();
        let xn = tape.leaf(x.clone());
        let s1 = tape.scatter_add_rows(xn, Rc::clone(&idx), 10);
        // Same Rcs every pass — forward and backward both hit the cache.
        let g = tape.index_select(s1, Rc::clone(&sel));
        let s2 = tape.scatter_add_rows(g, Rc::clone(&idx), 10);
        let loss = tape.sum(s2);
        let grads = tape.backward(loss);
        let mut out = tape.value(s2).data().to_vec();
        out.extend_from_slice(grads.get(xn).unwrap().data());
        out
    };
    csr::reset_stats();
    let first: Vec<u32> = run().iter().map(|v| v.to_bits()).collect();
    let (h1, m1) = csr::cache_stats();
    let second: Vec<u32> = run().iter().map(|v| v.to_bits()).collect();
    let (h2, m2) = csr::cache_stats();
    assert_eq!(first, second, "cache reuse changed results");
    assert!(h2 > h1, "second pass should hit the CSR cache");
    assert_eq!(m2, m1, "second pass must not rebuild cached indices");
}
