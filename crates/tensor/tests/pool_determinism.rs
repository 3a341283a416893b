//! Buffer-pool neutrality at the tensor layer: recycling buffers through
//! the pool must never change a single bit of any result. A tape graph
//! exercising the fused kernels (cos_feature, weighted_center,
//! scaled_masked_sq_sum), matmul and backward is replayed on a fresh tape
//! each time, so every replay draws the previous one's buffers from the
//! pool, with the pool on and off, at 1 and 4 threads, and every value
//! must match bitwise.

use ood_tensor::rng::Rng;
use ood_tensor::{par, pool, Tape, Tensor};
use std::rc::Rc;
use std::sync::Mutex;

/// `par::set_threads` and `pool::set_enabled` are process-global;
/// serialize tests touching them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Five replays of a loss + gradient graph; returns
/// every loss value and gradient element produced.
fn workload() -> Vec<f32> {
    let mut rng = Rng::seed_from(3);
    let (n, d) = (24usize, 6usize);
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

    let mut out = Vec::new();
    for _ in 0..5 {
        let mut tape = Tape::new();
        let xn = tape.leaf(x.clone());
        let wn = tape.leaf(w.clone());
        let feat = tape.cos_feature(xn, w_row.clone(), phi_row.clone(), std::f32::consts::SQRT_2);
        let u = tape.weighted_center(feat, wn);
        let ut = tape.transpose(u);
        let prod = tape.matmul(ut, u);
        let loss = tape.scaled_masked_sq_sum(prod, mask.clone(), 1.0 / (n as f32 - 1.0));
        out.push(tape.value(loss).item());
        let g = tape.backward(loss);
        out.extend_from_slice(g.get(xn).expect("grad reaches x").data());
        out.extend_from_slice(g.get(wn).expect("grad reaches w").data());
    }
    out
}

fn run(pool_on: bool, threads: usize) -> (Vec<f32>, pool::PoolStats) {
    par::set_threads(threads);
    pool::set_enabled(pool_on);
    pool::reset_stats();
    let out = workload();
    (out, pool::stats())
}

fn restore() {
    pool::set_enabled(true);
    par::set_threads(par::max_threads());
}

fn assert_bitwise_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} != {y} (bitwise)"
        );
    }
}

#[test]
fn pool_and_thread_count_never_change_results() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run(false, 1);
    for (pool_on, threads) in [(true, 1), (false, 4), (true, 4)] {
        let (got, _) = run(pool_on, threads);
        assert_bitwise_eq(
            &reference,
            &got,
            &format!("pool={pool_on} t={threads} vs pool=off t=1"),
        );
    }
    restore();
}

#[test]
fn replayed_tape_is_served_from_the_pool() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, stats) = run(true, 1);
    assert!(stats.enabled);
    assert!(stats.hits > 0, "replays never hit the pool: {stats:?}");
    assert!(stats.bytes_reused > 0, "no bytes recycled: {stats:?}");
    // The replayed graph is identical each time, so after the first
    // iteration warms the pool, reuse should dominate fresh allocation.
    assert!(
        stats.hits > stats.misses,
        "hits {} should exceed misses {} on an identical replay",
        stats.hits,
        stats.misses
    );
    restore();
}

#[test]
fn disabled_pool_reports_zero_hits() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, stats) = run(false, 1);
    assert!(!stats.enabled);
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(stats.bytes_reused, 0, "{stats:?}");
    assert!(stats.allocations > 0, "{stats:?}");
    restore();
}
