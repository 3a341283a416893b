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

/// Five replays of a loss + gradient graph, with a [`pool::trim_idle`]
/// after each when `trim` is set; returns every loss value and gradient
/// element produced.
fn workload(trim: bool) -> Vec<f32> {
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
        drop(g);
        drop(tape);
        if trim {
            pool::trim_idle();
        }
    }
    out
}

fn run(pool_on: bool, threads: usize) -> (Vec<f32>, pool::PoolStats) {
    par::set_threads(threads);
    pool::set_enabled(pool_on);
    pool::reset_stats();
    let out = workload(false);
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

#[test]
fn trimming_between_replays_never_changes_results() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run(false, 1);
    for threads in [1, 4] {
        par::set_threads(threads);
        pool::set_enabled(true);
        assert_bitwise_eq(
            &reference,
            &workload(true),
            &format!("trimmed pool t={threads} vs pool=off t=1"),
        );
    }
    restore();
}

#[test]
fn trim_frees_the_idle_buffer_and_keeps_the_recycled_one() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_threads(1);
    pool::set_enabled(true);
    pool::drain_thread_pool();
    drop((Tensor::zeros([1000]), Tensor::zeros([5000])));
    // Keep the small buffer busy for a few periods while the large one
    // idles.
    for _ in 0..4 {
        drop(Tensor::zeros([1000]));
        pool::trim_idle();
    }
    // Only this thread takes buffers while the lock is held (a finished
    // test's thread may still be returning some), so hits and misses
    // move only with the two requests below.
    let before = pool::stats();
    drop(Tensor::zeros([1000]));
    let mid = pool::stats();
    assert_eq!(
        (mid.hits, mid.misses),
        (before.hits + 1, before.misses),
        "the recycled buffer survived"
    );
    drop(Tensor::zeros([5000]));
    let after = pool::stats();
    assert_eq!(
        (after.hits, after.misses),
        (mid.hits, mid.misses + 1),
        "the idle buffer was freed"
    );
    pool::drain_thread_pool();
    restore();
}
