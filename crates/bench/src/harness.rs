//! The micro-benchmark timing loop behind `kernel_sweep`: a warmup, then
//! timed batches of calls, reported as the median nanoseconds per call.
//! `OOD_BENCH_FAST=1` shrinks the budgets for smoke runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f` (one workload iteration per call),
/// over timed batches sized from a warmup to give ~10 batches in the
/// measurement budget (100 ms warmup + 500 ms, or 10 + 50 ms when
/// `OOD_BENCH_FAST` is set).
pub fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let fast = std::env::var("OOD_BENCH_FAST").is_ok_and(|v| v != "0");
    let (warmup, measure) = if fast {
        (Duration::from_millis(10), Duration::from_millis(50))
    } else {
        (Duration::from_millis(100), Duration::from_millis(500))
    };
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < warmup || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
    let batch = ((measure.as_secs_f64() / 10.0 / per_iter).ceil() as u64).max(1);

    let mut batches: Vec<f64> = Vec::new(); // ns per iteration, per batch
    let run_start = Instant::now();
    while run_start.elapsed() < measure || batches.len() < 3 {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        batches.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_a_trivial_closure() {
        std::env::set_var("OOD_BENCH_FAST", "1");
        let mut calls = 0u64;
        let ns = median_ns(|| {
            calls = calls.wrapping_add(1);
            calls
        });
        assert!(calls > 0);
        assert!(ns.is_finite() && ns >= 0.0);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }
}
