//! Rolling-window metrics: fixed-capacity ring buffers over timestamped
//! observations, answering "what happened in the last N seconds" without
//! unbounded memory.
//!
//! The cumulative registry in [`crate::metrics`] is training-shaped: it
//! accumulates from process start and resets on flush. A long-running
//! server needs the other view — last-minute p50/p95/p99, current request
//! rate, recent high-waters — while holding a hard memory bound no matter
//! how long it runs. Two primitives cover that:
//!
//! * [`SampleWindow`] — a ring of `(ts_us, value)` samples. Recording
//!   overwrites the oldest slot once full; summaries consider only samples
//!   younger than the window. Quantiles are computed on demand into a
//!   caller-provided scratch buffer, so the **record path never
//!   allocates** (proven by the counting-allocator overhead guard in
//!   `crates/serve/tests/stage_overhead.rs`).
//! * [`RateWindow`] — a ring of per-second buckets for counter rates:
//!   events per second over the covered window, again allocation-free to
//!   record.
//!
//! Time is an explicit `ts_us` argument (microseconds on any monotonic
//! clock the caller owns), never read internally: windows are observability
//! only, deterministic to test, and can replay recorded traces.

use crate::metrics::Summary;

/// A fixed-capacity ring of timestamped samples with expiry: the rolling
/// twin of [`crate::metrics::Histogram`]. Also serves as a windowed gauge
/// (record the gauge value; read `last`/`max`).
#[derive(Debug, Clone)]
pub struct SampleWindow {
    /// `(ts_us, value)` ring; `len` slots valid, oldest at
    /// `(head + capacity - len) % capacity`.
    ring: Box<[(u64, f64)]>,
    head: usize,
    len: usize,
    window_us: u64,
    /// Largest finite value ever recorded (whole lifetime, not windowed).
    high_water: f64,
    /// Total finite samples ever recorded.
    total: u64,
}

impl SampleWindow {
    /// A window keeping up to `capacity` samples from the last
    /// `window_us` microseconds. `capacity` is clamped to at least 1.
    pub fn new(capacity: usize, window_us: u64) -> Self {
        SampleWindow {
            ring: vec![(0u64, 0f64); capacity.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
            window_us,
            high_water: f64::NEG_INFINITY,
            total: 0,
        }
    }

    /// Record one observation at `ts_us`. Non-finite values are dropped
    /// (same rule as [`crate::metrics::Histogram::observe`]). Never
    /// allocates: once the ring is full the oldest sample is overwritten.
    #[inline]
    pub fn record(&mut self, ts_us: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.ring[self.head] = (ts_us, value);
        self.head = (self.head + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
        self.total += 1;
        if value > self.high_water {
            self.high_water = value;
        }
    }

    /// Total samples ever recorded (including expired and overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest value ever recorded; `None` before the first sample.
    pub fn high_water(&self) -> Option<f64> {
        (self.total > 0).then_some(self.high_water)
    }

    /// The most recently recorded value, regardless of expiry.
    pub fn last(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let idx = (self.head + self.ring.len() - 1) % self.ring.len();
        Some(self.ring[idx].1)
    }

    /// Copy the values still inside the window at `now_us` into `scratch`
    /// (cleared first, oldest first) and return how many are live. The
    /// scratch buffer lets repeated snapshots reuse one allocation.
    pub fn live_into(&self, now_us: u64, scratch: &mut Vec<f64>) -> usize {
        scratch.clear();
        let cutoff = now_us.saturating_sub(self.window_us);
        let cap = self.ring.len();
        let start = (self.head + cap - self.len) % cap;
        for i in 0..self.len {
            let (ts, v) = self.ring[(start + i) % cap];
            if ts >= cutoff && ts <= now_us {
                scratch.push(v);
            }
        }
        scratch.len()
    }

    /// Summary statistics over the live samples at `now_us`; `None` when
    /// the window is empty. Allocates a scratch sort buffer — use
    /// [`SampleWindow::summary_with`] on hot paths that keep one around.
    pub fn summary(&self, now_us: u64) -> Option<Summary> {
        let mut scratch = Vec::with_capacity(self.len);
        self.summary_with(now_us, &mut scratch)
    }

    /// [`SampleWindow::summary`] reusing a caller-owned scratch buffer.
    pub fn summary_with(&self, now_us: u64, scratch: &mut Vec<f64>) -> Option<Summary> {
        self.live_into(now_us, scratch);
        Summary::of(scratch)
    }
}

/// Per-second bucketed event counter: the rolling rate of a counter over
/// the last N seconds, with a fixed bucket ring.
#[derive(Debug, Clone)]
pub struct RateWindow {
    /// `(second_index, count)` per bucket; a bucket whose stored second no
    /// longer matches is stale and re-zeroed on write / skipped on read.
    buckets: Box<[(u64, u64)]>,
    /// Total events ever recorded.
    total: u64,
}

impl RateWindow {
    /// A rate window covering the last `seconds` seconds (clamped ≥ 1).
    pub fn new(seconds: usize) -> Self {
        RateWindow {
            buckets: vec![(u64::MAX, 0u64); seconds.max(1)].into_boxed_slice(),
            total: 0,
        }
    }

    /// Count `n` events at `ts_us`. Never allocates.
    #[inline]
    pub fn record(&mut self, ts_us: u64, n: u64) {
        let sec = ts_us / 1_000_000;
        let slot = (sec as usize) % self.buckets.len();
        if self.buckets[slot].0 != sec {
            self.buckets[slot] = (sec, 0);
        }
        self.buckets[slot].1 += n;
        self.total += n;
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events inside the window at `now_us` (buckets whose second is
    /// within the ring span and not in the future).
    pub fn count(&self, now_us: u64) -> u64 {
        let now_sec = now_us / 1_000_000;
        let span = self.buckets.len() as u64;
        self.buckets
            .iter()
            .filter(|(sec, _)| *sec <= now_sec && now_sec - *sec < span)
            .map(|(_, n)| n)
            .sum()
    }

    /// Events per second over the covered window at `now_us`. The divisor
    /// is the ring span, or the elapsed seconds when the process is
    /// younger than the window (so early rates aren't diluted by seconds
    /// that never happened).
    pub fn rate(&self, now_us: u64) -> f64 {
        let span = self.buckets.len() as u64;
        let elapsed_sec = (now_us / 1_000_000) + 1;
        let divisor = span.min(elapsed_sec).max(1);
        self.count(now_us) as f64 / divisor as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000;

    #[test]
    fn summary_over_live_samples() {
        let mut w = SampleWindow::new(128, 10 * SEC);
        for i in 0..=100u64 {
            w.record(i * 1000, i as f64);
        }
        let s = w.summary(100 * 1000).unwrap();
        assert_eq!(s.count, 101);
        assert_eq!((s.min, s.max), (0.0, 100.0));
        assert_eq!((s.p50, s.p95, s.p99), (50.0, 95.0, 99.0));
        assert!((s.mean - 50.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_around_keeps_newest_samples() {
        // Capacity 4: recording 6 samples must keep exactly the last 4.
        let mut w = SampleWindow::new(4, 10 * SEC);
        for i in 0..6u64 {
            w.record(i, i as f64);
        }
        let s = w.summary(6).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!((s.min, s.max), (2.0, 5.0));
        assert_eq!(w.total(), 6);
        assert_eq!(w.last(), Some(5.0));
        // Quantiles over the surviving [2,3,4,5].
        assert_eq!(s.p50, 3.5);
    }

    #[test]
    fn expiry_drops_old_samples_from_summaries() {
        let mut w = SampleWindow::new(16, 2 * SEC);
        w.record(0, 100.0);
        w.record(SEC, 10.0);
        w.record(3 * SEC, 20.0);
        // At t=3s with a 2s window, the t=0 sample is expired.
        let s = w.summary(3 * SEC).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!((s.min, s.max), (10.0, 20.0));
        // At t=10s everything has expired; summary is empty, but lifetime
        // high-water and last survive.
        assert!(w.summary(10 * SEC).is_none());
        assert_eq!(w.high_water(), Some(100.0));
        assert_eq!(w.last(), Some(20.0));
    }

    #[test]
    fn wrap_around_and_expiry_compose() {
        // Capacity 3, 5s window: old-but-unexpired samples can still be
        // evicted by capacity; expired samples can still occupy slots.
        let mut w = SampleWindow::new(3, 5 * SEC);
        for (ts, v) in [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)] {
            w.record(ts * SEC, v);
        }
        // Slots hold ts=1,2,3; at now=7s the 5s window covers ts >= 2.
        let s = w.summary(7 * SEC).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!((s.min, s.max), (3.0, 4.0));
    }

    #[test]
    fn empty_window_behaviour() {
        let w = SampleWindow::new(8, SEC);
        assert!(w.summary(0).is_none());
        assert!(w.summary(u64::MAX).is_none());
        assert_eq!(w.total(), 0);
        assert_eq!(w.high_water(), None);
        assert_eq!(w.last(), None);
        let mut scratch = Vec::new();
        assert_eq!(w.live_into(42, &mut scratch), 0);
        let r = RateWindow::new(10);
        assert_eq!(r.count(5 * SEC), 0);
        assert_eq!(r.rate(5 * SEC), 0.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut w = SampleWindow::new(8, SEC);
        w.record(0, f64::NAN);
        w.record(0, f64::INFINITY);
        assert!(w.summary(0).is_none());
        assert_eq!(w.total(), 0);
        w.record(0, 2.0);
        assert_eq!(w.summary(0).unwrap().count, 1);
    }

    #[test]
    fn singleton_quantiles_are_that_sample() {
        let mut w = SampleWindow::new(8, SEC);
        w.record(10, 7.25);
        let s = w.summary(10).unwrap();
        assert_eq!((s.p50, s.p95, s.p99), (7.25, 7.25, 7.25));
        assert_eq!((s.min, s.max, s.mean), (7.25, 7.25, 7.25));
    }

    #[test]
    fn rate_counts_per_second_buckets() {
        let mut r = RateWindow::new(10);
        for sec in 0..5u64 {
            r.record(sec * SEC + 500_000, 2);
        }
        // 10 events over min(span=10, elapsed=5) seconds -> 2/s.
        assert_eq!(r.count(4 * SEC + 900_000), 10);
        assert!((r.rate(4 * SEC + 900_000) - 2.0).abs() < 1e-12);
        assert_eq!(r.total(), 10);
    }

    #[test]
    fn rate_buckets_expire_by_reuse_and_span() {
        let mut r = RateWindow::new(3);
        r.record(0, 5);
        // 10 seconds later the second-0 bucket is out of the 3s span.
        assert_eq!(r.count(10 * SEC), 0);
        // Writing second 3 reuses second 0's slot (3 % 3 == 0).
        r.record(3 * SEC, 7);
        assert_eq!(r.count(3 * SEC), 7);
        assert_eq!(r.total(), 12);
        // Full span: rate divides by the ring length once elapsed >= span.
        r.record(4 * SEC, 2);
        r.record(5 * SEC, 3);
        assert_eq!(r.count(5 * SEC), 12);
        assert!((r.rate(5 * SEC) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn record_path_is_allocation_free_after_construction() {
        // Structural proof (the allocator-counting proof lives in the
        // serve crate's stage_overhead test): capacity never grows.
        let mut w = SampleWindow::new(4, SEC);
        let mut r = RateWindow::new(2);
        for i in 0..1000u64 {
            w.record(i * 1000, i as f64);
            r.record(i * 1000, 1);
        }
        assert_eq!(w.ring.len(), 4);
        assert_eq!(r.buckets.len(), 2);
        assert_eq!(w.total(), 1000);
        assert_eq!(r.total(), 1000);
    }
}
