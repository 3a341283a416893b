//! Global metrics registry: counters, gauges and histograms.
//!
//! Recording is a no-op (one relaxed atomic load) while no sink is
//! attached. [`flush`] drains the registry into one event per metric:
//! counters report their cumulative total, gauges their last value, and
//! histograms count/mean/min/max plus p50/p95/p99 quantiles over the
//! samples observed since the previous flush.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A streaming histogram: raw samples since the last flush.
#[derive(Default, Clone)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Record one observation. Non-finite values are dropped: a single
    /// NaN would make the sort order (and thus every quantile) undefined,
    /// and the JSONL encoding maps them to `null` anyway.
    pub fn observe(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Linearly interpolated quantile `q ∈ [0, 1]` of the samples; `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        Some(quantile_sorted(&sorted, q))
    }

    /// Summary statistics `(count, mean, min, max, p50, p95, p99)`.
    pub fn summary(&self) -> Option<Summary> {
        let mut sorted = self.samples.clone();
        Summary::of(&mut sorted)
    }
}

/// Count, mean, extremes and p50/p95/p99 of a sample set: the one summary
/// shape shared by [`Histogram`] and the rolling
/// [`crate::window::SampleWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Sort `samples` in place and summarize them; `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        Some(Summary {
            count,
            mean: samples.iter().sum::<f64>() / count as f64,
            min: samples[0],
            max: samples[count - 1],
            p50: quantile_sorted(samples, 0.50),
            p95: quantile_sorted(samples, 0.95),
            p99: quantile_sorted(samples, 0.99),
        })
    }
}

/// Linearly interpolated quantile of an ascending-sorted non-empty slice;
/// `q` is clamped to `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

pub(crate) static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry(f: impl FnOnce(&mut Registry)) {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Registry::default));
}

/// Add `delta` to a counter. No-op while no sink is attached.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| *r.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Set a gauge to its current value. No-op while no sink is attached.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name.to_string(), value);
    });
}

/// Record a histogram observation. No-op while no sink is attached.
pub fn observe(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value)
    });
}

/// Flush the registry to the attached sinks: one event per counter, gauge
/// and non-empty histogram. Histogram windows reset; counters and gauges
/// persist (counters stay cumulative).
pub fn flush() {
    if !crate::enabled() {
        return;
    }
    let mut events = Vec::new();
    with_registry(|r| {
        for (name, total) in &r.counters {
            events.push(Event::new(EventKind::Counter, name.clone()).with("value", *total));
        }
        for (name, value) in &r.gauges {
            events.push(Event::new(EventKind::Gauge, name.clone()).with("value", *value));
        }
        for (name, hist) in &mut r.histograms {
            if let Some(s) = hist.summary() {
                events.push(
                    Event::new(EventKind::Hist, name.clone())
                        .with("count", s.count)
                        .with("mean", s.mean)
                        .with("min", s.min)
                        .with("max", s.max)
                        .with("p50", s.p50)
                        .with("p95", s.p95)
                        .with("p99", s.p99),
                );
            }
            hist.samples.clear();
        }
    });
    for e in events {
        crate::emit(e);
    }
}

/// Clear all registered metrics (used between runs and in tests).
pub fn reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn quantiles_interpolate() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        // pos = 0.5 * 3 = 1.5 -> between 2 and 3.
        assert!((h.quantile(0.5).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(h.quantile(0.0).unwrap(), 1.0);
        assert_eq!(h.quantile(1.0).unwrap(), 4.0);
        // p95: pos = 0.95 * 3 = 2.85 -> 3 * 0.15 + 4 * 0.85 = 3.85.
        assert!((h.quantile(0.95).unwrap() - 3.85).abs() < 1e-12);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = Histogram::default();
        // 0..=100 so quantiles align exactly with values.
        for v in 0..=100 {
            h.observe(v as f64);
        }
        assert_eq!(h.quantile(0.50).unwrap(), 50.0);
        assert_eq!(h.quantile(0.95).unwrap(), 95.0);
        assert_eq!(h.quantile(0.99).unwrap(), 99.0);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 101);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_histograms() {
        let h = Histogram::default();
        assert!(h.quantile(0.5).is_none());
        assert!(h.summary().is_none());
        let mut h = Histogram::default();
        h.observe(7.25);
        // Every quantile of a single sample is that sample.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q).unwrap(), 7.25);
        }
        let s = h.summary().unwrap();
        assert_eq!((s.count, s.min, s.max), (1, 7.25, 7.25));
        assert_eq!((s.mean, s.p50, s.p95, s.p99), (7.25, 7.25, 7.25, 7.25));
    }

    #[test]
    fn duplicate_heavy_windows_interpolate_cleanly() {
        // 99 zeros and a single 1: quantiles below the tail stay exactly
        // 0, the p99 interpolates on the last gap.
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.observe(0.0);
        }
        h.observe(1.0);
        assert_eq!(h.quantile(0.5).unwrap(), 0.0);
        assert_eq!(h.quantile(0.95).unwrap(), 0.0);
        // pos = 0.99 * 99 = 98.01 -> between samples 98 (0.0) and 99 (1.0).
        assert!((h.quantile(0.99).unwrap() - 0.01).abs() < 1e-12);
        assert_eq!(h.quantile(1.0).unwrap(), 1.0);
        // All-identical samples: every statistic is that value.
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.observe(3.5);
        }
        let s = h.summary().unwrap();
        assert_eq!(
            (s.min, s.max, s.p50, s.p95, s.p99),
            (3.5, 3.5, 3.5, 3.5, 3.5)
        );
        assert_eq!(s.mean, 3.5);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert!(h.summary().is_none());
        h.observe(2.0);
        h.observe(f64::NAN);
        h.observe(4.0);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 2);
        assert_eq!((s.min, s.max), (2.0, 4.0));
        assert_eq!(s.p50, 3.0);
        assert!(s.mean.is_finite());
    }

    #[test]
    fn quantile_arguments_clamp_to_unit_interval() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(-0.5).unwrap(), 1.0);
        assert_eq!(h.quantile(1.5).unwrap(), 3.0);
    }

    #[test]
    fn flush_emits_and_resets_windows() {
        let _guard = crate::test_lock();
        let sink = MemorySink::shared();
        crate::attach(Box::new(sink.clone()));
        counter_add("ops", 3);
        counter_add("ops", 2);
        gauge_set("lr", 1e-3);
        observe("latency", 5.0);
        observe("latency", 15.0);
        flush();
        flush(); // histogram window now empty: no second hist event
        crate::detach_all();
        let events = sink.events();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Counter)
            .collect();
        assert_eq!(counters.len(), 2); // cumulative counter appears in both flushes
        assert_eq!(counters[0].field("value").unwrap().as_i64(), Some(5));
        let hists: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Hist)
            .collect();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].field("count").unwrap().as_i64(), Some(2));
        assert!((hists[0].field("p50").unwrap().as_f64().unwrap() - 10.0).abs() < 1e-9);
    }
}
