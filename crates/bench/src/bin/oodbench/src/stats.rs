//! Order statistics and regression bounds, one definition each.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, the tail is not supported by the data.
pub const MIN_BEYOND: usize = 10;

/// The percentile of per-repetition times reported as a run's time. The
/// host's speed swings by up to 2x for seconds at a time, with no trace in
/// the guest's CPU accounting; the fast tail of many short repetitions
/// tracks its uncontended speed, where the median tracks how busy the
/// host was.
pub const FAST_PCT: f64 = 10.0;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// [`percentile`], or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= MIN_BEYOND)
        .then(|| percentile(sorted, p))
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether `candidate` is no worse than `baseline` by more than
/// `rel × |baseline| + abs`, in the metric's `better` direction.
pub fn within_bound(baseline: f64, candidate: f64, better: Better, rel: f64, abs: f64) -> bool {
    let worse_by = match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    worse_by <= rel * baseline.abs() + abs
}

/// Metric names are `[A-Za-z0-9_.-]`, start with a letter or digit, and
/// are at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly 10 lie beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(tail_percentile(&v, 99.0), None);
        // p90 of 99 samples is rank 90: only 9 lie beyond it.
        assert_eq!(tail_percentile(&v[..99], 90.0), None);
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn bounds_combine_relative_and_absolute_slack() {
        // Lower is better: 10% of 2.0 plus 0.05 allows up to 2.25.
        assert!(within_bound(2.0, 2.25, Better::Lower, 0.10, 0.05));
        assert!(!within_bound(2.0, 2.26, Better::Lower, 0.10, 0.05));
        // Improvements always pass.
        assert!(within_bound(2.0, 0.5, Better::Lower, 0.0, 0.0));
        // Higher is better: 10% of 1000 allows down to 900.
        assert!(within_bound(1000.0, 900.0, Better::Higher, 0.10, 0.0));
        assert!(!within_bound(1000.0, 899.0, Better::Higher, 0.10, 0.0));
        // An absolute-only bound on a zero baseline.
        assert!(within_bound(0.0, 0.03, Better::Lower, 0.10, 0.03));
        assert!(!within_bound(0.0, 0.031, Better::Lower, 0.10, 0.03));
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "tensor.kernel_matmul_pct", "a-b.c_d", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "lat ms",
            "p50%",
            "x/y",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
