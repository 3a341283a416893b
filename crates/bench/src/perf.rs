//! Machine-readable performance records: one flat JSON object per file,
//! string values for metadata (tool, git revision, checksums) and numeric
//! values for metrics. `perf_gate` compares these against committed
//! baselines under `results/baselines/`, and `kernel_sweep` emits the
//! same format next to its markdown table so every perf artifact in
//! `results/` is diffable by the same tooling. [`matrix_failures`] holds
//! the gates `perf_gate` applies across its thread × pool matrix.
//!
//! The encoding reuses the trace crate's JSON writer/parser (flat objects
//! only), so no new serialization surface is introduced. Files are
//! pretty-printed one key per line to keep committed-baseline diffs
//! reviewable.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use trace::json;
use trace::Value;

/// Format-version stamp written into every metric file.
pub const METRIC_SCHEMA_VERSION: i64 = 1;

/// Where the drills and gates write their result files: the tracked
/// `results/` only for a run given `--record` (one whose numbers are
/// committed), `target/bench-results/` otherwise, so a routine check
/// leaves the working tree clean.
pub fn results_dir(record: bool) -> &'static str {
    if record {
        "results"
    } else {
        "target/bench-results"
    }
}

/// A flat set of named metrics plus string metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricFile {
    /// String context: tool name, git revision, checksums, thread counts.
    pub meta: BTreeMap<String, String>,
    /// Numeric measurements keyed by metric name.
    pub metrics: BTreeMap<String, f64>,
}

impl MetricFile {
    /// A new record stamped with the schema version, emitting tool and
    /// current git revision.
    pub fn new(tool: &str) -> Self {
        let mut m = MetricFile::default();
        m.meta
            .insert("schema".into(), METRIC_SCHEMA_VERSION.to_string());
        m.meta.insert("tool".into(), tool.to_string());
        m.meta
            .insert("git".into(), trace::manifest::git_describe().to_string());
        m
    }

    /// Set a numeric metric (non-finite values are stored as 0 with a
    /// poisoned marker suffix in meta, so baselines never carry NaN).
    pub fn set(&mut self, key: &str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(key.to_string(), value);
        } else {
            self.meta
                .insert(format!("{key}.non_finite"), value.to_string());
            self.metrics.insert(key.to_string(), 0.0);
        }
    }

    /// Set a metadata string.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.insert(key.to_string(), value.into());
    }

    /// Look up a metric.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }

    /// Serialize as a pretty-printed flat JSON object (meta first, then
    /// metrics, both alphabetical).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (k, v) in &self.meta {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            json::write_str(&mut out, k);
            out.push_str(": ");
            json::write_value(&mut out, &Value::Str(v.clone()));
        }
        for (k, v) in &self.metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            json::write_str(&mut out, k);
            out.push_str(": ");
            json::write_value(&mut out, &Value::Float(*v));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse a metric file back: string values become meta, numbers become
    /// metrics, booleans/nulls are rejected (nothing here emits them).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let pairs = json::parse_object(text.trim())?;
        let mut m = MetricFile::default();
        for (k, v) in pairs {
            match v {
                Value::Str(s) => {
                    m.meta.insert(k, s);
                }
                Value::Int(i) => {
                    m.metrics.insert(k, i as f64);
                }
                Value::Float(f) => {
                    m.metrics.insert(k, f);
                }
                other => return Err(format!("unexpected value for {k}: {other:?}")),
            }
        }
        Ok(m)
    }

    /// Write to `path`, creating parent directories.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Load from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }

    /// Write the record where [`results_dir`] says: as `<file>` (when
    /// given) and as one more line of `BENCH_trajectory.jsonl`. A failed
    /// write is reported on stderr and does not fail the run.
    pub fn persist(&self, file: Option<&str>, record: bool) {
        let dir = Path::new(results_dir(record));
        if let Some(file) = file {
            if let Err(e) = self.save(dir.join(file)) {
                eprintln!("cannot save {}/{file}: {e}", dir.display());
            }
        }
        if let Err(e) = self.append_to_trajectory(dir.join("BENCH_trajectory.jsonl")) {
            eprintln!(
                "cannot append {}/BENCH_trajectory.jsonl: {e}",
                dir.display()
            );
        }
    }

    /// Append this record as one JSON line to a trajectory file (the
    /// run-over-run history under [`results_dir`]).
    pub fn append_to_trajectory(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut line = String::from("{");
        let mut first = true;
        for (k, v) in &self.meta {
            if !first {
                line.push(',');
            }
            first = false;
            json::write_str(&mut line, k);
            line.push(':');
            json::write_value(&mut line, &Value::Str(v.clone()));
        }
        for (k, v) in &self.metrics {
            if !first {
                line.push(',');
            }
            first = false;
            json::write_str(&mut line, k);
            line.push(':');
            json::write_value(&mut line, &Value::Float(*v));
        }
        line.push('}');
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{line}")
    }
}

/// Outcome of comparing one metric against its baseline.
#[derive(Debug, Clone)]
pub struct Deviation {
    /// Metric name.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Permitted upper bound (`baseline * band` or `baseline + abs`).
    pub limit: f64,
}

/// A per-metric tolerance: the current value fails when it exceeds
/// `baseline * ratio + slack` (regressions only — a *lower* value is an
/// improvement, reported separately so stale baselines get refreshed).
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Multiplicative headroom over the baseline (1.5 = +50%).
    pub ratio: f64,
    /// Additive slack in the metric's own unit, absorbing noise when the
    /// baseline is tiny (e.g. a 0.2 ms kernel total).
    pub slack: f64,
}

impl Band {
    /// The largest non-regressing value for a given baseline.
    pub fn limit(&self, baseline: f64) -> f64 {
        baseline * self.ratio + self.slack
    }
}

/// Compare every metric present in **both** files against its band.
/// Returns `(regressions, improvements)`; metrics only on one side are
/// ignored (workload drift is guarded by the meta comparison, not here).
/// `scale` multiplies every band's ratio headroom — CI passes >1 to
/// absorb shared-runner noise.
pub fn compare(
    baseline: &MetricFile,
    current: &MetricFile,
    band_for: impl Fn(&str) -> Option<Band>,
    scale: f64,
) -> (Vec<Deviation>, Vec<Deviation>) {
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    for (key, &base) in &baseline.metrics {
        let Some(cur) = current.get(key) else {
            continue;
        };
        let Some(band) = band_for(key) else {
            continue;
        };
        let scaled = Band {
            ratio: 1.0 + (band.ratio - 1.0) * scale,
            slack: band.slack * scale,
        };
        let limit = scaled.limit(base);
        let d = Deviation {
            key: key.clone(),
            baseline: base,
            current: cur,
            limit,
        };
        if cur > limit {
            regressions.push(d);
        } else if base > scaled.slack && cur < base / scaled.ratio - scaled.slack {
            improvements.push(d);
        }
    }
    (regressions, improvements)
}

/// One training run of `perf_gate`'s thread × pool matrix: its
/// configuration, the checksum of its result, its pool counters and its
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigRun {
    /// `OOD_THREADS` for the run.
    pub threads: usize,
    /// Whether the buffer pool was on.
    pub pooled: bool,
    /// FNV-1a checksum of the loss curve, HSIC curve and final weights.
    pub checksum: u64,
    /// Allocations served from a recycled buffer.
    pub hits: u64,
    /// Pooled requests that found no buffer.
    pub misses: u64,
    /// Fresh heap allocations.
    pub allocations: u64,
    /// Bytes served from recycled buffers.
    pub bytes_reused: u64,
    /// Wall time of the run in milliseconds.
    pub wall_ms: f64,
}

impl ConfigRun {
    /// `"pool on / t=2"`-style label used in tables and failure messages.
    pub fn label(&self) -> String {
        let pool = if self.pooled { "pool on" } else { "pool off" };
        format!("{pool} / t={}", self.threads)
    }

    /// Share of pooled requests served from a recycled buffer (0 when
    /// there were none).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Smallest pool hit rate a pooled matrix run may have.
pub const MIN_HIT_RATE: f64 = 0.5;

/// The matrix gates over `runs`, whose first entry is the gated run:
/// every checksum equals the first one (the determinism contract across
/// thread counts and pool settings), and at each thread count with both
/// pool settings the pooled run serves recycled buffers (`hits > 0`, hit
/// rate at least [`MIN_HIT_RATE`]) and makes strictly fewer fresh
/// allocations than the unpooled one. Returns one message per failure.
pub fn matrix_failures(runs: &[ConfigRun]) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(reference) = runs.first() else {
        return failures;
    };
    for r in &runs[1..] {
        if r.checksum != reference.checksum {
            failures.push(format!(
                "{}: checksum {:#018x} differs from {}'s {:#018x} — determinism contract broken",
                r.label(),
                r.checksum,
                reference.label(),
                reference.checksum
            ));
        }
    }
    for on in runs.iter().filter(|r| r.pooled) {
        let Some(off) = runs.iter().find(|r| !r.pooled && r.threads == on.threads) else {
            continue;
        };
        if on.hits == 0 {
            failures.push(format!(
                "{}: pool never served a recycled buffer",
                on.label()
            ));
        }
        if on.allocations >= off.allocations {
            failures.push(format!(
                "{}: {} fresh allocations with the pool vs {} without — no reduction",
                on.label(),
                on.allocations,
                off.allocations
            ));
        }
        if on.hit_rate() < MIN_HIT_RATE {
            failures.push(format!(
                "{}: hit rate {:.1}% < {:.0}%",
                on.label(),
                on.hit_rate() * 100.0,
                MIN_HIT_RATE * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut m = MetricFile::new("perf_gate");
        m.set("wall_ms", 123.456);
        m.set("allocations", 257.0);
        m.set_meta("checksum", "0xdeadbeef");
        let text = m.to_json();
        let back = MetricFile::from_json(&text).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.meta["tool"], "perf_gate");
        assert_eq!(back.get("wall_ms"), Some(123.456));
    }

    #[test]
    fn non_finite_metrics_are_marked_not_written() {
        let mut m = MetricFile::new("t");
        m.set("bad", f64::NAN);
        let text = m.to_json();
        assert!(!text.contains("null"), "{text}");
        let back = MetricFile::from_json(&text).unwrap();
        assert_eq!(back.get("bad"), Some(0.0));
        assert!(back.meta.contains_key("bad.non_finite"));
    }

    #[test]
    fn compare_flags_regressions_and_improvements() {
        let mut base = MetricFile::new("t");
        base.set("wall_ms", 100.0);
        base.set("allocations", 200.0);
        base.set("untracked", 1.0);
        let mut cur = MetricFile::new("t");
        cur.set("wall_ms", 180.0); // +80% > +50% band
        cur.set("allocations", 40.0); // big improvement
        cur.set("untracked", 900.0); // no band -> ignored
        let band = |k: &str| match k {
            "wall_ms" | "allocations" => Some(Band {
                ratio: 1.5,
                slack: 1.0,
            }),
            _ => None,
        };
        let (reg, imp) = compare(&base, &cur, band, 1.0);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].key, "wall_ms");
        assert!(reg[0].current > reg[0].limit);
        assert_eq!(imp.len(), 1);
        assert_eq!(imp[0].key, "allocations");
    }

    #[test]
    fn tolerance_scale_widens_bands() {
        let mut base = MetricFile::new("t");
        base.set("wall_ms", 100.0);
        let mut cur = MetricFile::new("t");
        cur.set("wall_ms", 180.0);
        let band = |_: &str| {
            Some(Band {
                ratio: 1.5,
                slack: 0.0,
            })
        };
        let (reg, _) = compare(&base, &cur, band, 1.0);
        assert_eq!(reg.len(), 1);
        // scale 2: ratio headroom 0.5 -> 1.0, limit 200 -> passes.
        let (reg, _) = compare(&base, &cur, band, 2.0);
        assert!(reg.is_empty());
    }

    #[test]
    fn trajectory_appends_one_line_per_run() {
        let dir = std::env::temp_dir().join(format!("perf-traj-{}", std::process::id()));
        let path = dir.join("BENCH_trajectory.jsonl");
        let mut m = MetricFile::new("perf_gate");
        m.set("wall_ms", 5.0);
        m.append_to_trajectory(&path).unwrap();
        m.set("wall_ms", 6.0);
        m.append_to_trajectory(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = MetricFile::from_json(lines[0]).unwrap();
        assert_eq!(first.get("wall_ms"), Some(5.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_gates_pass_a_healthy_matrix_and_name_each_failure() {
        let mut healthy = Vec::new();
        for threads in [1, 2, 4] {
            for pooled in [true, false] {
                healthy.push(ConfigRun {
                    threads,
                    pooled,
                    checksum: 0x620a_6ab3_7774_1f01,
                    hits: if pooled { 987 } else { 0 },
                    misses: if pooled { 13 } else { 0 },
                    allocations: if pooled { 257 } else { 19_520 },
                    bytes_reused: 0,
                    wall_ms: 1.0,
                });
            }
        }
        assert_eq!(matrix_failures(&healthy), Vec::<String>::new());
        type Break = fn(&mut [ConfigRun]);
        let breaks: [(Break, &str); 4] = [
            (
                |r| r[3].checksum ^= 1,
                "pool off / t=2: checksum 0x620a6ab377741f00 differs from pool on / t=1's \
                 0x620a6ab377741f01 — determinism contract broken",
            ),
            (
                |r| r[2].hits = 0,
                "pool on / t=2: pool never served a recycled buffer",
            ),
            (
                |r| r[4].allocations = r[5].allocations,
                "pool on / t=4: 19520 fresh allocations with the pool vs 19520 without \
                 — no reduction",
            ),
            (
                |r| (r[0].hits, r[0].misses) = (49, 51),
                "pool on / t=1: hit rate 49.0% < 50%",
            ),
        ];
        for (brk, expected) in breaks {
            let mut runs = healthy.clone();
            brk(&mut runs);
            let failures = matrix_failures(&runs);
            assert!(failures.iter().any(|f| f == expected), "{failures:?}");
        }
    }
}
