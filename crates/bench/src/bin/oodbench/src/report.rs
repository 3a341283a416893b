//! What one run measured, and how it is printed and saved.

use crate::catalog::{self, Workload};
use crate::stats::valid_name;
use trace::json::{write_str, write_value};
use trace::Value;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The outcome of one run: every metric it measured (catalogued ones and
/// diagnostics), the operation counts, and whether every output checked
/// out.
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: Workload, traced: bool) -> Report {
        Report {
            workload,
            traced,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Record (or overwrite) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let metric = Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = metric,
            None => self.metrics.push(metric),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a correctness gate; a failed gate makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if !ok {
            eprintln!("oodbench: {}: check failed: {what}", self.workload.name());
            self.correct = false;
        }
    }

    /// Fill the catalogued metrics this run did not measure with 0: the
    /// layers its workload does not run, or everything after a failed
    /// check. Any other gap is a bug.
    pub fn complete(&mut self) {
        for spec in catalog::specs(self.traced) {
            match self.metrics.iter().find(|m| m.name == spec.name) {
                Some(m) => assert_eq!(m.unit, spec.unit, "unit of {}", spec.name),
                None if !self.correct || !spec.scope.covers(self.workload) => {
                    self.set(spec.name, 0.0, spec.unit)
                }
                None => panic!("{} did not measure {}", self.workload.name(), spec.name),
            }
        }
        // A result counts at least one attempted operation.
        self.attempted = self.attempted.max(1);
    }

    /// Human-readable `name value unit` lines, catalogued metrics first.
    pub fn lines(&self) -> Vec<String> {
        let specs = catalog::specs(self.traced);
        let listed = specs
            .iter()
            .filter_map(|s| self.metrics.iter().find(|m| m.name == s.name));
        let extra = self
            .metrics
            .iter()
            .filter(|m| !specs.iter().any(|s| s.name == m.name));
        let mut out = vec![format!(
            "# {} ({}) {} correct={} attempted={} failed={}",
            self.workload.name(),
            self.workload.why(),
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            },
            self.correct,
            self.attempted,
            self.failed
        )];
        for m in listed.chain(extra) {
            out.push(format!("{:<34} {:>14.4} {}", m.name, m.value, m.unit));
        }
        out
    }

    /// The result line: exactly the catalogued metrics of this mode.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, spec) in catalog::specs(self.traced).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = self.get(spec.name).expect("report completed");
            write_str(&mut out, spec.name);
            out.push_str(":{\"value\":");
            write_value(&mut out, &Value::Float(value));
            out.push_str(",\"unit\":");
            write_str(&mut out, spec.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Flat JSON lines for `--out`: one run line, then one line per metric
    /// (diagnostics included).
    pub fn jsonl(&self) -> String {
        let head = |out: &mut String| {
            out.push_str("{\"workload\":");
            write_str(out, self.workload.name());
            out.push_str(&format!(",\"traced\":{}", self.traced));
        };
        let mut out = String::new();
        head(&mut out);
        out.push_str(&format!(
            ",\"correct\":{},\"attempted\":{},\"failed\":{}}}\n",
            self.correct, self.attempted, self.failed
        ));
        for m in &self.metrics {
            head(&mut out);
            out.push_str(",\"metric\":");
            write_str(&mut out, &m.name);
            out.push_str(",\"value\":");
            write_value(&mut out, &Value::Float(m.value));
            out.push_str(",\"unit\":");
            write_str(&mut out, &m.unit);
            out.push_str("}\n");
        }
        out
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}
