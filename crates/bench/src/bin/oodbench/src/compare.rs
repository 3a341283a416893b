//! `--compare BASELINE CANDIDATE`: hold a candidate's end-to-end medians
//! to the baseline's within each metric's bound, per workload.

use crate::catalog::{Workload, END_TO_END, WORKLOADS};
use crate::stats::{median, percentile, sorted, within_bound};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Value;

/// End-to-end values per (workload, metric), from the untraced runs in an
/// `--out` file.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let pairs =
            trace::json::parse_object(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let (Some(Value::Str(w)), Some(Value::Bool(false)), Some(Value::Str(m)), Some(v)) = (
            field("workload"),
            field("traced"),
            field("metric"),
            field("value").and_then(Value::as_f64),
        ) else {
            continue;
        };
        values.entry((w.clone(), m.clone())).or_default().push(v);
    }
    Ok(values)
}

/// Quartile distance over the median, as a share.
fn spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    (percentile(&s, 75.0) - percentile(&s, 25.0)) / percentile(&s, 50.0).abs()
}

pub fn run(baseline: &str, candidate: &str) -> ExitCode {
    let (base, cand) = match (load(baseline), load(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("oodbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<18} {:>12} {:>7} {:>12} {:>7} {:>8} verdict",
        "workload", "metric", "base", "spread", "candidate", "spread", "bound"
    );
    let mut regressions = 0;
    for w in WORKLOADS.map(Workload::name) {
        for spec in &END_TO_END {
            let key = (w.to_string(), spec.name.to_string());
            let (Some(b), Some(c)) = (base.get(&key), cand.get(&key)) else {
                continue;
            };
            let bound = spec.bound.expect("end-to-end bound");
            let (mb, mc) = (median(b), median(c));
            let ok = within_bound(mb, mc, spec.better, bound, 0.0);
            regressions += usize::from(!ok);
            println!(
                "{w:<16} {:<18} {mb:>12.4} {:>6.1}% {mc:>12.4} {:>6.1}% {:>7.0}% {}",
                spec.name,
                100.0 * spread(b),
                100.0 * spread(c),
                100.0 * bound,
                if ok { "ok" } else { "REGRESSED" }
            );
        }
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressions} end-to-end metric(s) regressed beyond their bound");
        ExitCode::FAILURE
    }
}
