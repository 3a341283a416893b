//! Turn any run's JSONL telemetry into a human-readable markdown report
//! plus a folded-stack flamegraph file: span-tree self-time attribution,
//! per-kernel parallel tables, memory-engine counters, final metric
//! values, and the run manifest — everything needed to answer "where did
//! this run spend its time" without re-running it.
//!
//! Usage:
//! ```text
//!   cargo run -p bench --release --bin trace_report                 # newest trace
//!   cargo run -p bench --release --bin trace_report -- --trace <f>  # specific file
//! ```
//!
//! Flags:
//! ```text
//!   --trace <path>        JSONL trace to analyze (default: newest file
//!                         under results/telemetry/)
//!   --out <dir>           where to write the .md and .folded artifacts
//!                         (default results/; `--out -` skips files)
//!   --top <n>             attribution rows to print (default 25)
//!   --min-coverage <pct>  exit non-zero unless span attribution covers at
//!                         least this fraction of wall time (default 0:
//!                         report-only)
//! ```
//!
//! The markdown goes to stdout as well as the file, so the binary works
//! both interactively and as a CI artifact step. The `.folded` file is
//! `flamegraph.pl` / speedscope input: one `a;b;c <self_us>` line per
//! span-tree node.

use bench::Args;
use std::path::PathBuf;
use trace::agg::{self, TraceAnalysis};
use trace::{Event, Value};

/// Newest `*.jsonl` under the telemetry directory.
fn newest_trace(dir: &str) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let path = entry.ok()?.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let mtime = path.metadata().ok()?.modified().ok()?;
            if best.as_ref().is_none_or(|(t, _)| mtime > *t) {
                best = Some((mtime, path));
            }
        }
    }
    best.map(|(_, p)| p)
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:.4}"),
        Value::Bool(b) => b.to_string(),
    }
}

fn fmt_us(us: i64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

/// Render one markdown section for a key/value event (manifest, summary,
/// memory), skipping stamp fields already shown elsewhere.
fn kv_section(out: &mut String, title: &str, e: &Event) {
    out.push_str(&format!("## {title}\n\n| field | value |\n|---|---|\n"));
    for (k, v) in &e.fields {
        if k == "ts_us" || k == "run" {
            continue;
        }
        out.push_str(&format!("| {k} | {} |\n", fmt_value(v)));
    }
    out.push('\n');
}

fn render(a: &TraceAnalysis, trace_name: &str, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Trace report: `{trace_name}`\n\n"));
    out.push_str(&format!("{} events replayed.\n\n", a.events));

    if let Some(m) = &a.manifest {
        kv_section(&mut out, "Run manifest", m);
    } else {
        out.push_str("_No run manifest recorded (pre-manifest trace)._\n\n");
    }
    if let Some(s) = &a.summary {
        kv_section(&mut out, "Run summary", s);
    }

    // ---- attribution ----
    let rows = a.attribution();
    let wall = a.wall_us();
    let attributed = a.attributed_us();
    out.push_str("## Span attribution (self time)\n\n");
    out.push_str(&format!(
        "Attributed {} of {} wall ({:.1}% coverage). *Self* is time inside \
         the span's own code; *total* includes instrumented callees.\n\n",
        fmt_us(attributed),
        fmt_us(wall),
        a.coverage() * 100.0
    ));
    out.push_str("| span | count | self | total | self % of wall |\n|---|---|---|---|---|\n");
    for r in rows.iter().take(top) {
        let pct = if wall > 0 {
            r.self_us as f64 / wall as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {pct:.1}% |\n",
            r.path,
            r.count,
            fmt_us(r.self_us),
            fmt_us(r.total_us)
        ));
    }
    if rows.len() > top {
        out.push_str(&format!("| … {} more rows … | | | | |\n", rows.len() - top));
    }
    out.push('\n');

    // ---- kernels ----
    if !a.kernels.is_empty() {
        out.push_str("## Parallel kernels\n\n");
        out.push_str("| kernel | regions | chunks | time |\n|---|---|---|---|\n");
        for k in &a.kernels {
            out.push_str(&format!(
                "| {} | {} | {} | {:.2} ms |\n",
                k.name, k.regions, k.chunks, k.ms
            ));
        }
        out.push('\n');
    }
    if let Some(mem) = &a.memory {
        kv_section(&mut out, "Memory engine", mem);
    }

    // ---- serving stages ----
    if let Some(stats) = a.serve_stats.last() {
        let f = |key: &str| stats.field(key).and_then(|v| v.as_f64());
        out.push_str("## Serving stages (rolling window)\n\n");
        out.push_str(&format!(
            "{} `serve_stats` snapshots; last window covers {:.0}s with \
             {:.0} requests ({:.0} ok / {:.0} shed / {:.0} timeout / {:.0} \
             degraded) at {:.1} req/s.\n\n",
            a.serve_stats.len(),
            f("win_secs").unwrap_or(0.0),
            f("win_requests").unwrap_or(0.0),
            f("win_ok").unwrap_or(0.0),
            f("win_shed").unwrap_or(0.0),
            f("win_timeout").unwrap_or(0.0),
            f("win_degraded").unwrap_or(0.0),
            f("win_qps").unwrap_or(0.0),
        ));
        out.push_str("| stage | count | mean | p50 | p95 | p99 |\n|---|---|---|---|---|---|\n");
        let stage_row = |out: &mut String, label: &str, prefix: &str| {
            if let Some(count) = f(&format!("{prefix}_count")) {
                let cell = |k: &str| {
                    f(&format!("{prefix}_{k}_ms"))
                        .map(|x| format!("{x:.4} ms"))
                        .unwrap_or_else(|| "—".into())
                };
                out.push_str(&format!(
                    "| {label} | {count:.0} | {} | {} | {} | {} |\n",
                    cell("mean"),
                    cell("p50"),
                    cell("p95"),
                    cell("p99")
                ));
            }
        };
        for name in ["queue", "assemble", "compute", "write"] {
            stage_row(&mut out, name, &format!("stage_{name}"));
        }
        stage_row(&mut out, "**end-to-end**", "win_latency");
        let stage_sum: f64 = ["queue", "assemble", "compute", "write"]
            .iter()
            .filter_map(|n| f(&format!("stage_{n}_mean_ms")))
            .sum();
        if let Some(e2e) = f("win_latency_mean_ms").filter(|v| *v > 0.0) {
            out.push_str(&format!(
                "\nStage means attribute {:.1}% of the end-to-end window mean.\n",
                stage_sum / e2e * 100.0
            ));
        }
        out.push('\n');
    }

    // ---- metrics ----
    if !a.counters.is_empty() || !a.gauges.is_empty() {
        out.push_str("## Final metric values\n\n| metric | value |\n|---|---|\n");
        for (k, v) in &a.counters {
            out.push_str(&format!("| {k} | {v} |\n"));
        }
        for (k, v) in &a.gauges {
            out.push_str(&format!("| {k} | {v:.4} |\n"));
        }
        out.push('\n');
    }
    if !a.histograms.is_empty() {
        out.push_str("## Histograms (last window)\n\n");
        out.push_str("| metric | count | mean | p50 | p95 | p99 |\n|---|---|---|---|---|---|\n");
        for (name, h) in &a.histograms {
            let f = |key: &str| {
                h.field(key)
                    .and_then(|v| v.as_f64())
                    .map(|x| format!("{x:.4}"))
                    .unwrap_or_else(|| "—".into())
            };
            out.push_str(&format!(
                "| {name} | {} | {} | {} | {} | {} |\n",
                h.field("count").and_then(|v| v.as_i64()).unwrap_or(0),
                f("mean"),
                f("p50"),
                f("p95"),
                f("p99")
            ));
        }
        out.push('\n');
    }
    out
}

fn main() {
    let args = Args::from_env();
    let top = args.get_usize("top", 25);
    let min_coverage = args.get_f32("min-coverage", 0.0) as f64 / 100.0;
    let out_dir = args.get_str("out", "results");
    let telemetry_dir = std::env::var("OOD_TELEMETRY_DIR")
        .unwrap_or_else(|_| bench::telemetry::TELEMETRY_DIR.into());

    let trace_path = if args.has("trace") {
        PathBuf::from(args.get_str("trace", ""))
    } else {
        match newest_trace(&telemetry_dir) {
            Some(p) => p,
            None => {
                eprintln!(
                    "trace_report: no .jsonl traces under {telemetry_dir}; \
                     run any bench binary first or pass --trace <file>"
                );
                std::process::exit(2);
            }
        }
    };

    let events = match agg::read_trace(&trace_path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("trace_report: {e}");
            std::process::exit(2);
        }
    };
    let analysis = agg::analyze(&events);
    let trace_name = trace_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| trace_path.display().to_string());
    let stem = trace_name.trim_end_matches(".jsonl");

    let report = render(&analysis, &trace_name, top);
    print!("{report}");

    if out_dir != "-" {
        let dir = PathBuf::from(&out_dir);
        let md_path = dir.join(format!("trace_report_{stem}.md"));
        let folded_path = dir.join(format!("trace_report_{stem}.folded"));
        std::fs::create_dir_all(&dir).ok();
        if let Err(e) = std::fs::write(&md_path, &report) {
            eprintln!("trace_report: cannot write {}: {e}", md_path.display());
        } else {
            eprintln!("trace_report: wrote {}", md_path.display());
        }
        if let Err(e) = std::fs::write(&folded_path, analysis.folded()) {
            eprintln!("trace_report: cannot write {}: {e}", folded_path.display());
        } else {
            eprintln!(
                "trace_report: wrote {} (flamegraph.pl / speedscope input)",
                folded_path.display()
            );
        }
    }

    if min_coverage > 0.0 && analysis.coverage() < min_coverage {
        eprintln!(
            "trace_report: coverage {:.1}% below required {:.1}%",
            analysis.coverage() * 100.0,
            min_coverage * 100.0
        );
        std::process::exit(1);
    }
}
