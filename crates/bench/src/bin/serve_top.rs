//! serve_top — a live terminal dashboard over the serving runtime's
//! telemetry stream.
//!
//! The serve executor emits periodic `serve_stats` events (see
//! `oodgnn-serve::stats`) into the run's JSONL trace. This binary tails
//! that file and renders each snapshot in place: request/outcome rates
//! over the rolling window, per-stage latency quantiles
//! (queue → assemble → compute → write), a queue-depth sparkline across
//! frames, and breaker/degraded indicators. It is a pure consumer — it
//! never talks to the server, so attaching it cannot perturb serving.
//!
//! Usage:
//! ```text
//!   cargo run -p bench --release --bin serve_top                  # tail newest trace
//!   cargo run -p bench --release --bin serve_top -- --trace <f>   # tail a specific file
//!   cargo run -p bench --release --bin serve_top -- --replay --trace <f>
//!                                                   # replay a recorded trace, final frame
//!   cargo run -p bench --release --bin serve_top -- --replay --once --trace <f>
//!                                                   # machine-readable, for CI smokes
//! ```
//!
//! Flags:
//! ```text
//!   --trace <path>     JSONL trace to follow (default: newest file under
//!                      results/telemetry/, honoring OOD_TELEMETRY_DIR)
//!   --replay           read the file start-to-finish instead of tailing;
//!                      renders the final dashboard state and exits
//!   --once             machine-readable `key=value` output of the last
//!                      snapshot instead of the dashboard; exits 2 when the
//!                      trace carries no serve_stats events
//!   --frames <n>       live mode: exit after rendering n frames (0 = run
//!                      until interrupted; default 0)
//!   --interval-ms <n>  live mode poll interval between reads (default 250)
//!   --history <n>      sparkline width in frames (default 48)
//!   --no-ansi          never clear the screen between frames
//! ```

use bench::Args;
use std::io::{BufReader, Read};
use std::path::PathBuf;
use trace::{names, Event};

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Stage names in lifecycle order, matching `oodgnn-serve`'s
/// `STAGE_NAMES` (not imported to keep the dashboard a pure
/// trace consumer).
const STAGES: [&str; 4] = ["queue", "assemble", "compute", "write"];

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

/// Rolling dashboard state folded over the event stream.
#[derive(Default)]
struct Dash {
    /// serve_stats snapshots seen so far.
    frames: usize,
    /// Last snapshot (drives every panel except the sparkline).
    last: Option<Event>,
    /// Queue depth per frame, oldest first, capped at `history`.
    depth_history: Vec<f64>,
    /// Largest window QPS seen across frames.
    peak_qps: f64,
    /// Sparkline capacity.
    history: usize,
}

impl Dash {
    fn new(history: usize) -> Self {
        Dash {
            history: history.max(8),
            ..Default::default()
        }
    }

    /// Fold one trace event; returns true when it was a snapshot (i.e.
    /// the dashboard should re-render).
    fn ingest(&mut self, e: &Event) -> bool {
        if e.name != names::SERVE_STATS {
            return false;
        }
        self.frames += 1;
        let depth = field_f64(e, "queue_depth").unwrap_or(0.0);
        self.depth_history.push(depth);
        if self.depth_history.len() > self.history {
            self.depth_history.remove(0);
        }
        self.peak_qps = self.peak_qps.max(field_f64(e, "win_qps").unwrap_or(0.0));
        self.last = Some(e.clone());
        true
    }

    /// The sparkline over recorded queue depths (empty string until the
    /// first frame).
    fn sparkline(&self) -> String {
        let max = self
            .depth_history
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max)
            .max(1.0);
        self.depth_history
            .iter()
            .map(|d| {
                let idx = ((d / max) * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[idx.min(SPARKS.len() - 1)]
            })
            .collect()
    }
}

fn field_f64(e: &Event, key: &str) -> Option<f64> {
    e.field(key).and_then(|v| v.as_f64())
}

fn field_bool(e: &Event, key: &str) -> bool {
    e.field(key).and_then(|v| v.as_bool()).unwrap_or(false)
}

/// One quantile table row; omitted entirely when the stage has no samples
/// in the window.
fn stage_line(out: &mut String, e: &Event, label: &str, prefix: &str) {
    let Some(count) = field_f64(e, &format!("{prefix}_count")) else {
        return;
    };
    let cell = |k: &str| {
        field_f64(e, &format!("{prefix}_{k}_ms"))
            .map(|x| format!("{x:9.3}"))
            .unwrap_or_else(|| format!("{:>9}", "—"))
    };
    out.push_str(&format!(
        "  {label:<10} {count:>7.0} {} {} {} {}\n",
        cell("mean"),
        cell("p50"),
        cell("p95"),
        cell("p99")
    ));
}

/// Render the full dashboard for the current state.
fn render(dash: &Dash) -> String {
    let mut out = String::new();
    let Some(e) = &dash.last else {
        return "serve_top: waiting for serve_stats events…\n".into();
    };
    let run = e
        .field("run")
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string();
    let uptime = field_f64(e, "uptime_s").unwrap_or(0.0);
    let breaker = field_bool(e, "breaker_open");
    let degraded = field_f64(e, "win_degraded").unwrap_or(0.0);
    let state = if breaker {
        "BREAKER OPEN"
    } else if degraded > 0.0 {
        "DEGRADED"
    } else {
        "OK"
    };
    out.push_str(&format!(
        "serve_top — {run}   frame {}   uptime {uptime:.1}s   state {state}\n",
        dash.frames
    ));
    out.push_str(&format!(
        "  inflight {:>4.0}   queue {:>4.0} (p95 {:.0}, peak {:.0})\n",
        field_f64(e, "inflight").unwrap_or(0.0),
        field_f64(e, "queue_depth").unwrap_or(0.0),
        field_f64(e, "queue_depth_p95").unwrap_or(0.0),
        field_f64(e, "queue_depth_peak").unwrap_or(0.0),
    ));
    out.push_str(&format!(
        "  window {:.0}s: {:.1} req/s (peak {:.1})   {:.0} req — {:.0} ok / {:.0} shed / {:.0} timeout / {:.0} degraded\n",
        field_f64(e, "win_secs").unwrap_or(0.0),
        field_f64(e, "win_qps").unwrap_or(0.0),
        dash.peak_qps,
        field_f64(e, "win_requests").unwrap_or(0.0),
        field_f64(e, "win_ok").unwrap_or(0.0),
        field_f64(e, "win_shed").unwrap_or(0.0),
        field_f64(e, "win_timeout").unwrap_or(0.0),
        degraded,
    ));
    if let Some(open) = field_f64(e, "open_conns") {
        out.push_str(&format!(
            "  conns {open:>4.0} open   window: {:.0} opened / {:.0} closed / {:.0} shed\n",
            field_f64(e, "win_conn_open").unwrap_or(0.0),
            field_f64(e, "win_conn_close").unwrap_or(0.0),
            field_f64(e, "win_conn_shed").unwrap_or(0.0),
        ));
    }
    out.push_str(&format!(
        "\n  {:<10} {:>7} {:>9} {:>9} {:>9} {:>9}  (ms)\n",
        "stage", "count", "mean", "p50", "p95", "p99"
    ));
    for name in STAGES {
        stage_line(&mut out, e, name, &format!("stage_{name}"));
    }
    stage_line(&mut out, e, "e2e", "win_latency");
    let stage_sum: f64 = STAGES
        .iter()
        .filter_map(|n| field_f64(e, &format!("stage_{n}_mean_ms")))
        .sum();
    if let Some(e2e) = field_f64(e, "win_latency_mean_ms").filter(|v| *v > 0.0) {
        out.push_str(&format!(
            "  attribution: stage means cover {:.1}% of e2e mean\n",
            stage_sum / e2e * 100.0
        ));
    }
    out.push_str(&format!("\n  depth {}\n", dash.sparkline()));
    let versions: Vec<String> = e
        .fields
        .iter()
        .filter(|(k, _)| k.starts_with("requests_v"))
        .filter_map(|(k, v)| Some(format!("{}={:.0}", &k["requests_".len()..], v.as_f64()?)))
        .collect();
    if !versions.is_empty() {
        out.push_str(&format!("  versions: {}\n", versions.join("  ")));
    }
    out
}

/// Machine-readable dump of the final state: one `key=value` per line,
/// snapshot fields verbatim plus a `frames` count. Stable enough to grep
/// in CI.
fn render_once(dash: &Dash) -> String {
    let mut out = format!("frames={}\n", dash.frames);
    if let Some(e) = &dash.last {
        for (k, v) in &e.fields {
            if k == "run" || k == "seed" {
                continue;
            }
            match v.as_f64() {
                Some(x) => out.push_str(&format!("{k}={x}\n")),
                None => {
                    if let Some(b) = v.as_bool() {
                        out.push_str(&format!("{k}={}\n", b as u8));
                    }
                }
            }
        }
    }
    out
}

fn main() {
    let args = Args::from_env();
    let replay = args.get_bool("replay", false);
    let once = args.get_bool("once", false);
    let frames_limit = args.get_usize("frames", 0);
    let interval = std::time::Duration::from_millis(args.get_u64("interval-ms", 250));
    let ansi = !args.get_bool("no-ansi", false) && !once && !replay;
    let telemetry_dir = std::env::var("OOD_TELEMETRY_DIR")
        .unwrap_or_else(|_| bench::telemetry::TELEMETRY_DIR.into());

    let trace_path = if args.has("trace") {
        PathBuf::from(args.get_str("trace", ""))
    } else {
        match newest_trace(&telemetry_dir) {
            Some(p) => p,
            None => {
                eprintln!(
                    "serve_top: no .jsonl traces under {telemetry_dir}; \
                     start a serving run or pass --trace <file>"
                );
                std::process::exit(2);
            }
        }
    };

    let mut dash = Dash::new(args.get_usize("history", 48));

    if replay || once {
        // Recorded mode: fold the whole file, then render one final view.
        match trace::agg::read_trace(&trace_path) {
            Ok(events) => {
                for e in &events {
                    dash.ingest(e);
                }
            }
            Err(e) => {
                eprintln!("serve_top: {e}");
                std::process::exit(2);
            }
        }
        if once {
            print!("{}", render_once(&dash));
        } else {
            eprintln!("serve_top: replayed {}", trace_path.display());
            print!("{}", render(&dash));
        }
        if dash.frames == 0 {
            eprintln!(
                "serve_top: no serve_stats events in {}",
                trace_path.display()
            );
            std::process::exit(2);
        }
        return;
    }

    // Live mode: tail the file line-by-line, re-rendering on every
    // snapshot. Partial lines (a writer mid-append) are retried whole on
    // the next poll.
    let file = match std::fs::File::open(&trace_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("serve_top: cannot open {}: {e}", trace_path.display());
            std::process::exit(2);
        }
    };
    eprintln!("serve_top: following {}", trace_path.display());
    let mut reader = BufReader::new(file);
    let mut pending = String::new();
    let mut rendered = 0usize;
    loop {
        let mut chunk = String::new();
        match reader.by_ref().take(1 << 20).read_to_string(&mut chunk) {
            Ok(0) => {
                std::thread::sleep(interval);
                continue;
            }
            Ok(_) => pending.push_str(&chunk),
            Err(e) => {
                eprintln!("serve_top: read error: {e}");
                std::process::exit(2);
            }
        }
        let mut dirty = false;
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Ok(e) = Event::from_json_line(line) {
                dirty |= dash.ingest(&e);
            }
        }
        if dirty {
            if ansi {
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render(&dash));
            use std::io::Write;
            std::io::stdout().flush().ok();
            rendered += 1;
            if frames_limit > 0 && rendered >= frames_limit {
                return;
            }
        }
    }
}
