//! `oodbench` — the repository benchmark: OOD-GNN training through
//! `OodGnn::train_run` and inference through the `oodgnn-serve` binary,
//! measured end to end with tracing off and layer by layer with it on.
//!
//! ```text
//! bash crates/bench/src/bin/oodbench/run.sh --workload train_tri --seed 1 --seconds 15 --trace 0
//! bash crates/bench/src/bin/oodbench/run.sh --seed 1 --out results.jsonl   # every workload
//! bash crates/bench/src/bin/oodbench/run.sh --compare base.jsonl new.jsonl
//! ```
//!
//! A single-workload run prints `name value unit` lines, then one JSON
//! result line (`correct`, `attempted`, `failed`, `metrics`). Without
//! `--workload` every workload runs in its own child process, once with
//! tracing off and once with it on. `--out` appends flat JSON lines with
//! every metric, diagnostics included. The exit code is non-zero when any
//! output is wrong. See README.md in this directory.

mod catalog;
mod compare;
mod loadgen;
mod report;
mod serve;
mod stats;
mod train;

use catalog::{Workload, RUN_SECONDS, WORKLOADS};
use report::Report;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// How long and how often a run measures.
pub struct Plan {
    /// Time one run spends measuring.
    pub run: Duration,
    /// Shrunken datasets and phases, for a quick sanity check.
    pub smoke: bool,
    /// Server start-ups in a serving run; `setup_s` is their median.
    pub setups: usize,
    /// Cap on timed training repetitions.
    pub max_reps: usize,
}

impl Plan {
    fn new(seconds: f64, smoke: bool) -> Plan {
        if smoke {
            Plan {
                run: Duration::from_secs_f64(seconds.min(1.0)),
                smoke,
                setups: 1,
                max_reps: 1,
            }
        } else {
            Plan {
                run: Duration::from_secs_f64(seconds),
                smoke,
                setups: 9,
                max_reps: usize::MAX,
            }
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "oodbench: {problem}\n\
         usage: oodbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE] [--smoke]\n\
         \x20      oodbench --compare BASELINE.jsonl CANDIDATE.jsonl\n\
         workloads: {}",
        WORKLOADS.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => args.out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if let Some((baseline, candidate)) = &args.compare {
        return compare::run(baseline, candidate);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Measure one workload in this process.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let plan = Plan::new(args.seconds, args.smoke);
    let mut report = Report::new(w, args.traced);
    match (w.is_training(), args.traced) {
        (true, false) => train::end_to_end(w, args.seed, &plan, &mut report),
        (true, true) => train::traced(w, args.seed, &plan, &mut report),
        (false, traced) => serve::run(w, args.seed, &plan, traced, &mut report),
    }
    report.complete();
    for line in report.lines() {
        println!("{line}");
    }
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(report.jsonl().as_bytes()));
        if let Err(e) = appended {
            report.check(false, format!("append to {path}: {e}"));
        }
    }
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own child process, end to end and then
/// traced.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let Some(out) = &args.out {
                cmd.args(["--out", out]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let ok = cmd.status().map(|s| s.success()).unwrap_or(false);
            if !ok {
                failed.push(format!("{}/trace={trace}", w.name()));
            }
        }
    }
    if failed.is_empty() {
        println!("oodbench: every workload passed its correctness checks");
        ExitCode::SUCCESS
    } else {
        println!("oodbench: FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
