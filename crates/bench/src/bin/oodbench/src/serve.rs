//! Serving workloads: the `oodgnn-serve` binary built next to this one,
//! run as a separate process and driven over one TCP connection
//! (`TCP_NODELAY`, one write per request) or over its stdio pipe.

use crate::catalog::Workload;
use crate::loadgen::{infer_body, Link, Phase, Requests, Traffic};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, percentile, sorted, tail_percentile};
use crate::train::{self, profile_metrics, Data};
use crate::Plan;
use datasets::OodBenchmark;
use graph::{GraphBatch, TaskType};
use oodgnn_core::{CheckpointConfig, TrainCheckpoint, TrainOptions};
use oodgnn_serve::{parse_request, restore_into, Limits, ModelSpec, ServeConfig, Server, Status};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::nn::Module;
use tensor::rng::Rng;
use tensor::{Mode, Tape};

/// Open-loop rates of the `low`, `mid` and `high` phases, requests/s.
fn rates(w: Workload) -> [f64; 3] {
    match w {
        Workload::ServeTriTcp => [1000.0, 2000.0, 3000.0],
        _ => [200.0, 500.0, 900.0],
    }
}

/// Requests in flight during the `capacity` closed loop.
const OUTSTANDING: usize = 16;
/// Back-to-back windows the `capacity` phase is counted in.
const CAPACITY_WINDOWS: usize = 12;
/// Graphs per forward batch in the in-process forward probe (the
/// server's default maximum batch).
const PROBE_BATCH: usize = 8;

/// A served checkpoint, the requests for it, and their expected outputs.
struct Fixture {
    bench: OodBenchmark,
    dir: PathBuf,
    checkpoint: PathBuf,
    spec: ModelSpec,
    requests: Requests,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where `oodgnn-serve` was built: next to this executable.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    Ok(exe.with_file_name(name))
}

impl Fixture {
    /// Train the checkpoint (2 epochs, seeded, untimed), write the request
    /// lines for every test graph, and compute each one's expected outputs
    /// through an in-process server on the same checkpoint.
    fn build(w: Workload, seed: u64, smoke: bool) -> Result<Fixture, String> {
        let data = Data::of(w);
        let bench = data.generate(smoke);
        let dir = sibling(&format!("oodbench-{}-{}", w.name(), std::process::id()))?;
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let checkpoint = dir.join("model.oods");
        let mut fx = Fixture {
            spec: ModelSpec::new(
                "gin",
                bench.dataset.feature_dim(),
                32,
                2,
                bench.dataset.task(),
            ),
            dir,
            checkpoint,
            requests: Requests {
                bodies: Vec::new(),
                expected: Vec::new(),
                reload: None,
            },
            bench,
        };
        train::new_model(&fx.bench, data, 2, seed)
            .train_run(
                &fx.bench,
                seed,
                TrainOptions {
                    checkpoint: Some(CheckpointConfig::new(&fx.checkpoint, 2)),
                    ..Default::default()
                },
            )
            .map_err(|e| format!("training the served checkpoint: {e}"))?;
        let ds = &fx.bench.dataset;
        fx.requests.bodies = (fx.bench.split.test.iter())
            .map(|&gi| [false, true].map(|t| infer_body(ds.graph(gi), t)))
            .collect();
        if w == Workload::ServeDdStdio {
            let mut path = String::new();
            trace::json::write_str(&mut path, &fx.checkpoint.to_string_lossy());
            fx.requests.reload = Some(format!("\",\"path\":{path}}}\n"));
        }
        fx.requests.expected = fx.expected_outputs()?;
        Ok(fx)
    }

    fn expected_outputs(&self) -> Result<Vec<Vec<u32>>, String> {
        // Outputs do not depend on batching, so every request is queued at
        // once.
        let config = ServeConfig {
            queue_capacity: self.requests.bodies.len(),
            ..ServeConfig::default()
        };
        let server = Server::start(
            config,
            vec![("default".into(), self.spec.clone(), self.checkpoint.clone())],
        )?;
        let (tx, rx) = channel();
        for (i, body) in self.requests.bodies.iter().enumerate() {
            server.submit_line(&format!("{{\"op\":\"infer\",\"id\":\"{i}{}", body[0]), &tx);
        }
        let mut expected = vec![Vec::new(); self.requests.bodies.len()];
        for _ in 0..expected.len() {
            let r = rx
                .recv_timeout(Duration::from_secs(60))
                .map_err(|_| "in-process server did not answer")?;
            let (Status::Ok, Some(id), Some(out)) = (r.status, &r.id, &r.outputs) else {
                return Err(format!("in-process server answered {r:?}"));
            };
            let i: usize = id.parse().map_err(|_| "unexpected reply id")?;
            expected[i] = out.iter().map(|v| v.to_bits()).collect();
        }
        server.shutdown();
        Ok(expected)
    }

    /// The `oodgnn-serve` flags for this checkpoint.
    fn server_args(&self) -> Vec<String> {
        let (task, out_dim) = match self.spec.task {
            TaskType::MultiClass { classes } => ("multiclass", classes),
            TaskType::BinaryClassification { tasks } => ("binary", tasks),
            TaskType::Regression { targets } => ("regression", targets),
        };
        let mut args: Vec<String> =
            vec!["--checkpoint".into(), self.checkpoint.display().to_string()];
        for (flag, value) in [
            ("--in-dim", self.spec.in_dim.to_string()),
            ("--hidden", self.spec.hidden.to_string()),
            ("--layers", self.spec.layers.to_string()),
            ("--task", task.to_string()),
            ("--out-dim", out_dim.to_string()),
        ] {
            args.push(flag.into());
            args.push(value);
        }
        args
    }
}

/// A running `oodgnn-serve` and the connection to it.
struct Process {
    child: Child,
    writer: Option<Box<dyn Write + Send>>,
    replies: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    tcp: bool,
    /// Held open so the server's late stderr lines never hit a closed pipe.
    _stderr: Option<BufReader<ChildStderr>>,
}

impl Link for Process {
    fn send(&mut self, line: &[u8]) -> io::Result<()> {
        let w = self.writer.as_mut().expect("connection open");
        w.write_all(line)?;
        w.flush()
    }

    fn recv(&mut self, timeout: Duration) -> Option<(Instant, String)> {
        self.replies.recv_timeout(timeout).ok()
    }
}

impl Process {
    /// Start the server and wait for its first `health` reply; returns the
    /// seconds that took.
    fn spawn(fx: &Fixture, tcp: bool) -> Result<(Process, f64), String> {
        let start = Instant::now();
        let mut cmd = Command::new(sibling("oodgnn-serve")?);
        cmd.args(fx.server_args());
        if tcp {
            cmd.args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
        } else {
            cmd.stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn oodgnn-serve: {e}"))?;
        let (tx, replies) = channel();
        // From here on, dropping `p` on an error stops the server.
        let mut p = Process {
            child,
            writer: None,
            replies,
            reader: None,
            tcp,
            _stderr: None,
        };
        let reader: Box<dyn Read + Send> = if tcp {
            let mut stderr = BufReader::new(p.child.stderr.take().ok_or("no stderr pipe")?);
            let addr = loop {
                let mut line = String::new();
                if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                    return Err("oodgnn-serve exited before listening".into());
                }
                if let Some(addr) = line.trim().strip_prefix("oodgnn-serve: listening on ") {
                    break addr.to_string();
                }
            };
            p._stderr = Some(stderr);
            let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            p.writer = Some(Box::new(stream.try_clone().map_err(|e| e.to_string())?));
            Box::new(stream)
        } else {
            p.writer = Some(Box::new(p.child.stdin.take().ok_or("no stdin pipe")?));
            Box::new(p.child.stdout.take().ok_or("no stdout pipe")?)
        };
        p.reader = Some(std::thread::spawn(move || {
            let mut reader = BufReader::new(reader);
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx.send((Instant::now(), line)).is_err() {
                            break;
                        }
                    }
                }
            }
        }));
        p.send(b"{\"op\":\"health\",\"id\":\"health\"}\n")
            .map_err(|e| format!("send health: {e}"))?;
        match p.recv(Duration::from_secs(30)) {
            Some((_, line)) if line.contains("\"status\":\"ok\"") => {
                Ok((p, start.elapsed().as_secs_f64()))
            }
            other => Err(format!("no healthy reply from oodgnn-serve: {other:?}")),
        }
    }

    /// Drain the server, wait for it to exit, and return its peak RSS.
    fn stop(mut self) -> Result<f64, String> {
        let rss = peak_rss_mb(&self.child.id().to_string());
        if self.tcp {
            let _ = self.send(b"{\"op\":\"drain\",\"id\":\"drain\"}\n");
        }
        self.writer = None; // EOF on stdin drains a stdio server.
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Ok(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => break Err("oodgnn-serve did not exit after drain".to_string()),
                Err(e) => break Err(e.to_string()),
            }
        }?;
        if !status.success() {
            return Err(format!("oodgnn-serve exited with {status}"));
        }
        rss
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        self.writer = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Phase lengths as shares of the run time.
struct Phases {
    /// One `capacity` window.
    window: Duration,
    low: Duration,
    mid: Duration,
    high: Duration,
}

impl Phases {
    fn new(run: Duration, traced: bool) -> Phases {
        let share = |s: f64| run.mul_f64(s);
        // The traced run repeats `mid` with timing on.
        let (capacity, low, mid, high) = if traced {
            (0.2, 0.35, 0.15, 0.15)
        } else {
            (0.4, 0.35, 0.15, 0.1)
        };
        Phases {
            window: share(capacity / CAPACITY_WINDOWS as f64),
            low: share(low),
            mid: share(mid),
            high: share(high),
        }
    }
}

pub fn run(w: Workload, seed: u64, plan: &Plan, traced: bool, report: &mut Report) {
    let fx = match Fixture::build(w, seed, plan.smoke) {
        Ok(fx) => fx,
        Err(e) => return report.check(false, e),
    };
    if let Err(e) = drive(w, &fx, seed, plan, traced, report) {
        report.check(false, e);
    }
    if traced {
        if let Err(e) = probes(&fx, plan, report) {
            report.check(false, e);
        }
    }
}

fn drive(
    w: Workload,
    fx: &Fixture,
    seed: u64,
    plan: &Plan,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let tcp = w == Workload::ServeTriTcp;
    let mut setup = Vec::new();
    let mut process = None;
    for _ in 0..if traced { 1 } else { plan.setups } {
        if let Some(p) = process.take() {
            Process::stop(p)?;
        }
        let (p, secs) = Process::spawn(fx, tcp)?;
        setup.push(secs);
        process = Some(p);
    }
    report.set(
        if traced { "serve.setup_s" } else { "setup_s" },
        median(&setup),
        "s",
    );
    let mut t = Traffic::new(
        process.expect("spawned"),
        &fx.requests,
        seed.wrapping_add(3),
    );
    let ph = Phases::new(plan.run, traced);
    let [low, mid, high] = rates(w);
    let mut failures = std::collections::BTreeMap::new();
    let mut account = |p: &Phase, report: &mut Report| {
        report.attempted += p.sent;
        report.failed += p.failed;
        report.check(
            p.wrong == 0,
            format!("{} replies with wrong outputs", p.wrong),
        );
        report.check(
            p.clock_violations == 0,
            format!(
                "{} replies where the client saw less than the server",
                p.clock_violations
            ),
        );
        for (status, n) in &p.statuses {
            *failures.entry(status.clone()).or_insert(0) += n;
        }
    };
    // The closed loop runs first and doubles as the warm-up. Its thousands
    // of full batches of 8 random graphs reach the server's peak memory;
    // the sparse batches of the open-loop phases alone leave peak RSS to
    // chance (17-43 MiB on `serve_dd_stdio` over seeds 1-6).
    let (windows, cap) = t.closed_loop(OUTSTANDING, CAPACITY_WINDOWS, ph.window)?;
    account(&cap, report);
    let windows = sorted(&windows);
    for p in [50.0, 90.0] {
        report.set(
            &format!("serve.capacity_rps_p{p}"),
            percentile(&windows, p),
            "1/s",
        );
    }
    let ok_before = t.stat("ok")?;
    let batches_before = t.stat("batches")?;
    let low_phase = t.open_loop(low, ph.low, traced)?;
    account(&low_phase, report);
    latency_metrics("low", &low_phase, report);
    if traced {
        let plain = t.open_loop(mid, ph.mid, false)?;
        account(&plain, report);
        let timed = t.open_loop(mid, ph.mid, true)?;
        account(&timed, report);
        latency_metrics("mid", &timed, report);
        stage_metrics(&low_phase, &timed, report);
        let p50 = |p: &Phase| percentile(&sorted(&p.latency_ms), 50.0);
        report.set(
            "serve.trace_overhead_pct",
            100.0 * (p50(&timed) / p50(&plain) - 1.0),
            "%",
        );
    } else {
        let mid_phase = t.open_loop(mid, ph.mid, false)?;
        account(&mid_phase, report);
        latency_metrics("mid", &mid_phase, report);
    }
    let high_phase = t.open_loop(high, ph.high, false)?;
    account(&high_phase, report);
    latency_metrics("high", &high_phase, report);
    let served = t.stat("ok")? - ok_before;
    report.set(
        "graph.batch_mean",
        served / (t.stat("batches")? - batches_before).max(1.0),
        "count",
    );
    if !traced {
        report.set(
            "latency_ms",
            report.get("client.lat_p50_ms_low").unwrap_or(0.0),
            "ms",
        );
    }
    let peak = t.link.stop()?;
    report.set(
        if traced {
            "serve.peak_rss_mb"
        } else {
            "peak_rss_mb"
        },
        peak,
        "MiB",
    );
    let attempted = report.attempted.max(1) as f64;
    report.set(
        "serve.fail_pct",
        100.0 * report.failed as f64 / attempted,
        "%",
    );
    for (status, n) in failures {
        report.set(
            &format!("serve.{status}_pct"),
            100.0 * n as f64 / attempted,
            "%",
        );
    }
    Ok(())
}

/// Client-observed latency of one phase: p50, and p90/p99 where at least
/// ten samples lie beyond them; plus the generator's worst lateness and
/// the reload round trips.
fn latency_metrics(name: &str, p: &Phase, report: &mut Report) {
    let lat = sorted(&p.latency_ms);
    if lat.is_empty() {
        return report.check(false, format!("no ok replies in phase {name}"));
    }
    report.set(
        &format!("client.lat_p50_ms_{name}"),
        percentile(&lat, 50.0),
        "ms",
    );
    for q in [90.0, 99.0] {
        if let Some(v) = tail_percentile(&lat, q) {
            report.set(&format!("client.lat_p{q}_ms_{name}"), v, "ms");
        }
    }
    report.set(&format!("client.samples_{name}"), lat.len() as f64, "count");
    let late = p.late_ms.iter().copied().fold(0.0, f64::max);
    report.set(&format!("client.late_ms_max_{name}"), late, "ms");
    report.set(
        &format!("transport.residual_ms_p50_{name}"),
        median(&p.residual_ms),
        "ms",
    );
    report.set(
        &format!("serve.latency_ms_p50_{name}"),
        median(&p.server_ms),
        "ms",
    );
    if !p.reload_ms.is_empty() {
        report.set(
            &format!("registry.reload_ms_p50_{name}"),
            median(&p.reload_ms),
            "ms",
        );
    }
}

/// Shares of the client-observed mean latency at the `low` rate (the
/// generator's lateness, the transport residual and the server's four
/// stages partition it), and the stage medians at the `mid` rate.
fn stage_metrics(low: &Phase, mid: &Phase, report: &mut Report) {
    let total = mean(&low.latency_ms);
    let stage = |k: usize| mean(&low.stages_us.iter().map(|s| s[k] / 1e3).collect::<Vec<_>>());
    report.set("client.lat_mean_ms_low", total, "ms");
    report.set("client.late_pct", 100.0 * mean(&low.late_ms) / total, "%");
    report.set(
        "transport.residual_pct",
        100.0 * mean(&low.residual_ms) / total,
        "%",
    );
    let names = ["queue", "assemble", "compute", "write"];
    for (k, name) in names.iter().enumerate() {
        report.set(&format!("serve.{name}_pct"), 100.0 * stage(k) / total, "%");
        let mid_ms: Vec<f64> = mid.stages_us.iter().map(|s| s[k] / 1e3).collect();
        if !mid_ms.is_empty() {
            report.set(&format!("serve.{name}_ms_p50_mid"), median(&mid_ms), "ms");
        }
    }
    report.check(
        low.stages_us.len() == low.latency_ms.len(),
        "every timed reply carries its stage timing",
    );
}

/// In-process probes on the workload's own inputs: request parsing, and
/// the forward pass of the served checkpoint.
fn probes(fx: &Fixture, plan: &Plan, report: &mut Report) -> Result<(), String> {
    let lines: Vec<String> = fx
        .requests
        .bodies
        .iter()
        .enumerate()
        .map(|(i, b)| format!("{{\"op\":\"infer\",\"id\":\"{i}{}", b[1]))
        .collect();
    let limits = Limits::default();
    let passes = if plan.smoke { 1 } else { 5 };
    let mut parse_us = Vec::new();
    for line in &lines {
        let mut times = Vec::new();
        for _ in 0..passes {
            let start = Instant::now();
            let parsed = parse_request(std::hint::black_box(line), &limits);
            times.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(parsed.is_ok(), "workload requests parse");
        }
        parse_us.push(median(&times));
    }
    report.set("protocol.parse_us_p50", median(&parse_us), "us");
    // Requests are drawn uniformly from these lines, so their mean parse
    // time is the mean per request. Parsing precedes the server's
    // admission stamp: this is part of the transport residual.
    if let Some(low_ms) = report.get("client.lat_mean_ms_low") {
        report.set(
            "protocol.parse_pct",
            100.0 * mean(&parse_us) / (low_ms * 1e3),
            "%",
        );
    }

    let start = Instant::now();
    let mut model = fx.spec.build()?;
    let ck = TrainCheckpoint::load(&fx.checkpoint).map_err(|e| e.to_string())?;
    restore_into(&mut model, &ck)?;
    report.set(
        "registry.load_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let ds = &fx.bench.dataset;
    let test = &fx.bench.split.test;
    let mut rng = Rng::seed_from(0);
    tensor::profile::reset();
    let before = tensor::profile::snapshot();
    let (mut forward, mut graphs) = (Duration::ZERO, 0usize);
    let probe_start = Instant::now();
    while graphs == 0 || probe_start.elapsed() < plan.run.mul_f64(0.05) {
        for chunk in test.chunks(PROBE_BATCH) {
            let batch = GraphBatch::from_dataset(ds, chunk);
            let mut tape = Tape::new();
            let t = Instant::now();
            let out = model.predict(&mut tape, &batch, Mode::Eval, &mut rng);
            std::hint::black_box(tape.value(out));
            forward += t.elapsed();
            graphs += chunk.len();
            for p in model.params_mut() {
                p.clear_binding();
            }
        }
    }
    let after = tensor::profile::snapshot();
    let g = graphs as f64;
    report.set(
        "gnn.forward_us_per_graph",
        forward.as_secs_f64() * 1e6 / g,
        "us",
    );
    for (name, value, unit) in profile_metrics(&before, &after, forward.as_secs_f64(), g) {
        report.set(&name, value, unit);
    }
    Ok(())
}
