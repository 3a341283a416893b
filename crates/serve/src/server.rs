//! The serving runtime: bounded admission, batched execution, and every
//! robustness path the protocol promises.
//!
//! Architecture: admission threads (stdin/socket readers) validate
//! requests against the shared [`ModelMeta`] projection and push plain
//! `Send` payloads onto a **bounded** queue — a full queue yields an
//! immediate `shed` response, never unbounded memory. A single executor
//! thread owns the [`Registry`] (models are not `Send`), greedily
//! coalesces adjacent inference requests into padded batches, and runs
//! eval-mode forwards on the deterministic tensor worker pool. Because
//! per-graph outputs are bitwise-independent of batch composition (see the
//! `batch_invariance` integration test), coalescing and padding never
//! change a response.
//!
//! Failure handling mirrors the trainer's clip → retry → uniform-fallback
//! guardrail: a batch whose forward panics or produces non-finite rows is
//! retried with backoff, then surviving rows are served and poisoned rows
//! fall back to a uniform-probability `degraded` response. Consecutive
//! failing batches open a circuit breaker that serves `degraded` without
//! touching the model until a cooldown expires. Reload and drain flow
//! through the same queue, so a hot checkpoint swap never drops in-flight
//! requests and drain answers everything already admitted.

use crate::protocol::{InferRequest, Limits, Request, Response, StageTiming, Status};
use crate::registry::{ModelEntry, ModelSpec, Registry};
use crate::stats::ServeWindows;
use graph::{Graph, GraphBatch, Label, TaskType};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::nn::Module;
use tensor::rng::Rng;
use tensor::{Mode, Tape, Tensor};

/// Runtime knobs of the serving loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity; a full queue sheds.
    pub queue_capacity: usize,
    /// Maximum inference requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Deadline applied when a request carries none.
    pub default_deadline_ms: u64,
    /// Forward-pass retries before falling back to `degraded`.
    pub max_retries: usize,
    /// Base backoff between retries (doubles per attempt).
    pub retry_backoff_ms: u64,
    /// Consecutive failing batches that open the circuit breaker.
    pub breaker_threshold: usize,
    /// Batches served `degraded` (without a forward) while the breaker
    /// is open.
    pub breaker_cooldown: usize,
    /// Interval between periodic `serve_stats` telemetry events (emitted
    /// even while the queue is idle). Observability-only.
    pub stats_interval_ms: u64,
    /// Span of the rolling stats windows, in seconds.
    pub window_secs: u64,
    /// Request validation limits.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            default_deadline_ms: 1000,
            max_retries: 2,
            retry_backoff_ms: 5,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            stats_interval_ms: 1000,
            window_secs: 60,
            limits: Limits::default(),
        }
    }
}

/// Cumulative serving counters (relaxed atomics; exact totals once the
/// executor has drained).
#[derive(Default)]
pub struct ServeStats {
    /// Lines received, well-formed or not.
    pub received: AtomicU64,
    /// Requests answered `ok`.
    pub ok: AtomicU64,
    /// Structured `error` responses.
    pub errors: AtomicU64,
    /// Requests shed at admission (queue full or draining).
    pub shed: AtomicU64,
    /// Requests whose deadline expired in the queue.
    pub timeouts: AtomicU64,
    /// Requests served the uniform fallback.
    pub degraded: AtomicU64,
    /// Successful hot reloads.
    pub reloads: AtomicU64,
    /// Forward batches executed.
    pub batches: AtomicU64,
    /// Forward-pass retries.
    pub retries: AtomicU64,
    /// Inference requests admitted but not yet answered (a gauge, not a
    /// cumulative counter — excluded from [`ServeStats::snapshot`]).
    pub inflight: AtomicU64,
    /// Whether the circuit breaker is currently open (mirrored from the
    /// executor for admission-side `health`/`stats` probes).
    pub breaker_open: AtomicBool,
    /// TCP connections accepted (cumulative).
    pub conn_open: AtomicU64,
    /// TCP connections closed, any cause (cumulative).
    pub conn_close: AtomicU64,
    /// TCP connections refused at the `--max-conns` gauge (cumulative).
    pub conn_shed: AtomicU64,
    /// Connections dropped because their bounded outbound queue
    /// overflowed (a reader slower than its own request rate).
    pub slow_client_drops: AtomicU64,
    /// Connections closed by the per-connection read idle timeout.
    pub idle_closed: AtomicU64,
    /// Currently open TCP connections (a gauge — excluded from
    /// [`ServeStats::snapshot`]).
    pub open_conns: AtomicU64,
}

impl ServeStats {
    /// Snapshot every counter as `(name, value)` pairs.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("received", self.received.load(Ordering::Relaxed)),
            ("ok", self.ok.load(Ordering::Relaxed)),
            ("errors", self.errors.load(Ordering::Relaxed)),
            ("shed", self.shed.load(Ordering::Relaxed)),
            ("timeouts", self.timeouts.load(Ordering::Relaxed)),
            ("degraded", self.degraded.load(Ordering::Relaxed)),
            ("reloads", self.reloads.load(Ordering::Relaxed)),
            ("batches", self.batches.load(Ordering::Relaxed)),
            ("retries", self.retries.load(Ordering::Relaxed)),
            ("conn_open", self.conn_open.load(Ordering::Relaxed)),
            ("conn_close", self.conn_close.load(Ordering::Relaxed)),
            ("conn_shed", self.conn_shed.load(Ordering::Relaxed)),
            (
                "slow_client_drops",
                self.slow_client_drops.load(Ordering::Relaxed),
            ),
            ("idle_closed", self.idle_closed.load(Ordering::Relaxed)),
        ]
    }
}

/// Seeded fault hooks for drills and tests: poison the next N forward
/// outputs with NaN, or stall the next N batches to force queue pressure.
#[derive(Default)]
pub struct FaultInjector {
    nan_batches: AtomicUsize,
    slow_batches: AtomicUsize,
    slow_ms: AtomicU64,
}

impl FaultInjector {
    /// Poison the outputs of the next `n` forward batches with NaN.
    pub fn inject_nan_batches(&self, n: usize) {
        self.nan_batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Stall the next `n` batches for `ms` milliseconds each (slow-worker
    /// simulation driving queue backpressure and deadline expiry).
    pub fn inject_slow_batches(&self, n: usize, ms: u64) {
        self.slow_ms.store(ms, Ordering::Relaxed);
        self.slow_batches.fetch_add(n, Ordering::Relaxed);
    }

    fn take(counter: &AtomicUsize) -> bool {
        counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// Admission-side projection of a registry entry (the registry itself is
/// confined to the executor thread).
#[derive(Debug, Clone, Copy)]
pub struct ModelMeta {
    /// Node-feature dimension the model expects.
    pub feature_dim: usize,
    /// Output dimension of the head.
    pub out_dim: usize,
    /// Current registry version.
    pub version: u64,
}

/// Where a response is routed: an in-process channel (stdio, tests,
/// drills) or a TCP connection's bounded outbound queue. Sending to a
/// dead connection silently drops the reply — in-flight work from a
/// disconnected client completes and evaporates at routing, it never
/// panics the executor.
#[derive(Clone)]
pub enum ReplyTx {
    /// In-process mpsc channel.
    Channel(Sender<Response>),
    /// A TCP connection's writer queue (see [`crate::transport`]).
    Conn(Arc<crate::transport::Conn>),
}

impl ReplyTx {
    /// Deliver one response; delivery failures are swallowed.
    pub fn send(&self, r: Response) {
        match self {
            ReplyTx::Channel(tx) => {
                let _ = tx.send(r);
            }
            ReplyTx::Conn(conn) => conn.push_response(r),
        }
    }
}

struct InferJob {
    req: InferRequest,
    enqueued: Instant,
    deadline: Instant,
    tx: ReplyTx,
}

enum Work {
    Infer(Box<InferJob>),
    Reload {
        id: String,
        model: String,
        path: PathBuf,
        tx: ReplyTx,
    },
    Drain {
        id: String,
        tx: ReplyTx,
    },
}

struct Shared {
    queue: Mutex<std::collections::VecDeque<Work>>,
    cv: Condvar,
}

/// The serving runtime handle. Admission via [`Server::submit_line`] is
/// safe from any thread; dropping the handle drains and joins.
pub struct Server {
    config: ServeConfig,
    shared: Arc<Shared>,
    stats: Arc<ServeStats>,
    meta: Arc<Mutex<HashMap<String, ModelMeta>>>,
    draining: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    fault: Arc<FaultInjector>,
    windows: Arc<Mutex<ServeWindows>>,
    executor: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Start the runtime: spawn the executor, load every `(name, spec,
    /// checkpoint)` into the registry, and return once the registry is
    /// ready (or the first load fails).
    pub fn start(
        config: ServeConfig,
        models: Vec<(String, ModelSpec, PathBuf)>,
    ) -> Result<Server, String> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(std::collections::VecDeque::new()),
            cv: Condvar::new(),
        });
        let stats = Arc::new(ServeStats::default());
        let meta = Arc::new(Mutex::new(HashMap::new()));
        let draining = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicBool::new(false));
        let fault = Arc::new(FaultInjector::default());
        let windows = Arc::new(Mutex::new(ServeWindows::new(config.window_secs)));
        let (load_tx, load_rx) = std::sync::mpsc::channel::<Result<(), String>>();
        let executor = {
            let shared = shared.clone();
            let stats = stats.clone();
            let meta = meta.clone();
            let ready = ready.clone();
            let fault = fault.clone();
            let windows = windows.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("oodgnn-serve-exec".into())
                .spawn(move || {
                    let mut registry = Registry::new();
                    for (name, spec, path) in &models {
                        match registry.load(name, spec, path) {
                            Ok(version) => {
                                meta.lock().unwrap_or_else(|e| e.into_inner()).insert(
                                    name.clone(),
                                    ModelMeta {
                                        feature_dim: spec.in_dim,
                                        out_dim: spec.task.output_dim(),
                                        version,
                                    },
                                );
                            }
                            Err(e) => {
                                let _ = load_tx.send(Err(format!("loading `{name}`: {e}")));
                                return;
                            }
                        }
                    }
                    ready.store(true, Ordering::Relaxed);
                    let _ = load_tx.send(Ok(()));
                    Executor {
                        registry,
                        shared,
                        stats,
                        meta,
                        fault,
                        windows,
                        config,
                        consecutive_failures: 0,
                        breaker_open_remaining: 0,
                        last_stats: Instant::now(),
                    }
                    .run();
                })
                .map_err(|e| format!("cannot spawn executor: {e}"))?
        };
        match load_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = executor.join();
                return Err(e);
            }
            Err(_) => return Err("executor died during startup".into()),
        }
        Ok(Server {
            config,
            shared,
            stats,
            meta,
            draining,
            ready,
            fault,
            windows,
            executor: Mutex::new(Some(executor)),
        })
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The fault-injection hooks (drills and tests only).
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        self.fault.clone()
    }

    /// Admission-side model metadata for `name`.
    pub fn model_meta(&self, name: &str) -> Option<ModelMeta> {
        self.meta
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }

    /// Admit one request line; every outcome (including malformed input,
    /// shed and timeout) is delivered as a [`Response`] on `tx`.
    pub fn submit_line(&self, line: &str, tx: &Sender<Response>) {
        self.submit_line_routed(line, &ReplyTx::Channel(tx.clone()));
    }

    /// Admit one request arriving as raw socket bytes. Invalid UTF-8 is a
    /// structured `error` response (with no `id` — there is no line to
    /// recover one from), never a reader-thread panic.
    pub fn submit_bytes(&self, bytes: &[u8], tx: &ReplyTx) {
        match std::str::from_utf8(bytes) {
            Ok(line) => self.submit_line_routed(line, tx),
            Err(_) => {
                self.stats.received.fetch_add(1, Ordering::Relaxed);
                trace::metrics::counter_add("serve/requests", 1);
                self.respond_error(tx, None, "request line is not valid UTF-8");
            }
        }
    }

    /// [`Server::submit_line`] with an explicit reply route.
    pub fn submit_line_routed(&self, line: &str, tx: &ReplyTx) {
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/requests", 1);
        let limits = &self.config.limits;
        let request = match crate::protocol::parse_request(line, limits) {
            Ok(r) => r,
            Err(e) => {
                self.respond_error(tx, crate::protocol::best_effort_id(line, limits), e);
                return;
            }
        };
        match request {
            Request::Health { id } => {
                let state = if self.draining.load(Ordering::Relaxed) {
                    "draining"
                } else if self.stats.breaker_open.load(Ordering::Relaxed) {
                    "degraded"
                } else {
                    "ok"
                };
                let mut r = Response::new(id, Status::Ok)
                    .with_extra("healthy", if state == "ok" { 1.0 } else { 0.0 });
                r.state = Some(state.to_string());
                tx.send(r);
            }
            Request::Ready { id } => {
                let ready =
                    self.ready.load(Ordering::Relaxed) && !self.draining.load(Ordering::Relaxed);
                tx.send(
                    Response::new(id, Status::Ok)
                        .with_extra("ready", if ready { 1.0 } else { 0.0 }),
                );
            }
            Request::Stats { id } => {
                // Answered right here at admission — never queued — so the
                // snapshot arrives even while the data path is saturated.
                let mut r = Response::new(id, Status::Ok);
                for (k, v) in self.stats.snapshot() {
                    r = r.with_extra(k, v as f64);
                }
                let depth = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .len();
                r = r.with_extra("queue_depth", depth as f64);
                r = r.with_extra(
                    "inflight",
                    self.stats.inflight.load(Ordering::Relaxed) as f64,
                );
                r = r.with_extra(
                    "open_conns",
                    self.stats.open_conns.load(Ordering::Relaxed) as f64,
                );
                r = r.with_extra(
                    "breaker_open",
                    if self.stats.breaker_open.load(Ordering::Relaxed) {
                        1.0
                    } else {
                        0.0
                    },
                );
                r = r.with_extra(
                    "draining",
                    if self.draining.load(Ordering::Relaxed) {
                        1.0
                    } else {
                        0.0
                    },
                );
                let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
                r = r.with_extra("uptime_s", w.uptime_s());
                let now = w.now_us();
                for (k, v) in w.rows(now) {
                    r = r.with_extra(&k, v);
                }
                drop(w);
                tx.send(r);
            }
            Request::Drain { id } => {
                self.draining.store(true, Ordering::Relaxed);
                self.push_unbounded(Work::Drain { id, tx: tx.clone() });
            }
            Request::Reload { id, model, path } => {
                if self.draining.load(Ordering::Relaxed) {
                    self.respond_error(tx, id, "server is draining");
                    return;
                }
                if self.model_meta(&model).is_none() {
                    self.respond_error(tx, id, format!("unknown model `{model}`"));
                    return;
                }
                self.push_unbounded(Work::Reload {
                    id,
                    model,
                    path: PathBuf::from(path),
                    tx: tx.clone(),
                });
            }
            Request::Infer(req) => self.admit_infer(req, tx),
        }
    }

    fn admit_infer(&self, req: InferRequest, tx: &ReplyTx) {
        if self.draining.load(Ordering::Relaxed) {
            self.respond_shed(tx, req.id, "server is draining");
            return;
        }
        let Some(meta) = self.model_meta(&req.model) else {
            self.respond_error(tx, req.id, format!("unknown model `{}`", req.model));
            return;
        };
        if req.feature_dim() != meta.feature_dim {
            let cause = format!(
                "model `{}` expects feature dim {}, request has {}",
                req.model,
                meta.feature_dim,
                req.feature_dim()
            );
            self.respond_error(tx, req.id, cause);
            return;
        }
        let now = Instant::now();
        let deadline_ms = req.deadline_ms.unwrap_or(self.config.default_deadline_ms);
        let job = Box::new(InferJob {
            req,
            enqueued: now,
            deadline: now + Duration::from_millis(deadline_ms),
            tx: tx.clone(),
        });
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.config.queue_capacity {
            drop(q);
            self.respond_shed(tx, job.req.id.clone(), "admission queue full");
            return;
        }
        q.push_back(Work::Infer(job));
        drop(q);
        self.stats.inflight.fetch_add(1, Ordering::Relaxed);
        {
            let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
            let now = w.now_us();
            w.record_admitted(now, meta.version);
        }
        self.shared.cv.notify_one();
    }

    fn push_unbounded(&self, work: Work) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(work);
        drop(q);
        self.shared.cv.notify_one();
    }

    fn respond_error(&self, tx: &ReplyTx, id: impl Into<Option<String>>, cause: impl Into<String>) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/error", 1);
        tx.send(Response::error_with(id.into(), cause));
    }

    fn respond_shed(&self, tx: &ReplyTx, id: String, cause: &str) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/shed", 1);
        {
            let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
            let now = w.now_us();
            w.record_shed(now);
        }
        let mut r = Response::new(id, Status::Shed);
        r.error = Some(cause.to_string());
        tx.send(r);
    }

    /// Record an accepted TCP connection (gauge + counter + rate window).
    pub(crate) fn record_conn_open(&self) {
        self.stats.conn_open.fetch_add(1, Ordering::Relaxed);
        self.stats.open_conns.fetch_add(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/conn_open", 1);
        let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
        let now = w.now_us();
        w.record_conn_open(now);
    }

    /// Record a closed TCP connection, any cause.
    pub(crate) fn record_conn_close(&self) {
        self.stats.conn_close.fetch_add(1, Ordering::Relaxed);
        self.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/conn_close", 1);
        let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
        let now = w.now_us();
        w.record_conn_close(now);
    }

    /// Record a connection refused at the `--max-conns` gauge.
    pub(crate) fn record_conn_shed(&self) {
        self.stats.conn_shed.fetch_add(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/conn_shed", 1);
        let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
        let now = w.now_us();
        w.record_conn_shed(now);
    }

    /// Whether a drain has been requested (new connections and inference
    /// are refused; queued work still completes).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// The runtime configuration (transport readers need the line limit).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Drain and join: stop admitting, answer everything queued, shut the
    /// executor down. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::Relaxed);
        let mut executor = self.executor.lock().unwrap_or_else(|e| e.into_inner());
        let Some(handle) = executor.take() else {
            return; // Another caller already joined.
        };
        // A protocol-level drain may already have stopped the executor, in
        // which case this marker goes unanswered — poll the handle too.
        let (tx, rx) = std::sync::mpsc::channel();
        self.push_unbounded(Work::Drain {
            id: String::new(),
            tx: ReplyTx::Channel(tx),
        });
        while rx.recv_timeout(Duration::from_millis(10)).is_err() {
            if handle.is_finished() {
                break;
            }
        }
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct Executor {
    registry: Registry,
    shared: Arc<Shared>,
    stats: Arc<ServeStats>,
    meta: Arc<Mutex<HashMap<String, ModelMeta>>>,
    fault: Arc<FaultInjector>,
    windows: Arc<Mutex<ServeWindows>>,
    config: ServeConfig,
    consecutive_failures: usize,
    breaker_open_remaining: usize,
    last_stats: Instant,
}

impl Executor {
    fn run(mut self) {
        let interval = Duration::from_millis(self.config.stats_interval_ms.max(1));
        loop {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let work = loop {
                if let Some(w) = q.pop_front() {
                    break w;
                }
                // Idle: wake on new work or on the stats tick, whichever
                // comes first, so `serve_stats` flows even from a quiet
                // server.
                let elapsed = self.last_stats.elapsed();
                if elapsed >= interval {
                    drop(q);
                    self.last_stats = Instant::now();
                    self.emit_stats(0);
                    q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                let (guard, _timed_out) = self
                    .shared
                    .cv
                    .wait_timeout(q, interval - elapsed)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            };
            match work {
                Work::Infer(first) => {
                    let mut batch = vec![*first];
                    while batch.len() < self.config.max_batch {
                        match q.front() {
                            Some(Work::Infer(_)) => {
                                let Some(Work::Infer(job)) = q.pop_front() else {
                                    unreachable!()
                                };
                                batch.push(*job);
                            }
                            _ => break,
                        }
                    }
                    let depth = q.len();
                    drop(q);
                    // The assembly stamp: queue wait ends (and batch
                    // assembly begins) for every job in the batch here.
                    let assembled_at = Instant::now();
                    {
                        let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
                        let now = w.now_us();
                        w.record_queue_depth(now, depth);
                    }
                    self.process_batch(batch, assembled_at);
                    // Batch shapes vary from one batch to the next, so the
                    // pool would otherwise keep the high-water set of every
                    // size class: free what this batch did not recycle.
                    tensor::pool::trim_idle();
                }
                Work::Reload {
                    id,
                    model,
                    path,
                    tx,
                } => {
                    drop(q);
                    self.process_reload(id, &model, &path, &tx);
                }
                Work::Drain { id, tx } => {
                    // Everything admitted before the drain marker sits in
                    // front of it and has already been answered; admission
                    // of new inference stopped when the drain flag was
                    // set. Answer the drain and stop.
                    drop(q);
                    self.emit_stats(0);
                    self.emit_summary();
                    tx.send(
                        Response::new(id, Status::Ok)
                            .with_extra("drained", 1.0)
                            .with_extra("served_ok", self.stats.ok.load(Ordering::Relaxed) as f64),
                    );
                    trace::emit_event("serve_drain", &[]);
                    return;
                }
            }
            if self.last_stats.elapsed() >= interval {
                self.last_stats = Instant::now();
                let depth = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .len();
                self.emit_stats(depth);
            }
        }
    }

    /// Record a queue-depth sample and emit one `serve_stats` telemetry
    /// event carrying the full rolling-window snapshot. Observability
    /// only: no control flow depends on anything here.
    fn emit_stats(&self, queue_depth: usize) {
        let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
        let now = w.now_us();
        w.record_queue_depth(now, queue_depth);
        if !trace::enabled() {
            return;
        }
        let uptime = w.uptime_s();
        let rows = w.rows(now);
        drop(w);
        let mut fields: Vec<(&str, trace::Value)> = vec![
            ("uptime_s", uptime.into()),
            ("queue_depth", queue_depth.into()),
            (
                "inflight",
                self.stats.inflight.load(Ordering::Relaxed).into(),
            ),
            (
                "breaker_open",
                self.stats.breaker_open.load(Ordering::Relaxed).into(),
            ),
            (
                "open_conns",
                self.stats.open_conns.load(Ordering::Relaxed).into(),
            ),
        ];
        for (k, v) in &rows {
            fields.push((k.as_str(), (*v).into()));
        }
        trace::emit_event(trace::names::SERVE_STATS, &fields);
    }

    fn process_reload(&mut self, id: String, model: &str, path: &PathBuf, tx: &ReplyTx) {
        match self.registry.reload(model, path) {
            Ok(version) => {
                if let Some(m) = self
                    .meta
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get_mut(model)
                {
                    m.version = version;
                }
                self.stats.reloads.fetch_add(1, Ordering::Relaxed);
                trace::emit_event(
                    trace::names::MODEL_RELOAD,
                    &[
                        ("model", model.into()),
                        ("version", version.into()),
                        ("path", path.display().to_string().into()),
                    ],
                );
                let mut r = Response::new(id, Status::Ok);
                r.model_version = Some(version);
                tx.send(r);
            }
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                trace::metrics::counter_add("serve/error", 1);
                trace::emit_event(
                    "model_reload_failed",
                    &[("model", model.into()), ("error", e.as_str().into())],
                );
                tx.send(Response::error(id, e));
            }
        }
    }

    fn process_batch(&mut self, jobs: Vec<InferJob>, assembled_at: Instant) {
        if let Some(ms) = self.take_slow_stall() {
            std::thread::sleep(Duration::from_millis(ms));
        }
        // Expired deadlines are answered here, freeing their batch slots
        // before the forward runs (the cancellation path).
        let now = Instant::now();
        let (live, expired): (Vec<_>, Vec<_>) = jobs.into_iter().partition(|j| j.deadline >= now);
        for job in expired {
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
            trace::metrics::counter_add("serve/timeout", 1);
            {
                let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
                let ts = w.now_us();
                w.record_timeout(ts);
            }
            let mut r = Response::new(job.req.id.clone(), Status::Timeout);
            r.error = Some("deadline expired before execution".into());
            job.tx.send(r);
        }
        if live.is_empty() {
            return;
        }
        // Group by model, preserving arrival order within each group.
        let mut groups: BTreeMap<String, Vec<InferJob>> = BTreeMap::new();
        for job in live {
            groups.entry(job.req.model.clone()).or_default().push(job);
        }
        for (model, group) in groups {
            self.run_group(&model, group, assembled_at);
        }
    }

    fn take_slow_stall(&self) -> Option<u64> {
        FaultInjector::take(&self.fault.slow_batches)
            .then(|| self.fault.slow_ms.load(Ordering::Relaxed))
    }

    fn run_group(&mut self, model: &str, mut jobs: Vec<InferJob>, assembled_at: Instant) {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        trace::metrics::observe("serve/batch_size", jobs.len() as f64);
        let Some(entry) = self.registry.get_mut(model) else {
            // Unreachable in practice (admission checked), kept as a
            // structured error rather than a panic.
            for job in jobs {
                self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
                job.tx
                    .send(Response::error(job.req.id.clone(), "model disappeared"));
            }
            return;
        };
        if self.breaker_open_remaining > 0 {
            self.breaker_open_remaining -= 1;
            if self.breaker_open_remaining == 0 {
                self.stats.breaker_open.store(false, Ordering::Relaxed);
            }
            let task = entry.spec.task;
            let version = entry.version;
            Self::respond_degraded_all(
                &self.stats,
                &self.windows,
                jobs,
                &task,
                version,
                "circuit breaker open",
            );
            return;
        }
        let (outputs, forward_start, forward_end) =
            Self::forward_with_retries(entry, &mut jobs, &self.config, &self.fault, &self.stats);
        let task = entry.spec.task;
        let version = entry.version;
        let any_degraded = match outputs {
            Some(out) => {
                let mut degraded = false;
                for (i, job) in jobs.into_iter().enumerate() {
                    let row = out.row(i);
                    if row.iter().all(|v| v.is_finite()) {
                        self.stats.ok.fetch_add(1, Ordering::Relaxed);
                        self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
                        trace::metrics::counter_add("serve/ok", 1);
                        let mut r = Response::new(job.req.id.clone(), Status::Ok);
                        r.outputs = Some(postprocess(&task, row));
                        r.model_version = Some(version);
                        // Stage stamps partition admitted → reply-written,
                        // so the reported latency is exactly their sum.
                        let replied = Instant::now();
                        let timing = StageTiming {
                            queue_us: duration_us(job.enqueued, assembled_at),
                            assemble_us: duration_us(assembled_at, forward_start),
                            compute_us: duration_us(forward_start, forward_end),
                            write_us: duration_us(forward_end, replied),
                        };
                        r.latency_us = Some(timing.total_us());
                        if job.req.timing {
                            r.timing = Some(timing);
                        }
                        trace::metrics::observe("serve/latency_ms", timing.total_us() as f64 / 1e3);
                        trace::metrics::observe(
                            "serve/stage_queue_ms",
                            timing.queue_us as f64 / 1e3,
                        );
                        trace::metrics::observe(
                            "serve/stage_assemble_ms",
                            timing.assemble_us as f64 / 1e3,
                        );
                        trace::metrics::observe(
                            "serve/stage_compute_ms",
                            timing.compute_us as f64 / 1e3,
                        );
                        trace::metrics::observe(
                            "serve/stage_write_ms",
                            timing.write_us as f64 / 1e3,
                        );
                        {
                            let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
                            let ts = w.now_us();
                            w.record_ok(ts, &timing);
                        }
                        job.tx.send(r);
                    } else {
                        degraded = true;
                        Self::respond_degraded(
                            &self.stats,
                            &self.windows,
                            &job,
                            &task,
                            version,
                            "non-finite model output",
                        );
                    }
                }
                degraded
            }
            None => {
                Self::respond_degraded_all(
                    &self.stats,
                    &self.windows,
                    jobs,
                    &task,
                    version,
                    "forward pass failed after retries",
                );
                true
            }
        };
        if any_degraded {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.config.breaker_threshold {
                self.breaker_open_remaining = self.config.breaker_cooldown;
                self.consecutive_failures = 0;
                self.stats.breaker_open.store(true, Ordering::Relaxed);
                trace::emit_event(
                    "serve_breaker_open",
                    &[("cooldown_batches", self.config.breaker_cooldown.into())],
                );
            }
        } else {
            self.consecutive_failures = 0;
        }
    }

    /// Run the padded batch forward, retrying with backoff on panic or a
    /// fully non-finite result. Returns the output (`None` when every
    /// attempt failed; rows may still be non-finite — the caller degrades
    /// per row) plus the forward start/end stamps: start is taken after
    /// graph building and padding (so assembly is attributed to the
    /// `assemble` stage), end after the last attempt (retries and backoff
    /// are compute time). The jobs' features move into the graphs; the
    /// retries reuse the graphs, never the jobs.
    fn forward_with_retries(
        entry: &mut ModelEntry,
        jobs: &mut [InferJob],
        config: &ServeConfig,
        fault: &Arc<FaultInjector>,
        stats: &Arc<ServeStats>,
    ) -> (Option<Tensor>, Instant, Instant) {
        let dim = entry.spec.in_dim;
        let mut graphs: Vec<Graph> = jobs
            .iter_mut()
            .map(|job| {
                let n = job.req.num_nodes;
                let features = Tensor::from_vec(std::mem::take(&mut job.req.features), [n, dim]);
                let mut g = Graph::new(n, features, Label::Class(0));
                for &(s, d) in &job.req.edges {
                    g.add_directed_edge(s as usize, d as usize);
                }
                g
            })
            .collect();
        // Pad to the next power of two with single-node dummy graphs so
        // the kernel shapes the worker pool sees are drawn from a small
        // set. Per-graph outputs are batch-composition-invariant, so the
        // padding rows are simply dropped.
        let padded = graphs.len().next_power_of_two();
        while graphs.len() < padded {
            graphs.push(Graph::new(1, Tensor::zeros([1, dim]), Label::Class(0)));
        }
        let forward_start = Instant::now();
        let mut attempt = 0;
        loop {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let refs: Vec<&Graph> = graphs.iter().collect();
                let batch = GraphBatch::from_graphs(&refs);
                let mut tape = Tape::new();
                let mut rng = Rng::seed_from(0);
                let out = entry.model.predict(&mut tape, &batch, Mode::Eval, &mut rng);
                tape.value(out).clone()
            }));
            // A panic can leave parameters bound to a dead tape; clear
            // unconditionally so the next attempt starts clean.
            for p in entry.model.params_mut() {
                p.clear_binding();
            }
            let mut out = result.ok();
            if let Some(t) = out.as_mut() {
                if FaultInjector::take(&fault.nan_batches) {
                    *t = Tensor::from_vec(vec![f32::NAN; t.data().len()], t.shape().clone());
                }
            }
            let usable = out
                .as_ref()
                .is_some_and(|t| (0..jobs.len()).any(|i| t.row(i).iter().all(|v| v.is_finite())));
            if usable || attempt >= config.max_retries {
                let out =
                    out.filter(|t| (0..jobs.len()).any(|i| t.row(i).iter().all(|v| v.is_finite())));
                return (out, forward_start, Instant::now());
            }
            attempt += 1;
            stats.retries.fetch_add(1, Ordering::Relaxed);
            trace::metrics::counter_add("serve/retries", 1);
            std::thread::sleep(Duration::from_millis(
                config.retry_backoff_ms << (attempt - 1).min(6),
            ));
        }
    }

    fn respond_degraded(
        stats: &ServeStats,
        windows: &Mutex<ServeWindows>,
        job: &InferJob,
        task: &TaskType,
        version: u64,
        cause: &str,
    ) {
        stats.degraded.fetch_add(1, Ordering::Relaxed);
        stats.inflight.fetch_sub(1, Ordering::Relaxed);
        trace::metrics::counter_add("serve/degraded", 1);
        {
            let mut w = windows.lock().unwrap_or_else(|e| e.into_inner());
            let ts = w.now_us();
            w.record_degraded(ts);
        }
        let mut r = Response::new(job.req.id.clone(), Status::Degraded);
        r.outputs = Some(uniform_fallback(task));
        r.error = Some(cause.to_string());
        r.model_version = Some(version);
        r.latency_us = Some(job.enqueued.elapsed().as_micros() as u64);
        job.tx.send(r);
    }

    fn respond_degraded_all(
        stats: &ServeStats,
        windows: &Mutex<ServeWindows>,
        jobs: Vec<InferJob>,
        task: &TaskType,
        version: u64,
        cause: &str,
    ) {
        for job in jobs {
            Self::respond_degraded(stats, windows, &job, task, version, cause);
        }
    }

    fn emit_summary(&self) {
        if !trace::enabled() {
            return;
        }
        let mut fields: Vec<(&str, trace::Value)> = Vec::new();
        let snapshot = self.stats.snapshot();
        for (k, v) in &snapshot {
            fields.push((k, (*v).into()));
        }
        trace::emit_event(trace::names::SERVE_SUMMARY, &fields);
        trace::metrics::flush();
    }
}

/// Microseconds from `from` to `to`, saturating to zero when the stamps
/// are out of order (sub-microsecond scheduling noise).
fn duration_us(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// Map raw head outputs to the wire payload: softmax probabilities for
/// multi-class, per-task sigmoids for binary, raw values for regression.
/// Sequential scalar arithmetic — bitwise-deterministic by construction.
fn postprocess(task: &TaskType, row: &[f32]) -> Vec<f32> {
    match task {
        TaskType::MultiClass { .. } => {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            exps.iter().map(|&e| e / sum).collect()
        }
        TaskType::BinaryClassification { .. } => {
            row.iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect()
        }
        TaskType::Regression { .. } => row.to_vec(),
    }
}

/// The degraded-response payload: the trainer's `fallback_uniform` idiom
/// applied to serving — maximum-entropy predictions instead of garbage.
fn uniform_fallback(task: &TaskType) -> Vec<f32> {
    match task {
        TaskType::MultiClass { classes } => vec![1.0 / *classes as f32; *classes],
        TaskType::BinaryClassification { tasks } => vec![0.5; *tasks],
        TaskType::Regression { targets } => vec![0.0; *targets],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postprocess_normalizes_multiclass() {
        let p = postprocess(&TaskType::MultiClass { classes: 3 }, &[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        let s = postprocess(&TaskType::BinaryClassification { tasks: 2 }, &[0.0, 100.0]);
        assert!((s[0] - 0.5).abs() < 1e-6 && s[1] > 0.99);
        let r = postprocess(&TaskType::Regression { targets: 2 }, &[1.5, -2.5]);
        assert_eq!(r, vec![1.5, -2.5]);
    }

    #[test]
    fn uniform_fallback_matches_task_shape() {
        assert_eq!(
            uniform_fallback(&TaskType::MultiClass { classes: 4 }),
            vec![0.25; 4]
        );
        assert_eq!(
            uniform_fallback(&TaskType::BinaryClassification { tasks: 3 }),
            vec![0.5; 3]
        );
        assert_eq!(
            uniform_fallback(&TaskType::Regression { targets: 1 }),
            vec![0.0]
        );
    }

    #[test]
    fn fault_injector_counts_down() {
        let f = FaultInjector::default();
        assert!(!FaultInjector::take(&f.nan_batches));
        f.inject_nan_batches(2);
        assert!(FaultInjector::take(&f.nan_batches));
        assert!(FaultInjector::take(&f.nan_batches));
        assert!(!FaultInjector::take(&f.nan_batches));
    }
}
