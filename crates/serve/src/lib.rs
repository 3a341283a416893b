//! Fault-tolerant batched inference serving for OOD-GNN checkpoints.
//!
//! `oodgnn-serve` turns a [`TrainCheckpoint`](oodgnn_core::TrainCheckpoint)
//! into a long-running graph-classification service speaking a line-delimited
//! JSON protocol (one request object per line, one response object per line).
//! The runtime is built for hostile conditions rather than raw throughput:
//!
//! - **Bounded admission** — a fixed-capacity queue; overflow is answered
//!   immediately with a `shed` response instead of growing without bound.
//! - **Deadlines** — every request carries (or inherits) a deadline; requests
//!   that expire while queued get a `timeout` response and their batch slot
//!   is freed before the forward pass runs.
//! - **Degraded fallback** — a forward pass that panics or emits non-finite
//!   rows is retried with backoff, then falls back to uniform-probability
//!   `degraded` responses; repeated failures open a circuit breaker.
//! - **Hot reload** — checkpoints are swapped atomically through the request
//!   queue, so in-flight work is never dropped and a corrupt file leaves the
//!   previous version serving.
//! - **Graceful drain** — a `drain` request (or EOF on stdin, or SIGTERM
//!   in `--listen` mode) answers everything already admitted, then shuts
//!   down.
//! - **TCP transport** — `--listen host:port` serves many concurrent
//!   clients over one executor ([`transport`]): bounded connection count,
//!   per-connection bounded reply queues (slow clients only stall
//!   themselves), idle timeouts, and half-closed/mid-line disconnect
//!   handling that never panics the executor.
//! - **Live observability** — per-request stage tracing (queue / assemble
//!   / compute / write, optional `timing` object on the wire), rolling-
//!   window quantiles and rates ([`stats`]), admin `stats`/`health`
//!   probes answered ahead of the batch queue, and a periodic
//!   `serve_stats` telemetry event for dashboards (`serve_top`).
//!
//! Batching is safe because per-graph outputs are bitwise-independent of
//! batch composition (eval-mode batch norm uses running statistics and all
//! readouts reduce per-segment in node order), and all kernels run on the
//! deterministic worker pool — responses are bitwise-identical at any
//! `OOD_THREADS` setting.

pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;
pub mod transport;

pub use protocol::{
    best_effort_id, parse_request, InferRequest, Limits, Request, Response, StageTiming, Status,
};
pub use registry::{restore_into, ModelEntry, ModelSpec, Registry};
pub use server::{FaultInjector, ModelMeta, ReplyTx, ServeConfig, ServeStats, Server};
pub use stats::{ServeWindows, STAGE_NAMES};
pub use transport::{Transport, TransportConfig};
