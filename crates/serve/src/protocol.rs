//! The JSONL wire protocol: one request object per line in, one response
//! object per line out.
//!
//! Requests (`op` selects the operation):
//!
//! * `infer` — `{"op":"infer","id":"r1","model":"default","nodes":N,
//!   "edges":[[s,d],…],"features":[f,…],"deadline_ms":250,"timing":true}`.
//!   Edges are **directed** pairs (send both orientations for an
//!   undirected graph); `features` is the row-major `[N, feature_dim]`
//!   node-feature matrix. With `"timing":true` the `ok` response carries a
//!   per-stage latency breakdown (see [`StageTiming`]).
//! * `health` / `ready` / `stats` — liveness, readiness and introspection
//!   probes, answered at admission **ahead of the batch queue** so they
//!   work even when the data path is saturated. `health` reports a
//!   `state` of `ok`/`degraded`/`draining`; `stats` returns a snapshot of
//!   uptime, queue depth, in-flight count, rolling-window rates and
//!   per-stage quantiles, per-version request counts and breaker state.
//! * `reload` — `{"op":"reload","model":"default","path":"…"}` swaps the
//!   named registry entry to a new checkpoint, in queue order, without
//!   dropping in-flight requests.
//! * `drain` — stop admitting inference, finish everything already queued,
//!   then shut the executor down.
//!
//! Responses carry `status` ∈ {`ok`, `error`, `shed`, `timeout`,
//! `degraded`} (see the failure-modes table in `EXPERIMENTS.md`). Every
//! malformed line yields a structured `error` response — never a dead
//! server.

use trace::json::{parse_object_bytes, Json, NotF32Array, NotU32Pairs, ObjectReader};

/// Hard bounds enforced before a request is admitted.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum accepted request line length in bytes.
    pub max_line_bytes: usize,
    /// Maximum nodes per graph.
    pub max_nodes: usize,
    /// Maximum directed edges per graph.
    pub max_edges: usize,
    /// Maximum node-feature dimension.
    pub max_feature_dim: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_line_bytes: 1 << 20,
            max_nodes: 4096,
            max_edges: 1 << 16,
            max_feature_dim: 1024,
        }
    }
}

impl Limits {
    /// Total array-element budget implied by the per-field bounds.
    pub fn element_budget(&self) -> usize {
        // edges (pairs count once each + two endpoints each) + features.
        self.max_edges * 3 + self.max_nodes * self.max_feature_dim
    }
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// Registry entry to run against.
    pub model: String,
    /// Number of nodes in the graph.
    pub num_nodes: usize,
    /// Directed edges as `(src, dst)` node indices.
    pub edges: Vec<(u32, u32)>,
    /// Row-major `[num_nodes, feature_dim]` node features.
    pub features: Vec<f32>,
    /// Per-request deadline; the server default applies when absent.
    pub deadline_ms: Option<u64>,
    /// When true the response carries a per-stage `timing` object.
    /// Observability-only: it never changes scheduling or outputs.
    pub timing: bool,
}

impl InferRequest {
    /// Feature dimension implied by the payload (`features.len() / nodes`).
    pub fn feature_dim(&self) -> usize {
        self.features.len() / self.num_nodes.max(1)
    }
}

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run one graph through a registered model.
    Infer(InferRequest),
    /// Liveness probe.
    Health {
        /// Correlation id.
        id: String,
    },
    /// Readiness probe (models loaded, not draining).
    Ready {
        /// Correlation id.
        id: String,
    },
    /// Counter snapshot.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// Swap a registry entry to a new checkpoint file.
    Reload {
        /// Correlation id.
        id: String,
        /// Registry entry to swap.
        model: String,
        /// Checkpoint file to load.
        path: String,
    },
    /// Graceful shutdown: finish queued work, stop admitting.
    Drain {
        /// Correlation id.
        id: String,
    },
}

/// Extract the `id` field from a line on a best-effort basis, so error
/// responses to malformed requests still correlate when possible. A line
/// within the length limit is parsed under the limits' element budget;
/// when that fails, and always for a line over the limit, a raw textual
/// scan for `"id":` is the fallback (the whole point: the request is
/// malformed). Returns `None` when no id can be recovered — the reply then
/// omits the `id` field entirely, so a client can always distinguish "the
/// server could not correlate this" from a request that genuinely sent
/// `"id":""`.
pub fn best_effort_id(line: &str, limits: &Limits) -> Option<String> {
    if line.len() <= limits.max_line_bytes {
        if let Ok(pairs) = parse_object_bytes(line.as_bytes(), limits.element_budget()) {
            for (k, v) in pairs {
                if k == "id" {
                    if let Some(s) = v.as_str() {
                        return Some(s.to_string());
                    }
                }
            }
            return None;
        }
    }
    let start = line.find("\"id\":")?;
    let rest = line[start + 5..].trim_start();
    let rest = rest.strip_prefix('"')?;
    // Take up to the closing quote; give up on escapes (they're rare in
    // correlation ids and a wrong guess is worse than none).
    match rest.find(['"', '\\']) {
        Some(end) if rest.as_bytes().get(end) == Some(&b'"') => Some(rest[..end].to_string()),
        _ => None,
    }
}

/// Parse and validate one request line against the limits. Every rejection
/// is a client error message suitable for a structured `error` response.
///
/// The object is read in one pass: `features` and `edges` are decoded
/// straight into their typed buffers, every other value through [`Json`].
/// A syntax error anywhere outranks a field error, so field errors wait
/// for the closing brace and the first one in key order is reported.
pub fn parse_request(line: &str, limits: &Limits) -> Result<Request, String> {
    if line.len() > limits.max_line_bytes {
        return Err(format!(
            "request line is {} bytes (limit {})",
            line.len(),
            limits.max_line_bytes
        ));
    }
    let mut obj = ObjectReader::new(line.trim().as_bytes(), limits.element_budget())?;
    let mut op = None;
    let mut id = String::new();
    let mut model = "default".to_string();
    let mut path = None;
    let mut num_nodes = None;
    let mut edges = None;
    let mut features = None;
    let mut deadline_ms = None;
    let mut timing = false;
    let mut field_error = None;
    while let Some(key) = obj.next_key()? {
        let field = match key.as_str() {
            "op" => string(obj.value()?, "op").map(|s| op = Some(s)),
            "id" => string(obj.value()?, "id").map(|s| id = s),
            "model" => string(obj.value()?, "model").map(|s| model = s),
            "path" => string(obj.value()?, "path").map(|s| path = Some(s)),
            "nodes" => obj
                .value()?
                .as_uint()
                .map(|n| num_nodes = Some(n as usize))
                .ok_or_else(|| "`nodes` must be a non-negative integer".into()),
            "edges" => obj
                .u32_pairs(limits.max_edges)?
                .map(|e| edges = Some(e))
                .map_err(|e| match e {
                    NotU32Pairs::NotArray => "`edges` must be an array of pairs".into(),
                    NotU32Pairs::TooMany(n) => {
                        format!("graph has {n} edges (limit {})", limits.max_edges)
                    }
                    NotU32Pairs::NotPair => "each edge must be a [src,dst] pair".into(),
                    NotU32Pairs::NotInteger => "edge endpoints must be integers".into(),
                    NotU32Pairs::OutOfRange => "edge endpoint out of range".into(),
                }),
            "features" => obj
                .f32_array()?
                .map(|f| features = Some(f))
                .map_err(|e| match e {
                    NotF32Array::NotArray => "`features` must be a number array".into(),
                    NotF32Array::NotNumber => "`features` must contain only numbers".into(),
                    NotF32Array::NotFinite => "`features` must be finite".into(),
                }),
            "deadline_ms" => obj
                .value()?
                .as_uint()
                .map(|d| deadline_ms = Some(d))
                .ok_or_else(|| "`deadline_ms` must be an integer".into()),
            "timing" => obj
                .value()?
                .as_bool()
                .map(|t| timing = t)
                .ok_or_else(|| "`timing` must be a boolean".into()),
            other => {
                obj.value()?;
                Err(format!("unknown field `{other}`"))
            }
        };
        if let Err(e) = field {
            field_error.get_or_insert(e);
        }
    }
    if let Some(e) = field_error {
        return Err(e);
    }
    let op = op.ok_or("missing `op` field")?;
    match op.as_str() {
        "infer" => {
            let num_nodes = num_nodes.ok_or("infer requires `nodes`")?;
            if num_nodes == 0 {
                return Err("graph must have at least one node".into());
            }
            if num_nodes > limits.max_nodes {
                return Err(format!(
                    "graph has {num_nodes} nodes (limit {})",
                    limits.max_nodes
                ));
            }
            let edges = edges.unwrap_or_default();
            for &(s, d) in &edges {
                if s as usize >= num_nodes || d as usize >= num_nodes {
                    return Err(format!("edge ({s},{d}) out of range for {num_nodes} nodes"));
                }
            }
            let features = features.ok_or("infer requires `features`")?;
            if features.is_empty() || features.len() % num_nodes != 0 {
                return Err(format!(
                    "features length {} is not a multiple of {num_nodes} nodes",
                    features.len()
                ));
            }
            let dim = features.len() / num_nodes;
            if dim > limits.max_feature_dim {
                return Err(format!(
                    "feature dim {dim} exceeds limit {}",
                    limits.max_feature_dim
                ));
            }
            Ok(Request::Infer(InferRequest {
                id,
                model,
                num_nodes,
                edges,
                features,
                deadline_ms,
                timing,
            }))
        }
        "health" => Ok(Request::Health { id }),
        "ready" => Ok(Request::Ready { id }),
        "stats" => Ok(Request::Stats { id }),
        "reload" => Ok(Request::Reload {
            id,
            model,
            path: path.ok_or("reload requires `path`")?,
        }),
        "drain" => Ok(Request::Drain { id }),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn string(value: Json, key: &str) -> Result<String, String> {
    match value {
        Json::Str(s) => Ok(s),
        _ => Err(format!("`{key}` must be a string")),
    }
}

/// Response status, mirrored by the failure-modes table in the docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request was served normally.
    Ok,
    /// The request was rejected (malformed, unknown model, bad shape).
    Error,
    /// The admission queue was full (backpressure): retry later.
    Shed,
    /// The deadline expired before the batch ran; the slot was freed.
    Timeout,
    /// The forward pass failed after retries; the payload is the uniform
    /// fallback distribution (circuit-breaker path).
    Degraded,
}

impl Status {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Shed => "shed",
            Status::Timeout => "timeout",
            Status::Degraded => "degraded",
        }
    }
}

/// Per-stage latency breakdown for one served request, in microseconds.
/// The four stages partition the admitted→reply-written interval, so
/// their sum equals the end-to-end latency by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Admitted → popped by the executor (queue wait).
    pub queue_us: u64,
    /// Popped → forward start (batch coalescing + padding + setup).
    pub assemble_us: u64,
    /// Forward pass (model compute, including retries).
    pub compute_us: u64,
    /// Forward end → response constructed (postprocess + writeback).
    pub write_us: u64,
}

impl StageTiming {
    /// Sum of the four stages — the end-to-end latency.
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.assemble_us + self.compute_us + self.write_us
    }
}

/// One response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// Correlation id copied from the request. `None` when the request was
    /// too malformed to recover one; the serialized line then omits the
    /// `id` field entirely.
    pub id: Option<String>,
    /// Outcome.
    pub status: Status,
    /// Model outputs (class probabilities / per-task sigmoids / raw
    /// regression values) for `ok` and `degraded` responses.
    pub outputs: Option<Vec<f32>>,
    /// Human-readable cause for non-`ok` responses.
    pub error: Option<String>,
    /// Registry version that produced the outputs.
    pub model_version: Option<u64>,
    /// Queue-to-reply latency in microseconds.
    pub latency_us: Option<u64>,
    /// Per-stage breakdown, present when the request asked for `timing`.
    pub timing: Option<StageTiming>,
    /// Server state string (`health` responses: ok/degraded/draining).
    pub state: Option<String>,
    /// Extra numeric fields (probe and stats payloads).
    pub extra: Vec<(String, f64)>,
}

impl Response {
    /// A bare response with the given id and status.
    pub fn new(id: impl Into<String>, status: Status) -> Self {
        Response {
            id: Some(id.into()),
            status,
            outputs: None,
            error: None,
            model_version: None,
            latency_us: None,
            timing: None,
            state: None,
            extra: Vec::new(),
        }
    }

    /// A response for a request whose id could not be recovered; the
    /// serialized line omits the `id` field.
    pub fn unidentified(status: Status) -> Self {
        let mut r = Response::new("", status);
        r.id = None;
        r
    }

    /// An `error` response with a cause.
    pub fn error(id: impl Into<String>, cause: impl Into<String>) -> Self {
        let mut r = Response::new(id, Status::Error);
        r.error = Some(cause.into());
        r
    }

    /// An `error` response with a best-effort id: present when one was
    /// recovered, omitted otherwise.
    pub fn error_with(id: Option<String>, cause: impl Into<String>) -> Self {
        let mut r = match id {
            Some(id) => Response::new(id, Status::Error),
            None => Response::unidentified(Status::Error),
        };
        r.error = Some(cause.into());
        r
    }

    /// Builder-style extra numeric field.
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extra.push((key.to_string(), value));
        self
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        if let Some(id) = &self.id {
            out.push_str("\"id\":");
            trace::json::write_str(&mut out, id);
            out.push(',');
        }
        out.push_str("\"status\":");
        trace::json::write_str(&mut out, self.status.as_str());
        if let Some(v) = self.model_version {
            out.push_str(&format!(",\"model_version\":{v}"));
        }
        if let Some(us) = self.latency_us {
            out.push_str(&format!(",\"latency_us\":{us}"));
        }
        if let Some(t) = &self.timing {
            out.push_str(&format!(
                ",\"timing\":{{\"queue_us\":{},\"assemble_us\":{},\"compute_us\":{},\"write_us\":{},\"total_us\":{}}}",
                t.queue_us, t.assemble_us, t.compute_us, t.write_us, t.total_us()
            ));
        }
        if let Some(s) = &self.state {
            out.push_str(",\"state\":");
            trace::json::write_str(&mut out, s);
        }
        if let Some(e) = &self.error {
            out.push_str(",\"error\":");
            trace::json::write_str(&mut out, e);
        }
        if let Some(outputs) = &self.outputs {
            out.push_str(",\"outputs\":[");
            for (i, v) in outputs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                trace::json::write_value(&mut out, &trace::Value::Float(*v as f64));
            }
            out.push(']');
        }
        for (k, v) in &self.extra {
            out.push(',');
            trace::json::write_str(&mut out, k);
            out.push(':');
            trace::json::write_value(&mut out, &trace::Value::Float(*v));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer_line() -> String {
        r#"{"op":"infer","id":"r1","nodes":3,"edges":[[0,1],[1,0]],"features":[1,2,3,4,5,6]}"#
            .to_string()
    }

    #[test]
    fn parses_a_well_formed_infer() {
        let req = parse_request(&infer_line(), &Limits::default()).unwrap();
        let Request::Infer(req) = req else {
            panic!("not infer")
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.model, "default");
        assert_eq!(req.num_nodes, 3);
        assert_eq!(req.edges, vec![(0, 1), (1, 0)]);
        assert_eq!(req.feature_dim(), 2);
        assert_eq!(req.deadline_ms, None);
        assert!(!req.timing);
    }

    #[test]
    fn timing_flag_parses_and_must_be_boolean() {
        let line = r#"{"op":"infer","id":"r1","nodes":1,"features":[1],"timing":true}"#;
        let Request::Infer(req) = parse_request(line, &Limits::default()).unwrap() else {
            panic!("not infer")
        };
        assert!(req.timing);
        let bad = r#"{"op":"infer","id":"r1","nodes":1,"features":[1],"timing":1}"#;
        let err = parse_request(bad, &Limits::default()).unwrap_err();
        assert!(err.contains("boolean"), "{err}");
    }

    #[test]
    fn stage_timing_serializes_with_exact_total() {
        let t = StageTiming {
            queue_us: 10,
            assemble_us: 2,
            compute_us: 30,
            write_us: 3,
        };
        assert_eq!(t.total_us(), 45);
        let mut r = Response::new("r1", Status::Ok);
        r.latency_us = Some(t.total_us());
        r.timing = Some(t);
        let line = r.to_json();
        assert!(
            line.contains(
                "\"timing\":{\"queue_us\":10,\"assemble_us\":2,\"compute_us\":30,\"write_us\":3,\"total_us\":45}"
            ),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn state_serializes_on_health_responses() {
        let mut r = Response::new("h1", Status::Ok);
        r.state = Some("degraded".into());
        assert!(r.to_json().contains("\"state\":\"degraded\""));
    }

    #[test]
    fn rejects_protocol_violations_with_messages() {
        let limits = Limits::default();
        let cases: Vec<(String, &str)> = vec![
            (r#"{"op":"infer","nodes":0,"features":[]}"#.into(), "node"),
            (
                r#"{"op":"infer","nodes":2,"features":[1,2,3]}"#.into(),
                "multiple",
            ),
            (
                r#"{"op":"infer","nodes":2,"edges":[[0,5]],"features":[1,2]}"#.into(),
                "out of range",
            ),
            (
                r#"{"op":"infer","nodes":1,"features":[1],"wat":1}"#.into(),
                "unknown field",
            ),
            (r#"{"op":"resolve"}"#.into(), "unknown op"),
            (r#"{"id":"x"}"#.into(), "missing `op`"),
            (r#"{"op":"reload"}"#.into(), "path"),
            (
                r#"{"op":"infer","nodes":1,"features":[1,"a"]}"#.into(),
                "numbers",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(&line, &limits).unwrap_err();
            assert!(err.contains(needle), "`{line}` -> `{err}`");
        }
    }

    fn infer(body: &str, limits: &Limits) -> Result<InferRequest, String> {
        match parse_request(&format!(r#"{{"op":"infer","id":"p",{body}}}"#), limits)? {
            Request::Infer(req) => Ok(req),
            other => panic!("not infer: {other:?}"),
        }
    }

    #[test]
    fn typed_decode_keeps_values_and_bits() {
        let limits = Limits::default();
        // `-0` keeps its sign bit in features.
        let req = infer(r#""nodes":1,"features":[-0,0,-0.0]"#, &limits).unwrap();
        let bits: Vec<u32> = req.features.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits, [0x8000_0000, 0, 0x8000_0000]);
        // Integral endpoints in any spelling are accepted, as before.
        let req = infer(
            r#""nodes":3,"edges":[[1e0,2.0],[-0,0002]],"features":[1,2,3]"#,
            &limits,
        )
        .unwrap();
        assert_eq!(req.edges, vec![(1, 2), (0, 2)]);
        // Duplicate keys: the last one wins.
        let req = infer(r#""nodes":2,"nodes":1,"features":[1,2]"#, &limits).unwrap();
        assert_eq!((req.num_nodes, req.feature_dim()), (1, 2));
        // `model` and `deadline_ms`.
        let req = infer(
            r#""model":"m2","deadline_ms":250,"nodes":1,"features":[1]"#,
            &limits,
        )
        .unwrap();
        assert_eq!((req.model.as_str(), req.deadline_ms), ("m2", Some(250)));
    }

    #[test]
    fn typed_decode_keeps_error_messages_and_precedence() {
        let limits = Limits::default();
        let feature_cases = [
            ("[3.5e38]", "`features` must be finite"),
            ("[1e999]", "non-finite number `1e999`"),
            ("[1,[2]]", "`features` must contain only numbers"),
            ("\"x\"", "`features` must be a number array"),
            // The first offending element decides.
            ("[3.5e38,\"a\"]", "`features` must be finite"),
        ];
        for (features, want) in feature_cases {
            let body = format!(r#""nodes":1,"features":{features}"#);
            assert_eq!(infer(&body, &limits).unwrap_err(), want, "{body}");
        }
        let two_edges = Limits {
            max_edges: 2,
            ..Limits::default()
        };
        let edge_cases = [
            ("[[0,1,1]]", "each edge must be a [src,dst] pair"),
            ("[[0,\"1\"]]", "edge endpoints must be integers"),
            ("[[4294967296,1]]", "edge endpoint out of range"),
            ("[[1e20,4294967296]]", "edge endpoints must be integers"),
            // Too many edges outranks a bad pair.
            ("[[0,0],[0],[0,0]]", "graph has 3 edges (limit 2)"),
        ];
        for (edges, want) in edge_cases {
            let body = format!(r#""nodes":2,"edges":{edges},"features":[1,2]"#);
            assert_eq!(infer(&body, &two_edges).unwrap_err(), want, "{body}");
        }
        // The element budget (2·3 + 1·1 = 7 here) runs out inside `edges`.
        let tight = Limits {
            max_nodes: 1,
            max_edges: 2,
            max_feature_dim: 1,
            ..Limits::default()
        };
        let body = r#""nodes":1,"edges":[[0,0],[0,0],[0,0]],"features":[1]"#;
        let err = infer(body, &tight).unwrap_err();
        assert_eq!(err, "request exceeds the array element limit");
        // A field error followed by a later syntax error reports the
        // syntax error; of two field errors, the first in key order.
        let order_cases = [
            (r#""nodes":"x","features":[1,]"#, "malformed number ``"),
            (
                r#""nodes":"x","features":"y""#,
                "`nodes` must be a non-negative integer",
            ),
            (
                r#""model":3,"deadline_ms":2.5,"features":[1]"#,
                "`model` must be a string",
            ),
            (
                r#""deadline_ms":2.5,"features":[1]"#,
                "`deadline_ms` must be an integer",
            ),
        ];
        for (body, want) in order_cases {
            assert_eq!(infer(body, &limits).unwrap_err(), want, "{body}");
        }
    }

    #[test]
    fn oversized_lines_are_rejected_before_parsing() {
        let limits = Limits {
            max_line_bytes: 64,
            ..Limits::default()
        };
        let line = format!(
            r#"{{"op":"infer","nodes":1,"features":[{}]}}"#,
            vec!["1"; 64].join(",")
        );
        let err = parse_request(&line, &limits).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
    }

    #[test]
    fn node_and_edge_limits_apply() {
        let limits = Limits {
            max_nodes: 4,
            max_edges: 2,
            ..Limits::default()
        };
        let err = parse_request(
            r#"{"op":"infer","nodes":5,"features":[1,2,3,4,5]}"#,
            &limits,
        )
        .unwrap_err();
        assert!(err.contains("nodes"), "{err}");
        let err = parse_request(
            r#"{"op":"infer","nodes":2,"edges":[[0,1],[1,0],[0,0]],"features":[1,2]}"#,
            &limits,
        )
        .unwrap_err();
        assert!(err.contains("edges"), "{err}");
    }

    #[test]
    fn best_effort_id_recovers_when_possible() {
        let limits = Limits::default();
        assert_eq!(
            best_effort_id(r#"{"id":"abc","op":"nope"}"#, &limits).as_deref(),
            Some("abc")
        );
        assert_eq!(best_effort_id(r#"{"id":"#, &limits), None);
        assert_eq!(best_effort_id("not json at all", &limits), None);
        // A parseable line without an id recovers nothing.
        assert_eq!(best_effort_id(r#"{"op":"nope"}"#, &limits), None);
        // An id the client really sent — even empty — is preserved.
        assert_eq!(
            best_effort_id(r#"{"id":"","op":"nope"}"#, &limits).as_deref(),
            Some("")
        );
        // Textual scan on an unparseable tail still finds the id.
        assert_eq!(
            best_effort_id(r#"{"id":"x7",   "op": <garbage"#, &limits).as_deref(),
            Some("x7")
        );
        // Over the length limit only the textual scan runs: it finds a
        // plain id but not one the parser would have unescaped.
        let tight = Limits {
            max_line_bytes: 8,
            ..Limits::default()
        };
        assert_eq!(
            best_effort_id(r#"{"id":"p","op":"nope"}"#, &tight).as_deref(),
            Some("p")
        );
        let escaped = r#"{"id":"a\nb","op":"nope"}"#;
        assert_eq!(best_effort_id(escaped, &limits).as_deref(), Some("a\nb"));
        assert_eq!(best_effort_id(escaped, &tight), None);
    }

    #[test]
    fn unidentified_responses_omit_the_id_field() {
        let r = Response::error_with(None, "unparseable");
        let line = r.to_json();
        assert!(!line.contains("\"id\""), "{line}");
        assert!(line.starts_with("{\"status\":\"error\""), "{line}");
        let r = Response::error_with(Some(String::new()), "bad op");
        assert!(r.to_json().starts_with("{\"id\":\"\",\"status\":\"error\""));
    }

    #[test]
    fn response_serializes_one_line() {
        let mut r = Response::new("r1", Status::Ok);
        r.outputs = Some(vec![0.25, 0.75]);
        r.model_version = Some(2);
        r.latency_us = Some(1234);
        let line = r.to_json();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert!(line.contains("\"outputs\":[0.25,0.75]"), "{line}");
        assert!(line.contains("\"model_version\":2"), "{line}");
        assert!(!line.contains('\n'));
        let shed = Response::error("x", "queue full");
        assert!(shed.to_json().contains("queue full"));
    }
}
