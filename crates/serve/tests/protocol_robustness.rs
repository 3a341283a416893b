//! Malformed-input drills against a live server: every hostile line must
//! yield a structured `error` response — never a dead server, and never a
//! changed answer for the well-formed requests sharing the wire with it.

use oodgnn_core::TrainCheckpoint;
use oodgnn_serve::{ModelSpec, Response, ServeConfig, Server, Status};
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::Duration;

static GLOBAL: Mutex<()> = Mutex::new(());

const IN_DIM: usize = 4;

fn spec() -> ModelSpec {
    ModelSpec::new(
        "gin",
        IN_DIM,
        8,
        2,
        graph::TaskType::MultiClass { classes: 3 },
    )
}

fn start_server(tag: &str) -> (Server, PathBuf) {
    let dir = std::env::temp_dir().join(format!("serve_proto_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("m.oods");
    TrainCheckpoint::from_model(&mut spec().build().unwrap())
        .save(&ck)
        .unwrap();
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();
    (server, dir)
}

fn ask(server: &Server, line: &str) -> Response {
    let (tx, rx) = channel();
    server.submit_line(line, &tx);
    rx.recv_timeout(Duration::from_secs(30)).expect("response")
}

fn good_line(id: &str) -> String {
    format!(
        "{{\"op\":\"infer\",\"id\":\"{id}\",\"nodes\":3,\"edges\":[[0,1],[1,0],[1,2],[2,1]],\
         \"features\":[1,2,3,4,0.5,1.5,2.5,3.5,-1,-2,-3,-4]}}"
    )
}

/// Every class of malformed input the issue names, plus a few extras.
/// `(line, expected substring of the error)`.
fn malformed_cases() -> Vec<(String, &'static str)> {
    vec![
        // Truncated JSON.
        (r#"{"op":"infer","id":"m0","nodes":3"#.into(), ""),
        // Not JSON at all.
        ("GET / HTTP/1.1".into(), ""),
        // Unknown field.
        (
            r#"{"op":"infer","id":"m1","nodes":1,"features":[1,2,3,4],"priority":9}"#.into(),
            "unknown field",
        ),
        // Zero-node graph.
        (
            r#"{"op":"infer","id":"m2","nodes":0,"features":[]}"#.into(),
            "at least one node",
        ),
        // Feature count not divisible by nodes.
        (
            r#"{"op":"infer","id":"m3","nodes":3,"features":[1,2,3,4]}"#.into(),
            "multiple",
        ),
        // Parseable but wrong feature dim for the model (admission check).
        (
            r#"{"op":"infer","id":"m4","nodes":2,"features":[1,2,3,4]}"#.into(),
            "feature dim",
        ),
        // Edge endpoint out of range.
        (
            r#"{"op":"infer","id":"m5","nodes":2,"edges":[[0,7]],"features":[1,2,3,4,5,6,7,8]}"#
                .into(),
            "out of range",
        ),
        // Unknown model name.
        (
            r#"{"op":"infer","id":"m6","model":"nope","nodes":1,"features":[1,2,3,4]}"#.into(),
            "unknown model",
        ),
        // Unknown op.
        (r#"{"op":"explode","id":"m7"}"#.into(), "unknown op"),
        // Nested objects are outside the protocol.
        (
            r#"{"op":"infer","id":"m8","nodes":1,"features":{"a":1}}"#.into(),
            "",
        ),
        // NaN features can't even be expressed: non-finite literals fail.
        (
            r#"{"op":"infer","id":"m9","nodes":1,"features":[1e999,2,3,4]}"#.into(),
            "",
        ),
    ]
}

#[test]
fn every_malformed_line_gets_a_structured_error() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (server, dir) = start_server("errors");
    for (line, needle) in malformed_cases() {
        let r = ask(&server, &line);
        assert_eq!(r.status, Status::Error, "line `{line}` -> {:?}", r.status);
        let cause = r.error.as_deref().unwrap_or("");
        assert!(!cause.is_empty(), "empty error for `{line}`");
        assert!(
            cause.contains(needle),
            "`{line}` -> `{cause}` (wanted `{needle}`)"
        );
        // Recoverable ids are echoed back for correlation.
        if line.starts_with('{') && line.contains("\"id\":\"m") && line.ends_with('}') {
            let id = r.id.as_deref().unwrap_or_default();
            assert!(id.starts_with('m'), "id lost for `{line}`: `{id}`");
        }
    }
    // The server is still alive and serving.
    let ok = ask(&server, &good_line("alive"));
    assert_eq!(ok.status, Status::Ok, "{:?}", ok.error);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecoverable_ids_are_omitted_not_empty() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (server, dir) = start_server("noid");
    // No id anywhere: the reply must omit the field entirely, so clients
    // can tell "uncorrelatable" apart from a request that sent `"id":""`.
    for line in ["GET / HTTP/1.1", r#"{"op":"explode"}"#, r#"{"nodes":3"#] {
        let r = ask(&server, line);
        assert_eq!(r.status, Status::Error, "`{line}`");
        assert_eq!(r.id, None, "`{line}` should not recover an id");
        let wire = r.to_json();
        assert!(!wire.contains("\"id\""), "`{line}` -> `{wire}`");
    }
    // An empty id the client really sent is echoed back as such.
    let r = ask(&server, r#"{"op":"explode","id":""}"#);
    assert_eq!(r.id.as_deref(), Some(""));
    assert!(r.to_json().contains("\"id\":\"\""));
    // And a recoverable id inside an unparseable line still correlates.
    let r = ask(&server, r#"{"id":"m42", <not json"#);
    assert_eq!(r.id.as_deref(), Some("m42"));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_payloads_are_rejected_before_parsing() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (server, dir) = start_server("oversize");
    // Over the 1 MiB line limit.
    let huge = format!(
        "{{\"op\":\"infer\",\"id\":\"huge\",\"nodes\":1,\"features\":[{}]}}",
        "1,".repeat(600_000)
    );
    let r = ask(&server, &huge);
    assert_eq!(r.status, Status::Error);
    assert!(r.error.as_ref().unwrap().contains("bytes"));
    // Within the line limit but over the element budget.
    let wide = format!(
        "{{\"op\":\"infer\",\"id\":\"wide\",\"nodes\":1,\"features\":[{}1]}}",
        "1,".repeat(300_000)
    );
    let r = ask(&server, &wide);
    assert_eq!(r.status, Status::Error);
    let ok = ask(&server, &good_line("alive"));
    assert_eq!(ok.status, Status::Ok, "{:?}", ok.error);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_lines_never_poison_the_batch_they_rode_in() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let (server, dir) = start_server("poison");
    let baseline = ask(&server, &good_line("base"));
    assert_eq!(baseline.status, Status::Ok, "{:?}", baseline.error);
    let base_bits: Vec<u32> = baseline
        .outputs
        .as_ref()
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();

    // Stall the executor, then interleave hostile lines with well-formed
    // requests so they all arrive inside the same coalescing window.
    server.fault_injector().inject_slow_batches(1, 100);
    let (tx, rx) = channel();
    server.submit_line(&good_line("stall"), &tx);
    let mut expected = 1usize;
    for (i, (bad, _)) in malformed_cases().into_iter().enumerate() {
        server.submit_line(&bad, &tx);
        server.submit_line(&good_line(&format!("good{i}")), &tx);
        expected += 2;
    }
    let responses: Vec<Response> = (0..expected)
        .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("response"))
        .collect();
    let n_cases = malformed_cases().len();
    for i in 0..n_cases {
        let id = format!("good{i}");
        let r = responses
            .iter()
            .find(|r| r.id.as_deref() == Some(id.as_str()))
            .unwrap_or_else(|| panic!("no response for {id}"));
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        let got: Vec<u32> = r
            .outputs
            .as_ref()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            got, base_bits,
            "{id}: malformed batchmate changed the output"
        );
    }
    assert_eq!(
        responses
            .iter()
            .filter(|r| r.status == Status::Error)
            .count(),
        n_cases,
        "every malformed line answers exactly once"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
