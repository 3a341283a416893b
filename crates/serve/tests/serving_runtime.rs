//! End-to-end serving-runtime tests: batch-composition invariance, thread
//! determinism, deadlines, backpressure, degraded fallback, the circuit
//! breaker, hot reload and graceful drain — all through the public
//! [`Server`] API, exactly as the binary drives it.

use oodgnn_core::TrainCheckpoint;
use oodgnn_serve::{ModelSpec, Response, ServeConfig, Server, Status};
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::Duration;

/// `par::set_threads` and the trace globals are process-wide; serialize
/// every test in this binary.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

const IN_DIM: usize = 4;
const CLASSES: usize = 3;

fn spec() -> ModelSpec {
    ModelSpec::new(
        "gin",
        IN_DIM,
        8,
        2,
        graph::TaskType::MultiClass { classes: CLASSES },
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_rt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a servable checkpoint; `scale` perturbs every parameter so two
/// checkpoints produce visibly different outputs.
fn write_checkpoint(path: &PathBuf, scale: f32) {
    let mut model = spec().build().unwrap();
    for p in model_params(&mut model) {
        for v in p.iter_mut() {
            *v *= scale;
        }
    }
    TrainCheckpoint::from_model(&mut model).save(path).unwrap();
}

fn model_params(model: &mut gnn::GnnModel) -> Vec<&mut [f32]> {
    use tensor::nn::Module;
    model
        .params_mut()
        .into_iter()
        .map(|p| p.value.data_mut())
        .collect()
}

/// A deterministic ring graph serialized as a request line. Every feature
/// is an exact quarter-integer, so the JSON round trip is bit-exact.
fn infer_line(id: &str, n: usize, salt: u64, deadline_ms: Option<u64>) -> String {
    let mut edges = String::new();
    for i in 0..n {
        let j = (i + 1) % n;
        if !edges.is_empty() {
            edges.push(',');
        }
        edges.push_str(&format!("[{i},{j}],[{j},{i}]"));
    }
    let feats: Vec<String> = (0..n * IN_DIM)
        .map(|k| {
            let h = (k as u64).wrapping_mul(2654435761).wrapping_add(salt);
            format!("{}", (h % 17) as f32 / 4.0)
        })
        .collect();
    let deadline = deadline_ms.map_or(String::new(), |d| format!(",\"deadline_ms\":{d}"));
    format!(
        "{{\"op\":\"infer\",\"id\":\"{id}\",\"nodes\":{n},\"edges\":[{edges}],\"features\":[{}]{deadline}}}",
        feats.join(",")
    )
}

fn ask(server: &Server, line: &str) -> Response {
    let (tx, rx) = channel();
    server.submit_line(line, &tx);
    rx.recv_timeout(Duration::from_secs(30)).expect("response")
}

/// Submit every line on one channel, then collect exactly that many
/// responses (order unspecified; correlate by id).
fn ask_burst(server: &Server, lines: &[String]) -> Vec<Response> {
    let (tx, rx) = channel();
    for line in lines {
        server.submit_line(line, &tx);
    }
    (0..lines.len())
        .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("response"))
        .collect()
}

fn by_id<'a>(responses: &'a [Response], id: &str) -> &'a Response {
    responses
        .iter()
        .find(|r| r.id.as_deref() == Some(id))
        .unwrap_or_else(|| panic!("no response for id {id}"))
}

fn bits(outputs: &[f32]) -> Vec<u32> {
    outputs.iter().map(|v| v.to_bits()).collect()
}

/// Wait until the admission queue reports empty (the executor picked up
/// whatever was stalled in front of it).
fn wait_queue_empty(server: &Server) {
    for _ in 0..200 {
        let r = ask(server, r#"{"op":"stats","id":"q"}"#);
        let depth = r
            .extra
            .iter()
            .find(|(k, _)| k == "queue_depth")
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        if depth == 0.0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("queue never drained");
}

#[test]
fn probes_and_single_infer_work() {
    let _g = lock();
    let dir = scratch("basic");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    let h = ask(&server, r#"{"op":"health","id":"h"}"#);
    assert_eq!(h.status, Status::Ok);
    let r = ask(&server, r#"{"op":"ready","id":"r"}"#);
    assert_eq!(r.extra.iter().find(|(k, _)| k == "ready").unwrap().1, 1.0);

    let resp = ask(&server, &infer_line("g1", 5, 7, None));
    assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
    let outputs = resp.outputs.as_ref().unwrap();
    assert_eq!(outputs.len(), CLASSES);
    assert!((outputs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    assert_eq!(resp.model_version, Some(1));
    assert!(resp.latency_us.is_some());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn responses_are_invariant_to_batch_composition() {
    let _g = lock();
    let dir = scratch("batch");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    // Baseline: each graph alone in its batch.
    let n_graphs = 6usize;
    let solo: Vec<Vec<u32>> = (0..n_graphs)
        .map(|i| {
            let r = ask(
                &server,
                &infer_line(&format!("s{i}"), 3 + i, i as u64, None),
            );
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            bits(r.outputs.as_ref().unwrap())
        })
        .collect();

    // Stall the executor so all six coalesce into one padded batch.
    server.fault_injector().inject_slow_batches(1, 150);
    let stall = infer_line("stall", 3, 99, Some(10_000));
    let lines: Vec<String> = std::iter::once(stall)
        .chain((0..n_graphs).map(|i| infer_line(&format!("b{i}"), 3 + i, i as u64, Some(10_000))))
        .collect();
    let responses = ask_burst(&server, &lines);
    for (i, solo_bits) in solo.iter().enumerate() {
        let r = by_id(&responses, &format!("b{i}"));
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        assert_eq!(
            &bits(r.outputs.as_ref().unwrap()),
            solo_bits,
            "graph {i}: batched output differs from solo output"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn responses_are_bitwise_identical_across_thread_counts() {
    let _g = lock();
    let dir = scratch("threads");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);

    let outputs_at = |threads: usize| -> Vec<Vec<u32>> {
        tensor::par::set_threads(threads);
        let server = Server::start(
            ServeConfig::default(),
            vec![("default".into(), spec(), ck.clone())],
        )
        .unwrap();
        let out = (0..5)
            .map(|i| {
                let r = ask(
                    &server,
                    &infer_line(&format!("t{i}"), 4 + i, i as u64, None),
                );
                assert_eq!(r.status, Status::Ok, "{:?}", r.error);
                bits(r.outputs.as_ref().unwrap())
            })
            .collect();
        server.shutdown();
        out
    };

    let at1 = outputs_at(1);
    let at4 = outputs_at(4);
    assert_eq!(at1, at4, "serving outputs differ between 1 and 4 threads");
    tensor::par::set_threads(tensor::par::max_threads());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn expired_deadlines_time_out_without_poisoning_batchmates() {
    let _g = lock();
    let dir = scratch("deadline");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    let baseline = ask(&server, &infer_line("base", 4, 1, None));
    server.fault_injector().inject_slow_batches(1, 150);
    let lines = vec![
        infer_line("stall", 3, 9, Some(10_000)),
        infer_line("doomed", 4, 1, Some(1)),
        infer_line("fine", 4, 1, Some(10_000)),
    ];
    let responses = ask_burst(&server, &lines);
    assert_eq!(by_id(&responses, "doomed").status, Status::Timeout);
    let fine = by_id(&responses, "fine");
    assert_eq!(fine.status, Status::Ok, "{:?}", fine.error);
    assert_eq!(
        bits(fine.outputs.as_ref().unwrap()),
        bits(baseline.outputs.as_ref().unwrap()),
        "timeout of a batchmate changed a surviving response"
    );
    assert!(
        server
            .stats()
            .timeouts
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_instead_of_growing() {
    let _g = lock();
    let dir = scratch("shed");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let config = ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, vec![("default".into(), spec(), ck)]).unwrap();

    server.fault_injector().inject_slow_batches(1, 200);
    let (tx, rx) = channel();
    server.submit_line(&infer_line("stall", 3, 9, Some(10_000)), &tx);
    wait_queue_empty(&server); // executor picked the stall batch up
    server.submit_line(&infer_line("a", 4, 1, Some(10_000)), &tx);
    server.submit_line(&infer_line("b", 4, 2, Some(10_000)), &tx);
    let responses: Vec<Response> = (0..3)
        .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap())
        .collect();
    let shed = by_id(&responses, "b");
    assert_eq!(shed.status, Status::Shed);
    assert!(shed.error.as_ref().unwrap().contains("queue full"));
    assert_eq!(by_id(&responses, "a").status, Status::Ok);
    assert!(
        server
            .stats()
            .shed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reload_swaps_version_without_dropping_in_flight() {
    let _g = lock();
    let dir = scratch("reload");
    let ck1 = dir.join("v1.oods");
    let ck2 = dir.join("v2.oods");
    write_checkpoint(&ck1, 1.0);
    write_checkpoint(&ck2, 1.5);
    let server = Server::start(
        ServeConfig::default(),
        vec![("default".into(), spec(), ck1)],
    )
    .unwrap();

    let baseline = ask(&server, &infer_line("base", 4, 3, None));
    assert_eq!(baseline.model_version, Some(1));

    // Queue: [stall, pre, reload, post] — the reload marker bounds the
    // batch, so `pre` must be served by v1 and `post` by v2.
    server.fault_injector().inject_slow_batches(1, 150);
    let lines = vec![
        infer_line("stall", 3, 9, Some(10_000)),
        infer_line("pre", 4, 3, Some(10_000)),
        format!(
            "{{\"op\":\"reload\",\"id\":\"swap\",\"model\":\"default\",\"path\":{}}}",
            json_str(&ck2.display().to_string())
        ),
        infer_line("post", 4, 3, Some(10_000)),
    ];
    let responses = ask_burst(&server, &lines);
    let pre = by_id(&responses, "pre");
    assert_eq!(pre.status, Status::Ok, "{:?}", pre.error);
    assert_eq!(pre.model_version, Some(1));
    assert_eq!(
        bits(pre.outputs.as_ref().unwrap()),
        bits(baseline.outputs.as_ref().unwrap())
    );
    let swap = by_id(&responses, "swap");
    assert_eq!(swap.status, Status::Ok, "{:?}", swap.error);
    assert_eq!(swap.model_version, Some(2));
    let post = by_id(&responses, "post");
    assert_eq!(post.status, Status::Ok, "{:?}", post.error);
    assert_eq!(post.model_version, Some(2));
    assert_ne!(
        bits(post.outputs.as_ref().unwrap()),
        bits(baseline.outputs.as_ref().unwrap()),
        "reload to different weights should change outputs"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_reload_keeps_the_old_version_serving() {
    let _g = lock();
    let dir = scratch("corrupt");
    let ck = dir.join("v1.oods");
    let bad = dir.join("bad.oods");
    write_checkpoint(&ck, 1.0);
    // A bit-flipped copy: rejected by the checkpoint checksum.
    let mut bytes = std::fs::read(&ck).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&bad, &bytes).unwrap();

    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();
    let baseline = ask(&server, &infer_line("base", 4, 5, None));

    let reload = ask(
        &server,
        &format!(
            "{{\"op\":\"reload\",\"id\":\"swap\",\"model\":\"default\",\"path\":{}}}",
            json_str(&bad.display().to_string())
        ),
    );
    assert_eq!(reload.status, Status::Error);
    assert!(
        reload.error.as_ref().unwrap().contains("checksum"),
        "{:?}",
        reload.error
    );
    // Nine bytes claiming u32::MAX sections: an error reply, not an abort.
    std::fs::write(&bad, b"OODS\x01\xff\xff\xff\xff").unwrap();
    let path = json_str(&bad.display().to_string());
    let evil = ask(
        &server,
        &format!("{{\"op\":\"reload\",\"id\":\"evil\",\"model\":\"default\",\"path\":{path}}}"),
    );
    assert_eq!(evil.status, Status::Error);

    let after = ask(&server, &infer_line("after", 4, 5, None));
    assert_eq!(after.status, Status::Ok, "{:?}", after.error);
    assert_eq!(after.model_version, Some(1));
    assert_eq!(
        bits(after.outputs.as_ref().unwrap()),
        bits(baseline.outputs.as_ref().unwrap()),
        "failed reload must leave the old weights bit-identical"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nan_outputs_degrade_then_breaker_opens_and_recovers() {
    let _g = lock();
    let dir = scratch("nan");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let config = ServeConfig {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(config, vec![("default".into(), spec(), ck)]).unwrap();
    let baseline = ask(&server, &infer_line("base", 4, 2, None));

    server.fault_injector().inject_nan_batches(2);
    let uniform = vec![(1.0f32 / CLASSES as f32).to_bits(); CLASSES];
    for i in 0..2 {
        let r = ask(&server, &infer_line(&format!("bad{i}"), 4, 2, None));
        assert_eq!(r.status, Status::Degraded, "{:?}", r.error);
        assert_eq!(bits(r.outputs.as_ref().unwrap()), uniform);
    }
    // Threshold reached: the next two batches are served by the open
    // breaker without touching the model.
    for i in 0..2 {
        let r = ask(&server, &infer_line(&format!("open{i}"), 4, 2, None));
        assert_eq!(r.status, Status::Degraded);
        assert!(
            r.error.as_ref().unwrap().contains("breaker"),
            "{:?}",
            r.error
        );
    }
    // Cooldown over and no fault left: normal service resumes, bit-exact.
    let back = ask(&server, &infer_line("back", 4, 2, None));
    assert_eq!(back.status, Status::Ok, "{:?}", back.error);
    assert_eq!(
        bits(back.outputs.as_ref().unwrap()),
        bits(baseline.outputs.as_ref().unwrap())
    );
    assert!(
        server
            .stats()
            .degraded
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 4
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_nan_is_recovered_by_retry() {
    let _g = lock();
    let dir = scratch("retry");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let config = ServeConfig {
        max_retries: 2,
        retry_backoff_ms: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, vec![("default".into(), spec(), ck)]).unwrap();
    let baseline = ask(&server, &infer_line("base", 4, 6, None));

    server.fault_injector().inject_nan_batches(1);
    let r = ask(&server, &infer_line("flaky", 4, 6, None));
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert_eq!(
        bits(r.outputs.as_ref().unwrap()),
        bits(baseline.outputs.as_ref().unwrap())
    );
    assert!(
        server
            .stats()
            .retries
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_answers_queued_work_then_sheds_new_requests() {
    let _g = lock();
    let dir = scratch("drain");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    server.fault_injector().inject_slow_batches(1, 100);
    let lines = vec![
        infer_line("stall", 3, 9, Some(10_000)),
        infer_line("queued", 4, 4, Some(10_000)),
        r#"{"op":"drain","id":"bye"}"#.to_string(),
    ];
    let responses = ask_burst(&server, &lines);
    let queued = by_id(&responses, "queued");
    assert_eq!(queued.status, Status::Ok, "{:?}", queued.error);
    assert_eq!(by_id(&responses, "bye").status, Status::Ok);

    // Admission after drain sheds immediately.
    let late = ask(&server, &infer_line("late", 4, 4, None));
    assert_eq!(late.status, Status::Shed);
    assert!(late.error.as_ref().unwrap().contains("draining"));
    // Readiness reflects the drain.
    let r = ask(&server, r#"{"op":"ready","id":"r"}"#);
    assert_eq!(r.extra.iter().find(|(k, _)| k == "ready").unwrap().1, 0.0);

    server.shutdown(); // must be a clean no-op after a protocol drain
    std::fs::remove_dir_all(&dir).ok();
}

/// Quote a string as JSON (for reload paths containing any byte).
fn json_str(s: &str) -> String {
    let mut out = String::new();
    trace::json::write_str(&mut out, s);
    out
}

/// Splice `"timing":true` into an infer line built by [`infer_line`].
fn with_timing(line: &str) -> String {
    line.replacen("{\"op\":\"infer\"", "{\"op\":\"infer\",\"timing\":true", 1)
}

/// Poll `health` until it reports `want` (the executor flips the breaker
/// mirror just after sending the batch's responses).
fn poll_health_state(server: &Server, want: &str) -> Response {
    let mut last = ask(server, r#"{"op":"health","id":"hp"}"#);
    for _ in 0..200 {
        if last.state.as_deref() == Some(want) {
            return last;
        }
        std::thread::sleep(Duration::from_millis(5));
        last = ask(server, r#"{"op":"health","id":"hp"}"#);
    }
    panic!("health never reached `{want}`: {:?}", last.state);
}

fn extra(r: &Response, key: &str) -> f64 {
    r.extra
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing extra `{key}` in {:?}", r.extra))
        .1
}

#[test]
fn timing_object_partitions_end_to_end_latency() {
    let _g = lock();
    let dir = scratch("timing");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    // Without the flag, no timing object rides the wire.
    let plain = ask(&server, &infer_line("p", 4, 2, None));
    assert_eq!(plain.status, Status::Ok, "{:?}", plain.error);
    assert!(plain.timing.is_none());

    // With it, the four stages partition the reported latency exactly,
    // and the outputs are bitwise-unchanged (observability never perturbs
    // the data path).
    let timed = ask(&server, &with_timing(&infer_line("t", 4, 2, None)));
    assert_eq!(timed.status, Status::Ok, "{:?}", timed.error);
    let t = timed.timing.expect("timing requested");
    assert_eq!(Some(t.total_us()), timed.latency_us);
    assert!(t.compute_us > 0, "{t:?}");
    assert_eq!(
        bits(timed.outputs.as_ref().unwrap()),
        bits(plain.outputs.as_ref().unwrap()),
        "timing flag changed the outputs"
    );
    let line = timed.to_json();
    assert!(line.contains("\"timing\":{\"queue_us\":"), "{line}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_snapshot_reports_windows_versions_and_gauges() {
    let _g = lock();
    let dir = scratch("statswin");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    for i in 0..6 {
        let r = ask(&server, &infer_line(&format!("w{i}"), 4, i as u64, None));
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    }
    let s = ask(&server, r#"{"op":"stats","id":"s"}"#);
    assert_eq!(s.status, Status::Ok);
    assert_eq!(extra(&s, "ok"), 6.0);
    assert_eq!(extra(&s, "inflight"), 0.0);
    assert_eq!(extra(&s, "breaker_open"), 0.0);
    assert_eq!(extra(&s, "draining"), 0.0);
    assert!(extra(&s, "uptime_s") > 0.0);
    assert_eq!(extra(&s, "win_requests"), 6.0);
    assert_eq!(extra(&s, "win_ok"), 6.0);
    assert!(extra(&s, "win_qps") > 0.0);
    assert_eq!(extra(&s, "requests_v1"), 6.0);
    assert_eq!(extra(&s, "win_latency_count"), 6.0);
    // Per-stage window means partition the end-to-end window mean.
    let stage_sum: f64 = ["queue", "assemble", "compute", "write"]
        .iter()
        .map(|n| extra(&s, &format!("stage_{n}_mean_ms")))
        .sum();
    let e2e = extra(&s, "win_latency_mean_ms");
    assert!(
        (stage_sum - e2e).abs() <= 0.05 * e2e.max(0.001),
        "stage means {stage_sum} vs e2e mean {e2e}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_state_tracks_breaker_and_drain() {
    let _g = lock();
    let dir = scratch("healthstate");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let config = ServeConfig {
        max_retries: 0,
        breaker_threshold: 1,
        breaker_cooldown: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config, vec![("default".into(), spec(), ck)]).unwrap();

    let h = ask(&server, r#"{"op":"health","id":"h0"}"#);
    assert_eq!(h.state.as_deref(), Some("ok"));
    assert_eq!(extra(&h, "healthy"), 1.0);

    // One poisoned batch trips the threshold-1 breaker.
    server.fault_injector().inject_nan_batches(1);
    let r = ask(&server, &infer_line("bad", 4, 2, None));
    assert_eq!(r.status, Status::Degraded);
    // The degraded response is sent just before the executor flips the
    // breaker mirror; poll briefly rather than racing it.
    let h = poll_health_state(&server, "degraded");
    assert_eq!(extra(&h, "healthy"), 0.0);
    let s = ask(&server, r#"{"op":"stats","id":"s1"}"#);
    assert_eq!(extra(&s, "breaker_open"), 1.0);

    // Cooldown batch closes it again; state returns to ok.
    let r = ask(&server, &infer_line("cool", 4, 2, None));
    assert_eq!(r.status, Status::Degraded); // served by the open breaker
    poll_health_state(&server, "ok");

    // Draining wins over everything.
    let _ = ask(&server, r#"{"op":"drain","id":"bye"}"#);
    let h = ask(&server, r#"{"op":"health","id":"h3"}"#);
    assert_eq!(h.state.as_deref(), Some("draining"));
    assert_eq!(extra(&h, "healthy"), 0.0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_answers_out_of_band_while_the_executor_is_stalled() {
    let _g = lock();
    let dir = scratch("oob");
    let ck = dir.join("m.oods");
    write_checkpoint(&ck, 1.0);
    let server =
        Server::start(ServeConfig::default(), vec![("default".into(), spec(), ck)]).unwrap();

    // Stall the executor, then pile work behind the stall.
    server.fault_injector().inject_slow_batches(1, 300);
    let (tx, rx) = channel();
    server.submit_line(&infer_line("stall", 3, 9, Some(10_000)), &tx);
    wait_queue_empty(&server);
    for i in 0..4 {
        server.submit_line(
            &infer_line(&format!("q{i}"), 4, i as u64, Some(10_000)),
            &tx,
        );
    }
    // The probe must answer immediately from the admission thread even
    // though the data path is saturated.
    let t0 = std::time::Instant::now();
    let s = ask(&server, r#"{"op":"stats","id":"mid"}"#);
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "stats blocked behind the batch queue"
    );
    assert!(extra(&s, "queue_depth") >= 4.0, "{:?}", s.extra);
    assert!(extra(&s, "inflight") >= 4.0, "{:?}", s.extra);
    for _ in 0..5 {
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_ne!(r.status, Status::Error, "{:?}", r.error);
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
