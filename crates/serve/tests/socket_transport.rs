//! Multi-client TCP transport tests: N concurrent clients over a real
//! socket must see per-graph outputs bitwise-identical to the same
//! requests replayed serially through `submit_line` (the stdio path),
//! while the failure paths — abrupt disconnect mid-batch, slow-reader
//! backpressure, the connection limit, idle timeouts — behave exactly as
//! specified and never take the executor down. The latency path is pinned
//! too: a pipelined burst comes back whole through the coalescing writer,
//! a half-closed client still gets every reply, and shutdown wakes the
//! blocking accept.

use oodgnn_core::TrainCheckpoint;
use oodgnn_serve::{ModelSpec, ServeConfig, Server, Status, Transport, TransportConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::json::{parse_object_bytes, Json};

/// The worker pool and trace globals are process-wide; serialize tests.
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
    let dir = std::env::temp_dir().join(format!("serve_sock_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(tag: &str) -> (Arc<Server>, PathBuf, PathBuf) {
    let dir = scratch(tag);
    let ck = dir.join("m.oods");
    TrainCheckpoint::from_model(&mut spec().build().unwrap())
        .save(&ck)
        .unwrap();
    let server = Server::start(
        ServeConfig::default(),
        vec![("default".into(), spec(), ck.clone())],
    )
    .unwrap();
    (Arc::new(server), dir, ck)
}

/// A deterministic ring graph serialized as a request line (exact
/// quarter-integer features, so the JSON round trip is bit-exact).
fn infer_line(id: &str, n: usize, salt: u64) -> String {
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
    format!(
        "{{\"op\":\"infer\",\"id\":\"{id}\",\"nodes\":{n},\"edges\":[{edges}],\"features\":[{}]}}",
        feats.join(",")
    )
}

fn connect(transport: &Transport) -> TcpStream {
    let s = TcpStream::connect(transport.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Vec<(String, Json)>> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => {
            Some(parse_object_bytes(line.trim().as_bytes(), 1 << 16).expect("response parses"))
        }
    }
}

fn field_str(pairs: &[(String, Json)], key: &str) -> Option<String> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str().map(str::to_string))
}

fn field_bits(pairs: &[(String, Json)], key: &str) -> Option<Vec<u32>> {
    let arr = pairs.iter().find(|(k, _)| k == key)?.1.as_arr()?;
    Some(
        arr.iter()
            .map(|v| (v.as_f64().expect("numeric output") as f32).to_bits())
            .collect(),
    )
}

fn counter(server: &Server, pick: impl Fn(&oodgnn_serve::ServeStats) -> u64) -> u64 {
    pick(server.stats())
}

/// Poll until `pick` reaches `want` (counters update from other threads).
fn wait_counter(server: &Server, want: u64, pick: impl Fn(&oodgnn_serve::ServeStats) -> u64) {
    for _ in 0..2000 {
        if pick(server.stats()) >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("counter never reached {want} (at {})", pick(server.stats()));
}

/// Poll `sink` for the first `serve_conn_close` event (the close is
/// recorded by a transport thread after the client sees EOF).
fn wait_close_event(sink: &trace::MemorySink) -> trace::Event {
    for _ in 0..2000 {
        if let Some(e) = sink
            .events()
            .into_iter()
            .find(|e| e.name == trace::names::SERVE_CONN_CLOSE)
        {
            return e;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("no serve_conn_close event recorded");
}

fn event_int(e: &trace::Event, key: &str) -> i64 {
    e.field(key)
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| panic!("`{key}` missing from {e:?}"))
}

fn event_str(e: &trace::Event, key: &str) -> String {
    e.field(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("`{key}` missing from {e:?}"))
        .to_string()
}

#[test]
fn four_clients_interleaved_match_serial_replay_bitwise() {
    let _g = lock();
    let (server, dir, ck) = start_server("multi");
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;

    // Serial baseline through the same path the stdio binary uses.
    let mut baseline: Vec<Vec<u32>> = Vec::new();
    for c in 0..CLIENTS {
        for g in 0..PER_CLIENT {
            let line = infer_line("base", 3 + (g % 4), (c * PER_CLIENT + g) as u64);
            let (tx, rx) = channel();
            server.submit_line(&line, &tx);
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            baseline.push(r.outputs.unwrap().iter().map(|v| v.to_bits()).collect());
        }
    }

    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();

    // N threads over real sockets, interleaving infer with stats probes
    // and hot reloads (to the same checkpoint, so outputs are unchanged).
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let transport_addr = transport.local_addr();
            let ck = ck.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(transport_addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut outputs: Vec<(String, Vec<u32>)> = Vec::new();
                for g in 0..PER_CLIENT {
                    let id = format!("c{c}g{g}");
                    let line = infer_line(&id, 3 + (g % 4), (c * PER_CLIENT + g) as u64);
                    writeln!(writer, "{line}").unwrap();
                    if g % 3 == 0 {
                        writeln!(writer, "{{\"op\":\"stats\",\"id\":\"s{c}-{g}\"}}").unwrap();
                    }
                    if g == PER_CLIENT / 2 {
                        writeln!(
                            writer,
                            "{{\"op\":\"reload\",\"id\":\"r{c}\",\"model\":\"default\",\"path\":{}}}",
                            json_quote(ck.to_str().unwrap())
                        )
                        .unwrap();
                    }
                }
                let mut pending = PER_CLIENT;
                while pending > 0 {
                    let pairs = read_response(&mut reader).expect("reply before close");
                    let id = field_str(&pairs, "id").expect("correlated reply");
                    let status = field_str(&pairs, "status").unwrap();
                    if id.starts_with('c') {
                        assert_eq!(status, "ok", "{id}");
                        outputs.push((id, field_bits(&pairs, "outputs").unwrap()));
                        pending -= 1;
                    } else {
                        assert_eq!(status, "ok", "{id}");
                    }
                }
                outputs
            })
        })
        .collect();
    let mut got: Vec<Vec<(String, Vec<u32>)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (c, outputs) in got.iter_mut().enumerate() {
        let graph_index = |id: &str| -> usize { id.split('g').nth(1).unwrap().parse().unwrap() };
        outputs.sort_by_key(|(id, _)| graph_index(id));
        for (g, (id, bits)) in outputs.iter().enumerate() {
            assert_eq!(
                bits,
                &baseline[c * PER_CLIENT + g],
                "{id}: socket output differs from serial replay"
            );
        }
    }
    assert_eq!(
        counter(&server, |s| s.conn_open.load(Ordering::Relaxed)),
        CLIENTS as u64
    );
    wait_counter(&server, CLIENTS as u64, |s| {
        s.conn_close.load(Ordering::Relaxed)
    });
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abrupt_disconnect_mid_batch_never_panics_the_executor() {
    let _g = lock();
    let (server, dir, _ck) = start_server("abrupt");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();

    // Stall the executor so the requests are still queued when the client
    // vanishes, then drop the socket without reading a single reply (and
    // mid-line: the trailing garbage has no newline).
    server.fault_injector().inject_slow_batches(1, 200);
    {
        let mut stream = connect(&transport);
        for g in 0..3 {
            writeln!(stream, "{}", infer_line(&format!("dead{g}"), 3, g)).unwrap();
        }
        write!(stream, "{{\"op\":\"infer\",\"id\":\"partial").unwrap();
        // Dropped here: RST/FIN while three requests are in flight.
    }
    // The in-flight work completes (ok counter), the replies evaporate at
    // routing, and the connection close is recorded.
    wait_counter(&server, 3, |s| s.ok.load(Ordering::Relaxed));
    wait_counter(&server, 1, |s| s.conn_close.load(Ordering::Relaxed));
    assert_eq!(server.stats().inflight.load(Ordering::Relaxed), 0);

    // A fresh client still gets served, bitwise-identically to the
    // serial path.
    let (tx, rx) = channel();
    server.submit_line(&infer_line("serial", 3, 0), &tx);
    let serial = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let serial_bits: Vec<u32> = serial
        .outputs
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", infer_line("alive", 3, 0)).unwrap();
    let pairs = read_response(&mut reader).unwrap();
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    assert_eq!(field_bits(&pairs, "outputs").unwrap(), serial_bits);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_reader_overflow_disconnects_only_that_client() {
    let _g = lock();
    let (server, dir, _ck) = start_server("slow");
    let config = TransportConfig {
        outbound_capacity: 2,
        ..TransportConfig::default()
    };
    let transport = Transport::bind(server.clone(), "127.0.0.1:0", config).unwrap();

    // The healthy client first, so its connection predates the abuse.
    let good = connect(&transport);
    let mut good_writer = good.try_clone().unwrap();
    let mut good_reader = BufReader::new(good);

    // The slow client pipelines requests without ever reading: its
    // 2-deep outbound queue overflows and the server drops it.
    let mut slow = connect(&transport);
    for g in 0..32 {
        if writeln!(slow, "{}", infer_line(&format!("slow{g}"), 3, g)).is_err() {
            break; // Server already hung up on us mid-burst.
        }
    }
    wait_counter(&server, 1, |s| s.slow_client_drops.load(Ordering::Relaxed));
    assert_eq!(
        server.stats().slow_client_drops.load(Ordering::Relaxed),
        1,
        "exactly one slow-client drop"
    );
    // The dropped socket reaches EOF/reset once the queues flush.
    let mut slow_reader = BufReader::new(slow);
    let mut sink = String::new();
    loop {
        sink.clear();
        match slow_reader.read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // The well-behaved client is completely unaffected.
    let (tx, rx) = channel();
    server.submit_line(&infer_line("serial", 3, 7), &tx);
    let serial = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let serial_bits: Vec<u32> = serial
        .outputs
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    writeln!(good_writer, "{}", infer_line("good", 3, 7)).unwrap();
    let pairs = read_response(&mut good_reader).unwrap();
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    assert_eq!(field_bits(&pairs, "outputs").unwrap(), serial_bits);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_limit_sheds_with_a_structured_reply() {
    let _g = lock();
    let (server, dir, _ck) = start_server("limit");
    let config = TransportConfig {
        max_conns: 1,
        ..TransportConfig::default()
    };
    let transport = Transport::bind(server.clone(), "127.0.0.1:0", config).unwrap();

    let keeper = connect(&transport);
    let mut keeper_writer = keeper.try_clone().unwrap();
    let mut keeper_reader = BufReader::new(keeper);
    // Prove the first connection is live before the second knocks.
    writeln!(keeper_writer, "{{\"op\":\"health\",\"id\":\"h\"}}").unwrap();
    assert!(read_response(&mut keeper_reader).is_some());

    let over = connect(&transport);
    let mut over_reader = BufReader::new(over);
    let pairs = read_response(&mut over_reader).expect("structured shed reply");
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("shed"));
    assert!(
        field_str(&pairs, "error")
            .unwrap()
            .contains("connection limit"),
        "{pairs:?}"
    );
    assert!(field_str(&pairs, "id").is_none(), "shed reply has no id");
    assert!(
        read_response(&mut over_reader).is_none(),
        "socket closes after the shed reply"
    );
    assert_eq!(server.stats().conn_shed.load(Ordering::Relaxed), 1);

    // The admitted connection keeps serving.
    writeln!(keeper_writer, "{}", infer_line("still", 3, 1)).unwrap();
    let pairs = read_response(&mut keeper_reader).unwrap();
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connections_time_out_with_a_notice() {
    let _g = lock();
    let (server, dir, _ck) = start_server("idle");
    let config = TransportConfig {
        idle_timeout_ms: 150,
        ..TransportConfig::default()
    };
    let transport = Transport::bind(server.clone(), "127.0.0.1:0", config).unwrap();
    let stream = connect(&transport);
    let mut reader = BufReader::new(stream);
    // Say nothing; the server closes us with a structured notice.
    let pairs = read_response(&mut reader).expect("idle notice");
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("error"));
    assert!(
        field_str(&pairs, "error").unwrap().contains("idle timeout"),
        "{pairs:?}"
    );
    assert!(read_response(&mut reader).is_none(), "then EOF");
    wait_counter(&server, 1, |s| s.idle_closed.load(Ordering::Relaxed));
    wait_counter(&server, 1, |s| s.conn_close.load(Ordering::Relaxed));
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_telemetry_carry_connection_rows() {
    let _g = lock();
    let (server, dir, _ck) = start_server("rows");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();
    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{{\"op\":\"stats\",\"id\":\"s\"}}").unwrap();
    let pairs = read_response(&mut reader).unwrap();
    let num = |key: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("missing stats row `{key}` in {pairs:?}"))
    };
    assert_eq!(num("open_conns"), 1.0);
    assert_eq!(num("conn_open"), 1.0);
    assert_eq!(num("conn_shed"), 0.0);
    assert_eq!(num("slow_client_drops"), 0.0);
    assert_eq!(num("win_conn_open"), 1.0);
    assert_eq!(num("win_conn_close"), 0.0);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_burst_in_one_write_gets_every_reply() {
    let _g = lock();
    let sink = trace::MemorySink::shared();
    trace::attach(Box::new(sink.clone()));
    let (server, dir, _ck) = start_server("burst");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();
    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    const BURST: usize = 16;
    let mut want: Vec<String> = (0..BURST).map(|g| format!("b{g:02}")).collect();
    let burst: String = want
        .iter()
        .enumerate()
        .map(|(g, id)| format!("{}\n", infer_line(id, 3 + g % 4, g as u64)))
        .collect();
    writer.write_all(burst.as_bytes()).unwrap();
    let mut got: Vec<String> = (0..BURST)
        .map(|_| {
            let pairs = read_response(&mut reader).expect("reply before close");
            assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
            field_str(&pairs, "id").expect("correlated reply")
        })
        .collect();
    got.sort();
    want.sort();
    assert_eq!(got, want);

    writer.shutdown(Shutdown::Write).unwrap();
    assert!(read_response(&mut reader).is_none(), "EOF after the burst");
    let close = wait_close_event(&sink);
    assert_eq!(event_int(&close, "lines_read"), BURST as i64);
    assert_eq!(event_int(&close, "replies_written"), BURST as i64);
    trace::detach_all();
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn request_split_across_reads_is_reassembled() {
    let _g = lock();
    let (server, dir, _ck) = start_server("split");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();
    let stream = connect(&transport);
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Three pieces with pauses between them, so the reader sees the line
    // arrive over several reads and must resume its newline scan.
    let line = format!("{}\n", infer_line("split", 5, 3));
    let (a, rest) = line.split_at(line.len() / 3);
    let (b, c) = rest.split_at(rest.len() / 2);
    for piece in [a, b, c] {
        writer.write_all(piece.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let pairs = read_response(&mut reader).unwrap();
    assert_eq!(field_str(&pairs, "id").as_deref(), Some("split"));
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn half_closed_client_still_receives_every_reply() {
    let _g = lock();
    let sink = trace::MemorySink::shared();
    trace::attach(Box::new(sink.clone()));
    let (server, dir, _ck) = start_server("halfclose");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();
    // Stall the executor so the replies are still in flight when the
    // reader sees EOF: it must wait for them before closing.
    server.fault_injector().inject_slow_batches(1, 200);
    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for g in 0..4 {
        writeln!(writer, "{}", infer_line(&format!("h{g}"), 3, g)).unwrap();
    }
    writer.shutdown(Shutdown::Write).unwrap();
    let t0 = Instant::now();
    let mut ids: Vec<String> = (0..4)
        .map(|_| {
            let pairs = read_response(&mut reader).expect("reply after half-close");
            assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
            field_str(&pairs, "id").unwrap()
        })
        .collect();
    ids.sort();
    assert_eq!(ids, ["h0", "h1", "h2", "h3"]);
    assert!(read_response(&mut reader).is_none(), "then EOF");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "close waited {:?}: the in-flight wait missed its wakeup",
        t0.elapsed()
    );
    let close = wait_close_event(&sink);
    assert_eq!(event_str(&close, "cause"), "eof");
    assert_eq!(event_int(&close, "replies_written"), 4);
    trace::detach_all();
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_with_no_client_ever_connected_returns_promptly() {
    let _g = lock();
    let (server, dir, _ck) = start_server("quiet");
    // A wildcard bind is woken through loopback.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let transport = Transport::bind(server.clone(), addr, TransportConfig::default()).unwrap();
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            transport.shutdown();
            tx.send(t0.elapsed()).ok();
        });
        let took = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{addr}: shutdown never woke the accept loop"));
        assert!(
            took < Duration::from_secs(1),
            "{addr}: shutdown took {took:?}"
        );
    }
    // The wake-up connect is not a client.
    assert_eq!(server.stats().conn_open.load(Ordering::Relaxed), 0);
    assert_eq!(server.stats().conn_shed.load(Ordering::Relaxed), 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn json_quote(s: &str) -> String {
    let mut out = String::new();
    trace::json::write_str(&mut out, s);
    out
}
