//! TCP socket transport: many concurrent clients, one executor.
//!
//! An accept loop (bounded by the `--max-conns` admission gauge) spawns
//! one reader and one writer thread per connection. Readers split the
//! byte stream into lines and feed the server's bounded admission queue;
//! replies are routed back to the originating connection's writer through
//! a **bounded per-connection outbound queue**, so a slow client only
//! stalls itself: when its queue overflows the connection is dropped and
//! `serve/slow_client_drops` is incremented — the executor never blocks
//! on a socket write.
//!
//! Latency path: every accepted stream has `TCP_NODELAY` set, and the
//! writer takes everything queued in one lock hold and sends it with one
//! `write_all` per wakeup, so a reply leaves the process as soon as it
//! exists instead of waiting on Nagle's algorithm for the client's next
//! ACK. Nothing in the transport polls on a timer: accept blocks (and
//! [`Transport::stop_accepting`] wakes it with a self-connect), and the
//! half-close path waits on a condvar for in-flight replies.
//!
//! Failure handling:
//!
//! * **over-limit accept** — the client receives one structured `shed`
//!   line and the socket closes (`serve_conn_shed`).
//! * **read idle timeout** — a connection quiet for longer than
//!   `idle_timeout_ms` gets a structured `error` notice and closes.
//! * **half-close / mid-line disconnect** — in-flight requests from a
//!   dead connection complete normally and their replies are dropped at
//!   routing ([`ReplyTx::send`] to a closed connection is a no-op); a
//!   trailing partial line is discarded. Nothing here can panic the
//!   executor.
//! * **drain** — on SIGTERM or a protocol `drain`, accepting stops,
//!   queued work flushes through the per-connection writers, then the
//!   sockets close.
//!
//! Requests arrive as raw bytes, not `&str`: [`Server::submit_bytes`]
//! rejects invalid UTF-8 with a typed `error` response.

use crate::protocol::{Response, Status};
use crate::server::{ReplyTx, Server};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport knobs (the serving knobs live in
/// [`ServeConfig`](crate::server::ServeConfig)).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Maximum simultaneously open connections; further accepts get a
    /// structured `shed` reply and close.
    pub max_conns: usize,
    /// Bounded per-connection outbound queue: replies waiting for a slow
    /// client, not counting the batch the writer is sending. Overflow
    /// drops the connection.
    pub outbound_capacity: usize,
    /// Close a connection after this long without a readable byte.
    pub idle_timeout_ms: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_conns: 64,
            outbound_capacity: 256,
            idle_timeout_ms: 30_000,
        }
    }
}

struct Outbound {
    queue: VecDeque<String>,
    open: bool,
    cause: &'static str,
}

/// One accepted TCP connection: the shared state between its reader
/// thread, its writer thread, and the executor's reply routing.
pub struct Conn {
    id: u64,
    peer: String,
    stream: TcpStream,
    outbound: Mutex<Outbound>,
    /// Wakes the writer: a reply was queued or the connection closed.
    cv: Condvar,
    /// Wakes a half-closed reader: `inflight` reached zero.
    drained: Condvar,
    capacity: usize,
    /// Requests submitted from this connection still awaiting a reply.
    inflight: AtomicU64,
    lines_read: AtomicU64,
    replies_written: AtomicU64,
    close_recorded: AtomicBool,
    server: Arc<Server>,
}

impl Conn {
    fn new(id: u64, peer: String, stream: TcpStream, capacity: usize, server: Arc<Server>) -> Self {
        Conn {
            id,
            peer,
            stream,
            outbound: Mutex::new(Outbound {
                queue: VecDeque::new(),
                open: true,
                cause: "",
            }),
            cv: Condvar::new(),
            drained: Condvar::new(),
            capacity,
            inflight: AtomicU64::new(0),
            lines_read: AtomicU64::new(0),
            replies_written: AtomicU64::new(0),
            close_recorded: AtomicBool::new(false),
            server,
        }
    }

    /// Route one reply from the executor (or admission) to this
    /// connection's writer. Called via [`ReplyTx::Conn`]; balances the
    /// reader's in-flight increment. Never blocks on the socket: a full
    /// queue drops the connection instead (slow-client policy), a closed
    /// connection drops the reply.
    pub(crate) fn push_response(&self, r: Response) {
        self.enqueue(r, true);
    }

    /// A transport-level notice (idle timeout, oversize line) — not a
    /// reply to a submitted request, so in-flight is untouched.
    fn push_notice(&self, r: Response) {
        self.enqueue(r, false);
    }

    fn enqueue(&self, r: Response, balances_inflight: bool) {
        // Serialize outside the lock the writer contends for.
        let line = r.to_json();
        let drained = balances_inflight && self.inflight.fetch_sub(1, Ordering::Relaxed) == 1;
        let mut ob = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
        if drained {
            // Under the lock, so a reader that saw `inflight > 0` is
            // already parked in `wait_inflight_drained` and can't miss it.
            self.drained.notify_all();
        }
        if !ob.open {
            return; // Connection already dead: the reply evaporates here.
        }
        if ob.queue.len() >= self.capacity {
            // Slow client: its reader isn't keeping up with its own
            // request rate. Drop the whole connection rather than let its
            // replies occupy unbounded memory or stall the executor.
            ob.open = false;
            ob.cause = "slow_client";
            ob.queue.clear();
            drop(ob);
            self.cv.notify_all();
            self.server
                .stats()
                .slow_client_drops
                .fetch_add(1, Ordering::Relaxed);
            trace::metrics::counter_add("serve/slow_client_drops", 1);
            let _ = self.stream.shutdown(Shutdown::Both);
            return;
        }
        ob.queue.push_back(line);
        drop(ob);
        self.cv.notify_one();
    }

    /// Begin closing: mark the outbound side closed (first cause wins)
    /// and wake the writer, which flushes what's queued and exits.
    fn begin_close(&self, cause: &'static str) {
        let mut ob = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
        if ob.cause.is_empty() {
            ob.cause = cause;
        }
        ob.open = false;
        drop(ob);
        self.cv.notify_all();
    }

    /// Begin closing and unblock a reader parked in `read` by shutting
    /// the socket down (drain path).
    fn begin_close_hard(&self, cause: &'static str) {
        self.begin_close(cause);
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    fn is_open(&self) -> bool {
        self.outbound.lock().unwrap_or_else(|e| e.into_inner()).open
    }

    /// Exactly-once close bookkeeping (gauge, counters, telemetry), run
    /// by whichever thread finishes the connection last.
    fn record_close(&self) {
        if self.close_recorded.swap(true, Ordering::Relaxed) {
            return;
        }
        let cause = {
            let ob = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
            if ob.cause.is_empty() {
                "error"
            } else {
                ob.cause
            }
        };
        self.server.record_conn_close();
        trace::emit_event(
            trace::names::SERVE_CONN_CLOSE,
            &[
                ("conn", self.id.into()),
                ("peer", self.peer.as_str().into()),
                ("cause", cause.into()),
                ("lines_read", self.lines_read.load(Ordering::Relaxed).into()),
                (
                    "replies_written",
                    self.replies_written.load(Ordering::Relaxed).into(),
                ),
            ],
        );
    }

    /// Wait (bounded) for every submitted request to be answered —
    /// the half-close path: the client sent EOF but still reads replies.
    fn wait_inflight_drained(&self, limit: Duration) {
        let ob = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
        let _ = self
            .drained
            .wait_timeout_while(ob, limit, |_| self.inflight.load(Ordering::Relaxed) > 0);
    }
}

/// The listener: accept loop plus per-connection reader/writer threads.
pub struct Transport {
    server: Arc<Server>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
    conns: Arc<Mutex<HashMap<u64, Arc<Conn>>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Transport {
    /// Bind `addr` and start accepting. The accept loop refuses new
    /// connections past `config.max_conns` (structured `shed` reply) and
    /// stops entirely once the server starts draining.
    pub fn bind(
        server: Arc<Server>,
        addr: &str,
        config: TransportConfig,
    ) -> Result<Transport, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, Arc<Conn>>>> = Arc::new(Mutex::new(HashMap::new()));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let server = server.clone();
            let stop = stop.clone();
            let conns = conns.clone();
            let workers = workers.clone();
            std::thread::Builder::new()
                .name("oodgnn-serve-accept".into())
                .spawn(move || {
                    accept_loop(listener, server, config, stop, conns, workers);
                })
                .map_err(|e| format!("cannot spawn accept loop: {e}"))?
        };
        Ok(Transport {
            server,
            local_addr,
            stop,
            accept_handle: Mutex::new(Some(accept_handle)),
            conns,
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently open connections.
    pub fn open_conns(&self) -> u64 {
        self.server.stats().open_conns.load(Ordering::Relaxed)
    }

    /// Stop accepting new connections (existing ones keep serving).
    /// Idempotent; the first step of a graceful drain. The accept loop is
    /// parked in a blocking `accept`, so after raising `stop` this connects
    /// once to the listener to wake it.
    pub fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let mut h = self.accept_handle.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(handle) = h.take() {
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                // A wildcard bind is reachable on loopback of its family.
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // Refused means the loop already exited (server draining).
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = handle.join();
        }
    }

    /// Graceful close: stop accepting, flush every connection's queued
    /// replies, close the sockets, join the threads. Call after
    /// [`Server::shutdown`] so in-flight work has already been answered.
    pub fn shutdown(&self) {
        self.stop_accepting();
        let conns: Vec<Arc<Conn>> = {
            let mut map = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            map.drain().map(|(_, c)| c).collect()
        };
        for conn in &conns {
            conn.begin_close_hard("drain");
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut w = self.workers.lock().unwrap_or_else(|e| e.into_inner());
            w.drain(..).collect()
        };
        for handle in workers {
            let _ = handle.join();
        }
        for conn in &conns {
            conn.record_close();
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pause after an accept error that isn't transient (e.g. `EMFILE`).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

fn accept_loop(
    listener: TcpListener,
    server: Arc<Server>,
    config: TransportConfig,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, Arc<Conn>>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id: u64 = 0;
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Relaxed) || server.is_draining() {
            return; // Dropping the listener refuses anything still queued.
        }
        match accepted {
            Ok((stream, peer)) => {
                sweep_closed(&conns);
                let open = server.stats().open_conns.load(Ordering::Relaxed);
                if open as usize >= config.max_conns {
                    shed_connection(&server, stream, &peer, open);
                    continue;
                }
                next_id += 1;
                spawn_connection(next_id, stream, peer, &server, &config, &conns, &workers);
            }
            // A connection reset before we took it, or a signal.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                ) => {}
            // Descriptor or buffer exhaustion: `accept` would fail again
            // at once, so back off instead of spinning. `stop_accepting`'s
            // self-connect is picked up by the retry.
            Err(_) => std::thread::park_timeout(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Refuse an over-limit connection: one structured `shed` line, close.
fn shed_connection(server: &Arc<Server>, mut stream: TcpStream, peer: &SocketAddr, open: u64) {
    server.record_conn_shed();
    trace::emit_event(
        trace::names::SERVE_CONN_SHED,
        &[
            ("peer", peer.to_string().as_str().into()),
            ("open_conns", open.into()),
        ],
    );
    let mut r = Response::unidentified(Status::Shed);
    r.error = Some(format!("connection limit reached ({open} open)"));
    let mut line = r.to_json();
    line.push('\n');
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn spawn_connection(
    id: u64,
    stream: TcpStream,
    peer: SocketAddr,
    server: &Arc<Server>,
    config: &TransportConfig,
    conns: &Arc<Mutex<HashMap<u64, Arc<Conn>>>>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Replies are complete lines handed over in one write: send them now
    // rather than holding them for the client's next ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_stream) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let Ok(write_stream) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    let conn = Arc::new(Conn::new(
        id,
        peer.to_string(),
        stream,
        config.outbound_capacity,
        server.clone(),
    ));
    server.record_conn_open();
    trace::emit_event(
        trace::names::SERVE_CONN_OPEN,
        &[
            ("conn", id.into()),
            ("peer", conn.peer.as_str().into()),
            (
                "open_conns",
                server.stats().open_conns.load(Ordering::Relaxed).into(),
            ),
        ],
    );
    let mut handles = Vec::with_capacity(2);
    {
        let conn = conn.clone();
        let server = server.clone();
        let idle = Duration::from_millis(config.idle_timeout_ms.max(1));
        if let Ok(h) = std::thread::Builder::new()
            .name(format!("oodgnn-serve-read-{id}"))
            .spawn(move || reader_loop(conn, server, read_stream, idle))
        {
            handles.push(h);
        }
    }
    {
        let conn = conn.clone();
        if let Ok(h) = std::thread::Builder::new()
            .name(format!("oodgnn-serve-write-{id}"))
            .spawn(move || writer_loop(conn, write_stream))
        {
            handles.push(h);
        }
    }
    conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, conn);
    workers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(handles);
}

/// Drop map entries whose close has been recorded, so long-lived servers
/// don't accumulate dead connection state.
fn sweep_closed(conns: &Arc<Mutex<HashMap<u64, Arc<Conn>>>>) {
    conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|_, c| !c.close_recorded.load(Ordering::Relaxed));
}

/// Split the byte stream into request lines and submit them. Owns the
/// idle timeout, half-close, and mid-line-disconnect handling.
fn reader_loop(conn: Arc<Conn>, server: Arc<Server>, mut stream: TcpStream, idle: Duration) {
    let _ = stream.set_read_timeout(Some(idle));
    let max_line = server.config().limits.max_line_bytes;
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` is known to hold no newline: a line arriving in
    // many chunks is scanned once, not once per chunk.
    let mut scanned = 0;
    let mut chunk = [0u8; 8192];
    loop {
        if !conn.is_open() {
            return; // Slow-client drop or drain closed us from outside.
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Half-close: the client finished sending but may still
                // be reading. Let in-flight work answer, then close; a
                // trailing partial line is discarded by construction.
                conn.wait_inflight_drained(Duration::from_secs(10));
                conn.begin_close("eof");
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let mut start = 0;
                while let Some(pos) = buf[scanned..].iter().position(|&b| b == b'\n') {
                    let end = scanned + pos;
                    let mut line = &buf[start..end];
                    if line.last() == Some(&b'\r') {
                        line = &line[..line.len() - 1];
                    }
                    if !line.is_empty() {
                        conn.lines_read.fetch_add(1, Ordering::Relaxed);
                        conn.inflight.fetch_add(1, Ordering::Relaxed);
                        server.submit_bytes(line, &ReplyTx::Conn(conn.clone()));
                    }
                    start = end + 1;
                    scanned = start;
                }
                buf.drain(..start);
                scanned = buf.len();
                if buf.len() > max_line.saturating_add(4096) {
                    // A "line" past the limit with no newline in sight:
                    // reject and close rather than buffer without bound.
                    let mut r = Response::unidentified(Status::Error);
                    r.error = Some(format!(
                        "request line exceeds {max_line} bytes without a newline"
                    ));
                    conn.push_notice(r);
                    conn.begin_close("oversize");
                    return;
                }
            }
            // The `idle` read timeout expired: Unix reports it as
            // `WouldBlock`, Windows as `TimedOut`.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                server.stats().idle_closed.fetch_add(1, Ordering::Relaxed);
                trace::metrics::counter_add("serve/idle_closed", 1);
                let mut r = Response::unidentified(Status::Error);
                r.error = Some(format!("idle timeout after {} ms", idle.as_millis()));
                conn.push_notice(r);
                conn.begin_close("idle");
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                // Mid-line disconnect / reset. In-flight replies will be
                // dropped at routing once the writer marks us closed.
                conn.begin_close("error");
                return;
            }
        }
    }
}

/// Drain the bounded outbound queue onto the socket. The only thread
/// that writes to this connection: each wakeup takes everything queued in
/// one lock hold and sends it as one `write_all`. Exits once the queue is
/// flushed after close, then records the close exactly once.
fn writer_loop(conn: Arc<Conn>, mut stream: TcpStream) {
    let mut batch: VecDeque<String> = VecDeque::new();
    let mut bytes: Vec<u8> = Vec::new();
    loop {
        let open = {
            let mut ob = conn.outbound.lock().unwrap_or_else(|e| e.into_inner());
            while ob.queue.is_empty() && ob.open {
                ob = conn.cv.wait(ob).unwrap_or_else(|e| e.into_inner());
            }
            // Swap rather than drain: both buffers keep their capacity.
            std::mem::swap(&mut ob.queue, &mut batch);
            ob.open
        };
        if !batch.is_empty() {
            let n = batch.len() as u64;
            bytes.clear();
            for line in batch.drain(..) {
                bytes.extend_from_slice(line.as_bytes());
                bytes.push(b'\n');
            }
            if stream.write_all(&bytes).is_err() {
                conn.begin_close("error");
                let _ = conn.stream.shutdown(Shutdown::Both);
                break;
            }
            conn.replies_written.fetch_add(n, Ordering::Relaxed);
        }
        if !open {
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Write);
            break;
        }
    }
    conn.record_close();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_config_defaults_are_sane() {
        let c = TransportConfig::default();
        assert!(c.max_conns >= 1);
        assert!(c.outbound_capacity >= 1);
        assert!(c.idle_timeout_ms >= 1000);
    }
}
