//! The load generator: open-loop phases timed from each request's due
//! time, and a closed loop with a fixed number of requests outstanding.
//! It runs on two threads (this one sends, a reader thread stamps each
//! reply line as it arrives) over one [`Link`].

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};
use tensor::rng::Rng;

/// One connection to the server: request lines out, stamped reply lines
/// in.
pub trait Link {
    /// Send one request line (newline included) in a single write.
    fn send(&mut self, line: &[u8]) -> io::Result<()>;
    /// The next reply line and when it arrived, waiting at most `timeout`.
    fn recv(&mut self, timeout: Duration) -> Option<(Instant, String)>;
}

/// How long to wait for a reply before counting the server as stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Interval between reloads, when the request mix has one.
const RELOAD_EVERY: Duration = Duration::from_secs(2);

/// The request mix: infer bodies per graph, their expected output bits,
/// and the reload line.
pub struct Requests {
    /// Per graph: the request text after the id, without and with
    /// `"timing":true`.
    pub bodies: Vec<[String; 2]>,
    /// Per graph: the bits of the outputs the server must return.
    pub expected: Vec<Vec<u32>>,
    /// The body of a `reload` of the served checkpoint, sent every
    /// [`RELOAD_EVERY`], if the workload sends them.
    pub reload: Option<String>,
}

/// The body of an infer request for one graph, after its id.
pub fn infer_body(g: &graph::Graph, timing: bool) -> String {
    let edges: Vec<String> = g
        .edges()
        .iter()
        .map(|(s, d)| format!("[{s},{d}]"))
        .collect();
    let feats: Vec<String> = g
        .features()
        .data()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    format!(
        "\",\"nodes\":{},\"edges\":[{}],\"features\":[{}]{}}}\n",
        g.num_nodes(),
        edges.join(","),
        feats.join(","),
        if timing { ",\"timing\":true" } else { "" }
    )
}

/// Per-stage server time from a reply's `timing` object, in µs: queue,
/// assemble, compute, write.
pub type Stages = [f64; 4];

/// What one phase observed.
#[derive(Default)]
pub struct Phase {
    /// Infer requests and reloads sent.
    pub sent: u64,
    /// Replies that were not `ok`.
    pub failed: u64,
    /// `ok` replies whose outputs differ from the expected bits.
    pub wrong: u64,
    /// Replies where the client saw less time than the server reported.
    pub clock_violations: u64,
    /// Per `ok` infer reply: due → received, in ms.
    pub latency_ms: Vec<f64>,
    /// Per `ok` infer reply: due → sent, in ms (the generator's lateness).
    pub late_ms: Vec<f64>,
    /// Per `ok` infer reply: the server's `latency_us`, in ms.
    pub server_ms: Vec<f64>,
    /// Per `ok` infer reply: sent → received minus the server's time, ms.
    pub residual_ms: Vec<f64>,
    /// Per `ok` infer reply carrying a `timing` object.
    pub stages_us: Vec<Stages>,
    /// Per reload: sent → acknowledged, in ms.
    pub reload_ms: Vec<f64>,
    /// Arrival time of every `ok` infer reply.
    pub arrivals: Vec<Instant>,
    /// Non-`ok` replies by status.
    pub statuses: HashMap<String, u64>,
}

struct Pending {
    graph: Option<usize>,
    due: Instant,
    sent: Instant,
}

/// Request ids are sequence numbers; infer and reload requests share
/// them.
pub struct Traffic<'a, L: Link> {
    pub link: L,
    requests: &'a Requests,
    order: Vec<usize>,
    next: usize,
    rng: Rng,
    seq: u64,
    pending: HashMap<u64, Pending>,
    next_reload: Instant,
    phase: Phase,
}

impl<'a, L: Link> Traffic<'a, L> {
    /// Graphs are requested in a seeded random order, reshuffled after
    /// each pass.
    pub fn new(link: L, requests: &'a Requests, seed: u64) -> Self {
        let n = requests.bodies.len();
        Traffic {
            link,
            requests,
            order: (0..n).collect(),
            next: n,
            rng: Rng::seed_from(seed),
            seq: 0,
            pending: HashMap::new(),
            next_reload: Instant::now() + RELOAD_EVERY,
            phase: Phase::default(),
        }
    }

    fn next_graph(&mut self) -> usize {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }

    fn send(&mut self, graph: Option<usize>, due: Instant, body: &str) -> io::Result<()> {
        self.seq += 1;
        let op = if graph.is_some() { "infer" } else { "reload" };
        let line = format!("{{\"op\":\"{op}\",\"id\":\"{}{body}", self.seq);
        let sent = Instant::now();
        self.link.send(line.as_bytes())?;
        self.pending.insert(self.seq, Pending { graph, due, sent });
        self.phase.sent += 1;
        Ok(())
    }

    /// Send the next infer request, due at `due`, preceded by a reload
    /// when one is due.
    fn send_infer(&mut self, due: Instant, timed: bool) -> io::Result<()> {
        if let Some(body) = &self.requests.reload {
            if Instant::now() >= self.next_reload {
                self.next_reload += RELOAD_EVERY;
                self.send(None, Instant::now(), body)?;
            }
        }
        let graph = self.next_graph();
        let body = &self.requests.bodies[graph][usize::from(timed)];
        self.send(Some(graph), due, body)
    }

    /// Account one reply line received at `at`.
    fn record(&mut self, at: Instant, line: &str) -> Result<(), String> {
        let id = str_field(line, "id").ok_or_else(|| format!("reply without id: {line}"))?;
        let seq: u64 = id
            .parse()
            .map_err(|_| format!("unexpected reply: {line}"))?;
        let p = self
            .pending
            .remove(&seq)
            .ok_or_else(|| format!("reply to unknown request {seq}"))?;
        let status = str_field(line, "status").unwrap_or("");
        let ph = &mut self.phase;
        if status != "ok" {
            ph.failed += 1;
            *ph.statuses.entry(status.to_string()).or_default() += 1;
            return Ok(());
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let Some(graph) = p.graph else {
            ph.reload_ms.push(ms(at - p.sent));
            return Ok(());
        };
        if outputs_bits(line).as_ref() != Some(&self.requests.expected[graph]) {
            ph.wrong += 1;
        }
        let server_ms = num_field(line, "latency_us").unwrap_or(f64::NAN) / 1e3;
        let observed = ms(at - p.sent);
        ph.clock_violations += u64::from(server_ms.is_nan() || observed < server_ms);
        ph.latency_ms.push(ms(at - p.due));
        ph.late_ms.push(ms(p.sent.saturating_duration_since(p.due)));
        ph.server_ms.push(server_ms);
        ph.residual_ms.push(observed - server_ms);
        if let Some(t) = stages(line) {
            ph.stages_us.push(t);
        }
        ph.arrivals.push(at);
        Ok(())
    }

    /// Receive and account one reply.
    fn recv_one(&mut self) -> Result<Instant, String> {
        let (at, line) = self
            .link
            .recv(REPLY_TIMEOUT)
            .ok_or_else(|| format!("{} replies missing", self.pending.len()))?;
        self.record(at, &line)?;
        Ok(at)
    }

    /// Wait for every outstanding reply and return what the phase saw.
    fn finish(&mut self) -> Result<Phase, String> {
        while !self.pending.is_empty() {
            self.recv_one()?;
        }
        Ok(std::mem::take(&mut self.phase))
    }

    /// Open loop: `rate` requests per second for `length`, each timed
    /// from when it was due, whether or not it could be sent on time.
    pub fn open_loop(&mut self, rate: f64, length: Duration, timed: bool) -> Result<Phase, String> {
        let n = ((rate * length.as_secs_f64()).round() as u64).max(1);
        let start = Instant::now();
        for i in 0..n {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.send_infer(due, timed)
                .map_err(|e| format!("send: {e}"))?;
        }
        self.finish()
    }

    /// Closed loop: keep `outstanding` requests in flight for `windows`
    /// back-to-back windows of `window`; returns completions per second
    /// in each window.
    pub fn closed_loop(
        &mut self,
        outstanding: usize,
        windows: usize,
        window: Duration,
    ) -> Result<(Vec<f64>, Phase), String> {
        let start = Instant::now();
        let end = start + window * windows as u32;
        for _ in 0..outstanding {
            self.send_infer(Instant::now(), false)
                .map_err(|e| format!("send: {e}"))?;
        }
        let mut done = vec![0u64; windows];
        while !self.pending.is_empty() {
            let before = self.phase.arrivals.len();
            let at = self.recv_one()?;
            if self.phase.arrivals.len() == before {
                continue; // a reload or a failed request
            }
            if at < end {
                let k = ((at - start).as_secs_f64() / window.as_secs_f64()) as usize;
                done[k.min(windows - 1)] += 1;
                self.send_infer(Instant::now(), false)
                    .map_err(|e| format!("send: {e}"))?;
            }
        }
        let rates = done
            .iter()
            .map(|&d| d as f64 / window.as_secs_f64())
            .collect();
        Ok((rates, self.finish()?))
    }

    /// Ask the server for a counter from its `stats` reply (only between
    /// phases, with nothing outstanding).
    pub fn stat(&mut self, key: &str) -> Result<f64, String> {
        assert!(self.pending.is_empty(), "stats requested mid-phase");
        self.link
            .send(b"{\"op\":\"stats\",\"id\":\"stats\"}\n")
            .map_err(|e| format!("send: {e}"))?;
        let (_, line) = self.link.recv(REPLY_TIMEOUT).ok_or("no stats reply")?;
        num_field(&line, key).ok_or_else(|| format!("no `{key}` in stats reply: {line}"))
    }
}

/// The string value of `"key":"…"` in a reply line (no escapes).
pub fn str_field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The numeric value of `"key":…` in a reply line.
pub fn num_field(line: &str, key: &str) -> Option<f64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let len = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..len].parse().ok()
}

/// The `timing` object of a reply, if present.
fn stages(line: &str) -> Option<Stages> {
    line.find("\"timing\":")?;
    let f = |k| num_field(line, k);
    Some([
        f("queue_us")?,
        f("assemble_us")?,
        f("compute_us")?,
        f("write_us")?,
    ])
}

/// The bits of a reply's `outputs` array. The server prints each `f32`
/// output widened to `f64` with round-trip formatting, so narrowing the
/// parsed value back gives the exact bits.
fn outputs_bits(line: &str) -> Option<Vec<u32>> {
    let start = line.find("\"outputs\":[")? + 11;
    let len = line[start..].find(']')?;
    line[start..start + len]
        .split(',')
        .map(|v| v.parse::<f64>().ok().map(|x| (x as f32).to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Answers every request at once, except that sending request
    /// `stall_at` blocks for `stall` first.
    struct FakeLink {
        replies: VecDeque<(Instant, String)>,
        sent: u64,
        stall_at: u64,
        stall: Duration,
    }

    impl Link for FakeLink {
        fn send(&mut self, line: &[u8]) -> io::Result<()> {
            self.sent += 1;
            if self.sent == self.stall_at {
                std::thread::sleep(self.stall);
            }
            let line = std::str::from_utf8(line).unwrap();
            let id = str_field(line, "id").unwrap();
            self.replies.push_back((
                Instant::now(),
                format!(
                    "{{\"id\":\"{id}\",\"status\":\"ok\",\"latency_us\":0,\"outputs\":[0.5,0.25]}}"
                ),
            ));
            Ok(())
        }

        fn recv(&mut self, _: Duration) -> Option<(Instant, String)> {
            self.replies.pop_front()
        }
    }

    fn requests() -> Requests {
        Requests {
            bodies: vec![["\"}\n".into(), "\"}\n".into()]],
            expected: vec![vec![0.5f32.to_bits(), 0.25f32.to_bits()]],
            reload: None,
        }
    }

    #[test]
    fn a_stall_delays_every_request_due_behind_it() {
        let reqs = requests();
        let link = FakeLink {
            replies: VecDeque::new(),
            sent: 0,
            stall_at: 11,
            stall: Duration::from_millis(50),
        };
        let mut t = Traffic::new(link, &reqs, 1);
        // 1000 req/s: one due every ms; request 11 stalls the sender 50 ms.
        let phase = t
            .open_loop(1000.0, Duration::from_millis(40), false)
            .unwrap();
        assert_eq!(phase.sent, 40);
        assert_eq!(
            (phase.failed, phase.wrong, phase.clock_violations),
            (0, 0, 0)
        );
        // Before the stall the server answers at once.
        assert!(phase.latency_ms[..10].iter().all(|&l| l < 5.0));
        // The stalled request and the ones due during the stall were sent
        // late, and their latency counts from when they were due.
        assert!(phase.latency_ms[10] >= 49.0, "{}", phase.latency_ms[10]);
        assert!(phase.latency_ms[11] >= 48.0, "{}", phase.latency_ms[11]);
        assert!(phase.latency_ms[39] >= 20.0, "{}", phase.latency_ms[39]);
        assert!(phase.late_ms[39] >= 20.0);
        // Timed from when they were sent, they would look instant.
        assert!(phase.residual_ms[39] < 5.0);
    }

    #[test]
    fn wrong_outputs_and_failures_are_counted() {
        let reqs = requests();
        let mut t = Traffic::new(
            FakeLink {
                replies: VecDeque::new(),
                sent: 0,
                stall_at: 0,
                stall: Duration::ZERO,
            },
            &reqs,
            1,
        );
        for _ in 0..3 {
            t.send_infer(Instant::now(), false).unwrap();
        }
        t.link.replies[1].1 = t.link.replies[1].1.replace("0.25", "0.26");
        t.link.replies[2].1 = t.link.replies[2].1.replace("\"ok\"", "\"shed\"");
        let phase = t.finish().unwrap();
        assert_eq!((phase.sent, phase.wrong, phase.failed), (3, 1, 1));
        assert_eq!(phase.statuses.get("shed"), Some(&1));
    }

    #[test]
    fn reply_fields_parse() {
        let line = "{\"id\":\"7\",\"status\":\"ok\",\"model_version\":1,\"latency_us\":183,\
                    \"timing\":{\"queue_us\":5,\"assemble_us\":20,\"compute_us\":150,\"write_us\":8,\"total_us\":183},\
                    \"outputs\":[0.10000000149011612,0.8999999761581421]}";
        assert_eq!(str_field(line, "id"), Some("7"));
        assert_eq!(num_field(line, "latency_us"), Some(183.0));
        assert_eq!(stages(line), Some([5.0, 20.0, 150.0, 8.0]));
        assert_eq!(
            outputs_bits(line),
            Some(vec![0.1f32.to_bits(), 0.9f32.to_bits()])
        );
        assert_eq!(num_field("{\"ok\":12.0,\"batches\":3.0}", "ok"), Some(12.0));
    }
}
