//! Telemetry sinks: where stamped events go.
//!
//! * [`ConsoleSink`] — human-readable lines on stderr (stdout stays free
//!   for experiment artifacts like markdown tables and CSV).
//! * [`JsonlSink`] — one JSON object per line, machine-readable, written
//!   under `results/telemetry/` by convention.
//! * [`MemorySink`] — in-process buffer for tests and programmatic
//!   consumption.

use crate::event::{Event, EventKind};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Telemetry writes dropped on I/O errors across every [`JsonlSink`] in
/// the process (telemetry must never crash the experiment, but silent loss
/// must still be visible).
static JSONL_DROPPED: AtomicU64 = AtomicU64::new(0);
/// Whether the one-time dropped-write warning has been printed.
static JSONL_DROP_WARNED: AtomicBool = AtomicBool::new(false);

/// Total JSONL telemetry writes dropped on I/O errors so far in this
/// process. Surfaced in the end-of-run `run_summary` event so a full disk
/// or broken pipe shows up in the artifacts it was corrupting.
pub fn jsonl_dropped_writes() -> u64 {
    JSONL_DROPPED.load(Ordering::Relaxed)
}

fn record_dropped_write(path: &Path, err: &std::io::Error) {
    JSONL_DROPPED.fetch_add(1, Ordering::Relaxed);
    if !JSONL_DROP_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: telemetry write to `{}` failed ({err}); further \
             drops are counted silently",
            path.display()
        );
    }
}

/// Destination for telemetry events. Implementations must be cheap per
/// event; the global emitter already filters out the no-sink case.
pub trait Sink: Send {
    /// Handle one stamped event.
    fn emit(&mut self, event: &Event);
    /// Flush buffered output (called on detach and process-exit paths).
    fn flush(&mut self) {}
}

/// Human-readable sink on stderr: `[run +12.345s] kind name k=v ...`.
pub struct ConsoleSink {
    /// Span events below this depth are printed; deeper ones are skipped
    /// (keeps per-batch spans out of the console while JSONL gets all).
    pub max_span_depth: usize,
}

impl Default for ConsoleSink {
    fn default() -> Self {
        ConsoleSink { max_span_depth: 3 }
    }
}

impl Sink for ConsoleSink {
    fn emit(&mut self, event: &Event) {
        if event.kind == EventKind::Span {
            if let Some(d) = event.field("depth").and_then(|v| v.as_i64()) {
                if d as usize > self.max_span_depth {
                    return;
                }
            }
        }
        let ts = event
            .field("ts_us")
            .and_then(|v| v.as_i64())
            .map(|us| format!("+{:.3}s", us as f64 / 1e6))
            .unwrap_or_default();
        let run = event.field("run").and_then(|v| v.as_str()).unwrap_or("-");
        let mut line = format!("[{run} {ts:>10}] {} {}", event.kind.name(), event.name);
        for (k, v) in &event.fields {
            if matches!(k.as_str(), "run" | "seed" | "ts_us") {
                continue;
            }
            if k == "dur_us" {
                if let Some(us) = v.as_i64() {
                    line.push_str(&format!(" dur={:.3}s", us as f64 / 1e6));
                    continue;
                }
            }
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

/// Machine-readable JSONL sink: one event per line.
pub struct JsonlSink {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl JsonlSink {
    /// Create (truncating) a JSONL file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open(path.as_ref(), |p| File::create(p))
    }

    /// Like [`JsonlSink::create`], but the file must not exist yet: a
    /// name collision fails with `AlreadyExists` and leaves the existing
    /// file intact.
    pub fn create_new(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open(path.as_ref(), |p| File::create_new(p))
    }

    fn open(path: &Path, open: fn(&Path) -> std::io::Result<File>) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        Ok(JsonlSink {
            writer: BufWriter::new(open(path)?),
            path: path.to_path_buf(),
        })
    }

    /// Where this sink writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        // Telemetry must never crash the experiment; drop on I/O error,
        // but count the loss so it surfaces in the run summary.
        if let Err(e) = writeln!(self.writer, "{}", event.to_json()) {
            record_dropped_write(&self.path, &e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            record_dropped_write(&self.path, &e);
        }
    }
}

/// In-memory sink for tests and programmatic consumers. Cloning shares the
/// underlying buffer, so keep a clone to read events after detaching.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A new shared buffer.
    pub fn shared() -> Self {
        Self::default()
    }

    /// Snapshot of everything emitted so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// Read every event back from a JSONL telemetry file, skipping blank
/// lines. Returns an error on the first malformed line.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<Event>, String> {
    let text = fs::read_to_string(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(Event::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn jsonl_file_round_trip() {
        let _guard = crate::test_lock();
        let dir = std::env::temp_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("run.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        crate::attach(Box::new(sink));
        crate::set_run("test-run", 7);
        crate::emit(
            Event::new(EventKind::Event, "epoch")
                .with("epoch", 1usize)
                .with("loss", 0.5f32),
        );
        {
            let _s = crate::span!("work");
        }
        crate::metrics::counter_add("ops", 4);
        crate::metrics::flush();
        crate::detach_all();

        let events = read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 3);
        // Every event is stamped with the run context.
        for e in &events {
            assert_eq!(e.field("run").unwrap().as_str(), Some("test-run"));
            assert_eq!(e.field("seed").unwrap().as_i64(), Some(7));
            assert!(e.field("ts_us").unwrap().as_i64().unwrap() >= 0);
        }
        assert_eq!(events[0].kind, EventKind::Event);
        assert_eq!(events[0].name, "epoch");
        assert!((events[0].field("loss").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(events[1].kind, EventKind::Span);
        assert_eq!(events[1].name, "work");
        assert_eq!(events[2].kind, EventKind::Counter);
        assert_eq!(events[2].field("value").unwrap().as_i64(), Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_new_refuses_an_existing_name_and_keeps_its_file() {
        let dir = std::env::temp_dir().join(format!("trace-new-{}", std::process::id()));
        let path = dir.join("run.jsonl");
        let mut first = JsonlSink::create_new(&path).unwrap();
        first.emit(&Event::new(EventKind::Event, "kept"));
        first.flush();
        let err = JsonlSink::create_new(&path)
            .err()
            .expect("second open must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let events = read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_writes_are_counted_not_swallowed() {
        // /dev/full returns ENOSPC on write — the canonical way to provoke
        // an I/O error without filling a disk. Skip where it's absent.
        if !Path::new("/dev/full").exists() {
            return;
        }
        let _guard = crate::test_lock();
        let before = jsonl_dropped_writes();
        let mut sink = JsonlSink::create("/dev/full").unwrap();
        // BufWriter absorbs small writes; force the error out via flush.
        sink.emit(&Event::new(EventKind::Event, "doomed"));
        sink.flush();
        assert!(
            jsonl_dropped_writes() > before,
            "write to /dev/full should have been counted as dropped"
        );
    }
}
