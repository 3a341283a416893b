//! Telemetry bootstrap for the experiment binaries.
//!
//! Every binary calls [`init`] first thing: it attaches a console sink
//! (progress on stderr; stdout stays reserved for markdown/CSV artifacts)
//! and a JSONL sink under `results/telemetry/`, and stamps the run
//! context so every event carries `run`, `seed` and `ts_us`.
//!
//! Set `OOD_TELEMETRY=0` to disable all sinks, or
//! `OOD_TELEMETRY_DIR=<dir>` to redirect the JSONL output.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::{ConsoleSink, JsonlSink, RunManifest};

/// Wall clock of the current run, set by [`init`] and read by [`finish`]
/// for the `run_summary` event.
static RUN_START: Mutex<Option<Instant>> = Mutex::new(None);

/// Default directory for JSONL telemetry files, relative to the CWD.
pub const TELEMETRY_DIR: &str = "results/telemetry";

/// Attach the standard sinks for an experiment binary and stamp the run
/// context. Returns the JSONL path when file telemetry is active.
///
/// The run id is `{bin}-s{seed}-{unix_secs}-p{pid}`, so runs started in
/// the same second by different processes get different files. The file
/// is opened with `create_new`: should a name still collide, the run
/// keeps console telemetry only and the existing trace stays intact.
pub fn init(bin: &str, seed: u64) -> Option<PathBuf> {
    if std::env::var("OOD_TELEMETRY").is_ok_and(|v| v == "0") {
        return None;
    }
    // Resolve the git revision before the run clocks start: the first call
    // spawns a subprocess (milliseconds) that would otherwise show up as
    // unattributed wall time in every trace.
    let _ = trace::manifest::git_describe();
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run_id = format!("{bin}-s{seed}-{secs}-p{}", std::process::id());
    let dir = std::env::var("OOD_TELEMETRY_DIR").unwrap_or_else(|_| TELEMETRY_DIR.to_string());
    let path = PathBuf::from(dir).join(format!("{run_id}.jsonl"));

    trace::attach(Box::new(ConsoleSink::default()));
    let jsonl = match JsonlSink::create_new(&path) {
        Ok(sink) => {
            trace::attach(Box::new(sink));
            Some(path)
        }
        Err(e) => {
            // Console-only degradation: telemetry must never kill a run.
            eprintln!("telemetry: cannot create {}: {e}", path.display());
            None
        }
    };
    trace::set_run(&run_id, seed);
    *RUN_START.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
    // Record the parallel execution layer's thread count with the run.
    trace::metrics::gauge_set("tensor/threads", tensor::par::current_threads() as f64);
    // Stamp the run manifest first thing, so every trace opens with the
    // reproduction context (binary, seed, threads, pool, git revision).
    RunManifest::new(bin)
        .seed(seed)
        .threads(tensor::par::current_threads())
        .pool(tensor::pool::enabled())
        .emit();
    jsonl
}

/// Flush metrics and sinks, emit the tensor-op profile summary and the
/// `run_summary` record (wall time, peak memory high-water marks, the
/// process's `VmHWM`), and print where the JSONL stream went. Call once at
/// the end of `main`.
pub fn finish(jsonl: &Option<PathBuf>) {
    emit_tensor_profile();
    if trace::enabled() {
        let wall_ms = RUN_START
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|t0| t0.elapsed().as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        let snap = tensor::profile::snapshot();
        trace::metrics::gauge_set(
            "tensor/pool_peak_retained_bytes",
            snap.pool.peak_retained_bytes as f64,
        );
        let mut fields: Vec<(&str, trace::Value)> = vec![
            ("wall_ms", wall_ms.into()),
            ("peak_live_bytes", (snap.peak_live_bytes as i64).into()),
            (
                "peak_retained_bytes",
                (snap.pool.peak_retained_bytes as i64).into(),
            ),
            (
                "telemetry_dropped_writes",
                trace::jsonl_dropped_writes().into(),
            ),
        ];
        if let Some(hwm) = vm_hwm_bytes() {
            fields.push(("vm_hwm_bytes", (hwm as i64).into()));
        }
        trace::emit_event(trace::names::RUN_SUMMARY, &fields);
    }
    trace::metrics::flush();
    trace::detach_all();
    if let Some(path) = jsonl {
        eprintln!("telemetry: {}", path.display());
    }
}

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`) in
/// bytes, or `None` where that file is not readable.
fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Bridge the tensor crate's atomic op-profile counters into one
/// telemetry event (the tensor crate stays dependency-free, so it cannot
/// emit events itself).
pub fn emit_tensor_profile() {
    if !trace::enabled() {
        return;
    }
    let snap = tensor::profile::snapshot();
    if snap.ops_total == 0 {
        return;
    }
    let mut fields: Vec<(&str, trace::Value)> = vec![
        ("ops_total", (snap.ops_total as i64).into()),
        ("elements_total", (snap.elements_total as i64).into()),
        ("backward_calls", (snap.backward_calls as i64).into()),
        ("max_tape_len", (snap.max_tape_len as i64).into()),
        ("peak_live_bytes", (snap.peak_live_bytes as i64).into()),
    ];
    fields.push(("threads", (snap.threads as i64).into()));
    let per_op = snap.per_op_nonzero();
    for (name, count) in &per_op {
        fields.push((name, (*count as i64).into()));
    }
    trace::emit_event(trace::names::TENSOR_PROFILE, &fields);

    // Per-kernel parallel region timings as a separate event (regions that
    // actually fanned out to the pool; label strings need owned storage).
    let kernels = snap.per_kernel_nonzero();
    if !kernels.is_empty() {
        let labels: Vec<(String, String, String)> = kernels
            .iter()
            .map(|(name, _, _, _)| {
                (
                    format!("{name}_regions"),
                    format!("{name}_chunks"),
                    format!("{name}_ms"),
                )
            })
            .collect();
        let mut fields: Vec<(&str, trace::Value)> = vec![("threads", (snap.threads as i64).into())];
        for ((_, regions, chunks, nanos), (l_regions, l_chunks, l_ms)) in
            kernels.iter().zip(labels.iter())
        {
            fields.push((l_regions, (*regions as i64).into()));
            fields.push((l_chunks, (*chunks as i64).into()));
            fields.push((l_ms, (*nanos as f64 / 1e6).into()));
        }
        trace::emit_event(trace::names::TENSOR_PARALLEL, &fields);
    }

    // Memory-engine counters: pool hit/miss/allocation totals and bytes
    // served from recycled buffers, so any run's JSONL records how much
    // allocator traffic the pool absorbed.
    let pool = &snap.pool;
    trace::emit_event(
        trace::names::TENSOR_MEMORY,
        &[
            ("enabled", pool.enabled.into()),
            ("hits", (pool.hits as i64).into()),
            ("misses", (pool.misses as i64).into()),
            ("allocations", (pool.allocations as i64).into()),
            ("returns", (pool.returns as i64).into()),
            ("evictions", (pool.evictions as i64).into()),
            ("bytes_reused", (pool.bytes_reused as i64).into()),
            ("retained_bytes", (pool.retained_bytes as i64).into()),
            (
                "peak_retained_bytes",
                (pool.peak_retained_bytes as i64).into(),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg(target_os = "linux")]
    fn vm_hwm_reads_this_process() {
        // At least the few MiB of the test binary itself are resident.
        let hwm = super::vm_hwm_bytes().expect("VmHWM in /proc/self/status");
        assert!(hwm >= 1 << 20, "VmHWM {hwm} bytes");
    }
}
