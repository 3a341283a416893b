//! Telemetry capture for the integration tests: attach an in-memory sink,
//! run the scenario, then assert the events it must have emitted. Trace
//! sinks are process-wide, so callers hold their test binary's lock.

/// Attach a fresh in-memory sink to the global trace.
pub fn record() -> trace::MemorySink {
    let sink = trace::MemorySink::shared();
    trace::attach(Box::new(sink.clone()));
    sink
}

/// Flush the metric counters, detach every sink and assert that `sink`
/// saw an event of each name in `names`.
pub fn assert_recorded(sink: &trace::MemorySink, names: &[&str]) {
    trace::metrics::flush();
    trace::detach_all();
    let events = sink.events();
    for name in names {
        assert!(
            events.iter().any(|e| e.name == *name),
            "no `{name}` event recorded"
        );
    }
}
