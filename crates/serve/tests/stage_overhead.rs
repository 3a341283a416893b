//! Stage-stamp overhead guard: the per-request observability path — a
//! [`StageTiming`] construction plus the [`ServeWindows`] ring-buffer
//! records the executor performs for every served request — must not
//! allocate after warmup. The rolling windows are fixed-capacity by
//! design; this pins that property with a counting global allocator.

mod counting_alloc;

use counting_alloc::{thread_allocs, CountingAlloc};
use oodgnn_serve::{ServeWindows, StageTiming};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One request's worth of stage recording, mirroring the executor's ok
/// path: stamp a [`StageTiming`], fold it into the windows, sample the
/// queue depth, and tick the outcome rates.
fn record_one(w: &mut ServeWindows, i: u64) {
    let ts = i * 997; // deterministic, strictly increasing timestamps
    w.record_admitted(ts, 1);
    let timing = StageTiming {
        queue_us: 120 + (i % 7),
        assemble_us: 15,
        compute_us: 800 + (i % 13),
        write_us: 9,
    };
    w.record_ok(ts, &timing);
    w.record_queue_depth(ts, (i % 5) as usize);
    if i.is_multiple_of(11) {
        w.record_shed(ts);
        w.record_timeout(ts);
        w.record_degraded(ts);
    }
}

#[test]
fn stage_stamp_path_is_allocation_free_after_warmup() {
    let mut w = ServeWindows::new(60);
    // Warmup: fill the rings past capacity (so later records overwrite
    // instead of growing anything) and touch the per-version map once.
    for i in 0..5_000 {
        record_one(&mut w, i);
    }

    let before = thread_allocs();
    for i in 0..10_000 {
        record_one(&mut w, 5_000 + i);
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "stage-stamp record path allocated {delta} times over 10k requests"
    );
}

#[test]
fn snapshot_path_reuses_its_scratch_buffer() {
    let mut w = ServeWindows::new(60);
    for i in 0..5_000 {
        record_one(&mut w, i);
    }
    // The first snapshot may size the scratch sort buffer and build row
    // strings; repeated snapshots must not grow anything unbounded. Rows
    // allocate their labels (that's the slow admin path, not the record
    // path), so bound the count rather than requiring zero.
    let now = 5_000 * 997;
    let _ = w.rows(now);
    let before = thread_allocs();
    let rows = w.rows(now);
    let delta = thread_allocs() - before;
    assert!(!rows.is_empty());
    // Generous bound: one Vec + a few allocations per row label.
    assert!(
        delta < 4 * rows.len() as u64 + 16,
        "stats snapshot allocated {delta} times for {} rows",
        rows.len()
    );
}
