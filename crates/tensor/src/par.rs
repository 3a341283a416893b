//! Deterministic fork-join parallelism for tensor kernels.
//!
//! A fixed-size worker pool (spawned lazily, sized from `OOD_THREADS` or
//! the machine's available parallelism) executes *chunked* kernels: the
//! item range is split into chunks whose boundaries depend **only on the
//! problem size** — never on the thread count or the scheduling order.
//! Each chunk writes a disjoint output slice (or produces an independent
//! partial), and partials are combined by a fixed-order tree reduction.
//! Consequently every kernel routed through this module returns a
//! **bitwise-identical** result at any thread count, which is what keeps
//! the trainer's checkpoint/resume guarantee (bitwise-equal loss curves)
//! intact when parallelism is enabled.
//!
//! Scheduling is work-stealing-lite: chunks are claimed from a shared
//! atomic counter, the calling thread participates, and the pool is a
//! single global broadcast slot. Two concurrent callers (e.g. parallel
//! tests) degrade gracefully — whichever job loses the slot is simply
//! finished by its own caller — and nested parallel regions run inline on
//! the worker that encountered them.
//!
//! Environment:
//! * `OOD_THREADS=<n>` — thread budget (`1` forces sequential execution;
//!   unset or `0` uses the machine's available parallelism).
//!
//! The active thread count can also be changed at runtime with
//! [`set_threads`] (used by the threads-sweep benchmark and the
//! determinism property tests); determinism makes this safe at any point.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use crate::profile::{self, Kernel};

/// Upper bound on chunks per parallel region. Fixed (never derived from
/// the thread count) so chunk boundaries are a pure function of the
/// problem size.
pub const MAX_CHUNKS: usize = 64;

/// Hard cap on pool capacity: beyond this the fork-join overhead of the
/// workloads in this workspace outweighs any win.
const MAX_POOL: usize = 32;

thread_local! {
    /// Set while this thread is executing inside a parallel region; nested
    /// regions run inline instead of deadlocking on the single job slot.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    std::env::var("OOD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Pool capacity: the number of threads (including the caller) that can
/// ever participate in a parallel region. Sized once, from the larger of
/// the machine parallelism and any `OOD_THREADS` request, with a floor of
/// 4 so [`set_threads`] sweeps work even on small CI machines.
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        hardware_threads()
            .max(env_threads().unwrap_or(1))
            .clamp(4, MAX_POOL)
    })
}

static ACTIVE: AtomicUsize = AtomicUsize::new(0); // 0 = not yet initialized

/// The active thread count: `OOD_THREADS` if set, otherwise the machine's
/// available parallelism (clamped to the pool capacity).
pub fn current_threads() -> usize {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let t = env_threads()
                .unwrap_or_else(hardware_threads)
                .clamp(1, max_threads());
            // Racing initializers compute the same value.
            ACTIVE.store(t, Ordering::Relaxed);
            t
        }
        t => t,
    }
}

/// Set the active thread count at runtime, clamped to `1..=max_threads()`.
/// Returns the effective value. Because every kernel is deterministic in
/// the thread count, this only changes speed, never results.
pub fn set_threads(n: usize) -> usize {
    let t = n.clamp(1, max_threads());
    ACTIVE.store(t, Ordering::Relaxed);
    t
}

// ---------------------------------------------------------------- the pool

/// A lifetime-erased chunk task. The pointee outlives the job because the
/// publishing caller blocks until every claimed chunk has completed.
#[derive(Clone, Copy)]
struct TaskRef(&'static (dyn Fn(usize) + Sync));

struct Job {
    task: TaskRef,
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Total chunks in this job.
    total: usize,
    /// Chunks not yet completed; the caller waits for this to hit zero.
    remaining: AtomicUsize,
    /// Worker threads (not counting the caller) allowed to join.
    workers: usize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claim and run chunks until none remain.
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            (self.task.0)(i);
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().unwrap() = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.done_cv.wait(done).unwrap();
        }
    }
}

#[derive(Default)]
struct Slot {
    /// Bumped on every publication so sleeping workers can tell a new job
    /// from a spurious wakeup.
    seq: u64,
    job: Option<Arc<Job>>,
}

struct Pool {
    slot: Mutex<Slot>,
    notify: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            slot: Mutex::new(Slot::default()),
            notify: Condvar::new(),
        }));
        for index in 0..max_threads().saturating_sub(1) {
            std::thread::Builder::new()
                .name(format!("ood-par-{index}"))
                .spawn(move || worker_loop(pool, index))
                .expect("spawn pool worker");
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool, index: usize) {
    // Anything the worker runs is already inside a parallel region.
    IN_PARALLEL.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = pool.slot.lock().unwrap();
            loop {
                if slot.seq != seen {
                    seen = slot.seq;
                    break slot.job.clone();
                }
                slot = pool.notify.wait(slot).unwrap();
            }
        };
        if let Some(job) = job {
            if index < job.workers {
                job.run();
            }
        }
    }
}

/// Execute `task(chunk_index)` for `chunks` chunks across the pool. The
/// caller participates and blocks until every chunk has completed, which
/// is what makes lending the borrowed `task` to worker threads sound.
fn run_parallel(chunks: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
    let pool = pool();
    // Erase the task lifetime: `Job::run` never dereferences the pointer
    // after `remaining` reaches zero, and we do not return before then.
    let task: TaskRef = TaskRef(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    });
    let job = Arc::new(Job {
        task,
        next: AtomicUsize::new(0),
        total: chunks,
        remaining: AtomicUsize::new(chunks),
        workers,
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    {
        let mut slot = pool.slot.lock().unwrap();
        slot.seq += 1;
        slot.job = Some(job.clone());
    }
    pool.notify.notify_all();
    IN_PARALLEL.with(|f| f.set(true));
    job.run();
    IN_PARALLEL.with(|f| f.set(false));
    job.wait();
    let mut slot = pool.slot.lock().unwrap();
    if slot
        .job
        .as_ref()
        .is_some_and(|current| Arc::ptr_eq(current, &job))
    {
        slot.job = None;
    }
}

// ------------------------------------------------------------- chunked api

/// Work threshold (in per-kernel work units — elements for elementwise
/// kernels, `rows * cols` for row-blocked ones, multiply-adds for matmul)
/// below which a multi-chunk region runs inline on the calling thread
/// instead of dispatching to the pool. The threads-sweep showed small
/// elementwise kernels *regressing* under dispatch (`cos_map` 512×128 at
/// 0.86x): waking workers and cache-bouncing a 256 KiB problem costs more
/// than the loop itself.
/// Cutoffs are a pure function of the kernel family — never of the thread
/// count — so chunk boundaries and results stay bitwise-identical; only
/// where the chunks execute changes.
pub fn inline_cutoff(kernel: Kernel) -> usize {
    match kernel {
        // Cheap per-element bodies need big problems to amortize dispatch.
        Kernel::Elementwise | Kernel::Reduce => 1 << 17,
        // Row gathers are pure memcpy per row — similar story.
        Kernel::Gather => 1 << 15,
        // Heavier per-element bodies win earlier.
        Kernel::LogSoftmax | Kernel::Segment | Kernel::Csr => 1 << 14,
        // Multiply-adds: 16K output elements at the hidden width k = 32.
        Kernel::Matmul => 1 << 19,
    }
}

/// Whether a region of `work` units dispatches to the pool (`true`) or
/// runs inline (`false`). Thread-count independent by construction.
pub fn would_dispatch(kernel: Kernel, work: usize) -> bool {
    work >= inline_cutoff(kernel)
}

/// Deterministic chunk count: a pure function of the item count and the
/// per-chunk grain — never of the thread count.
fn chunk_count(n: usize, grain: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.div_ceil(grain.max(1)).clamp(1, MAX_CHUNKS)
    }
}

/// Deterministic chunk boundaries: an even split of `0..n` into `chunks`
/// ranges (identical for every thread count).
fn chunk_range(n: usize, chunks: usize, i: usize) -> Range<usize> {
    (i * n / chunks)..((i + 1) * n / chunks)
}

/// Run `f(range)` over deterministic chunks of `0..n`, in parallel when
/// the pool is active and the problem is big enough (more than one chunk
/// *and* at least [`inline_cutoff`] work units). `f` must only touch
/// state disjoint between chunks. `n` doubles as the work estimate; use
/// [`for_each_chunk_weighted`] when they differ (e.g. row-chunked kernels
/// where the work is `rows * cols`).
pub fn for_each_chunk(n: usize, grain: usize, kernel: Kernel, f: impl Fn(Range<usize>) + Sync) {
    for_each_chunk_weighted(n, grain, kernel, n, f);
}

/// [`for_each_chunk`] with an explicit work estimate for the inline
/// cutoff. Chunk boundaries depend only on `n` and `grain`; `work` only
/// decides *where* the chunks run, so determinism is unaffected.
pub fn for_each_chunk_weighted(
    n: usize,
    grain: usize,
    kernel: Kernel,
    work: usize,
    f: impl Fn(Range<usize>) + Sync,
) {
    let chunks = chunk_count(n, grain);
    if chunks == 0 {
        return;
    }
    let threads = if IN_PARALLEL.with(|p| p.get()) {
        1
    } else {
        current_threads()
    };
    if chunks == 1 {
        f(chunk_range(n, chunks, 0));
        return;
    }
    // Multi-chunk regions are timed at every thread count (including the
    // sequential t=1 and below-cutoff inline paths): chunk boundaries are
    // a pure function of the problem size, so per-kernel region/chunk
    // tables stay comparable like-for-like across `OOD_THREADS` settings.
    let start = Instant::now();
    if threads == 1 || !would_dispatch(kernel, work) {
        for i in 0..chunks {
            f(chunk_range(n, chunks, i));
        }
    } else {
        run_parallel(chunks, threads - 1, &|i| f(chunk_range(n, chunks, i)));
    }
    profile::record_parallel(kernel, chunks, start.elapsed().as_nanos() as u64);
}

/// Run `f` on the calling thread, timed as one single-chunk region of
/// `kernel`. For folds whose fixed accumulation order admits no chunking
/// (the backward broadcast reductions), so their time is still
/// attributed to a kernel family.
pub(crate) fn sequential<T>(kernel: Kernel, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    profile::record_parallel(kernel, 1, start.elapsed().as_nanos() as u64);
    out
}

/// Chunked map: compute one partial per deterministic chunk (in parallel)
/// and return them **in chunk order**, ready for a fixed-order reduction.
pub fn map_chunks<T: Send>(
    n: usize,
    grain: usize,
    kernel: Kernel,
    f: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let chunks = chunk_count(n, grain);
    let mut partials: Vec<Option<T>> = Vec::new();
    partials.resize_with(chunks, || None);
    {
        let slots = SendPtr(partials.as_mut_ptr());
        for_each_chunk(n, grain, kernel, |range| {
            let i = chunk_index_of(n, chunks, &range);
            // Disjoint per-chunk slots: each index is written exactly once.
            unsafe { *slots.get().add(i) = Some(f(range)) };
        });
    }
    partials
        .into_iter()
        .map(|p| p.expect("every chunk produced a partial"))
        .collect()
}

/// Recover the chunk index of a range produced by [`chunk_range`].
fn chunk_index_of(n: usize, chunks: usize, range: &Range<usize>) -> usize {
    if range.start == 0 {
        0
    } else {
        // start = i * n / chunks is monotone in i; invert by search from the
        // analytic guess (exact except for integer-division rounding).
        let mut i = (range.start * chunks) / n;
        while chunk_range(n, chunks, i).start < range.start {
            i += 1;
        }
        i
    }
}

/// Fixed-order pairwise tree reduction: adjacent partials are combined
/// level by level, so the float rounding schedule depends only on the
/// number of partials (which is thread-count independent).
pub fn tree_reduce<T>(mut partials: Vec<T>, combine: impl Fn(T, T) -> T) -> Option<T> {
    if partials.is_empty() {
        return None;
    }
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        let mut it = partials.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        partials = next;
    }
    partials.into_iter().next()
}

/// Chunked map + fixed-order tree reduction in one call.
pub fn map_reduce<T: Send>(
    n: usize,
    grain: usize,
    kernel: Kernel,
    map: impl Fn(Range<usize>) -> T + Sync,
    combine: impl Fn(T, T) -> T,
) -> Option<T> {
    tree_reduce(map_chunks(n, grain, kernel, map), combine)
}

/// Fill `out[i] = f(i)` over deterministic chunks, in parallel. Each chunk
/// owns a disjoint output slice.
pub fn fill(out: &mut [f32], grain: usize, kernel: Kernel, f: impl Fn(usize) -> f32 + Sync) {
    let n = out.len();
    let base = SendPtr(out.as_mut_ptr());
    for_each_chunk(n, grain, kernel, |range| {
        // Disjoint subslice: chunk ranges never overlap.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        for (offset, slot) in chunk.iter_mut().enumerate() {
            *slot = f(range.start + offset);
        }
    });
}

/// Transform `out[i] = f(out[i])` in place over deterministic chunks.
pub fn map_inplace(out: &mut [f32], grain: usize, kernel: Kernel, f: impl Fn(f32) -> f32 + Sync) {
    let n = out.len();
    let base = SendPtr(out.as_mut_ptr());
    for_each_chunk(n, grain, kernel, |range| {
        // Disjoint subslice: chunk ranges never overlap.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        for slot in chunk.iter_mut() {
            *slot = f(*slot);
        }
    });
}

/// Run `f(row, &mut row_slice)` for every row of a `[rows, cols]` buffer,
/// chunked over rows. Used by the row-blocked matmul and row-wise
/// softmax-family kernels: every row is written by exactly one chunk.
/// The work estimate is the element count `rows * cols`: a 100-row ×
/// 10_000-col fill is plenty to amortize dispatch.
pub fn for_each_row(
    out: &mut [f32],
    rows: usize,
    cols: usize,
    grain_rows: usize,
    kernel: Kernel,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    for_each_row_weighted(out, rows, cols, grain_rows, kernel, rows * cols, f);
}

/// [`for_each_row`] with an explicit work estimate for the inline cutoff
/// (matmul passes its multiply-add count). Row chunks depend only on
/// `rows` and `grain_rows`.
pub fn for_each_row_weighted(
    out: &mut [f32],
    rows: usize,
    cols: usize,
    grain_rows: usize,
    kernel: Kernel,
    work: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    assert_eq!(out.len(), rows * cols, "row buffer size mismatch");
    if cols == 0 {
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    for_each_chunk_weighted(rows, grain_rows, kernel, work, |range| {
        for r in range {
            // Disjoint row slices: row ranges never overlap across chunks.
            let row = unsafe { std::slice::from_raw_parts_mut(base.get().add(r * cols), cols) };
            f(r, row);
        }
    });
}

/// A raw pointer that may cross threads. Soundness is the caller's
/// obligation: every use must write disjoint regions per chunk.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes closures capture the whole `SendPtr`, keeping the
    /// `Sync` wrapper — Rust 2021 disjoint capture would otherwise grab
    /// the raw (non-`Sync`) pointer field directly.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_boundaries_cover_and_partition() {
        for &n in &[0usize, 1, 7, 64, 1000, 65537] {
            for &grain in &[1usize, 16, 1024] {
                let chunks = chunk_count(n, grain);
                let mut covered = 0usize;
                for i in 0..chunks {
                    let r = chunk_range(n, chunks, i);
                    assert_eq!(r.start, covered, "n={n} grain={grain} chunk {i}");
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn chunk_count_ignores_thread_count() {
        let before = current_threads();
        let a = chunk_count(100_000, 1024);
        set_threads(1);
        let b = chunk_count(100_000, 1024);
        set_threads(before);
        assert_eq!(a, b);
    }

    #[test]
    fn fill_matches_sequential_at_any_thread_count() {
        let n = 40_000;
        let reference: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let before = current_threads();
        for t in [1, 2, 4] {
            set_threads(t);
            let mut out = vec![0.0f32; n];
            fill(&mut out, 1024, Kernel::Elementwise, |i| (i as f32).sin());
            assert_eq!(out, reference, "threads={t}");
        }
        set_threads(before);
    }

    #[test]
    fn map_reduce_is_thread_count_invariant() {
        let n = 100_000;
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).cos()).collect();
        let run = |t: usize| {
            set_threads(t);
            map_reduce(
                n,
                1024,
                Kernel::Reduce,
                |r| data[r].iter().sum::<f32>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let before = current_threads();
        let r1 = run(1);
        let r2 = run(2);
        let r4 = run(4);
        set_threads(before);
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert_eq!(r1.to_bits(), r4.to_bits());
    }

    #[test]
    fn tree_reduce_orders_pairwise() {
        // With strings the combine order is observable.
        let parts: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let joined = tree_reduce(parts, |a, b| format!("({a}{b})")).unwrap();
        assert_eq!(joined, "(((01)(23))4)");
        assert_eq!(tree_reduce(Vec::<i32>::new(), |a, b| a + b), None);
    }

    #[test]
    fn nested_regions_run_inline() {
        let before = current_threads();
        set_threads(max_threads());
        let n = 8192;
        let mut out = vec![0.0f32; n];
        fill(&mut out, 64, Kernel::Elementwise, |i| {
            // A nested parallel reduction inside a chunk must not deadlock.
            map_reduce(128, 16, Kernel::Reduce, |r| r.len() as f32, |a, b| a + b).unwrap()
                + i as f32
        });
        set_threads(before);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 128.0 + i as f32);
        }
    }

    #[test]
    fn inline_cutoff_pins_the_cos_map_fix() {
        // The threads-sweep regression case: cos_map over 512×128 = 65536
        // elements must run inline (it regressed to 0.86x under dispatch),
        // while a 2x bigger elementwise problem still dispatches.
        assert!(!would_dispatch(Kernel::Elementwise, 512 * 128));
        assert!(would_dispatch(Kernel::Elementwise, 1 << 17));
        // Heavier kernels keep dispatching at sizes the sweep showed
        // scaling well (matmul 128³, counted in multiply-adds).
        assert!(would_dispatch(Kernel::Matmul, 128 * 128 * 128));
        // Cutoffs are per-family constants: thread-count independent.
        let before = current_threads();
        set_threads(1);
        let at_one = would_dispatch(Kernel::Elementwise, 512 * 128);
        set_threads(before);
        assert_eq!(at_one, would_dispatch(Kernel::Elementwise, 512 * 128));
    }

    #[test]
    fn inline_regions_still_fill_correctly() {
        // Below-cutoff multi-chunk regions run inline but must produce
        // the same chunk boundaries and results.
        let n = 4096; // 4 chunks at grain 1024, well below the cutoff
        let reference: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        let before = current_threads();
        for t in [1, 4] {
            set_threads(t);
            let mut out = vec![0.0f32; n];
            fill(&mut out, 1024, Kernel::Elementwise, |i| (i as f32).cos());
            assert_eq!(out, reference, "threads={t}");
        }
        set_threads(before);
    }

    #[test]
    fn set_threads_clamps() {
        let before = current_threads();
        assert_eq!(set_threads(0), 1);
        assert_eq!(set_threads(10_000), max_threads());
        set_threads(before);
    }
}
