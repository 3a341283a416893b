//! Size-class buffer pool: the tensor memory engine.
//!
//! Training replays the same graph shapes thousands of times — every inner
//! weight-optimization iteration rebuilds a tape whose node buffers are
//! shaped exactly like the previous iteration's. Paying `malloc`/`free`
//! (and the kernel's page-zeroing) for each of those buffers dominates the
//! hot loop, so tensor storage is recycled instead: every buffer the pool
//! allocates has a power-of-two capacity (its *class*), and when a
//! [`crate::Tensor`]'s buffer is dropped it returns to a thread-local
//! bucket for that class; the next request of that class, or of the class
//! just below it, pops it back out. The pool keeps only buffers it can
//! hand out again: a buffer whose capacity is not exactly a class size
//! (a `Tensor::from_vec` of caller-built data) is freed on drop, as is
//! anything under the smallest class.
//!
//! Properties the rest of the stack relies on:
//!
//! * **Bitwise neutrality.** A pooled buffer is either fully overwritten
//!   before it is read (`take_raw`) or explicitly zero-filled
//!   (`take_zeroed`), so results are bit-for-bit identical with the pool
//!   on or off. The determinism suites assert this.
//! * **Thread locality.** Each thread owns its pool; no locks, no
//!   cross-thread recycling. The parallel kernels in [`crate::par`] write
//!   into pre-allocated buffers and never allocate tensors on workers, so
//!   in practice the pool lives on the training thread.
//! * **Bounded retention.** Buckets cap their buffer count and the pool
//!   caps total retained bytes per thread; overflow is freed (and counted
//!   as an eviction) rather than hoarded. A thread whose workload changes
//!   shape from one unit of work to the next (the serving executor, one
//!   batch at a time) calls [`trim_idle`] between units, which frees the
//!   buffers the last unit did not recycle.
//!
//! The pool is on by default; `OOD_POOL=0` disables it at startup and
//! [`set_enabled`] toggles it at runtime (`perf_gate`'s thread × pool
//! matrix uses this to measure on/off deltas in one process). Hit/miss/bytes-reused
//! counters are global relaxed atomics surfaced through
//! [`crate::profile::snapshot`] and the `tensor_memory` telemetry event.

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Smallest pooled capacity in elements (smaller requests still round up
/// to this class, so even scalar node buffers recycle).
const MIN_CLASS: usize = 64;
/// Buffers retained per size class per thread.
const MAX_CLASS_BUFFERS: usize = 64;
/// Total bytes retained per thread before give() starts freeing.
const MAX_RETAINED_BYTES: u64 = 256 << 20;
/// Shared-constant cache entries (distinct shapes) before a full clear.
const MAX_SHARED_SHAPES: usize = 256;
/// [`trim_idle`] keeps the buffers returned within this many of its most
/// recent calls, counting the period since the last call as one.
const TRIM_WINDOW: u64 = 1;

// ------------------------------------------------------------- global stats

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_REUSED: AtomicU64 = AtomicU64::new(0);
static RETAINED_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_RETAINED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Point-in-time copy of the pool counters (process-wide, summed over all
/// thread-local pools).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Whether the pool is currently recycling buffers.
    pub enabled: bool,
    /// Allocation requests served from a recycled buffer.
    pub hits: u64,
    /// Allocation requests that fell through to the system allocator while
    /// the pool was enabled.
    pub misses: u64,
    /// Fresh heap allocations made through the pool API (misses while
    /// enabled plus every request while disabled) — the `allocations`
    /// column of `perf_gate`'s thread × pool matrix.
    pub allocations: u64,
    /// Buffers accepted back into the pool.
    pub returns: u64,
    /// Buffers freed instead of retained (bucket or byte cap reached).
    pub evictions: u64,
    /// Bytes served from recycled buffers instead of the allocator.
    pub bytes_reused: u64,
    /// Bytes currently parked in the pool awaiting reuse.
    pub retained_bytes: u64,
    /// High-water mark of [`PoolStats::retained_bytes`]: the most memory
    /// the pool ever held at once (the run-manifest "peak pool bytes"
    /// gauge). Reset by [`reset_stats`] to the current retained level.
    pub peak_retained_bytes: u64,
}

/// Snapshot the pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        enabled: enabled(),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        returns: RETURNS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        bytes_reused: BYTES_REUSED.load(Ordering::Relaxed),
        retained_bytes: RETAINED_BYTES.load(Ordering::Relaxed),
        peak_retained_bytes: PEAK_RETAINED_BYTES.load(Ordering::Relaxed),
    }
}

/// Zero the cumulative counters (retained bytes reflect live pool contents
/// and are left alone). Benches call this between measured phases.
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    RETURNS.store(0, Ordering::Relaxed);
    EVICTIONS.store(0, Ordering::Relaxed);
    BYTES_REUSED.store(0, Ordering::Relaxed);
    // The high-water restarts from whatever the pool currently holds.
    PEAK_RETAINED_BYTES.store(RETAINED_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

// ------------------------------------------------------------- enable flag

/// 0 = uninitialized (consult `OOD_POOL`), 1 = enabled, 2 = disabled.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

/// Whether buffer recycling is active. Defaults to on; `OOD_POOL=0`
/// disables it at first use.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = !std::env::var("OOD_POOL").is_ok_and(|v| v == "0");
            // Racing initializers read the same env var.
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
        1 => true,
        _ => false,
    }
}

/// Enable or disable recycling at runtime (overrides `OOD_POOL`).
/// Disabling also drains this thread's retained buffers so on/off phases
/// of a bench don't share warm state. Returns the previous setting.
pub fn set_enabled(on: bool) -> bool {
    let prev = enabled();
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    if !on {
        drain_thread_pool();
    }
    prev
}

/// Free every buffer in this thread's pool that has not been returned since
/// the previous call, then start a new period. Bitwise-neutral like the
/// rest of the pool: a later request is served by a fresh allocation
/// instead of a recycled one.
pub fn trim_idle() {
    let _ = POOL.try_with(|p| {
        let mut pool = p.borrow_mut();
        let keep_from = (pool.epoch + 1).saturating_sub(TRIM_WINDOW);
        let mut freed = 0u64;
        pool.buckets.retain(|_, bucket| {
            bucket.retain(|(v, epoch)| {
                let keep = *epoch >= keep_from;
                if !keep {
                    freed += (v.capacity() * std::mem::size_of::<f32>()) as u64;
                }
                keep
            });
            !bucket.is_empty()
        });
        pool.retained_bytes -= freed;
        pool.epoch += 1;
        RETAINED_BYTES.fetch_sub(freed, Ordering::Relaxed);
    });
}

/// Free every buffer retained by this thread's pool (and its shared
/// constant cache).
pub fn drain_thread_pool() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        RETAINED_BYTES.fetch_sub(pool.retained_bytes, Ordering::Relaxed);
        pool.retained_bytes = 0;
        pool.buckets.clear();
    });
    SHARED.with(|s| s.borrow_mut().clear());
}

// ------------------------------------------------------------ the buckets

struct ThreadPool {
    /// `log2(capacity class)` -> buffers of exactly that capacity, each
    /// tagged with the [`ThreadPool::epoch`] it was returned in.
    buckets: HashMap<u32, Vec<(Vec<f32>, u64)>>,
    /// Bytes retained by this thread (mirrored into [`RETAINED_BYTES`]).
    retained_bytes: u64,
    /// Number of [`trim_idle`] calls on this thread.
    epoch: u64,
}

thread_local! {
    static POOL: RefCell<ThreadPool> = RefCell::new(ThreadPool {
        buckets: HashMap::new(),
        retained_bytes: 0,
        epoch: 0,
    });
    /// Per-shape cached all-ones / all-zeros tensors, shared by reference
    /// (backward seeds, unreached-gradient reads).
    static SHARED: RefCell<HashMap<(Shape, u32), Tensor>> = RefCell::new(HashMap::new());
}

/// Class that a *request* of `n` elements is served from: smallest
/// power-of-two ≥ max(n, MIN_CLASS), so any buffer in the bucket has
/// enough capacity.
#[inline]
fn request_class(n: usize) -> u32 {
    n.max(MIN_CLASS).next_power_of_two().trailing_zeros()
}

/// Class that a buffer of the given *capacity* is filed under: only a
/// capacity that is exactly a class size (a power of two ≥ `MIN_CLASS`,
/// as [`take_raw`] allocates) has one. Any other buffer gets `None` and is
/// freed, since no request would be served from it at its full size.
#[inline]
fn capacity_class(cap: usize) -> Option<u32> {
    (cap >= MIN_CLASS && cap.is_power_of_two()).then(|| cap.trailing_zeros())
}

/// A buffer of length `n` with unspecified contents. Callers must write
/// every element before reading — all call sites are full `fill`/copy
/// kernels, which is what keeps pooled and unpooled runs bitwise equal.
///
/// The request is served from its own class, or else from the next class
/// up: batch sizes vary, and without the fallback each class would keep
/// its own peak set of buffers.
pub(crate) fn take_raw(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    if enabled() {
        let cls = request_class(n);
        // try_with: during thread teardown the pool TLS may already be
        // destroyed; fall through to a plain allocation.
        let reused = POOL
            .try_with(|p| {
                let mut pool = p.borrow_mut();
                let v = [cls, cls + 1]
                    .into_iter()
                    .find_map(|c| pool.buckets.get_mut(&c).and_then(|b| b.pop()))
                    .map(|(v, _)| v);
                if let Some(ref v) = v {
                    let bytes = (v.capacity() * std::mem::size_of::<f32>()) as u64;
                    pool.retained_bytes = pool.retained_bytes.saturating_sub(bytes);
                    RETAINED_BYTES.fetch_sub(bytes, Ordering::Relaxed);
                }
                v
            })
            .unwrap_or(None);
        if let Some(mut v) = reused {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_REUSED.fetch_add((n * std::mem::size_of::<f32>()) as u64, Ordering::Relaxed);
            if v.len() >= n {
                v.truncate(n);
            } else {
                // Only the tail beyond the previous length is written here;
                // the head keeps stale values the caller will overwrite.
                v.resize(n, 0.0);
            }
            return v;
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // Round the fresh allocation up to its class so it re-enters the same
    // bucket it will later be requested from.
    let cap = 1usize << request_class(n);
    let mut v = Vec::with_capacity(cap);
    v.resize(n, 0.0);
    v
}

/// A zero-filled buffer of length `n`.
pub(crate) fn take_zeroed(n: usize) -> Vec<f32> {
    let mut v = take_raw(n);
    v.fill(0.0);
    v
}

/// Return a buffer to the pool (called from tensor storage drops). Buffers
/// without a class (see [`capacity_class`]) and overflow beyond the
/// retention caps are freed.
pub(crate) fn give(v: Vec<f32>) {
    if !enabled() {
        return;
    }
    let Some(cls) = capacity_class(v.capacity()) else {
        return;
    };
    let bytes = (v.capacity() * std::mem::size_of::<f32>()) as u64;
    // try_with: drops during thread teardown (after the pool TLS is gone)
    // simply free the buffer.
    let accepted = POOL
        .try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.retained_bytes + bytes > MAX_RETAINED_BYTES {
                return false;
            }
            let epoch = pool.epoch;
            let bucket = pool.buckets.entry(cls).or_default();
            if bucket.len() >= MAX_CLASS_BUFFERS {
                return false;
            }
            bucket.push((v, epoch));
            pool.retained_bytes += bytes;
            true
        })
        .unwrap_or(false);
    if accepted {
        RETURNS.fetch_add(1, Ordering::Relaxed);
        let now = RETAINED_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_RETAINED_BYTES.fetch_max(now, Ordering::Relaxed);
    } else {
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// ------------------------------------------------------ shared constants

fn shared_const(shape: &Shape, v: f32, tag: u32) -> Tensor {
    SHARED.with(|s| {
        let mut cache = s.borrow_mut();
        if cache.len() >= MAX_SHARED_SHAPES {
            cache.clear();
        }
        cache
            .entry((shape.clone(), tag))
            .or_insert_with(|| Tensor::full(shape.clone(), v))
            .clone()
    })
}

/// A cached all-ones tensor of the given shape. The returned tensor
/// shares storage with the cache entry (clones are O(1)), so repeated
/// backward seeds stop allocating.
pub fn shared_ones(shape: &Shape) -> Tensor {
    shared_const(shape, 1.0, 1)
}

/// A cached all-zeros tensor of the given shape, for callers that only
/// read (e.g. [`crate::Gradients::get_or_zeros`] on unreached nodes).
pub fn shared_zeros(shape: &Shape) -> Tensor {
    shared_const(shape, 0.0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_enabled` is process-global; serialize the tests that flip it.
    static ENABLED_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        ENABLED_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn classes_are_consistent() {
        // Any fresh allocation's bucket must serve requests of its size.
        for n in [1, 63, 64, 65, 100, 1024, 4097] {
            let req = request_class(n);
            let cap = 1usize << req;
            assert!(cap >= n);
            assert_eq!(capacity_class(cap), Some(req));
        }
        assert_eq!(capacity_class(0), None);
        assert_eq!(capacity_class(MIN_CLASS - 1), None);
        assert_eq!(capacity_class(1000), None);
    }

    #[test]
    fn round_trip_reuses_buffer() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        let before = stats();
        let v = take_raw(1000);
        let ptr = v.as_ptr();
        give(v);
        let v2 = take_raw(900); // same class (1024)
        assert_eq!(v2.as_ptr(), ptr, "buffer should be recycled");
        assert_eq!(v2.len(), 900);
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.bytes_reused >= before.bytes_reused + 900 * 4);
        set_enabled(was);
    }

    #[test]
    fn take_zeroed_is_really_zero_after_reuse() {
        let _guard = lock();
        let was = set_enabled(true);
        let mut v = take_raw(256);
        v.fill(7.0);
        give(v);
        let z = take_zeroed(256);
        assert!(z.iter().all(|&x| x == 0.0));
        set_enabled(was);
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let _guard = lock();
        let was = set_enabled(false);
        let v = take_raw(512);
        give(v);
        let retained = POOL.with(|p| p.borrow().retained_bytes);
        assert_eq!(retained, 0);
        set_enabled(was);
    }

    #[test]
    fn peak_retained_bytes_is_a_high_water_mark() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        let v = take_raw(4096);
        give(v);
        let after_give = stats();
        assert!(after_give.peak_retained_bytes >= 4096 * 4);
        // Taking the buffer back lowers retained bytes but never the peak.
        let _v = take_raw(4096);
        let after_take = stats();
        assert!(after_take.peak_retained_bytes >= after_give.peak_retained_bytes);
        set_enabled(was);
    }

    /// This thread's pool: (buffers in the class of `n`, retained bytes,
    /// sum of the bucketed capacities in bytes).
    fn thread_pool_view(n: usize) -> (usize, u64, u64) {
        POOL.with(|p| {
            let pool = p.borrow();
            let in_class = pool.buckets.get(&request_class(n)).map_or(0, Vec::len);
            let bucketed = pool
                .buckets
                .values()
                .flatten()
                .map(|(v, _)| (v.capacity() * std::mem::size_of::<f32>()) as u64)
                .sum();
            (in_class, pool.retained_bytes, bucketed)
        })
    }

    #[test]
    fn trim_frees_idle_buffers_and_keeps_recycled_ones() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        let (busy, idle) = (take_raw(1000), take_raw(5000));
        let busy_ptr = busy.as_ptr();
        give(busy);
        give(idle);
        // Both were returned since the last trim: both survive it.
        trim_idle();
        assert_eq!(thread_pool_view(1000).0, 1);
        assert_eq!(thread_pool_view(5000).0, 1);
        // Recycle one of them in every period of the window; the other
        // sits idle and goes.
        for _ in 0..TRIM_WINDOW {
            let v = take_raw(1000);
            assert_eq!(v.as_ptr(), busy_ptr, "the recycled buffer survived");
            give(v);
            trim_idle();
        }
        assert_eq!(thread_pool_view(1000).0, 1);
        assert_eq!(thread_pool_view(5000).0, 0, "the idle buffer was freed");
        let (_, retained, bucketed) = thread_pool_view(0);
        assert_eq!(retained, bucketed);
        assert_eq!(retained, 1024 * 4);
        drain_thread_pool();
        set_enabled(was);
    }

    #[test]
    fn trim_keeps_retained_bytes_equal_to_the_buckets() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        for round in 0..6usize {
            // A different mix of sizes each round, some reused.
            let bufs: Vec<Vec<f32>> = (0..round + 2)
                .map(|i| take_raw(64 << ((i + round) % 5)))
                .collect();
            bufs.into_iter().for_each(give);
            trim_idle();
            let (_, retained, bucketed) = thread_pool_view(0);
            assert_eq!(retained, bucketed, "round {round}");
        }
        drain_thread_pool();
        trim_idle();
        assert_eq!(thread_pool_view(0).1, 0, "trimming an empty pool");
        set_enabled(was);
    }

    #[test]
    fn buffers_without_a_class_are_freed() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        // Exact-size storage, as `Tensor::from_vec` of caller-built data has.
        let v = vec![1.0f32; 1000];
        assert_eq!(v.capacity(), 1000);
        give(v);
        let (_, retained, bucketed) = thread_pool_view(0);
        assert_eq!((retained, bucketed), (0, 0), "the buffer was freed");
        // With the pool empty, the next request can only be a miss.
        let before = stats();
        let v = take_raw(1000);
        assert!(stats().misses > before.misses);
        assert_eq!(v.capacity(), 1024, "fresh buffers get a class size");
        set_enabled(was);
    }

    #[test]
    fn an_empty_class_falls_back_one_class_up_only() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        // One class up (2048 for a 1000-element request) serves the request.
        let up_one = take_raw(2000);
        let ptr = up_one.as_ptr();
        give(up_one);
        let v = take_raw(1000);
        assert_eq!(v.as_ptr(), ptr, "served from the next class up");
        assert_eq!(v.len(), 1000);
        drop(v);
        drain_thread_pool();
        // Two classes up (4096) does not: that buffer stays filed.
        let up_two = take_raw(4000);
        let ptr = up_two.as_ptr();
        give(up_two);
        let v = take_raw(1000);
        assert_ne!(v.as_ptr(), ptr);
        assert_eq!(thread_pool_view(4000).0, 1, "two classes up is kept");
        drain_thread_pool();
        set_enabled(was);
    }

    #[test]
    fn replaying_two_batch_sizes_retains_a_fixed_set() {
        let _guard = lock();
        let was = set_enabled(true);
        drain_thread_pool();
        // One "step" per round, alternating batch sizes: exact-size inputs
        // built with `from_vec`, then pooled intermediates on top of them.
        let step = |rows: usize| {
            let x = Tensor::from_vec(vec![0.5; rows * 10], [rows, 10]);
            let h = x.mul_scalar(2.0).add(&x);
            let y = h.sum_rows().add_scalar(1.0);
            assert!(y.data().iter().all(|&v| v == 1.0 + 1.5 * rows as f32));
        };
        let mut after = Vec::new();
        for round in 0..40 {
            step(if round % 2 == 0 { 100 } else { 300 });
            after.push(thread_pool_view(0).1);
        }
        assert!(after[1] > 0, "the pooled intermediates were kept");
        assert!(
            after[1..].iter().all(|&b| b == after[1]),
            "retained bytes grew after round 2: {after:?}"
        );
        drain_thread_pool();
        set_enabled(was);
    }

    #[test]
    fn shared_constants_share_storage() {
        let shape = Shape::new(&[3, 3]);
        let a = shared_ones(&shape);
        let b = shared_ones(&shape);
        assert_eq!(a.data(), b.data());
        assert!(a.data().iter().all(|&x| x == 1.0));
        let z = shared_zeros(&shape);
        assert!(z.data().iter().all(|&x| x == 0.0));
    }
}
