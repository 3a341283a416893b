//! Always-on tensor-op profiling counters.
//!
//! Every [`crate::Tape`] push bumps a handful of relaxed [`AtomicU64`]s:
//! per-op-kind invocation counts, total elements produced, the longest
//! tape seen, and live/peak bytes held by tape arenas. The cost is a few
//! uncontended relaxed atomics per recorded op — negligible next to the
//! tensor math itself — so there is no enable flag.
//!
//! The tensor crate stays dependency-free: consumers (the bench
//! telemetry layer) pull a [`snapshot`] and forward it to whatever
//! observability stream they use.

use crate::ops::Op;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of [`Op`] kinds tracked (one counter per enum variant).
pub const N_OPS: usize = 38;

/// Display names, indexed like the per-op counters.
pub const OP_NAMES: [&str; N_OPS] = [
    "leaf",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "add_scalar",
    "mul_scalar",
    "pow_scalar",
    "matmul",
    "transpose",
    "relu",
    "sigmoid",
    "tanh",
    "cos",
    "exp",
    "log",
    "sqrt",
    "softplus",
    "sum",
    "mean",
    "sum_axis",
    "mean_axis",
    "reshape",
    "concat_rows",
    "concat_cols",
    "slice_rows",
    "index_select",
    "scatter_add_rows",
    "segment_max",
    "segment_min",
    "log_softmax",
    "weighted_center",
    "scaled_masked_sq_sum",
    "cos_feature",
    "neighbor_sum",
    "linear",
    "batch_norm",
];

pub(crate) fn op_kind(op: &Op) -> usize {
    match op {
        Op::Leaf => 0,
        Op::Add(..) => 1,
        Op::Sub(..) => 2,
        Op::Mul(..) => 3,
        Op::Div(..) => 4,
        Op::Neg(..) => 5,
        Op::AddScalar(..) => 6,
        Op::MulScalar(..) => 7,
        Op::PowScalar(..) => 8,
        Op::Matmul(..) => 9,
        Op::Transpose(..) => 10,
        Op::Relu(..) => 11,
        Op::Sigmoid(..) => 12,
        Op::Tanh(..) => 13,
        Op::Cos(..) => 14,
        Op::Exp(..) => 15,
        Op::Log(..) => 16,
        Op::Sqrt(..) => 17,
        Op::Softplus(..) => 18,
        Op::Sum(..) => 19,
        Op::Mean(..) => 20,
        Op::SumAxis(..) => 21,
        Op::MeanAxis(..) => 22,
        Op::Reshape(..) => 23,
        Op::ConcatRows(..) => 24,
        Op::ConcatCols(..) => 25,
        Op::SliceRows(..) => 26,
        Op::IndexSelect(..) => 27,
        Op::ScatterAddRows(..) => 28,
        Op::SegmentMax(..) => 29,
        Op::SegmentMin(..) => 30,
        Op::LogSoftmax(..) => 31,
        Op::WeightedCenter(..) => 32,
        Op::ScaledMaskedSqSum(..) => 33,
        Op::CosFeature(..) => 34,
        Op::NeighborSum(..) => 35,
        Op::Linear(..) => 36,
        Op::BatchNorm(..) => 37,
    }
}

static OP_COUNTS: [AtomicU64; N_OPS] = [const { AtomicU64::new(0) }; N_OPS];
static ELEMENTS_TOTAL: AtomicU64 = AtomicU64::new(0);
static BACKWARD_CALLS: AtomicU64 = AtomicU64::new(0);
static MAX_TAPE_LEN: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Kernel families whose parallel executions are timed separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Row-blocked matrix multiplication.
    Matmul = 0,
    /// Elementwise map / broadcasted binary ops / activations.
    Elementwise = 1,
    /// Row-wise log-softmax.
    LogSoftmax = 2,
    /// Segment reductions (sum/mean/max/min) and scatter-add.
    Segment = 3,
    /// Row gathers (index-select).
    Gather = 4,
    /// Chunked map-reduce accumulations (e.g. HSIC pair sums).
    Reduce = 5,
    /// CSR per-destination-row aggregation (cached-index scatter-add).
    Csr = 6,
}

/// Number of [`Kernel`] families tracked.
pub const N_KERNELS: usize = 7;

/// Display names, indexed like the per-kernel counters.
pub const KERNEL_NAMES: [&str; N_KERNELS] = [
    "matmul",
    "elementwise",
    "log_softmax",
    "segment",
    "gather",
    "reduce",
    "csr",
];

static PAR_REGIONS: [AtomicU64; N_KERNELS] = [const { AtomicU64::new(0) }; N_KERNELS];
static PAR_CHUNKS: [AtomicU64; N_KERNELS] = [const { AtomicU64::new(0) }; N_KERNELS];
static PAR_NANOS: [AtomicU64; N_KERNELS] = [const { AtomicU64::new(0) }; N_KERNELS];

/// Hook called by [`crate::Tape`] on every node push.
#[inline]
pub(crate) fn record_op(op: &Op, elements: usize, tape_len: usize, bytes: u64) {
    OP_COUNTS[op_kind(op)].fetch_add(1, Ordering::Relaxed);
    ELEMENTS_TOTAL.fetch_add(elements as u64, Ordering::Relaxed);
    MAX_TAPE_LEN.fetch_max(tape_len as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Hook called when a backward sweep starts.
#[inline]
pub(crate) fn record_backward() {
    BACKWARD_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Hook called when a tape arena is dropped, releasing its buffers.
#[inline]
pub(crate) fn release_bytes(bytes: u64) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

/// Hook called by [`crate::par`] once per multi-chunk region. Regions are
/// timed at every thread count — including the sequential `t=1` path — so
/// per-kernel tables compare like-for-like across `OOD_THREADS`;
/// single-chunk problems of chunked kernels are never counted. The
/// unchunkable folds of `par::sequential` count as one-chunk regions.
#[inline]
pub(crate) fn record_parallel(kernel: Kernel, chunks: usize, nanos: u64) {
    let k = kernel as usize;
    PAR_REGIONS[k].fetch_add(1, Ordering::Relaxed);
    PAR_CHUNKS[k].fetch_add(chunks as u64, Ordering::Relaxed);
    PAR_NANOS[k].fetch_add(nanos, Ordering::Relaxed);
}

/// Point-in-time copy of the process-wide profiling counters.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Total tape nodes recorded (all op kinds).
    pub ops_total: u64,
    /// Total elements produced by recorded nodes.
    pub elements_total: u64,
    /// Number of backward sweeps.
    pub backward_calls: u64,
    /// Longest tape (in nodes) observed.
    pub max_tape_len: u64,
    /// Bytes currently held by live tape arenas.
    pub live_bytes: u64,
    /// High-water mark of [`ProfileSnapshot::live_bytes`].
    pub peak_live_bytes: u64,
    /// Invocation count per op kind, indexed like [`OP_NAMES`].
    pub per_op: [u64; N_OPS],
    /// Active thread count of the parallel execution layer.
    pub threads: u64,
    /// Multi-chunk regions executed per kernel family, indexed like
    /// [`KERNEL_NAMES`], plus the one-chunk sequential folds. Timed at
    /// every thread count (single-chunk problems of chunked kernels are
    /// not counted).
    pub par_regions: [u64; N_KERNELS],
    /// Chunks dispatched across all parallel regions, per kernel family.
    pub par_chunks: [u64; N_KERNELS],
    /// Wall-clock nanoseconds spent inside parallel regions, per kernel
    /// family (region duration, not summed per-thread time).
    pub par_nanos: [u64; N_KERNELS],
    /// Buffer-pool counters (hits, misses, bytes reused, …) from the
    /// tensor memory engine ([`crate::pool`]).
    pub pool: crate::pool::PoolStats,
    /// CSR index-cache hits ([`crate::csr`]) since the last reset.
    pub csr_hits: u64,
    /// CSR index-cache misses (index builds) since the last reset.
    pub csr_misses: u64,
}

impl ProfileSnapshot {
    /// `(name, count)` for every op kind invoked at least once, densest
    /// first.
    pub fn per_op_nonzero(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = OP_NAMES
            .iter()
            .zip(self.per_op.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&n, &c)| (n, c))
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    /// `(name, regions, chunks, nanos)` for every kernel family that ran
    /// at least one parallel region, most regions first.
    pub fn per_kernel_nonzero(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut v: Vec<(&'static str, u64, u64, u64)> = KERNEL_NAMES
            .iter()
            .enumerate()
            .filter(|&(k, _)| self.par_regions[k] > 0)
            .map(|(k, &n)| {
                (
                    n,
                    self.par_regions[k],
                    self.par_chunks[k],
                    self.par_nanos[k],
                )
            })
            .collect();
        v.sort_by_key(|&(_, n, _, _)| std::cmp::Reverse(n));
        v
    }
}

/// Snapshot the current counters.
pub fn snapshot() -> ProfileSnapshot {
    let mut per_op = [0u64; N_OPS];
    let mut ops_total = 0u64;
    for (slot, counter) in per_op.iter_mut().zip(OP_COUNTS.iter()) {
        *slot = counter.load(Ordering::Relaxed);
        ops_total += *slot;
    }
    let mut par_regions = [0u64; N_KERNELS];
    let mut par_chunks = [0u64; N_KERNELS];
    let mut par_nanos = [0u64; N_KERNELS];
    for k in 0..N_KERNELS {
        par_regions[k] = PAR_REGIONS[k].load(Ordering::Relaxed);
        par_chunks[k] = PAR_CHUNKS[k].load(Ordering::Relaxed);
        par_nanos[k] = PAR_NANOS[k].load(Ordering::Relaxed);
    }
    ProfileSnapshot {
        ops_total,
        elements_total: ELEMENTS_TOTAL.load(Ordering::Relaxed),
        backward_calls: BACKWARD_CALLS.load(Ordering::Relaxed),
        max_tape_len: MAX_TAPE_LEN.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
        per_op,
        threads: crate::par::current_threads() as u64,
        par_regions,
        par_chunks,
        par_nanos,
        pool: crate::pool::stats(),
        csr_hits: crate::csr::cache_stats().0,
        csr_misses: crate::csr::cache_stats().1,
    }
}

/// Zero every counter except live bytes (owned by still-alive tapes).
pub fn reset() {
    for c in &OP_COUNTS {
        c.store(0, Ordering::Relaxed);
    }
    ELEMENTS_TOTAL.store(0, Ordering::Relaxed);
    BACKWARD_CALLS.store(0, Ordering::Relaxed);
    MAX_TAPE_LEN.store(0, Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    for k in 0..N_KERNELS {
        PAR_REGIONS[k].store(0, Ordering::Relaxed);
        PAR_CHUNKS[k].store(0, Ordering::Relaxed);
        PAR_NANOS[k].store(0, Ordering::Relaxed);
    }
    crate::csr::reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tape, Tensor};

    // Counters are process-global and tests run concurrently, so assert
    // deltas, not absolute values.
    #[test]
    fn tape_work_moves_the_counters() {
        let before = snapshot();
        {
            let mut t = Tape::new();
            let x = t.leaf(Tensor::from_vec(vec![1.0; 64], [8, 8]));
            let y = t.matmul(x, x);
            let s = t.sum(y);
            let _ = t.backward(s);
            let during = snapshot();
            assert!(during.ops_total >= before.ops_total + 3);
            assert!(during.elements_total > before.elements_total + 64 * 2);
            assert!(during.backward_calls > before.backward_calls);
            assert!(during.max_tape_len >= 3);
            // 3 nodes * (64 or 1) f32s held live by this tape.
            assert!(during.peak_live_bytes >= (64 + 64 + 1) * 4);
            // Index 9 is matmul in OP_NAMES; exactly one was recorded here.
            assert_eq!(OP_NAMES[9], "matmul");
            assert!(during.per_op[9] > before.per_op[9]);
        }
        let after = snapshot();
        assert!(after.backward_calls > before.backward_calls);
    }

    #[test]
    fn per_op_nonzero_sorts_descending() {
        {
            let mut t = Tape::new();
            let x = t.leaf(Tensor::scalar(1.0));
            let _ = t.add(x, x);
        }
        let counts = snapshot().per_op_nonzero();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(counts.iter().any(|&(n, _)| n == "leaf"));
    }

    #[test]
    fn op_names_cover_every_kind() {
        assert_eq!(OP_NAMES.len(), N_OPS);
        let unique: std::collections::BTreeSet<_> = OP_NAMES.iter().collect();
        assert_eq!(unique.len(), N_OPS);
    }
}
