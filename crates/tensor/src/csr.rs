//! Cached CSR (compressed sparse row) index over scatter destinations.
//!
//! `scatter_add_rows` and the segment reductions are handed a flat
//! `indices[i] = destination row of input row i` list — for message
//! passing this is `edge_dst`, reused verbatim for every layer of every
//! forward/backward pass over the same batch. A [`CsrIndex`] inverts that
//! list once — `row(s)` yields the ascending input rows targeting
//! destination `s` — so aggregation becomes an embarrassingly parallel
//! per-destination-row contiguous sum instead of a sequential scatter.
//!
//! Because the index lists *input rows in ascending order per
//! destination*, a kernel that folds them left-to-right reproduces the
//! exact float schedule of the classic sequential input-order scatter
//! loop: for any single output element, the contributions arrive in the
//! same order either way. That is what lets the CSR path parallelize over
//! destination rows while staying bitwise-identical to the scalar
//! reference at every `OOD_THREADS` setting.
//!
//! The cache mirrors the decorrelation mask-cache idiom: thread-local,
//! keyed by the `Rc` pointer identity of the index list (plus the
//! destination-row count), holding a keepalive clone of the `Rc` so the
//! pointer can never be recycled by a dropped-and-reallocated vector
//! while the entry lives. Graph batches share their `edge_dst` via
//! `Rc<Vec<usize>>`, so every layer and every epoch touching the same
//! batch hits the same entry. The map is cleared when it exceeds
//! `MAX_ENTRIES` — caches are per-thread and batches are few, so
//! clearing is simpler and is not observable in results, only in speed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Inverted scatter-destination index: for each destination row `s`,
/// the ascending list of input rows `i` with `indices[i] == s`.
#[derive(Debug, Clone)]
pub struct CsrIndex {
    /// `members[offsets[s]..offsets[s + 1]]` are the input rows targeting
    /// destination `s`, ascending. Length `num_rows + 1`.
    offsets: Vec<usize>,
    /// Input rows grouped by destination; length `num_items`.
    members: Vec<usize>,
    num_rows: usize,
    num_items: usize,
}

impl CsrIndex {
    /// Invert `indices` (input row → destination row) into per-destination
    /// ascending member lists. Panics if any index is out of bounds, like
    /// the scatter kernels it serves.
    pub fn build(indices: &[usize], num_rows: usize) -> Self {
        let mut offsets = vec![0usize; num_rows + 1];
        for &dst in indices {
            assert!(
                dst < num_rows,
                "scatter index {dst} out of bounds {num_rows}"
            );
            offsets[dst + 1] += 1;
        }
        for s in 0..num_rows {
            offsets[s + 1] += offsets[s];
        }
        let mut members = vec![0usize; indices.len()];
        let mut cursor = offsets.clone();
        // Ascending input order per destination falls out of the forward
        // sweep: members within a row are pushed in increasing `i`.
        for (i, &dst) in indices.iter().enumerate() {
            members[cursor[dst]] = i;
            cursor[dst] += 1;
        }
        CsrIndex {
            offsets,
            members,
            num_rows,
            num_items: indices.len(),
        }
    }

    /// Destination-row count this index was built for.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Input-row count (length of the original index list).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Ascending input rows targeting destination `s`.
    #[inline]
    pub fn row(&self, s: usize) -> &[usize] {
        &self.members[self.offsets[s]..self.offsets[s + 1]]
    }

    /// In-degree of destination `s`.
    #[inline]
    pub fn degree(&self, s: usize) -> usize {
        self.offsets[s + 1] - self.offsets[s]
    }
}

/// Cache entries per thread before a wholesale clear.
const MAX_ENTRIES: usize = 64;

thread_local! {
    /// `(Rc pointer, num_rows)` → `(keepalive Rc, index)`.
    #[allow(clippy::type_complexity)]
    static CACHE: RefCell<HashMap<(usize, usize), (Rc<Vec<usize>>, Rc<CsrIndex>)>> =
        RefCell::new(HashMap::new());
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// The CSR index for `indices` × `num_rows`, built on first use and
/// cached thread-locally by `Rc` pointer identity (the keepalive clone in
/// the entry guarantees the pointer stays valid and un-recycled).
pub fn cached(indices: &Rc<Vec<usize>>, num_rows: usize) -> Rc<CsrIndex> {
    let key = (Rc::as_ptr(indices) as usize, num_rows);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, idx)) = cache.get(&key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return idx.clone();
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        if cache.len() >= MAX_ENTRIES {
            cache.clear();
        }
        let idx = Rc::new(CsrIndex::build(indices, num_rows));
        cache.insert(key, (indices.clone(), idx.clone()));
        idx
    })
}

/// `(hits, misses)` across all threads since the last [`reset_stats`].
pub fn cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Zero the global hit/miss counters (the per-thread maps are untouched).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_groups_members_ascending() {
        let idx = CsrIndex::build(&[2, 0, 2, 1, 0, 2], 4);
        assert_eq!(idx.num_rows(), 4);
        assert_eq!(idx.num_items(), 6);
        assert_eq!(idx.row(0), &[1, 4]);
        assert_eq!(idx.row(1), &[3]);
        assert_eq!(idx.row(2), &[0, 2, 5]);
        assert_eq!(idx.row(3), &[] as &[usize]);
        assert_eq!(idx.degree(2), 3);
        assert_eq!(idx.degree(3), 0);
    }

    #[test]
    fn build_handles_empty_inputs() {
        let idx = CsrIndex::build(&[], 3);
        assert_eq!(idx.num_items(), 0);
        for s in 0..3 {
            assert!(idx.row(s).is_empty());
        }
        let zero = CsrIndex::build(&[], 0);
        assert_eq!(zero.num_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn build_rejects_out_of_range() {
        CsrIndex::build(&[0, 3], 3);
    }

    #[test]
    fn cached_reuses_by_pointer_identity() {
        let indices = Rc::new(vec![0usize, 1, 0]);
        reset_stats();
        let a = cached(&indices, 2);
        let (_, m0) = cache_stats();
        let b = cached(&indices, 2);
        let (h1, m1) = cache_stats();
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(m1, m0, "second lookup must not rebuild");
        assert!(h1 >= 1);
        // Same contents, different allocation → distinct entry.
        let other = Rc::new(vec![0usize, 1, 0]);
        let c = cached(&other, 2);
        assert!(!Rc::ptr_eq(&a, &c));
        // Same allocation, different row count → distinct entry.
        let d = cached(&indices, 5);
        assert_eq!(d.num_rows(), 5);
        assert!(!Rc::ptr_eq(&a, &d));
    }

    #[test]
    fn cache_clears_on_overflow_and_keeps_working() {
        let pinned = Rc::new(vec![0usize]);
        let _ = cached(&pinned, 1);
        for _ in 0..(MAX_ENTRIES + 4) {
            let tmp = Rc::new(vec![0usize, 0]);
            let idx = cached(&tmp, 1);
            assert_eq!(idx.row(0), &[0, 1]);
        }
        // Still correct after however many clears happened.
        let again = cached(&pinned, 1);
        assert_eq!(again.row(0), &[0]);
    }
}
