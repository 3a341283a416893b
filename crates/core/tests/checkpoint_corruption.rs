//! Hostile-header guard for the checkpoint loader: forged length fields
//! must come back from [`TrainCheckpoint::load`] as an `Err` — never a
//! panic or an allocation abort — without any large allocation. (Every
//! bit flip and truncation of a real file is covered by the unit tests.)

use oodgnn_core::TrainCheckpoint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// System allocator recording the calling thread's largest request
/// (`alloc_zeroed` and `realloc` default to `alloc`).
struct PeakRequestAlloc;

unsafe impl GlobalAlloc for PeakRequestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread tears down.
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakRequestAlloc = PeakRequestAlloc;

/// The `OODS` v1 header followed by `words`, little-endian.
fn file(words: &[u32]) -> Vec<u8> {
    let mut bytes = b"OODS\x01".to_vec();
    bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    bytes
}

/// A file with one section named `m`, followed by `rest`.
fn one_section(rest: &[u32]) -> Vec<u8> {
    let mut bytes = file(&[1, 1]);
    bytes.push(b'm');
    bytes.extend(rest.iter().flat_map(|w| w.to_le_bytes()));
    bytes
}

#[test]
fn hostile_headers_are_rejected_without_large_allocations() {
    let dir = std::env::temp_dir().join(format!("oodgnn_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("evil.oods");
    let max = u32::MAX;
    let cases = [
        ("u32::MAX sections", file(&[max])),
        ("u32::MAX name length", file(&[1, max])),
        ("u32::MAX tensors", one_section(&[max])),
        ("huge shape", one_section(&[1, 2, 65536, 65536])),
        ("overflowing shape", one_section(&[1, 3, max, max, max])),
        ("rank too large", one_section(&[1, 9])),
        ("u32::MAX ints", one_section(&[0, max])),
        ("u32::MAX floats", one_section(&[0, 0, max])),
    ];
    for (what, bytes) in cases {
        std::fs::write(&path, &bytes).unwrap();
        LARGEST.with(|c| c.set(0));
        assert!(TrainCheckpoint::load(&path).is_err(), "{what} loaded");
        let largest = LARGEST.with(Cell::get);
        // Far above the reader's buffers, far below any forged length.
        assert!(largest < 1 << 20, "{what} allocated {largest} B");
    }
    std::fs::remove_dir_all(&dir).ok();
}
