//! A system allocator wrapper that counts allocations and records the
//! largest one, per thread, so a test measures only its own work even
//! while sibling tests run alongside. Install it in a test binary with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc(size: usize) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// Allocations made by the calling thread so far.
#[allow(dead_code)]
pub fn thread_allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Run `f` and return its result with the largest single allocation (in
/// bytes) the calling thread made meanwhile.
#[allow(dead_code)]
pub fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
