//! Counting global allocator (behind the `alloc-count` feature).
//!
//! Enabling the feature installs [`CountingAllocator`] as the program's
//! `#[global_allocator]`: every allocation is forwarded to the system
//! allocator after bumping two sets of counters —
//!
//! * **global** (`AtomicU64`): every allocation on every thread, which is
//!   what a threaded solver run accumulates (thread-pool job boxes
//!   included), and
//! * **thread-local** (`Cell`, const-initialized so the counter itself
//!   never allocates): allocations made by *the current thread only*,
//!   which is what the sequential allocation-budget test asserts to be
//!   exactly zero per steady-state iteration.
//!
//! Deallocations are intentionally not tracked: the budget contract is
//! about allocation *pressure* (allocator traffic in the hot loop), and
//! counting frees would double-charge buffer swaps.
//!
//! The counters are observed through [`snapshot`] and compared with
//! [`AllocSnapshot::delta`]; see `tests/alloc_budget.rs` and
//! `benches/solver_core.rs` for the two consumers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A pass-through allocator that counts allocations before delegating to
/// [`System`]. Installed as the global allocator by this crate when the
/// `alloc-count` feature is on.
pub(crate) struct CountingAllocator;

#[inline]
fn record(bytes: usize) {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    GLOBAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with`: thread-local storage may already be gone during thread
    // teardown; those allocations still land in the global counters.
    let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LOCAL_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: pure pass-through to `System`; the counters are plain atomics /
// const-initialized thread-locals and never allocate themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total allocations on every thread since process start.
    pub global_allocs: u64,
    /// Total bytes requested on every thread since process start.
    pub global_bytes: u64,
    /// Allocations made by the calling thread since it started.
    pub thread_allocs: u64,
    /// Bytes requested by the calling thread since it started.
    pub thread_bytes: u64,
}

impl AllocSnapshot {
    /// Counter increments between `since` and `self` (later minus
    /// earlier; both snapshots must come from the same thread for the
    /// `thread_*` fields to be meaningful).
    pub fn delta(self, since: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            global_allocs: self.global_allocs - since.global_allocs,
            global_bytes: self.global_bytes - since.global_bytes,
            thread_allocs: self.thread_allocs - since.thread_allocs,
            thread_bytes: self.thread_bytes - since.thread_bytes,
        }
    }
}

/// Read the current counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        global_allocs: GLOBAL_ALLOCS.load(Ordering::Relaxed),
        global_bytes: GLOBAL_BYTES.load(Ordering::Relaxed),
        thread_allocs: LOCAL_ALLOCS.with(Cell::get),
        thread_bytes: LOCAL_BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_an_allocation() {
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        let d = snapshot().delta(before);
        assert!(d.thread_allocs >= 1, "Vec::with_capacity must be counted");
        assert!(d.thread_bytes >= 8 * 1024);
        assert!(d.global_allocs >= d.thread_allocs);
    }

    #[test]
    fn zero_delta_without_allocations() {
        let buf = vec![0u64; 64];
        let before = snapshot();
        let s: u64 = std::hint::black_box(&buf).iter().sum();
        std::hint::black_box(s);
        let d = snapshot().delta(before);
        assert_eq!(d.thread_allocs, 0);
        assert_eq!(d.thread_bytes, 0);
    }
}
