//! Pass-count instrument: how many times do kernels sweep the nonzeros?
//!
//! DisTenC's §III-D complexity argument says every iteration is `O(nnz)`;
//! the remaining constant factor is *how many* passes over the entry list
//! each iteration makes. This module (compiled only under the
//! `pass-count` feature, mirroring `alloc-count`) gives tests a
//! host-independent way to pin that constant: each entry-sweeping kernel
//! calls [`record_sweep`] exactly **once per kernel invocation** — never
//! per thread, chunk, or partition — so the count is identical whatever
//! `DISTENC_THREADS` or `available_parallelism` says.
//!
//! What counts as a sweep: one full traversal of the nonzero entry list
//! that loads factor rows per entry (MTTKRP, residual evaluation, the
//! fused refresh+MTTKRP kernel, CSF root walks). Values-only folds
//! (`frob_norm_sq`, `CsfTensor::set_values`) touch no indices or factor
//! rows — they are memory-bound on an `nnz`-length `f64` slice, not on
//! the entry structure — and are deliberately not counted.
//!
//! Alongside sweeps, the instrument counts **entries touched**: how many
//! entry records a kernel actually loaded factor rows for. Every kernel
//! that loads them sweeps the whole list, so `entries = sweeps × nnz`
//! (`tests/pass_count.rs` pins both).
//!
//! The counters are process-global and monotonic; tests difference them
//! around the region of interest (see `tests/pass_count.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

static SWEEPS: AtomicU64 = AtomicU64::new(0);
static ENTRIES: AtomicU64 = AtomicU64::new(0);

/// Record one full entry-list sweep over `entries` nonzeros. Called once
/// per kernel invocation.
#[inline]
pub fn record_sweep(entries: usize) {
    SWEEPS.fetch_add(1, Ordering::Relaxed);
    ENTRIES.fetch_add(entries as u64, Ordering::Relaxed);
}

/// Total sweeps recorded since process start (monotonic; difference two
/// readings to count a region).
#[inline]
pub fn sweeps() -> u64 {
    SWEEPS.load(Ordering::Relaxed)
}

/// Total entries touched since process start (monotonic; difference two
/// readings to count a region).
#[inline]
pub fn entries_touched() -> u64 {
    ENTRIES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        // One test (not several) because the counters are process-global
        // and other tests may tick them concurrently — only lower bounds
        // on our own contributions are assertable.
        let sweeps_before = sweeps();
        let entries_before = entries_touched();
        record_sweep(10);
        record_sweep(7);
        assert!(sweeps() >= sweeps_before + 2);
        assert!(entries_touched() >= entries_before + 17);
    }
}
