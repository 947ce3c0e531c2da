//! The single-machine [`StepBackend`]: the observed tensor's block cut on
//! a [`distenc_dataflow::Executor`], no accounting.
//!
//! It borrows the observed tensor and holds no residual (a solve holds one
//! index list, `observed`'s, and no value beside it): every entry sweep is
//! one [`cut_sweep_into`] over `observed`, evaluating `e` at each entry,
//! cut by the [`BlockCut`] this backend sizes at construction: `B`
//! contiguous, equal-count entry ranges, `B` a function of the data alone
//! (DESIGN.md §9). The executor
//! runs the blocks — one after another on `Sequential`, concurrently on
//! `Threads(n)` — and the partials are added into the core's bank in
//! ascending block order, so every executor computes the same bits and a
//! one-block cut is the flat entry-order fold.
//!
//! Handed the core's bank, [`StepBackend::fused_step`] reduces `‖E‖²_F`
//! and writes every mode's next MTTKRP straight into it: one sweep over
//! the nonzeros per iteration, on every executor. At orders 2–8 the
//! steady state allocates nothing on any thread
//! (the threaded executor hands the blocks to its resident pool through
//! an unboxed index broadcast; the sequential path is a plain loop).

use super::StepBackend;
use crate::Result;
use distenc_dataflow::Executor;
use distenc_linalg::Mat;
use distenc_tensor::fused::{cut_sweep_into, BlockCut};
use distenc_tensor::{CooTensor, KruskalTensor};
use std::time::Instant;

/// Host backend: the observed tensor's block cut on an executor, plain
/// Grams, wall-clock trace stamps.
pub(crate) struct HostBackend<'a> {
    exec: &'a Executor,
    /// The entries every sweep reads.
    observed: &'a CooTensor,
    /// The observed tensor's block cut and the partial banks of its blocks
    /// after the first.
    cut: BlockCut,
    /// When the solve began: trace points are stamped with the time since.
    start: Instant,
}

impl<'a> HostBackend<'a> {
    /// Cut `observed` for rank `rank` — once: the support never changes
    /// *within* a solve — and run its blocks on the solve's `exec`. The
    /// solve's clock starts here.
    pub(crate) fn new(observed: &'a CooTensor, rank: usize, exec: &'a Executor) -> Self {
        let start = Instant::now();
        let cut = BlockCut::new(observed.shape(), observed.nnz(), rank);
        HostBackend { exec, observed, cut, start }
    }
}

impl StepBackend for HostBackend<'_> {
    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        factor.gram_into(out)?;
        Ok(())
    }

    fn fused_step(&mut self, model: &KruskalTensor, bank: &mut [Mat]) -> Result<f64> {
        Ok(cut_sweep_into(self.observed, model, bank, &mut self.cut, self.exec)?)
    }

    fn clock(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
