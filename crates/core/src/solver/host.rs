//! The single-machine [`StepBackend`]: the observed tensor's block cut on
//! a [`distenc_dataflow::Executor`], no accounting.
//!
//! It holds no residual (a solve holds one index list, `observed`'s, and
//! no value beside it): every entry sweep is one [`cut_sweep_into`] over
//! `observed`, evaluating `e` at each entry, cut by the [`BlockCut`] this
//! backend sizes at construction: `B` contiguous,
//! equal-count entry ranges, `B` a function of the data alone (DESIGN.md
//! §9). The executor
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

/// Host backend: the observed tensor's block cut on an executor, plain
/// Grams, wall-clock trace stamps.
pub(crate) struct HostBackend<'e, C> {
    exec: &'e Executor,
    /// The observed tensor's block cut and the partial banks of its blocks
    /// after the first.
    cut: BlockCut,
    clock: C,
}

impl<'e, C: Fn(usize) -> f64> HostBackend<'e, C> {
    /// Cut `observed` for rank `rank` — once: the support never changes
    /// *within* a solve — run its blocks on the solve's `exec`, and stamp
    /// trace points with `clock`.
    pub(crate) fn new(observed: &CooTensor, rank: usize, exec: &'e Executor, clock: C) -> Self {
        let cut = BlockCut::new(observed.shape(), observed.nnz(), rank);
        HostBackend { exec, cut, clock }
    }
}

impl<C: Fn(usize) -> f64> StepBackend for HostBackend<'_, C> {
    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        factor.gram_into(out)?;
        Ok(())
    }

    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        bank: &mut [Mat],
    ) -> Result<f64> {
        Ok(cut_sweep_into(observed, model, bank, &mut self.cut, self.exec)?)
    }

    fn clock(&self, iter: usize) -> f64 {
        (self.clock)(iter)
    }
}
