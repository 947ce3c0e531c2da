//! The single-machine [`StepBackend`]: thread-blocked kernels on a
//! [`distenc_dataflow::Executor`], no accounting.
//!
//! All storage-dependent work goes through the residual's
//! [`TensorLayout`] — this backend never inspects which layout (COO,
//! CSF, or tiled) is in play; it sizes one [`LayoutWorkspace`] at
//! construction and hands every kernel call to the layout's dispatch
//! point. The steady state allocates nothing on the calling thread (the
//! threaded executor hands work to its resident pool through an unboxed
//! index broadcast; the sequential path is a plain loop).
//!
//! With fusion enabled the end-of-iteration [`StepBackend::fused_step`]
//! refreshes the residual, reduces `‖E‖²_F`, and precomputes the next
//! iteration's MTTKRPs into the per-mode stash in one sweep over the
//! nonzeros — every mode's when the layout runs its sequential
//! entry-order kernel (one sweep per iteration), mode 0's otherwise
//! (threaded executors, CSF: N sweeps). The next iteration's
//! [`StepBackend::sparse_mttkrp`] calls serve whatever the stash holds
//! instead of sweeping again. Every fused kernel is bit-identical to the
//! separate sweeps it replaces (`distenc_tensor::fused` and
//! `distenc_tensor::layout` pin this), so the solver's iterates — and
//! the golden traces — are unchanged.

use super::{ResidualStore, StepBackend};
use crate::Result;
use distenc_dataflow::Executor;
use distenc_linalg::Mat;
use distenc_tensor::residual::ResidualWorkspace;
use distenc_tensor::{CooTensor, KruskalTensor, LayoutWorkspace, TensorLayout};

/// Host backend: Algorithm 2 greedy thread blocking for the MTTKRP,
/// even-chunked residual refresh, plain Grams, wall-clock trace stamps.
pub(crate) struct HostBackend<C> {
    exec: Executor,
    /// The layout's per-mode sweep workspace (buckets for COO, tile
    /// partitions for tiled, nothing for CSF).
    lw: LayoutWorkspace,
    res: ResidualWorkspace,
    /// Fuse the residual refresh with the next iteration's MTTKRPs
    /// ([`crate::AdmmConfig::fused`]).
    fused: bool,
    /// Stashed `E₍ₙ₎U⁽ⁿ⁾` (`Iₙ×R`) per mode, banked by the fused sweep
    /// for the next iteration's [`StepBackend::sparse_mttkrp`] calls.
    stash: Vec<Mat>,
    /// Whether `stash[n]` is live for the upcoming mode-`n` call.
    banked: Vec<bool>,
    clock: C,
}

impl<C: Fn(usize) -> f64> HostBackend<C> {
    /// Size the layout workspace for every mode over `boundaries` at rank
    /// `rank`, chunk the residual refresh for `exec`, and stamp trace
    /// points with `clock`.
    pub fn new(
        layout: &TensorLayout,
        boundaries: &[Vec<usize>],
        rank: usize,
        exec: Executor,
        fused: bool,
        clock: C,
    ) -> Result<Self> {
        let lw = layout.workspace(rank, boundaries, &exec)?;
        let res = ResidualWorkspace::new(layout.nnz(), &exec);
        let shape = layout.entries().shape();
        let stash = shape.iter().map(|&d| Mat::zeros(d, rank)).collect();
        Ok(HostBackend { exec, lw, res, fused, stash, banked: vec![false; shape.len()], clock })
    }
}

impl<C: Fn(usize) -> f64> StepBackend for HostBackend<C> {
    fn sparse_mttkrp(
        &mut self,
        residual: &ResidualStore,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        if std::mem::take(&mut self.banked[mode]) {
            // The fused sweep already computed this against the very same
            // factors and residual (the Jacobi swap happens only after
            // every mode stepped); serving the stash saves the whole pass.
            out.as_mut_slice().copy_from_slice(self.stash[mode].as_slice());
            return Ok(());
        }
        residual
            .host()?
            .mttkrp_into(model.factors(), mode, &mut self.lw, &self.exec, out)?;
        Ok(())
    }

    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        factor.gram_into(out)?;
        Ok(())
    }

    fn refresh_residual(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
    ) -> Result<()> {
        residual
            .host_mut()?
            .refresh_values(observed, model, &mut self.res, &self.exec)?;
        Ok(())
    }

    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
        fuse_next: bool,
    ) -> Result<f64> {
        if !(self.fused && fuse_next) {
            // Nothing to bank (ablation switch off, or no next iteration):
            // the plain refresh does one pass without the MTTKRP flops.
            self.refresh_residual(observed, model, residual)?;
            return Ok(residual.frob_norm_sq());
        }
        let (frob, n_banked) = residual.host_mut()?.fused_refresh_all_into(
            observed,
            model,
            &mut self.lw,
            &self.exec,
            &mut self.stash,
        )?;
        self.banked[..n_banked].fill(true);
        Ok(frob)
    }

    fn clock(&self, iter: usize) -> f64 {
        (self.clock)(iter)
    }
}
