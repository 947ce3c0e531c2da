//! The single-machine [`StepBackend`]: thread-blocked kernels on a
//! [`distenc_dataflow::Executor`], no accounting.
//!
//! Its residual is a [`TensorLayout`] (COO, always), and every entry
//! sweep goes through it: this backend sizes one [`LayoutWorkspace`] at
//! construction and hands every kernel call to the layout. The steady
//! state allocates nothing on the calling thread (the threaded executor
//! hands work to its resident pool through an unboxed index broadcast;
//! the sequential path is a plain loop).
//!
//! Handed the core's bank, the end-of-iteration
//! [`StepBackend::fused_step`] refreshes the residual, reduces `‖E‖²_F`,
//! and writes the next iteration's MTTKRPs straight into it in one sweep
//! over the nonzeros — every mode's when the layout runs its sequential
//! entry-order kernel (one sweep per iteration), mode 0's otherwise
//! (threaded executors: N sweeps). Entered on a residual that is
//! already fresh, the same hook banks from the stored values: every mode
//! in one entry-order sweep, or nothing where the layout has only its
//! one-mode kernels (the mode steps then run them, as they would have).
//! Every fused kernel is bit-identical to the separate sweeps it replaces
//! (`distenc_tensor::fused` and `distenc_tensor::layout` pin this), so
//! the solver's iterates — and the golden traces — are unchanged.

use super::StepBackend;
use crate::Result;
use distenc_dataflow::Executor;
use distenc_linalg::Mat;
use distenc_tensor::residual::ResidualWorkspace;
use distenc_tensor::{CooTensor, KruskalTensor, LayoutWorkspace, TensorLayout};

/// Host backend: Algorithm 2 greedy thread blocking for the MTTKRP,
/// even-chunked residual refresh, plain Grams, wall-clock trace stamps.
pub(crate) struct HostBackend<C> {
    exec: Executor,
    /// The residual's per-mode sweep workspace (buckets under threads,
    /// nothing on one thread).
    lw: LayoutWorkspace,
    res: ResidualWorkspace,
    clock: C,
}

impl<C: Fn(usize) -> f64> HostBackend<C> {
    /// Size the layout workspace for every mode at rank `rank`, chunk the
    /// residual refresh for `exec`, and stamp trace points with `clock`.
    ///
    /// An executor that runs parts concurrently gets the Algorithm 2
    /// greedy MTTKRP boundaries, one set per mode, computed once — the
    /// support never changes *within* a solve — and sized to
    /// `parallelism()` (not `threads()`: the cores actually available, so
    /// a `DISTENC_THREADS` above the machine's core count does not
    /// oversplit the kernels); any blocking is bit-exact. One thread has
    /// no parts to balance: no slice histogram, no boundaries, and (COO)
    /// no buckets — the rule [`ResidualWorkspace::new`] follows too.
    pub fn new(layout: &TensorLayout, rank: usize, exec: Executor, clock: C) -> Result<Self> {
        let parts = exec.parallelism();
        let boundaries: Vec<Vec<usize>> = if parts > 1 {
            let e = layout.entries();
            (0..e.order())
                .map(|n| distenc_partition::greedy_boundaries(&e.slice_nnz(n), parts))
                .collect()
        } else {
            Vec::new()
        };
        let lw = layout.workspace(rank, &boundaries, &exec)?;
        let res = ResidualWorkspace::new(layout.nnz(), &exec);
        Ok(HostBackend { exec, lw, res, clock })
    }
}

impl<C: Fn(usize) -> f64> StepBackend for HostBackend<C> {
    type Residual = TensorLayout;

    fn sparse_mttkrp(
        &mut self,
        residual: &TensorLayout,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()> {
        residual.mttkrp_into(model.factors(), mode, &mut self.lw, &self.exec, out)?;
        Ok(())
    }

    fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
        factor.gram_into(out)?;
        Ok(())
    }

    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut TensorLayout,
        refresh: bool,
        bank: &mut [Mat],
    ) -> Result<(f64, usize)> {
        if !refresh {
            // The values are fresh and stay; `‖E‖²` is read only after a
            // refresh.
            let banked = residual.mttkrp_all_into(model.factors(), &self.exec, bank)?;
            return Ok((0.0, banked));
        }
        if bank.is_empty() {
            // Nothing to bank: the plain refresh does one pass without
            // the MTTKRP flops.
            residual.refresh_values(observed, model, &mut self.res, &self.exec)?;
            return Ok((residual.frob_norm_sq(), 0));
        }
        Ok(residual.fused_refresh_all_into(observed, model, &mut self.lw, &self.exec, bank)?)
    }

    fn clock(&self, iter: usize) -> f64 {
        (self.clock)(iter)
    }
}
