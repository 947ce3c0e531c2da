//! The shared, allocation-free solver core.
//!
//! Both completion drivers run the *same* Algorithm 1 iteration — the
//! serial [`crate::AdmmSolver`] and the distributed [`crate::DisTenC`]
//! differ only in how the sparse kernels are decomposed and in the
//! virtual-time/communication accounting the distributed driver charges
//! against its [`distenc_dataflow::Cluster`]. This module owns the one
//! copy of the Algorithm 1 lines 8–12 step math ([`mode_step`]) and the
//! outer Jacobi loop ([`run`]); the drivers supply a [`StepBackend`] that
//! plugs in their kernel decomposition plus (for the cluster) their
//! accounting hooks, placed at exactly the points the pre-refactor
//! drivers charged.
//!
//! **Bit-exactness contract.** Every arithmetic operation here happens in
//! the same order, with the same floating-point association, as the
//! pre-refactor drivers — the fixed-seed golden traces under
//! `tests/golden/` pin this. The in-place kernels (`*_into` variants in
//! `distenc-linalg` / `distenc-tensor`) are bit-identical to their
//! allocating ancestors by construction (each has its own bit-identity
//! test), so unifying the drivers around them changes no output bits.
//!
//! **Allocation contract.** After [`SolverState::new`] sizes the
//! [`Workspace`] and the backend sizes its kernel workspaces, a
//! steady-state iteration of the host solver performs no heap allocation
//! on the calling thread — in sequential mode *and* in threaded mode,
//! because the executor dispatches work to its resident pool through an
//! unboxed index broadcast (`Pool::run_indexed`) rather than boxed jobs.
//! Documented exemptions: the CSF tree walk (per-level recursion
//! accumulators, `O(depth·R)`) and the distributed driver's accounting
//! vectors (`TaskCost` / shuffle tallies / per-call reduction slabs —
//! bookkeeping, not step math). The `alloc-count` feature and
//! `tests/alloc_budget.rs` enforce this.
//!
//! **Pass contract.** With fusion enabled (the default,
//! [`AdmmConfig::fused`]) the end-of-iteration sweep
//! ([`StepBackend::fused_step`]) refreshes the residual, reduces
//! `‖E‖²_F`, **and** may bank any mode's MTTKRP for the next iteration —
//! the loop is Jacobi, so all N of them read the model and residual this
//! sweep leaves behind. How many a backend banks sets its steady-state
//! sweep count over the nonzero list for an order-N tensor:
//!
//! * **1** — the sequential host backend on the COO and tiled layouts
//!   banks all N modes in the one fused sweep; every
//!   [`StepBackend::sparse_mttkrp`] of the next iteration is a stash copy;
//! * **N** — threaded host executors, the CSF layout, the cluster backend
//!   (and host tensors of order 1 or beyond the fused kernel's row cache)
//!   bank mode 0 only: one fused sweep plus N−1 plain MTTKRPs;
//! * **N+1** — unfused: N MTTKRPs plus the separate refresh.
//!
//! The `pass-count` feature counts the sweeps and `tests/pass_count.rs`
//! pins all three.

use crate::config::AdmmConfig;
use crate::trace::{ConvergenceTrace, TracePoint};
use crate::{CompletionResult, CoreError, Result};
use distenc_graph::{ShiftedInverseScratch, TruncatedLaplacian};
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::mttkrp::gram_product_into;
use distenc_tensor::{CooTensor, KruskalTensor, TensorLayout};

pub mod checkpoint;
pub(crate) mod cluster;
pub(crate) mod host;
pub(crate) mod sketched;

pub(crate) use cluster::{BlockMeta, ClusterBackend};
pub(crate) use host::HostBackend;
pub(crate) use sketched::SketchedBackend;

/// The residual tensor `E = Ω∗(T − [[A…]])` in whichever layout the
/// driver's decomposition needs. The values are refreshed in place every
/// iteration ([`StepBackend::refresh_residual`]); the support never
/// changes after construction.
pub(crate) enum ResidualStore {
    /// The host drivers' residual behind the [`TensorLayout`] dispatch
    /// point: the entry list plus whatever acceleration structure the
    /// selected layout (COO / CSF / tiled) carries. Backends reach it
    /// through [`ResidualStore::host`] and never match on the concrete
    /// storage — the layout owns kernel dispatch.
    Host(TensorLayout),
    /// Algorithm 2 block partition of the residual (distributed layout):
    /// each block keeps its entry slice and a parallel value vector.
    Blocked {
        /// The blocks, in the same fixed order the accounting metadata
        /// uses.
        blocks: Vec<ResidualBlock>,
    },
}

/// One tensor block's share of the residual: its entries and the values
/// `e = t − [[A…]](idx)` parallel to them.
pub(crate) struct ResidualBlock {
    /// The observed entries of this block.
    pub entries: CooTensor,
    /// Residual values, parallel to `entries`.
    pub vals: Vec<f64>,
}

impl ResidualStore {
    /// `‖E‖²_F`, summed in this layout's fixed order (flat entry order
    /// for [`ResidualStore::Host`], block-major for
    /// [`ResidualStore::Blocked`]) — the same associations the
    /// pre-refactor drivers used, so the RMSE bits are unchanged.
    pub fn frob_norm_sq(&self) -> f64 {
        match self {
            ResidualStore::Host(layout) => layout.frob_norm_sq(),
            ResidualStore::Blocked { blocks } => blocks
                .iter()
                .flat_map(|b| b.vals.iter())
                .map(|v| v * v)
                .sum(),
        }
    }

    /// The host layout, or a typed error when a backend was handed the
    /// wrong decomposition (the one storage check left; backends call
    /// this instead of matching on variants).
    pub fn host(&self) -> Result<&TensorLayout> {
        match self {
            ResidualStore::Host(layout) => Ok(layout),
            ResidualStore::Blocked { .. } => Err(CoreError::Invalid(
                "host backend requires the host residual layout".into(),
            )),
        }
    }

    /// Mutable [`ResidualStore::host`].
    pub fn host_mut(&mut self) -> Result<&mut TensorLayout> {
        match self {
            ResidualStore::Host(layout) => Ok(layout),
            ResidualStore::Blocked { .. } => Err(CoreError::Invalid(
                "host backend requires the host residual layout".into(),
            )),
        }
    }

    /// Consume the store into its host layout (the hand-off path).
    pub fn into_host(self) -> Result<TensorLayout> {
        match self {
            ResidualStore::Host(layout) => Ok(layout),
            ResidualStore::Blocked { .. } => Err(CoreError::Invalid(
                "host solve produced a blocked residual".into(),
            )),
        }
    }

    /// The Algorithm 2 blocks, or a typed error on the host layout.
    pub fn blocked(&self) -> Result<&[ResidualBlock]> {
        match self {
            ResidualStore::Blocked { blocks } => Ok(blocks),
            ResidualStore::Host(_) => Err(CoreError::Invalid(
                "cluster backend requires a blocked residual".into(),
            )),
        }
    }

    /// Mutable [`ResidualStore::blocked`].
    pub fn blocked_mut(&mut self) -> Result<&mut [ResidualBlock]> {
        match self {
            ResidualStore::Blocked { blocks } => Ok(blocks),
            ResidualStore::Host(_) => Err(CoreError::Invalid(
                "cluster backend requires a blocked residual".into(),
            )),
        }
    }
}

/// Per-mode scratch matrices for one [`mode_step`], all `Iₙ×R`.
struct ModeBuffers {
    /// `ηA − Y` for the B-update; dead afterwards, so it doubles as the
    /// `B − A_new` difference buffer of the Y-update.
    rhs: Mat,
    /// The sparse MTTKRP part `E₍ₙ₎U⁽ⁿ⁾`.
    sparse: Mat,
    /// `A⁽ⁿ⁾F⁽ⁿ⁾`, accumulated into the full numerator `H + ηB + Y`.
    numer: Mat,
    /// The solved `A⁽ⁿ⁾ₜ₊₁`; swapped into the model after all modes.
    next: Mat,
    /// Intermediates of the truncated-eigenbasis B-update.
    shift: ShiftedInverseScratch,
}

/// All scratch a steady-state iteration writes into, sized once before
/// iteration 0 and reused for the whole run.
pub(crate) struct Workspace {
    modes: Vec<ModeBuffers>,
    /// The `R×R` Gram product `F⁽ⁿ⁾`, shifted into the regularized
    /// denominator in place each mode step.
    f: Mat,
    /// Refactored in place every mode step ([`Cholesky::refactor`]).
    chol: Cholesky,
}

/// Everything Algorithm 1 iterates on: the factors, the ADMM auxiliaries
/// `B`/`Y`, the cached Grams, the penalty `η`, the residual, and the
/// Algorithm 2 boundaries the backend decomposed its kernels with.
pub(crate) struct SolverState {
    /// The CP model `[[A⁽¹⁾,…,A⁽ᴺ⁾]]`.
    pub model: KruskalTensor,
    /// Cached per-factor Grams `A⁽ⁿ⁾ᵀA⁽ⁿ⁾` (Eq. 12).
    pub grams: Vec<Mat>,
    /// ADMM auxiliary factors `B⁽ⁿ⁾`.
    pub b_aux: Vec<Mat>,
    /// Scaled dual variables `Y⁽ⁿ⁾`.
    pub y_mul: Vec<Mat>,
    /// Current penalty parameter `η`.
    pub eta: f64,
    /// The residual tensor, in the backend's layout.
    pub residual: ResidualStore,
    /// Per-mode Algorithm-2 cut points the backend's decomposition was
    /// derived from (host: greedy thread blocking; cluster: the mode
    /// partition boundaries). Kept on the state so the decomposition that
    /// produced a run's bits is inspectable.
    pub boundaries: Vec<Vec<usize>>,
    /// Preallocated iteration scratch.
    pub ws: Workspace,
}

impl SolverState {
    /// Size all solver-owned state for `observed` before iteration 0.
    ///
    /// `initial` seeds the factors (warm start); otherwise they are the
    /// seeded random init of Algorithm 1 line 1. Grams start as zero
    /// placeholders — [`run`]'s prologue fills them through the backend
    /// before anything reads them. The residual store arrives from the
    /// driver with its support laid out but its *values* stale; the
    /// prologue refreshes those too.
    pub fn new(
        observed: &CooTensor,
        truncated: &[TruncatedLaplacian],
        cfg: &AdmmConfig,
        initial: Option<KruskalTensor>,
        residual: ResidualStore,
        boundaries: Vec<Vec<usize>>,
    ) -> Result<Self> {
        let shape = observed.shape().to_vec();
        let rank = cfg.rank;
        let model =
            initial.unwrap_or_else(|| KruskalTensor::random(&shape, rank, cfg.seed));
        let b_aux: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, rank)).collect();
        let y_mul: Vec<Mat> = shape.iter().map(|&d| Mat::zeros(d, rank)).collect();
        let grams: Vec<Mat> = shape.iter().map(|_| Mat::zeros(rank, rank)).collect();
        let modes = shape
            .iter()
            .zip(truncated)
            .map(|(&d, tr)| ModeBuffers {
                rhs: Mat::zeros(d, rank),
                sparse: Mat::zeros(d, rank),
                numer: Mat::zeros(d, rank),
                next: Mat::zeros(d, rank),
                shift: ShiftedInverseScratch::new(tr, rank),
            })
            .collect();
        let ws = Workspace {
            modes,
            f: Mat::zeros(rank, rank),
            // Seed the factorization buffer with any SPD matrix of the
            // right size; every use goes through `refactor` first.
            chol: Cholesky::factor(&Mat::identity(rank))?,
        };
        Ok(SolverState {
            model,
            grams,
            b_aux,
            y_mul,
            eta: cfg.eta0,
            residual,
            boundaries,
            ws,
        })
    }
}

/// What a driver plugs into the shared iteration: its decomposition of
/// the three data-dependent kernels (sparse MTTKRP, Gram refresh,
/// residual refresh), its trace clock, and — for the distributed driver —
/// accounting hooks at the exact points the pre-refactor loop charged
/// the cluster. Hook defaults are no-ops (the host charges nothing).
pub(crate) trait StepBackend {
    /// The sparse MTTKRP `E₍ₙ₎U⁽ⁿ⁾` for `mode`, written into `out`
    /// (`Iₙ×R`), decomposed however this backend decomposes it. Must be
    /// bit-identical to the sequential entry-order sweep for the host
    /// backend; the cluster backend's block association is its own fixed
    /// order (matching the serial oracle to rounding, not bits).
    fn sparse_mttkrp(
        &mut self,
        residual: &ResidualStore,
        model: &KruskalTensor,
        mode: usize,
        out: &mut Mat,
    ) -> Result<()>;

    /// Recompute `factorᵀfactor` into `out` in this backend's fixed
    /// association order.
    fn refresh_gram(&mut self, factor: &Mat, mode: usize, out: &mut Mat) -> Result<()>;

    /// Refresh the residual values against the freshly swapped model
    /// (Algorithm 3 line 13 / Eq. 14).
    fn refresh_residual(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
    ) -> Result<()>;

    /// The end-of-iteration residual refresh plus the `‖E‖²_F` reduction,
    /// optionally fused with the *next* iteration's MTTKRPs.
    ///
    /// The model this step reads is exactly the model every one of the
    /// next iteration's mode steps reads (the Jacobi swap has already
    /// happened, and the next one waits for all modes), and the residual
    /// it writes is the one they read. So a backend may bank any mode: it
    /// may compute `E₍ₙ₎U⁽ⁿ⁾` for any subset of modes during the same
    /// sweep that refreshes `E`, stash them, and serve each from the
    /// stash when [`StepBackend::sparse_mttkrp`] is next called for that
    /// mode — turning N+1 passes over the nonzeros per iteration into N
    /// (mode 0 banked) or 1 (all modes banked). A mode without a stash
    /// computes its own sweep. `fuse_next` is false when no further
    /// iteration will run (cap reached or converged), in which case a
    /// stash would be dead work and backends should fall back to the
    /// plain refresh.
    ///
    /// Whatever the backend does must be bit-identical to the default
    /// body: the refreshed `E` values, the returned `‖E‖²_F` (same fold
    /// order as [`ResidualStore::frob_norm_sq`]), and every stashed MTTKRP
    /// must all match the unfused schedule bit-for-bit.
    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut ResidualStore,
        _fuse_next: bool,
    ) -> Result<f64> {
        self.refresh_residual(observed, model, residual)?;
        Ok(residual.frob_norm_sq())
    }

    /// Timestamp for iteration `iter`'s trace point (wall clock on the
    /// host, the cluster's virtual clock distributed).
    fn clock(&self, iter: usize) -> f64;

    /// Charged before the B-update of `mode` is applied (Eq. 7 stage).
    fn on_b_update(&mut self, _mode: usize) -> Result<()> {
        Ok(())
    }
    /// Charged after the Gram product `F⁽ⁿ⁾` is formed on the driver.
    fn on_gram_product(&mut self) -> Result<()> {
        Ok(())
    }
    /// Charged after the denominator is assembled, before the `R×R`
    /// factorization and the per-row solve of `mode`.
    fn on_a_update(&mut self, _mode: usize) -> Result<()> {
        Ok(())
    }
    /// Charged before the Y-update rows of `mode` are written.
    fn on_y_update(&mut self, _mode: usize) -> Result<()> {
        Ok(())
    }
    /// Charged after every mode's Gram was refreshed (Eqs. 12–13 stage).
    fn on_grams_refreshed(&mut self) -> Result<()> {
        Ok(())
    }
    /// Charged after the convergence delta is reduced across modes.
    fn on_delta_reduced(&mut self) -> Result<()> {
        Ok(())
    }
}

/// One mode's Algorithm 1 lines 8–12, against preallocated buffers only.
///
/// The arithmetic sequence — operation order *and* floating-point
/// association — is exactly the pre-refactor drivers' (which were already
/// elementwise-identical to each other):
///
/// 1. line 8:  `rhs = ηA⁽ⁿ⁾ₜ − Y⁽ⁿ⁾ₜ`; `B⁽ⁿ⁾ₜ₊₁ = (ηI + αLₙ)⁻¹ rhs` via
///    the truncated eigenbasis (Eq. 7),
/// 2. line 9:  `F⁽ⁿ⁾ = ⊛_{k≠n} Gram(A⁽ᵏ⁾)` (Eq. 12),
/// 3. line 10: `numer = A⁽ⁿ⁾ₜF⁽ⁿ⁾ + E₍ₙ₎U⁽ⁿ⁾` (Eq. 16),
/// 4. line 11: `numer += ηB + Y`; `A⁽ⁿ⁾ₜ₊₁ = numer (F⁽ⁿ⁾+λI+ηI)⁻¹` by
///    Cholesky, then the optional `max(0,·)` projection,
/// 5. line 12: `Y⁽ⁿ⁾ₜ₊₁ = Y⁽ⁿ⁾ₜ + η(B⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ₊₁)`.
///
/// The new factor lands in the workspace's `next` buffer; [`run`] swaps
/// it into the model after *all* modes finish (the Jacobi ordering that
/// makes the mode updates distributable).
pub(crate) fn mode_step<B: StepBackend>(
    st: &mut SolverState,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    backend: &mut B,
    n: usize,
) -> Result<()> {
    let SolverState { model, grams, b_aux, y_mul, eta, residual, ws, .. } = st;
    let Workspace { modes, f, chol } = ws;
    let mb = &mut modes[n];
    let eta = *eta;

    // Line 8: B⁽ⁿ⁾ₜ₊₁ ← (ηI + αLₙ)⁻¹ (ηA⁽ⁿ⁾ₜ − Y⁽ⁿ⁾ₜ), via Eq. 7.
    model.factors()[n].scaled_into(eta, &mut mb.rhs)?;
    mb.rhs.axpy(-1.0, &y_mul[n])?;
    backend.on_b_update(n)?;
    truncated[n].apply_shifted_inverse_into(
        eta,
        cfg.alpha,
        &mb.rhs,
        &mut b_aux[n],
        &mut mb.shift,
    )?;

    // Line 9: Fⁿₜ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾ from cached Grams (Eq. 12).
    gram_product_into(grams, n, f)?;
    backend.on_gram_product()?;

    // Line 10 + Eq. 16: H = A⁽ⁿ⁾ₜFⁿₜ + E₍ₙ₎U⁽ⁿ⁾.
    backend.sparse_mttkrp(residual, model, n, &mut mb.sparse)?;
    model.factors()[n].matmul_into(f, &mut mb.numer)?;
    mb.numer.axpy(1.0, &mb.sparse)?;

    // Line 11: A⁽ⁿ⁾ₜ₊₁ ← (H + ηB + Y)(Fⁿₜ + λI + ηI)⁻¹.
    mb.numer.axpy(eta, &b_aux[n])?;
    mb.numer.axpy(1.0, &y_mul[n])?;
    f.add_diag(cfg.lambda + eta);
    backend.on_a_update(n)?;
    chol.refactor(f)?;
    chol.solve_right_into(&mb.numer, &mut mb.next)?;
    if cfg.nonneg {
        mb.next.clamp_nonneg();
    }

    // Line 12: Y⁽ⁿ⁾ₜ₊₁ = Y⁽ⁿ⁾ₜ + η(B⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ₊₁); `rhs` is dead and
    // reused for the difference. Elementwise y += η(b − a), the same
    // association as the pre-refactor clone-then-axpy.
    backend.on_y_update(n)?;
    b_aux[n].sub_into(&mb.next, &mut mb.rhs)?;
    y_mul[n].axpy(eta, &mb.rhs)?;
    Ok(())
}

/// Where the loop continues from when recovering a checkpointed solve.
/// The [`SolverState`] handed to [`run_resumable`] must already carry the
/// checkpoint's factors, duals, penalty, and residual values.
pub(crate) struct ResumePoint {
    /// Iterations already completed; the loop continues at this index.
    pub start_iter: usize,
    /// Trace accumulated before the interruption; new points append.
    pub trace: ConvergenceTrace,
}

/// Receives solver snapshots at the configured checkpoint cadence. The
/// host driver writes [`checkpoint::Checkpoint`] files; the distributed
/// driver serializes to its simulated reliable store and charges the
/// cluster for the collect.
pub(crate) trait CheckpointSink {
    /// Persist the state after `iters_done` completed iterations.
    /// `st.eta` has already taken that iteration's schedule update, so a
    /// resume continues with exactly the penalty the next iteration would
    /// have read.
    fn save(
        &mut self,
        st: &SolverState,
        iters_done: usize,
        trace: &ConvergenceTrace,
    ) -> Result<()>;
}

/// The shared outer loop (Algorithm 1 lines 5–17 / Algorithm 3 lines
/// 6–17): prologue Gram + residual refresh, then per iteration a Jacobi
/// sweep of [`mode_step`]s, the factor swap with the convergence
/// statistic, the residual refresh, the trace point, and the `η`
/// schedule.
///
/// `residual_fresh` is the streaming warm-start contract: when the
/// caller guarantees the residual values are already exactly
/// `Ω∗(T − [[A₀…]])` for the initial model (maintained incrementally by
/// the delta apply path), the prologue residual refresh is skipped.
/// Skipping is bit-invisible: a refresh would recompute the very same
/// values (the delta path evaluates the model with the same fold the
/// refresh kernels use), and the only other prologue effect — banking
/// iteration 0's MTTKRPs — degrades to each mode computing its own
/// sweep, whose output is pinned bit-identical to the banked one.
///
/// Alongside the result, the final residual store is handed back to the
/// caller; after the loop its values are always fresh with respect to
/// the returned model (the last iteration's `fused_step` refreshed them
/// after the final factor swap), which is what makes consecutive warm
/// re-solves chainable.
pub(crate) fn run<B: StepBackend>(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    backend: &mut B,
    st: SolverState,
    residual_fresh: bool,
) -> Result<(CompletionResult, ResidualStore)> {
    run_resumable(observed, truncated, cfg, backend, st, residual_fresh, None, None)
}

/// [`run`] with the fault-tolerance hooks attached: `resume` continues a
/// checkpointed solve at its stored iteration cursor, and `sink` receives
/// snapshots at the cadence of [`AdmmConfig::checkpoint`].
///
/// **Bit-exact recovery invariant** (proven by `tests/fault_recovery.rs`
/// at `DISTENC_THREADS=1` and `=4`): a solve resumed from a checkpoint of
/// iteration `k` produces, from iteration `k` on, exactly the bits the
/// uninterrupted run produced. This holds because every input iteration
/// `k` reads is either stored in the checkpoint (factors, duals `Y`,
/// post-schedule `η`, residual values) or recomputed deterministically
/// before its first read (Grams in the prologue; `B` is rewritten from
/// `ηA − Y` each mode step). The one cross-iteration artifact *not*
/// restored — the fused sweep's banked MTTKRPs — is bit-invisible by the
/// [`StepBackend::fused_step`] contract: an absent stash degrades to
/// that mode computing its own sweep with pinned-identical output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_resumable<B: StepBackend>(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    backend: &mut B,
    mut st: SolverState,
    residual_fresh: bool,
    resume: Option<ResumePoint>,
    mut sink: Option<&mut dyn CheckpointSink>,
) -> Result<(CompletionResult, ResidualStore)> {
    // Drivers validate at their API boundary; this guard keeps the shared
    // core safe against a zero-support tensor slipping through a future
    // caller (train RMSE would be 0/0 = NaN).
    if observed.nnz() == 0 {
        return Err(CoreError::Invalid("observed tensor has no entries".into()));
    }
    let n_modes = st.model.order();
    debug_assert_eq!(st.boundaries.len(), n_modes, "one boundary set per mode");

    let (start_iter, mut trace) = match resume {
        Some(r) => (r.start_iter, r.trace),
        None => (0, ConvergenceTrace::new()),
    };

    // Prologue: Grams of the initial factors (Eq. 12 cache), then the
    // initial residual E₀ = Ω∗(T − [[A₀…]]) (line 5). The fused form also
    // banks iteration 0's MTTKRPs — iteration 0 reads the same initial
    // factors this sweep reads. A resumed solve re-runs the Gram
    // refresh (recomputing from the restored factors — same bits as the
    // interrupted run's cache) and always arrives with a fresh residual,
    // so its prologue sweep is skipped.
    for n in 0..n_modes {
        backend.refresh_gram(&st.model.factors()[n], n, &mut st.grams[n])?;
    }
    backend.on_grams_refreshed()?;
    if !residual_fresh {
        let _ =
            backend.fused_step(observed, &st.model, &mut st.residual, cfg.max_iters > start_iter)?;
    }

    trace.points.reserve(cfg.max_iters.saturating_sub(start_iter));
    let mut converged = false;
    let mut iterations = start_iter;

    for t in start_iter..cfg.max_iters {
        iterations = t + 1;

        for n in 0..n_modes {
            mode_step(&mut st, truncated, cfg, backend, n)?;
        }

        // Jacobi swap + convergence statistic (line 15): the new factors
        // trade places with the model's via the workspace, so the swap
        // allocates nothing.
        let mut delta = 0.0_f64;
        for n in 0..n_modes {
            delta = delta.max(st.model.factors()[n].frob_dist(&st.ws.modes[n].next)?);
            std::mem::swap(&mut st.model.factors_mut()[n], &mut st.ws.modes[n].next);
            backend.refresh_gram(&st.model.factors()[n], n, &mut st.grams[n])?;
        }
        backend.on_grams_refreshed()?;
        backend.on_delta_reduced()?;

        // Line 13: refresh the cached residual for the next iteration —
        // fused with that iteration's MTTKRPs when one will run.
        let fuse_next = t + 1 < cfg.max_iters && delta >= cfg.tol;
        let frob = backend.fused_step(observed, &st.model, &mut st.residual, fuse_next)?;
        let train_rmse = (frob / observed.nnz() as f64).sqrt();
        trace.push(TracePoint {
            iter: t,
            seconds: backend.clock(t),
            train_rmse,
            factor_delta: delta,
        });

        // Line 14: penalty schedule.
        st.eta = (cfg.rho * st.eta).min(cfg.eta_max);

        // Snapshot *after* the schedule update so a resume reads exactly
        // the η the next iteration would have.
        if let (Some(policy), Some(s)) = (&cfg.checkpoint, sink.as_deref_mut()) {
            if (t + 1) % policy.every_n_iters == 0 {
                s.save(&st, t + 1, &trace)?;
            }
        }

        // Lines 15–17.
        if delta < cfg.tol {
            converged = true;
            break;
        }
    }

    let SolverState { model, residual, .. } = st;
    Ok((CompletionResult { model, trace, iterations, converged }, residual))
}
