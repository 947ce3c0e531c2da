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
//! **One core, typed residual.** The residual `E = Ω∗(T − [[A…]])` has
//! `T`'s support, so the [`SolverState`] holds its values only, in the
//! backend's decomposition — [`StepBackend::Residual`]: one value per
//! observed entry for the host and sketched backends (a solve holds one
//! index list, `observed`'s), one value vector per Algorithm 2 block for
//! the cluster (whose one copy of the blocked entries is the blocking's).
//! The core never looks inside it; it only hands it back to the backend
//! that owns the type, so a backend paired with the wrong decomposition
//! does not compile.
//!
//! **Bit-exactness contract.** Every arithmetic operation here happens in
//! the same order, with the same floating-point association, as the
//! pre-refactor drivers — the fixed-seed golden traces under
//! `tests/golden/` pin this. The kernels it calls (`*_into` in
//! `distenc-linalg` / `distenc-graph` / `distenc-tensor`) are the only
//! bodies of their operations; the allocating forms elsewhere in the
//! workspace are those same kernels on a fresh buffer.
//!
//! **Allocation contract.** After [`SolverState::new`] sizes the
//! [`Workspace`] and the backend sizes its kernel workspaces, a
//! steady-state iteration of the host solver performs no heap allocation
//! on any thread — in sequential mode *and* in threaded mode, because the
//! executor dispatches work to its resident pool, whose workers and the
//! calling thread claim indices of one unboxed broadcast
//! (`Pool::run_indexed`), rather than boxed jobs.
//! Documented exemption: the distributed driver's accounting vectors
//! (`TaskCost` / shuffle tallies / per-call reduction slabs —
//! bookkeeping, not step math). The `alloc-count` feature and
//! `tests/alloc_budget.rs` enforce this.
//!
//! **Pass contract: one schedule.** The [`Workspace`] holds one `Iₙ×R`
//! sparse-MTTKRP buffer per mode: the *bank*. [`run`] decides, once per
//! sweep, whether another iteration will run, and hands
//! [`StepBackend::fused_step`] the bank, or an empty slice. The sweep
//! refreshes the residual, reduces `‖E‖²_F` and fills *every* mode's
//! buffer in that same pass — the loop is Jacobi, so all N MTTKRPs of the
//! next iteration read the model and residual this sweep leaves behind.
//! Each of the next iteration's [`mode_step`]s reads its mode's buffer
//! where it lies; [`StepBackend::on_sparse_mttkrp`] charges what is left
//! of that MTTKRP once the sweep has paid for it.
//!
//! A solve entered on a residual that is already fresh — a carried one
//! (every streaming refresh) or one restored from a checkpoint — has no
//! prologue refresh to bank beside, so [`run`] opens it with the *entry
//! sweep*: the same hook with `refresh` off, which reads the values as
//! stored and only banks. Its first iteration then starts with what the
//! backend banks from stored values, exactly as every later one starts
//! with what the refreshing sweep banked. Every backend banks all N modes
//! on every executor — the host runs the residual's block cut (one sweep
//! whether its blocks run one after another or on threads), the cluster
//! one task per Algorithm 2 block, and the sketched backend's sampled
//! sweeps draw N estimates (see its module) — so a steady-state iteration,
//! and the entry alike, sweeps the nonzero list **once**. `k` iterations
//! entered on a fresh residual cost `k + 1` sweeps — the entry, `k − 1`
//! banking sweeps, the last plain refresh. The `pass-count` feature counts
//! the sweeps and `tests/pass_count.rs` pins all of it.

use crate::config::AdmmConfig;
use crate::solver::checkpoint::Checkpoint;
use crate::trace::{ConvergenceTrace, TracePoint};
use crate::{CompletionResult, CoreError, Result};
use distenc_graph::{ShiftedInverseScratch, TruncatedLaplacian};
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::mttkrp::gram_product_into;
use distenc_tensor::{CooTensor, KruskalTensor};

pub mod checkpoint;
pub(crate) mod cluster;
pub(crate) mod host;
pub(crate) mod sketched;

pub(crate) use cluster::{BlockMeta, ClusterBackend};
pub(crate) use host::HostBackend;
pub(crate) use sketched::SketchedBackend;

/// Per-mode scratch matrices for one [`mode_step`], all `Iₙ×R`.
struct ModeBuffers {
    /// `ηA − Y` for the B-update; dead afterwards, so it doubles as the
    /// `B − A_new` difference buffer of the Y-update.
    rhs: Mat,
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
    /// The bank: the sparse MTTKRP part `E₍ₙ₎U⁽ⁿ⁾` of every mode (`Iₙ×R`
    /// each), written by the sweep before each iteration (the refreshing
    /// sweep, or the entry sweep) and read once per mode step.
    bank: Vec<Mat>,
    /// The `R×R` Gram product `F⁽ⁿ⁾`, shifted into the regularized
    /// denominator in place each mode step.
    f: Mat,
    /// Refactored in place every mode step ([`Cholesky::refactor`]).
    chol: Cholesky,
}

/// Everything Algorithm 1 iterates on: the factors, the ADMM auxiliaries
/// `B`/`Y`, the cached Grams, the penalty `η`, and the residual in the
/// backend's decomposition `R` ([`StepBackend::Residual`]).
pub(crate) struct SolverState<R> {
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
    /// The residual, on the observed support. Its values are refreshed in
    /// place every iteration ([`StepBackend::fused_step`]); the support
    /// never changes after construction.
    pub residual: R,
    /// Preallocated iteration scratch.
    pub ws: Workspace,
}

impl<R> SolverState<R> {
    /// Size all solver-owned state for `observed` before iteration 0.
    ///
    /// `initial` seeds the factors (warm start); otherwise they are the
    /// seeded random init of Algorithm 1 line 1. Grams start as zero
    /// placeholders — [`run`]'s prologue fills them through the backend
    /// before anything reads them. The residual arrives from the driver
    /// stale, for the prologue to refresh, or fresh ([`run`]'s `residual_fresh`).
    pub fn new(
        observed: &CooTensor,
        truncated: &[TruncatedLaplacian],
        cfg: &AdmmConfig,
        initial: Option<KruskalTensor>,
        residual: R,
    ) -> Result<Self> {
        let shape = observed.shape();
        let rank = cfg.rank;
        let model = initial.unwrap_or_else(|| KruskalTensor::random(shape, rank, cfg.seed));
        let per_mode = || -> Vec<Mat> { shape.iter().map(|&d| Mat::zeros(d, rank)).collect() };
        let modes = shape
            .iter()
            .zip(truncated)
            .map(|(&d, tr)| ModeBuffers {
                rhs: Mat::zeros(d, rank),
                numer: Mat::zeros(d, rank),
                next: Mat::zeros(d, rank),
                shift: ShiftedInverseScratch::new(tr, rank),
            })
            .collect();
        let ws = Workspace {
            modes,
            bank: per_mode(),
            f: Mat::zeros(rank, rank),
            // Seed the factorization buffer with any SPD matrix of the
            // right size; every use goes through `refactor` first.
            chol: Cholesky::factor(&Mat::identity(rank))?,
        };
        Ok(SolverState {
            model,
            grams: shape.iter().map(|_| Mat::zeros(rank, rank)).collect(),
            b_aux: per_mode(),
            y_mul: per_mode(),
            eta: cfg.eta0,
            residual,
            ws,
        })
    }

    /// Overlay a snapshot's factors, duals `Y` and penalty `η` (the
    /// inverse of [`Checkpoint::capture`]) and return where the loop
    /// continues. The residual values are the caller's to restore — their
    /// order is the decomposition's — and [`run`] must then be entered
    /// with `residual_fresh`, which opens it with the entry sweep.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<ResumePoint> {
        self.model = KruskalTensor::new(ck.factors.clone())?;
        self.y_mul = ck.y_mul.clone();
        self.eta = ck.eta;
        Ok(ResumePoint { start_iter: ck.iters_done, trace: ck.trace.clone() })
    }
}

/// What a driver plugs into the shared iteration: its decomposition of
/// the residual and of the data-dependent kernels over it (the Gram
/// refresh, the sweep that banks every MTTKRP), its trace clock, and — for
/// the distributed driver — accounting hooks at the exact points the
/// pre-refactor loop charged the cluster. Hook defaults are no-ops (the
/// host charges nothing).
pub(crate) trait StepBackend {
    /// The residual `E = Ω∗(T − [[A…]])` in this backend's decomposition.
    type Residual;

    /// Recompute `factorᵀfactor` into `out` in this backend's fixed
    /// association order.
    fn refresh_gram(&mut self, factor: &Mat, mode: usize, out: &mut Mat) -> Result<()>;

    /// The one sweep over the residual's entries that banks MTTKRPs: at the
    /// end of an iteration (and in the cold prologue) with `refresh` on, as
    /// the entry into a solve on an already-fresh residual with it off.
    ///
    /// With `refresh`, recompute the residual values against the freshly
    /// swapped model (Algorithm 3 line 13 / Eq. 14) and reduce `‖E‖²_F`;
    /// without, read them as stored — they already are `Ω∗(T − [[model…]])`
    /// — and write none. Either way, bank the *next* iteration's MTTKRPs
    /// in the same pass.
    ///
    /// `bank` is the workspace's per-mode `Iₙ×R` buffers, or empty when
    /// no further iteration will run (a banked MTTKRP would be dead work;
    /// never empty without `refresh`, where banking is all there is to
    /// do). The model this step reads is exactly the model every one of the
    /// next iteration's mode steps reads (the Jacobi swap has already
    /// happened, and the next one waits for all modes), and the residual
    /// it leaves is the one they read. So the backend overwrites every
    /// `bank[n]` with `E₍ₙ₎U⁽ⁿ⁾` during the one sweep and returns
    /// `‖E‖²_F`, which is read only after a `refresh`.
    ///
    /// A banked MTTKRP is the same bits whether it was banked beside the
    /// refresh that wrote the values or from the stored values afterwards
    /// (the decomposition fixes one fold order for both), which is what
    /// makes a warm or resumed solve bit-identical to an uninterrupted one.
    fn fused_step(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        residual: &mut Self::Residual,
        refresh: bool,
        bank: &mut [Mat],
    ) -> Result<f64>;

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
    /// Charged for the sparse MTTKRP of `mode` at its mode step, every mode
    /// of every iteration: what is left of it after the sweep that banked
    /// it (and charged whatever that pass cost).
    fn on_sparse_mttkrp(&mut self, _mode: usize) -> Result<()> {
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
    st: &mut SolverState<B::Residual>,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    backend: &mut B,
    n: usize,
) -> Result<()> {
    let SolverState { model, grams, b_aux, y_mul, eta, ws, .. } = st;
    let Workspace { modes, bank, f, chol } = ws;
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

    // Line 10 + Eq. 16: H = A⁽ⁿ⁾ₜFⁿₜ + E₍ₙ₎U⁽ⁿ⁾. The last sweep (or the
    // entry sweep) left E₍ₙ₎U⁽ⁿ⁾ in the bank — against these very factors
    // and this residual, the Jacobi swap only happens after every mode
    // stepped.
    backend.on_sparse_mttkrp(n)?;
    model.factors()[n].matmul_into(f, &mut mb.numer)?;
    mb.numer.axpy(1.0, &bank[n])?;

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

/// Where the loop continues from when recovering a checkpointed solve
/// ([`SolverState::restore`] produces it).
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
pub(crate) trait CheckpointSink<R> {
    /// Persist the state after `iters_done` completed iterations.
    /// `st.eta` has already taken that iteration's schedule update, so a
    /// resume continues with exactly the penalty the next iteration would
    /// have read.
    fn save(
        &mut self,
        st: &SolverState<R>,
        iters_done: usize,
        trace: &ConvergenceTrace,
    ) -> Result<()>;
}

/// The shared outer loop (Algorithm 1 lines 5–17 / Algorithm 3 lines
/// 6–17): prologue Gram + residual refresh, then per iteration a Jacobi
/// sweep of [`mode_step`]s, the factor swap with the convergence
/// statistic, the residual refresh, the trace point, and the `η`
/// schedule — with the fault-tolerance hooks attached: `resume` continues
/// a checkpointed solve at its stored iteration cursor, and `sink`
/// receives snapshots at the cadence of [`AdmmConfig::checkpoint`].
///
/// `residual_fresh` is the streaming warm-start contract: when the
/// caller guarantees the residual values are already exactly
/// `Ω∗(T − [[A₀…]])` for the initial model (maintained incrementally by
/// the delta apply path, or restored from a snapshot), the prologue
/// residual refresh is replaced by the entry sweep, which reads those
/// values and banks iteration 0's MTTKRPs from them
/// ([`StepBackend::fused_step`] with `refresh` off). That is bit-invisible:
/// a refresh would recompute the very same values (the delta path
/// evaluates the model with the same fold the refresh kernels use), and a
/// banked MTTKRP is pinned bit-identical whether it was computed beside
/// the refresh or from the stored values.
///
/// Alongside the result, the final residual is handed back to the
/// caller; after the loop its values are always fresh with respect to
/// the returned model (the last iteration's `fused_step` refreshed them
/// after the final factor swap), which is what makes consecutive warm
/// re-solves chainable.
///
/// **Bit-exact recovery invariant** (proven by `tests/fault_recovery.rs`
/// at `DISTENC_THREADS=1` and `=4`): a solve resumed from a checkpoint of
/// iteration `k` produces, from iteration `k` on, exactly the bits the
/// uninterrupted run produced. This holds because every input iteration
/// `k` reads is either stored in the checkpoint (factors, duals `Y`,
/// post-schedule `η`, residual values) or recomputed deterministically
/// before its first read (Grams in the prologue; `B` is rewritten from
/// `ηA − Y` each mode step). The one cross-iteration artifact *not*
/// restored — the bank — is recomputed by the entry sweep from the
/// restored residual values and factors, bit-identical by the
/// [`StepBackend::fused_step`] contract to what the interrupted run's
/// sweep had banked beside its refresh.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<B: StepBackend>(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    backend: &mut B,
    mut st: SolverState<B::Residual>,
    residual_fresh: bool,
    resume: Option<ResumePoint>,
    mut sink: Option<&mut dyn CheckpointSink<B::Residual>>,
) -> Result<(CompletionResult, B::Residual)> {
    // Drivers validate at their API boundary; this guard keeps the shared
    // core safe against a zero-support tensor slipping through a future
    // caller (train RMSE would be 0/0 = NaN).
    if observed.nnz() == 0 {
        return Err(CoreError::Invalid("observed tensor has no entries".into()));
    }
    let n_modes = st.model.order();

    let (start_iter, mut trace) = match resume {
        Some(r) => (r.start_iter, r.trace),
        None => (0, ConvergenceTrace::new()),
    };

    // Prologue: Grams of the initial factors (Eq. 12 cache), then the
    // initial residual E₀ = Ω∗(T − [[A₀…]]) (line 5), banking iteration
    // 0's MTTKRPs in the same sweep — iteration 0 reads the same initial
    // factors this sweep reads. A resumed solve re-runs the Gram refresh
    // (recomputing from the restored factors — same bits as the
    // interrupted run's cache) and, like a warm one, arrives with a fresh
    // residual: its sweep keeps the values and only banks, and a solve
    // with no iteration left makes none.
    for n in 0..n_modes {
        backend.refresh_gram(&st.model.factors()[n], n, &mut st.grams[n])?;
    }
    backend.on_grams_refreshed()?;
    let more = cfg.max_iters > start_iter;
    if !residual_fresh || more {
        sweep(observed, backend, &mut st, !residual_fresh, more)?;
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
            delta = delta.max(finite(st.model.factors()[n].frob_dist(&st.ws.modes[n].next)?, t)?);
            std::mem::swap(&mut st.model.factors_mut()[n], &mut st.ws.modes[n].next);
            backend.refresh_gram(&st.model.factors()[n], n, &mut st.grams[n])?;
        }
        backend.on_grams_refreshed()?;
        backend.on_delta_reduced()?;

        // Line 13: refresh the cached residual for the next iteration —
        // fused with that iteration's MTTKRPs when one will run.
        let bank_next = t + 1 < cfg.max_iters && delta >= cfg.tol;
        let frob = finite(sweep(observed, backend, &mut st, true, bank_next)?, t)?;
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

/// `x`, or [`CoreError::NonFinite`] at iteration `iter`: `f64::max` drops a
/// `NaN`, so a diverged factor change would otherwise read as converged.
fn finite(x: f64, iter: usize) -> Result<f64> {
    x.is_finite().then_some(x).ok_or(CoreError::NonFinite { iter })
}

/// One [`StepBackend::fused_step`]: the core's single decision of whether
/// the sweep gets the bank (`bank_next`: another iteration will read it).
/// `refresh` off is the entry sweep over stored values. Returns `‖E‖²_F`.
fn sweep<B: StepBackend>(
    observed: &CooTensor,
    backend: &mut B,
    st: &mut SolverState<B::Residual>,
    refresh: bool,
    bank_next: bool,
) -> Result<f64> {
    let bank: &mut [Mat] = if bank_next { &mut st.ws.bank } else { &mut [] };
    debug_assert!(refresh || !bank.is_empty(), "a sweep that writes nothing has to bank");
    backend.fused_step(observed, &st.model, &mut st.residual, refresh, bank)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 3;

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Event {
        /// A refreshing `fused_step`, with the length of the bank it was
        /// handed.
        Sweep(usize),
        /// `fused_step` over stored values, likewise.
        Entry(usize),
        /// `on_sparse_mttkrp(mode)`.
        Charge(usize),
    }
    use Event::*;

    /// A backend with no residual that logs what the core asks of it and
    /// banks all of what it is handed: every mode, or nothing.
    struct Counting {
        log: Vec<Event>,
    }

    impl StepBackend for Counting {
        type Residual = ();

        fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
            Ok(factor.gram_into(out)?)
        }

        fn fused_step(
            &mut self,
            _: &CooTensor,
            _: &KruskalTensor,
            _: &mut (),
            refresh: bool,
            bank: &mut [Mat],
        ) -> Result<f64> {
            assert!(bank.is_empty() || bank.len() == N, "the bank is all modes or none");
            self.log.push(if refresh { Sweep(bank.len()) } else { Entry(bank.len()) });
            for h in bank {
                h.fill(0.0);
            }
            Ok(1.0)
        }

        fn clock(&self, _iter: usize) -> f64 {
            0.0
        }

        fn on_sparse_mttkrp(&mut self, mode: usize) -> Result<()> {
            self.log.push(Charge(mode));
            Ok(())
        }
    }

    /// Drive [`run`] on a tiny order-3 problem and return the backend's log
    /// with the iteration count.
    fn drive(cfg: &AdmmConfig, residual_fresh: bool, start_iter: usize) -> (Vec<Event>, usize) {
        let observed =
            CooTensor::from_entries(vec![3, 2, 2], &[(&[0, 0, 0], 1.0), (&[2, 1, 1], -0.5)])
                .unwrap();
        let truncated: Vec<_> =
            observed.shape().iter().map(|&d| TruncatedLaplacian::zero(d)).collect();
        let st = SolverState::new(&observed, &truncated, cfg, None, ()).unwrap();
        let resume = (start_iter > 0)
            .then(|| ResumePoint { start_iter, trace: ConvergenceTrace::new() });
        let mut backend = Counting { log: Vec::new() };
        let (result, ()) =
            run(&observed, &truncated, cfg, &mut backend, st, residual_fresh, resume, None)
                .unwrap();
        (backend.log, result.iterations)
    }

    /// One iteration's mode steps: the charge for every mode, each read
    /// from the bank.
    fn mode_steps() -> Vec<Event> {
        (0..N).map(Charge).collect()
    }

    fn cfg(max_iters: usize, tol: f64) -> AdmmConfig {
        AdmmConfig { rank: 2, max_iters, tol, ..Default::default() }
    }

    #[test]
    fn only_unbanked_modes_are_swept_and_every_mode_is_charged() {
        // Never converges: three full iterations. The prologue and the
        // first two sweeps get the whole bank, the last one none; no mode
        // step sweeps, and every one is charged.
        let (log, iters) = drive(&cfg(3, 0.0), false, 0);
        assert_eq!(iters, 3);
        let mut want = vec![Sweep(N)];
        for t in 0..3 {
            want.extend(mode_steps());
            want.push(Sweep(if t < 2 { N } else { 0 }));
        }
        assert_eq!(log, want);
    }

    #[test]
    fn nothing_is_banked_where_nothing_would_read_it() {
        // Converged at iteration 0 (every delta is below an infinite
        // tolerance): its sweep gets no bank, and no iteration follows.
        let (log, iters) = drive(&cfg(5, f64::INFINITY), false, 0);
        assert_eq!(iters, 1);
        assert_eq!(log, [vec![Sweep(N)], mode_steps(), vec![Sweep(0)]].concat());

        // A carried residual swaps the prologue refresh for the entry
        // sweep: iteration 0 starts with what the backend banks from the
        // stored values.
        let (log, _) = drive(&cfg(2, 0.0), true, 0);
        assert_eq!(
            log,
            [vec![Entry(N)], mode_steps(), vec![Sweep(N)], mode_steps(), vec![Sweep(0)]].concat()
        );

        // So does a resume, at its first iteration.
        let (log, iters) = drive(&cfg(3, 0.0), true, 1);
        assert_eq!(iters, 3);
        assert_eq!(
            log,
            [vec![Entry(N)], mode_steps(), vec![Sweep(N)], mode_steps(), vec![Sweep(0)]].concat()
        );

        // A resume with its budget already spent has no iteration to bank
        // for and no value to refresh: not one sweep.
        let (log, iters) = drive(&cfg(2, 0.0), true, 2);
        assert_eq!((log, iters), (vec![], 2));

        // A budget already spent runs nothing at all.
        let (log, iters) = drive(&cfg(2, 0.0), false, 2);
        assert_eq!((log, iters), (vec![Sweep(0)], 2));
    }
}
