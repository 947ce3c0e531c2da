//! The shared, allocation-free solver core.
//!
//! Both completion drivers run the *same* Algorithm 1 iteration — the
//! serial [`crate::AdmmSolver`] and the distributed [`crate::DisTenC`]
//! differ only in how the sparse kernels are decomposed and in the
//! virtual-time/communication accounting the distributed driver charges
//! against its [`distenc_dataflow::Cluster`]. This module owns the one
//! copy of the Algorithm 1 lines 8–12 step math ([`mode_step`]) and the
//! outer Jacobi loop ([`run`]); the drivers supply a [`StepBackend`] that
//! plugs in their kernel decomposition, and the core reports each
//! [`Phase`] of the schedule to it at exactly the points the
//! pre-refactor drivers charged (the cluster charges its ledger there).
//!
//! **Each seam carries what is read across it.** The core holds counts,
//! never entries: [`SolverState`] carries the support size `|Ω|` the
//! train RMSE divides by, set when a driver builds it (the host from its
//! tensor, DisTenC from its ledger); a backend holds the entries it
//! sweeps, so [`StepBackend::fused_step`] is handed the model and the
//! bank alone; [`Checkpoint::capture`] reads the shape and the support
//! size from the state, and [`run`], handed a [`Checkpoint`], restores it
//! and continues at its cursor.
//!
//! **The residual is derived state.** `E = Ω∗(T − [[A…]])` is a function
//! of the factors (§III-D, Eq. 16), so nothing stores it: not the
//! [`SolverState`], not a backend, not a checkpoint. Each sweep computes
//! `e` at every observed entry from the model it is handed, folds it into
//! `‖E‖²_F` and the bank, and keeps none of it.
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
//! **Pass contract: one schedule, one way in.** The [`Workspace`] holds
//! one `Iₙ×R` sparse-MTTKRP buffer per mode: the *bank*. [`run`] decides,
//! once per sweep, whether another iteration will run, and hands
//! [`StepBackend::fused_step`] the bank, or an empty slice. The sweep
//! evaluates the residual, reduces `‖E‖²_F` and fills *every* mode's
//! buffer in that same pass — the loop is Jacobi, so all N MTTKRPs of the
//! next iteration read the model this sweep read. Each of the next
//! iteration's [`mode_step`]s reads its mode's buffer where it lies;
//! [`Phase::SparseMttkrp`] charges what is left of that MTTKRP once the
//! sweep has paid for it.
//!
//! Every solve — cold, warm, resumed, a recovered DisTenC attempt — enters
//! the same way: a prologue sweep against its initial factors banks its
//! first iteration, and it runs exactly when an iteration will. Every
//! backend banks all N modes on every executor — the host runs the
//! observed tensor's block cut (one sweep whether its blocks run one after
//! another or on threads), the cluster one task per Algorithm 2 block — so
//! an iteration sweeps the nonzero list **once**, and `k` iterations cost
//! `k + 1` sweeps: the prologue, `k − 1` banking sweeps, the last plain
//! `‖E‖²`. The `pass-count` feature counts the sweeps and
//! `tests/pass_count.rs` pins all of it.

use crate::config::AdmmConfig;
use crate::solver::checkpoint::Checkpoint;
use crate::trace::{ConvergenceTrace, TracePoint};
use crate::{CompletionResult, CoreError, Result};
use distenc_graph::{ShiftedInverseScratch, TruncatedLaplacian};
use distenc_linalg::{Cholesky, Mat};
use distenc_tensor::mttkrp::gram_product_into;
use distenc_tensor::KruskalTensor;

pub(crate) mod checkpoint;
pub(crate) mod cluster;
pub(crate) mod host;

pub(crate) use cluster::{ClusterBackend, Ledger};
pub(crate) use host::HostBackend;

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
    /// each), written by the sweep before each iteration and read once per
    /// mode step.
    bank: Vec<Mat>,
    /// The `R×R` Gram product `F⁽ⁿ⁾`, shifted into the regularized
    /// denominator in place each mode step.
    f: Mat,
    /// Refactored in place every mode step ([`Cholesky::refactor`]).
    chol: Cholesky,
}

/// Everything Algorithm 1 iterates on: the factors, the ADMM auxiliaries
/// `B`/`Y`, the cached Grams and the penalty `η`, and the support size the
/// train RMSE divides by. The residual is not among them: each sweep
/// derives it from the model.
pub(crate) struct SolverState {
    /// The CP model `[[A⁽¹⁾,…,A⁽ᴺ⁾]]`.
    pub(crate) model: KruskalTensor,
    /// Cached per-factor Grams `A⁽ⁿ⁾ᵀA⁽ⁿ⁾` (Eq. 12).
    pub(crate) grams: Vec<Mat>,
    /// ADMM auxiliary factors `B⁽ⁿ⁾`.
    pub(crate) b_aux: Vec<Mat>,
    /// Scaled dual variables `Y⁽ⁿ⁾`.
    pub(crate) y_mul: Vec<Mat>,
    /// Current penalty parameter `η`.
    pub(crate) eta: f64,
    /// Entries of the observed support `|Ω|`.
    pub(crate) nnz: usize,
    /// Preallocated iteration scratch.
    pub(crate) ws: Workspace,
}

impl SolverState {
    /// Size all solver-owned state for a tensor of `shape` with `nnz`
    /// observed entries before iteration 0.
    ///
    /// `initial` seeds the factors (warm start); otherwise they are the
    /// seeded random init of Algorithm 1 line 1. Grams start as zero
    /// placeholders — [`run`]'s prologue fills them through the backend
    /// before anything reads them.
    pub(crate) fn new(
        shape: &[usize],
        nnz: usize,
        truncated: &[TruncatedLaplacian],
        cfg: &AdmmConfig,
        initial: Option<KruskalTensor>,
    ) -> Result<Self> {
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
            nnz,
            ws,
        })
    }
}

/// A point of the schedule where a cluster pays: the core reports each
/// one to [`StepBackend::charge`], in this order per iteration — per mode
/// `BUpdate`, `GramProduct`, `SparseMttkrp`, `AUpdate`, `YUpdate`; then
/// `GramsRefreshed`, `DeltaReduced` and the `Sweep`. The prologue is
/// `GramsRefreshed`, then a banking `Sweep` if an iteration will run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Before the B-update of a mode is applied (line 8, Eq. 7).
    BUpdate(usize),
    /// After the Gram product `F⁽ⁿ⁾` is formed on the driver (line 9).
    GramProduct,
    /// A mode's sparse MTTKRP at its mode step (line 10): what is left of
    /// it after the sweep that banked it.
    SparseMttkrp(usize),
    /// After a mode's denominator is assembled, before the `R×R`
    /// factorization and the per-row solve (line 11).
    AUpdate(usize),
    /// Before the Y-update rows of a mode are written (line 12).
    YUpdate(usize),
    /// After every mode's Gram was refreshed (Eqs. 12–13).
    GramsRefreshed,
    /// After the convergence delta is reduced across modes.
    DeltaReduced,
    /// Before an entry sweep, which banks every mode's next MTTKRP or none.
    Sweep {
        /// Whether the sweep banks.
        bank: bool,
    },
}

/// What a driver plugs into the shared iteration: its decomposition of
/// the data-dependent kernels (the Gram refresh, the sweep that banks
/// every MTTKRP), its trace clock, and what it charges per [`Phase`]. The
/// backend holds the entries it sweeps; the core never sees them.
pub(crate) trait StepBackend {
    /// Recompute `factorᵀfactor` into `out` in this backend's fixed
    /// association order.
    fn refresh_gram(&mut self, factor: &Mat, mode: usize, out: &mut Mat) -> Result<()>;

    /// The one sweep over the observed entries, in the prologue and at the
    /// end of every iteration: evaluate the residual `e = t − [[model…]]`
    /// at each entry (Algorithm 3 line 13 / Eq. 14), reduce `‖E‖²_F` and,
    /// in the same pass, bank the *next* iteration's MTTKRPs from those
    /// values, storing none of them.
    ///
    /// `bank` is the workspace's per-mode `Iₙ×R` buffers, or empty when
    /// no further iteration will run (a banked MTTKRP would be dead work).
    /// The model this step reads is exactly the model every one of the
    /// next iteration's mode steps reads (the Jacobi swap has already
    /// happened, and the next one waits for all modes). So the backend
    /// overwrites every `bank[n]` with `E₍ₙ₎U⁽ⁿ⁾` during the one sweep and
    /// returns `‖E‖²_F`.
    ///
    /// The sweep is a function of the model and the backend's fixed
    /// decomposition alone, which is what makes a warm or resumed solve
    /// bit-identical to an uninterrupted one: its prologue banks what the
    /// interrupted run's sweep banked against the same factors.
    fn fused_step(&mut self, model: &KruskalTensor, bank: &mut [Mat]) -> Result<f64>;

    /// Timestamp for the trace point just computed (wall clock on the
    /// host, the cluster's virtual clock distributed).
    fn clock(&self) -> f64;

    /// Account for `phase` of the schedule. The host charges nothing, so
    /// its calls compile away; the cluster charges its ledger.
    fn charge(&mut self, _phase: Phase) -> Result<()> {
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
    let SolverState { model, grams, b_aux, y_mul, eta, ws, .. } = st;
    let Workspace { modes, bank, f, chol } = ws;
    let mb = &mut modes[n];
    let eta = *eta;

    // Line 8: B⁽ⁿ⁾ₜ₊₁ ← (ηI + αLₙ)⁻¹ (ηA⁽ⁿ⁾ₜ − Y⁽ⁿ⁾ₜ), via Eq. 7.
    model.factors()[n].scaled_into(eta, &mut mb.rhs)?;
    mb.rhs.axpy(-1.0, &y_mul[n])?;
    backend.charge(Phase::BUpdate(n))?;
    truncated[n].apply_shifted_inverse_into(
        eta,
        cfg.alpha,
        &mb.rhs,
        &mut b_aux[n],
        &mut mb.shift,
    )?;

    // Line 9: Fⁿₜ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾ from cached Grams (Eq. 12).
    gram_product_into(grams, n, f)?;
    backend.charge(Phase::GramProduct)?;

    // Line 10 + Eq. 16: H = A⁽ⁿ⁾ₜFⁿₜ + E₍ₙ₎U⁽ⁿ⁾. The last sweep left
    // E₍ₙ₎U⁽ⁿ⁾ in the bank — against these very factors, the Jacobi swap
    // only happens after every mode stepped.
    backend.charge(Phase::SparseMttkrp(n))?;
    model.factors()[n].matmul_into(f, &mut mb.numer)?;
    mb.numer.axpy(1.0, &bank[n])?;

    // Line 11: A⁽ⁿ⁾ₜ₊₁ ← (H + ηB + Y)(Fⁿₜ + λI + ηI)⁻¹.
    mb.numer.axpy(eta, &b_aux[n])?;
    mb.numer.axpy(1.0, &y_mul[n])?;
    f.add_diag(cfg.lambda + eta);
    backend.charge(Phase::AUpdate(n))?;
    chol.refactor(f)?;
    chol.solve_right_into(&mb.numer, &mut mb.next)?;
    if cfg.nonneg {
        mb.next.clamp_nonneg();
    }

    // Line 12: Y⁽ⁿ⁾ₜ₊₁ = Y⁽ⁿ⁾ₜ + η(B⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ₊₁); `rhs` is dead and
    // reused for the difference. Elementwise y += η(b − a), the same
    // association as the pre-refactor clone-then-axpy.
    backend.charge(Phase::YUpdate(n))?;
    b_aux[n].sub_into(&mb.next, &mut mb.rhs)?;
    y_mul[n].axpy(eta, &mb.rhs)?;
    Ok(())
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
/// 6–17): prologue Gram + residual sweep, then per iteration a Jacobi
/// sweep of [`mode_step`]s, the factor swap with the convergence
/// statistic, the residual sweep, the trace point, and the `η` schedule —
/// with the fault-tolerance hooks attached: `resume` overlays a
/// snapshot's factors, duals `Y` and penalty `η` on `st` (the inverse of
/// [`Checkpoint::capture`]) and continues at its iteration cursor with
/// its trace, and `sink` receives snapshots at the cadence of
/// [`AdmmConfig::checkpoint`].
///
/// **Bit-exact recovery invariant** (proven by `tests/fault_recovery.rs`
/// at `DISTENC_THREADS=1` and `=4`): a solve resumed from a checkpoint of
/// iteration `k` produces, from iteration `k` on, exactly the bits the
/// uninterrupted run produced. This holds because every input iteration
/// `k` reads is either stored in the checkpoint (factors, duals `Y`,
/// post-schedule `η`) or recomputed deterministically from them before
/// its first read: the Grams and the bank in the prologue — the bank by
/// the very sweep the interrupted run ran against the same factors — and
/// `B`, rewritten from `ηA − Y` each mode step.
pub(crate) fn run<B: StepBackend>(
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    backend: &mut B,
    mut st: SolverState,
    resume: Option<&Checkpoint>,
    mut sink: Option<&mut dyn CheckpointSink>,
) -> Result<CompletionResult> {
    // Drivers validate at their API boundary; this guard keeps the shared
    // core safe against a zero-support tensor slipping through a future
    // caller (train RMSE would be 0/0 = NaN).
    if st.nnz == 0 {
        return Err(CoreError::Invalid("observed tensor has no entries".into()));
    }
    let n_modes = st.model.order();

    let (start_iter, mut trace) = match resume {
        Some(ck) => {
            st.model = KruskalTensor::new(ck.factors.clone())?;
            st.y_mul = ck.y_mul.clone();
            st.eta = ck.eta;
            (ck.iters_done, ck.trace.clone())
        }
        None => (0, ConvergenceTrace::new()),
    };

    // Prologue: Grams of the initial factors (Eq. 12 cache), then the
    // initial residual E₀ = Ω∗(T − [[A₀…]]) (line 5), banking the first
    // iteration's MTTKRPs in the same sweep — that iteration reads the same
    // initial factors this sweep reads. Cold, warm and resumed solves alike
    // (a resumed one recomputes both from the restored factors — the bits
    // the interrupted run held), and a solve with no iteration left sweeps
    // nothing.
    for n in 0..n_modes {
        backend.refresh_gram(&st.model.factors()[n], n, &mut st.grams[n])?;
    }
    backend.charge(Phase::GramsRefreshed)?;
    if cfg.max_iters > start_iter {
        sweep(backend, &mut st, true)?;
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
        backend.charge(Phase::GramsRefreshed)?;
        backend.charge(Phase::DeltaReduced)?;

        // Line 13: the residual of the new factors, for the train RMSE —
        // fused with the next iteration's MTTKRPs when one will run.
        let bank_next = t + 1 < cfg.max_iters && delta >= cfg.tol;
        let frob = finite(sweep(backend, &mut st, bank_next)?, t)?;
        let train_rmse = (frob / st.nnz as f64).sqrt();
        trace.push(TracePoint {
            iter: t,
            seconds: backend.clock(),
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

    Ok(CompletionResult { model: st.model, trace, iterations, converged })
}

/// `x`, or [`CoreError::NonFinite`] at iteration `iter`: `f64::max` drops a
/// `NaN`, so a diverged factor change would otherwise read as converged.
fn finite(x: f64, iter: usize) -> Result<f64> {
    x.is_finite().then_some(x).ok_or(CoreError::NonFinite { iter })
}

/// One [`StepBackend::fused_step`], charged as [`Phase::Sweep`]: the
/// core's single decision of whether the sweep gets the bank (`bank_next`:
/// another iteration will read it). Returns `‖E‖²_F`.
fn sweep<B: StepBackend>(backend: &mut B, st: &mut SolverState, bank_next: bool) -> Result<f64> {
    backend.charge(Phase::Sweep { bank: bank_next })?;
    let bank: &mut [Mat] = if bank_next { &mut st.ws.bank } else { &mut [] };
    backend.fused_step(&st.model, bank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Phase::*;

    const N: usize = 3;

    /// A backend that logs every phase the core reports and banks all of
    /// what it is handed: every mode, or nothing, as the phase said.
    struct Counting {
        log: Vec<Phase>,
    }

    impl StepBackend for Counting {
        fn refresh_gram(&mut self, factor: &Mat, _mode: usize, out: &mut Mat) -> Result<()> {
            Ok(factor.gram_into(out)?)
        }

        fn fused_step(&mut self, _: &KruskalTensor, bank: &mut [Mat]) -> Result<f64> {
            assert!(bank.is_empty() || bank.len() == N, "the bank is all modes or none");
            assert_eq!(self.log.last(), Some(&Sweep { bank: !bank.is_empty() }));
            for h in bank {
                h.fill(0.0);
            }
            Ok(1.0)
        }

        fn clock(&self) -> f64 {
            0.0
        }

        fn charge(&mut self, phase: Phase) -> Result<()> {
            self.log.push(phase);
            Ok(())
        }
    }

    /// Drive [`run`] on a tiny order-3 problem and return the backend's log
    /// with the iteration count.
    fn drive(cfg: &AdmmConfig, start_iter: usize) -> (Vec<Phase>, usize) {
        let shape = [3, 2, 2];
        let truncated: Vec<_> = shape.iter().map(|&d| TruncatedLaplacian::zero(d)).collect();
        let st = SolverState::new(&shape, 2, &truncated, cfg, None).unwrap();
        // A snapshot of the initial state, taken as if `start_iter`
        // iterations had run.
        let resume = (start_iter > 0)
            .then(|| Checkpoint::capture(cfg, &st, start_iter, &ConvergenceTrace::new()));
        let mut backend = Counting { log: Vec::new() };
        let result = run(&truncated, cfg, &mut backend, st, resume.as_ref(), None).unwrap();
        (backend.log, result.iterations)
    }

    fn cfg(max_iters: usize, tol: f64) -> AdmmConfig {
        AdmmConfig { rank: 2, max_iters, tol, ..Default::default() }
    }

    /// The prologue that banks a first iteration.
    const PROLOGUE: [Phase; 2] = [GramsRefreshed, Sweep { bank: true }];

    /// One iteration's phases, its closing sweep banking or not.
    fn iteration(bank: bool) -> Vec<Phase> {
        let mut phases: Vec<Phase> = (0..N)
            .flat_map(|n| [BUpdate(n), GramProduct, SparseMttkrp(n), AUpdate(n), YUpdate(n)])
            .collect();
        phases.extend([GramsRefreshed, DeltaReduced, Sweep { bank }]);
        phases
    }

    #[test]
    fn the_schedule_reports_every_phase_in_order() {
        // The host side of the cluster's schedule, pinned phase by phase:
        // the prologue, then one iteration whose closing sweep banks
        // nothing because no iteration follows.
        let (log, iters) = drive(&cfg(1, 0.0), 0);
        assert_eq!(iters, 1);
        #[rustfmt::skip]
        let want = [
            GramsRefreshed, Sweep { bank: true },
            BUpdate(0), GramProduct, SparseMttkrp(0), AUpdate(0), YUpdate(0),
            BUpdate(1), GramProduct, SparseMttkrp(1), AUpdate(1), YUpdate(1),
            BUpdate(2), GramProduct, SparseMttkrp(2), AUpdate(2), YUpdate(2),
            GramsRefreshed, DeltaReduced, Sweep { bank: false },
        ];
        assert_eq!(log, want);
        assert_eq!(log, [PROLOGUE.to_vec(), iteration(false)].concat());
    }

    #[test]
    fn only_unbanked_modes_are_swept_and_every_mode_is_charged() {
        // Never converges: three full iterations. The prologue and the
        // first two sweeps get the whole bank, the last one none; no mode
        // step sweeps, and every one is charged.
        let (log, iters) = drive(&cfg(3, 0.0), 0);
        assert_eq!(iters, 3);
        let want = [PROLOGUE.to_vec(), iteration(true), iteration(true), iteration(false)];
        assert_eq!(log, want.concat());
    }

    #[test]
    fn nothing_is_banked_where_nothing_would_read_it() {
        // Converged at iteration 0 (every delta is below an infinite
        // tolerance): its sweep gets no bank, and no iteration follows.
        let (log, iters) = drive(&cfg(5, f64::INFINITY), 0);
        assert_eq!(iters, 1);
        assert_eq!(log, [PROLOGUE.to_vec(), iteration(false)].concat());

        // A resume enters the way a cold solve does, at its first
        // iteration: the prologue sweep banks it.
        let (log, iters) = drive(&cfg(3, 0.0), 1);
        assert_eq!(iters, 3);
        assert_eq!(log, [PROLOGUE.to_vec(), iteration(true), iteration(false)].concat());

        // A budget already spent has no iteration to bank for: the
        // prologue refreshes the Grams and sweeps nothing.
        let (log, iters) = drive(&cfg(2, 0.0), 2);
        assert_eq!((log, iters), (vec![GramsRefreshed], 2));
    }
}
