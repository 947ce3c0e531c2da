//! Hyper-parameters of the ADMM completion solvers.

/// How many exact polish iterations a sketched solve runs by default
/// (the tail of the iteration budget handed to [`crate::AdmmSolver`]'s
/// exact backend).
pub const DEFAULT_POLISH_ITERS: usize = 8;

/// Which solver tier executes the per-iteration kernels.
///
/// `Exact` is the bit-pinned reference path (every golden trace and
/// equivalence proptest runs it). `Sketched` is the first *approximate*
/// tier: per-mode MTTKRPs are estimated from a deterministic seeded
/// sample of the nonzeros (`O(samples·N·R)` per iteration instead of
/// `O(nnz·N·R)`), and the final `polish_iters` iterations of the same run
/// are the exact host backend's, so the returned model and RMSE are
/// exact-path artifacts (a run that converges while still sampling stops
/// there, like any solve, with an exact final RMSE). Its accuracy
/// contract is statistical, not bitwise — the accuracy gate
/// (`tests/accuracy_gate.rs`, tolerance constant in
/// `distenc_eval::accuracy`) pins final-RMSE parity with the exact solver.
///
/// Documented fallbacks (never errors, never panics):
/// * `samples ≥ nnz` — sampling cannot beat a full sweep, so the whole
///   run degenerates to the exact tier, bit-identical to `Exact`.
/// * `polish_iters ≥ max_iters` — no iteration is left to sample; ditto.
/// * the distributed [`crate::DisTenC`] driver — Algorithm 3's virtual
///   cluster models the exact schedule only, so it always runs `Exact`
///   whatever the config says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverTier {
    /// The exact reference path (the default).
    #[default]
    Exact,
    /// Sampled MTTKRP steps, then exact polish iterations, in one run.
    Sketched {
        /// Entries drawn per sampled kernel step (must be ≥ 1).
        samples: usize,
        /// Trailing iterations run on the exact backend.
        polish_iters: usize,
    },
}

impl SolverTier {
    /// Whether this tier is the sketched one.
    pub fn is_sketched(&self) -> bool {
        matches!(self, SolverTier::Sketched { .. })
    }
}

/// When (and where) the solver snapshots its state for fault recovery.
///
/// Checkpoints are an **exact-tier** artifact: they capture the solver
/// loop's complete per-iteration state (factors, ADMM duals, penalty,
/// residual, trace), and a solve resumed from one finishes with
/// bit-identical factors and RMSE to the uninterrupted run (the recovery
/// invariant, proven in `tests/fault_recovery.rs`). A sketched solve
/// strips the policy and runs checkpoint-free.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Snapshot after every `n`-th completed iteration (must be ≥ 1).
    pub every_n_iters: usize,
    /// Where the host solver writes snapshots. `None` means no on-disk
    /// persistence: the distributed driver keeps its latest snapshot on
    /// the driver (its simulated "reliable store") and ignores this
    /// field, while the host solver skips checkpointing entirely.
    pub path: Option<std::path::PathBuf>,
}

impl CheckpointPolicy {
    /// Policy snapshotting every `n` iterations with no on-disk path.
    pub fn every(n: usize) -> Self {
        CheckpointPolicy { every_n_iters: n, path: None }
    }

    /// Builder-style on-disk destination for host-solver snapshots.
    pub fn with_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }
}

/// Configuration shared by [`crate::AdmmSolver`] (Algorithm 1) and
/// [`crate::DisTenC`] (Algorithm 3). Field names follow the paper's
/// symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmConfig {
    /// CP rank `R` (pre-defined input, §II-B).
    pub rank: usize,
    /// Ridge weight `λ` on `‖A⁽ⁿ⁾‖²_F`.
    pub lambda: f64,
    /// Trace-regularizer weight `αₙ` (one value applied to every mode that
    /// has auxiliary information).
    pub alpha: f64,
    /// Initial ADMM penalty `η₀`.
    pub eta0: f64,
    /// Penalty growth factor `ρ` (`ηₜ₊₁ = min(ρηₜ, η_max)`).
    pub rho: f64,
    /// Penalty ceiling `η_max`.
    pub eta_max: f64,
    /// Iteration cap `T`.
    pub max_iters: usize,
    /// Convergence tolerance on `max ₙ ‖A⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ‖_F` (Algorithm 3
    /// line 15).
    pub tol: f64,
    /// Truncation width `K` of the Laplacian eigendecompositions (§III-B).
    pub eigen_k: usize,
    /// RNG seed for factor initialization (and Lanczos starts).
    pub seed: u64,
    /// Project factors onto the non-negative orthant after each update
    /// (the `A⁽ⁿ⁾ ≥ 0` constraint of Eq. 4; off by default because the
    /// synthetic-error data of §IV-A is signed).
    pub nonneg: bool,
    /// Block-boundary strategy for the distributed solver (Algorithm 2's
    /// greedy balancing by default; the equal-width baseline exists for
    /// the load-balancing ablation).
    pub partition: distenc_partition::PartitionStrategy,
    /// What runs the blocks of the host's residual cut (and the cluster's
    /// block tasks). Bit-identical results under every setting — the bits
    /// are a function of the data's block cut, never of the executor (see
    /// DESIGN.md §9); defaults from the `DISTENC_THREADS` environment
    /// variable, else a thread per host core.
    pub exec: distenc_dataflow::ExecMode,
    /// Which solver tier runs the per-iteration kernels (see
    /// [`SolverTier`]): the bit-pinned exact path, or the sampled
    /// sketched tier with an exact final polish. Exact by default.
    pub solver_tier: SolverTier,
    /// Optional checkpoint cadence for fault recovery (see
    /// [`CheckpointPolicy`]). `None` (the default) never snapshots.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            rank: 10,
            lambda: 0.1,
            alpha: 1.0,
            eta0: 1.0,
            rho: 1.05,
            eta_max: 1.0e6,
            max_iters: 60,
            tol: 1.0e-3,
            eigen_k: 20,
            seed: 42,
            nonneg: false,
            partition: distenc_partition::PartitionStrategy::Greedy,
            exec: distenc_dataflow::ExecMode::default(),
            solver_tier: SolverTier::default(),
            checkpoint: None,
        }
    }
}

impl AdmmConfig {
    /// Builder-style host-execution-backend override.
    pub fn with_exec(mut self, exec: distenc_dataflow::ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Builder-style checkpoint-policy override (see
    /// [`CheckpointPolicy`]).
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Sanity-check parameter ranges, returning a description of the first
    /// violation.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.rank == 0 {
            return Err("rank must be ≥ 1".into());
        }
        if self.lambda < 0.0 || self.alpha < 0.0 {
            return Err("λ and α must be non-negative".into());
        }
        if self.eta0 <= 0.0 || self.eta_max < self.eta0 {
            return Err("need 0 < η₀ ≤ η_max".into());
        }
        if self.rho < 1.0 {
            return Err("ρ must be ≥ 1 (penalty must not shrink)".into());
        }
        if self.max_iters == 0 {
            return Err("max_iters must be ≥ 1".into());
        }
        if !(self.tol.is_finite() && self.tol > 0.0) {
            return Err("tol must be positive".into());
        }
        if let SolverTier::Sketched { samples, .. } = self.solver_tier {
            if samples == 0 {
                return Err("sketched tier needs samples ≥ 1".into());
            }
        }
        if let Some(policy) = &self.checkpoint {
            if policy.every_n_iters == 0 {
                return Err("checkpoint cadence must be ≥ 1 iteration".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_fixed() {
        let c = AdmmConfig::default();
        assert!(c.validate().is_ok());
        // Constants, not environment lookups: only `exec` follows a
        // variable (`DISTENC_THREADS`).
        assert_eq!(c.solver_tier, SolverTier::Exact);
        assert_eq!(c.checkpoint, None);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AdmmConfig { rank: 0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { lambda: -1.0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { eta0: 0.0, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { rho: 0.5, ..Default::default() }.validate().is_err());
        assert!(AdmmConfig { eta_max: 0.1, eta0: 1.0, ..Default::default() }
            .validate()
            .is_err());
        assert!(AdmmConfig { max_iters: 0, ..Default::default() }.validate().is_err());
        for tol in [f64::NAN, 0.0, -1e-6] {
            assert!(AdmmConfig { tol, ..Default::default() }.validate().is_err(), "tol {tol}");
        }
        let no_samples = SolverTier::Sketched { samples: 0, polish_iters: DEFAULT_POLISH_ITERS };
        assert!(AdmmConfig { solver_tier: no_samples, ..Default::default() }.validate().is_err());
    }
}
