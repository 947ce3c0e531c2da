//! Hyper-parameters of the ADMM completion solvers.

/// When (and where) the solver snapshots its state for fault recovery.
///
/// Checkpoints capture the solver loop's complete per-iteration state
/// (factors, ADMM duals, penalty, trace; the residual is derived from the
/// factors on resume), and a solve resumed
/// from one finishes with bit-identical factors and RMSE to the
/// uninterrupted run (the recovery invariant, proven in
/// `tests/fault_recovery.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Snapshot after every `n`-th completed iteration (must be ≥ 1).
    pub(crate) every_n_iters: usize,
    /// Where the host solver writes snapshots. `None` means no on-disk
    /// persistence: the distributed driver keeps its latest snapshot on
    /// the driver (its simulated "reliable store") and ignores this
    /// field, while the host solver skips checkpointing entirely.
    pub(crate) path: Option<std::path::PathBuf>,
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
    /// What runs the blocks of the host's residual cut and its per-mode
    /// eigensolves; a DisTenC solve runs both on its cluster's executor
    /// instead. Bit-identical results under every setting — the bits are
    /// a function of the data's block cut, never of the executor (see
    /// DESIGN.md §9); defaults from the `DISTENC_THREADS` environment
    /// variable, else a thread per host core.
    pub exec: distenc_dataflow::ExecMode,
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
    pub(crate) fn validate(&self) -> std::result::Result<(), String> {
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
    }
}
