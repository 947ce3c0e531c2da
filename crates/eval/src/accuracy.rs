//! Statistical accuracy-gate harness for the sketched solver tier.
//!
//! The sketched tier trades exact per-iteration MTTKRPs for sampled
//! estimates, so its guarantee is statistical, not bit-exact. This
//! module turns that into a testable contract:
//!
//! * [`ACCURACY_GATE_TOL`] — the one documented tolerance: on the gate
//!   workloads, the sketched tier's final train RMSE may exceed the
//!   exact tier's by at most this much. `tests/accuracy_gate.rs` and the
//!   `ci.sh` gate (at `DISTENC_THREADS=1` and `=4`) both import this
//!   constant — it is defined exactly once, here.
//! * [`gate_workloads`] — three planted datagen tensors of different
//!   shapes/ranks/densities, seeded so every run sees the same data.
//! * [`compare_tiers`] — run the exact and sketched tiers on one
//!   workload and report final RMSEs, the gap, and the per-iteration
//!   entry-touch economics.
//! * [`sample_efficiency_curve`] — the gap and touch ratio as a function
//!   of the sample budget (for `BENCH_sketched.json`).

use distenc_core::{AdmmConfig, AdmmSolver, Result, SolverTier};
use distenc_datagen::synthetic::error_tensor;
use distenc_tensor::CooTensor;

/// The accuracy gate: `sketched_rmse ≤ exact_rmse + ACCURACY_GATE_TOL`
/// on every [`gate_workloads`] tensor, at the gate's sample budget
/// (`nnz/4`) and polish budget ([`distenc_core::DEFAULT_POLISH_ITERS`]).
///
/// The tolerance is *absolute* train RMSE on planted unit-scale data
/// (entry magnitudes are `O(1)` by the datagen construction), chosen
/// with ~4× headroom over the gaps observed across seeds and thread
/// counts so the gate flags regressions in the estimator, not sampling
/// luck.
pub const ACCURACY_GATE_TOL: f64 = 2e-2;

/// One planted completion problem for the accuracy gate.
pub struct GateWorkload {
    /// Stable name, used in test output and `BENCH_sketched.json`.
    pub name: &'static str,
    /// The observed tensor (planted low-rank values on a random mask).
    pub observed: CooTensor,
    /// The planted (and solved-for) CP rank.
    pub rank: usize,
}

/// The three planted datagen tensors the gate runs on: different orders
/// of magnitude of nnz, different shapes and ranks, fixed seeds.
pub fn gate_workloads() -> Vec<GateWorkload> {
    vec![
        GateWorkload {
            name: "planted-cube",
            observed: error_tensor(&[24, 24, 24], 3, 6_000, 11).observed,
            rank: 3,
        },
        GateWorkload {
            name: "planted-oblong",
            observed: error_tensor(&[60, 20, 12], 2, 4_000, 12).observed,
            rank: 2,
        },
        GateWorkload {
            name: "planted-dense-slab",
            observed: error_tensor(&[30, 20, 14], 4, 5_000, 13).observed,
            rank: 4,
        },
    ]
}

/// The gate's solver configuration for a workload: enough iterations to
/// converge on the planted data, a tolerance that lets early stopping
/// happen, and everything else at defaults (exact tier — the comparison
/// runner overrides the tier per run).
pub fn gate_config(rank: usize) -> AdmmConfig {
    AdmmConfig {
        rank,
        max_iters: 40,
        tol: 1e-9,
        solver_tier: SolverTier::Exact,
        ..Default::default()
    }
}

/// Exact-vs-sketched comparison on one workload.
#[derive(Debug, Clone)]
pub struct TierComparison {
    /// Final train RMSE of the exact tier (recomputed from the model —
    /// not read off the trace — so both sides are measured identically).
    pub exact_rmse: f64,
    /// Final train RMSE of the sketched tier, same measurement.
    pub sketched_rmse: f64,
    /// Sample budget per sketched kernel invocation.
    pub samples: usize,
    /// Nonzeros of the workload (the exact tier's per-sweep touch count).
    pub nnz: usize,
    /// Wall seconds of the exact solve.
    pub exact_seconds: f64,
    /// Wall seconds of the sketched solve.
    pub sketched_seconds: f64,
    /// Iterations the exact solve ran.
    pub exact_iters: usize,
    /// Iterations the sketched solve ran (sampled and exact).
    pub sketched_iters: usize,
}

impl TierComparison {
    /// `sketched_rmse − exact_rmse`: positive when sampling costs
    /// accuracy, negative when the sketched run happened to land lower.
    pub fn gap(&self) -> f64 {
        self.sketched_rmse - self.exact_rmse
    }

    /// Entry touches per sketch-phase iteration of the exact tier over
    /// the sketched tier: `(nnz·N)/(samples·N) = nnz/samples`. The
    /// `≥ 2×` acceptance bar on this ratio is what "fewer entry-touches
    /// at gate accuracy" means concretely.
    pub fn touch_ratio(&self) -> f64 {
        self.nnz as f64 / self.samples as f64
    }

    /// The accuracy gate itself (see [`ACCURACY_GATE_TOL`]).
    pub fn passes_gate(&self) -> bool {
        self.gap() <= ACCURACY_GATE_TOL
    }
}

/// Run `observed` through both tiers and measure the gate quantities.
///
/// `samples` is clamped nowhere: passing `samples ≥ nnz` exercises the
/// documented exact-fallback path (the comparison then reports a gap of
/// exactly zero, since both runs are bit-identical).
pub fn compare_tiers(
    observed: &CooTensor,
    cfg: &AdmmConfig,
    samples: usize,
    polish_iters: usize,
) -> Result<TierComparison> {
    let laps = vec![None; observed.order()];

    let exact_cfg = AdmmConfig { solver_tier: SolverTier::Exact, ..cfg.clone() };
    let t0 = std::time::Instant::now();
    let exact = AdmmSolver::new(exact_cfg)?.solve(observed, &laps)?;
    let exact_seconds = t0.elapsed().as_secs_f64();

    let sk_cfg = AdmmConfig {
        solver_tier: SolverTier::Sketched { samples, polish_iters },
        ..cfg.clone()
    };
    let t1 = std::time::Instant::now();
    let sketched = AdmmSolver::new(sk_cfg)?.solve(observed, &laps)?;
    let sketched_seconds = t1.elapsed().as_secs_f64();

    Ok(TierComparison {
        exact_rmse: distenc_tensor::residual::observed_rmse(observed, &exact.model)
            .map_err(distenc_core::CoreError::from)?,
        sketched_rmse: distenc_tensor::residual::observed_rmse(observed, &sketched.model)
            .map_err(distenc_core::CoreError::from)?,
        samples,
        nnz: observed.nnz(),
        exact_seconds,
        sketched_seconds,
        exact_iters: exact.iterations,
        sketched_iters: sketched.iterations,
    })
}

/// One point of the sample-efficiency curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Sample budget of this run.
    pub samples: usize,
    /// RMSE gap to the exact run at the same iteration budget.
    pub gap: f64,
    /// `nnz/samples` (see [`TierComparison::touch_ratio`]).
    pub touch_ratio: f64,
    /// Final sketched train RMSE.
    pub sketched_rmse: f64,
    /// Wall seconds of the sketched solve.
    pub seconds: f64,
}

/// Sweep the sample budget and report the accuracy/touch trade-off.
/// Budgets are typically fractions of nnz (`nnz/2, nnz/4, …`): the curve
/// shows how far the budget can drop before the gap leaves the gate.
pub fn sample_efficiency_curve(
    observed: &CooTensor,
    cfg: &AdmmConfig,
    sample_counts: &[usize],
    polish_iters: usize,
) -> Result<Vec<CurvePoint>> {
    sample_counts
        .iter()
        .map(|&s| {
            let c = compare_tiers(observed, cfg, s, polish_iters)?;
            Ok(CurvePoint {
                samples: s,
                gap: c.gap(),
                touch_ratio: c.touch_ratio(),
                sketched_rmse: c.sketched_rmse,
                seconds: c.sketched_seconds,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_distinct_and_nonempty() {
        let ws = gate_workloads();
        assert_eq!(ws.len(), 3);
        for w in &ws {
            assert!(w.observed.nnz() > 1_000, "{} too small", w.name);
        }
        let names: std::collections::BTreeSet<_> = ws.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn degenerate_sample_budget_gives_zero_gap() {
        let w = &gate_workloads()[1];
        let cfg = AdmmConfig { max_iters: 6, ..gate_config(w.rank) };
        // samples ≥ nnz: documented fallback to the exact tier, so the
        // two runs are bit-identical and the gap is exactly 0.
        let c = compare_tiers(&w.observed, &cfg, w.observed.nnz(), 2).unwrap();
        assert_eq!(c.gap(), 0.0);
        assert!(c.passes_gate());
    }
}
