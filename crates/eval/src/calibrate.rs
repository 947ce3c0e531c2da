//! Engine-vs-model fidelity gate (compiled for tests only).
//!
//! The Fig. 3 sweeps rely on the analytical models; the engine accounts
//! the same resources at runnable scales. This module runs a real
//! engine-accounted DisTenC job and compares its virtual time against the
//! model's prediction, returning the ratio — the fidelity number quoted
//! in EXPERIMENTS.md (and asserted by the test suite to stay within 3×).

use distenc_core::model::{DisTenCModel, MethodModel, WorkloadSpec};
use distenc_core::{AdmmConfig, DisTenC, Result};
use distenc_dataflow::{Cluster, ClusterConfig};
use distenc_datagen::synthetic::scalability_tensor;

/// Result of one calibration run.
#[derive(Debug, Clone, Copy)]
struct Fidelity {
    /// Virtual seconds accounted by the engine.
    engine_seconds: f64,
    /// Seconds predicted by the analytical model.
    model_seconds: f64,
}

impl Fidelity {
    /// `model / engine` ratio (1.0 = perfect agreement).
    fn ratio(&self) -> f64 {
        self.model_seconds / self.engine_seconds
    }
}

/// Run DisTenC at a small scale on a real engine and compare with the
/// model under identical cost constants.
fn distenc_fidelity(dim: usize, nnz: usize, rank: usize, machines: usize) -> Result<Fidelity> {
    let iters = 5;
    let observed = scalability_tensor(&[dim; 3], nnz, 42);
    let cc = ClusterConfig::test(machines).with_time_budget(None);
    let cluster = Cluster::new(cc.clone());
    let cfg = AdmmConfig { rank, max_iters: iters, tol: 1e-15, ..Default::default() };
    let _ = DisTenC::new(&cluster, cfg)?.solve(&observed, &[None, None, None])?;
    let engine_seconds = cluster.now();

    let w = WorkloadSpec {
        dims: vec![dim as u64; 3],
        nnz: observed.nnz() as u64,
        rank: rank as u64,
        eigen_k: 0,
        iters: iters as u64,
    };
    let model_seconds = DisTenCModel.seconds(&w, &cc);
    Ok(Fidelity { engine_seconds, model_seconds })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_within_factor_three_across_scales() {
        for (dim, nnz, rank, machines) in
            [(40usize, 3_000usize, 3usize, 2usize), (60, 8_000, 4, 4), (80, 12_000, 5, 8)]
        {
            let f = distenc_fidelity(dim, nnz, rank, machines).unwrap();
            let r = f.ratio();
            assert!(
                (0.33..3.0).contains(&r),
                "dim={dim} nnz={nnz} rank={rank} m={machines}: \
                 model {:.4}s vs engine {:.4}s (ratio {r:.2})",
                f.model_seconds,
                f.engine_seconds
            );
        }
    }
}
