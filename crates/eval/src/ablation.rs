//! Ablations of DisTenC's three key insights (DESIGN.md's experiment
//! index calls these out): each driver compares the paper's optimized
//! path against the naive alternative it replaces.
//!
//! 1. **Trace-regularizer handling** (§III-B): the precomputed truncated
//!    eigendecomposition vs a fresh dense `(ηI + αL)` Cholesky solve every
//!    iteration (`η` changes each iteration, so the dense path cannot
//!    reuse its factorization).
//! 2. **Residual-tensor update** (§III-D): the `O(nnz)` residual-trick
//!    MTTKRP vs naively materializing the dense completed tensor.
//! 3. **Greedy load balancing** (§III-C, Algorithm 2): greedy vs
//!    equal-width blocking on a skewed tensor, measured in the engine's
//!    virtual time and block imbalance.

use distenc_core::{AdmmConfig, DisTenC, Result};
use distenc_dataflow::{Cluster, ClusterConfig};
use distenc_datagen::synthetic::skewed_tensor;
use distenc_graph::builders::tridiagonal_chain;
use distenc_graph::Laplacian;
use distenc_linalg::Mat;
use distenc_partition::{BalanceStats, PartitionStrategy, TensorBlocks};
use distenc_tensor::residual::{completed_mttkrp, completed_mttkrp_naive, residual};
use distenc_tensor::KruskalTensor;
use std::time::Instant;

/// Result of the B-update ablation at one mode size.
#[derive(Debug, Clone, Copy)]
pub struct BUpdateAblation {
    /// Wall seconds for `iters` eigen-path applications (including the
    /// one-time truncation).
    pub eigen_seconds: f64,
    /// Wall seconds for `iters` dense shifted solves.
    pub dense_seconds: f64,
    /// Max entry deviation between the two results at the last iteration
    /// (small when `K` captures the informative spectrum).
    pub max_deviation: f64,
}

/// Ablation 1: eigen-path vs per-iteration dense solve for the `B⁽ⁿ⁾`
/// update on a chain Laplacian of size `dim`, `iters` iterations with the
/// paper's growing `η` schedule.
pub fn ablate_b_update(dim: usize, rank: usize, k: usize, iters: usize) -> Result<BUpdateAblation> {
    let lap = Laplacian::from_similarity(tridiagonal_chain(dim));
    let rhs = Mat::random(dim, rank, 7);
    let alpha = 2.0;

    let t0 = Instant::now();
    let trunc = lap.truncate(k, 1)?;
    let mut eigen_out = rhs.clone();
    let mut eta = 1.0;
    for _ in 0..iters {
        eigen_out = trunc.apply_shifted_inverse(eta, alpha, &rhs)?;
        eta *= 1.05;
    }
    let eigen_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut dense_out = rhs.clone();
    let mut eta = 1.0;
    for _ in 0..iters {
        dense_out = lap.shifted_solve_dense(eta, alpha, &rhs)?;
        eta *= 1.05;
    }
    let dense_seconds = t1.elapsed().as_secs_f64();

    let mut max_deviation = 0.0_f64;
    for (a, b) in eigen_out.as_slice().iter().zip(dense_out.as_slice()) {
        max_deviation = max_deviation.max((a - b).abs());
    }
    Ok(BUpdateAblation { eigen_seconds, dense_seconds, max_deviation })
}

/// Result of the residual-trick ablation at one tensor size.
#[derive(Debug, Clone, Copy)]
pub struct ResidualAblation {
    /// Wall seconds for the residual-trick MTTKRP (all modes).
    pub trick_seconds: f64,
    /// Wall seconds for the dense-materialization MTTKRP (all modes).
    pub naive_seconds: f64,
    /// Max entry deviation between the two (must be rounding-level).
    pub max_deviation: f64,
}

/// Ablation 2: residual-trick vs naive completed-tensor MTTKRP on a
/// `dim³` tensor with `nnz` observations.
pub fn ablate_residual_trick(dim: usize, nnz: usize, rank: usize) -> Result<ResidualAblation> {
    let observed = distenc_datagen::synthetic::scalability_tensor(&[dim; 3], nnz, 3);
    let model = KruskalTensor::random(&[dim; 3], rank, 4);
    let e = residual(&observed, &model)?;
    let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();

    let t0 = Instant::now();
    let fast: Vec<Mat> = (0..3)
        .map(|n| completed_mttkrp(&e, &model, &grams, n).map_err(distenc_core::CoreError::from))
        .collect::<Result<_>>()?;
    let trick_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let naive: Vec<Mat> = (0..3)
        .map(|n| completed_mttkrp_naive(&observed, &model, n).map_err(distenc_core::CoreError::from))
        .collect::<Result<_>>()?;
    let naive_seconds = t1.elapsed().as_secs_f64();

    let mut max_deviation = 0.0_f64;
    for (f, g) in fast.iter().zip(&naive) {
        for (a, b) in f.as_slice().iter().zip(g.as_slice()) {
            max_deviation = max_deviation.max((a - b).abs());
        }
    }
    Ok(ResidualAblation { trick_seconds, naive_seconds, max_deviation })
}

/// Result of the partitioning ablation.
#[derive(Debug, Clone, Copy)]
pub struct PartitionAblation {
    /// Engine virtual seconds with Algorithm 2's greedy boundaries.
    pub greedy_seconds: f64,
    /// Engine virtual seconds with equal-width boundaries.
    pub equal_seconds: f64,
    /// Worst-mode imbalance (`max block load / mean`) under greedy.
    pub greedy_imbalance: f64,
    /// Worst-mode imbalance under equal-width.
    pub equal_imbalance: f64,
}

/// Ablation 3: greedy vs equal-width blocking for the distributed solver
/// on a skewed tensor.
pub fn ablate_partitioning(
    dim: usize,
    nnz: usize,
    rank: usize,
    machines: usize,
    iters: usize,
) -> Result<PartitionAblation> {
    let observed = skewed_tensor(&[dim; 3], nnz, 11);
    let run = |strategy: PartitionStrategy| -> Result<f64> {
        let mut cc = ClusterConfig::test(machines).with_time_budget(None);
        cc.cost.stage_latency = 0.0; // isolate the balance effect
        let cluster = Cluster::new(cc);
        let cfg = AdmmConfig {
            rank,
            max_iters: iters,
            tol: 1e-15,
            partition: strategy,
            ..Default::default()
        };
        DisTenC::new(&cluster, cfg)?.solve(&observed, &[None, None, None])?;
        Ok(cluster.now())
    };
    let greedy_seconds = run(PartitionStrategy::Greedy)?;
    let equal_seconds = run(PartitionStrategy::EqualWidth)?;

    let imbalance = |strategy: PartitionStrategy| {
        let blocks = TensorBlocks::build_with(&observed, &[machines; 3], strategy);
        (0..3)
            .map(|n| blocks.balance(n))
            .map(|b: BalanceStats| b.imbalance)
            .fold(0.0_f64, f64::max)
    };
    Ok(PartitionAblation {
        greedy_seconds,
        equal_seconds,
        greedy_imbalance: imbalance(PartitionStrategy::Greedy),
        equal_imbalance: imbalance(PartitionStrategy::EqualWidth),
    })
}

/// Result of the substrate ablation.
#[derive(Debug, Clone, Copy)]
pub struct SubstrateAblation {
    /// Virtual seconds with Spark semantics (in-memory caching).
    pub spark_seconds: f64,
    /// Virtual seconds with MapReduce semantics (per-stage disk spills,
    /// job-launch latency, no resident caching).
    pub mapreduce_seconds: f64,
}

/// Ablation 4 (§III-F): the same DisTenC computation on Spark vs
/// MapReduce semantics — "we cache reused RDDs in memory … which would
/// not be possible if using a system like Hadoop". The numerics are
/// identical; only the substrate accounting differs.
pub fn ablate_substrate(
    dim: usize,
    nnz: usize,
    rank: usize,
    machines: usize,
    iters: usize,
) -> Result<SubstrateAblation> {
    let observed = distenc_datagen::synthetic::scalability_tensor(&[dim; 3], nnz, 13);
    let run = |mode: distenc_dataflow::Platform| -> Result<f64> {
        let cc = ClusterConfig::test(machines)
            .with_mode(mode)
            .with_time_budget(None);
        let cluster = Cluster::new(cc);
        let cfg = AdmmConfig { rank, max_iters: iters, tol: 1e-15, ..Default::default() };
        DisTenC::new(&cluster, cfg)?.solve(&observed, &[None, None, None])?;
        Ok(cluster.now())
    };
    Ok(SubstrateAblation {
        spark_seconds: run(distenc_dataflow::Platform::Spark)?,
        mapreduce_seconds: run(distenc_dataflow::Platform::MapReduce)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_update_eigen_path_is_faster_and_equivalent() {
        // Chain Laplacian at I = 500, K = 30: the eigen path amortizes one
        // truncation over many iterations while the dense path refactors
        // an I×I matrix every time.
        let a = ablate_b_update(500, 8, 30, 10).unwrap();
        assert!(
            a.eigen_seconds < a.dense_seconds,
            "eigen {:.4}s vs dense {:.4}s",
            a.eigen_seconds,
            a.dense_seconds
        );
        // The chain's spectrum is smooth; truncation at K = 30 deviates,
        // but boundedly (the shifted inverse has spread < 1/η).
        assert!(a.max_deviation < 0.5, "deviation {}", a.max_deviation);
    }

    #[test]
    fn b_update_full_truncation_is_exact() {
        let a = ablate_b_update(60, 4, 60, 5).unwrap();
        assert!(a.max_deviation < 1e-8, "deviation {}", a.max_deviation);
    }

    #[test]
    fn residual_trick_matches_naive_and_wins() {
        let a = ablate_residual_trick(40, 4_000, 4).unwrap();
        assert!(a.max_deviation < 1e-8, "results must agree: {}", a.max_deviation);
        assert!(
            a.trick_seconds < a.naive_seconds,
            "trick {:.4}s vs naive {:.4}s",
            a.trick_seconds,
            a.naive_seconds
        );
    }

    #[test]
    fn spark_semantics_beat_mapreduce_for_iterative_work() {
        // §III-F's claim: DisTenC's iterative caching "would not be
        // possible if using a system like Hadoop".
        let a = ablate_substrate(50, 20_000, 4, 4, 5).unwrap();
        assert!(
            a.mapreduce_seconds > 5.0 * a.spark_seconds,
            "MapReduce {:.2}s must dwarf Spark {:.2}s",
            a.mapreduce_seconds,
            a.spark_seconds
        );
    }

    #[test]
    fn greedy_partitioning_beats_equal_width_on_skew() {
        let a = ablate_partitioning(400, 40_000, 4, 4, 3).unwrap();
        assert!(
            a.greedy_imbalance < a.equal_imbalance,
            "imbalance: greedy {:.2} vs equal {:.2}",
            a.greedy_imbalance,
            a.equal_imbalance
        );
        assert!(
            a.greedy_seconds < a.equal_seconds,
            "virtual time: greedy {:.4}s vs equal {:.4}s",
            a.greedy_seconds,
            a.equal_seconds
        );
    }
}
