//! Parallel-vs-sequential equivalence suite.
//!
//! The contract of the thread-pool backend (DESIGN.md §9) is that
//! `ExecMode::Threads(n)` is *bit-identical* to `ExecMode::Sequential`
//! for every `n` — not merely close. These properties drive the full
//! solver stack (serial ADMM, distributed DisTenC, and the blocked
//! kernels underneath them) under both backends across random tensors, ranks, and
//! mode counts, and compare results with `==` on the raw f64 bits.

use distenc::core::{AdmmConfig, AdmmSolver, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode, Executor};
use distenc::graph::Laplacian;
use distenc::linalg::Mat;
use distenc::tensor::mttkrp::{mttkrp, mttkrp_blocked_into, MttkrpWorkspace};
use distenc::tensor::residual::{residual, residual_refresh_exec, ResidualWorkspace};
use distenc::stream::StreamingSolver;
use distenc::tensor::fused::BlockCut;
use distenc::tensor::CooTensor;
use proptest::prelude::*;

mod common;

/// Random sparse tensor with 2–4 modes, dims in [2,8], 1–60 entries.
fn coo_strategy() -> impl Strategy<Value = CooTensor> {
    (
        prop::collection::vec(2usize..=8, 2..=4),
        1usize..=60,
        any::<u64>(),
    )
        .prop_map(|(shape, nnz, seed)| {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = CooTensor::new(shape.clone());
            for _ in 0..nnz {
                let idx: Vec<usize> =
                    shape.iter().map(|&d| rng.random_range(0..d)).collect();
                t.push(&idx, rng.random::<f64>() * 4.0 - 2.0).unwrap();
            }
            t.sort_dedup();
            t
        })
}

/// The thread counts the suite proves equivalent to sequential.
const THREAD_COUNTS: [usize; 3] = [2, 3, 8];

fn solver_cfg(rank: usize, seed: u64, exec: ExecMode) -> AdmmConfig {
    AdmmConfig {
        rank,
        max_iters: 4,
        tol: 1e-12, // never trips in 4 iterations: all runs do equal work
        seed,
        exec,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial ADMM: factors, convergence traces (timestamps, RMSE,
    /// deltas), and recomputed residuals are bit-identical across
    /// backends.
    #[test]
    fn admm_solver_threads_bit_identical(
        observed in coo_strategy(),
        rank in 1usize..4,
        seed in any::<u64>(),
    ) {
        let laps: Vec<Option<&Laplacian>> = vec![None; observed.order()];
        let base = AdmmSolver::new(solver_cfg(rank, seed, ExecMode::Sequential))
            .unwrap()
            .solve(&observed, &laps)
            .unwrap();
        let base_resid = residual(&observed, &base.model).unwrap();
        for n in THREAD_COUNTS {
            let run = AdmmSolver::new(solver_cfg(rank, seed, ExecMode::Threads(n)))
                .unwrap()
                .solve(&observed, &laps)
                .unwrap();
            prop_assert_eq!(run.iterations, base.iterations);
            prop_assert_eq!(run.converged, base.converged);
            // The serial solver stamps trace points with *wall* time, so
            // compare everything but the timestamp bit-for-bit.
            prop_assert_eq!(run.trace.points.len(), base.trace.points.len());
            for (a, b) in run.trace.points.iter().zip(&base.trace.points) {
                prop_assert_eq!(a.iter, b.iter);
                prop_assert_eq!(a.train_rmse.to_bits(), b.train_rmse.to_bits(),
                    "RMSE bits differ at {} threads", n);
                prop_assert_eq!(a.factor_delta.to_bits(), b.factor_delta.to_bits(),
                    "delta bits differ at {} threads", n);
            }
            for (a, b) in run.model.factors().iter().zip(base.model.factors()) {
                prop_assert_eq!(a.as_slice(), b.as_slice(), "factor bits differ at {} threads", n);
            }
            let resid = residual(&observed, &run.model).unwrap();
            prop_assert_eq!(&resid, &base_resid);
        }
    }

    /// Distributed DisTenC on a simulated cluster: same bit-for-bit
    /// guarantee, plus identical virtual-time accounting (the backend
    /// must not leak into the cost model).
    #[test]
    fn distenc_threads_bit_identical(
        observed in coo_strategy(),
        rank in 1usize..4,
        seed in any::<u64>(),
        machines in 1usize..5,
    ) {
        let laps: Vec<Option<&Laplacian>> = vec![None; observed.order()];
        let run = |exec: ExecMode| {
            let cluster = Cluster::new(ClusterConfig::test(machines).with_time_budget(None));
            let cfg = solver_cfg(rank, seed, exec);
            let out = DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &laps).unwrap();
            let metrics = cluster.metrics();
            (out, metrics)
        };
        let (base, base_metrics) = run(ExecMode::Sequential);
        for n in THREAD_COUNTS {
            let (got, metrics) = run(ExecMode::Threads(n));
            prop_assert_eq!(got.iterations, base.iterations);
            prop_assert_eq!(&got.trace, &base.trace, "trace differs at {} threads", n);
            for (a, b) in got.model.factors().iter().zip(base.model.factors()) {
                prop_assert_eq!(a.as_slice(), b.as_slice(), "factor bits differ at {} threads", n);
            }
            prop_assert_eq!(metrics.virtual_seconds.to_bits(), base_metrics.virtual_seconds.to_bits());
            prop_assert_eq!(metrics.shuffled_bytes, base_metrics.shuffled_bytes);
            prop_assert_eq!(metrics.stages, base_metrics.stages);
        }
    }

    /// The blocked MTTKRP kernel matches the sequential one bit-for-bit
    /// for arbitrary (valid) boundary placements and every backend.
    #[test]
    fn mttkrp_blocked_bit_identical(
        observed in coo_strategy(),
        rank in 1usize..5,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let model =
            distenc::tensor::KruskalTensor::random(observed.shape(), rank, seed);
        for mode in 0..observed.order() {
            let dim = observed.shape()[mode];
            let want = mttkrp(&observed, model.factors(), mode).unwrap();
            // Random non-decreasing cuts ending at `dim`.
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(cut_seed ^ mode as u64);
            let parts = rng.random_range(1..=5usize);
            let mut cuts: Vec<usize> =
                (0..parts - 1).map(|_| rng.random_range(0..=dim)).collect();
            cuts.push(dim);
            cuts.sort_unstable();
            let mut ws = MttkrpWorkspace::new(&observed, mode, &cuts, rank).unwrap();
            let mut got = Mat::zeros(dim, rank);
            for n in THREAD_COUNTS {
                let exec = Executor::new(ExecMode::Threads(n));
                mttkrp_blocked_into(&observed, model.factors(), &mut ws, &exec, &mut got)
                    .unwrap();
                prop_assert_eq!(got.as_slice(), want.as_slice());
            }
        }
    }

    /// The in-place residual refresh is bit-identical across backends
    /// and chunkings.
    #[test]
    fn residual_exec_bit_identical(
        observed in coo_strategy(),
        rank in 1usize..5,
        seed in any::<u64>(),
    ) {
        let model =
            distenc::tensor::KruskalTensor::random(observed.shape(), rank, seed);
        let want = residual(&observed, &model).unwrap();
        for n in THREAD_COUNTS {
            let exec = Executor::new(ExecMode::Threads(n));
            let mut ws = ResidualWorkspace::new(observed.nnz(), &exec);
            // Same support, stale values: the refresh must overwrite all.
            let mut e = observed.clone();
            residual_refresh_exec(&observed, &model, &mut e, &mut ws, &exec).unwrap();
            prop_assert_eq!(&e, &want);
        }
    }
}

/// Above the one-block threshold the host sweeps its residual in several
/// blocks, and the executor still moves no bit: a cold solve and a warm
/// re-solve on the carried residual (whose entry sweep banks from the
/// stored values) leave the same factors, trace statistics and residual
/// on `Sequential` and on 2, 3 and 8 threads.
#[test]
fn admm_solver_above_one_block_is_bit_identical_across_executors() {
    let (shape, rank) = ([100usize, 80, 50], 5);
    let observed = common::planted(&shape, rank, 60_000, 9, 0x0b10c);
    let blocks = BlockCut::new(&shape, observed.nnz(), rank).blocks();
    assert!(blocks > 1, "{} entries make {blocks} block", observed.nnz());
    let run = |exec: ExecMode| {
        let cfg = AdmmConfig { max_iters: 3, ..solver_cfg(rank, 4, exec) };
        let mut s = StreamingSolver::new(observed.clone(), vec![None, None, None], cfg).unwrap();
        let (cold, warm) = (s.solve().unwrap(), s.solve().unwrap());
        let resid = residual(&observed, &warm.model).unwrap();
        let stats = |r: &distenc::core::CompletionResult| -> Vec<(u64, u64)> {
            let p = &r.trace.points;
            p.iter().map(|p| (p.train_rmse.to_bits(), p.factor_delta.to_bits())).collect()
        };
        let f = [common::factor_bits(&cold), common::factor_bits(&warm)];
        (f, [stats(&cold), stats(&warm)], resid)
    };
    let base = run(ExecMode::Sequential);
    for n in THREAD_COUNTS {
        assert!(run(ExecMode::Threads(n)) == base, "{blocks} blocks at {n} threads");
    }
}
