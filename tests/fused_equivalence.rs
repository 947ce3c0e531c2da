//! The fused schedules are a *bit-for-bit* no-op on results.
//!
//! `AdmmConfig::fused` (the default) fuses the end-of-iteration residual
//! refresh with the next iteration's MTTKRPs into one sweep over the
//! nonzeros: every mode's on the sequential host with the COO or tiled
//! layout (one sweep per iteration), mode 0's under a threaded executor,
//! the CSF layout or the distributed driver (N sweeps). Because the fused
//! kernels replay exactly the same floating-point folds as the separate
//! sweeps (see `distenc_tensor::fused`), every observable of a solve —
//! iterates, trace statistics, and for the distributed driver even the
//! virtual clock — must match the unfused schedule to the bit, across
//! ranks (including the specialized R=8/16 kernels and the generic
//! fallback), tensor orders (the literal order-3/4 bodies and the generic
//! one), all three layouts, and both execution backends.

use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, DisTenC, LayoutKind};
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode};
use distenc::tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    let truth = KruskalTensor::random(shape, rank, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf05e);
    let mut mask = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

/// Every observable except wall-clock seconds, bitwise.
fn assert_bit_identical(fused: &CompletionResult, plain: &CompletionResult, label: &str) {
    assert_eq!(fused.iterations, plain.iterations, "{label}: iterations");
    assert_eq!(fused.converged, plain.converged, "{label}: converged flag");
    for (n, (a, b)) in fused.model.factors().iter().zip(plain.model.factors()).enumerate() {
        let same = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{label}: factor {n} bits differ");
    }
    for (p, q) in fused.trace.points.iter().zip(&plain.trace.points) {
        assert_eq!(
            p.train_rmse.to_bits(),
            q.train_rmse.to_bits(),
            "{label}: train RMSE bits at iter {}",
            p.iter
        );
        assert_eq!(
            p.factor_delta.to_bits(),
            q.factor_delta.to_bits(),
            "{label}: factor delta bits at iter {}",
            p.iter
        );
    }
}

#[test]
fn host_solver_fused_matches_unfused_bit_for_bit() {
    // Ranks cover both specialized kernels (8, 16), their neighbors, the
    // paper's 20, and the rank-1 edge; shapes cover orders 3 and 4 (the
    // all-modes sweep's literal-order bodies) plus 2 and 5 (its generic
    // one). The sequential COO and tiled solves run the one-sweep
    // schedule; everything else banks mode 0 only.
    let cases: &[(&[usize], usize)] = &[
        (&[13, 11, 9], 1),
        (&[13, 11, 9], 3),
        (&[13, 11, 9], 8),
        (&[13, 11, 9], 16),
        (&[13, 11, 9], 17),
        (&[13, 11, 9], 20),
        (&[7, 6, 5, 4], 3),
        (&[7, 6, 5, 4], 8),
        (&[7, 6, 5, 4], 16),
        (&[7, 6, 5, 4], 20),
        (&[17, 15], 3),
        (&[5, 4, 4, 3, 3], 8),
    ];
    for &(shape, rank) in cases {
        let observed = planted(shape, rank, 60 * shape.len(), rank as u64 + 5);
        for layout in [LayoutKind::Coo, LayoutKind::Tiled, LayoutKind::Csf] {
            for exec in [ExecMode::Sequential, ExecMode::Threads(4)] {
                let base = AdmmConfig {
                    rank,
                    max_iters: 6,
                    tol: 1e-12,
                    layout,
                    exec,
                    ..Default::default()
                };
                let lapses = vec![None; shape.len()];
                let fused = AdmmSolver::new(base.clone().with_fused(true))
                    .unwrap()
                    .solve(&observed, &lapses)
                    .unwrap();
                let plain = AdmmSolver::new(base.with_fused(false))
                    .unwrap()
                    .solve(&observed, &lapses)
                    .unwrap();
                let label = format!("shape {shape:?} rank {rank} {layout} exec {exec:?}");
                assert_bit_identical(&fused, &plain, &label);
            }
        }
    }
}

#[test]
fn host_solver_fusion_is_transparent_across_early_convergence() {
    // A loose tolerance converges before the cap, exercising the
    // `fuse_next = false` epilogue (the banked MTTKRP would be dead work);
    // the converged iterate must still match bitwise.
    let observed = planted(&[12, 10, 8], 2, 500, 77);
    let base = AdmmConfig { rank: 2, max_iters: 200, tol: 1e-5, ..Default::default() };
    let fused = AdmmSolver::new(base.clone().with_fused(true))
        .unwrap()
        .solve(&observed, &[None, None, None])
        .unwrap();
    let plain = AdmmSolver::new(base.with_fused(false))
        .unwrap()
        .solve(&observed, &[None, None, None])
        .unwrap();
    assert!(fused.converged, "case must actually converge early");
    assert_bit_identical(&fused, &plain, "early convergence");
}

#[test]
fn distenc_fused_matches_unfused_including_virtual_clock() {
    // The cluster backend charges the fused sweep exactly where the
    // unfused refresh charged, so even the virtual-time trace stamps and
    // the communication totals are unchanged.
    for rank in [1usize, 3, 8] {
        let observed = planted(&[15, 12, 10], rank, 500, rank as u64 + 23);
        let base = AdmmConfig { rank, max_iters: 5, tol: 1e-12, ..Default::default() };
        let run = |cfg: AdmmConfig| {
            let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
            let res = DisTenC::new(&cluster, cfg)
                .unwrap()
                .solve(&observed, &[None, None, None])
                .unwrap();
            let m = cluster.metrics();
            (res, m.shuffled_bytes, m.broadcast_bytes, m.stages, cluster.now())
        };
        let (fused, f_shuf, f_bcast, f_stages, f_now) = run(base.clone().with_fused(true));
        let (plain, p_shuf, p_bcast, p_stages, p_now) = run(base.with_fused(false));
        let label = format!("distenc rank {rank}");
        assert_bit_identical(&fused, &plain, &label);
        for (p, q) in fused.trace.points.iter().zip(&plain.trace.points) {
            assert_eq!(
                p.seconds.to_bits(),
                q.seconds.to_bits(),
                "{label}: virtual clock bits at iter {}",
                p.iter
            );
        }
        assert_eq!(f_shuf, p_shuf, "{label}: shuffled bytes");
        assert_eq!(f_bcast, p_bcast, "{label}: broadcast bytes");
        assert_eq!(f_stages, p_stages, "{label}: stage count");
        assert_eq!(f_now.to_bits(), p_now.to_bits(), "{label}: final virtual time");
    }
}
