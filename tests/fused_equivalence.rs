//! The fused schedules are a *bit-for-bit* no-op on results.
//!
//! `AdmmConfig::fused` (the default) fuses the end-of-iteration residual
//! refresh with the next iteration's MTTKRPs into one sweep over the
//! nonzeros that banks every mode's, on the host under every executor and
//! on the distributed driver (one sweep per iteration).
//! Because the fused kernels replay exactly the same floating-point folds
//! as the separate sweeps (see `distenc_tensor::fused`), every numeric
//! observable of a solve — iterates and trace statistics — must match the
//! unfused schedule to the bit, across ranks (including the specialized
//! R=8/16 kernels and the generic fallback), tensor orders (the literal
//! order-3/4 bodies and the generic one), and both execution backends. On the distributed driver the *schedule* differs,
//! and the last test pins by exactly how much the cluster is charged less.
//!
//! A solve entered on a residual that is already fresh banks from the
//! *stored* values instead (one sweep for every mode);
//! `stored_sweeps_are_bitwise_the_plain_mttkrp` pins that sweep, and its
//! one-mode form, against the plain per-mode MTTKRP.

use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode, Executor};
use distenc::linalg::Mat;
use distenc::partition::TensorBlocks;
use distenc::tensor::fused::{cut_sweep_into, mttkrp_modes_into, BlockCut, EntryValues};
use distenc::tensor::mttkrp::mttkrp;
use distenc::tensor::{CooTensor, KruskalTensor, LayoutKind, TensorLayout};
use std::collections::BTreeSet;

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0xf05e)
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
    // one). Both executors run the one-sweep schedule.
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
        for exec in [ExecMode::Sequential, ExecMode::Threads(4)] {
            let base = AdmmConfig { rank, max_iters: 6, tol: 1e-12, exec, ..Default::default() };
            let lapses = vec![None; shape.len()];
            let fused = AdmmSolver::new(base.clone().with_fused(true))
                .unwrap()
                .solve(&observed, &lapses)
                .unwrap();
            let plain = AdmmSolver::new(base.with_fused(false))
                .unwrap()
                .solve(&observed, &lapses)
                .unwrap();
            let label = format!("shape {shape:?} rank {rank} exec {exec:?}");
            assert_bit_identical(&fused, &plain, &label);
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
fn stored_sweeps_are_bitwise_the_plain_mttkrp() {
    // What the entry into a warm or resumed solve banks: every mode's
    // MTTKRP of the values as stored, in one sweep over the residual's
    // cut (one block at these sizes) on any executor — and the same body
    // for one mode (what the host runs unfused), for the sequential COO
    // layout's `mttkrp_into`, and for a run of modes in the middle. Each
    // output must be, bit for bit, the plain `mttkrp` of its mode, over a
    // bank that starts dirty.
    let seq = Executor::new(ExecMode::Sequential);
    let par = Executor::new(ExecMode::Threads(4));
    let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let shapes: &[&[usize]] = &[&[17, 15], &[13, 11, 9], &[7, 6, 5, 4]];
    for &shape in shapes {
        for rank in [1usize, 3, 8, 16, 17, 20] {
            let x = planted(shape, rank, 50 * shape.len() + rank, rank as u64 + 31);
            let model = KruskalTensor::random(shape, rank, rank as u64 + 7);
            let want: Vec<Mat> =
                (0..shape.len()).map(|m| mttkrp(&x, model.factors(), m).unwrap()).collect();
            let dirty = || -> Vec<Mat> {
                shape.iter().enumerate().map(|(m, &d)| Mat::random(d, rank, 90 + m as u64)).collect()
            };
            let label = format!("shape {shape:?} rank {rank}");
            let mut cut = BlockCut::new(shape, x.nnz(), rank);
            assert_eq!(cut.blocks(), 1, "{label}");
            for exec in [&seq, &par] {
                let mut bank = dirty();
                // Twice: a sweep over its own output must be clean too.
                for _ in 0..2 {
                    let stored = EntryValues::Stored(x.values());
                    cut_sweep_into(&x, &model, stored, 0, &mut bank, &mut cut, exec).unwrap();
                    for (m, h) in bank.iter().enumerate() {
                        assert_eq!(bits(h), bits(&want[m]), "{label}: all-modes, mode {m}");
                    }
                }
                let mut one = dirty();
                for (m, h) in one.iter_mut().enumerate() {
                    let stored = EntryValues::Stored(x.values());
                    let h = std::slice::from_mut(h);
                    cut_sweep_into(&x, &model, stored, m, h, &mut cut, exec).unwrap();
                    assert_eq!(bits(&h[0]), bits(&want[m]), "{label}: one mode, mode {m}");
                }
            }
            let layout = TensorLayout::build(x.clone(), LayoutKind::Coo).unwrap();
            let mut lw = layout.workspace(rank, &[], &seq).unwrap();
            let mut one = dirty();
            for (m, h) in one.iter_mut().enumerate() {
                layout.mttkrp_into(model.factors(), m, &mut lw, &seq, h).unwrap();
                assert_eq!(bits(h), bits(&want[m]), "{label}: layout, mode {m}");
            }
            // Any run of modes, not only `0..N` and `m..m + 1`.
            for first in 0..shape.len() {
                for count in 0..=shape.len() - first {
                    let mut hs = dirty();
                    mttkrp_modes_into(&x, model.factors(), first, &mut hs[first..first + count])
                        .unwrap();
                    for m in first..first + count {
                        assert_eq!(bits(&hs[m]), bits(&want[m]), "{label}: modes {first}+{count}");
                    }
                }
            }
        }
    }
}

/// Bytes the mode-by-mode schedule shuffles to fetch factor rows for its
/// N one-mode MTTKRPs in one iteration, from the blocking alone: mode `n`'s
/// pass needs, at every machine, the rows of each partition of the other
/// modes that one of the machine's blocks touches and that live elsewhere
/// (block `i` sits on machine `i mod M`, partition `p` on `p mod M`).
fn per_mode_fetch_bytes(observed: &CooTensor, cfg: &AdmmConfig, machines: usize) -> u64 {
    let parts: Vec<usize> = observed.shape().iter().map(|&d| d.min(machines)).collect();
    let blocking = TensorBlocks::build_with(observed, &parts, cfg.partition);
    let mut bytes = 0u64;
    for skip in 0..observed.order() {
        let mut needed = BTreeSet::new();
        for (i, (id, _)) in blocking.blocks.iter().enumerate() {
            for (k, pk) in blocking.block_coords(*id).into_iter().enumerate() {
                if k != skip && pk % machines != i % machines {
                    needed.insert((i % machines, k, pk));
                }
            }
        }
        for (_, k, pk) in needed {
            bytes += (blocking.modes[k].range(pk).len() * cfg.rank * 8) as u64;
        }
    }
    bytes
}

#[test]
fn distenc_fusion_changes_the_schedule_and_not_a_bit_of_the_answer() {
    // The all-modes sweep and the mode-by-mode schedule run one block
    // body and one combine order, so model, RMSE and delta agree to the
    // bit. What differs is what the cluster is charged, and by exactly
    // this much per iteration that ran on banked MTTKRPs: N block stages
    // fewer (N+1 become 1), the N one-mode factor fetches gone (the
    // sweep's own fetch already brought every mode's rows), the same
    // partial-H bytes in one shuffle instead of N.
    let machines = 3;
    let cases: &[(&[usize], usize)] =
        &[(&[15, 12, 10], 1), (&[15, 12, 10], 3), (&[15, 12, 10], 8), (&[9, 8, 7, 6], 3)];
    for &(shape, rank) in cases {
        let observed = planted(shape, rank, 500, rank as u64 + 23);
        let base = AdmmConfig { rank, max_iters: 5, tol: 1e-12, ..Default::default() };
        let run = |cfg: AdmmConfig| {
            let cluster = Cluster::new(ClusterConfig::test(machines).with_time_budget(None));
            let res = DisTenC::new(&cluster, cfg)
                .unwrap()
                .solve(&observed, &vec![None; shape.len()])
                .unwrap();
            (res, cluster.metrics())
        };
        let (fused, f) = run(base.clone().with_fused(true));
        let (plain, p) = run(base.clone().with_fused(false));
        let label = format!("distenc shape {shape:?} rank {rank}");
        assert_bit_identical(&fused, &plain, &label);

        // The prologue sweep and every sweep but the last were handed the
        // bank, so all five iterations read banked MTTKRPs.
        assert_eq!(fused.iterations, 5, "{label}: must not converge early");
        let (n, banked_iters) = (shape.len() as u64, fused.iterations as u64);
        assert_eq!(p.stages - f.stages, n * banked_iters, "{label}: stage count");
        assert_eq!(f.broadcast_bytes, p.broadcast_bytes, "{label}: broadcast bytes");
        assert_eq!(
            p.shuffled_bytes - f.shuffled_bytes,
            banked_iters * per_mode_fetch_bytes(&observed, &base, machines),
            "{label}: shuffled bytes"
        );
        for (a, b) in fused.trace.points.iter().zip(&plain.trace.points) {
            assert!(a.seconds < b.seconds, "{label}: virtual clock at iter {}", a.iter);
        }
        assert!(f.virtual_seconds < p.virtual_seconds, "{label}: final virtual time");
    }
}
