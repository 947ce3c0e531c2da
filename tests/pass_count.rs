//! The pass-count gate: how many sweeps over the nonzeros an iteration
//! costs (requires `--features pass-count`; without the feature this
//! file compiles to nothing).
//!
//! Every entry-sweep kernel ticks `distenc_dataflow::passes` once per
//! *invocation* — never per thread, chunk, or block. The contract (see
//! `distenc-core`'s `solver` module docs): a steady-state iteration of an
//! order-N solve sweeps the entry list **once**, on the host under every
//! executor and on the distributed driver — the one sweep banks every
//! mode's MTTKRP (on the host: the residual's block cut, whether its
//! blocks run one after another or on threads; on the cluster: one task
//! per Algorithm 2 block emits all N partial `H`s), so all N updates are
//! read from the bank and the iteration touches `nnz` entries.
//!
//! Every solve enters the same way: a **warm** one (`StreamingSolver::solve`
//! after an `apply`) and a **resumed** one (`AdmmSolver::resume`) open with
//! the prologue sweep a cold solve has, which derives the residual from the
//! initial factors and banks every mode's MTTKRP — **1** sweep, so `k`
//! iterations cost exactly `k + 1` on every executor, all of them
//! evaluating the residual: the prologue, `k − 1` fused sweeps, the last
//! plain `‖E‖²`. These are whole-solve counts, not differences: nothing
//! else in a re-solve sweeps (a batch's `apply` evaluates nothing).
//!
//! The executor is set explicitly in every case below, so the counts do
//! not depend on `DISTENC_THREADS` — nor on the host: no executor changes
//! what a sweep is.
//!
//! Alongside sweeps, the instrument counts **entries touched**: a host
//! iteration's one sweep touches exactly `nnz` entries.
//!
//! Methodology mirrors `tests/alloc_budget.rs`: the solver is
//! deterministic, so runs differing only in `max_iters` (2 vs 10) do
//! identical setup; the sweep-count difference over the 8 extra
//! iterations is exactly the per-iteration cost. One `#[test]` because
//! the counter is process-global.

#![cfg(feature = "pass-count")]

use distenc::core::{AdmmConfig, AdmmSolver, Checkpoint, CheckpointPolicy, DisTenC};
use distenc::dataflow::passes;
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode};
use distenc::stream::{DeltaBatch, StreamingSolver};
use distenc::tensor::fused::BlockCut;
use distenc::tensor::CooTensor;

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0x9a55)
}

/// Entry sweeps and entries touched per steady-state iteration of the
/// host solver.
fn host_per_iter(observed: &CooTensor, cfg: &AdmmConfig) -> (f64, f64) {
    let count = |iters: usize| {
        let cfg = AdmmConfig { max_iters: iters, ..cfg.clone() };
        let laps = vec![None; observed.order()];
        let before = (passes::sweeps(), passes::entries_touched());
        let res = AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap();
        assert_eq!(res.iterations, iters, "must not converge early");
        (passes::sweeps() - before.0, passes::entries_touched() - before.1)
    };
    let ((s2, e2), (s10, e10)) = (count(2), count(10));
    ((s10 - s2) as f64 / 8.0, (e10 - e2) as f64 / 8.0)
}

/// Entry sweeps per steady-state iteration of the distributed solver
/// with the cluster's block tasks on `exec`.
fn distenc_sweeps_per_iter(observed: &CooTensor, cfg: &AdmmConfig, exec: ExecMode) -> f64 {
    let count = |iters: usize| {
        let cfg = AdmmConfig { max_iters: iters, ..cfg.clone() };
        let laps = vec![None; observed.order()];
        let cluster =
            Cluster::new(ClusterConfig::test(3).with_time_budget(None).with_exec(exec));
        let before = passes::sweeps();
        let res = DisTenC::new(&cluster, cfg).unwrap().solve(observed, &laps).unwrap();
        assert_eq!(res.iterations, iters, "must not converge early");
        passes::sweeps() - before
    };
    (count(10) - count(2)) as f64 / 8.0
}

/// Entry sweeps of one whole `k`-iteration streaming re-solve: a base
/// solve, a structural batch (inserts and an update) applied to the
/// tensor, then the warm solve that is measured.
fn warm_resolve_sweeps(observed: &CooTensor, cfg: &AdmmConfig, k: u64) -> u64 {
    let k = k as usize;
    let laps = vec![None; observed.order()];
    let mut s = StreamingSolver::new(observed.clone(), laps, cfg.clone()).unwrap();
    s.solve().unwrap();
    let absent: Vec<(Vec<usize>, f64)> = (0..observed.shape()[0])
        .map(|i| {
            let mut idx = vec![0; observed.order()];
            idx[0] = i;
            (idx, 0.5)
        })
        .filter(|(idx, _)| observed.position_of(idx).is_none())
        .collect();
    assert!(!absent.is_empty(), "the batch must change the support");
    let update = vec![(observed.index(3).to_vec(), -0.25)];
    let growth = vec![0; observed.order()];
    let batch = DeltaBatch::try_new(observed.shape(), &growth, absent, update).unwrap();
    let before = passes::sweeps();
    s.apply(&batch).unwrap();
    assert_eq!(passes::sweeps(), before, "an apply sweeps nothing");
    s.set_budget(k, cfg.tol).unwrap();
    let before = passes::sweeps();
    let res = s.solve().unwrap();
    assert_eq!(res.iterations, k, "must not converge early");
    passes::sweeps() - before
}

/// Entry sweeps of one whole `AdmmSolver::resume` that has `k` iterations
/// left to run.
fn resume_sweeps(observed: &CooTensor, cfg: &AdmmConfig, k: u64, tag: &str) -> u64 {
    let k = k as usize;
    let laps = vec![None; observed.order()];
    let path = std::env::temp_dir()
        .join(format!("distenc-pass-count-{}-{tag}.ckpt", std::process::id()));
    let interrupted = AdmmConfig {
        max_iters: 3,
        checkpoint: Some(CheckpointPolicy::every(3).with_path(&path)),
        ..cfg.clone()
    };
    AdmmSolver::new(interrupted).unwrap().solve(observed, &laps).unwrap();
    let mut ckpt = Checkpoint::read_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    ckpt.config.max_iters = 3 + k;
    let solver = AdmmSolver::new(AdmmConfig { max_iters: 3 + k, ..cfg.clone() }).unwrap();
    let before = passes::sweeps();
    let res = solver.resume(observed, &laps, &ckpt).unwrap();
    assert_eq!(res.iterations, 3 + k, "must not converge early");
    passes::sweeps() - before
}

#[test]
fn fused_iterations_sweep_the_nonzeros_once_on_every_executor() {
    let base = AdmmConfig {
        rank: 3,
        tol: 1e-300,
        exec: ExecMode::Sequential,
        ..Default::default()
    };
    let order3 = planted(&[14, 12, 10], 3, 600, 2);
    let order4 = planted(&[9, 8, 7, 6], 3, 700, 3);
    // Above the one-block threshold: the host cuts this residual into
    // several blocks, and a sweep still ticks once.
    let cut = planted(&[80, 60, 50], 3, 45_000, 4);
    assert!(BlockCut::new(cut.shape(), cut.nnz(), 3).blocks() > 1);
    let executors = [ExecMode::Sequential, ExecMode::Threads(2), ExecMode::Threads(4)];

    // --- Host: one sweep banks every mode, on every executor. ----------
    for exec in executors {
        let cfg = AdmmConfig { exec, ..base.clone() };
        for tensor in [&order3, &order4, &cut] {
            let (label, nnz) = (format!("{:?} {exec:?}", tensor.shape()), tensor.nnz() as f64);
            assert_eq!(host_per_iter(tensor, &cfg), (1.0, nnz), "{label}");
        }

        // --- Warm and resumed: one prologue sweep banks every mode, as
        // in a cold solve. ----------------------------------------------------
        let tag = format!("{exec:?}");
        for (tensor, n) in [(&order3, 3u64), (&order4, 4)] {
            for k in [1u64, 4] {
                let what = format!("order {n}, {k} iterations, {exec:?}");
                assert_eq!(warm_resolve_sweeps(tensor, &cfg, k), k + 1, "warm {what}");
                assert_eq!(resume_sweeps(tensor, &cfg, k, &tag), k + 1, "resume {what}");
            }
        }
    }

    // --- Distributed solver: one block stage banks every mode, whatever
    // runs the block tasks (blocks share no output, so threads need no
    // second pass). ------------------------------------------------------
    for exec in [ExecMode::Sequential, ExecMode::Threads(4)] {
        for (tensor, n) in [(&order3, 3.0), (&order4, 4.0)] {
            let label = format!("distenc order {n} {exec:?}");
            assert_eq!(distenc_sweeps_per_iter(tensor, &base, exec), 1.0, "{label}");
        }
    }
}
