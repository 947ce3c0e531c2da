//! Allocation-budget test for the unified solver core (requires
//! `--features alloc-count`, which installs the counting global
//! allocator; without the feature this file compiles to nothing).
//!
//! The contract (see `distenc-core`'s `solver` module docs): after
//! `SolverState` and the backend size their workspaces, a steady-state
//! host iteration performs **zero** heap allocations — sequential *and*
//! threaded. The threaded executor
//! used to box one job per dispatch unit (~32 boxes per iteration); it
//! now hands work to the resident pool through `Pool::run_indexed`, an
//! unboxed index broadcast whose indices the workers and the calling
//! thread claim from one counter, so nothing is left to allocate, on the
//! workers or on the caller.
//!
//! Methodology: the solver is deterministic, so two runs differing only
//! in `max_iters` (2 vs 10) perform identical setup work; the difference
//! in allocation counts divided by 8 is exactly the per-iteration cost.
//! All measurements live in one `#[test]` because the global counters are
//! process-wide and concurrently running tests would pollute each other.
//!
//! The set-up has a budget too: the host backend's one workspace, the
//! residual's block cut, holds its partial banks under half a double per
//! nonzero on every executor — no per-mode position list, no value
//! carrier — and a whole cold solve allocates less than one more index
//! list: the residual is values on the observed tensor's support. A cold
//! `DisTenC` solve likewise holds one copy of its blocked entries, the
//! blocking's, with its residual as values per block.

#![cfg(feature = "alloc-count")]

use distenc::core::{AdmmConfig, AdmmSolver, DisTenC};
use distenc::dataflow::alloc;
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode};
use distenc::tensor::fused::BlockCut;
use distenc::tensor::CooTensor;

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0xa11c)
}

/// Thread-local allocation count of one full solve.
fn thread_allocs_of(observed: &CooTensor, cfg: &AdmmConfig) -> u64 {
    let before = alloc::snapshot();
    let res = AdmmSolver::new(cfg.clone())
        .unwrap()
        .solve(observed, &[None, None, None])
        .unwrap();
    let d = alloc::snapshot().delta(before);
    assert_eq!(res.iterations, cfg.max_iters, "must not converge early");
    drop(res);
    d.thread_allocs
}

/// Global (all-threads) allocation count of one full solve.
fn global_allocs_of(observed: &CooTensor, cfg: &AdmmConfig) -> u64 {
    let before = alloc::snapshot();
    let res = AdmmSolver::new(cfg.clone())
        .unwrap()
        .solve(observed, &[None, None, None])
        .unwrap();
    let d = alloc::snapshot().delta(before);
    assert_eq!(res.iterations, cfg.max_iters, "must not converge early");
    drop(res);
    d.global_allocs
}

/// Per-steady-iteration allocations: difference between a 10-iteration
/// and a 2-iteration run of the *same* problem, over the 8 extra
/// iterations. Setup allocations cancel exactly (the solver is
/// deterministic and both runs size identical workspaces).
fn per_iter(observed: &CooTensor, cfg: &AdmmConfig, count: fn(&CooTensor, &AdmmConfig) -> u64) -> f64 {
    let short = AdmmConfig { max_iters: 2, ..cfg.clone() };
    let long = AdmmConfig { max_iters: 10, ..cfg.clone() };
    let a = count(observed, &short);
    let b = count(observed, &long);
    (b.saturating_sub(a)) as f64 / 8.0
}

#[test]
fn steady_state_iterations_allocate_o1_heap() {
    // tol far below reachable so every run executes exactly max_iters.
    let base = AdmmConfig { rank: 3, tol: 1e-300, ..Default::default() };
    let small = planted(&[14, 12, 10], 3, 600, 2);
    let large = planted(&[28, 24, 20], 3, 2400, 3);

    // --- Sequential: literally zero allocations per steady iteration. ---
    let seq = AdmmConfig { exec: ExecMode::Sequential, ..base.clone() };
    let seq_small = per_iter(&small, &seq, thread_allocs_of);
    assert_eq!(seq_small, 0.0, "sequential steady state must not allocate");
    let seq_large = per_iter(&large, &seq, thread_allocs_of);
    assert_eq!(seq_large, 0.0, "sequential budget must not grow with nnz");
    let seq_rank5 = per_iter(
        &planted(&[14, 12, 10], 3, 600, 2),
        &AdmmConfig { rank: 5, ..seq.clone() },
        thread_allocs_of,
    );
    assert_eq!(seq_rank5, 0.0, "sequential budget must not grow with rank");
    // Rank 20 (the paper's, and past both specialized ranks): the
    // all-modes sweep and the plain refresh run their generic-rank bodies,
    // which keep every intermediate in locals.
    let seq_rank20 = AdmmConfig { rank: 20, ..seq.clone() };
    assert_eq!(
        per_iter(&small, &seq_rank20, thread_allocs_of),
        0.0,
        "generic-rank sweep must not allocate"
    );

    // Ranks 8 and 16 run the monomorphised bodies.
    for rank in [8, 16] {
        let cfg = AdmmConfig { rank, ..seq.clone() };
        assert_eq!(per_iter(&small, &cfg, thread_allocs_of), 0.0, "rank {rank}");
    }

    // --- Set-up: what `HostBackend::new` sizes — the block cut — stays
    // under one f64 per nonzero, on a one-block and on a multi-block
    // residual (a cut is the data's, whatever the executor).
    let cut = planted(&[80, 60, 50], 3, 45_000, 4);
    for (x, rank) in [(&large, 16), (&cut, 3), (&cut, 16)] {
        let before = alloc::snapshot();
        let held = BlockCut::new(x.shape(), x.nnz(), rank);
        let bytes = alloc::snapshot().delta(before).thread_bytes;
        assert!(
            bytes < 8 * x.nnz() as u64,
            "a cut of {} blocks took {bytes} bytes for {} nonzeros",
            held.blocks(),
            x.nnz()
        );
    }
    assert!(BlockCut::new(cut.shape(), cut.nnz(), 3).blocks() > 1);

    // --- A cold solve holds one index list, the observed tensor's: the
    // residual is one value per entry, so everything a 2-iteration solve
    // allocates stays under a second index list (8·N·nnz bytes).
    let before = alloc::snapshot();
    let res = AdmmSolver::new(AdmmConfig { max_iters: 2, ..seq.clone() })
        .unwrap()
        .solve(&cut, &[None, None, None])
        .unwrap();
    let bytes = alloc::snapshot().delta(before).thread_bytes;
    drop(res);
    let index_list = 8 * (cut.order() * cut.nnz()) as u64;
    assert!(bytes < index_list, "a cold solve took {bytes} bytes, an index list is {index_list}");

    // --- DisTenC holds its blocked entries once, the blocking's (each
    // block gathered at its exact size from the source positions bucketed
    // beside it), and its residual is values per block: a cold
    // 2-iteration solve on four machines stays under fourteen doubles per
    // nonzero, transient active-row lists included (about 12 on this
    // tensor; a second copy of the blocked entries takes it past 18).
    let cluster = Cluster::new(
        ClusterConfig::test(4).with_exec(ExecMode::Sequential).with_time_budget(None),
    );
    let before = alloc::snapshot();
    let res = DisTenC::new(&cluster, AdmmConfig { max_iters: 2, ..seq.clone() })
        .unwrap()
        .solve(&cut, &[None, None, None])
        .unwrap();
    let bytes = alloc::snapshot().delta(before).thread_bytes;
    drop(res);
    let budget = 14 * 8 * cut.nnz() as u64;
    assert!(bytes < budget, "a cold DisTenC solve took {bytes} bytes, the budget is {budget}");

    // --- Threaded: also zero. The unboxed broadcast dispatches through
    // pool-resident state, and on hosts where the pool is bypassed (a
    // single core, or single-chunk work) the inline fast path is the
    // sequential loop above. Measured globally so worker-thread
    // allocations would be caught too.
    let thr = AdmmConfig { exec: ExecMode::Threads(4), ..base.clone() };
    let thr_small = per_iter(&small, &thr, global_allocs_of);
    assert_eq!(thr_small, 0.0, "threaded steady state must not allocate");
    let thr_large = per_iter(&large, &thr, global_allocs_of);
    assert_eq!(thr_large, 0.0, "threaded budget must not grow with nnz");
    let thr_rank5 = per_iter(
        &planted(&[14, 12, 10], 3, 600, 2),
        &AdmmConfig { rank: 5, ..thr.clone() },
        global_allocs_of,
    );
    assert_eq!(thr_rank5, 0.0, "threaded budget must not grow with rank");
    // Several blocks on the pool: each task is a stack slot, and the
    // partial banks were sized at set-up.
    let thr_cut = per_iter(&cut, &thr, global_allocs_of);
    assert_eq!(thr_cut, 0.0, "a multi-block cut under threads must not allocate");
}

/// The dispatch mechanism itself, measured directly on the pool: an index
/// broadcast allocates nothing, no matter how many indices it fans out.
/// (The solver-level assertions above inline on single-core hosts; this
/// pins the pool path everywhere.)
#[test]
fn pool_index_broadcast_allocates_nothing() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let pool = scoped_pool::Pool::new(2);
    let hits = AtomicU64::new(0);
    let task = |_i: usize| {
        hits.fetch_add(1, Ordering::Relaxed);
    };
    // Warm up so lazily initialized thread state doesn't bill the
    // measured window. The barrier makes the worker and the caller take
    // one index each: without it a worker the host was slow to start could
    // sit the warm-up out and do its start-up allocations inside the
    // window.
    let both = std::sync::Barrier::new(2);
    pool.run_indexed(2, &|_| {
        both.wait();
    });
    pool.run_indexed(64, &task);
    let before = alloc::snapshot();
    for _ in 0..10 {
        pool.run_indexed(64, &task);
    }
    let d = alloc::snapshot().delta(before);
    assert_eq!(hits.load(Ordering::Relaxed), 64 * 11);
    assert_eq!(
        d.global_allocs, 0,
        "run_indexed must not allocate on any thread in steady state"
    );
}
