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
//! observed tensor's block cut, holds its partial banks under half a
//! double per nonzero on every executor — no per-mode position list, no
//! value carrier — and a whole cold solve allocates less than one double
//! per nonzero: nothing stores the residual. A cold `DisTenC` solve
//! likewise holds one copy of its blocked entries, the blocking's, and no
//! residual beside them. Nor does a snapshot or a streaming solve.

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

    // --- A cold solve holds one index list, the observed tensor's, and
    // no residual: everything a 2-iteration solve allocates stays under
    // one double per nonzero (0.13 on this tensor), which a stored
    // residual alone would fill.
    let before = alloc::snapshot();
    let res = AdmmSolver::new(AdmmConfig { max_iters: 2, ..seq.clone() })
        .unwrap()
        .solve(&cut, &[None, None, None])
        .unwrap();
    let bytes = alloc::snapshot().delta(before).thread_bytes;
    drop(res);
    let values = 8 * cut.nnz() as u64;
    assert!(bytes < values, "a cold solve took {bytes} bytes, a double per nonzero is {values}");

    // --- DisTenC holds its blocked entries once, the blocking's (each
    // block gathered at its exact size from the source positions bucketed
    // beside it, the buckets dropped), and no residual values: a cold
    // 2-iteration solve on four machines stays under twelve doubles per
    // nonzero, transient active-row lists included (about 10.7 on this
    // tensor, to which values per block would add one).
    let cluster = Cluster::new(ClusterConfig::test(4).with_time_budget(None));
    let before = alloc::snapshot();
    let res = DisTenC::new(&cluster, AdmmConfig { max_iters: 2, ..seq.clone() })
        .unwrap()
        .solve(&cut, &[None, None, None])
        .unwrap();
    let bytes = alloc::snapshot().delta(before).thread_bytes;
    drop(res);
    let budget = 12 * 8 * cut.nnz() as u64;
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

/// A snapshot costs factors, not nonzeros: a solve that checkpoints every
/// iteration allocates, per snapshot, two copies of its factors and
/// duals (the captured state and its image, written into one buffer
/// sized up front) and nothing the size of the observed support — the
/// checkpoint holds no residual. And a streaming solve, cold or warm, allocates less
/// than one double per nonzero: it keeps no residual between solves and
/// derives one in each sweep without storing it.
#[test]
fn snapshots_and_streaming_solves_allocate_no_residual() {
    use distenc::core::CheckpointPolicy;
    use distenc::stream::StreamingSolver;
    let observed = planted(&[80, 60, 50], 3, 45_000, 4);
    let nnz = observed.nnz() as u64;
    let cfg = AdmmConfig { rank: 3, tol: 1e-300, exec: ExecMode::Sequential, ..Default::default() };

    let path = std::env::temp_dir()
        .join(format!("distenc-alloc-budget-{}.ckpt", std::process::id()));
    let bytes_of = |iters: usize, every: Option<usize>| {
        let policy = every.map(|n| CheckpointPolicy::every(n).with_path(&path));
        let cfg = AdmmConfig { max_iters: iters, checkpoint: policy, ..cfg.clone() };
        let before = alloc::snapshot();
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        let d = alloc::snapshot().delta(before);
        assert_eq!(res.iterations, iters, "must not converge early");
        d.thread_bytes
    };
    // Eight more iterations, each with a snapshot, against eight without.
    let snapshots = bytes_of(10, Some(1)) - bytes_of(2, Some(1));
    let plain = bytes_of(10, None) - bytes_of(2, None);
    std::fs::remove_file(&path).unwrap();
    let per_snapshot = (snapshots - plain) / 8;
    let state_bytes: u64 = observed.shape().iter().map(|&d| 2 * 8 * (d * cfg.rank) as u64).sum();
    assert!(
        per_snapshot < 3 * state_bytes,
        "a snapshot took {per_snapshot} bytes: factors and duals are {state_bytes}, {nnz} nonzeros"
    );

    let mut s =
        StreamingSolver::new(observed.clone(), vec![None, None, None], cfg.clone()).unwrap();
    s.set_budget(2, 1e-300).unwrap();
    for pass in ["cold", "warm"] {
        let before = alloc::snapshot();
        s.solve().unwrap();
        let bytes = alloc::snapshot().delta(before).thread_bytes;
        assert!(bytes < 8 * nnz, "a {pass} streaming solve took {bytes} bytes for {nnz} nonzeros");
    }
}

/// Reading a `.coo` file holds one block of text and the tensor, sized
/// once from the file's length: on `Sequential` and on `Threads(4)` it
/// allocates no more bytes than the line-at-a-time reader it replaced did
/// on the same files, and no more allocations for 3.4 times the lines
/// than the tensor's own growth.
#[test]
fn coo_reader_stays_within_the_line_readers_bytes() {
    use distenc::tensor::io;
    // (draws, entries after deduplication, bytes the line reader
    // allocated reading that file: a `BufReader`, a line buffer, and the
    // tensor grown one entry at a time).
    const LINE_READER: [(usize, usize, u64); 2] = [(25_000, 23_777, 2_629_678), (100_000, 81_781, 6_299_694)];
    let mut allocs = Vec::new();
    for (draws, nnz, line_reader_bytes) in LINE_READER {
        let t = planted(&[80, 60, 50], 3, draws, 7);
        assert_eq!(t.nnz(), nnz);
        let path = std::env::temp_dir().join(format!("distenc-alloc-budget-{draws}.coo"));
        io::write_coo_file(&t, &path).unwrap();
        for mode in [ExecMode::Sequential, ExecMode::Threads(4)] {
            let before = alloc::snapshot();
            let back = io::read_coo_file_on(&path, mode).unwrap();
            let d = alloc::snapshot().delta(before);
            assert_eq!(back, t);
            assert!(
                d.global_bytes <= line_reader_bytes,
                "{mode:?} read {nnz} entries with {} bytes, the line reader took {line_reader_bytes}",
                d.global_bytes
            );
            allocs.push((mode, nnz, d.global_allocs));
        }
        std::fs::remove_file(&path).unwrap();
    }
    // The one-block file's storage is sized by its block; a longer file's
    // is sized again from its length, one allocation per index and value
    // list: that is all the line count adds.
    for (mode, nnz, small) in allocs.iter().filter(|a| a.1 == LINE_READER[0].1) {
        let (_, big_nnz, big) = allocs.iter().find(|a| a.0 == *mode && a.1 != *nnz).unwrap();
        assert!(
            *big <= small + 2,
            "{mode:?}: {big} allocations for {big_nnz} entries, {small} for {nnz}"
        );
    }
}

/// `sort_dedup` leaves a sorted tensor alone without allocating, and
/// sorts any other in fewer bytes, all told, than the comparator sort it
/// replaced held live at its peak: `(16N + 24)·nnz` (a position list, and
/// a second index and value list beside the first). Its own peak, under
/// `(16N + 16)·nnz`, is below what it requests in total.
#[test]
fn sort_dedup_allocates_nothing_on_sorted_input_and_stays_under_its_bound() {
    let sorted = planted(&[80, 60, 50], 3, 60_000, 11);
    let n = sorted.order() as u64;
    let mut again = sorted.clone();
    let before = alloc::snapshot();
    again.sort_dedup();
    let d = alloc::snapshot().delta(before);
    assert_eq!(again, sorted);
    assert_eq!(d.global_bytes, 0, "a sorted tensor is one check, no copy");

    // The same entries, reversed, with every third one pushed twice.
    let mut shuffled = CooTensor::new(sorted.shape().to_vec());
    for (e, (idx, v)) in sorted.iter().enumerate().collect::<Vec<_>>().into_iter().rev() {
        shuffled.push(idx, v).unwrap();
        if e % 3 == 0 {
            shuffled.push(idx, v).unwrap();
        }
    }
    let nnz = shuffled.nnz() as u64;
    let before = alloc::snapshot();
    shuffled.sort_dedup();
    let d = alloc::snapshot().delta(before);
    assert_eq!(shuffled.nnz(), sorted.nnz());
    let bound = (16 * n + 24) * nnz;
    let bytes = d.global_bytes;
    assert!(bytes < bound, "{bytes} bytes to sort {nnz} entries, bound {bound}");
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
