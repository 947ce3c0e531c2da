//! Whole-ADMM-iteration wall time on the three host executors:
//! `Sequential`, `Threads(2)`, `Threads(4)`.
//!
//! Writes `BENCH_parallel.json` at the repository root. Per executor: the
//! median wall time of a one-iteration solve (set-up, entry sweep and one
//! iteration) and of a steady-state iteration (an eleven-iteration solve
//! minus a one-iteration solve, over ten). The executors take turns within
//! every rep, so a slow phase of the host lands on all of them instead of
//! on whichever one it was timing. Speed-ups are *reported*, never
//! asserted: what the host gives is what lands in the file, beside its
//! `host_parallelism`. Per-kernel thread scaling (MTTKRP, fused
//! sweep, refresh at one and two threads) is the `benchmark` package's
//! `tensor.*_t1` / `_t2` cells.

use distenc_bench::{median_ns, write_bench_json};
use distenc_core::{AdmmConfig, AdmmSolver};
use distenc_dataflow::ExecMode;
use distenc_tensor::CooTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHAPE: [usize; 3] = [300, 200, 100];
const NNZ: usize = 120_000;
const RANK: usize = 16;
const REPS: usize = 7;
const STEADY_ITERS: usize = 10;
const EXECUTORS: [(&str, ExecMode); 3] = [
    ("sequential", ExecMode::Sequential),
    ("threads_2", ExecMode::Threads(2)),
    ("threads_4", ExecMode::Threads(4)),
];

fn random_coo(seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(SHAPE.to_vec());
    for _ in 0..NNZ {
        let idx: Vec<usize> = SHAPE.iter().map(|&d| rng.random_range(0..d)).collect();
        t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
    }
    t.sort_dedup();
    t
}

fn solve(x: &CooTensor, exec: ExecMode, iters: usize) {
    // A tolerance no run reaches: every solve does exactly `iters` iterations.
    let cfg = AdmmConfig {
        rank: RANK,
        max_iters: iters,
        tol: 1e-15,
        exec,
        ..Default::default()
    };
    let res = AdmmSolver::new(cfg)
        .unwrap()
        .solve(x, &[None, None, None])
        .unwrap();
    assert_eq!(res.iterations, iters);
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let x = random_coo(11);
    let mut one = vec![Vec::new(); EXECUTORS.len()];
    let mut many = vec![Vec::new(); EXECUTORS.len()];
    for _ in 0..REPS {
        for (k, &(_, exec)) in EXECUTORS.iter().enumerate() {
            one[k].push(median_ns(0..1, |_| solve(&x, exec, 1)));
            many[k].push(median_ns(0..1, |_| solve(&x, exec, 1 + STEADY_ITERS)));
        }
    }
    let timed: Vec<(&str, u64, u64)> = EXECUTORS
        .iter()
        .zip(one.into_iter().zip(many))
        .map(|(&(name, _), (one, many))| {
            let (one, many) = (median(one), median(many));
            (name, one, many.saturating_sub(one) / STEADY_ITERS as u64)
        })
        .collect();
    let (_, base_one, base_steady) = timed[0];
    let rows: Vec<String> = timed
        .iter()
        .map(|&(name, one, steady)| {
            format!(
                "    \"{name}\": {{ \"one_iteration_solve_ns\": {one}, \"steady_iteration_ns\": {steady}, \"one_iteration_speedup\": {:.3}, \"steady_speedup\": {:.3} }}",
                base_one as f64 / one.max(1) as f64,
                base_steady as f64 / steady.max(1) as f64,
            )
        })
        .collect();
    write_bench_json(
        "parallel",
        &format!(
            "  \"workload\": {{ \"shape\": {SHAPE:?}, \"nnz\": {}, \"rank\": {RANK} }},\n  \"reps\": {REPS},\n  \"executors\": {{\n{}\n  }},\n  \"note\": \"median of {REPS} wall-clock runs per cell, the executors taking turns within each rep; one_iteration_solve_ns = a max_iters=1 solve (set-up, entry sweep, one iteration); steady_iteration_ns = (a {}-iteration solve - a 1-iteration solve) / {STEADY_ITERS}; speedups are sequential / this executor, reported and never asserted; executors wider than host_parallelism cannot speed anything up\"",
            x.nnz(),
            rows.join(",\n"),
            1 + STEADY_ITERS,
        ),
    );
}
