//! Layout benchmark: per-sweep kernel throughput of the residual
//! storage layouts (`coo`, `csf`, `tiled`) on the `fused` bench
//! workload, plus the one-time cost of the layout pass itself.
//!
//! Writes `BENCH_layout.json` at the repository root. Two kernel rows
//! per (threads, rank) cell:
//!
//! * `mttkrp_ns` — one plain MTTKRP sweep (averaged over the three
//!   modes, the steady-state shape of Algorithm 1 lines 8–12),
//! * `fused_ns` — one fused refresh+MTTKRP sweep (recompute `E`, fold
//!   `‖E‖²_F`, bank `H₀`, all in one traversal).
//!
//! The layout pass (counting-sort tiling, CSF tree construction) is a
//! *setup* cost paid once per support, never per iteration, so it is
//! reported separately (`layout_pass`) rather than folded into the
//! per-sweep numbers — amortization is the caller's call (a solve runs
//! `N·max_iters` sweeps against one pass).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use distenc_dataflow::{ExecMode, Executor};
use distenc_linalg::Mat;
use distenc_tensor::{CooTensor, KruskalTensor, LayoutKind, TensorLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SHAPE: [usize; 3] = [120, 100, 80];
const NNZ: usize = 60_000;
const RANKS: [usize; 2] = [8, 16];
const THREADS: [usize; 2] = [1, 4];
const LAYOUTS: [LayoutKind; 3] = [LayoutKind::Coo, LayoutKind::Csf, LayoutKind::Tiled];
const REPS: usize = 25;

fn workload(rank: usize) -> CooTensor {
    let truth = KruskalTensor::random(&SHAPE, rank, 17);
    let mut rng = StdRng::seed_from_u64(0xbe9c);
    let mut mask = CooTensor::new(SHAPE.to_vec());
    for _ in 0..NNZ {
        let idx: Vec<usize> = SHAPE.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

fn executor(threads: usize) -> Executor {
    Executor::new(if threads >= 2 { ExecMode::Threads(threads) } else { ExecMode::Sequential })
}

fn boundaries(e: &CooTensor, exec: &Executor) -> Vec<Vec<usize>> {
    (0..e.order())
        .map(|n| distenc_partition::greedy_boundaries(&e.slice_nnz(n), exec.parallelism()))
        .collect()
}

/// Median-of-`reps` wall time of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// (plain-MTTKRP ns/sweep, fused ns/sweep) for one layout.
fn sweep_ns(x: &CooTensor, kind: LayoutKind, rank: usize, threads: usize) -> (u64, u64) {
    let exec = executor(threads);
    let model = KruskalTensor::random(&SHAPE, rank, 29);
    let mut layout = TensorLayout::build(x.clone(), kind).unwrap();
    let bounds = boundaries(x, &exec);
    let mut lw = layout.workspace(rank, &bounds, &exec).unwrap();
    let mut h: Vec<Mat> = SHAPE.iter().map(|&d| Mat::zeros(d, rank)).collect();

    // Warm up caches, pools, and code paths.
    for (mode, out) in h.iter_mut().enumerate() {
        layout.mttkrp_into(model.factors(), mode, &mut lw, &exec, out).unwrap();
    }
    let mttkrp = median_ns(REPS, || {
        for (mode, out) in h.iter_mut().enumerate() {
            layout.mttkrp_into(black_box(model.factors()), mode, &mut lw, &exec, out).unwrap();
        }
    }) / SHAPE.len() as u64;

    let _ = layout.fused_refresh_into(x, &model, &mut lw, &exec, &mut h[0]).unwrap();
    let fused = median_ns(REPS, || {
        let f = layout
            .fused_refresh_into(black_box(x), &model, &mut lw, &exec, &mut h[0])
            .unwrap();
        black_box(f);
    });
    (mttkrp, fused)
}

/// ns to run the layout pass (tile ordering / CSF trees) on a fresh
/// support — the `e.clone()` feedstock is prepared outside the timer.
fn layout_pass_ns(x: &CooTensor, kind: LayoutKind) -> u64 {
    let mut samples: Vec<u64> = (0..REPS)
        .map(|_| {
            let e = x.clone();
            let t0 = Instant::now();
            let l = TensorLayout::build(e, kind).unwrap();
            let ns = t0.elapsed().as_nanos() as u64;
            black_box(l.nnz());
            ns
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_layout_kernels(c: &mut Criterion) {
    let x = workload(16);
    let exec = executor(1);
    let model = KruskalTensor::random(&SHAPE, 16, 29);
    let bounds = boundaries(&x, &exec);
    let mut g = c.benchmark_group("layout_mttkrp_rank16");
    for kind in LAYOUTS {
        let layout = TensorLayout::build(x.clone(), kind).unwrap();
        let mut lw = layout.workspace(16, &bounds, &exec).unwrap();
        let mut h = Mat::zeros(SHAPE[0], 16);
        g.bench_function(&kind.to_string(), |b| {
            b.iter(|| {
                layout
                    .mttkrp_into(black_box(model.factors()), 0, &mut lw, &exec, &mut h)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn emit_json(_c: &mut Criterion) {
    let mut cells = Vec::new();
    for &threads in &THREADS {
        for &rank in &RANKS {
            let x = workload(rank);
            let rows: Vec<String> = LAYOUTS
                .iter()
                .map(|&kind| {
                    let (mttkrp, fused) = sweep_ns(&x, kind, rank, threads);
                    format!(
                        "      \"{kind}\": {{ \"mttkrp_ns\": {mttkrp}, \"fused_ns\": {fused} }}"
                    )
                })
                .collect();
            let (coo_m, coo_f) = sweep_ns(&x, LayoutKind::Coo, rank, threads);
            let (tl_m, tl_f) = sweep_ns(&x, LayoutKind::Tiled, rank, threads);
            cells.push(format!(
                "    \"threads_{threads}_rank_{rank}\": {{\n{},\n      \"tiled_over_coo_mttkrp\": {:.3},\n      \"tiled_over_coo_fused\": {:.3}\n    }}",
                rows.join(",\n"),
                coo_m as f64 / tl_m.max(1) as f64,
                coo_f as f64 / tl_f.max(1) as f64,
            ));
        }
    }

    let x = workload(16);
    let pass_rows: Vec<String> = [LayoutKind::Csf, LayoutKind::Tiled]
        .iter()
        .map(|&kind| {
            let ns = layout_pass_ns(&x, kind);
            format!(
                "    \"{kind}\": {{ \"build_ns\": {ns}, \"ns_per_nnz\": {:.2} }}",
                ns as f64 / NNZ as f64
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"workload\": {{ \"shape\": {SHAPE:?}, \"nnz\": {NNZ}, \"ranks\": {RANKS:?} }},\n  \"sweeps\": {{\n{}\n  }},\n  \"layout_pass\": {{\n{}\n  }},\n  \"note\": \"mttkrp_ns = one plain MTTKRP sweep (median over {REPS}, averaged over the 3 modes); fused_ns = one fused refresh+MTTKRP sweep; ratios are coo/tiled speedups (>1 = tiled faster); layout_pass is the one-time per-support setup (tile counting sort, CSF trees), amortized over N*max_iters sweeps in a solve and reported separately; coo and tiled results are bit-identical, csf matches to ~1e-9\"\n}}\n",
        cells.join(",\n"),
        pass_rows.join(",\n"),
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_layout.json");
    std::fs::write(&path, &json).expect("write BENCH_layout.json");
    eprintln!("wrote {}", path.display());
}

criterion_group!(benches, bench_layout_kernels, emit_json);
criterion_main!(benches);
