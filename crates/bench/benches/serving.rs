//! Benchmarks of the serving subsystem: per-point vs batched scoring,
//! pruned vs brute-force top-K, and an end-to-end Zipf trace replay.
//!
//! The headline comparison is `point_loop` vs `batch`: both score the
//! same 256 entries, but `batch` gathers factor rows once and sweeps a
//! shared rank loop, so it must come out faster per entry.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use distenc_serve::{replay_direct, synth_trace, Engine, EngineConfig, TopKQuery, TraceConfig};
use distenc_tensor::KruskalTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHAPE: [usize; 3] = [20_000, 5_000, 50];
const RANK: usize = 16;

fn engine() -> Engine {
    let model = KruskalTensor::random(&SHAPE, RANK, 7);
    Engine::new(&model, EngineConfig::default()).unwrap()
}

fn random_indices(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| SHAPE.iter().map(|&d| rng.random_range(0..d)).collect())
        .collect()
}

fn bench_point_vs_batch(c: &mut Criterion) {
    let engine = engine();
    let queries = random_indices(256, 11);
    let mut g = c.benchmark_group("scoring_256_entries");
    g.bench_function("point_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for idx in &queries {
                acc += engine.point(black_box(idx)).unwrap();
            }
            acc
        })
    });
    g.bench_function("batch", |b| {
        b.iter(|| engine.batch(black_box(&queries)).unwrap())
    });
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let engine = engine();
    let mut g = c.benchmark_group("topk_mode0_20k_candidates");
    // Uncached pruned scan: rotate the fixed indices so the LRU never hits.
    let mut fresh = (0..u64::MAX).map(|i| TopKQuery {
        mode: 0,
        at: vec![0, (i as usize * 17) % SHAPE[1], (i as usize * 3) % SHAPE[2]],
        k: 10,
    });
    g.bench_function("pruned_uncached", |b| {
        b.iter(|| {
            let q = fresh.next().unwrap();
            engine.topk(black_box(&q), None).unwrap()
        })
    });
    // Brute force over the same mode, for scale.
    let at = [0usize, 42, 7];
    g.bench_function("brute_force", |b| {
        b.iter(|| {
            let mut best = f64::NEG_INFINITY;
            for i in 0..SHAPE[0] {
                let idx = [i, at[1], at[2]];
                best = best.max(engine.point(black_box(&idx)).unwrap());
            }
            best
        })
    });
    // Cache hit path: the same query over and over.
    let q = TopKQuery { mode: 0, at: vec![0, 42, 7], k: 10 };
    engine.topk(&q, None).unwrap();
    g.bench_function("cached", |b| {
        b.iter(|| engine.topk(black_box(&q), None).unwrap())
    });
    g.finish();
}

fn bench_trace_replay(c: &mut Criterion) {
    let engine = engine();
    let cfg = TraceConfig { queries: 2_000, ..Default::default() };
    let trace = synth_trace(&SHAPE, &cfg);
    c.bench_function("zipf_trace_2k_requests", |b| {
        b.iter(|| replay_direct(black_box(&engine), black_box(&trace)).unwrap())
    });
}

criterion_group!(benches, bench_point_vs_batch, bench_topk, bench_trace_replay);
criterion_main!(benches);
