//! Benchmarks of the greedy partitioner — the piece whose cost dominates
//! the simulation's set-up.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use distenc_partition::{greedy_boundaries, TensorBlocks};
use distenc_tensor::CooTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        t.push(&idx, rng.random::<f64>()).unwrap();
    }
    t
}

fn bench_greedy_partition(c: &mut Criterion) {
    let t = random_coo(&[10_000, 10_000, 1_000], 200_000, 1);
    let theta = t.slice_nnz(0);
    c.bench_function("greedy_boundaries_10k_slices", |b| {
        b.iter(|| greedy_boundaries(black_box(&theta), 9))
    });
    c.bench_function("tensor_blocks_200k_nnz_9x9x9", |b| {
        b.iter(|| TensorBlocks::build(black_box(&t), &[9, 9, 9]))
    });
}

criterion_group!(benches, bench_greedy_partition);
criterion_main!(benches);
