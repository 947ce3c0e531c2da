//! Generators shared by the integration suites (`mod common;`).

// Every suite compiles this file and none uses all of it.
#![allow(dead_code)]

use distenc::core::CompletionResult;
use distenc::tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A rank-`rank` planted tensor observed at `nnz` uniformly drawn
/// positions (fewer after deduplication). `salt` decorrelates the mask
/// from the factors; each suite passes its own, so the data a suite has
/// always run on (and the goldens recorded from it) does not move.
pub fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64, salt: u64) -> CooTensor {
    let truth = KruskalTensor::random(shape, rank, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let mut mask = CooTensor::new(shape.to_vec());
    for _ in 0..nnz {
        let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

/// The bit patterns of every factor entry, for `assert_eq!` on whole models.
pub fn factor_bits(r: &CompletionResult) -> Vec<Vec<u64>> {
    r.model
        .factors()
        .iter()
        .map(|f| f.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}
