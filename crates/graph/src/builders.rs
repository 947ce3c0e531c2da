//! Similarity-matrix constructions used by the experiments.

use crate::sparse::SparseSym;
use distenc_linalg::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's synthetic-error similarity (Eq. 17): a tri-diagonal chain
/// `Sᵢ,ᵢ₊₁ = Sᵢ₊₁,ᵢ = 1` linking consecutive entities. The factor-matrix
/// construction in §IV-A makes consecutive rows similar, so this graph is
/// informative by design.
pub fn tridiagonal_chain(n: usize) -> SparseSym {
    let triplets: Vec<(usize, usize, f64)> =
        (0..n.saturating_sub(1)).map(|i| (i, i + 1, 1.0)).collect();
    SparseSym::from_triplets(n, &triplets)
}

/// Community-block similarity: entities are assigned to `communities`
/// equal blocks; pairs within a block are connected with probability
/// `p_in` (weight 1). Models affiliation-style auxiliary information
/// (DBLP's "same affiliation", Twitter's "same city").
pub fn community_blocks(n: usize, communities: usize, p_in: f64, seed: u64) -> SparseSym {
    assert!(communities > 0, "need at least one community");
    let mut rng = StdRng::seed_from_u64(seed);
    let block = n.div_ceil(communities);
    let mut triplets = Vec::new();
    for c in 0..communities {
        let start = c * block;
        let end = ((c + 1) * block).min(n);
        for i in start..end {
            for j in (i + 1)..end {
                if rng.random::<f64>() < p_in {
                    triplets.push((i, j, 1.0));
                }
            }
        }
    }
    SparseSym::from_triplets(n, &triplets)
}

/// Sprinkle `count` random (possibly cross-community) edges of `weight`
/// onto an existing similarity matrix. Real-world side information is
/// never exactly block-structured: affiliation lists are dirty, titles
/// collide, locations are shared by strangers. Noise edges keep a
/// similarity graph informative for Laplacian *smoothing* while breaking
/// the exact low-rank structure a coupled factorization could fit
/// perfectly.
pub fn with_noise_edges(sim: &SparseSym, count: usize, weight: f64, seed: u64) -> SparseSym {
    let n = sim.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(sim.nnz() / 2 + count);
    for i in 0..n {
        let (cols, vals) = sim.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j >= i {
                triplets.push((i, j, v));
            }
        }
    }
    for _ in 0..count {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i != j {
            triplets.push((i.min(j), i.max(j), weight));
        }
    }
    SparseSym::from_triplets(n, &triplets)
}

/// Community id of entity `i` under the [`community_blocks`] layout —
/// ground truth for the concept-discovery evaluation (Table III).
pub fn community_of(i: usize, n: usize, communities: usize) -> usize {
    let block = n.div_ceil(communities);
    (i / block).min(communities - 1)
}

/// k-nearest-neighbour similarity from latent feature rows: each entity
/// connects to its `k` nearest neighbours in Euclidean distance, with
/// weight `exp(−‖xᵢ−xⱼ‖²/σ²)`. Used by the Netflix/Facebook analogs where
/// the side information is derived from the same latent factors that
/// generate the data (so it is genuinely informative, as the paper's real
/// similarity matrices are).
///
/// Quadratic in `n`; generators only call it on mode sizes ≤ a few
/// thousand.
pub fn knn_from_features(features: &Mat, k: usize, sigma: f64) -> SparseSym {
    let n = features.rows();
    let mut triplets = Vec::with_capacity(n * k);
    let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n);
    for i in 0..n {
        dists.clear();
        let xi = features.row(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let xj = features.row(j);
            let d2: f64 = xi.iter().zip(xj).map(|(a, b)| (a - b) * (a - b)).sum();
            dists.push((d2, j));
        }
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(d2, j) in dists.iter().take(k) {
            // Keep (i,j) once; SparseSym mirrors automatically, and
            // duplicate mirrored pairs are summed, so halve the weight of
            // mutual edges by only inserting i<j.
            if i < j {
                triplets.push((i, j, (-d2 / (sigma * sigma)).exp()));
            }
        }
    }
    SparseSym::from_triplets(n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_structure() {
        let s = tridiagonal_chain(4);
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.get(1, 2), 1.0);
        assert_eq!(s.get(2, 3), 1.0);
        assert_eq!(s.get(0, 2), 0.0);
        assert_eq!(s.get(0, 0), 0.0);
        assert!(s.is_symmetric());
    }

    #[test]
    fn chain_of_one_is_empty() {
        assert_eq!(tridiagonal_chain(1).nnz(), 0);
    }

    #[test]
    fn community_blocks_connect_within_blocks_only() {
        let s = community_blocks(12, 3, 1.0, 0);
        // Block size 4: nodes 0-3, 4-7, 8-11.
        assert!(s.get(0, 3) > 0.0);
        assert_eq!(s.get(3, 4), 0.0);
        assert!(s.get(8, 11) > 0.0);
        assert!(s.is_symmetric());
    }

    #[test]
    fn community_of_matches_layout() {
        assert_eq!(community_of(0, 12, 3), 0);
        assert_eq!(community_of(3, 12, 3), 0);
        assert_eq!(community_of(4, 12, 3), 1);
        assert_eq!(community_of(11, 12, 3), 2);
        // Remainder nodes clamp into the last community.
        assert_eq!(community_of(9, 10, 3), 2);
    }

    #[test]
    fn knn_connects_nearest() {
        // Points on a line: 0, 1, 10, 11 — nearest pairs are (0,1), (2,3).
        let f = Mat::from_vec(4, 1, vec![0.0, 1.0, 10.0, 11.0]);
        let s = knn_from_features(&f, 1, 1.0);
        assert!(s.get(0, 1) > 0.0);
        assert!(s.get(2, 3) > 0.0);
        assert_eq!(s.get(1, 2), 0.0);
        assert!(s.is_symmetric());
    }

    #[test]
    fn knn_weights_decay_with_distance() {
        let f = Mat::from_vec(3, 1, vec![0.0, 1.0, 3.0]);
        let s = knn_from_features(&f, 2, 1.0);
        assert!(s.get(0, 1) > s.get(0, 2));
    }
}
