//! Scaled analogs of the paper's four real-world datasets (Table II).
//!
//! Each generator plants exactly the structure its experiment measures:
//!
//! | analog     | paper shape           | tensor                     | similarity            | experiment |
//! |------------|-----------------------|----------------------------|-----------------------|------------|
//! | `netflix`  | 480K×18K×2K, 100M     | user-movie-time ratings    | movie-movie           | Fig. 6a/6b |
//! | `twitter`  | 640K×640K×16, 1.13M   | creator-expert-topic       | creator & expert      | Fig. 6a    |
//! | `facebook` | 60K×60K×5, 1.55M      | user-user-time links       | user-user             | Fig. 7     |
//! | `dblp`     | 317K×317K×629K, 1.04M | author-paper-venue         | author-author         | Table III  |
//!
//! Shapes are scaled down by a caller-chosen factor so the experiments run
//! in-process; sparsity *ratios* are kept in the neighbourhood of the
//! originals. Ground truth is a low-rank community/smooth factor model,
//! and each similarity matrix is derived from the *same latent structure*
//! (communities or latent features), making it informative the way the
//! paper's side information is.

use crate::synthetic::gaussian;
use distenc_graph::builders::{community_blocks, community_of, knn_from_features, with_noise_edges};
use distenc_graph::SparseSym;
use distenc_linalg::Mat;
use distenc_tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated application dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Observed sparse tensor.
    pub tensor: CooTensor,
    /// Per-mode similarity matrices (None = no side information for that
    /// mode).
    pub(crate) similarities: Vec<Option<SparseSym>>,
    /// Ground-truth community id per entity for each mode (used by the
    /// concept-discovery evaluation); `None` for modes without planted
    /// communities.
    pub communities: Vec<Option<Vec<usize>>>,
}

impl Dataset {
    /// Similarity slots as the `&[Option<&SparseSym>]` the solvers take.
    pub fn similarity_refs(&self) -> Vec<Option<&SparseSym>> {
        self.similarities.iter().map(|s| s.as_ref()).collect()
    }
}

/// Community-structured factor matrix: each of `communities` blocks gets a
/// non-negative centroid; members are centroid + small noise. Entities in
/// the same community therefore have similar factor rows.
fn community_factors(
    dim: usize,
    rank: usize,
    communities: usize,
    noise: f64,
    rng: &mut StdRng,
) -> Mat {
    let centroids: Vec<Vec<f64>> = (0..communities)
        .map(|_| (0..rank).map(|_| rng.random::<f64>()).collect())
        .collect();
    let mut m = Mat::zeros(dim, rank);
    for i in 0..dim {
        let c = community_of(i, dim, communities);
        for (r, &centroid) in centroids[c].iter().enumerate() {
            m.set(i, r, (centroid + noise * gaussian(rng)).max(0.0));
        }
    }
    m
}

/// Smooth factor matrix: each column is a random low-frequency sinusoid,
/// so nearby indices (e.g. nearby time bins) behave similarly.
fn smooth_factors(dim: usize, rank: usize, rng: &mut StdRng) -> Mat {
    let mut m = Mat::zeros(dim, rank);
    for r in 0..rank {
        let freq = rng.random_range(1..4) as f64;
        let phase = rng.random::<f64>() * std::f64::consts::TAU;
        let amp = 0.5 + rng.random::<f64>() * 0.5;
        for i in 0..dim {
            let x = i as f64 / dim as f64;
            m.set(i, r, amp * (0.6 + 0.4 * (freq * std::f64::consts::TAU * x + phase).sin()));
        }
    }
    m
}

/// Draw one index: uniform, or long-tailed through a popularity
/// permutation (real rating data is power-law distributed over items —
/// the scarce tail is exactly where side information earns its keep).
enum IndexDist {
    Uniform,
    /// `perm[rank]` = entity at popularity rank `rank`; rank is drawn as
    /// `⌊dᵘ⌋` for uniform `u` (heavy head).
    LongTail(Vec<usize>),
}

impl IndexDist {
    fn long_tail(dim: usize, rng: &mut StdRng) -> Self {
        use rand::seq::SliceRandom;
        let mut perm: Vec<usize> = (0..dim).collect();
        // Decouple popularity from community structure (entity ids are
        // block-contiguous) by permuting.
        perm.shuffle(rng);
        IndexDist::LongTail(perm)
    }

    fn sample(&self, dim: usize, rng: &mut StdRng) -> usize {
        match self {
            IndexDist::Uniform => rng.random_range(0..dim),
            IndexDist::LongTail(perm) => {
                let u: f64 = rng.random();
                let rank = (((dim as f64).powf(u) - 1.0) as usize).min(dim - 1);
                perm[rank]
            }
        }
    }
}

/// Sample `nnz` observations of `truth` with per-mode index
/// distributions, mapping values through `f`.
fn sample_observations_dist(
    truth: &KruskalTensor,
    nnz: usize,
    dists: &[IndexDist],
    rng: &mut StdRng,
    f: impl Fn(f64, &mut StdRng) -> f64,
) -> CooTensor {
    let shape = truth.shape();
    let mut t = CooTensor::new(shape.clone());
    t.reserve(nnz);
    let mut idx = vec![0usize; shape.len()];
    // Unique coordinates: duplicates would be *summed* by sort_dedup,
    // corrupting value semantics (e.g. star ratings above 5).
    let mut seen = std::collections::BTreeSet::new();
    let mut attempts = 0usize;
    while seen.len() < nnz && attempts < nnz * 20 {
        attempts += 1;
        for ((slot, &d), dist) in idx.iter_mut().zip(&shape).zip(dists) {
            *slot = dist.sample(d, rng);
        }
        if !seen.insert(idx.clone()) {
            continue;
        }
        let v = f(truth.eval(&idx), rng);
        t.push(&idx, v).expect("index in range");
    }
    t.sort_dedup(); // sorts; nothing left to merge
    t
}

/// Sample `nnz` observations of `truth` uniformly, mapping values
/// through `f`.
fn sample_observations(
    truth: &KruskalTensor,
    nnz: usize,
    rng: &mut StdRng,
    f: impl Fn(f64, &mut StdRng) -> f64,
) -> CooTensor {
    let dists: Vec<IndexDist> =
        truth.shape().iter().map(|_| IndexDist::Uniform).collect();
    sample_observations_dist(truth, nnz, &dists, rng, f)
}

/// Netflix analog: `users × movies × time` ratings in `[1, 5]`, with a
/// movie-movie similarity built from the movies' latent features (the
/// paper derives it from titles). Users are community-structured
/// (taste groups), time is smooth.
pub fn netflix_like(users: usize, movies: usize, time: usize, nnz: usize, seed: u64) -> Dataset {
    let rank = 6;
    let mut rng = StdRng::seed_from_u64(seed);
    // Many small taste clusters: individual movies get too few ratings to
    // pin their factors down from data alone, which is exactly when the
    // movie-movie similarity earns its keep (the paper's motivation).
    let user_f = community_factors(users, rank, 8, 0.2, &mut rng);
    let movie_f = community_factors(movies, rank, 15, 0.15, &mut rng);
    let time_f = smooth_factors(time, rank, &mut rng);
    let movie_sim = {
        let clean = knn_from_features(&movie_f, 5.min(movies.saturating_sub(1)), 1.0);
        // Title-derived similarity is noisy: ~15% spurious edges.
        with_noise_edges(&clean, clean.nnz() * 15 / 200, 0.5, seed ^ 0x71)
    };
    let truth = KruskalTensor::new(vec![user_f, movie_f, time_f]).expect("equal ranks");

    // Map the latent signal into the 1..5 star scale with light noise.
    let vals: Vec<f64> = {
        let mut probe = StdRng::seed_from_u64(seed ^ 0x9a);
        (0..200)
            .map(|_| {
                let idx: Vec<usize> = truth
                    .shape()
                    .iter()
                    .map(|&d| probe.random_range(0..d))
                    .collect();
                truth.eval(&idx)
            })
            .collect()
    };
    // Standardize around the mid-scale star rating: a mean/σ map keeps
    // the signal linear (min-max + clamping would saturate the scale ends
    // and floor every method at the same nonlinear error).
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let sd = (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
        / vals.len() as f64)
        .sqrt()
        .max(1e-9);
    // Movie popularity is long-tailed (as in the real Netflix data): most
    // ratings hit a few head movies while tail movies stay scarce.
    let dists = vec![
        IndexDist::Uniform,
        IndexDist::long_tail(movies, &mut rng),
        IndexDist::Uniform,
    ];
    let tensor = sample_observations_dist(&truth, nnz, &dists, &mut rng, |v, rng| {
        let stars = 3.0 + 0.9 * (v - mean) / sd + 0.2 * gaussian(rng);
        stars.clamp(1.0, 5.0)
    });

    Dataset {
        tensor,
        similarities: vec![None, Some(movie_sim), None],
        communities: vec![Some(community_ids(users, 8)), Some(community_ids(movies, 15)), None],
    }
}

/// Twitter-List analog: `creator × expert × topic`, with creator-creator
/// and expert-expert similarities from location communities (§IV-E builds
/// them from shared cities).
pub fn twitter_like(
    creators: usize,
    experts: usize,
    topics: usize,
    nnz: usize,
    seed: u64,
) -> Dataset {
    let rank = 5;
    let communities = 10;
    let mut rng = StdRng::seed_from_u64(seed);
    let creator_f = community_factors(creators, rank, communities, 0.2, &mut rng);
    let expert_f = community_factors(experts, rank, communities, 0.2, &mut rng);
    let topic_f = smooth_factors(topics, rank, &mut rng);
    let creator_sim = {
        let clean = community_blocks(creators, communities, 0.3, seed ^ 1);
        with_noise_edges(&clean, clean.nnz() * 15 / 200, 1.0, seed ^ 0x72)
    };
    let expert_sim = {
        let clean = community_blocks(experts, communities, 0.3, seed ^ 2);
        with_noise_edges(&clean, clean.nnz() * 15 / 200, 1.0, seed ^ 0x73)
    };
    let truth = KruskalTensor::new(vec![creator_f, expert_f, topic_f]).expect("equal ranks");
    let tensor = sample_observations(&truth, nnz, &mut rng, |v, rng| {
        (v + 0.05 * gaussian(rng)).max(0.0)
    });
    Dataset {
        tensor,
        similarities: vec![Some(creator_sim), Some(expert_sim), None],
        communities: vec![
            Some(community_ids(creators, communities)),
            Some(community_ids(experts, communities)),
            None,
        ],
    }
}

/// Facebook analog for link prediction: `user × user × time` interaction
/// strengths, with a user-user similarity (the paper derives it from wall
/// posts; here it comes from the same friendship communities that shape
/// the links).
pub fn facebook_like(users: usize, time: usize, nnz: usize, seed: u64) -> Dataset {
    let rank = 5;
    let communities = 12;
    let mut rng = StdRng::seed_from_u64(seed);
    let user_f = community_factors(users, rank, communities, 0.2, &mut rng);
    // Both user modes share the same latent structure (it is the same
    // population), but get independent noise.
    let user_f2 = {
        let mut m = user_f.clone();
        for v in m.as_mut_slice() {
            *v = (*v + 0.1 * gaussian(&mut rng)).max(0.0);
        }
        m
    };
    let time_f = smooth_factors(time, rank, &mut rng);
    let user_sim = {
        let clean = community_blocks(users, communities, 0.25, seed ^ 3);
        // Wall-post similarity connects plenty of non-friends too.
        with_noise_edges(&clean, clean.nnz() * 15 / 200, 1.0, seed ^ 0x74)
    };
    let truth = KruskalTensor::new(vec![user_f, user_f2, time_f]).expect("equal ranks");
    let tensor = sample_observations(&truth, nnz, &mut rng, |v, rng| {
        (v + 0.05 * gaussian(rng)).max(0.0)
    });
    Dataset {
        tensor,
        similarities: vec![Some(user_sim.clone()), Some(user_sim), None],
        communities: vec![
            Some(community_ids(users, communities)),
            Some(community_ids(users, communities)),
            None,
        ],
    }
}

/// DBLP analog for concept discovery (Table III): `author × paper ×
/// venue` with `concepts` planted research communities (the paper finds
/// Databases / Data Mining / Information Retrieval). Authors, papers, and
/// venues all carry the community structure; the author-author similarity
/// encodes shared affiliation.
pub fn dblp_like(
    authors: usize,
    papers: usize,
    venues: usize,
    concepts: usize,
    nnz: usize,
    seed: u64,
) -> Dataset {
    let rank = concepts.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    // Concept-aligned factors: community c loads mostly on component c,
    // so factor columns correspond to discoverable concepts.
    let concept_factor = |dim: usize, rng: &mut StdRng| {
        let mut m = Mat::zeros(dim, rank);
        for i in 0..dim {
            let c = community_of(i, dim, concepts);
            for r in 0..rank {
                let base = if r == c % rank { 1.0 } else { 0.05 };
                m.set(i, r, (base + 0.05 * gaussian(rng)).max(0.0));
            }
        }
        m
    };
    let author_f = concept_factor(authors, &mut rng);
    let paper_f = concept_factor(papers, &mut rng);
    let venue_f = concept_factor(venues, &mut rng);
    let author_sim = {
        let clean = community_blocks(authors, concepts, 0.3, seed ^ 4);
        with_noise_edges(&clean, clean.nnz() * 15 / 200, 1.0, seed ^ 0x75)
    };
    let truth = KruskalTensor::new(vec![author_f, paper_f, venue_f]).expect("equal ranks");
    let tensor = sample_observations(&truth, nnz, &mut rng, |v, rng| {
        (v + 0.02 * gaussian(rng)).max(0.0)
    });
    Dataset {
        tensor,
        similarities: vec![Some(author_sim), None, None],
        communities: vec![
            Some(community_ids(authors, concepts)),
            Some(community_ids(papers, concepts)),
            Some(community_ids(venues, concepts)),
        ],
    }
}

fn community_ids(dim: usize, communities: usize) -> Vec<usize> {
    (0..dim).map(|i| community_of(i, dim, communities)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netflix_values_are_star_ratings() {
        let d = netflix_like(100, 60, 10, 2000, 1);
        assert_eq!(d.tensor.shape(), &[100, 60, 10]);
        for (_, v) in d.tensor.iter() {
            assert!((1.0..=5.0).contains(&v), "rating {v} out of range");
        }
        assert!(d.similarities[1].is_some(), "movie-movie similarity present");
        assert!(d.similarities[0].is_none());
    }

    #[test]
    fn twitter_has_two_similarities() {
        let d = twitter_like(80, 80, 12, 1500, 2);
        assert!(d.similarities[0].is_some());
        assert!(d.similarities[1].is_some());
        assert!(d.similarities[2].is_none());
        assert_eq!(d.similarity_refs().len(), 3);
    }

    #[test]
    fn facebook_modes_share_user_similarity() {
        let d = facebook_like(90, 6, 1200, 3);
        assert_eq!(d.tensor.shape(), &[90, 90, 6]);
        let s0 = d.similarities[0].as_ref().unwrap();
        let s1 = d.similarities[1].as_ref().unwrap();
        assert_eq!(s0, s1);
    }

    #[test]
    fn dblp_concepts_align_with_factor_columns() {
        let d = dblp_like(90, 120, 9, 3, 2500, 4);
        let comm = d.communities[0].as_ref().unwrap();
        assert_eq!(comm.len(), 90);
        // Planted: the strongest entries of the tensor connect same-concept
        // triples. Spot-check: entries with all three modes in concept 0
        // should be larger on average than mixed triples.
        let mut same = (0.0, 0);
        let mut mixed = (0.0, 0);
        let paper_comm = d.communities[1].as_ref().unwrap();
        let venue_comm = d.communities[2].as_ref().unwrap();
        for (idx, v) in d.tensor.iter() {
            let (a, p, ve) = (comm[idx[0]], paper_comm[idx[1]], venue_comm[idx[2]]);
            if a == p && p == ve {
                same.0 += v;
                same.1 += 1;
            } else if a != p && p != ve && a != ve {
                mixed.0 += v;
                mixed.1 += 1;
            }
        }
        let avg_same = same.0 / same.1.max(1) as f64;
        let avg_mixed = mixed.0 / mixed.1.max(1) as f64;
        assert!(
            avg_same > 2.0 * avg_mixed,
            "same-concept {avg_same} vs mixed {avg_mixed}"
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = netflix_like(50, 40, 8, 500, 9);
        let b = netflix_like(50, 40, 8, 500, 9);
        assert_eq!(a.tensor, b.tensor);
        let c = dblp_like(60, 60, 6, 3, 500, 9);
        let d = dblp_like(60, 60, 6, 3, 500, 9);
        assert_eq!(c.tensor, d.tensor);
    }

    #[test]
    fn similarity_is_mostly_in_community_with_some_noise() {
        // The bulk of similarity edges connect same-community pairs (that
        // is what makes the side information informative), but a noise
        // fraction crosses communities (real side information is dirty;
        // exactly block-structured similarity would be trivially
        // factorizable).
        let d = twitter_like(60, 60, 8, 500, 11);
        let sim = d.similarities[0].as_ref().unwrap();
        let comm = d.communities[0].as_ref().unwrap();
        let (mut within, mut across) = (0usize, 0usize);
        for i in 0..60 {
            let (cols, _) = sim.row(i);
            for &j in cols {
                if comm[i] == comm[j] {
                    within += 1;
                } else {
                    across += 1;
                }
            }
        }
        assert!(across > 0, "noise edges must exist");
        assert!(
            within as f64 > 4.0 * across as f64,
            "in-community edges must dominate: {within} vs {across}"
        );
    }
}
