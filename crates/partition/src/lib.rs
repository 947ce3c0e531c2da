//! Load-balanced tensor blocking (DisTenC Algorithm 2, §III-C).
//!
//! Randomly slicing a sparse tensor into `P×Q×K` blocks produces load
//! imbalance because real tensors are skewed. Algorithm 2 instead chooses
//! per-mode boundaries greedily: walk the slices of a mode accumulating
//! non-zero counts; once a partition reaches the target size
//! `δ = nnz/P`, cut either after the current slice or before it —
//! whichever lands closer to `δ`.
//!
//! * [`greedy_boundaries`] — the boundary search for one mode,
//! * [`ModePartition`] — boundary lookup (`slice → partition`),
//! * [`TensorBlocks`] — the full `P₁×…×P_N` blocking of a [`CooTensor`],
//!   with per-block entry lists ready to become dataflow partitions,
//! * [`BalanceStats`] — imbalance diagnostics used by tests and the
//!   machine-scalability experiment.

#![warn(missing_docs)]

use distenc_tensor::CooTensor;

/// Greedy per-mode boundary search (Algorithm 2).
///
/// Takes the per-slice non-zero histogram `θ` of one mode and the desired
/// partition count `parts`; returns exactly `parts` exclusive end indices
/// (`w` in the paper), the last of which is `θ.len()`.
///
/// Runs in `O(I)` per mode — `O(N·nnz)` total including histogram
/// construction, as Lemma 1 states.
///
/// # Panics
/// Panics if `parts == 0`.
pub fn greedy_boundaries(theta: &[usize], parts: usize) -> Vec<usize> {
    assert!(parts > 0, "need at least one partition");
    let total: usize = theta.iter().sum();
    let delta = (total as f64 / parts as f64).max(1.0);
    let mut boundaries = Vec::with_capacity(parts);
    let mut sum = 0usize;
    let mut prev_cut = 0usize;
    for (i, &count) in theta.iter().enumerate() {
        if boundaries.len() + 1 == parts {
            break; // the final partition takes everything that remains
        }
        sum += count;
        if (sum as f64) >= delta {
            // Cut after slice i (overshoot) or before it (undershoot)?
            let over = sum as f64 - delta;
            let under = delta - (sum - count) as f64;
            // Never produce an empty partition: if cutting before `i`
            // would leave nothing (cut == prev_cut), cut after.
            if over <= under || i == prev_cut {
                boundaries.push(i + 1);
                sum = 0;
                prev_cut = i + 1;
            } else {
                boundaries.push(i);
                sum = count;
                prev_cut = i;
            }
        }
    }
    // Close out: all remaining partitions end at I (possibly empty tails
    // when slices ran out before `parts` cuts).
    while boundaries.len() < parts {
        boundaries.push(theta.len());
    }
    boundaries
}

/// Boundary table for one mode: partition `p` covers slice indices
/// `[start(p), end(p))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModePartition {
    /// Exclusive end index of each partition, non-decreasing; the final
    /// entry equals the mode length.
    pub(crate) boundaries: Vec<usize>,
}

impl ModePartition {
    /// Build from a slice histogram.
    pub(crate) fn from_histogram(theta: &[usize], parts: usize) -> Self {
        ModePartition { boundaries: greedy_boundaries(theta, parts) }
    }

    /// Equal-width boundaries ignoring the data distribution — the naive
    /// blocking the paper's §III-C warns "could result in load imbalance".
    /// Exists as the ablation baseline for Algorithm 2.
    pub(crate) fn equal_width(len: usize, parts: usize) -> Self {
        assert!(parts > 0, "need at least one partition");
        let boundaries = (1..=parts)
            .map(|p| (len * p).div_ceil(parts).min(len))
            .collect();
        ModePartition { boundaries }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.boundaries.len()
    }

    /// Partition containing slice `index` (binary search over boundaries).
    pub(crate) fn part_of(&self, index: usize) -> usize {
        // First boundary strictly greater than `index`.
        match self.boundaries.binary_search(&index) {
            // boundaries[p] == index means index is the *end* of p, so it
            // belongs to the next non-empty partition.
            Ok(mut p) => {
                while p + 1 < self.boundaries.len() && self.boundaries[p] == index {
                    p += 1;
                }
                p
            }
            Err(p) => p.min(self.boundaries.len() - 1),
        }
    }

    /// Half-open slice range of partition `p`.
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        let start = if p == 0 { 0 } else { self.boundaries[p - 1] };
        start..self.boundaries[p]
    }
}

/// Imbalance diagnostics for a partitioning of `total` records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    /// Largest partition (records).
    pub(crate) max: usize,
    /// Smallest partition (records).
    pub(crate) min: usize,
    /// Mean partition size.
    pub(crate) mean: f64,
    /// `max / mean` — 1.0 is perfect balance; the straggler factor of the
    /// slowest machine.
    pub imbalance: f64,
}

impl BalanceStats {
    /// Compute stats from per-partition record counts.
    pub(crate) fn from_counts(counts: &[usize]) -> Self {
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        let mean = if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<usize>() as f64 / counts.len() as f64
        };
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        BalanceStats { max, min, mean, imbalance }
    }
}

/// A full blocking of a sparse tensor: per-mode greedy boundaries plus the
/// entries of every non-empty block, each block addressed by its
/// per-mode partition tuple (linearized row-major).
#[derive(Debug, Clone)]
pub struct TensorBlocks {
    /// Per-mode boundary tables.
    pub modes: Vec<ModePartition>,
    /// `(linear block id, entries)` for non-empty blocks, ascending by id;
    /// a block holds its entries in the source tensor's order.
    pub blocks: Vec<(usize, CooTensor)>,
    parts_per_mode: Vec<usize>,
}

/// How per-mode block boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Algorithm 2's greedy non-zero balancing (the paper's method).
    #[default]
    Greedy,
    /// Equal index widths (the naive baseline; ablation only).
    EqualWidth,
}

impl TensorBlocks {
    /// Block a tensor with `parts_per_mode[n]` partitions in mode `n`,
    /// using greedy (Algorithm 2) boundaries.
    ///
    /// # Panics
    /// Panics if `parts_per_mode` length differs from the tensor order or
    /// contains a zero.
    pub fn build(tensor: &CooTensor, parts_per_mode: &[usize]) -> Self {
        Self::build_with(tensor, parts_per_mode, PartitionStrategy::Greedy)
    }

    /// Block a tensor with an explicit boundary strategy.
    ///
    /// # Panics
    /// Panics if `parts_per_mode` length differs from the tensor order or
    /// contains a zero.
    pub fn build_with(
        tensor: &CooTensor,
        parts_per_mode: &[usize],
        strategy: PartitionStrategy,
    ) -> Self {
        assert_eq!(parts_per_mode.len(), tensor.order(), "one part count per mode");
        let modes: Vec<ModePartition> = (0..tensor.order())
            .map(|n| match strategy {
                PartitionStrategy::Greedy => {
                    ModePartition::from_histogram(&tensor.slice_nnz(n), parts_per_mode[n])
                }
                PartitionStrategy::EqualWidth => {
                    ModePartition::equal_width(tensor.shape()[n], parts_per_mode[n])
                }
            })
            .collect();
        // Bucket source positions by block id, walking the source in order
        // (a BTreeMap keeps the blocks in ascending id order), then gather
        // each block's entries at their exact size; the buckets go with
        // this call.
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (e, (idx, _)) in tensor.iter().enumerate() {
            let mut id = 0usize;
            for (n, &i) in idx.iter().enumerate() {
                id = id * parts_per_mode[n] + modes[n].part_of(i);
            }
            buckets.entry(id).or_default().push(e);
        }
        let blocks = buckets
            .into_iter()
            .map(|(id, pos)| {
                let mut t = CooTensor::new(tensor.shape().to_vec());
                t.reserve(pos.len());
                for e in pos {
                    t.push(tensor.index(e), tensor.value(e))
                        .expect("index already validated by source tensor");
                }
                (id, t)
            })
            .collect();
        TensorBlocks { modes, blocks, parts_per_mode: parts_per_mode.to_vec() }
    }

    /// Linear block id of an entry index.
    pub fn block_of(&self, index: &[usize]) -> usize {
        let mut id = 0usize;
        for (n, &i) in index.iter().enumerate() {
            id = id * self.parts_per_mode[n] + self.modes[n].part_of(i);
        }
        id
    }

    /// Decompose a linear block id into its per-mode partition tuple.
    pub fn block_coords(&self, mut id: usize) -> Vec<usize> {
        let mut coords = vec![0usize; self.parts_per_mode.len()];
        for (slot, &p) in coords.iter_mut().zip(&self.parts_per_mode).rev() {
            *slot = id % p;
            id /= p;
        }
        coords
    }

    /// Total non-zeros across blocks (must equal the source tensor's).
    pub fn total_nnz(&self) -> usize {
        self.blocks.iter().map(|(_, b)| b.nnz()).sum()
    }

    /// Per-partition non-zero counts along one mode (summing over the
    /// other modes) — the quantity Algorithm 2 balances.
    pub fn mode_load(&self, mode: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.parts_per_mode[mode]];
        for (id, block) in &self.blocks {
            let coords = self.block_coords(*id);
            counts[coords[mode]] += block.nnz();
        }
        counts
    }

    /// Balance statistics along one mode.
    pub fn balance(&self, mode: usize) -> BalanceStats {
        BalanceStats::from_counts(&self.mode_load(mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn boundaries_uniform_histogram() {
        // 12 slices of 10 nnz into 3 parts → cuts at 4, 8, 12.
        let theta = vec![10usize; 12];
        assert_eq!(greedy_boundaries(&theta, 3), vec![4, 8, 12]);
    }

    #[test]
    fn boundaries_skewed_histogram_balances() {
        // One huge slice followed by small ones.
        let theta = vec![100, 1, 1, 1, 1, 1, 1, 1];
        let b = greedy_boundaries(&theta, 2);
        // First partition should be just the huge slice.
        assert_eq!(b, vec![1, 8]);
    }

    #[test]
    fn boundaries_prefer_closer_cut() {
        // δ = 10. After slice 0 (sum=8) under target; slice 1 (sum=15)
        // over by 5 vs under by 2 → cut *before* slice 1.
        let theta = vec![8, 7, 3, 2];
        let b = greedy_boundaries(&theta, 2);
        assert_eq!(b, vec![1, 4]);
    }

    #[test]
    fn boundaries_never_empty_leading_partition() {
        // First slice alone exceeds δ: must still advance.
        let theta = vec![50, 1, 1];
        let b = greedy_boundaries(&theta, 3);
        assert_eq!(b[0], 1);
        assert_eq!(*b.last().unwrap(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn boundaries_more_parts_than_slices() {
        let theta = vec![5, 5];
        let b = greedy_boundaries(&theta, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(*b.last().unwrap(), 2);
    }

    #[test]
    fn part_of_respects_ranges() {
        let mp = ModePartition { boundaries: vec![3, 7, 10] };
        assert_eq!(mp.part_of(0), 0);
        assert_eq!(mp.part_of(2), 0);
        assert_eq!(mp.part_of(3), 1);
        assert_eq!(mp.part_of(6), 1);
        assert_eq!(mp.part_of(7), 2);
        assert_eq!(mp.part_of(9), 2);
        assert_eq!(mp.range(1), 3..7);
    }

    #[test]
    fn part_of_skips_empty_partitions() {
        let mp = ModePartition { boundaries: vec![3, 3, 10] };
        assert_eq!(mp.part_of(3), 2);
        assert_eq!(mp.range(1), 3..3);
    }

    fn random_tensor(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, 1.0).unwrap();
        }
        t
    }

    #[test]
    fn blocks_cover_all_entries() {
        let unsorted = random_tensor(&[20, 30, 10], 500, 1);
        let mut sorted = unsorted.clone();
        sorted.sort_dedup();
        for mut t in [unsorted, sorted] {
            // Distinct values, so an entry's value names its source entry.
            for (e, v) in t.values_mut().iter_mut().enumerate() {
                *v = e as f64;
            }
            let blocks = TensorBlocks::build(&t, &[3, 4, 2]);
            assert_eq!(blocks.total_nnz(), t.nnz());
            // Every entry maps into the block that contains it.
            for (id, block) in &blocks.blocks {
                for (idx, _) in block.iter() {
                    assert_eq!(blocks.block_of(idx), *id);
                }
            }
            // Every entry is the source entry its value names, each block
            // keeps the source's order, and together the blocks hold every
            // source entry once.
            let mut seen = vec![false; t.nnz()];
            for (_, block) in &blocks.blocks {
                let at: Vec<usize> = block.values().iter().map(|&v| v as usize).collect();
                assert!(at.windows(2).all(|w| w[0] < w[1]), "source order");
                for (j, &at) in at.iter().enumerate() {
                    assert_eq!(block.index(j), t.index(at));
                    assert!(!std::mem::replace(&mut seen[at], true), "entry {at} twice");
                }
            }
            assert!(seen.iter().all(|&s| s), "every source entry is in a block");
        }
    }

    #[test]
    fn block_coords_roundtrip() {
        let t = random_tensor(&[10, 10, 10], 100, 2);
        let blocks = TensorBlocks::build(&t, &[2, 3, 4]);
        for id in 0..24 {
            let coords = blocks.block_coords(id);
            let mut back = 0;
            for (n, &c) in coords.iter().enumerate() {
                back = back * blocks.parts_per_mode[n] + c;
            }
            assert_eq!(back, id);
        }
    }

    #[test]
    fn greedy_beats_equal_width_on_skewed_data() {
        // Zipf-ish skew along mode 0.
        let mut rng = StdRng::seed_from_u64(3);
        let dim = 100;
        let mut t = CooTensor::new(vec![dim, 50]);
        for _ in 0..5000 {
            // Index ∝ 1/(i+1): heavy head.
            let u: f64 = rng.random();
            let i = ((dim as f64).powf(u) - 1.0) as usize;
            let j = rng.random_range(0..50);
            t.push(&[i.min(dim - 1), j], 1.0).unwrap();
        }
        let parts = 5;
        let greedy = TensorBlocks::build(&t, &[parts, 1]);
        // Equal-width baseline.
        let width = dim / parts;
        let mut naive = vec![0usize; parts];
        for (idx, _) in t.iter() {
            naive[(idx[0] / width).min(parts - 1)] += 1;
        }
        let naive_stats = BalanceStats::from_counts(&naive);
        let greedy_stats = greedy.balance(0);
        assert!(
            greedy_stats.imbalance < naive_stats.imbalance,
            "greedy {:.3} must beat naive {:.3}",
            greedy_stats.imbalance,
            naive_stats.imbalance
        );
        assert!(greedy_stats.imbalance < 1.5);
    }

    #[test]
    fn balance_stats_basics() {
        let s = BalanceStats::from_counts(&[10, 20, 30]);
        assert_eq!(s.max, 30);
        assert_eq!(s.min, 10);
        assert!((s.mean - 20.0).abs() < 1e-12);
        assert!((s.imbalance - 1.5).abs() < 1e-12);
    }

    /// A Zipf(s) histogram over `len` slices scaled so the head carries
    /// `head` records — the skew of §IV-A's "skewed" synthetic tensors.
    fn zipf_histogram(len: usize, s: f64, head: usize) -> Vec<usize> {
        (1..=len)
            .map(|i| ((head as f64 / (i as f64).powf(s)).round() as usize).max(1))
            .collect()
    }

    /// Lemma 1: a greedy cut never overshoots the ideal load `δ = total/P`
    /// by more than one slice, so every partition's load is at most
    /// `δ + max θᵢ`. Checked on heavy Zipf skew, where equal-width
    /// partitioning fails badly.
    #[test]
    fn greedy_respects_lemma_1_bound_on_zipf_skew() {
        for (s, parts) in [(1.0, 4), (1.5, 8), (2.0, 3), (0.8, 16)] {
            let theta = zipf_histogram(200, s, 10_000);
            let total: usize = theta.iter().sum();
            let delta = total as f64 / parts as f64;
            let theta_max = *theta.iter().max().unwrap() as f64;
            let part = ModePartition::from_histogram(&theta, parts);
            assert_eq!(part.parts(), parts);
            let loads: Vec<usize> = (0..parts)
                .map(|p| part.range(p).map(|i| theta[i]).sum())
                .collect();
            assert_eq!(loads.iter().sum::<usize>(), total, "loads cover everything");
            let stats = BalanceStats::from_counts(&loads);
            assert!(
                (stats.max as f64) <= delta + theta_max + 1e-9,
                "Lemma 1: max load {} > δ {delta} + θmax {theta_max} (s={s}, P={parts})",
                stats.max
            );
            assert!(stats.mean > 0.0);
            assert!(stats.imbalance >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn greedy_degenerate_inputs_do_not_panic() {
        // Empty histogram: every partition is an empty tail at 0.
        let b = greedy_boundaries(&[], 4);
        assert_eq!(b, vec![0, 0, 0, 0]);
        // More partitions than slices: trailing partitions are empty but
        // the boundary list still has exactly `parts` entries ending at I.
        let b = greedy_boundaries(&[5, 5, 5], 7);
        assert_eq!(b.len(), 7);
        assert_eq!(*b.last().unwrap(), 3);
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "non-decreasing: {b:?}");
        // All-zero histogram (a mode with no observed entries).
        let b = greedy_boundaries(&[0, 0, 0, 0], 2);
        assert_eq!(b.len(), 2);
        assert_eq!(*b.last().unwrap(), 4);
        // One slice holding everything.
        let b = greedy_boundaries(&[1_000_000], 5);
        assert_eq!(b.len(), 5);
        assert_eq!(*b.last().unwrap(), 1);
        // ModePartition wrappers on the same degenerate shapes.
        assert_eq!(ModePartition::from_histogram(&[], 3).parts(), 3);
        assert_eq!(ModePartition::equal_width(2, 9).parts(), 9);
        // BalanceStats on empty-tail loads must not divide by zero.
        let s = BalanceStats::from_counts(&[0, 0, 0]);
        assert_eq!(s.max, 0);
    }
}
