//! Exact top-K search over one free mode with norm-bound pruning.
//!
//! Fix every index but one; the score of candidate `i` along the free
//! mode is `x̂(…, i, …) = Σᵣ a_i[r] · w[r]` where
//! `w[r] = ∏_{n≠mode} A⁽ⁿ⁾[iₙ, r]` is the rank-space weight vector of the
//! fixed indices. By Cauchy–Schwarz, `score(i) ≤ ‖a_i‖·‖w‖`, so scanning
//! candidates in norm-descending order (precomputed by [`FactorStore`])
//! lets the search stop as soon as the bound for the next candidate falls
//! strictly below the current k-th best score — every skipped candidate is
//! provably outside the top K. This is the serving-side payoff of the same
//! Gram/row-norm structure the solver exploits for `UᵀU` (Eqs. 11–13).
//!
//! Scores are computed with the exact multiply ordering of
//! [`KruskalTensor::eval`] (per rank: modes in increasing order), so a
//! returned score is bit-identical to evaluating the completed tensor at
//! that index.
//!
//! [`FactorStore`]: crate::store::FactorStore
//! [`KruskalTensor::eval`]: distenc_tensor::KruskalTensor::eval

use crate::store::FactorStore;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::Instant;

/// The floating-point norms and scores are rounded, so the mathematical
/// bound `score ≤ ‖a‖‖w‖` can be violated by a few ulps in computed
/// arithmetic. Inflating the bound by one part in 10⁹ keeps pruning exact
/// at a negligible cost in pruning power.
const BOUND_SAFETY: f64 = 1.0 + 1e-9;

/// How many candidates a deadline-bounded scan scores between clock reads.
pub const DEADLINE_CHECK_EVERY: usize = 128;

/// A top-K request: the best `k` indices along `mode` with every other
/// mode pinned to `at` (the entry of `at` at position `mode` is ignored).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopKQuery {
    /// The free mode to rank over.
    pub mode: usize,
    /// Full-length index tuple; the `mode` slot is a placeholder.
    pub at: Vec<usize>,
    /// How many results to return (clamped to the mode's length).
    pub k: usize,
}

/// One ranked result: a free-mode index and its completed-tensor score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKItem {
    /// Index along the query's free mode.
    pub index: usize,
    /// Completed-tensor value at that index (bit-exact vs `eval`).
    pub score: f64,
}

/// Result of a top-K search, with pruning/degradation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// Ranked items, best first (ties broken by ascending index).
    pub items: Vec<TopKItem>,
    /// True iff the deadline expired mid-scan and `items` is only the
    /// best-so-far over the candidates scanned before it fired.
    pub degraded: bool,
    /// Candidates exactly scored.
    pub scanned: usize,
    /// Candidates skipped by the norm bound (provably outside the top K).
    pub pruned: usize,
}

/// Heap entry ordered "better-first": higher score wins, ties go to the
/// smaller index — the same total order brute force sorting uses, so
/// results match it exactly even with tied scores.
#[derive(Debug, PartialEq)]
struct Cand {
    score: f64,
    index: usize,
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.index.cmp(&self.index))
    }
}

/// Run the pruned scan. Inputs are pre-validated by the engine. A
/// `deadline` is read every [`DEADLINE_CHECK_EVERY`] scored candidates.
pub(crate) fn search(
    store: &FactorStore,
    query: &TopKQuery,
    deadline: Option<Instant>,
) -> TopKResult {
    let r = store.rank();
    let dim = store.shape()[query.mode];
    let k = query.k.min(dim);
    if k == 0 {
        return TopKResult { items: Vec::new(), degraded: false, scanned: 0, pruned: 0 };
    }

    // pre[r]: running product of the fixed modes *before* the free mode,
    // multiplied in mode order. tail: fixed-mode rows *after* it. Folding
    // a candidate row between them reproduces `eval`'s exact multiply
    // sequence, keeping scores bit-identical to the completed tensor.
    let mut pre = vec![1.0; r];
    for m in 0..query.mode {
        for (p, &v) in pre.iter_mut().zip(store.row(m, query.at[m])) {
            *p *= v;
        }
    }
    let tail: Vec<&[f64]> = (query.mode + 1..store.order())
        .map(|m| store.row(m, query.at[m]))
        .collect();

    // Rank-space weight vector for the pruning bound.
    let mut w = pre.clone();
    for t in &tail {
        for (wv, &v) in w.iter_mut().zip(*t) {
            *wv *= v;
        }
    }
    let w_norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();

    let order = store.by_norm(query.mode);
    let mut heap: BinaryHeap<Reverse<Cand>> = BinaryHeap::with_capacity(k + 1);
    let mut scanned = 0usize;
    let mut pruned = 0usize;
    let mut degraded = false;

    for (pos, &i) in order.iter().enumerate() {
        if heap.len() == k {
            let bound = store.row_norm(query.mode, i) * w_norm * BOUND_SAFETY;
            // Strict `<`: a candidate whose bound ties the k-th best could
            // still displace it on the index tie-break, so it must be scanned.
            if bound < heap.peek().expect("heap is full").0.score {
                pruned = dim - pos;
                break;
            }
        }
        if let Some(dl) = deadline {
            if scanned > 0 && scanned.is_multiple_of(DEADLINE_CHECK_EVERY) && Instant::now() >= dl {
                degraded = true;
                break;
            }
        }
        let row = store.row(query.mode, i);
        let mut score = 0.0;
        for rr in 0..r {
            let mut prod = pre[rr] * row[rr];
            for t in &tail {
                prod *= t[rr];
            }
            score += prod;
        }
        scanned += 1;
        let cand = Cand { score, index: i };
        if heap.len() < k {
            heap.push(Reverse(cand));
        } else if cand > heap.peek().expect("heap is full").0 {
            heap.pop();
            heap.push(Reverse(cand));
        }
    }

    let mut items: Vec<TopKItem> = heap
        .into_iter()
        .map(|Reverse(c)| TopKItem { index: c.index, score: c.score })
        .collect();
    items.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
    TopKResult { items, degraded, scanned, pruned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_tensor::KruskalTensor;

    fn brute_force(model: &KruskalTensor, q: &TopKQuery) -> Vec<TopKItem> {
        let dim = model.shape()[q.mode];
        let mut all: Vec<TopKItem> = (0..dim)
            .map(|i| {
                let mut idx = q.at.clone();
                idx[q.mode] = i;
                TopKItem { index: i, score: model.eval(&idx) }
            })
            .collect();
        all.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
        all.truncate(q.k.min(dim));
        all
    }

    #[test]
    fn matches_brute_force_exactly() {
        let model = KruskalTensor::random(&[200, 40, 15], 6, 31);
        let store = FactorStore::new(&model);
        for (mode, k) in [(0, 1), (0, 10), (1, 5), (2, 15), (0, 200)] {
            let q = TopKQuery { mode, at: vec![7, 3, 2], k };
            let got = search(&store, &q, None);
            let want = brute_force(&model, &q);
            assert!(!got.degraded);
            assert_eq!(got.items, want, "mode {mode} k {k}");
            assert_eq!(got.scanned + got.pruned, model.shape()[mode]);
        }
    }

    #[test]
    fn pruning_actually_skips_candidates() {
        // Uniform [0,1) factors give spread-out row norms, so a small k on
        // a large mode must prune a sizable tail.
        let model = KruskalTensor::random(&[5000, 10, 10], 4, 7);
        let store = FactorStore::new(&model);
        let q = TopKQuery { mode: 0, at: vec![0, 4, 4], k: 5 };
        let res = search(&store, &q, None);
        assert!(res.pruned > 0, "expected pruning, scanned {}", res.scanned);
        assert_eq!(res.items, brute_force(&model, &q)[..5]);
    }

    #[test]
    fn k_zero_and_oversized_k() {
        let model = KruskalTensor::random(&[10, 10], 2, 3);
        let store = FactorStore::new(&model);
        let none = search(&store, &TopKQuery { mode: 0, at: vec![0, 1], k: 0 }, None);
        assert!(none.items.is_empty());
        let all = search(&store, &TopKQuery { mode: 1, at: vec![2, 0], k: 99 }, None);
        assert_eq!(all.items.len(), 10);
    }

    #[test]
    fn expired_deadline_degrades_gracefully() {
        let model = KruskalTensor::random(&[4000, 8, 8], 4, 11);
        let store = FactorStore::new(&model);
        let k = 2 * DEADLINE_CHECK_EVERY;
        let q = TopKQuery { mode: 0, at: vec![0, 2, 3], k };
        // A deadline already in the past: the scan still covers at least one
        // check window before noticing, so the result is a valid prefix.
        // A window shorter than k guarantees the deadline check runs before
        // the heap fills, i.e. before bound-pruning could end the scan.
        let res = search(&store, &q, Some(Instant::now()));
        assert!(res.degraded);
        assert!(res.scanned >= DEADLINE_CHECK_EVERY);
        assert_eq!(res.items.len(), res.scanned.min(k));
        assert!(res.items.len() <= k);
        // Well-formed: sorted best-first.
        for w in res.items.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
