//! Compressed sparse fiber (CSF) tensors — SPLATT's data structure, which
//! §III-C adopts for MTTKRP ("we parallelize such computation based on
//! the efficient fiber-based data structure [8]").
//!
//! A CSF tensor is a forest: one level per mode, each node a distinct
//! index prefix, leaves carrying values. MTTKRP over CSF reuses partial
//! Hadamard products across an entire fiber instead of recomputing them
//! per non-zero, cutting the flop count roughly by the branching factor
//! of the upper levels — the win grows with fiber density.
//!
//! The *structure* depends only on the support, so completion algorithms
//! rebuild just the leaf **values** each iteration
//! ([`CsfTensor::set_values`]) while the index tree is built once.

use crate::coo::CooTensor;
use crate::kruskal::KruskalTensor;
use crate::{Result, TensorError};
use distenc_linalg::Mat;

/// One level of the CSF tree: `ptr[f]..ptr[f+1]` are the children of node
/// `f` in the next level; `ids[f]` is the index (in this level's mode) of
/// node `f`.
#[derive(Debug, Clone)]
struct Level {
    ptr: Vec<usize>,
    ids: Vec<usize>,
}

/// A CSF tensor with a chosen mode order (`mode_order[0]` is the root
/// level).
#[derive(Debug, Clone)]
pub(crate) struct CsfTensor {
    shape: Vec<usize>,
    /// Mode handled by each level, root first.
    mode_order: Vec<usize>,
    levels: Vec<Level>,
    values: Vec<f64>,
    /// `leaf_of_entry[e]` = leaf slot of the `e`-th entry of the *sorted*
    /// source tensor (used by [`CsfTensor::set_values`]).
    source_perm: Vec<usize>,
    /// Inverse of `source_perm`: `leaf_src[leaf]` = source entry of that
    /// leaf (the construction-time sort permutation, used by the fused
    /// walk to read observed values and write fresh residual values).
    leaf_src: Vec<usize>,
}

impl CsfTensor {
    /// Build a CSF representation with `mode` at the root (the mode whose
    /// MTTKRP output this representation accelerates); remaining modes
    /// keep their natural order.
    pub(crate) fn for_mode(coo: &CooTensor, mode: usize) -> Result<Self> {
        if mode >= coo.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "mode {mode} out of range for order {}",
                coo.order()
            )));
        }
        let mut order: Vec<usize> = vec![mode];
        order.extend((0..coo.order()).filter(|&m| m != mode));
        Self::with_order(coo, &order)
    }

    /// Build with an explicit mode order (root first).
    pub(crate) fn with_order(coo: &CooTensor, mode_order: &[usize]) -> Result<Self> {
        let n = coo.order();
        if mode_order.len() != n {
            return Err(TensorError::ShapeMismatch("mode_order length must equal order".into()));
        }
        let mut seen = vec![false; n];
        for &m in mode_order {
            if m >= n || seen[m] {
                return Err(TensorError::ShapeMismatch("mode_order must be a permutation".into()));
            }
            seen[m] = true;
        }

        // Sort entry ids by the permuted index tuple.
        let mut perm: Vec<usize> = (0..coo.nnz()).collect();
        let key = |e: usize| -> Vec<usize> {
            let idx = coo.index(e);
            mode_order.iter().map(|&m| idx[m]).collect()
        };
        perm.sort_by_key(|&e| key(e));

        // Build levels top-down: at each level, a node is a distinct
        // prefix of length l+1; its children span the entries sharing it.
        let mut levels: Vec<Level> = Vec::with_capacity(n);
        // Current segmentation of the (sorted) entry range: starts of
        // segments sharing the prefix of the previous levels.
        let mut segments: Vec<(usize, usize)> = vec![(0, coo.nnz())];
        for (l, &m) in mode_order.iter().enumerate() {
            let mut ptr = vec![0usize];
            let mut ids = Vec::new();
            let mut next_segments = Vec::new();
            for &(start, end) in &segments {
                let mut e = start;
                while e < end {
                    let id = coo.index(perm[e])[m];
                    let mut j = e;
                    while j < end && coo.index(perm[j])[m] == id {
                        j += 1;
                    }
                    ids.push(id);
                    next_segments.push((e, j));
                    e = j;
                }
                // Close this parent's child range.
                ptr.push(ids.len());
            }
            let _ = l;
            levels.push(Level { ptr, ids });
            segments = next_segments;
        }
        // The last level's nodes are the leaves, one per entry (indices
        // are unique after sort_dedup); values in leaf order.
        let values: Vec<f64> = perm.iter().map(|&e| coo.value(e)).collect();
        let mut source_perm = vec![0usize; coo.nnz()];
        for (leaf, &e) in perm.iter().enumerate() {
            source_perm[e] = leaf;
        }
        Ok(CsfTensor {
            shape: coo.shape().to_vec(),
            mode_order: mode_order.to_vec(),
            levels,
            values,
            source_perm,
            leaf_src: perm,
        })
    }

    /// Tensor order.
    pub(crate) fn order(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored non-zeros.
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The root mode this representation accelerates.
    pub(crate) fn root_mode(&self) -> usize {
        self.mode_order[0]
    }

    /// Replace leaf values from a source tensor with the *same support in
    /// the same entry order* as the one this CSF was built from (the
    /// completion loop rebuilds the residual values each iteration while
    /// the support never changes).
    pub(crate) fn set_values(&mut self, source: &CooTensor) -> Result<()> {
        if source.nnz() != self.values.len() {
            return Err(TensorError::ShapeMismatch(format!(
                "value source has {} entries, CSF has {}",
                source.nnz(),
                self.values.len()
            )));
        }
        for (e, &leaf) in self.source_perm.iter().enumerate() {
            self.values[leaf] = source.value(e);
        }
        Ok(())
    }

    /// MTTKRP for the root mode: `H(i,:) = Σ_{fibers under i} …`,
    /// factorized over the tree so partial Hadamard products are shared
    /// across each fiber (the flop saving of the CSF layout).
    #[cfg(test)]
    pub(crate) fn mttkrp_root(&self, factors: &[Mat]) -> Result<Mat> {
        let rank = factors.first().map_or(0, |f| f.cols());
        let mut h = Mat::zeros(self.shape[self.root_mode()], rank);
        self.mttkrp_root_into(factors, &mut h)?;
        Ok(h)
    }

    /// [`CsfTensor::mttkrp_root`] into a caller-owned buffer (zeroed
    /// first; same traversal, bit-identical). Only the *output* is
    /// reused: the tree walk still allocates its per-level accumulators,
    /// which is the CSF path's documented exemption from the solver
    /// core's allocation budget (recursion depth × `O(R)`, independent of
    /// nnz).
    pub(crate) fn mttkrp_root_into(&self, factors: &[Mat], h: &mut Mat) -> Result<()> {
        if factors.len() != self.order() {
            return Err(TensorError::ShapeMismatch("one factor per mode".into()));
        }
        let rank = factors[0].cols();
        for (m, f) in factors.iter().enumerate() {
            if f.cols() != rank || f.rows() != self.shape[m] {
                return Err(TensorError::ShapeMismatch("factor shape mismatch".into()));
            }
        }
        let root = self.root_mode();
        if h.shape() != (self.shape[root], rank) {
            return Err(TensorError::ShapeMismatch(format!(
                "mttkrp output is {:?}, want ({}, {rank})",
                h.shape(),
                self.shape[root]
            )));
        }
        crate::record_entry_sweep(self.nnz());
        h.fill(0.0);
        let mut scratch = vec![0.0; rank];
        for (node, _) in self.levels[0].ids.iter().enumerate() {
            scratch.iter_mut().for_each(|s| *s = 0.0);
            self.accumulate(1, node, factors, &mut scratch, rank);
            let i = self.levels[0].ids[node];
            for (o, &s) in h.row_mut(i).iter_mut().zip(&scratch) {
                *o += s;
            }
        }
        Ok(())
    }

    /// Accumulate `Σ_{leaves under node} v · ⊛_{levels below} A(row)` into
    /// `out` (length `rank`), recursively.
    fn accumulate(&self, level: usize, node: usize, factors: &[Mat], out: &mut [f64], rank: usize) {
        let lv = &self.levels[level];
        let mode = self.mode_order[level];
        let (start, end) = (lv.ptr[node], lv.ptr[node + 1]);
        if level + 1 == self.levels.len() {
            // Leaf level: children are single entries.
            for c in start..end {
                let row = factors[mode].row(lv.ids[c]);
                let v = self.values[c];
                for (o, &a) in out.iter_mut().zip(row) {
                    *o += v * a;
                }
            }
            return;
        }
        let mut child_acc = vec![0.0; rank];
        for c in start..end {
            child_acc.iter_mut().for_each(|s| *s = 0.0);
            self.accumulate(level + 1, c, factors, &mut child_acc, rank);
            let row = factors[mode].row(lv.ids[c]);
            for ((o, &a), &s) in out.iter_mut().zip(row).zip(&child_acc) {
                *o += a * s;
            }
        }
    }

    /// Fused residual-refresh + root-mode MTTKRP in one tree walk (the
    /// CSF counterpart of [`crate::fused::fused_mttkrp_refresh_into`]):
    /// at each leaf, evaluate the model at the leaf's full index tuple,
    /// write the fresh residual value into both this tree's leaves and
    /// `e` (entry order), and accumulate the leaf's `H` contribution.
    /// Returns `‖E‖²_F` as the flat fold over `e`'s refreshed values.
    ///
    /// Bit-exactness: the walk is the exact traversal of
    /// [`CsfTensor::mttkrp_root_into`] and the per-leaf evaluation is a
    /// literal [`KruskalTensor::eval`] call on the reconstructed index
    /// tuple, so the result is bit-identical to
    /// `set_values(residual) + mttkrp_root_into` — only the separate
    /// passes disappear. Like the unfused walk, the per-level
    /// accumulators (plus one index buffer here) are the CSF path's
    /// documented allocation exemption.
    pub(crate) fn fused_mttkrp_refresh_root_into(
        &mut self,
        observed: &CooTensor,
        model: &KruskalTensor,
        e: &mut CooTensor,
        h: &mut Mat,
    ) -> Result<f64> {
        let factors = model.factors();
        if factors.len() != self.order() {
            return Err(TensorError::ShapeMismatch("one factor per mode".into()));
        }
        let rank = model.rank();
        for (m, f) in factors.iter().enumerate() {
            if f.cols() != rank || f.rows() != self.shape[m] {
                return Err(TensorError::ShapeMismatch("factor shape mismatch".into()));
            }
        }
        if observed.nnz() != self.values.len() || observed.shape() != self.shape {
            return Err(TensorError::ShapeMismatch(
                "observed tensor does not match the support this CSF was built from".into(),
            ));
        }
        if e.nnz() != observed.nnz() || e.shape() != observed.shape() {
            return Err(TensorError::ShapeMismatch(
                "fused refresh requires a residual sharing the observed support".into(),
            ));
        }
        let root = self.root_mode();
        if h.shape() != (self.shape[root], rank) {
            return Err(TensorError::ShapeMismatch(format!(
                "mttkrp output is {:?}, want ({}, {rank})",
                h.shape(),
                self.shape[root]
            )));
        }
        crate::record_entry_sweep(self.nnz());
        h.fill(0.0);
        let order = self.shape.len();
        let mut walk = FusedWalk {
            levels: &self.levels,
            mode_order: &self.mode_order,
            values: &mut self.values,
            leaf_src: &self.leaf_src,
            observed,
            model,
            e_vals: e.values_mut(),
            idx: vec![0; order],
            rank,
        };
        let mut scratch = vec![0.0; rank];
        for node in 0..walk.levels[0].ids.len() {
            let i = walk.levels[0].ids[node];
            walk.idx[root] = i;
            scratch.iter_mut().for_each(|s| *s = 0.0);
            walk.descend(1, node, &mut scratch);
            for (o, &s) in h.row_mut(i).iter_mut().zip(&scratch) {
                *o += s;
            }
        }
        drop(walk);
        Ok(e.frob_norm_sq())
    }
}

/// Borrow bundle for the fused CSF walk: disjoint field borrows of the
/// tree (read levels / write leaf values) plus the solver's buffers.
struct FusedWalk<'a> {
    levels: &'a [Level],
    mode_order: &'a [usize],
    values: &'a mut [f64],
    leaf_src: &'a [usize],
    observed: &'a CooTensor,
    model: &'a KruskalTensor,
    e_vals: &'a mut [f64],
    /// Index tuple of the current root-to-leaf path, by mode number.
    idx: Vec<usize>,
    rank: usize,
}

impl FusedWalk<'_> {
    /// Mirror of [`CsfTensor::accumulate`] that refreshes leaf values in
    /// the same traversal (see `fused_mttkrp_refresh_root_into`).
    fn descend(&mut self, level: usize, node: usize, out: &mut [f64]) {
        let mode = self.mode_order[level];
        let (start, end) = {
            let lv = &self.levels[level];
            (lv.ptr[node], lv.ptr[node + 1])
        };
        if level + 1 == self.levels.len() {
            // Leaf level: children are single entries.
            for c in start..end {
                let id = self.levels[level].ids[c];
                self.idx[mode] = id;
                let src = self.leaf_src[c];
                let val = self.observed.value(src) - self.model.eval(&self.idx);
                self.values[c] = val;
                self.e_vals[src] = val;
                let row = self.model.factors()[mode].row(id);
                for (o, &a) in out.iter_mut().zip(row) {
                    *o += val * a;
                }
            }
            return;
        }
        let mut child_acc = vec![0.0; self.rank];
        for c in start..end {
            let id = self.levels[level].ids[c];
            self.idx[mode] = id;
            child_acc.iter_mut().for_each(|s| *s = 0.0);
            self.descend(level + 1, c, &mut child_acc);
            let row = self.model.factors()[mode].row(id);
            for ((o, &a), &s) in out.iter_mut().zip(row).zip(&child_acc) {
                *o += a * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::KruskalTensor;
    use crate::mttkrp::mttkrp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn csf_mttkrp_matches_coo_every_mode() {
        let shape = [12usize, 9, 7];
        let coo = random_coo(&shape, 300, 1);
        let model = KruskalTensor::random(&shape, 4, 2);
        for mode in 0..3 {
            let csf = CsfTensor::for_mode(&coo, mode).unwrap();
            assert_eq!(csf.root_mode(), mode);
            let fast = csf.mttkrp_root(model.factors()).unwrap();
            let want = mttkrp(&coo, model.factors(), mode).unwrap();
            for (a, b) in fast.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-10, "mode {mode}");
            }
        }
    }

    #[test]
    fn csf_mttkrp_matches_coo_order_four() {
        let shape = [6usize, 5, 4, 3];
        let coo = random_coo(&shape, 200, 3);
        let model = KruskalTensor::random(&shape, 3, 4);
        for mode in 0..4 {
            let csf = CsfTensor::for_mode(&coo, mode).unwrap();
            let fast = csf.mttkrp_root(model.factors()).unwrap();
            let want = mttkrp(&coo, model.factors(), mode).unwrap();
            for (a, b) in fast.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn tree_structure_compresses_shared_prefixes() {
        // Two entries share the (0, 1) prefix: root has 2 nodes (i = 0,
        // 2), level 1 has 3 fibers, leaves = 4.
        let coo = CooTensor::from_entries(
            vec![3, 3, 3],
            &[
                (&[0, 1, 0], 1.0),
                (&[0, 1, 2], 2.0),
                (&[0, 2, 1], 3.0),
                (&[2, 0, 0], 4.0),
            ],
        )
        .unwrap();
        let csf = CsfTensor::for_mode(&coo, 0).unwrap();
        let level_nodes: Vec<usize> = csf.levels.iter().map(|l| l.ids.len()).collect();
        assert_eq!(level_nodes, [2, 3, 4]);
        assert_eq!(csf.nnz(), 4);
    }

    #[test]
    fn set_values_swaps_values_without_rebuilding() {
        let shape = [8usize, 8, 8];
        let coo = random_coo(&shape, 100, 5);
        let mut csf = CsfTensor::for_mode(&coo, 1).unwrap();
        // New values on the same support (entry order preserved).
        let mut scaled = coo.clone();
        for v in scaled.values_mut() {
            *v *= -2.5;
        }
        csf.set_values(&scaled).unwrap();
        let model = KruskalTensor::random(&shape, 3, 6);
        let fast = csf.mttkrp_root(model.factors()).unwrap();
        let want = mttkrp(&scaled, model.factors(), 1).unwrap();
        for (a, b) in fast.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn set_values_rejects_support_mismatch() {
        let coo = random_coo(&[5, 5, 5], 40, 7);
        let mut csf = CsfTensor::for_mode(&coo, 0).unwrap();
        let other = random_coo(&[5, 5, 5], 30, 8);
        assert!(csf.set_values(&other).is_err());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let coo = random_coo(&[4, 4], 10, 9);
        assert!(CsfTensor::for_mode(&coo, 5).is_err());
        assert!(CsfTensor::with_order(&coo, &[0]).is_err());
        assert!(CsfTensor::with_order(&coo, &[0, 0]).is_err());
        let csf = CsfTensor::for_mode(&coo, 0).unwrap();
        let model = KruskalTensor::random(&[4, 4, 4], 2, 1);
        assert!(csf.mttkrp_root(model.factors()).is_err());
    }

    #[test]
    fn empty_tensor_gives_zero_mttkrp() {
        let coo = CooTensor::new(vec![3, 3, 3]);
        let csf = CsfTensor::for_mode(&coo, 0).unwrap();
        let model = KruskalTensor::random(&[3, 3, 3], 2, 2);
        let h = csf.mttkrp_root(model.factors()).unwrap();
        assert_eq!(h.frob_norm(), 0.0);
    }

    #[test]
    fn fused_root_walk_is_bit_identical_to_set_values_plus_mttkrp() {
        use crate::residual::residual;
        for (shape, nnz) in [(vec![12usize, 9, 7], 300), (vec![6, 5, 4, 3], 200)] {
            let coo = random_coo(&shape, nnz, 1);
            for &rank in &[1usize, 3, 8, 16, 17] {
                let model = KruskalTensor::random(&shape, rank, 2 + rank as u64);
                for (mode, &mode_dim) in shape.iter().enumerate() {
                    // Unfused sequence: refresh residual, push values into
                    // the tree, walk.
                    let fresh = residual(&coo, &model).unwrap();
                    let mut want_csf = CsfTensor::for_mode(&coo, mode).unwrap();
                    want_csf.set_values(&fresh).unwrap();
                    let want_h = want_csf.mttkrp_root(model.factors()).unwrap();
                    let want_f = fresh.frob_norm_sq();
                    // Fused walk from stale values.
                    let mut csf = CsfTensor::for_mode(&coo, mode).unwrap();
                    let mut e = coo.clone(); // stale
                    let mut h = Mat::random(mode_dim, rank, 9); // dirty
                    let f = csf
                        .fused_mttkrp_refresh_root_into(&coo, &model, &mut e, &mut h)
                        .unwrap();
                    assert_eq!(e, fresh, "rank {rank} mode {mode}");
                    assert_eq!(h.as_slice(), want_h.as_slice(), "rank {rank} mode {mode}");
                    assert_eq!(f.to_bits(), want_f.to_bits());
                    // The tree's own leaves were refreshed too: a later
                    // unfused walk sees the same values.
                    let again = csf.mttkrp_root(model.factors()).unwrap();
                    assert_eq!(again.as_slice(), want_h.as_slice());
                }
            }
        }
    }

    #[test]
    fn fused_root_walk_rejects_mismatches() {
        let coo = random_coo(&[5, 5, 5], 40, 7);
        let model = KruskalTensor::random(&[5, 5, 5], 3, 1);
        let mut csf = CsfTensor::for_mode(&coo, 0).unwrap();
        let mut h = Mat::zeros(5, 3);
        let mut wrong_e = CooTensor::new(vec![5, 5, 5]);
        assert!(csf
            .fused_mttkrp_refresh_root_into(&coo, &model, &mut wrong_e, &mut h)
            .is_err());
        let other = random_coo(&[5, 5, 5], 30, 8);
        let mut e = other.clone();
        assert!(csf
            .fused_mttkrp_refresh_root_into(&other, &model, &mut e, &mut h)
            .is_err());
        let mut e = coo.clone();
        let mut small = Mat::zeros(4, 3);
        assert!(csf
            .fused_mttkrp_refresh_root_into(&coo, &model, &mut e, &mut small)
            .is_err());
    }
}
