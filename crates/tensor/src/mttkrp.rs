//! MTTKRP — matricized tensor times Khatri-Rao product — and the Gram
//! product, the two kernels §III-C builds DisTenC's factor update from.
//!
//! The naive [`mttkrp`] here is the oracle the entry body in
//! [`crate::fused`] is pinned against.

use crate::coo::CooTensor;
use crate::fused::{sweep_part, Stored};
use crate::{Result, TensorError};
use distenc_dataflow::Executor;
use distenc_linalg::Mat;
use std::ops::Range;
use std::sync::Arc;

/// One entry's MTTKRP contribution, the fold the naive [`mttkrp`] and the
/// entry body's fallback for orders outside its row cache share (inside
/// it, the body carries the same fold's prefix from mode to mode):
/// broadcast `v` into `scratch`, multiply
/// in row `idx[k]` of every factor `k ≠ mode` in ascending `k`, and add
/// the result into `out` (the output row of `idx[mode]`). `scratch` and
/// `out` are rank-length. `#[inline(always)]` so a stack scratch's
/// constant length propagates into the loop trip counts.
#[inline(always)]
pub(crate) fn fold_entry(
    factors: &[Mat],
    idx: &[usize],
    v: f64,
    mode: usize,
    scratch: &mut [f64],
    out: &mut [f64],
) {
    scratch.iter_mut().for_each(|s| *s = v);
    for (k, f) in factors.iter().enumerate() {
        if k == mode {
            continue;
        }
        for (s, &a) in scratch.iter_mut().zip(f.row(idx[k])) {
            *s *= a;
        }
    }
    for (o, &s) in out.iter_mut().zip(scratch.iter()) {
        *o += s;
    }
}

/// Row-wise MTTKRP (Eq. 10/11): `H = X₍ₙ₎ U⁽ⁿ⁾` computed directly from COO
/// entries without materializing `U⁽ⁿ⁾`:
///
/// `H(iₙ, :) = Σ_{x ∈ X with mode-n index iₙ} x · ⊛_{k≠n} A⁽ᵏ⁾(iₖ, :)`
///
/// Runs in `O(nnz(X) · N · R)` time with `O(R)` scratch — the "fiber-based"
/// granularity of SPLATT the paper adopts.
pub fn mttkrp(x: &CooTensor, factors: &[Mat], mode: usize) -> Result<Mat> {
    validate(x, factors, mode)?;
    crate::record_entry_sweep(x.nnz());
    let r = factors[0].cols();
    let mut h = Mat::zeros(x.shape()[mode], r);
    let mut scratch = vec![0.0; r];
    for (idx, v) in x.iter() {
        fold_entry(factors, idx, v, mode, &mut scratch, h.row_mut(idx[mode]));
    }
    Ok(h)
}

/// The Gram product `U⁽ⁿ⁾ᵀU⁽ⁿ⁾ = ⊛_{k≠n} A⁽ᵏ⁾ᵀA⁽ᵏ⁾` (Eq. 12), an `R×R`
/// matrix computed from cached per-factor Grams instead of the huge
/// `U⁽ⁿ⁾`.
pub fn gram_product(grams: &[Mat], mode: usize) -> Result<Mat> {
    if grams.is_empty() {
        return Err(TensorError::ShapeMismatch("no gram matrices".into()));
    }
    let r = grams[0].rows();
    let mut acc = Mat::zeros(r, r);
    gram_product_into(grams, mode, &mut acc)?;
    Ok(acc)
}

/// [`gram_product`] into a caller-owned `R×R` buffer: `out` is set to
/// all-ones, then each non-`mode` Gram is Hadamard-multiplied in, in
/// ascending `k`.
pub fn gram_product_into(grams: &[Mat], mode: usize, out: &mut Mat) -> Result<()> {
    if grams.is_empty() {
        return Err(TensorError::ShapeMismatch("no gram matrices".into()));
    }
    let r = grams[0].rows();
    if out.shape() != (r, r) {
        return Err(TensorError::ShapeMismatch(format!(
            "gram product output is {:?}, want ({r}, {r})",
            out.shape()
        )));
    }
    out.fill(1.0);
    for (k, g) in grams.iter().enumerate() {
        if k == mode {
            continue;
        }
        if g.shape() != (r, r) {
            return Err(TensorError::ShapeMismatch(format!(
                "gram {k} is {:?}, want ({r}, {r})",
                g.shape()
            )));
        }
        for (o, &v) in out.as_mut_slice().iter_mut().zip(g.as_slice()) {
            *o *= v;
        }
    }
    Ok(())
}

/// One mode's parts for the sweeps that run concurrently
/// ([`mttkrp_blocked_into`], `crate::fused::fused_mttkrp_refresh_into`):
/// the entry positions in an order that groups them by output-row range,
/// and per range (a *part*) its run of that order, an accumulation slab
/// and a value carrier, so a steady-state call allocates nothing. Parts
/// share no output row, and each lists every row's entries in entry order
/// — which is all a sweep's bit-exactness asks of a cut (see
/// [`mttkrp_blocked_into`]). Two cuts exist: [`Self::new`]'s Algorithm 2
/// boundaries with each part in entry order (COO), and the tiled layout's
/// runs of stably sorted 16-row tiles, whose order the workspace shares
/// with the layout instead of copying
/// ([`crate::layout::TensorLayout::workspace`]).
///
/// The workspace is bound to the `(support, mode, cut, rank)` it was
/// built for. Another rank or entry count is a typed error at the next
/// sweep; a different support of the same size is a logic error the
/// sweep cannot see.
pub struct MttkrpWorkspace {
    pub(crate) mode: usize,
    rank: usize,
    /// Every entry's position in the entry list, once, grouped by part.
    pub(crate) positions: Arc<[usize]>,
    pub(crate) parts: Vec<MttkrpPart>,
}

pub(crate) struct MttkrpPart {
    /// The part's entries: this run of the workspace's `positions`.
    pub(crate) entries: Range<usize>,
    /// First output row the part owns; its slab holds the rows from here.
    pub(crate) row_lo: usize,
    pub(crate) slab: Mat,
    /// Fresh residual values, one per entry of the part: how the fused
    /// sweep carries per-entry results out of the parallel region. Empty
    /// until the first fused call sizes it.
    pub(crate) vals: Vec<f64>,
}

impl MttkrpWorkspace {
    /// Cut `x`'s entries at `boundaries` for a mode-`mode` sweep at rank
    /// `r`: Algorithm 2-style ascending cut points over the mode's index
    /// space, part `p` owning output rows `boundaries[p-1]..boundaries[p]`
    /// (part 0 starts at row 0), the last boundary equal to the mode's
    /// dimension. The single forward scan keeps each part in original
    /// entry order.
    pub fn new(x: &CooTensor, mode: usize, boundaries: &[usize], r: usize) -> Result<Self> {
        if mode >= x.order() {
            return Err(TensorError::ShapeMismatch(format!(
                "mode {mode} out of range for order {}",
                x.order()
            )));
        }
        let dim = x.shape()[mode];
        let ok = boundaries.last() == Some(&dim)
            && boundaries.windows(2).all(|w| w[0] <= w[1]);
        if !ok {
            return Err(TensorError::ShapeMismatch(format!(
                "boundaries {boundaries:?} do not cover mode-{mode} rows 0..{dim}"
            )));
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); boundaries.len()];
        for pos in 0..x.nnz() {
            let i = x.index(pos)[mode];
            let part = boundaries.partition_point(|&b| b <= i);
            buckets[part].push(pos);
        }
        let ends = buckets.iter().scan(0, |end, b| {
            *end += b.len();
            Some(*end)
        });
        let cut: Vec<(usize, usize)> = ends.zip(boundaries.iter().copied()).collect();
        Ok(Self::from_parts(mode, r, buckets.concat().into(), cut))
    }

    /// A workspace over `positions` cut into consecutive parts: part `p`
    /// ends before entry `cut[p].0` of `positions` and before output row
    /// `cut[p].1`, and starts where part `p − 1` ends (part 0 at 0, 0).
    pub(crate) fn from_parts(
        mode: usize,
        rank: usize,
        positions: Arc<[usize]>,
        cut: Vec<(usize, usize)>,
    ) -> Self {
        let starts = std::iter::once((0, 0)).chain(cut.iter().copied());
        let parts = starts
            .zip(&cut)
            .map(|((entry_lo, row_lo), &(entry_hi, row_hi))| MttkrpPart {
                entries: entry_lo..entry_hi,
                row_lo,
                slab: Mat::zeros(row_hi - row_lo, rank),
                vals: Vec::new(),
            })
            .collect();
        MttkrpWorkspace { mode, rank, positions, parts }
    }

    /// A sweep of `x` against `factors` into `h` must be the one this
    /// workspace was sized for.
    pub(crate) fn check(&self, x: &CooTensor, factors: &[Mat], h: &Mat) -> Result<()> {
        let (r, dim) = (factors[0].cols(), x.shape()[self.mode]);
        if h.shape() != (dim, r) {
            return Err(TensorError::ShapeMismatch(format!(
                "mttkrp output is {:?}, want ({dim}, {r})",
                h.shape()
            )));
        }
        if (self.positions.len(), self.rank) != (x.nnz(), r) {
            return Err(TensorError::ShapeMismatch(format!(
                "workspace built for {} entries at rank {}, swept with {} at rank {r}",
                self.positions.len(),
                self.rank,
                x.nnz()
            )));
        }
        Ok(())
    }

    /// Copy the parts' slabs into their (disjoint) row ranges of `h`, in
    /// fixed part order.
    pub(crate) fn stitch_into(&self, h: &mut Mat) {
        let r = self.rank;
        for part in &self.parts {
            h.as_mut_slice()[part.row_lo * r..(part.row_lo + part.slab.rows()) * r]
                .copy_from_slice(part.slab.as_slice());
        }
    }
}

/// Block-parallel MTTKRP over mode-`mode` row ranges, writing into a
/// caller-owned `h` through a preallocated [`MttkrpWorkspace`]. Each part
/// is one work unit on `exec`, running the shared entry body
/// (`crate::fused::sweep_part`) over its positions into its own row slab
/// — no atomics, no shared writes — and the slabs are stitched into
/// disjoint row ranges of `h` in fixed part order. The steady state
/// allocates nothing (dispatch to the threaded executor shares one
/// borrowed closure — no job boxes; the sequential one is a plain loop).
///
/// **Bit-exact for every cut and every [`ExecMode`]**: each part lists a
/// row's entries in original entry order, and a row of `h` is only ever
/// touched by the one part that owns it, so every output row sums its
/// contributions in exactly the order the sequential [`mttkrp`] uses.
///
/// [`ExecMode`]: distenc_dataflow::ExecMode
pub fn mttkrp_blocked_into(
    x: &CooTensor,
    factors: &[Mat],
    ws: &mut MttkrpWorkspace,
    exec: &Executor,
    h: &mut Mat,
) -> Result<()> {
    let mode = ws.mode;
    validate(x, factors, mode)?;
    ws.check(x, factors, h)?;
    crate::record_entry_sweep(x.nnz());
    let positions = &ws.positions;
    exec.run_mut(&mut ws.parts, |_, part| {
        let (vals, at) = (Stored(x.values()), &positions[part.entries.clone()]);
        sweep_part(x, factors, mode, vals, at, part.row_lo, &mut part.slab);
    });
    ws.stitch_into(h);
    Ok(())
}

pub(crate) fn validate(x: &CooTensor, factors: &[Mat], mode: usize) -> Result<()> {
    if factors.len() != x.order() {
        return Err(TensorError::ShapeMismatch(format!(
            "{} factors for an order-{} tensor",
            factors.len(),
            x.order()
        )));
    }
    if mode >= x.order() {
        return Err(TensorError::ShapeMismatch(format!(
            "mode {mode} out of range for order {}",
            x.order()
        )));
    }
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        if f.cols() != r {
            return Err(TensorError::ShapeMismatch("rank mismatch across factors".into()));
        }
        if f.rows() != x.shape()[k] {
            return Err(TensorError::ShapeMismatch(format!(
                "factor {k} has {} rows, tensor mode has length {}",
                f.rows(),
                x.shape()[k]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::khatri_rao::khatri_rao_skip;
    use crate::kruskal::KruskalTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> =
                shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>() * 2.0 - 1.0).unwrap();
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn mttkrp_matches_explicit_khatri_rao() {
        let shape = [4, 5, 3];
        let x = random_coo(&shape, 20, 1);
        let k = KruskalTensor::random(&shape, 3, 2);
        for mode in 0..3 {
            let got = mttkrp(&x, k.factors(), mode).unwrap();
            // Oracle: densify, matricize, multiply by explicit U.
            let dense = DenseTensor::from_coo(&x);
            let u = khatri_rao_skip(k.factors(), mode).unwrap();
            let want = dense.matricize(mode).matmul(&u).unwrap();
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-10, "mode {mode}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn mttkrp_4_order() {
        let shape = [3, 2, 4, 2];
        let x = random_coo(&shape, 15, 7);
        let k = KruskalTensor::random(&shape, 2, 8);
        for mode in 0..4 {
            let got = mttkrp(&x, k.factors(), mode).unwrap();
            let dense = DenseTensor::from_coo(&x);
            let u = khatri_rao_skip(k.factors(), mode).unwrap();
            let want = dense.matricize(mode).matmul(&u).unwrap();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    /// A tensor whose mode-0 row `i` holds exactly `counts[i]` entries.
    fn rows_holding(counts: &[usize]) -> CooTensor {
        let mut t = CooTensor::new(vec![counts.len(), 7, 5]);
        for (i, &n) in counts.iter().enumerate() {
            for c in 0..n {
                t.push(&[i, (c + i) % 7, c / 7], 0.25 * (c + 2 * i) as f64 - 1.0).unwrap();
            }
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn mttkrp_blocked_into_is_bitwise_identical_to_sequential() {
        use distenc_dataflow::{ExecMode, Executor};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Beside a random order-3 tensor: one whose mode-0 rows — parts,
        // cut one row each — hold 0, 1, 3, 4, 5 and 7 entries (an empty
        // sweep, and a short tail block alone, after one full block, and
        // padded from every remainder), and orders 1 and 9, which take the
        // body's per-entry fallback.
        let row_counts = [0usize, 1, 3, 4, 5, 7];
        let by_row = rows_holding(&row_counts);
        let per_row: Vec<usize> = (1..=row_counts.len()).collect();
        let ws = MttkrpWorkspace::new(&by_row, 0, &per_row, 1).unwrap();
        let sizes: Vec<usize> = ws.parts.iter().map(|p| p.entries.len()).collect();
        assert_eq!(sizes, row_counts);
        let inputs = [
            random_coo(&[13, 7, 5], 150, 4),
            by_row,
            random_coo(&[9], 8, 5),
            random_coo(&[3; 9], 60, 6),
        ];
        let ranks = [1usize, 3, 8, 16, 20];
        for exec in [Executor::new(ExecMode::Sequential), Executor::new(ExecMode::Threads(4))] {
            for (x, &rank) in inputs.iter().flat_map(|x| ranks.iter().map(move |r| (x, r))) {
                let shape = x.shape();
                for (mode, &dim) in shape.iter().enumerate() {
                    // Several blockings, including degenerate (empty parts,
                    // one part, one row per part): all must be *bit*-identical.
                    let cuts: Vec<Vec<usize>> = vec![
                        vec![dim],
                        vec![dim / 3, dim / 2, dim],
                        vec![0, 1, dim / 3, dim / 2, dim, dim],
                        (1..=dim).collect(),
                    ];
                    for boundaries in &cuts {
                        let mut ws = MttkrpWorkspace::new(x, mode, boundaries, rank).unwrap();
                        let mut h = Mat::random(dim, rank, 77); // dirty on purpose
                        // Two different factor sets through the same workspace:
                        // slab zeroing must erase all state between calls.
                        for seed in [5, 6] {
                            let k = KruskalTensor::random(shape, rank, seed);
                            mttkrp_blocked_into(x, k.factors(), &mut ws, &exec, &mut h).unwrap();
                            let want = mttkrp(x, k.factors(), mode).unwrap();
                            assert_eq!(
                                bits(h.as_slice()),
                                bits(want.as_slice()),
                                "shape {shape:?} rank {rank} mode {mode} seed {seed} \
                                 cuts {boundaries:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gram_product_into_is_bit_identical() {
        // `gram_product` is `gram_product_into` on a fresh buffer, so both
        // are checked against the elementwise product written out by
        // index (from 1.0, the other modes ascending — exact equality).
        let k = KruskalTensor::random(&[4, 6, 5], 3, 3);
        let grams: Vec<Mat> = k.factors().iter().map(Mat::gram).collect();
        let mut out = Mat::random(3, 3, 50); // dirty on purpose
        for mode in 0..3 {
            let mut want = Mat::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    let mut prod = 1.0;
                    for (m, g) in grams.iter().enumerate() {
                        if m != mode {
                            prod *= g.get(i, j);
                        }
                    }
                    want.set(i, j, prod);
                }
            }
            gram_product_into(&grams, mode, &mut out).unwrap();
            assert_eq!(out, want);
            assert_eq!(gram_product(&grams, mode).unwrap(), want);
        }
        assert!(gram_product_into(&grams, 0, &mut Mat::zeros(2, 2)).is_err());
    }

    #[test]
    fn mttkrp_workspace_rejects_bad_boundaries() {
        let x = random_coo(&[4, 4], 5, 1);
        assert!(MttkrpWorkspace::new(&x, 0, &[], 2).is_err());
        assert!(MttkrpWorkspace::new(&x, 0, &[2], 2).is_err());
        assert!(MttkrpWorkspace::new(&x, 0, &[3, 2, 4], 2).is_err());
        assert!(MttkrpWorkspace::new(&x, 5, &[4], 2).is_err());
    }

    #[test]
    fn gram_product_matches_explicit() {
        let k = KruskalTensor::random(&[4, 6, 5], 3, 3);
        let grams: Vec<Mat> = k.factors().iter().map(Mat::gram).collect();
        for mode in 0..3 {
            let got = gram_product(&grams, mode).unwrap();
            let u = khatri_rao_skip(k.factors(), mode).unwrap();
            let want = u.gram();
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_tensor_gives_zero_mttkrp() {
        let x = CooTensor::new(vec![3, 3, 3]);
        let k = KruskalTensor::random(&[3, 3, 3], 2, 4);
        let h = mttkrp(&x, k.factors(), 0).unwrap();
        assert_eq!(h.frob_norm(), 0.0);
    }

    #[test]
    fn shape_validation() {
        let x = CooTensor::new(vec![3, 3]);
        let k = KruskalTensor::random(&[3, 3, 3], 2, 4);
        assert!(mttkrp(&x, k.factors(), 0).is_err()); // order mismatch
        let k2 = KruskalTensor::random(&[3, 4], 2, 4);
        assert!(mttkrp(&x, k2.factors(), 0).is_err()); // row mismatch
        let k3 = KruskalTensor::random(&[3, 3], 2, 4);
        assert!(mttkrp(&x, k3.factors(), 5).is_err()); // bad mode
    }
}
