//! MTTKRP — matricized tensor times Khatri-Rao product — and the Gram
//! product, the two kernels §III-C builds DisTenC's factor update from.
//!
//! This module also owns the workspace's **rank-specialization dispatch
//! point** ([`dispatch_rank`]): per-entry sweeps run a monomorphized body
//! with `[f64; R]` stack scratch for R ∈ {8, 16} and a dynamic-rank body
//! otherwise. Both bodies share one implementation
//! ([`sweep_bucket_entries`]) so they execute the identical operation
//! sequence — specialization changes compile-time knowledge (constant
//! trip counts, stack scratch), never a single bit of the result. The
//! fused kernels in [`crate::fused`] dispatch through the same point.

use crate::coo::CooTensor;
use crate::{Result, TensorError};
use distenc_dataflow::Executor;
use distenc_linalg::Mat;

/// A kernel body that can run with a compile-time rank (`run_const`,
/// `R` = the factor rank) or a runtime rank (`run_dyn`). Implementations
/// must perform the identical operation sequence in both so dispatch is
/// bit-invisible.
pub(crate) trait RankKernel {
    /// Result of the sweep.
    type Out;
    /// Monomorphized body; only called with `R` equal to the actual rank.
    fn run_const<const R: usize>(self) -> Self::Out;
    /// Fallback body for unspecialized ranks.
    fn run_dyn(self) -> Self::Out;
}

/// The one rank-specialization dispatch point (see module docs). Shared
/// by [`mttkrp_blocked_into`] and the fused kernels.
#[inline]
pub(crate) fn dispatch_rank<K: RankKernel>(rank: usize, kernel: K) -> K::Out {
    match rank {
        8 => kernel.run_const::<8>(),
        16 => kernel.run_const::<16>(),
        _ => kernel.run_dyn(),
    }
}

/// One entry's MTTKRP contribution, the fold every entry-at-a-time
/// kernel in the workspace shares: broadcast `v` into `scratch`, multiply
/// in row `idx[k]` of every factor `k ≠ mode` in ascending `k`, and add
/// the result into `out` (the output row of `idx[mode]`). `scratch` and
/// `out` are rank-length. `#[inline(always)]` so a stack scratch's
/// constant length propagates into the loop trip counts.
#[inline(always)]
pub fn fold_entry(
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

/// Reusable per-mode state for [`mttkrp_blocked_into`]: the entry buckets
/// (fixed once the tensor's support and the Algorithm-2 boundaries are
/// fixed), one accumulation slab per part, and one `R`-vector scratch per
/// part so a steady-state call allocates nothing.
///
/// `boundaries` are Algorithm 2-style ascending cut points over the mode's
/// index space: part `p` owns output rows `boundaries[p-1]..boundaries[p]`
/// (part 0 starts at row 0), and the last boundary must equal the mode's
/// dimension.
///
/// The workspace is bound to the `(support, mode, boundaries, rank)` it
/// was built for; using it with a tensor whose entry positions differ
/// from the construction-time tensor is a logic error (debug-asserted).
pub struct MttkrpWorkspace {
    pub(crate) mode: usize,
    pub(crate) nnz: usize,
    pub(crate) parts: Vec<MttkrpPart>,
}

pub(crate) struct MttkrpPart {
    pub(crate) bucket: Vec<usize>,
    pub(crate) lo: usize,
    pub(crate) slab: Mat,
    pub(crate) scratch: Vec<f64>,
    /// Fresh residual values in bucket order, used only by the threaded
    /// fused kernel (`crate::fused`) to carry per-entry results out of
    /// the parallel region. Empty until the first fused call sizes it.
    pub(crate) vals: Vec<f64>,
}

impl MttkrpWorkspace {
    /// Bucket `x`'s entries for a mode-`mode` blocked MTTKRP at rank `r`.
    /// The single forward scan keeps each bucket in original entry order
    /// — the load-bearing step for bit-exactness (see
    /// [`mttkrp_blocked_into`]).
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
        let starts: Vec<usize> =
            std::iter::once(0).chain(boundaries.iter().copied()).collect();
        let parts = buckets
            .into_iter()
            .enumerate()
            .map(|(p, bucket)| MttkrpPart {
                bucket,
                lo: starts[p],
                slab: Mat::zeros(boundaries[p] - starts[p], r),
                scratch: vec![0.0; r],
                vals: Vec::new(),
            })
            .collect();
        Ok(MttkrpWorkspace { mode, nnz: x.nnz(), parts })
    }

    /// The mode this workspace was bucketed for.
    pub fn mode(&self) -> usize {
        self.mode
    }
}

/// The per-bucket accumulation loop shared by every rank variant of the
/// blocked MTTKRP: exactly the loop of the sequential [`mttkrp`], with
/// the scratch vector supplied by the caller (a `[f64; R]` stack
/// array under [`dispatch_rank`] specialization, the workspace's heap
/// vector otherwise). `#[inline(always)]` so the constant scratch length
/// propagates into the loop trip counts.
#[inline(always)]
pub(crate) fn sweep_bucket_entries(
    x: &CooTensor,
    factors: &[Mat],
    mode: usize,
    bucket: &[usize],
    lo: usize,
    slab: &mut Mat,
    scratch: &mut [f64],
) {
    slab.fill(0.0);
    for &pos in bucket {
        let idx = x.index(pos);
        fold_entry(factors, idx, x.value(pos), mode, scratch, slab.row_mut(idx[mode] - lo));
    }
}

/// [`RankKernel`] adapter running [`sweep_bucket_entries`] over one
/// workspace part.
struct BucketSweep<'a> {
    x: &'a CooTensor,
    factors: &'a [Mat],
    mode: usize,
    part: &'a mut MttkrpPart,
}

impl RankKernel for BucketSweep<'_> {
    type Out = ();

    fn run_const<const R: usize>(self) {
        debug_assert_eq!(self.part.scratch.len(), R);
        let mut scratch = [0.0f64; R];
        sweep_bucket_entries(
            self.x,
            self.factors,
            self.mode,
            &self.part.bucket,
            self.part.lo,
            &mut self.part.slab,
            &mut scratch,
        );
    }

    fn run_dyn(self) {
        sweep_bucket_entries(
            self.x,
            self.factors,
            self.mode,
            &self.part.bucket,
            self.part.lo,
            &mut self.part.slab,
            &mut self.part.scratch,
        );
    }
}

/// Block-parallel MTTKRP over mode-`mode` row ranges, writing into a
/// caller-owned `h` through a preallocated [`MttkrpWorkspace`]. Each part
/// is one work unit on `exec`, accumulating into its own row slab — no
/// atomics, no shared writes — and the slabs are stitched into disjoint
/// row ranges of `h` in fixed part order. The steady state allocates
/// nothing (dispatch to the threaded executor shares one borrowed closure
/// — no job boxes; the sequential one is a plain loop).
///
/// **Bit-exact for every blocking and every [`ExecMode`]**: each bucket
/// keeps original entry order, and a row of `h` is only ever touched by
/// the one part that owns it, so every output row sums its contributions
/// in exactly the order the sequential [`mttkrp`] uses.
///
/// [`ExecMode`]: distenc_dataflow::ExecMode
pub fn mttkrp_blocked_into(
    x: &CooTensor,
    factors: &[Mat],
    ws: &mut MttkrpWorkspace,
    exec: &Executor,
    h: &mut Mat,
) -> Result<()> {
    validate(x, factors, ws.mode)?;
    debug_assert_eq!(x.nnz(), ws.nnz, "workspace built for a different support");
    let mode = ws.mode;
    let r = factors[0].cols();
    let dim = x.shape()[mode];
    if h.shape() != (dim, r) || ws.parts.first().is_some_and(|p| p.slab.cols() != r) {
        return Err(TensorError::ShapeMismatch(format!(
            "mttkrp output is {:?}, want ({dim}, {r})",
            h.shape()
        )));
    }
    crate::record_entry_sweep(x.nnz());
    exec.run_mut(&mut ws.parts, |_, part| {
        dispatch_rank(r, BucketSweep { x, factors, mode, part });
    });
    for part in &ws.parts {
        h.as_mut_slice()[part.lo * r..(part.lo + part.slab.rows()) * r]
            .copy_from_slice(part.slab.as_slice());
    }
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

    #[test]
    fn mttkrp_blocked_into_is_bitwise_identical_to_sequential() {
        use distenc_dataflow::{ExecMode, Executor};
        let shape = [13, 7, 5];
        let x = random_coo(&shape, 150, 4);
        let rank = 3;
        for exec in [Executor::new(ExecMode::Sequential), Executor::new(ExecMode::Threads(3))] {
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
                    let mut ws = MttkrpWorkspace::new(&x, mode, boundaries, rank).unwrap();
                    let mut h = Mat::random(dim, rank, 77); // dirty on purpose
                    // Two different factor sets through the same workspace:
                    // slab zeroing must erase all state between calls.
                    for seed in [5, 6] {
                        let k = KruskalTensor::random(&shape, rank, seed);
                        mttkrp_blocked_into(&x, k.factors(), &mut ws, &exec, &mut h).unwrap();
                        let want = mttkrp(&x, k.factors(), mode).unwrap();
                        assert_eq!(
                            h.as_slice(),
                            want.as_slice(),
                            "mode {mode} seed {seed} cuts {boundaries:?}"
                        );
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
