//! The sparse residual tensor (Eq. 14) and the H₁ identity (Eq. 16).
//!
//! Tensor completion differs from factorization in that the estimated
//! tensor `X = T + Ω᷀ᶜ ∗ [[A…]]` is *dense*. §III-D's insight: since
//! `X₍ₙ₎ = [[A…]]₍ₙ₎ + E₍ₙ₎` with `E = Ω ∗ (T − [[A…]])` sparse, the
//! MTTKRP against `X` splits into a cheap Gram part and a sparse part:
//!
//! `H₁ = X₍ₙ₎U⁽ⁿ⁾ = A⁽ⁿ⁾(U⁽ⁿ⁾ᵀU⁽ⁿ⁾) + E₍ₙ₎U⁽ⁿ⁾`
//!
//! keeping every iteration `O(nnz(T))`.
//!
//! Note: Algorithm 3 line 13 as printed computes
//! `Ω ∗ ([[Aₜ₊₁]] − [[Aₜ]])`, which contradicts both Eq. 14 and the
//! derivation of Eq. 16 (which needs `X₍₁₎ = [[A]]₍₁₎ + E₍₁₎`, i.e.
//! `E = Ω ∗ (T − [[A]])`). We implement Eq. 14 and treat line 13 as a typo.

use crate::coo::CooTensor;
use crate::fused::{refresh_entries, Span};
use crate::kruskal::KruskalTensor;
use crate::mttkrp::{gram_product, mttkrp};
use crate::{Result, TensorError};
use distenc_dataflow::{even_ranges, Executor};
use distenc_linalg::Mat;

/// `model` must have `observed`'s shape. Compared without materializing
/// `model.shape()` (a fresh `Vec`): the solver's per-iteration refresh
/// goes through here and must stay allocation-free.
fn check_model_shape(observed: &CooTensor, model: &KruskalTensor) -> Result<()> {
    let shape_ok = model.factors().len() == observed.order()
        && model.factors().iter().zip(observed.shape()).all(|(f, &d)| f.rows() == d);
    if !shape_ok {
        return Err(TensorError::ShapeMismatch(format!(
            "observed shape {:?} vs model shape {:?}",
            observed.shape(),
            model.shape()
        )));
    }
    Ok(())
}

/// Compute the residual tensor `E = Ω ∗ (T − [[A…]])` (Eq. 14). `E` shares
/// `T`'s support, so it is exactly as sparse as the observations: a clone
/// of that support with [`residual_into`]'s values.
pub fn residual(observed: &CooTensor, model: &KruskalTensor) -> Result<CooTensor> {
    let mut e = observed.clone();
    residual_into(observed, model, &mut e)?;
    Ok(e)
}

/// Update an existing residual in place, avoiding reallocation between
/// iterations — this is the "calculate and cache the residual tensor"
/// step of Algorithm 3. An `e` that does not share `observed`'s support
/// (entry count and shape) is replaced by a clone of it first.
///
/// The loop is one [`KruskalTensor::eval`] per entry on purpose: this is
/// the oracle the fused and refresh kernels are pinned against.
pub fn residual_into(
    observed: &CooTensor,
    model: &KruskalTensor,
    e: &mut CooTensor,
) -> Result<()> {
    check_model_shape(observed, model)?;
    if e.nnz() != observed.nnz() || e.shape() != observed.shape() {
        *e = observed.clone();
    }
    crate::record_entry_sweep(observed.nnz());
    for i in 0..observed.nnz() {
        let idx = observed.index(i);
        // Support is shared by construction, so positions line up.
        debug_assert_eq!(e.index(i), idx);
        *e.value_mut(i) = observed.value(i) - model.eval(idx);
    }
    Ok(())
}

/// Reusable chunk buffers for [`residual_refresh_exec`], sized once for a
/// fixed support and executor so the steady-state refresh allocates
/// nothing.
pub struct ResidualWorkspace {
    jobs: Vec<ResidualChunk>,
}

struct ResidualChunk {
    range: std::ops::Range<usize>,
    buf: Vec<f64>,
}

impl ResidualWorkspace {
    /// Chunk `nnz` entries for `exec`: `parallelism × 4` chunks, sized
    /// from deliverable concurrency rather than the configured thread
    /// count (oversplitting past the host's cores only adds dispatch
    /// overhead; any chunking is bit-exact). When the executor cannot
    /// actually run chunks concurrently the refresh takes its flat
    /// sequential path, so no buffers are reserved at all.
    pub fn new(nnz: usize, exec: &Executor) -> Self {
        if exec.parallelism() <= 1 {
            return ResidualWorkspace { jobs: Vec::new() };
        }
        let jobs = even_ranges(nnz, exec.parallelism() * 4)
            .into_iter()
            .map(|range| {
                let len = range.len();
                ResidualChunk { range, buf: vec![0.0; len] }
            })
            .collect();
        ResidualWorkspace { jobs }
    }
}

/// Allocation-free [`residual_into`] spread over `exec`, for an
/// already-initialized residual: every entry
/// `e[i] = t[i] − [[A…]](idx[i])` is computed independently, so the values
/// are bit-identical to the sequential loop for any chunking. It is the
/// shared entry body with no mode banked
/// ([`crate::fused::refresh_entries`] — the same fold four entries at a
/// time, so the serial add chains overlap): over the whole list straight
/// into `e` at one thread, over each chunk's sub-range into its buffer
/// under threads, the buffers copied back in chunk order.
///
/// Unlike [`residual_into`] this never falls back to allocating a fresh
/// residual: a support mismatch is an error, and so is a workspace chunked
/// for another entry count.
pub fn residual_refresh_exec(
    observed: &CooTensor,
    model: &KruskalTensor,
    e: &mut CooTensor,
    ws: &mut ResidualWorkspace,
    exec: &Executor,
) -> Result<()> {
    check_model_shape(observed, model)?;
    if e.nnz() != observed.nnz() || e.shape() != observed.shape() {
        return Err(TensorError::ShapeMismatch(
            "residual refresh requires a residual sharing the observed support".into(),
        ));
    }
    let threaded = exec.parallelism() > 1;
    let chunked = ws.jobs.last().map_or(0, |job| job.range.end);
    if threaded && chunked != observed.nnz() {
        return Err(TensorError::ShapeMismatch(format!(
            "residual workspace chunks {chunked} entries, the tensor has {}",
            observed.nnz()
        )));
    }
    crate::record_entry_sweep(observed.nnz());
    if !threaded {
        refresh_entries(observed, model, Span { lo: 0, len: observed.nnz() }, e.values_mut());
        return Ok(());
    }
    exec.run_mut(&mut ws.jobs, |_, job| {
        let src = Span { lo: job.range.start, len: job.range.len() };
        refresh_entries(observed, model, src, &mut job.buf);
    });
    let vals = e.values_mut();
    for job in &ws.jobs {
        vals[job.range.clone()].copy_from_slice(&job.buf);
    }
    Ok(())
}

/// The completed-tensor MTTKRP via the residual trick (Eq. 16):
///
/// `H₁ = A⁽ⁿ⁾ · F⁽ⁿ⁾ + E₍ₙ₎U⁽ⁿ⁾` with `F⁽ⁿ⁾ = U⁽ⁿ⁾ᵀU⁽ⁿ⁾` from cached Grams.
///
/// `grams[k]` must be `A⁽ᵏ⁾ᵀA⁽ᵏ⁾` for the *current* factors.
pub fn completed_mttkrp(
    e: &CooTensor,
    model: &KruskalTensor,
    grams: &[Mat],
    mode: usize,
) -> Result<Mat> {
    let f = gram_product(grams, mode)?;
    completed_mttkrp_with_gram(e, model, &f, mode)
}

/// [`completed_mttkrp`] with the Gram product `F⁽ⁿ⁾` supplied by the
/// caller — for solvers that already computed `F⁽ⁿ⁾` for the normal
/// equations and shouldn't recompute it (ALS computes it once per mode
/// and reuses it here; the result is bit-identical because `F⁽ⁿ⁾` is a
/// deterministic function of the Grams).
pub fn completed_mttkrp_with_gram(
    e: &CooTensor,
    model: &KruskalTensor,
    f: &Mat,
    mode: usize,
) -> Result<Mat> {
    let mut h = model.factors()[mode].matmul(f)?;
    let sparse_part = mttkrp(e, model.factors(), mode)?;
    h.axpy(1.0, &sparse_part)?;
    Ok(h)
}

/// The ablation baseline for §III-D: the MTTKRP against the completed
/// tensor computed **naively** — materialize the dense
/// `X = T + Ωᶜ∗[[A…]]`, matricize it, multiply by the explicit Khatri-Rao
/// product. `O(∏ dims)` memory and time; this is the "significant
/// increase in the computation" the residual trick removes. Only callable
/// at toy sizes, which is the point the ablation bench makes.
pub fn completed_mttkrp_naive(
    observed: &CooTensor,
    model: &KruskalTensor,
    mode: usize,
) -> Result<Mat> {
    let mut x = crate::dense::DenseTensor::from_kruskal(model);
    for (idx, v) in observed.iter() {
        x.set(idx, v);
    }
    let u = crate::khatri_rao::khatri_rao_skip(model.factors(), mode)?;
    Ok(x.matricize(mode).matmul(&u)?)
}

/// Training RMSE over the observed entries:
/// `√(‖Ω∗(T − X)‖²_F / nnz(T))` — the metric of §IV-E.
pub fn observed_rmse(observed: &CooTensor, model: &KruskalTensor) -> Result<f64> {
    if observed.nnz() == 0 {
        return Ok(0.0);
    }
    let e = residual(observed, model)?;
    Ok((e.frob_norm_sq() / observed.nnz() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::khatri_rao::khatri_rao_skip;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_coo(shape: &[usize], nnz: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> =
                shape.iter().map(|&d| rng.random_range(0..d)).collect();
            t.push(&idx, rng.random::<f64>()).unwrap();
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn residual_zero_when_model_exact() {
        let k = KruskalTensor::random(&[4, 3, 2], 2, 5);
        let mask = random_coo(&[4, 3, 2], 10, 1);
        let t = k.eval_at(&mask).unwrap();
        let e = residual(&t, &k).unwrap();
        assert!(e.frob_norm_sq().sqrt() < 1e-12);
    }

    #[test]
    fn residual_matches_pointwise() {
        let k = KruskalTensor::random(&[3, 3], 2, 9);
        let t = random_coo(&[3, 3], 5, 2);
        let e = residual(&t, &k).unwrap();
        for i in 0..t.nnz() {
            let want = t.value(i) - k.eval(t.index(i));
            assert!((e.value(i) - want).abs() < 1e-14);
        }
    }

    #[test]
    fn residual_into_reuses_support() {
        // Oracle: the dense model, cell by cell (`from_kruskal` sums the
        // rank-one terms in its own order, so to rounding, not bits).
        let t = random_coo(&[3, 3], 5, 2);
        let k = KruskalTensor::random(&[3, 3], 2, 10);
        let dense = DenseTensor::from_kruskal(&k);
        let check = |e: &CooTensor| {
            assert_eq!(e.nnz(), t.nnz());
            for i in 0..t.nnz() {
                assert_eq!(e.index(i), t.index(i), "support kept in place");
                let want = t.value(i) - dense.get(t.index(i));
                assert!((e.value(i) - want).abs() < 1e-14);
            }
        };
        // A dirty residual on the right support is overwritten in place…
        let mut e = t.clone();
        e.values_mut().fill(f64::NAN);
        residual_into(&t, &k, &mut e).unwrap();
        check(&e);
        // …one on another support is replaced, and `residual` starts from
        // none at all.
        let mut other = random_coo(&[3, 3], 2, 7);
        residual_into(&t, &k, &mut other).unwrap();
        check(&other);
        check(&residual(&t, &k).unwrap());
        // A model of another shape is an error either way.
        let wrong = KruskalTensor::random(&[3, 4], 2, 10);
        assert!(residual_into(&t, &wrong, &mut e).is_err());
    }

    #[test]
    fn residual_refresh_exec_is_bitwise_identical() {
        use distenc_dataflow::{ExecMode, Executor};
        let bits = |t: &CooTensor| t.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Orders 1 and 9 take the entry body's per-entry fallback.
        for shape in [vec![6, 5, 4], vec![60], vec![2; 9]] {
            let t = random_coo(&shape, 40, 2);
            assert!(t.nnz() > 20);
            for &rank in &[1usize, 3, 8, 16, 20] {
                for mode in [ExecMode::Sequential, ExecMode::Threads(4)] {
                    let exec = Executor::new(mode);
                    // The executor's own chunking, and chunks of 0, 1, 3,
                    // 4, 5 and 7 entries with one for the rest: an empty
                    // sweep, and a short tail block alone, after one full
                    // block, and padded from every remainder.
                    let mut by_hand = ResidualWorkspace { jobs: Vec::new() };
                    let mut lo = 0;
                    for len in [0usize, 1, 3, 4, 5, 7, t.nnz() - 20] {
                        let (range, buf) = (lo..lo + len, vec![0.0; len]);
                        by_hand.jobs.push(ResidualChunk { range, buf });
                        lo += len;
                    }
                    for mut ws in [ResidualWorkspace::new(t.nnz(), &exec), by_hand] {
                        let k0 = KruskalTensor::random(&shape, rank, 9);
                        let mut e = residual(&t, &k0).unwrap();
                        // Refresh against two successive models through one workspace.
                        for seed in [10, 11] {
                            let k = KruskalTensor::random(&shape, rank, seed);
                            residual_refresh_exec(&t, &k, &mut e, &mut ws, &exec).unwrap();
                            let want = residual(&t, &k).unwrap();
                            assert_eq!(bits(&e), bits(&want), "{shape:?} rank {rank}");
                        }
                        // Support mismatch must error, never silently reallocate.
                        let mut wrong = CooTensor::new(shape.clone());
                        let refused = residual_refresh_exec(&t, &k0, &mut wrong, &mut ws, &exec);
                        assert!(refused.is_err());
                    }
                    // Chunks for another entry count are an error where
                    // they would be read, and the residual is not touched.
                    if exec.parallelism() > 1 {
                        let k = KruskalTensor::random(&shape, rank, 12);
                        let mut e = t.clone();
                        let mut ws = ResidualWorkspace::new(t.nnz() - 1, &exec);
                        assert!(residual_refresh_exec(&t, &k, &mut e, &mut ws, &exec).is_err());
                        assert_eq!(e, t);
                    }
                }
            }
        }
    }

    #[test]
    fn completed_mttkrp_with_gram_matches_completed_mttkrp() {
        let shape = [5, 4, 6];
        let model = KruskalTensor::random(&shape, 3, 11);
        let t = random_coo(&shape, 30, 3);
        let e = residual(&t, &model).unwrap();
        let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();
        for mode in 0..3 {
            let f = gram_product(&grams, mode).unwrap();
            let got = completed_mttkrp_with_gram(&e, &model, &f, mode).unwrap();
            let want = completed_mttkrp(&e, &model, &grams, mode).unwrap();
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn eq_16_identity_holds() {
        // H₁ computed via the residual trick must equal the naive
        // X₍ₙ₎U⁽ⁿ⁾ against the *completed dense* tensor
        // X = T + Ωᶜ∗[[A…]].
        let shape = [4, 3, 3];
        let model = KruskalTensor::random(&shape, 2, 11);
        let t = random_coo(&shape, 12, 3);
        let e = residual(&t, &model).unwrap();
        let grams: Vec<Mat> = model.factors().iter().map(Mat::gram).collect();

        // Build the dense completed tensor.
        let mut x = DenseTensor::from_kruskal(&model);
        for (idx, v) in t.iter() {
            x.set(idx, v); // observed cells keep their observed values
        }

        for mode in 0..3 {
            let fast = completed_mttkrp(&e, &model, &grams, mode).unwrap();
            let u = khatri_rao_skip(model.factors(), mode).unwrap();
            let naive = x.matricize(mode).matmul(&u).unwrap();
            for (a, b) in fast.as_slice().iter().zip(naive.as_slice()) {
                assert!((a - b).abs() < 1e-9, "mode {mode}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn observed_rmse_zero_for_exact_model() {
        let k = KruskalTensor::random(&[4, 4], 3, 6);
        let mask = random_coo(&[4, 4], 6, 8);
        let t = k.eval_at(&mask).unwrap();
        assert!(observed_rmse(&t, &k).unwrap() < 1e-12);
    }

    #[test]
    fn observed_rmse_empty_tensor_is_zero() {
        let k = KruskalTensor::random(&[4, 4], 3, 6);
        let t = CooTensor::new(vec![4, 4]);
        assert_eq!(observed_rmse(&t, &k).unwrap(), 0.0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let k = KruskalTensor::random(&[4, 4], 3, 6);
        let t = CooTensor::new(vec![4, 5]);
        assert!(residual(&t, &k).is_err());
    }
}
