//! Graph Laplacians and their truncated eigendecompositions (§III-B).
//!
//! [`Laplacian`] is the problem data (a similarity graph, immutable);
//! [`TruncatedLaplacian`] is what the solvers actually iterate with — the
//! `K` smallest eigenpairs plus a complement rate. The paper's point is
//! that the second is computed from the first **once**:
//! [`Laplacian::truncate`] is the only production eigensolve, per
//! connected component — Householder + QL
//! ([`distenc_linalg::symmetric_eigen`]) on small components, matrix-free
//! Lanczos on large ones. [`Laplacian::truncate_dense`] (cyclic Jacobi on
//! the densified operator) is the exact oracle the tests compare against.

use crate::sparse::SparseSym;
use distenc_linalg::eigen::{jacobi_eigen, EigenPairs};
use distenc_linalg::{
    isa, lanczos_smallest, symmetric_eigen, LinOp, LinalgError, Mat, Result as LinResult,
};

/// The (unnormalized) graph Laplacian `L = D − S` of a similarity matrix,
/// kept matrix-free: only `S` and the degree vector `d` are stored.
#[derive(Debug, Clone)]
pub struct Laplacian {
    similarity: SparseSym,
    degrees: Vec<f64>,
}

impl Laplacian {
    /// Build `L = D − S` from a symmetric similarity matrix.
    pub fn from_similarity(similarity: SparseSym) -> Self {
        let degrees = similarity.row_sums();
        Laplacian { similarity, degrees }
    }

    /// Dimension `I` of the mode this Laplacian regularizes.
    pub fn dim(&self) -> usize {
        self.similarity.dim()
    }

    /// Densify (test/TFAI oracle only — `O(I²)` memory, which is exactly
    /// what makes the single-machine baseline die first in Fig. 3a).
    pub fn to_dense(&self) -> Mat {
        let n = self.dim();
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, self.degrees[i]);
            let (cols, vals) = self.similarity.row(i);
            for (&j, &s) in cols.iter().zip(vals) {
                let cur = m.get(i, j);
                m.set(i, j, cur - s);
            }
        }
        m
    }

    /// Truncated eigendecomposition keeping the `k` *smallest* eigenpairs
    /// (the smooth graph structure the trace regularizer preserves; see
    /// [`TruncatedLaplacian`]).
    ///
    /// Component-aware: the Laplacian of a disconnected graph is block
    /// diagonal, so each connected component is eigensolved independently
    /// — densely (Householder + QL) when the component is small,
    /// matrix-free Lanczos when it is large — and the globally smallest
    /// `k` pairs are kept. This handles the zero eigenvalue's multiplicity
    /// (one per component) that a single Krylov sequence cannot resolve,
    /// which matters because community-style similarity graphs are exactly
    /// unions of blocks.
    ///
    /// `k = 0` keeps nothing and runs no eigensolver: every direction is
    /// modelled at the spectrum's mean `λ̄ = tr(L)/I`. Non-finite weights
    /// or degrees are rejected up front as
    /// [`LinalgError::InvalidArgument`].
    pub fn truncate(&self, k: usize, seed: u64) -> LinResult<TruncatedLaplacian> {
        const DENSE_COMPONENT: usize = 200;
        self.check_finite()?;
        let n = self.dim();
        let k = k.min(n);
        if k == 0 {
            return Ok(TruncatedLaplacian::new(Vec::new(), Mat::zeros(n, 0), self.trace()));
        }
        let comps = self.similarity.components();
        // Each node's position within its own (sorted) component.
        let mut local = vec![0; n];
        for comp in &comps {
            for (pos, &node) in comp.iter().enumerate() {
                local[node] = pos;
            }
        }
        // Collect candidate eigenpairs: up to k smallest per component.
        let mut pairs: Vec<(f64, Vec<(usize, f64)>)> = Vec::new();
        for comp in &comps {
            if comp.len() == 1 {
                // Isolated node: eigenvalue 0, indicator vector.
                pairs.push((0.0, vec![(comp[0], 1.0)]));
                continue;
            }
            let k_local = k.min(comp.len());
            let (values, vectors) = if comp.len() <= DENSE_COMPONENT {
                let full = symmetric_eigen(&self.component_laplacian(comp, &local))?;
                (full.values, full.vectors)
            } else {
                let op = ComponentOp { lap: self, nodes: comp, local: &local };
                lanczos_smallest(&op, k_local, seed)?
            };
            for (j, &lam) in values.iter().take(k_local).enumerate() {
                let entries = comp
                    .iter()
                    .enumerate()
                    .map(|(pos, &node)| (node, vectors.get(pos, j)))
                    .collect();
                pairs.push((lam, entries));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        pairs.truncate(k);
        let mut values = Vec::with_capacity(pairs.len());
        let mut vectors = Mat::zeros(n, pairs.len());
        for (col, (lam, entries)) in pairs.into_iter().enumerate() {
            values.push(lam);
            for (node, v) in entries {
                vectors.set(node, col, v);
            }
        }
        Ok(TruncatedLaplacian::new(values, vectors, self.trace()))
    }

    /// A `NaN` or infinite similarity weight makes every eigensolver's
    /// behaviour an accident of its iteration cap; refuse it with a typed
    /// error before any of them runs. (Degrees are checked separately
    /// because the normalized form does not derive them from the stored
    /// weights.)
    fn check_finite(&self) -> LinResult<()> {
        let finite = self.degrees.iter().all(|d| d.is_finite())
            && (0..self.dim()).all(|i| self.similarity.row(i).1.iter().all(|w| w.is_finite()));
        if finite {
            Ok(())
        } else {
            Err(LinalgError::InvalidArgument(
                "similarity weights and degrees must be finite".into(),
            ))
        }
    }

    /// The ablation baseline for §III-B: solve `(ηI + αL) B = R` with a
    /// fresh dense Cholesky factorization — the `O(I³)` path the paper's
    /// eigendecomposition trick avoids. Because `η` changes every
    /// iteration, a real solver would pay this *per iteration*; the
    /// ablation bench measures exactly that gap.
    pub fn shifted_solve_dense(
        &self,
        eta: f64,
        alpha: f64,
        rhs: &Mat,
    ) -> LinResult<Mat> {
        let mut shifted = self.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        distenc_linalg::Cholesky::factor(&shifted)?.solve_mat(rhs)
    }

    /// Dense Laplacian of one connected component (rows/cols restricted
    /// to `nodes`; `local[node]` is each member's position in `nodes`).
    fn component_laplacian(&self, nodes: &[usize], local: &[usize]) -> Mat {
        let mut m = Mat::zeros(nodes.len(), nodes.len());
        for (pos, &node) in nodes.iter().enumerate() {
            m.set(pos, pos, self.degrees[node]);
            let (cols, vals) = self.similarity.row(node);
            for (&j, &s) in cols.iter().zip(vals) {
                let lj = local[j]; // neighbours stay within the component
                let cur = m.get(pos, lj);
                m.set(pos, lj, cur - s);
            }
        }
        m
    }

    /// Exact dense oracle: full Jacobi eigendecomposition of the densified
    /// operator, keep the `k` smallest eigenpairs. `O(I²)` memory and many
    /// `O(I³)` sweeps — what tests compare against, not what solves run.
    pub fn truncate_dense(&self, k: usize) -> LinResult<TruncatedLaplacian> {
        let EigenPairs { values, vectors } = jacobi_eigen(&self.to_dense())?.truncate_smallest(k);
        Ok(TruncatedLaplacian::new(values, vectors, self.trace()))
    }

    /// `tr(L) = Σᵢ dᵢ` (diagonal of `D − S` ignoring self-loops in `S`)
    /// — exactly the sum of all eigenvalues, used to place the truncated
    /// complement.
    pub(crate) fn trace(&self) -> f64 {
        let mut t: f64 = self.degrees.iter().sum();
        // Self-loop similarity contributes to the degree but sits on the
        // diagonal of S, so it cancels in L's trace.
        for i in 0..self.dim() {
            t -= self.similarity.get(i, i);
        }
        t
    }
}

/// Matrix-free view of one component's Laplacian block; `local[node]`
/// is each member's position in `nodes`.
struct ComponentOp<'a> {
    lap: &'a Laplacian,
    nodes: &'a [usize],
    local: &'a [usize],
}

impl LinOp for ComponentOp<'_> {
    fn dim(&self) -> usize {
        self.nodes.len()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        for (pos, &node) in self.nodes.iter().enumerate() {
            let mut acc = self.lap.degrees[node] * x[pos];
            let (cols, vals) = self.lap.similarity.row(node);
            for (&j, &s) in cols.iter().zip(vals) {
                acc -= s * x[self.local[j]];
            }
            out[pos] = acc;
        }
    }
}

impl LinOp for Laplacian {
    fn dim(&self) -> usize {
        self.similarity.dim()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        // (D − S) x.
        self.similarity.matvec(x, out);
        for ((o, &d), &xi) in out.iter_mut().zip(&self.degrees).zip(x) {
            *o = d * xi - *o;
        }
    }
}

/// A truncated eigendecomposition `L ≈ V Λ Vᵀ` (eigenvalues descending)
/// with the shifted-inverse application of Eq. 6/7.
///
/// The update rule for auxiliary variables (Algorithm 1 line 4) is
/// `B ← (ηI + αL)⁻¹ R` with `R = ηA − Y`. Expanding on the eigenbasis:
///
/// `(ηI + αL)⁻¹ = Σᵢ vᵢvᵢᵀ / (η + αλᵢ)`
///
/// Keeping the `K` **smallest** eigenvalues — the smooth graph directions
/// the regularizer is supposed to *preserve* — and modelling every
/// remaining (rougher) direction at the complement's mean eigenvalue
/// `λ̄ = (tr(L) − Σ_kept λ) / (I − K)` (exact, because `tr(L) = Σ dᵢ` is
/// known without any eigensolve) gives
///
/// `B ≈ V diag(1/(η+αλ)) (VᵀR) + (R − V(VᵀR)) / (η + αλ̄)`.
///
/// This reduces to the exact inverse at `K = I` and to `R/η` for a zero
/// Laplacian, and — unlike keeping the large end — it damps *all* rough
/// directions, which is what makes small `K` (≈ the number of smooth
/// structures, e.g. communities) sufficient in practice. Eq. 7's
/// FLOP-ordering is preserved: the `K×R` product `VᵀR` is formed first,
/// diagonally rescaled, then expanded by `V` — `O(IR + IKR)` instead of
/// an `O(I³)` solve per iteration. (The paper prints only the `VΛ⁻¹VᵀR`
/// term; without a complement term a truncated basis would annihilate
/// every component of `R` outside `span(V)`, so we keep it. The two
/// coincide exactly when the decomposition is not truncated.)
#[derive(Debug, Clone)]
pub struct TruncatedLaplacian {
    /// Kept eigenvalues, ascending (the small end of the spectrum).
    pub values: Vec<f64>,
    /// Matching eigenvectors as columns (`I × K`).
    pub vectors: Mat,
    /// Mean eigenvalue `λ̄` of the truncated complement.
    pub complement_lambda: f64,
}

impl TruncatedLaplacian {
    /// Assemble from kept eigenpairs plus the operator's exact trace.
    pub(crate) fn new(values: Vec<f64>, vectors: Mat, trace: f64) -> Self {
        let n = vectors.rows();
        let k = values.len();
        let kept: f64 = values.iter().sum();
        let complement_lambda = if n > k {
            ((trace - kept) / (n - k) as f64).max(0.0)
        } else {
            0.0
        };
        TruncatedLaplacian { values, vectors, complement_lambda }
    }

    /// A zero Laplacian (identity similarity ⇒ `L = 0`), for modes without
    /// auxiliary information: `apply_shifted_inverse` becomes `R/η`.
    pub fn zero(n: usize) -> Self {
        TruncatedLaplacian {
            values: Vec::new(),
            vectors: Mat::zeros(n, 0),
            complement_lambda: 0.0,
        }
    }

    /// Number of kept eigenpairs `K`.
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// Mode dimension `I`.
    pub fn dim(&self) -> usize {
        self.vectors.rows()
    }

    /// Apply `(ηI + αL)⁻¹` to `rhs` using the truncated basis (Eq. 7 with
    /// the complement term; see the type-level docs):
    /// [`TruncatedLaplacian::apply_shifted_inverse_into`] with the output
    /// and the scratch built on the spot.
    pub fn apply_shifted_inverse(&self, eta: f64, alpha: f64, rhs: &Mat) -> LinResult<Mat> {
        let mut out = Mat::zeros(rhs.rows(), rhs.cols());
        let mut scratch = ShiftedInverseScratch::new(self, rhs.cols());
        self.apply_shifted_inverse_into(eta, alpha, rhs, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// `out = (ηI + αL)⁻¹ rhs` with every intermediate supplied by a
    /// [`ShiftedInverseScratch`] sized once, so a steady-state call
    /// allocates nothing. The correction `V·(scaled VᵀR)` is expanded into
    /// its own buffer and then added to `base·R`: that association is what
    /// the golden traces pin.
    pub fn apply_shifted_inverse_into(
        &self,
        eta: f64,
        alpha: f64,
        rhs: &Mat,
        out: &mut Mat,
        scratch: &mut ShiftedInverseScratch,
    ) -> LinResult<()> {
        assert!(eta > 0.0, "penalty η must be positive");
        if alpha == 0.0 {
            return rhs.scaled_into(1.0 / eta, out);
        }
        // Baseline: every direction damped at the complement rate.
        let base = 1.0 / (eta + alpha * self.complement_lambda);
        if self.k() == 0 {
            return rhs.scaled_into(base, out);
        }
        // Step 1 (small): P = Vᵀ R, shape K×R.
        let p = &mut scratch.p;
        matvec_mat_t_into(&self.vectors, rhs, p)?;
        // Step 2 (diagonal): scale row i of P by 1/(η+αλᵢ) − base, so the
        // expansion below is the *correction* to the baseline.
        for (i, &lam) in self.values.iter().enumerate() {
            let coeff = 1.0 / (eta + alpha * lam) - base;
            for v in p.row_mut(i) {
                *v *= coeff;
            }
        }
        // Step 3: B = base·R + V · scaled.
        rhs.scaled_into(base, out)?;
        self.vectors.matmul_into(p, &mut scratch.corr)?;
        out.axpy(1.0, &scratch.corr)?;
        Ok(())
    }
}

/// Preallocated intermediates for
/// [`TruncatedLaplacian::apply_shifted_inverse_into`]: the `K×R`
/// projection `VᵀR` and the `I×R` correction expansion.
#[derive(Debug, Clone)]
pub struct ShiftedInverseScratch {
    p: Mat,
    corr: Mat,
}

impl ShiftedInverseScratch {
    /// Size the scratch for applying `trunc` to right-hand sides with `r`
    /// columns.
    pub fn new(trunc: &TruncatedLaplacian, r: usize) -> Self {
        ShiftedInverseScratch {
            p: Mat::zeros(trunc.k(), r),
            corr: Mat::zeros(trunc.dim(), r),
        }
    }
}

/// `out = Vᵀ R` without materializing `Vᵀ` (`v`: I×K, `rhs`: I×R, `out`:
/// K×R), accumulated row-major friendly — on the widest lanes the CPU has
/// when the `R`-wide rows fill them.
fn matvec_mat_t_into(v: &Mat, rhs: &Mat, out: &mut Mat) -> LinResult<()> {
    let (k_dim, r_dim) = (v.cols(), rhs.cols());
    if out.shape() != (k_dim, r_dim) {
        return Err(distenc_linalg::LinalgError::ShapeMismatch {
            op: "matvec_mat_t_into",
            lhs: (k_dim, r_dim),
            rhs: out.shape(),
        });
    }
    isa::widest_rows(
        r_dim,
        #[inline(always)]
        || matvec_mat_t_body(v, rhs, out),
    );
    Ok(())
}

/// [`matvec_mat_t_into`]'s one body, shapes checked.
#[inline(always)]
fn matvec_mat_t_body(v: &Mat, rhs: &Mat, out: &mut Mat) {
    out.fill(0.0);
    for i in 0..v.rows() {
        let r_row = rhs.row(i);
        for (kk, &w) in v.row(i).iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (o, &rr) in out.row_mut(kk).iter_mut().zip(r_row) {
                *o += w * rr;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::tridiagonal_chain;
    use distenc_linalg::Cholesky;

    fn chain_laplacian(n: usize) -> Laplacian {
        Laplacian::from_similarity(tridiagonal_chain(n))
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let l = chain_laplacian(6).to_dense();
        for i in 0..6 {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn full_truncation_matches_exact_inverse() {
        // With K = I the shifted-inverse application must equal a direct
        // solve of (ηI + αL) B = R.
        let lap = chain_laplacian(12);
        let trunc = lap.truncate_dense(12).unwrap();
        let rhs = Mat::random(12, 3, 7);
        let (eta, alpha) = (0.7, 1.3);
        let fast = trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let mut shifted = lap.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        let exact = Cholesky::factor(&shifted).unwrap().solve_mat(&rhs).unwrap();
        for (a, b) in fast.as_slice().iter().zip(exact.as_slice()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn truncated_application_approaches_exact_as_k_grows() {
        let lap = chain_laplacian(20);
        let rhs = Mat::random(20, 2, 9);
        let (eta, alpha) = (1.0, 2.0);
        let mut shifted = lap.to_dense().scaled(alpha);
        shifted.add_diag(eta);
        let exact = Cholesky::factor(&shifted).unwrap().solve_mat(&rhs).unwrap();
        let mut last_err = f64::INFINITY;
        for k in [2, 5, 10, 20] {
            let trunc = lap.truncate_dense(k).unwrap();
            let approx = trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
            let err = approx.frob_dist(&exact).unwrap();
            assert!(
                err <= last_err + 1e-9,
                "error must shrink with k: k={k}, {err} > {last_err}"
            );
            last_err = err;
        }
        assert!(last_err < 1e-8);
    }

    /// Eq. 7 with the complement term, element by element: `base·R` plus
    /// the correction `Σₖ V(i,k)·cₖ·(VᵀR)(k,r)`, each sum folded in
    /// ascending index order from zero (zero eigenvector entries skipped,
    /// as the kernels skip them) — the kernel's association through no
    /// shared loop, so the comparison is exact.
    fn naive_shifted_inverse(t: &TruncatedLaplacian, eta: f64, alpha: f64, rhs: &Mat) -> Mat {
        let (n, r, k) = (rhs.rows(), rhs.cols(), t.k());
        if alpha == 0.0 {
            return Mat::from_vec(n, r, rhs.as_slice().iter().map(|v| v * (1.0 / eta)).collect());
        }
        let base = 1.0 / (eta + alpha * t.complement_lambda);
        let mut p = vec![vec![0.0; r]; k];
        for (kk, row) in p.iter_mut().enumerate() {
            for (rr, slot) in row.iter_mut().enumerate() {
                for i in 0..n {
                    if t.vectors.get(i, kk) != 0.0 {
                        *slot += t.vectors.get(i, kk) * rhs.get(i, rr);
                    }
                }
                *slot *= 1.0 / (eta + alpha * t.values[kk]) - base;
            }
        }
        let mut out = Mat::zeros(n, r);
        for i in 0..n {
            for rr in 0..r {
                let mut corr = 0.0;
                for (kk, row) in p.iter().enumerate() {
                    if t.vectors.get(i, kk) != 0.0 {
                        corr += t.vectors.get(i, kk) * row[rr];
                    }
                }
                let scaled = rhs.get(i, rr) * base;
                out.set(i, rr, if k == 0 { scaled } else { scaled + corr });
            }
        }
        out
    }

    #[test]
    fn shifted_inverse_into_is_bit_identical() {
        let lap = chain_laplacian(15);
        let rhs = Mat::random(15, 3, 11);
        for (k, eta, alpha) in [(0, 0.9, 0.0), (0, 0.9, 1.4), (6, 0.7, 1.3), (15, 1.1, 2.0)] {
            let trunc = if k == 0 { TruncatedLaplacian::zero(15) } else { lap.truncate_dense(k).unwrap() };
            let want = naive_shifted_inverse(&trunc, eta, alpha, &rhs);
            let mut scratch = ShiftedInverseScratch::new(&trunc, 3);
            let mut out = Mat::random(15, 3, 99); // dirty on purpose
            // Apply twice through the same scratch: reuse must not drift.
            for _ in 0..2 {
                trunc.apply_shifted_inverse_into(eta, alpha, &rhs, &mut out, &mut scratch).unwrap();
                assert_eq!(out, want, "k={k} eta={eta} alpha={alpha}");
            }
            assert_eq!(trunc.apply_shifted_inverse(eta, alpha, &rhs).unwrap(), want);
            if k == 15 {
                // Untruncated, it is the dense solve of (ηI + αL) B = R.
                let exact = lap.shifted_solve_dense(eta, alpha, &rhs).unwrap();
                assert!(out.frob_dist(&exact).unwrap() < 1e-8);
            }
        }
    }

    #[test]
    fn wide_projection_is_bitwise_its_baseline_body() {
        // `VᵀR` through `isa::widest` and through the bare body called
        // from this (baseline) function, at widths that are, straddle and
        // miss the lane count; a zero in `V` takes the skip.
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (seed, &r) in [1usize, 3, 8, 16, 17, 20].iter().enumerate() {
            for (rows, k) in [(1, 1), (7, 3), (40, 20)] {
                let mut v = Mat::random(rows, k, seed as u64);
                v.set(rows / 2, k / 2, 0.0);
                let rhs = Mat::random(rows, r, 50 + seed as u64);
                let (mut wide, mut base) = (Mat::random(k, r, 9), Mat::random(k, r, 8));
                matvec_mat_t_into(&v, &rhs, &mut wide).unwrap();
                matvec_mat_t_body(&v, &rhs, &mut base);
                assert_eq!(bits(&wide), bits(&base), "rows {rows} k {k} r {r}");
            }
        }
    }

    #[test]
    fn zero_laplacian_scales_by_inverse_eta() {
        let trunc = TruncatedLaplacian::zero(5);
        let rhs = Mat::random(5, 2, 3);
        let out = trunc.apply_shifted_inverse(2.0, 1.0, &rhs).unwrap();
        for (a, b) in out.as_slice().iter().zip(rhs.as_slice()) {
            assert!((a - b / 2.0).abs() < 1e-14);
        }
    }

    #[test]
    fn lanczos_truncation_close_to_dense_on_small_eigenvalues() {
        // The chain Laplacian's small eigenvalues cluster near zero, the
        // hardest case for an un-restarted Krylov method; what matters
        // downstream is the *shifted-inverse application*, which is
        // smooth in λ. Check both: eigenvalues to coarse accuracy, and
        // the application to tight accuracy.
        let lap = chain_laplacian(40);
        let dense = lap.truncate_dense(3).unwrap();
        let (values, vectors) = lanczos_smallest(&lap, 3, 5).unwrap();
        let lz = TruncatedLaplacian::new(values, vectors, lap.trace());
        for (a, b) in dense.values.iter().zip(&lz.values) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        let rhs = Mat::random(40, 2, 3);
        let (eta, alpha) = (1.0, 1.0);
        let via_dense = dense.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let via_lz = lz.apply_shifted_inverse(eta, alpha, &rhs).unwrap();
        let rel = via_dense.frob_dist(&via_lz).unwrap() / via_dense.frob_norm();
        assert!(rel < 0.05, "application deviates by {rel}");
    }

    #[test]
    fn component_aware_truncate_resolves_multiplicity() {
        // Three disconnected blocks ⇒ the zero eigenvalue has multiplicity
        // three; a single Krylov sequence cannot see that, the
        // component-aware path must.
        let sim = crate::builders::community_blocks(60, 3, 1.0, 0);
        let lap = Laplacian::from_similarity(sim);
        let t = lap.truncate(3, 1).unwrap();
        assert_eq!(t.k(), 3);
        for &v in &t.values {
            assert!(v.abs() < 1e-8, "all three kept eigenvalues must be ~0, got {v}");
        }
        // Each kept eigenvector is constant on exactly one block.
        for j in 0..3 {
            let col = t.vectors.col(j);
            let nonzero_blocks: Vec<usize> = (0..3)
                .filter(|&b| (0..20).any(|i| col[b * 20 + i].abs() > 1e-8))
                .collect();
            assert_eq!(nonzero_blocks.len(), 1, "eigenvector {j} spans {nonzero_blocks:?}");
        }
    }

    #[test]
    fn truncate_auto_picks_and_clamps_k() {
        let lap = chain_laplacian(10);
        let t = lap.truncate(50, 1).unwrap();
        assert_eq!(t.k(), 10);
    }

    /// `truncate` against the Jacobi oracle, compared through the one
    /// thing the solvers do with a truncation — `(ηI + αL)⁻¹R` — which
    /// is invariant to eigenvector signs and to the choice of basis
    /// inside a repeated eigenvalue's eigenspace. `k` must sit at a
    /// spectral gap (`λ_k < λ_{k+1}`), or the kept subspace itself would
    /// not be unique.
    fn assert_truncate_matches_oracle(lap: &Laplacian, k: usize, tol: f64, what: &str) {
        let n = lap.dim();
        let full = lap.truncate_dense(n).unwrap();
        assert!(
            k == n || full.values[k] - full.values[k - 1] > 1e-6,
            "{what}: k={k} is not at a spectral gap"
        );
        let got = lap.truncate(k, 3).unwrap();
        let mut kept = Mat::zeros(n, k);
        for i in 0..n {
            kept.row_mut(i).copy_from_slice(&full.vectors.row(i)[..k]);
        }
        let want = TruncatedLaplacian::new(full.values[..k].to_vec(), kept, lap.trace());
        assert_eq!(got.k(), k, "{what}");
        for (g, w) in got.values.iter().zip(&want.values) {
            assert!((g - w).abs() <= tol, "{what}: eigenvalue {g} vs {w}");
        }
        assert!((got.complement_lambda - want.complement_lambda).abs() <= tol, "{what}");
        let rhs = Mat::random(n, 3, 17);
        let a = got.apply_shifted_inverse(0.8, 1.7, &rhs).unwrap();
        let b = want.apply_shifted_inverse(0.8, 1.7, &rhs).unwrap();
        let rel = a.frob_dist(&b).unwrap() / b.frob_norm();
        assert!(rel <= tol, "{what}: application deviates by {rel}");
    }

    #[test]
    fn truncate_matches_the_dense_oracle() {
        // Chains: simple spectrum, every k is at a gap. 150 takes the
        // dense (Householder + QL) branch.
        assert_truncate_matches_oracle(&chain_laplacian(150), 20, 1e-9, "chain 150");
        assert_truncate_matches_oracle(&chain_laplacian(17), 17, 1e-9, "chain 17, full");
        // Disconnected union of a 40-chain, a 25-chain, a 9-chain and two
        // isolated nodes: zero has multiplicity five.
        let mut triplets = Vec::new();
        for (start, len) in [(0, 40), (40, 25), (65, 9)] {
            for i in start..start + len - 1 {
                triplets.push((i, i + 1, 1.0));
            }
        }
        let union = Laplacian::from_similarity(SparseSym::from_triplets(76, &triplets));
        assert_truncate_matches_oracle(&union, 5, 1e-9, "union, the null space");
        assert_truncate_matches_oracle(&union, 12, 1e-9, "union, k=12");
        // Community blocks (dense blocks, noise edges joining them): the
        // gap after the `communities` smallest eigenvalues is the one the
        // regularizer is meant to sit at.
        let sim = crate::builders::with_noise_edges(
            &crate::builders::community_blocks(120, 4, 0.5, 9),
            6,
            0.05,
            2,
        );
        assert_truncate_matches_oracle(&Laplacian::from_similarity(sim), 4, 1e-9, "communities");
        // One 210-node component: the Lanczos branch, to its own
        // (coarser) accuracy.
        let big = crate::builders::community_blocks(210, 1, 0.3, 4);
        assert_truncate_matches_oracle(&Laplacian::from_similarity(big), 1, 1e-6, "lanczos");
    }

    #[test]
    fn k_zero_skips_every_eigensolve_at_any_component_size() {
        // 150 nodes would go to the dense solver, 300 to Lanczos (which
        // rejects k = 0 itself); neither runs.
        for n in [150, 300] {
            let lap = chain_laplacian(n);
            let t = lap.truncate(0, 1).unwrap();
            assert_eq!(t.k(), 0);
            assert_eq!(t.dim(), n);
            assert_eq!(t.complement_lambda, lap.trace() / n as f64);
            // Every direction damped at the mean rate.
            let rhs = Mat::random(n, 2, 5);
            let out = t.apply_shifted_inverse(0.5, 2.0, &rhs).unwrap();
            let want = rhs.scaled(1.0 / (0.5 + 2.0 * t.complement_lambda));
            assert_eq!(out, want);
        }
    }

    #[test]
    fn non_finite_weights_are_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // Small (dense branch) and large (Lanczos branch) components,
            // k = 0 included.
            for n in [12, 260] {
                let mut triplets: Vec<(usize, usize, f64)> =
                    (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
                triplets[n / 2].2 = bad;
                let lap = Laplacian::from_similarity(SparseSym::from_triplets(n, &triplets));
                for k in [0, 3] {
                    assert!(
                        matches!(lap.truncate(k, 1), Err(LinalgError::InvalidArgument(_))),
                        "weight {bad}, n={n}, k={k}"
                    );
                }
            }
        }
    }
}
