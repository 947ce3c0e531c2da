//! Truncated eigendecomposition via Lanczos with full reorthogonalization.
//!
//! DisTenC never needs the full spectrum of a graph Laplacian: §III-B
//! truncates to `K` components, `L ≈ V Λ Vᵀ` with `V ∈ ℝ^{I×K}`. The paper
//! uses the MRRR parallel eigensolver; we substitute Lanczos, which only
//! needs matrix-vector products against the (sparse) operator and has the
//! same `O(K·I)`-per-iteration cost profile the paper's complexity analysis
//! assumes (see DESIGN.md §2).

use crate::tridiag::{smallest_pairs, tqli};
use crate::vec_ops::{axpy, dot, normalize};
use crate::{isa, LinalgError, Mat, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A linear operator exposing only `y = A x` — the interface sparse
/// Laplacians implement.
pub trait LinOp {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `out = A * x`. Both slices have length [`LinOp::dim`].
    fn apply(&self, x: &[f64], out: &mut [f64]);
}

/// Dense symmetric matrices are trivially linear operators (handy in tests).
impl LinOp for Mat {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        for (i, row) in self.rows_iter().enumerate() {
            out[i] = dot(row, x);
        }
    }
}

/// Remove from `w` its components along every vector of `basis`, by two
/// passes of Gram–Schmidt (see [`lanczos_smallest`]) — `O(m·n)` per
/// Lanczos step and most of the solver's time, so it runs on the widest
/// lanes the CPU has: the `dot`s are serial chains either way, the `axpy`s
/// are what the lanes buy.
pub(crate) fn reorthogonalize(basis: &[Vec<f64>], w: &mut [f64]) {
    isa::widest(
        #[inline(always)]
        || reorthogonalize_body(basis, w),
    );
}

/// [`reorthogonalize`]'s one body.
#[inline(always)]
pub(crate) fn reorthogonalize_body(basis: &[Vec<f64>], w: &mut [f64]) {
    for _ in 0..2 {
        for b in basis {
            let proj = dot(b, w);
            axpy(-proj, b, w);
        }
    }
}

/// Compute the `k` smallest eigenpairs of a symmetric operator.
///
/// Runs Lanczos with full reorthogonalization for `m = min(n, max(2k+10,
/// 4k))` steps, solves the resulting tridiagonal problem exactly, and
/// returns the `k` pairs with smallest Ritz values. For graph Laplacians
/// the small end of the spectrum is the smooth structure the trace
/// regularizer wants, and extreme Ritz pairs converge first, so modest `m`
/// suffices.
///
/// Eigenvalues are returned ascending; `vectors` has one eigenvector per
/// column.
pub fn lanczos_smallest<O: LinOp>(op: &O, k: usize, seed: u64) -> Result<(Vec<f64>, Mat)> {
    let n = op.dim();
    if k == 0 {
        return Err(LinalgError::InvalidArgument("k must be ≥ 1".into()));
    }
    if k > n {
        return Err(LinalgError::InvalidArgument(format!(
            "requested {k} eigenpairs of a {n}-dimensional operator"
        )));
    }
    // Generous Krylov budget: graph Laplacians cluster eigenvalues at the
    // small end, where Ritz *vectors* converge slowly; the per-step cost
    // is O(nnz + m·n) and m stays far below n for the large operators
    // this path serves.
    let m = n.min((4 * k + 60).max(8 * k));

    let mut rng = StdRng::seed_from_u64(seed);
    // Lanczos basis vectors, kept dense for full reorthogonalization.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut q: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    normalize(&mut q);

    let mut alpha = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m);
    let mut w = vec![0.0; n];

    for _ in 0..m {
        basis.push(q.clone());
        op.apply(&q, &mut w);
        let a = dot(&q, &w);
        alpha.push(a);
        // w ← w − a·q − β·q_prev, then full reorthogonalization against the
        // whole basis (twice is enough in practice — "twice is enough",
        // Parlett).
        reorthogonalize(&basis, &mut w);
        let b = normalize(&mut w);
        if b <= 1e-12 {
            // Invariant subspace found. Restart with a fresh random vector
            // orthogonal to the basis (needed for operators with eigenvalue
            // multiplicity, e.g. the identity); a zero β decouples the new
            // block in the tridiagonal matrix, which tqli handles natively.
            if basis.len() == n {
                break;
            }
            let mut fresh: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            reorthogonalize(&basis, &mut fresh);
            if normalize(&mut fresh) <= 1e-12 {
                break;
            }
            beta.push(0.0);
            q = fresh;
            continue;
        }
        beta.push(b);
        std::mem::swap(&mut q, &mut w);
    }

    let steps = alpha.len();
    if steps < k {
        return Err(LinalgError::NoConvergence { method: "lanczos", iters: steps });
    }

    // Solve the tridiagonal problem, rotating the Lanczos basis — already
    // one vector per row, the form tqli accumulates into — so the rows of
    // `z` become Ritz vectors in the original space.
    let mut z = Mat::from_vec(steps, n, basis.concat());
    let mut d = alpha;
    let mut e = vec![0.0; steps];
    e[1..].copy_from_slice(&beta[..steps - 1]);
    tqli(&mut d, &mut e, &mut z)?;
    Ok(smallest_pairs(&d, &z, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;

    #[test]
    fn matches_jacobi_on_dense_spd() {
        let mut a = Mat::random(20, 12, 3).gram();
        a.add_diag(0.05);
        let (vals, vecs) = lanczos_smallest(&a, 4, 7).unwrap();
        let oracle = jacobi_eigen(&a).unwrap();
        for (got, want) in vals.iter().zip(&oracle.values) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
        // Residuals ‖A v − λ v‖ are small.
        for j in 0..4 {
            let v = vecs.col(j);
            let av = a.matvec(&v).unwrap();
            let mut res = 0.0;
            for i in 0..a.rows() {
                res += (av[i] - vals[j] * v[i]).powi(2);
            }
            assert!(res.sqrt() < 1e-6, "residual {} for pair {j}", res.sqrt());
        }
    }

    #[test]
    fn path_laplacian_smallest_eigenvalue_is_zero() {
        // Dense path-graph Laplacian, n = 30.
        let n = 30;
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            l.set(i, i, deg);
            if i + 1 < n {
                l.set(i, i + 1, -1.0);
                l.set(i + 1, i, -1.0);
            }
        }
        let (vals, vecs) = lanczos_smallest(&l, 3, 1).unwrap();
        assert!(vals[0].abs() < 1e-8, "λ₀ = {}", vals[0]);
        // The null vector of a connected Laplacian is constant.
        let v0 = vecs.col(0);
        let mean = v0.iter().sum::<f64>() / n as f64;
        for v in &v0 {
            assert!((v - mean).abs() < 1e-6);
        }
    }

    #[test]
    fn ritz_vectors_are_orthonormal() {
        let a = Mat::random(15, 10, 5).gram();
        let (_, vecs) = lanczos_smallest(&a, 5, 2).unwrap();
        let g = vecs.transpose().matmul(&vecs).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g.get(i, j) - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn k_zero_and_k_too_large_rejected() {
        let a = Mat::identity(4);
        assert!(lanczos_smallest(&a, 0, 0).is_err());
        assert!(lanczos_smallest(&a, 5, 0).is_err());
    }

    #[test]
    fn identity_operator_returns_ones() {
        let a = Mat::identity(12);
        let (vals, _) = lanczos_smallest(&a, 3, 11).unwrap();
        for v in vals {
            assert!((v - 1.0).abs() < 1e-10);
        }
    }
}
