//! Dense symmetric eigensolvers: the production path and its oracle.
//!
//! * [`symmetric_eigen`] — Householder tridiagonalization followed by
//!   implicit-shift QL (`crate::tridiag`), `O(n³)` once. This is what
//!   `Laplacian::truncate` runs on connected components too small to be
//!   worth a Krylov method.
//! * [`jacobi_eigen`] — cyclic Jacobi, `O(n³)` *per sweep*: slow, but
//!   unconditionally robust and accurate, which is what a reference
//!   implementation wants. It is the oracle the other solvers are tested
//!   against, directly and through `Laplacian::truncate_dense`; no
//!   production path calls it.

use crate::tridiag::{householder_tridiag, smallest_pairs, tqli};
use crate::{LinalgError, Mat, Result};

/// An eigendecomposition `A = V diag(λ) Vᵀ` with orthonormal columns in `V`.
#[derive(Debug, Clone)]
pub struct EigenPairs {
    /// Eigenvalues, sorted ascending.
    pub values: Vec<f64>,
    /// Eigenvectors as *columns* of an `n × k` matrix, ordered to match
    /// `values`.
    pub vectors: Mat,
}

impl EigenPairs {
    /// Keep only the `k` smallest eigenpairs (the truncation DisTenC applies
    /// to graph Laplacians; small eigenvalues of `L` carry the smooth graph
    /// structure).
    pub fn truncate_smallest(mut self, k: usize) -> EigenPairs {
        let n = self.vectors.rows();
        let k = k.min(self.values.len());
        self.values.truncate(k);
        let mut v = Mat::zeros(n, k);
        for i in 0..n {
            for j in 0..k {
                v.set(i, j, self.vectors.get(i, j));
            }
        }
        self.vectors = v;
        self
    }
}

/// Eigendecomposition of a dense symmetric matrix: Householder reduction
/// to tridiagonal form, then implicit-shift QL with the reflectors
/// accumulated. Returns eigenvalues ascending with matching eigenvector
/// columns.
///
/// `a` must be square; only its lower triangle is read. Non-finite input
/// surfaces as [`LinalgError::NoConvergence`] (QL's iteration cap), never
/// as a hang.
pub fn symmetric_eigen(a: &Mat) -> Result<EigenPairs> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "symmetric_eigen",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    householder_tridiag(&mut z, &mut d, &mut e)?;
    tqli(&mut d, &mut e, &mut z)?;
    let (values, vectors) = smallest_pairs(&d, &z, n);
    Ok(EigenPairs { values, vectors })
}

/// Eigendecomposition of a dense symmetric matrix via cyclic Jacobi
/// rotations — the reference solver (see the module docs). Returns
/// eigenvalues ascending with matching eigenvector columns.
///
/// `a` must be square and (numerically) symmetric; only symmetry up to
/// rounding is assumed since the matrix is averaged on input.
pub fn jacobi_eigen(a: &Mat) -> Result<EigenPairs> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "jacobi_eigen",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    // Work on a symmetrized copy to be safe against tiny asymmetries.
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m.set(i, j, 0.5 * (a.get(i, j) + a.get(j, i)));
        }
    }
    let mut v = Mat::identity(n);

    let max_sweeps = 64;
    for sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m.get(i, j) * m.get(i, j);
            }
        }
        if off.sqrt() < 1e-13 * (1.0 + m.frob_norm()) {
            // Sort ascending, permuting eigenvector columns alongside.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&x, &y| m.get(x, x).total_cmp(&m.get(y, y)));
            let values = order.iter().map(|&i| m.get(i, i)).collect();
            let mut vectors = Mat::zeros(n, n);
            for (dst, &src) in order.iter().enumerate() {
                for i in 0..n {
                    vectors.set(i, dst, v.get(i, src));
                }
            }
            return Ok(EigenPairs { values, vectors });
        }
        let _ = sweep;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p,q,θ) on both sides: M ← GᵀMG.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate eigenvectors: V ← VG.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    Err(LinalgError::NoConvergence { method: "jacobi_eigen", iters: max_sweeps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = jacobi_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = jacobi_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthonormality() {
        let a = {
            let mut g = Mat::random(8, 6, 4).gram();
            g.add_diag(0.1);
            g
        };
        let e = jacobi_eigen(&a).unwrap();
        // Vᵀ V = I.
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        let eye = Mat::identity(6);
        for (u, v) in vtv.as_slice().iter().zip(eye.as_slice()) {
            assert!((u - v).abs() < 1e-9);
        }
        // V diag(λ) Vᵀ = A.
        let mut vl = e.vectors.clone();
        for i in 0..vl.rows() {
            for j in 0..vl.cols() {
                let scaled = vl.get(i, j) * e.values[j];
                vl.set(i, j, scaled);
            }
        }
        let rec = vl.matmul(&e.vectors.transpose()).unwrap();
        for (u, v) in rec.as_slice().iter().zip(a.as_slice()) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = Mat::random(7, 5, 13).gram();
        let e = jacobi_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn truncate_smallest_keeps_prefix() {
        let a = Mat::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let e = jacobi_eigen(&a).unwrap().truncate_smallest(2);
        assert_eq!(e.values.len(), 2);
        assert_eq!(e.vectors.shape(), (3, 2));
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        assert!(jacobi_eigen(&Mat::zeros(2, 3)).is_err());
        assert!(symmetric_eigen(&Mat::zeros(2, 3)).is_err());
    }

    /// Unweighted graph Laplacian from an edge list.
    fn graph_laplacian(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Mat {
        let mut l = Mat::zeros(n, n);
        for (i, j) in edges {
            for (a, b) in [(i, j), (j, i)] {
                l.set(a, a, l.get(a, a) + 1.0);
                l.set(a, b, l.get(a, b) - 1.0);
            }
        }
        l
    }

    /// `symmetric_eigen(a)` against the Jacobi oracle: eigenvalues to
    /// 1e-10 (relative to the spectral scale), `‖Av − λv‖` and
    /// `‖VᵀV − I‖` to 1e-9. Eigenvectors are not compared directly —
    /// they are only unique up to sign and, in a repeated eigenvalue's
    /// eigenspace, up to rotation.
    fn assert_matches_oracle(a: &Mat, what: &str) {
        let n = a.rows();
        let got = symmetric_eigen(a).unwrap();
        let want = jacobi_eigen(a).unwrap();
        assert_eq!(got.values.len(), n, "{what}");
        assert_eq!(got.vectors.shape(), (n, n), "{what}");
        let scale = want.values.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (g, w) in got.values.iter().zip(&want.values) {
            assert!((g - w).abs() <= 1e-10 * scale, "{what}: eigenvalue {g} vs {w}");
        }
        for j in 0..n {
            let v = got.vectors.col(j);
            let av = a.matvec(&v).unwrap();
            let res: f64 =
                av.iter().zip(&v).map(|(x, y)| (x - got.values[j] * y).powi(2)).sum::<f64>().sqrt();
            assert!(res <= 1e-9 * scale, "{what}: residual {res} for pair {j}");
        }
        let vtv = got.vectors.transpose().matmul(&got.vectors).unwrap();
        let dev = vtv.frob_dist(&Mat::identity(n)).unwrap();
        assert!(dev <= 1e-9, "{what}: ‖VᵀV − I‖ = {dev}");
    }

    #[test]
    fn householder_ql_matches_the_jacobi_oracle() {
        for n in [1usize, 2, 3, 17, 150] {
            let mut gram = Mat::random(n + 4, n, 40 + n as u64).gram();
            gram.add_diag(0.05);
            assert_matches_oracle(&gram, &format!("SPD Gram, n={n}"));
            // Path (already tridiagonal), star (one hub; eigenvalue 1 with
            // multiplicity n−2) and complete graph (eigenvalue n with
            // multiplicity n−1).
            let path = graph_laplacian(n, (1..n).map(|i| (i - 1, i)));
            assert_matches_oracle(&path, &format!("path Laplacian, n={n}"));
            let star = graph_laplacian(n, (1..n).map(|i| (0, i)));
            assert_matches_oracle(&star, &format!("star Laplacian, n={n}"));
            let complete =
                graph_laplacian(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))));
            assert_matches_oracle(&complete, &format!("complete-graph Laplacian, n={n}"));
            // Diagonal input: every reflection is skipped.
            let mut diag = Mat::zeros(n, n);
            for i in 0..n {
                diag.set(i, i, ((i * 7) % 5) as f64 - 1.5);
            }
            assert_matches_oracle(&diag, &format!("diagonal, n={n}"));
        }
    }

    #[test]
    fn non_finite_input_is_no_convergence_not_a_hang() {
        let mut a = Mat::random(6, 6, 1).gram();
        a.set(3, 2, f64::NAN);
        a.set(2, 3, f64::NAN);
        assert_eq!(
            symmetric_eigen(&a).unwrap_err(),
            LinalgError::NoConvergence { method: "tqli", iters: 50 }
        );
        a.set(3, 2, f64::INFINITY);
        a.set(2, 3, f64::INFINITY);
        assert!(matches!(symmetric_eigen(&a), Err(LinalgError::NoConvergence { .. })));
    }
}
