//! Cholesky factorization and SPD solves.
//!
//! Every factor-matrix update in Algorithm 1 / Algorithm 3 right-multiplies
//! by `(UᵀU + λI + ηI)⁻¹`, an `R×R` symmetric positive-definite matrix.
//! Rather than forming the inverse we factor once per update and solve.

use crate::{LinalgError, Mat, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix
    /// ([`Cholesky::refactor`] into a fresh buffer).
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility (all call sites build the
    /// matrix from Gram products plus positive diagonal shifts, which are
    /// exactly symmetric).
    pub fn factor(a: &Mat) -> Result<Cholesky> {
        let mut ch = Cholesky { l: Mat::zeros(a.rows(), a.rows()) };
        ch.refactor(a)?;
        Ok(ch)
    }

    /// Factor a new matrix of the same dimension into this
    /// factorization's existing buffer, with no allocation.
    ///
    /// The algorithm only ever writes the lower triangle (each entry
    /// exactly once, reading only entries written earlier in the same
    /// pass) and the upper triangle is zero from construction, so reusing
    /// the buffer cannot leak state between factorizations. On a
    /// `NotPositiveDefinite` error the factor is left partially
    /// overwritten and must not be used for solves.
    pub fn refactor(&mut self, a: &Mat) -> Result<()> {
        let n = self.dim();
        if a.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= self.l.get(i, k) * self.l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, value: sum });
                    }
                    self.l.set(i, j, sum.sqrt());
                } else {
                    self.l.set(i, j, sum / self.l.get(j, j));
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    #[cfg(test)]
    pub(crate) fn l(&self) -> &Mat {
        &self.l
    }

    /// Solve `A x = b` in place.
    pub fn solve_vec_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l.get(i, k) * b[k];
            }
            b[i] = sum / self.l.get(i, i);
        }
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in (i + 1)..n {
                sum -= self.l.get(k, i) * b[k];
            }
            b[i] = sum / self.l.get(i, i);
        }
        Ok(())
    }

    /// Solve `A X = B` column-by-column, returning `X` with `B`'s shape.
    pub fn solve_mat(&self, b: &Mat) -> Result<Mat> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Mat::zeros(b.rows(), b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b.get(i, j);
            }
            self.solve_vec_in_place(&mut col)?;
            for i in 0..n {
                out.set(i, j, col[i]);
            }
        }
        Ok(out)
    }

    /// Solve `X A = B` for `X` (i.e. `X = B A⁻¹`), the orientation used by
    /// the factor update `A⁽ⁿ⁾ ← (…)(UᵀU + λI + ηI)⁻¹`
    /// ([`Cholesky::solve_right_into`] on a fresh buffer).
    pub fn solve_right(&self, b: &Mat) -> Result<Mat> {
        let mut out = Mat::zeros(b.rows(), b.cols());
        self.solve_right_into(b, &mut out)?;
        Ok(out)
    }

    /// Solve `X A = B` into a caller-owned buffer.
    ///
    /// Since `A` is symmetric, `X A = B  ⇔  A Xᵀ = Bᵀ`; each *row* of `B`
    /// is copied and solved in place, so no transpose is materialized.
    pub fn solve_right_into(&self, b: &Mat, out: &mut Mat) -> Result<()> {
        let n = self.dim();
        if b.cols() != n || out.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_right",
                lhs: b.shape(),
                rhs: out.shape(),
            });
        }
        out.copy_from(b)?;
        for i in 0..out.rows() {
            self.solve_vec_in_place(out.row_mut(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Mat {
        // Gram of a random matrix plus a diagonal shift is SPD.
        let mut g = Mat::random(n + 2, n, seed).gram();
        g.add_diag(0.5);
        g
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(5, 3);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        for (x, y) in rec.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn solve_vec_matches_direct_computation() {
        let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let mut b = vec![8.0, 7.0];
        ch.solve_vec_in_place(&mut b).unwrap();
        // A * x should equal the original b.
        let ax = a.matvec(&b).unwrap();
        assert!((ax[0] - 8.0).abs() < 1e-12);
        assert!((ax[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn solve_mat_left_inverse() {
        let a = spd(4, 9);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Mat::random(4, 3, 17);
        let x = ch.solve_mat(&b).unwrap();
        let ax = a.matmul(&x).unwrap();
        for (u, v) in ax.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_right_matches_b_times_inverse() {
        let a = spd(4, 21);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Mat::random(6, 4, 33);
        let x = ch.solve_right(&b).unwrap();
        let xa = x.matmul(&a).unwrap();
        for (u, v) in xa.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd(5, 99);
        let inv = Cholesky::factor(&a).unwrap().solve_mat(&Mat::identity(5)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Mat::identity(5);
        for (u, v) in prod.as_slice().iter().zip(eye.as_slice()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    /// Cholesky–Banachiewicz on nested vectors, then `X A = B` row by row
    /// (forward, then back substitution): the textbook recurrences with
    /// each sum folded in ascending `k`, which is the order the kernels
    /// use — so results compare with `==`, through no shared code.
    fn naive_factor(a: &Mat) -> Vec<Vec<f64>> {
        let n = a.rows();
        let mut l = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l[i][k] * l[j][k];
                }
                l[i][j] = if i == j { sum.sqrt() } else { sum / l[j][j] };
            }
        }
        l
    }

    fn naive_solve_right(l: &[Vec<f64>], b: &Mat) -> Mat {
        let n = l.len();
        let mut x = b.clone();
        for row in 0..b.rows() {
            let v = x.row_mut(row);
            for i in 0..n {
                let mut sum = v[i];
                for k in 0..i {
                    sum -= l[i][k] * v[k];
                }
                v[i] = sum / l[i][i];
            }
            for i in (0..n).rev() {
                let mut sum = v[i];
                for k in (i + 1)..n {
                    sum -= l[k][i] * v[k];
                }
                v[i] = sum / l[i][i];
            }
        }
        x
    }

    fn assert_factor_is(ch: &Cholesky, want: &[Vec<f64>]) {
        for (i, row) in want.iter().enumerate() {
            assert_eq!(ch.l().row(i), row.as_slice(), "row {i}");
        }
    }

    #[test]
    fn refactor_and_solve_right_into_are_bit_identical() {
        let a1 = spd(5, 3);
        let a2 = spd(5, 44);
        let b = Mat::random(9, 5, 8);
        let (l1, l2) = (naive_factor(&a1), naive_factor(&a2));

        // Start from an unrelated factorization and refactor twice: the
        // buffer reuse must leave no trace of the previous matrix (the
        // upper triangle stays zero, as in the oracle).
        let mut ch = Cholesky::factor(&a1).unwrap();
        assert_factor_is(&ch, &l1);
        ch.refactor(&a2).unwrap();
        assert_factor_is(&ch, &l2);
        ch.refactor(&a1).unwrap();
        assert_factor_is(&ch, &l1);

        let want = naive_solve_right(&l1, &b);
        let mut out = Mat::random(9, 5, 100); // dirty on purpose
        ch.solve_right_into(&b, &mut out).unwrap();
        assert_eq!(out, want);
        assert_eq!(ch.solve_right(&b).unwrap(), want);
        assert!(ch.solve_right_into(&b, &mut Mat::zeros(9, 4)).is_err());
        assert!(ch.solve_right(&Mat::zeros(9, 4)).is_err());
    }

    #[test]
    fn refactor_rejects_dimension_change() {
        let mut ch = Cholesky::factor(&spd(4, 1)).unwrap();
        assert!(ch.refactor(&spd(5, 2)).is_err());
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Mat::zeros(3, 2);
        assert!(Cholesky::factor(&a).is_err());
    }
}
