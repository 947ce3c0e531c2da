//! Row-major dense matrices.
//!
//! [`Mat`] is the workhorse type for factor matrices (`I×R`), Gram matrices
//! (`R×R`), eigenvector bases (`I×K`), and Lagrange multipliers. It favors
//! clarity over micro-optimization, but the inner loops are written so LLVM
//! can vectorize them (slice iteration, no bounds checks in hot paths).

use crate::{isa, LinalgError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Mat { rows, cols, data }
    }

    /// Build a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Uniform random entries in `[0, 1)`, seeded for reproducibility.
    ///
    /// Factor matrices in Algorithm 1/3 are initialized non-negative, which
    /// this satisfies.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.random::<f64>()).collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub(crate) fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix product `self * rhs` ([`Mat::matmul_into`] on a fresh buffer).
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        let mut out = Mat::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (the `A⁽ⁿ⁾ᵀA⁽ⁿ⁾` self-products of §III-C),
    /// [`Mat::gram_into`] on a fresh buffer.
    pub fn gram(&self) -> Mat {
        let mut g = Mat::zeros(self.cols, self.cols);
        self.gram_into(&mut g).expect("a fresh R×R buffer matches");
        g
    }

    /// Partial Gram: the contribution of rows `rows.start..rows.end` to
    /// `selfᵀ * self`, upper triangle only (the lower triangle is left
    /// zero) — `Mat::gram_range_into` on a fresh buffer. Summing the
    /// partials of a disjoint cover of `0..rows()` in a fixed order and
    /// then calling [`Mat::mirror_upper`] yields a full Gram matrix whose
    /// bits depend only on that cover and order — never on which thread
    /// computed which partial. Out-of-range rows are clamped off.
    pub fn gram_range(&self, rows: std::ops::Range<usize>) -> Mat {
        let mut g = Mat::zeros(self.cols, self.cols);
        self.gram_range_into(rows, &mut g).expect("a fresh R×R buffer matches");
        g
    }

    /// Mirror the strictly-upper triangle into the lower one in place
    /// (finishes a sum of [`Mat::gram_range`] partials).
    pub fn mirror_upper(&mut self) {
        debug_assert_eq!(self.rows, self.cols, "mirror_upper needs a square matrix");
        let r = self.cols;
        for j in 0..r {
            for k in (j + 1)..r {
                self.data[k * r + j] = self.data[j * r + k];
            }
        }
    }

    /// Element-wise (Hadamard) product, Definition 2.1.4.
    pub fn hadamard(&self, rhs: &Mat) -> Result<Mat> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "hadamard",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Mat { rows: self.rows, cols: self.cols, data })
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f64, rhs: &Mat) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// `self - rhs` as a new matrix.
    #[cfg(test)]
    pub(crate) fn sub(&self, rhs: &Mat) -> Result<Mat> {
        let mut out = self.clone();
        out.axpy(-1.0, rhs)?;
        Ok(out)
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self * alpha` as a new matrix ([`Mat::scaled_into`] on a fresh
    /// buffer).
    pub fn scaled(&self, alpha: f64) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        self.scaled_into(alpha, &mut out).expect("a fresh buffer of this shape matches");
        out
    }

    /// In-place `self += alpha * I` (adds to the diagonal; matrix must be
    /// square). This is the `+ λI + ηI` shift in the factor update.
    pub fn add_diag(&mut self, alpha: f64) {
        debug_assert_eq!(self.rows, self.cols, "add_diag needs a square matrix");
        let n = self.rows;
        for i in 0..n {
            self.data[i * n + i] += alpha;
        }
    }

    /// Frobenius norm `‖self‖_F`.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Frobenius norm of `self - rhs`, the convergence test of Algorithm 3
    /// (`max ‖A⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ‖²_F < tol`).
    pub fn frob_dist(&self, rhs: &Mat) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "frob_dist",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    /// Clamp all entries to be non-negative (projection used when enforcing
    /// the `A⁽ⁿ⁾ ≥ 0` constraint).
    pub fn clamp_nonneg(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Matrix-vector product `self * x`.
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        Ok(self
            .rows_iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// True iff every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate heap size in bytes (used by the memory accounting).
    pub fn mem_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    // ----- in-place kernels -------------------------------------------------
    //
    // The solver core preallocates every buffer once and runs its steady
    // state through these `_into` methods. They are the implementations:
    // `matmul`, `gram`, `gram_range` and `scaled` are each one of them on a
    // fresh buffer, so there is one loop per kernel and nothing to keep
    // bit-identical.

    /// Set every entry to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Overwrite `self` with the entries of `src` (shapes must match).
    pub(crate) fn copy_from(&mut self, src: &Mat) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "copy_from",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// `out = self * alpha`.
    pub fn scaled_into(&self, alpha: f64, out: &mut Mat) -> Result<()> {
        if self.shape() != out.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "scaled_into",
                lhs: self.shape(),
                rhs: out.shape(),
            });
        }
        for (o, &a) in out.data.iter_mut().zip(&self.data) {
            *o = a * alpha;
        }
        Ok(())
    }

    /// `out = self - rhs`, bit-identical to a clone followed by
    /// `axpy(-1.0, rhs)`, i.e. `a + (-1.0) * b` per entry.
    // Keep the literal `a + (-1.0) * b` so the bit-identity with `axpy` is
    // visible in the source, not an IEEE-754 argument in a comment.
    #[allow(clippy::neg_multiply)]
    pub fn sub_into(&self, rhs: &Mat, out: &mut Mat) -> Result<()> {
        if self.shape() != rhs.shape() || self.shape() != out.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub_into",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = a + (-1.0) * b;
        }
        Ok(())
    }

    /// `out = self * rhs`. The output is zeroed first and the product
    /// accumulates into it in i-k-j order: the inner loop walks contiguous
    /// rows of `rhs` and `out`, which vectorizes well — on the widest
    /// lanes the CPU has, when the rows fill them ([`isa::widest_rows`]).
    /// Zero entries of `self` are skipped.
    pub fn matmul_into(&self, rhs: &Mat, out: &mut Mat) -> Result<()> {
        if self.cols != rhs.rows || out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        isa::widest_rows(
            rhs.cols,
            #[inline(always)]
            || self.matmul_body(rhs, out),
        );
        Ok(())
    }

    /// [`Mat::matmul_into`]'s one body, shapes checked.
    #[inline(always)]
    pub(crate) fn matmul_body(&self, rhs: &Mat, out: &mut Mat) {
        out.data.fill(0.0);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
    }

    /// `out = selfᵀ * self`. Exploits symmetry: only the upper triangle is
    /// accumulated, then mirrored.
    pub fn gram_into(&self, out: &mut Mat) -> Result<()> {
        self.gram_range_into(0..self.rows, out)?;
        out.mirror_upper();
        Ok(())
    }

    /// Partial Gram into a caller-owned buffer (see [`Mat::gram_range`]):
    /// upper triangle only; the buffer is zeroed first, including its
    /// lower triangle.
    pub(crate) fn gram_range_into(
        &self,
        rows: std::ops::Range<usize>,
        out: &mut Mat,
    ) -> Result<()> {
        let r = self.cols;
        if out.shape() != (r, r) {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_range_into",
                lhs: (r, r),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        let lo = rows.start.min(self.rows);
        let hi = rows.end.min(self.rows);
        for i in lo..hi {
            let row = &self.data[i * r..(i + 1) * r];
            for j in 0..r {
                let v = row[j];
                if v == 0.0 {
                    continue;
                }
                let g_row = &mut out.data[j * r..(j + 1) * r];
                for (k, &w) in row.iter().enumerate().skip(j) {
                    g_row[k] += v * w;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::random(4, 3, 7);
        let i = Mat::identity(4);
        let prod = i.matmul(&a).unwrap();
        assert_eq!(prod, a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Mat::random(6, 4, 42);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for (x, y) in g.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Mat::random(5, 3, 1);
        let g = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = Mat::random(3, 5, 9);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        let h = a.hadamard(&b).unwrap();
        assert_eq!(h, Mat::from_rows(&[&[2.0, 1.0], &[3.0, -4.0]]));
    }

    #[test]
    fn add_diag_shifts_diagonal_only() {
        let mut a = Mat::zeros(3, 3);
        a.add_diag(2.5);
        assert_eq!(a, Mat::identity(3).scaled(2.5));
    }

    #[test]
    fn frob_norm_known_value() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = Mat::random(4, 3, 11);
        let x = vec![1.0, -2.0, 0.5];
        let y = a.matvec(&x).unwrap();
        let y_mat = a.matmul(&Mat::from_vec(3, 1, x)).unwrap();
        for i in 0..4 {
            assert!((y[i] - y_mat.get(i, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn clamp_nonneg_zeroes_negatives() {
        let mut a = Mat::from_rows(&[&[-1.0, 2.0], &[0.0, -0.5]]);
        a.clamp_nonneg();
        assert_eq!(a, Mat::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]));
    }

    /// `Σᵢ a(i,j)·a(i,k)` over `rows`, by index arithmetic, for `j ≤ k`;
    /// the lower triangle mirrored or left zero.
    fn naive_gram(a: &Mat, rows: std::ops::Range<usize>, mirror: bool) -> Mat {
        let r = a.cols();
        let mut g = Mat::zeros(r, r);
        for j in 0..r {
            for k in j..r {
                let mut acc = 0.0;
                for i in rows.clone() {
                    acc += a.get(i, j) * a.get(i, k);
                }
                g.set(j, k, acc);
                if mirror {
                    g.set(k, j, acc);
                }
            }
        }
        g
    }

    #[test]
    fn gram_range_full_cover_is_bitwise_gram() {
        // One range over every row, mirrored, is the Gram matrix — each
        // checked against the index-arithmetic sum (same ascending-row
        // fold per element, so exactly equal), not against each other.
        let a = Mat::random(17, 5, 42);
        let want = naive_gram(&a, 0..17, true);
        let mut g = a.gram_range(0..17);
        g.mirror_upper();
        assert_eq!(g, want);
        assert_eq!(a.gram(), want);
        // Rows past the end are clamped off.
        assert_eq!(a.gram_range(9..40), naive_gram(&a, 9..17, false));
    }

    #[test]
    fn gram_range_partials_sum_to_gram() {
        let a = Mat::random(23, 4, 7);
        let mut sum = a.gram_range(0..9);
        for r in [9..16, 16..23, 23..40] {
            sum.axpy(1.0, &a.gram_range(r)).unwrap();
        }
        sum.mirror_upper();
        let full = a.gram();
        assert!(sum.frob_dist(&full).unwrap() < 1e-12 * full.frob_norm().max(1.0));
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_ones() {
        // The allocating forms are the `_into` kernels on a fresh buffer,
        // so both are checked against index-arithmetic oracles that share
        // no loop with them (`assert_eq!` on `Mat` compares every f64
        // exactly: each oracle folds its sum in the kernel's order), and
        // every `_into` call lands in a dirty buffer.
        let a = Mat::random(7, 5, 3);
        let b = Mat::random(7, 5, 4);
        let sq = Mat::random(5, 5, 6);
        let dirty = || Mat::random(7, 5, 99);

        let want = Mat::from_vec(7, 5, a.as_slice().iter().map(|v| v * 1.7).collect());
        let mut out = dirty();
        a.scaled_into(1.7, &mut out).unwrap();
        assert_eq!(out, want);
        assert_eq!(a.scaled(1.7), want);

        let diff = a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x - y).collect();
        let want = Mat::from_vec(7, 5, diff);
        let mut out = dirty();
        a.sub_into(&b, &mut out).unwrap();
        assert_eq!(out, want);
        assert_eq!(a.sub(&b).unwrap(), want);

        let mut want = Mat::zeros(7, 5);
        for i in 0..7 {
            for j in 0..5 {
                let mut acc = 0.0;
                for k in 0..5 {
                    acc += a.get(i, k) * sq.get(k, j);
                }
                want.set(i, j, acc);
            }
        }
        let mut out = dirty();
        // Twice: the zeroing must erase the first product too.
        for _ in 0..2 {
            a.matmul_into(&sq, &mut out).unwrap();
            assert_eq!(out, want);
        }
        assert_eq!(a.matmul(&sq).unwrap(), want);

        let mut g = Mat::random(5, 5, 9); // dirty on purpose
        a.gram_into(&mut g).unwrap();
        assert_eq!(g, naive_gram(&a, 0..7, true));
        a.gram_range_into(2..6, &mut g).unwrap();
        assert_eq!(g, naive_gram(&a, 2..6, false));
        assert_eq!(a.gram_range(2..6), naive_gram(&a, 2..6, false));

        let mut c = Mat::zeros(7, 5);
        c.copy_from(&a).unwrap();
        assert_eq!(c, a);
        c.fill(3.25);
        assert_eq!(c, Mat::from_vec(7, 5, vec![3.25; 35]));
    }

    #[test]
    fn into_variants_reject_shape_mismatches() {
        let a = Mat::random(4, 3, 1);
        let mut wrong = Mat::zeros(3, 3);
        assert!(a.scaled_into(2.0, &mut wrong).is_err());
        assert!(a.sub_into(&a, &mut wrong).is_err());
        assert!(a.matmul_into(&Mat::zeros(3, 2), &mut wrong).is_err());
        assert!(a.gram_into(&mut Mat::zeros(4, 4)).is_err());
        assert!(a.gram_range_into(0..4, &mut Mat::zeros(2, 2)).is_err());
        assert!(wrong.copy_from(&a).is_err());
    }

    #[test]
    fn random_is_seeded_and_in_unit_interval() {
        let a = Mat::random(10, 10, 5);
        let b = Mat::random(10, 10, 5);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
