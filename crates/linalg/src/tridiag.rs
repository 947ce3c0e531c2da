#![allow(clippy::manual_memcpy)] // explicit loops keep the rotation index arithmetic visible
//! Symmetric tridiagonal eigensolver (implicit-shift QL) and the
//! Householder reduction that feeds it.
//!
//! [`tqli`] is the classic algorithm: given diagonal `d` and off-diagonal
//! `e`, it computes all eigenvalues and rotates an accumulator matrix `z`
//! so its **rows** become eigenvectors in the original basis. Both
//! reductions the Laplacian truncation uses end here: Lanczos (large
//! components; its basis is already stored one vector per row) and
//! [`householder_tridiag`] (small dense components, see
//! [`crate::eigen::symmetric_eigen`]).

use crate::{isa, LinalgError, Mat, Result};

/// Eigen-decompose a symmetric tridiagonal matrix.
///
/// * `d` — diagonal entries, length `n`; overwritten with eigenvalues
///   (unsorted).
/// * `e` — sub-diagonal entries, length `n` with `e[0]` unused (matching
///   the classic Numerical-Recipes convention: `e[i]` couples rows `i-1`
///   and `i`); destroyed.
/// * `z` — an `n × m` accumulator, one basis vector per **row**; pass the
///   identity to obtain tridiagonal eigenvectors, or a Lanczos basis (or
///   the `Qᵀ` of [`householder_tridiag`]) to obtain eigenvectors of the
///   original operator. Rows are rotated in place — a Givens step touches
///   two contiguous slices — and row `i` ends up as the eigenvector of
///   `d[i]`.
pub(crate) fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
    isa::widest(
        #[inline(always)]
        || tqli_body(d, e, z),
    )
}

/// [`tqli`]'s one body; the row rotations are what the wide lanes buy.
#[inline(always)]
pub(crate) fn tqli_body(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
    let n = d.len();
    if e.len() != n || z.rows() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "tqli",
            lhs: (n, 1),
            rhs: (e.len(), z.rows()),
        });
    }
    let width = z.cols();
    if n == 0 {
        return Ok(());
    }
    // Shift the off-diagonal so e[i] couples i and i+1, with e[n-1] = 0.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(LinalgError::NoConvergence { method: "tqli", iters: 50 });
            }
            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            // A sequence of plane rotations chasing the bulge.
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into z's rows i and i+1.
                let (head, tail) = z.as_mut_slice().split_at_mut((i + 1) * width);
                for (lo, hi) in head[i * width..].iter_mut().zip(&mut tail[..width]) {
                    let h = *hi;
                    *hi = s * *lo + c * h;
                    *lo = c * *lo - s * h;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// The `k` smallest eigenpairs out of [`tqli`]'s output: eigenvalues
/// ascending, and row `i` of `z` (the eigenvector of `d[i]`) laid out as
/// the matching **column** of an `m × k` matrix — the orientation every
/// caller downstream of the solvers expects.
pub(crate) fn smallest_pairs(d: &[f64], z: &Mat, k: usize) -> (Vec<f64>, Mat) {
    let mut order: Vec<usize> = (0..d.len()).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]));
    order.truncate(k);
    let values = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Mat::zeros(z.cols(), order.len());
    for (dst, &src) in order.iter().enumerate() {
        for (i, &v) in z.row(src).iter().enumerate() {
            vectors.set(i, dst, v);
        }
    }
    (values, vectors)
}

/// Householder reduction of a dense symmetric matrix to tridiagonal form
/// (the classic `tred2`): `Qᵀ A Q = T`.
///
/// Only the lower triangle of `a` is read. On return `d` holds `T`'s
/// diagonal, `e` its sub-diagonal in [`tqli`]'s convention (`e[i]` couples
/// rows `i-1` and `i`, `e[0] = 0`), and `a` holds `Qᵀ` — one basis vector
/// per row, which is exactly the accumulator [`tqli`] rotates into the
/// eigenvectors of `A`. `O(n³)` with a small constant (`4n³/3` flops for
/// the reduction, as many again to accumulate `Q`), against the
/// `O(n³)`-*per-sweep* of cyclic Jacobi.
pub(crate) fn householder_tridiag(a: &mut Mat, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = a.rows();
    if a.cols() != n || d.len() != n || e.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "householder_tridiag",
            lhs: a.shape(),
            rhs: (d.len(), e.len()),
        });
    }
    if n == 0 {
        return Ok(());
    }
    // Reduce rows n-1, …, 1: a reflector built from row i's first i
    // entries zeroes all of them but the last. The reflector's vector u
    // stays in row i, u/H in column i; d[i] remembers H for phase two.
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        let scale: f64 = a.row(i)[..i].iter().map(|v| v.abs()).sum();
        if l == 0 || scale == 0.0 {
            // Nothing to zero (or already zero): skip the reflection.
            e[i] = a.get(i, l);
        } else {
            for v in &mut a.row_mut(i)[..i] {
                *v /= scale;
                h += *v * *v;
            }
            let mut f = a.get(i, l);
            let mut g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            a.set(i, l, f - g);
            // p = A·u / H into e[..i], and f = uᵀp.
            f = 0.0;
            for j in 0..i {
                a.set(j, i, a.get(i, j) / h);
                g = 0.0;
                for k in 0..=j {
                    g += a.get(j, k) * a.get(i, k);
                }
                for k in j + 1..i {
                    g += a.get(k, j) * a.get(i, k);
                }
                e[j] = g / h;
                f += e[j] * a.get(i, j);
            }
            // q = p − (uᵀp / 2H)·u, then the rank-two update A ← A − quᵀ − uqᵀ
            // on the leading lower triangle.
            let hh = f / (h + h);
            for j in 0..i {
                f = a.get(i, j);
                g = e[j] - hh * f;
                e[j] = g;
                for k in 0..=j {
                    let upd = f * e[k] + g * a.get(i, k);
                    a.set(j, k, a.get(j, k) - upd);
                }
            }
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Phase two: accumulate Q = P₁P₂… in the leading blocks.
    let mut proj = vec![0.0; n];
    for i in 0..n {
        if d[i] != 0.0 {
            // proj = uᵀ·Q[..i, ..i], then Q[..i, ..i] −= (u/H)·projᵀ, both
            // as contiguous row operations.
            proj[..i].fill(0.0);
            for k in 0..i {
                let u_k = a.get(i, k);
                for (p, &q) in proj[..i].iter_mut().zip(&a.row(k)[..i]) {
                    *p += u_k * q;
                }
            }
            for k in 0..i {
                let w_k = a.get(k, i);
                for (q, &p) in a.row_mut(k)[..i].iter_mut().zip(&proj[..i]) {
                    *q -= p * w_k;
                }
            }
        }
        d[i] = a.get(i, i);
        a.set(i, i, 1.0);
        for j in 0..i {
            a.set(j, i, 0.0);
            a.set(i, j, 0.0);
        }
    }
    // tqli accumulates into rows: hand it Qᵀ.
    *a = a.transpose();
    Ok(())
}

/// How the tests below drive [`tqli`]: eigenvalues (ascending) and
/// eigenvectors (as columns) of a symmetric tridiagonal matrix given
/// diagonal `diag` and off-diagonal `off` (`off[i]` couples rows `i` and
/// `i+1`; length `n-1`).
#[cfg(test)]
fn tridiag_eigen(diag: &[f64], off: &[f64]) -> Result<(Vec<f64>, Mat)> {
    let n = diag.len();
    if n == 0 {
        return Ok((Vec::new(), Mat::zeros(0, 0)));
    }
    if off.len() + 1 != n {
        return Err(LinalgError::InvalidArgument(format!(
            "off-diagonal length {} must be n-1 = {}",
            off.len(),
            n - 1
        )));
    }
    let mut d = diag.to_vec();
    // Convert to the tqli convention: e[i] couples i-1 and i.
    let mut e = vec![0.0; n];
    for i in 1..n {
        e[i] = off[i - 1];
    }
    let mut z = Mat::identity(n);
    tqli(&mut d, &mut e, &mut z)?;
    Ok(smallest_pairs(&d, &z, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi_eigen;

    fn dense_from_tridiag(diag: &[f64], off: &[f64]) -> Mat {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, diag[i]);
        }
        for i in 0..n - 1 {
            m.set(i, i + 1, off[i]);
            m.set(i + 1, i, off[i]);
        }
        m
    }

    #[test]
    fn matches_jacobi_on_random_tridiagonal() {
        let diag = [2.0, 3.0, 1.5, 4.0, 2.5];
        let off = [0.5, -0.7, 0.3, 1.1];
        let (vals, vecs) = tridiag_eigen(&diag, &off).unwrap();
        let dense = dense_from_tridiag(&diag, &off);
        let oracle = jacobi_eigen(&dense).unwrap();
        for (a, b) in vals.iter().zip(&oracle.values) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Each eigenvector satisfies A v = λ v.
        for j in 0..diag.len() {
            let v = vecs.col(j);
            let av = dense.matvec(&v).unwrap();
            for i in 0..diag.len() {
                assert!((av[i] - vals[j] * v[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn diagonal_input_returns_sorted_diagonal() {
        let (vals, _) = tridiag_eigen(&[5.0, 1.0, 3.0], &[0.0, 0.0]).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-14);
        assert!((vals[1] - 3.0).abs() < 1e-14);
        assert!((vals[2] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn chain_laplacian_has_zero_eigenvalue() {
        // Path-graph Laplacian: known smallest eigenvalue exactly 0.
        let n = 8;
        let diag: Vec<f64> = (0..n)
            .map(|i| if i == 0 || i == n - 1 { 1.0 } else { 2.0 })
            .collect();
        let off = vec![-1.0; n - 1];
        let (vals, _) = tridiag_eigen(&diag, &off).unwrap();
        assert!(vals[0].abs() < 1e-10);
        assert!(vals[1] > 1e-6);
    }

    #[test]
    fn empty_and_singleton() {
        let (vals, _) = tridiag_eigen(&[], &[]).unwrap();
        assert!(vals.is_empty());
        let (vals, vecs) = tridiag_eigen(&[7.0], &[]).unwrap();
        assert_eq!(vals, vec![7.0]);
        assert_eq!(vecs.get(0, 0), 1.0);
    }

    #[test]
    fn wrong_offdiag_length_rejected() {
        assert!(tridiag_eigen(&[1.0, 2.0], &[0.1, 0.2]).is_err());
    }

    /// The pre-row-form `tqli`, kept verbatim as the oracle for
    /// [`row_form_is_bit_identical_to_column_form`]: same QL iteration,
    /// but each Givens step rotates two *columns* of an `m × n`
    /// accumulator (stride-`n` access).
    fn tqli_columns(d: &mut [f64], e: &mut [f64], z: &mut Mat) -> Result<()> {
        let n = d.len();
        for i in 1..n {
            e[i - 1] = e[i];
        }
        e[n - 1] = 0.0;
        for l in 0..n {
            let mut iter = 0;
            loop {
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                if iter > 50 {
                    return Err(LinalgError::NoConvergence { method: "tqli", iters: 50 });
                }
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                let (mut s, mut c) = (1.0, 1.0);
                let mut p = 0.0;
                for i in (l..m).rev() {
                    let mut f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    for k in 0..z.rows() {
                        f = z.get(k, i + 1);
                        z.set(k, i + 1, s * z.get(k, i) + c * f);
                        z.set(k, i, c * z.get(k, i) - s * f);
                    }
                }
                if r == 0.0 && m > l + 1 {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// Rotating rows of `z` is the same arithmetic, element for
        /// element, as rotating columns of `zᵀ`: eigenvalues and every
        /// accumulator entry agree to the bit, for square and for
        /// Lanczos-shaped (`steps × n`) accumulators, zero off-diagonals
        /// (decoupled blocks) included.
        #[test]
        fn row_form_is_bit_identical_to_column_form(
            n in 1usize..24,
            width in 1usize..40,
            seed in 0u64..10_000,
            split in proptest::prelude::any::<bool>(),
        ) {
            let diag = Mat::random(1, n, seed);
            let mut e0 = Mat::random(1, n, seed ^ 0x7e57).as_slice().to_vec();
            e0[0] = 0.0;
            if split && n > 2 {
                e0[n / 2] = 0.0;
            }
            let z_rows = Mat::random(n, width, seed.wrapping_add(1));

            let (mut d_r, mut e_r, mut z_r) = (diag.as_slice().to_vec(), e0.clone(), z_rows.clone());
            tqli(&mut d_r, &mut e_r, &mut z_r).unwrap();
            let (mut d_c, mut e_c, mut z_c) = (diag.as_slice().to_vec(), e0, z_rows.transpose());
            tqli_columns(&mut d_c, &mut e_c, &mut z_c).unwrap();

            for (a, b) in d_r.iter().zip(&d_c) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for i in 0..n {
                for k in 0..width {
                    proptest::prop_assert_eq!(z_r.get(i, k).to_bits(), z_c.get(k, i).to_bits());
                }
            }
        }
    }

    #[test]
    fn householder_reduction_is_an_orthogonal_similarity() {
        // Qᵀ A Q = T: rebuild A from the returned Qᵀ (rows), d and e.
        let n = 9;
        let mut a = Mat::random(n + 3, n, 21).gram();
        a.add_diag(0.3);
        let mut qt = a.clone();
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
        householder_tridiag(&mut qt, &mut d, &mut e).unwrap();
        assert_eq!(e[0], 0.0);
        let t = dense_from_tridiag(&d, &e[1..]);
        let q = qt.transpose();
        let rebuilt = q.matmul(&t).unwrap().matmul(&qt).unwrap();
        assert!(rebuilt.frob_dist(&a).unwrap() < 1e-12 * a.frob_norm());
        let qtq = qt.matmul(&q).unwrap();
        assert!(qtq.frob_dist(&Mat::identity(n)).unwrap() < 1e-13);
    }

    #[test]
    fn householder_rejects_mismatched_buffers() {
        let mut a = Mat::zeros(3, 3);
        assert!(householder_tridiag(&mut a, &mut [0.0; 2], &mut [0.0; 3]).is_err());
        assert!(householder_tridiag(&mut Mat::zeros(2, 3), &mut [0.0; 2], &mut [0.0; 2]).is_err());
    }
}
