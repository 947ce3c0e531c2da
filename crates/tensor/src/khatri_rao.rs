//! Explicit Khatri-Rao products (Definition 2.1.3).
//!
//! These *materialize* their results, which is exactly the "intermediate
//! data explosion" the paper avoids (§III-C). They exist as small-scale
//! oracles: tests validate the MTTKRP kernel and the Gram identity
//! (Eq. 12) against them.
//!
//! Ordering convention: chained products run over modes in *increasing*
//! order, so the largest surviving mode varies fastest in the row index.
//! [`crate::dense::DenseTensor::matricize`] uses the matching column order,
//! making `X₍ₙ₎ = A⁽ⁿ⁾ · U⁽ⁿ⁾ᵀ` (Eq. 15) hold exactly.

use crate::{Result, TensorError};
use distenc_linalg::Mat;

/// Khatri-Rao (column-wise Kronecker) product `A ⊙ B` of sizes
/// `(I×R) ⊙ (K×R) → (IK × R)`.
pub fn khatri_rao(a: &Mat, b: &Mat) -> Result<Mat> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch(format!(
            "khatri_rao needs equal column counts, got {} and {}",
            a.cols(),
            b.cols()
        )));
    }
    let (i, r) = a.shape();
    let k = b.rows();
    let mut out = Mat::zeros(i * k, r);
    for ai in 0..i {
        let a_row = a.row(ai);
        for bi in 0..k {
            let b_row = b.row(bi);
            let o = out.row_mut(ai * k + bi);
            for c in 0..r {
                o[c] = a_row[c] * b_row[c];
            }
        }
    }
    Ok(out)
}

/// The chained Khatri-Rao product `U⁽ⁿ⁾` over every factor except
/// `skip`, in increasing mode order. This is the `(∏_{k≠n} Iₖ) × R` matrix
/// the paper's Eq. 8 denotes `U⁽ⁿ⁾` — prohibitively large at scale, which
/// is why production code never calls this (Eq. 10 computes against it
/// implicitly).
pub fn khatri_rao_skip(factors: &[Mat], skip: usize) -> Result<Mat> {
    let kept: Vec<&Mat> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != skip)
        .map(|(_, f)| f)
        .collect();
    let mut iter = kept.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| TensorError::ShapeMismatch("need ≥ 2 factors".into()))?;
    let mut acc = first.clone();
    for f in iter {
        acc = khatri_rao(&acc, f)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::kruskal::KruskalTensor;

    /// Kronecker product `A ⊗ B` of sizes `(I×J) ⊗ (K×L) → (IK × JL)`
    /// (Definition 2.1.2): the reference Khatri-Rao is checked against.
    fn kronecker(a: &Mat, b: &Mat) -> Mat {
        let (i, j) = a.shape();
        let (k, l) = b.shape();
        let mut out = Mat::zeros(i * k, j * l);
        for ai in 0..i {
            for aj in 0..j {
                let av = a.get(ai, aj);
                if av == 0.0 {
                    continue;
                }
                for bi in 0..k {
                    for bj in 0..l {
                        out.set(ai * k + bi, aj * l + bj, av * b.get(bi, bj));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn kronecker_known_values() {
        let a = Mat::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Mat::from_vec(2, 1, vec![3.0, 4.0]);
        let k = kronecker(&a, &b);
        assert_eq!(k.shape(), (2, 2));
        assert_eq!(k.get(0, 0), 3.0);
        assert_eq!(k.get(1, 0), 4.0);
        assert_eq!(k.get(0, 1), 6.0);
        assert_eq!(k.get(1, 1), 8.0);
    }

    #[test]
    fn khatri_rao_is_columnwise_kronecker() {
        let a = Mat::random(3, 2, 1);
        let b = Mat::random(4, 2, 2);
        let kr = khatri_rao(&a, &b).unwrap();
        for r in 0..2 {
            let a_col = Mat::from_vec(3, 1, a.col(r));
            let b_col = Mat::from_vec(4, 1, b.col(r));
            let kron = kronecker(&a_col, &b_col);
            for i in 0..12 {
                assert!((kr.get(i, r) - kron.get(i, 0)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn khatri_rao_column_mismatch_rejected() {
        assert!(khatri_rao(&Mat::zeros(2, 2), &Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn gram_identity_eq_12() {
        // (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB — the identity §III-C exploits.
        let a = Mat::random(5, 3, 10);
        let b = Mat::random(7, 3, 11);
        let kr = khatri_rao(&a, &b).unwrap();
        let lhs = kr.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn matricized_kruskal_identity_eq_15() {
        // X₍ₙ₎ = A⁽ⁿ⁾ U⁽ⁿ⁾ᵀ for every mode of a random CP tensor.
        let k = KruskalTensor::random(&[3, 4, 2], 3, 21);
        let dense = DenseTensor::from_kruskal(&k);
        for n in 0..3 {
            let u = khatri_rao_skip(k.factors(), n).unwrap();
            let want = dense.matricize(n);
            let got = k.factors()[n].matmul(&u.transpose()).unwrap();
            assert_eq!(want.shape(), got.shape());
            for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
                assert!((x - y).abs() < 1e-10, "mode {n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn khatri_rao_skip_4_order() {
        let k = KruskalTensor::random(&[2, 3, 2, 2], 2, 33);
        let dense = DenseTensor::from_kruskal(&k);
        for n in 0..4 {
            let u = khatri_rao_skip(k.factors(), n).unwrap();
            let want = dense.matricize(n);
            let got = k.factors()[n].matmul(&u.transpose()).unwrap();
            for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
                assert!((x - y).abs() < 1e-10, "mode {n}");
            }
        }
    }
}
