//! Immutable factor store: one matrix per mode.
//!
//! Alongside the raw rows the store precomputes, per mode:
//! * the Gram matrix `A⁽ⁿ⁾ᵀA⁽ⁿ⁾` (same self-product the solver caches for
//!   the Hadamard normal equations, Eqs. 11–13),
//! * every row's L2 norm, and
//! * a norm-descending row order — the two ingredients of the
//!   Cauchy–Schwarz pruning bound used by top-K search.
//!
//! Rows are copied verbatim from the model, so values read back from the
//! store are bit-identical to the factors they came from.

use distenc_linalg::Mat;
use distenc_tensor::KruskalTensor;

/// Read-only view of a CP model's factor matrices.
#[derive(Debug, Clone)]
pub struct FactorStore {
    /// `factors[mode]` is the factor matrix of `mode`.
    factors: Vec<Mat>,
    /// Per-mode Gram matrix `A⁽ⁿ⁾ᵀA⁽ⁿ⁾` (`R×R`).
    grams: Vec<Mat>,
    /// Per-mode row L2 norms.
    norms: Vec<Vec<f64>>,
    /// Per-mode row indices sorted by norm descending (ties by index).
    by_norm: Vec<Vec<usize>>,
    shape: Vec<usize>,
    rank: usize,
}

impl FactorStore {
    /// Copy `model`'s factors and precompute the per-mode Gram matrices,
    /// row norms, and norm orders.
    pub(crate) fn new(model: &KruskalTensor) -> Self {
        let shape = model.shape();
        let rank = model.rank();
        let mut grams = Vec::with_capacity(model.order());
        let mut norms = Vec::with_capacity(model.order());
        let mut by_norm = Vec::with_capacity(model.order());
        for factor in model.factors() {
            let dim = factor.rows();
            let mode_norms: Vec<f64> = (0..dim)
                .map(|i| factor.row(i).iter().map(|v| v * v).sum::<f64>().sqrt())
                .collect();
            let mut order: Vec<usize> = (0..dim).collect();
            order.sort_unstable_by(|&a, &b| {
                mode_norms[b].total_cmp(&mode_norms[a]).then(a.cmp(&b))
            });
            grams.push(factor.gram());
            norms.push(mode_norms);
            by_norm.push(order);
        }
        let factors = model.factors().to_vec();
        FactorStore { factors, grams, norms, by_norm, shape, rank }
    }

    /// Tensor shape served by this store.
    pub(crate) fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// CP rank `R`.
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// Tensor order `N`.
    pub(crate) fn order(&self) -> usize {
        self.shape.len()
    }

    /// Factor row `A⁽ᵐᵒᵈᵉ⁾[i, ·]`.
    #[inline]
    pub(crate) fn row(&self, mode: usize, i: usize) -> &[f64] {
        self.factors[mode].row(i)
    }

    /// Gram matrix `A⁽ᵐᵒᵈᵉ⁾ᵀA⁽ᵐᵒᵈᵉ⁾`.
    #[cfg(test)]
    fn gram(&self, mode: usize) -> &Mat {
        &self.grams[mode]
    }

    /// L2 norm of factor row `A⁽ᵐᵒᵈᵉ⁾[i, ·]`.
    #[inline]
    pub(crate) fn row_norm(&self, mode: usize, i: usize) -> f64 {
        self.norms[mode][i]
    }

    /// Row indices of `mode` sorted by norm descending — the scan order
    /// that makes the Cauchy–Schwarz bound a valid early exit.
    pub(crate) fn by_norm(&self, mode: usize) -> &[usize] {
        &self.by_norm[mode]
    }

    /// Approximate heap footprint in bytes (factors + precomputed tables).
    pub fn mem_bytes(&self) -> usize {
        let factor_bytes: usize = self.factors.iter().map(Mat::mem_bytes).sum();
        let gram_bytes: usize = self.grams.iter().map(Mat::mem_bytes).sum();
        let table_bytes: usize = self
            .norms
            .iter()
            .zip(&self.by_norm)
            .map(|(n, o)| n.len() * 8 + o.len() * std::mem::size_of::<usize>())
            .sum();
        factor_bytes + gram_bytes + table_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_bit_identical_to_the_model() {
        let model = KruskalTensor::random(&[37, 11, 5], 4, 123);
        let store = FactorStore::new(&model);
        for (mode, factor) in model.factors().iter().enumerate() {
            for i in 0..factor.rows() {
                assert_eq!(store.row(mode, i), factor.row(i), "mode {mode} row {i}");
            }
        }
    }

    #[test]
    fn norm_order_is_descending() {
        let model = KruskalTensor::random(&[50, 20, 10], 3, 9);
        let store = FactorStore::new(&model);
        for mode in 0..3 {
            let order = store.by_norm(mode);
            assert_eq!(order.len(), model.shape()[mode]);
            for w in order.windows(2) {
                assert!(store.row_norm(mode, w[0]) >= store.row_norm(mode, w[1]));
            }
        }
    }

    #[test]
    fn gram_matches_factor_gram() {
        let model = KruskalTensor::random(&[12, 8, 6], 3, 4);
        let store = FactorStore::new(&model);
        for (mode, factor) in model.factors().iter().enumerate() {
            assert_eq!(store.gram(mode), &factor.gram());
        }
    }
}
