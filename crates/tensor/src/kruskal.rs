//! Kruskal (CP-factorized) tensors.

use crate::coo::CooTensor;
use crate::{Result, TensorError};
use distenc_linalg::Mat;

/// Rank elements [`KruskalTensor::eval`] multiplies per row lookup.
const EVAL_CHUNK: usize = 8;

/// A rank-`R` CP factorization `[[A⁽¹⁾, …, A⁽ᴺ⁾]]` (Eq. 3): the tensor whose
/// `(i₁,…,i_N)` entry is `Σᵣ ∏ₙ A⁽ⁿ⁾[iₙ, r]`.
///
/// The dense tensor is *never* materialized at scale — DisTenC's third key
/// insight (§III-D) is precisely avoiding that. Entries are evaluated
/// lazily at observed coordinates.
#[derive(Debug, Clone)]
pub struct KruskalTensor {
    factors: Vec<Mat>,
}

impl KruskalTensor {
    /// Wrap factor matrices. All must share the same column count `R`.
    pub fn new(factors: Vec<Mat>) -> Result<Self> {
        if factors.is_empty() {
            return Err(TensorError::ShapeMismatch("no factor matrices".into()));
        }
        let r = factors[0].cols();
        if factors.iter().any(|f| f.cols() != r) {
            return Err(TensorError::ShapeMismatch(
                "factor matrices must share rank (column count)".into(),
            ));
        }
        Ok(KruskalTensor { factors })
    }

    /// Random CP model with the given shape and rank (uniform `[0,1)`
    /// entries, seeded). Matches the non-negative initialization of
    /// Algorithm 1 line 1.
    pub fn random(shape: &[usize], rank: usize, seed: u64) -> Self {
        let factors = shape
            .iter()
            .enumerate()
            .map(|(n, &dim)| Mat::random(dim, rank, seed.wrapping_add(n as u64)))
            .collect();
        KruskalTensor { factors }
    }

    /// CP rank `R`.
    pub fn rank(&self) -> usize {
        self.factors[0].cols()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Shape implied by the factor matrices.
    pub fn shape(&self) -> Vec<usize> {
        self.factors.iter().map(|f| f.rows()).collect()
    }

    /// The factor matrices.
    pub fn factors(&self) -> &[Mat] {
        &self.factors
    }

    /// Mutable factor matrices.
    pub fn factors_mut(&mut self) -> &mut [Mat] {
        &mut self.factors
    }

    /// Replace factor `n`.
    pub fn set_factor(&mut self, n: usize, f: Mat) -> Result<()> {
        if f.cols() != self.rank() {
            return Err(TensorError::ShapeMismatch(format!(
                "factor rank {} != model rank {}",
                f.cols(),
                self.rank()
            )));
        }
        self.factors[n] = f;
        Ok(())
    }

    /// Evaluate one entry `Σᵣ ∏ₙ A⁽ⁿ⁾[iₙ, r]` in `O(N·R)`.
    ///
    /// The rank is folded in chunks of `EVAL_CHUNK` products held in a
    /// local array, one row lookup per mode per chunk. The operation
    /// order is the plain fold's: each `r`'s product runs over the modes
    /// ascending from `1.0`, and the products are summed in `r` order.
    ///
    /// # Panics
    /// Panics if `index` does not have one entry per mode, or an entry
    /// is out of its mode's range.
    #[inline]
    pub fn eval(&self, index: &[usize]) -> f64 {
        assert_eq!(index.len(), self.order(), "index order must be the model's");
        let r = self.rank();
        let mut acc = 0.0;
        for c in (0..r).step_by(EVAL_CHUNK) {
            let width = EVAL_CHUNK.min(r - c);
            let mut prods = [1.0f64; EVAL_CHUNK];
            for (f, &i) in self.factors.iter().zip(index) {
                for (p, &a) in prods.iter_mut().zip(&f.row(i)[c..c + width]) {
                    *p *= a;
                }
            }
            for &p in &prods[..width] {
                acc += p;
            }
        }
        acc
    }

    /// Evaluate at every stored coordinate of `mask`, producing a sparse
    /// tensor `Ω ∗ [[A…]]` supported on `mask`'s indices.
    pub fn eval_at(&self, mask: &CooTensor) -> Result<CooTensor> {
        if mask.shape() != self.shape().as_slice() {
            return Err(TensorError::ShapeMismatch(format!(
                "mask shape {:?} vs model shape {:?}",
                mask.shape(),
                self.shape()
            )));
        }
        let values = mask.iter().map(|(idx, _)| self.eval(idx)).collect();
        Ok(mask.with_values(values))
    }

    /// Squared Frobenius norm of the *full* (implicit dense) tensor via the
    /// Gram identity `‖[[A…]]‖²_F = Σ_{r,s} ∏ₙ (A⁽ⁿ⁾ᵀA⁽ⁿ⁾)[r,s]` — no dense
    /// materialization.
    pub fn frob_norm_sq(&self) -> f64 {
        let r = self.rank();
        let mut prod = Mat::from_vec(r, r, vec![1.0; r * r]);
        for f in &self.factors {
            prod = prod
                .hadamard(&f.gram())
                .expect("gram matrices share rank shape");
        }
        prod.as_slice().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;

    #[test]
    fn eval_matches_manual_rank_one() {
        // Rank-1: entry = a_i * b_j * c_k.
        let a = Mat::from_vec(2, 1, vec![2.0, 3.0]);
        let b = Mat::from_vec(2, 1, vec![5.0, 7.0]);
        let c = Mat::from_vec(2, 1, vec![11.0, 13.0]);
        let k = KruskalTensor::new(vec![a, b, c]).unwrap();
        assert_eq!(k.eval(&[0, 0, 0]), 2.0 * 5.0 * 11.0);
        assert_eq!(k.eval(&[1, 1, 1]), 3.0 * 7.0 * 13.0);
        assert_eq!(k.eval(&[0, 1, 0]), 2.0 * 7.0 * 11.0);
    }

    #[test]
    fn eval_matches_dense_reconstruction() {
        let k = KruskalTensor::random(&[3, 4, 2], 3, 77);
        let dense = DenseTensor::from_kruskal(&k);
        for i in 0..3 {
            for j in 0..4 {
                for l in 0..2 {
                    let want = dense.get(&[i, j, l]);
                    let got = k.eval(&[i, j, l]);
                    assert!((want - got).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn frob_norm_sq_matches_dense() {
        let k = KruskalTensor::random(&[4, 3, 5], 2, 5);
        let dense = DenseTensor::from_kruskal(&k);
        assert!((k.frob_norm_sq() - dense.frob_norm_sq()).abs() < 1e-9);
    }

    #[test]
    fn mismatched_ranks_rejected() {
        let a = Mat::zeros(2, 2);
        let b = Mat::zeros(2, 3);
        assert!(KruskalTensor::new(vec![a, b]).is_err());
    }

    #[test]
    fn eval_at_respects_mask_support() {
        let k = KruskalTensor::random(&[3, 3], 2, 9);
        let mask =
            CooTensor::from_entries(vec![3, 3], &[(&[0, 1], 1.0), (&[2, 2], 1.0)]).unwrap();
        let out = k.eval_at(&mask).unwrap();
        assert_eq!(out.nnz(), 2);
        assert_eq!(out.index(0), &[0, 1]);
        assert!((out.value(0) - k.eval(&[0, 1])).abs() < 1e-14);
    }

    /// The per-element fold the chunked `eval` replaced, kept as its
    /// oracle: one row lookup per mode per rank element.
    fn per_element_eval(k: &KruskalTensor, index: &[usize]) -> f64 {
        let mut acc = 0.0;
        for rr in 0..k.rank() {
            let mut prod = 1.0;
            for (f, &i) in k.factors.iter().zip(index) {
                prod *= f.row(i)[rr];
            }
            acc += prod;
        }
        acc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The chunked fold gives the per-element fold's bits at ranks 1
        /// to 20 (under, at and across chunk boundaries) and orders 1 to 9,
        /// with signed entries of mixed magnitude.
        #[test]
        fn chunked_eval_is_the_per_element_fold(
            seed in 0u64..100_000,
            rank in 1usize..21,
            order in 1usize..10,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let factors: Vec<Mat> = (0..order)
                .map(|_| {
                    let rows = rng.random_range(1..5);
                    let data = (0..rows * rank)
                        .map(|_| (rng.random::<f64>() - 0.5) * 10f64.powi(rng.random_range(-3..4)))
                        .collect();
                    Mat::from_vec(rows, rank, data)
                })
                .collect();
            let k = KruskalTensor::new(factors).unwrap();
            let shape = k.shape();
            let mut mask = CooTensor::new(shape.clone());
            for _ in 0..8 {
                let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
                let want = per_element_eval(&k, &idx);
                proptest::prop_assert_eq!(k.eval(&idx).to_bits(), want.to_bits());
                mask.push(&idx, 0.0).unwrap();
            }
            let at = k.eval_at(&mask).unwrap();
            proptest::prop_assert_eq!(at.shape(), mask.shape());
            for (e, (idx, v)) in at.iter().enumerate() {
                proptest::prop_assert_eq!(idx, mask.index(e));
                proptest::prop_assert_eq!(v.to_bits(), per_element_eval(&k, idx).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "index order must be the model's")]
    fn eval_rejects_a_short_index() {
        KruskalTensor::random(&[3, 4, 2], 3, 1).eval(&[1, 2]);
    }

    #[test]
    fn random_shape_and_rank() {
        let k = KruskalTensor::random(&[5, 6, 7], 4, 0);
        assert_eq!(k.shape(), vec![5, 6, 7]);
        assert_eq!(k.rank(), 4);
        assert_eq!(k.order(), 3);
    }
}
