//! Small dense tensors — test oracles only.
//!
//! Everything here materializes `∏ dims` doubles, so it is only used in
//! tests and examples on tiny shapes. The production algorithms never
//! densify (that is the entire point of §III-D).

use crate::coo::CooTensor;
use crate::kruskal::KruskalTensor;
use distenc_linalg::Mat;

/// A dense N-order tensor in row-major (last mode fastest) layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// All-zero tensor.
    pub(crate) fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        DenseTensor { shape, data: vec![0.0; len] }
    }

    /// Densify a sparse tensor (sums duplicate coordinates).
    pub fn from_coo(t: &CooTensor) -> Self {
        let mut d = DenseTensor::zeros(t.shape().to_vec());
        for (idx, v) in t.iter() {
            let off = d.offset(idx);
            d.data[off] += v;
        }
        d
    }

    /// Materialize a CP model.
    pub fn from_kruskal(k: &KruskalTensor) -> Self {
        let shape = k.shape();
        let mut d = DenseTensor::zeros(shape.clone());
        let mut idx = vec![0usize; shape.len()];
        for off in 0..d.data.len() {
            d.unoffset(off, &mut idx);
            d.data[off] = k.eval(&idx);
        }
        d
    }

    /// Flat offset of an index tuple.
    fn offset(&self, index: &[usize]) -> usize {
        let mut off = 0;
        for (&i, &dim) in index.iter().zip(&self.shape) {
            debug_assert!(i < dim);
            off = off * dim + i;
        }
        off
    }

    /// Inverse of [`Self::offset`].
    fn unoffset(&self, mut off: usize, out: &mut [usize]) {
        for (slot, &dim) in out.iter_mut().zip(&self.shape).rev() {
            *slot = off % dim;
            off /= dim;
        }
    }

    /// Element accessor.
    #[cfg(test)]
    pub(crate) fn get(&self, index: &[usize]) -> f64 {
        self.data[self.offset(index)]
    }

    /// Element setter.
    pub fn set(&mut self, index: &[usize], v: f64) {
        let off = self.offset(index);
        self.data[off] = v;
    }

    /// Squared Frobenius norm.
    pub fn frob_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Mode-`n` matricization `X₍ₙ₎` (Definition 2.1.5): an
    /// `Iₙ × ∏_{k≠n} Iₖ` matrix. Column ordering follows the convention
    /// where mode indices vary with the *later* modes fastest, matching
    /// [`crate::khatri_rao::khatri_rao_skip`]; the pair is validated
    /// against each other in tests of Eq. 15.
    pub fn matricize(&self, mode: usize) -> Mat {
        let n = self.shape.len();
        assert!(mode < n);
        let rows = self.shape[mode];
        let cols: usize = self
            .shape
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &d)| d)
            .product();
        let mut m = Mat::zeros(rows, cols);
        let mut idx = vec![0usize; n];
        for off in 0..self.data.len() {
            self.unoffset(off, &mut idx);
            // Column index: mix all modes except `mode`, ordered so that
            // smaller mode numbers vary slowest (A ⊙ B ⊙ … with the skip
            // convention below).
            let mut col = 0;
            for (k, (&i, &dim)) in idx.iter().zip(&self.shape).enumerate() {
                if k == mode {
                    continue;
                }
                col = col * dim + i;
            }
            m.set(idx[mode], col, self.data[off]);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coo_round_trip() {
        let coo = CooTensor::from_entries(
            vec![2, 3],
            &[(&[0, 1], 4.0), (&[1, 2], -2.0)],
        )
        .unwrap();
        let d = DenseTensor::from_coo(&coo);
        assert_eq!(d.get(&[0, 1]), 4.0);
        assert_eq!(d.get(&[1, 2]), -2.0);
        assert_eq!(d.get(&[0, 0]), 0.0);
    }

    #[test]
    fn offset_unoffset_inverse() {
        let d = DenseTensor::zeros(vec![3, 4, 5]);
        let mut idx = vec![0; 3];
        for off in 0..60 {
            d.unoffset(off, &mut idx);
            assert_eq!(d.offset(&idx), off);
        }
    }

    #[test]
    fn matricize_shape() {
        let d = DenseTensor::zeros(vec![3, 4, 5]);
        assert_eq!(d.matricize(0).shape(), (3, 20));
        assert_eq!(d.matricize(1).shape(), (4, 15));
        assert_eq!(d.matricize(2).shape(), (5, 12));
    }

    #[test]
    fn matricize_preserves_entries() {
        let mut d = DenseTensor::zeros(vec![2, 2, 2]);
        d.set(&[1, 0, 1], 7.0);
        let m = d.matricize(0);
        // Column index for (j=0, k=1) with modes 1,2 mixed j-major: 0*2+1.
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.frob_norm(), d.frob_norm_sq().sqrt());
    }
}
