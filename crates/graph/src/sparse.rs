//! Symmetric sparse matrices in CSR layout.

use distenc_linalg::LinOp;

/// A symmetric sparse `n × n` matrix stored in CSR form.
///
/// Only used for similarity matrices `Sₙ` and Laplacians, which are
/// symmetric by construction; both triangles are stored explicitly so that
/// row access is a contiguous slice (fast matvec).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSym {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseSym {
    /// Build from triplets `(i, j, v)`. For every off-diagonal triplet the
    /// mirrored `(j, i, v)` is inserted automatically; duplicates are
    /// summed.
    ///
    /// # Panics
    /// Panics if any index is `≥ n`.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut full: Vec<(usize, usize, f64)> = Vec::with_capacity(triplets.len() * 2);
        for &(i, j, v) in triplets {
            assert!(i < n && j < n, "triplet ({i},{j}) out of bounds for n={n}");
            full.push((i, j, v));
            if i != j {
                full.push((j, i, v));
            }
        }
        full.sort_by_key(|a| (a.0, a.1));

        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(full.len());
        let mut values: Vec<f64> = Vec::with_capacity(full.len());
        let mut last: Option<(usize, usize)> = None;
        for (i, j, v) in full {
            if last == Some((i, j)) {
                *values.last_mut().expect("non-empty") += v;
            } else {
                col_idx.push(j);
                values.push(v);
                row_ptr[i + 1] += 1;
                last = Some((i, j));
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        SparseSym { n, row_ptr, col_idx, values }
    }

    /// Dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (directed) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `i` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Entry lookup (O(row degree)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        cols.iter()
            .position(|&c| c == j)
            .map_or(0.0, |p| vals[p])
    }

    /// Row sums (degrees `dᵢ = Σⱼ Sᵢⱼ` for the Laplacian).
    pub(crate) fn row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| self.row(i).1.iter().sum())
            .collect()
    }

    /// `out = S * x`.
    pub(crate) fn matvec(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        for (i, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            *o = cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum();
        }
    }

    /// Connected components (BFS), each a sorted list of node ids.
    /// Community-style similarity graphs are unions of disconnected
    /// blocks; eigensolvers exploit this heavily.
    pub(crate) fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut out = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            queue.push_back(start);
            let mut comp = vec![start];
            while let Some(u) = queue.pop_front() {
                let (cols, _) = self.row(u);
                for &v in cols {
                    if !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                        queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Verify symmetry (test helper; `O(nnz · degree)`).
    #[cfg(test)]
    pub(crate) fn is_symmetric(&self) -> bool {
        (0..self.n).all(|i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .all(|(&j, &v)| (self.get(j, i) - v).abs() < 1e-12)
        })
    }
}

impl LinOp for SparseSym {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.matvec(x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_off_diagonal_entries() {
        let s = SparseSym::from_triplets(3, &[(0, 1, 2.0), (2, 2, 5.0)]);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(1, 0), 2.0);
        assert_eq!(s.get(2, 2), 5.0);
        assert_eq!(s.get(0, 2), 0.0);
        assert!(s.is_symmetric());
    }

    #[test]
    fn duplicates_are_summed() {
        let s = SparseSym::from_triplets(2, &[(0, 1, 1.0), (0, 1, 2.0)]);
        // Each triplet mirrors, then duplicates merge: (0,1) = 3.
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.get(1, 0), 3.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn row_sums_are_degrees() {
        let s = SparseSym::from_triplets(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(s.row_sums(), vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn matvec_matches_manual() {
        let s = SparseSym::from_triplets(3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 0, 1.0)]);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        s.matvec(&x, &mut y);
        assert_eq!(y, [1.0 * 1.0 + 2.0 * 2.0, 2.0 * 1.0 + 3.0 * 3.0, 3.0 * 2.0]);
    }

    #[test]
    fn empty_matrix() {
        let s = SparseSym::from_triplets(4, &[]);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.row_sums(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_triplet_panics() {
        SparseSym::from_triplets(2, &[(0, 5, 1.0)]);
    }
}
