//! Coordinate-format sparse tensors.

use crate::{Result, TensorError};
use std::mem::MaybeUninit;

/// An N-order sparse tensor in coordinate (COO) format.
///
/// Indices are stored flattened: entry `e`'s index tuple occupies
/// `indices[e*N .. (e+1)*N]`. This keeps one contiguous allocation per
/// tensor and makes per-entry access cache-friendly during MTTKRP.
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    shape: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CooTensor {
    /// An empty tensor with the given shape.
    ///
    /// Convenience wrapper over [`CooTensor::try_new`] for shapes known
    /// to be well-formed (literals, shapes copied from an existing
    /// tensor). Library code handling *external* shapes — parsed files,
    /// user configuration — should call `try_new` and propagate the
    /// error.
    ///
    /// # Panics
    /// Panics if `shape` is empty or has a zero dimension.
    pub fn new(shape: Vec<usize>) -> Self {
        match Self::try_new(shape) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// An empty tensor with the given shape, rejecting malformed shapes
    /// (empty, or any zero dimension) with
    /// [`TensorError::InvalidShape`].
    pub fn try_new(shape: Vec<usize>) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::InvalidShape { shape, reason: "tensor order must be ≥ 1" });
        }
        if shape.contains(&0) {
            return Err(TensorError::InvalidShape { shape, reason: "dimensions must be positive" });
        }
        Ok(CooTensor { shape, indices: Vec::new(), values: Vec::new() })
    }

    /// Build from parallel `(index tuple, value)` entries, validating
    /// bounds.
    pub fn from_entries(shape: Vec<usize>, entries: &[(&[usize], f64)]) -> Result<Self> {
        let mut t = CooTensor::try_new(shape)?;
        t.reserve(entries.len());
        for (idx, v) in entries {
            t.push(idx, *v)?;
        }
        Ok(t)
    }

    /// Reserve space for `n` additional entries.
    pub fn reserve(&mut self, n: usize) {
        self.indices.reserve(n * self.order());
        self.values.reserve(n);
    }

    /// Reserve space for exactly `n` additional entries, where
    /// [`CooTensor::reserve`] may double the storage.
    pub(crate) fn reserve_exact(&mut self, n: usize) {
        self.indices.reserve_exact(n * self.order());
        self.values.reserve_exact(n);
    }

    /// Append `n` entries that `fill` writes in place: it is handed the
    /// `n · N` index slots and the `n` value slots past the current end,
    /// uninitialised, and may split them between threads. On `Ok` the
    /// entries are part of the tensor; on `Err` the tensor is as it was.
    /// Storage grows the way [`CooTensor::reserve`] grows it.
    ///
    /// # Safety
    /// On `Ok`, `fill` has written every slot it was handed, and every
    /// index it wrote is in bounds for its mode: nothing checks either.
    pub(crate) unsafe fn append_in_place<E>(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut [MaybeUninit<usize>], &mut [MaybeUninit<f64>]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let width = n * self.order();
        self.reserve(n);
        fill(
            &mut self.indices.spare_capacity_mut()[..width],
            &mut self.values.spare_capacity_mut()[..n],
        )?;
        // SAFETY: `reserve` made room for both, and the caller vouches
        // that `fill` initialised every slot before returning `Ok`.
        unsafe {
            self.indices.set_len(self.indices.len() + width);
            self.values.set_len(self.values.len() + n);
        }
        Ok(())
    }

    /// A tensor on this one's support holding `values`, one per entry:
    /// the index list is copied whole, with no bounds to check again.
    pub(crate) fn with_values(&self, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), self.nnz(), "one value per entry");
        CooTensor { shape: self.shape.clone(), indices: self.indices.clone(), values }
    }

    /// Append one non-zero entry.
    pub fn push(&mut self, index: &[usize], value: f64) -> Result<()> {
        if index.len() != self.order()
            || index.iter().zip(&self.shape).any(|(&i, &d)| i >= d)
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        self.indices.extend_from_slice(index);
        self.values.push(value);
        Ok(())
    }

    /// Tensor order `N` (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Shape (mode lengths).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of stored non-zero entries, `nnz(X)`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Index tuple of entry `e`.
    #[allow(clippy::should_implement_trait)] // domain term: COO "index" of an entry
    #[inline]
    pub fn index(&self, e: usize) -> &[usize] {
        let n = self.order();
        &self.indices[e * n..(e + 1) * n]
    }

    /// Value of entry `e`.
    #[inline]
    pub fn value(&self, e: usize) -> f64 {
        self.values[e]
    }

    /// Mutable value of entry `e`.
    #[inline]
    pub(crate) fn value_mut(&mut self, e: usize) -> &mut f64 {
        &mut self.values[e]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to all values (the Ω-masked updates rewrite values in
    /// place while indices stay fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterate `(index tuple, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let n = self.order();
        self.indices
            .chunks_exact(n.max(1))
            .zip(self.values.iter().copied())
    }

    /// Number of non-zeros in each slice of `mode` — the `θ⁽ⁿ⁾` histogram
    /// that Algorithm 2 feeds its greedy boundary search.
    pub fn slice_nnz(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode {mode} out of range");
        let mut counts = vec![0usize; self.shape[mode]];
        let n = self.order();
        for chunk in self.indices.chunks_exact(n) {
            counts[chunk[mode]] += 1;
        }
        counts
    }

    /// Squared Frobenius norm over stored entries.
    pub fn frob_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Sort entries lexicographically by index and sum duplicates.
    ///
    /// Generators may emit collisions; algorithms assume each cell appears
    /// once. Stability is the bit contract: a cell's values are summed in
    /// the order they were pushed, left to right, so the sums are the ones
    /// a stable comparator sort gives.
    ///
    /// Cost: entries already in strictly increasing order are one
    /// sequential check, with no allocation and no move. Any other input
    /// is one stable LSD radix sort (see [`CooTensor::sort_distinct`]):
    /// `O(nnz · (N + passes))`, passes being the packed key's bits over
    /// 8–11-bit digits, holding at most `(16N + 16)` bytes per entry live.
    pub fn sort_dedup(&mut self) {
        if !self.strictly_increasing() {
            self.radix_sort(true);
        }
    }

    /// [`CooTensor::sort_dedup`] for callers to whom a cell stored twice
    /// is an error, not a sum: `Err` names the first cell (in index order)
    /// that is stored more than once, and the tensor is then sorted with
    /// that cell's entries side by side, unsummed.
    ///
    /// The sort packs each index tuple into a key of `u64` words, mode
    /// `n` a field `⌈log₂ dₙ⌉` bits wide (none straddles a word), so key
    /// order is index order; the values travel with their keys through
    /// the passes, and the indices are decoded from the keys.
    pub fn sort_distinct(&mut self) -> std::result::Result<(), Vec<usize>> {
        match self.strictly_increasing() {
            true => Ok(()),
            false => self.radix_sort(false).map_or(Ok(()), |e| Err(self.index(e).to_vec())),
        }
    }

    /// Whether every entry's index sorts strictly after its predecessor's.
    fn strictly_increasing(&self) -> bool {
        let n = self.order();
        let mut rows = self.indices.chunks_exact(n);
        let Some(mut prev) = rows.next() else { return true };
        rows.all(|row| std::mem::replace(&mut prev, row) < row)
    }

    /// The one sort body: a stable LSD radix sort over bit-packed keys.
    /// With `merge`, a run of equal keys becomes one entry holding their
    /// sum; without it the run stays, and the return value is the position
    /// of the first entry that repeats its predecessor's cell.
    fn radix_sort(&mut self, merge: bool) -> Option<usize> {
        let (n, nnz) = (self.order(), self.nnz());
        let layout = KeyLayout::new(&self.shape);
        let words = layout.word_bits.len();
        // One record per entry: the key's words, most significant first,
        // then the value's bits.
        let stride = words + 1;
        let mut src = vec![0u64; nnz * stride];
        for ((rec, idx), v) in
            src.chunks_exact_mut(stride).zip(self.indices.chunks_exact(n)).zip(&self.values)
        {
            for (&i, f) in idx.iter().zip(&layout.fields) {
                rec[f.word] |= (i as u64) << f.shift;
            }
            rec[words] = v.to_bits();
        }
        // The keys hold everything now; the peak is theirs and the scratch.
        self.indices = Vec::new();
        self.values = Vec::new();

        let mut dst = vec![0u64; nnz * stride];
        // Least significant digit first: from the low bits of the last word up.
        for (w, &bits) in layout.word_bits.iter().enumerate().rev() {
            let passes = bits.div_ceil(MAX_DIGIT_BITS);
            let width = if passes == 0 { 0 } else { bits.div_ceil(passes) };
            for p in 0..passes {
                let shift = p * width;
                let mask = (1u64 << width.min(bits - shift)) - 1;
                let digit = |rec: &[u64]| ((rec[w] >> shift) & mask) as usize;
                let mut counts = [0usize; 1 << MAX_DIGIT_BITS];
                for rec in src.chunks_exact(stride) {
                    counts[digit(rec)] += 1;
                }
                // Every key shares this digit: the pass would move nothing.
                if counts[digit(&src[..stride])] == nnz {
                    continue;
                }
                let mut start = 0;
                for c in &mut counts[..=mask as usize] {
                    start += std::mem::replace(c, start);
                }
                for rec in src.chunks_exact(stride) {
                    let slot = &mut counts[digit(rec)];
                    let at = *slot * stride;
                    *slot += 1;
                    for (d, &s) in dst[at..at + stride].iter_mut().zip(rec) {
                        *d = s;
                    }
                }
                std::mem::swap(&mut src, &mut dst);
            }
        }
        drop(dst);

        let mut indices = Vec::with_capacity(nnz * n);
        let mut values: Vec<f64> = Vec::with_capacity(nnz);
        let mut repeat = None;
        let mut prev: Option<&[u64]> = None;
        for rec in src.chunks_exact(stride) {
            let (key, v) = (&rec[..words], f64::from_bits(rec[words]));
            if prev == Some(key) {
                if merge {
                    *values.last_mut().expect("a previous entry") += v;
                    continue;
                }
                repeat.get_or_insert(values.len());
            }
            prev = Some(key);
            let decode = |f: &KeyField| ((rec[f.word] >> f.shift) & f.mask) as usize;
            indices.extend(layout.fields.iter().map(decode));
            values.push(v);
        }
        self.indices = indices;
        self.values = values;
        repeat
    }

    /// Binary-search the entries for `index`: `Ok(position)` of the entry
    /// holding it, or `Err(position)` of where it would have to be
    /// inserted to keep the order (the [`slice::binary_search`]
    /// convention). A tuple of the wrong order is no cell of this tensor:
    /// it is never found, and its `Err` is the end of the list.
    ///
    /// Requires the entries to be in lexicographic index order (the
    /// [`CooTensor::sort_dedup`] invariant); on unsorted tensors the
    /// result is meaningless. `O(N · log nnz)`, each probe a cold line:
    /// a sorted run of cells is located faster by
    /// [`CooTensor::search_from`].
    pub fn search(&self, index: &[usize]) -> std::result::Result<usize, usize> {
        self.lower_bound(index, 0, self.nnz())
    }

    /// [`CooTensor::search`] for a cell that sorts after every entry in
    /// front of `from`, with the same answer: a galloping walk probes
    /// `from`, `from + 1`, `from + 3`, … until it passes the cell, then
    /// bisects the last step. Walking a sorted run of cells, each search
    /// starting where the previous one ended, costs
    /// `O(N · |run| · log(nnz / |run|))` over nearby lines instead of
    /// `|run|` cold searches of the whole list. A `from` that breaks the
    /// premise gives a meaningless result, as an unsorted tensor does.
    pub fn search_from(&self, index: &[usize], from: usize) -> std::result::Result<usize, usize> {
        let (mut lo, mut probe, mut step) = (from.min(self.nnz()), from, 1);
        if index.len() == self.order() {
            while probe < self.nnz() && self.index(probe) < index {
                lo = probe + 1;
                probe += step;
                step *= 2;
            }
        }
        self.lower_bound(index, lo, probe.min(self.nnz()))
    }

    /// The first position in `lo..hi` whose entry is not less than
    /// `index` (every entry before `lo` is, none from `hi` on is),
    /// as [`CooTensor::search`] reports it.
    fn lower_bound(
        &self,
        index: &[usize],
        mut lo: usize,
        mut hi: usize,
    ) -> std::result::Result<usize, usize> {
        // Also what tells the compiler that the loop compares slices of
        // one length: without it a lookup measured 1.3× slower.
        if index.len() != self.order() {
            return Err(self.nnz());
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.index(mid) < index {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.nnz() && self.index(lo) == index {
            Ok(lo)
        } else {
            Err(lo)
        }
    }

    /// The position of the entry holding `index`, `None` when the cell is
    /// not stored (or the tuple has the wrong order) — [`Self::search`]
    /// for callers with no use for the insertion point.
    pub fn position_of(&self, index: &[usize]) -> Option<usize> {
        self.search(index).ok()
    }

    /// Insert `patch`'s entries, entry `k` in front of the entry that is
    /// now at position `points[k]` (`nnz` appends). `points` are the
    /// [`Self::search`] misses of `patch`'s index tuples, in `patch`'s
    /// (sorted) order, so they never decrease; entries sharing a point
    /// keep their `patch` order. That is what a merge of two sorted
    /// lists with no cell in common does, without comparing or copying
    /// the entries that stay: both vectors grow by exactly the batch and
    /// every run between two insertion points moves up once, as a block.
    ///
    /// A shape mismatch, a point count that is not `patch`'s entry count,
    /// a point past the end and a decreasing pair of points are typed
    /// errors, found before anything moves. Whether each point is where
    /// its tuple belongs is the caller's contract (it searched for it).
    pub fn splice(&mut self, points: &[usize], patch: &CooTensor) -> Result<()> {
        if patch.shape != self.shape {
            return Err(TensorError::ShapeMismatch(format!(
                "cannot splice shape {:?} into shape {:?}",
                patch.shape, self.shape
            )));
        }
        check_points(points, patch.nnz(), self.nnz())?;
        splice_runs(&mut self.indices, self.shape.len(), points, &patch.indices);
        splice_runs(&mut self.values, 1, points, &patch.values);
        Ok(())
    }

    /// Grow the tensor's shape in place (dimension growth: new slice
    /// indices appended to the end of one or more modes). Every mode of
    /// `new_shape` must be at least as long as the current one; stored
    /// entries are untouched and stay valid.
    pub fn grow_shape(&mut self, new_shape: &[usize]) -> Result<()> {
        if new_shape.len() != self.order()
            || new_shape.iter().zip(&self.shape).any(|(&n, &o)| n < o)
        {
            return Err(TensorError::InvalidShape {
                shape: new_shape.to_vec(),
                reason: "grown shape must keep the order and dominate every mode",
            });
        }
        self.shape = new_shape.to_vec();
        Ok(())
    }

    /// The set of distinct indices appearing in `mode`, sorted. Determines
    /// which factor-matrix rows are "active" (the basis of DisTenC's and
    /// SCouT's ability to scale to 10⁹-dimensional modes with 10⁷
    /// non-zeros; see DESIGN.md §5).
    pub fn active_indices(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode {mode} out of range");
        let n = self.order();
        let mut idx: Vec<usize> = self
            .indices
            .chunks_exact(n)
            .map(|chunk| chunk[mode])
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }

}

/// The widest digit of [`CooTensor::sort_dedup`]'s radix passes: 2¹¹
/// counts, 16 KiB on the stack. A word's bits are split into the fewest
/// passes whose digits are at most this wide, all of one width.
const MAX_DIGIT_BITS: u32 = 11;

/// Where one mode's index sits in a packed key.
struct KeyField {
    word: usize,
    shift: u32,
    mask: u64,
}

/// How an index tuple packs into a key of `u64` words whose order is the
/// tuples' lexicographic order: mode `n` is a field `⌈log₂ dₙ⌉` bits
/// wide, the modes fill the words in order (the first word the most
/// significant, an earlier mode in higher bits than a later one in its
/// word), and a field that would straddle a word starts the next one.
/// The paper's 10⁹ × 10⁹ × 10⁹ is three 30-bit fields in two words.
struct KeyLayout {
    fields: Vec<KeyField>,
    /// The bits each word uses, its low bits.
    word_bits: Vec<u32>,
}

impl KeyLayout {
    fn new(shape: &[usize]) -> Self {
        let mut word_bits = vec![0u32];
        let mut placed = Vec::with_capacity(shape.len());
        for &d in shape {
            let bits = usize::BITS - (d - 1).leading_zeros();
            if word_bits[word_bits.len() - 1] + bits > u64::BITS {
                word_bits.push(0);
            }
            let word = word_bits.len() - 1;
            placed.push((word, word_bits[word], bits));
            word_bits[word] += bits;
        }
        // A field's shift is the bits of the fields after it in its word.
        let fields = placed
            .into_iter()
            .map(|(word, offset, bits)| match bits {
                0 => KeyField { word, shift: 0, mask: 0 },
                _ => KeyField {
                    word,
                    shift: word_bits[word] - offset - bits,
                    mask: u64::MAX >> (u64::BITS - bits),
                },
            })
            .collect();
        KeyLayout { fields, word_bits }
    }
}

/// One insertion point per patch entry, ascending, none past `old`.
fn check_points(points: &[usize], entries: usize, old: usize) -> Result<()> {
    let ordered = points.windows(2).all(|w| w[0] <= w[1]);
    if points.len() != entries || !ordered || points.last().is_some_and(|&p| p > old) {
        return Err(TensorError::ShapeMismatch(format!(
            "{} insertion points for {entries} entries into {old}: they must be one per entry, \
             ascending and at most {old}",
            points.len(),
        )));
    }
    Ok(())
}

/// The one splice body: `data` holds rows of `width` elements, and patch
/// row `k` goes in front of the row now at `points[k]` (checked points).
/// Back to front, the run above insertion point `k` moves up by the
/// `k + 1` rows that land below it, then row `k` fills the gap.
fn splice_runs<T: Copy + Default>(data: &mut Vec<T>, width: usize, points: &[usize], patch: &[T]) {
    let old = data.len() / width;
    data.reserve_exact(patch.len());
    data.resize(data.len() + patch.len(), T::default());
    let mut end = old;
    for (k, &at) in points.iter().enumerate().rev() {
        data.copy_within(at * width..end * width, (at + k + 1) * width);
        data[(at + k) * width..(at + k + 1) * width]
            .copy_from_slice(&patch[k * width..(k + 1) * width]);
        end = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor {
        CooTensor::from_entries(
            vec![3, 4, 2],
            &[
                (&[0, 0, 0], 1.0),
                (&[1, 2, 1], 2.0),
                (&[2, 3, 0], 3.0),
                (&[1, 0, 1], 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.order(), 3);
        assert_eq!(t.shape(), &[3, 4, 2]);
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.index(1), &[1, 2, 1]);
        assert_eq!(t.value(2), 3.0);
    }

    #[test]
    fn try_new_rejects_malformed_shapes() {
        assert!(matches!(
            CooTensor::try_new(vec![]),
            Err(TensorError::InvalidShape { .. })
        ));
        assert!(matches!(
            CooTensor::try_new(vec![3, 0, 2]),
            Err(TensorError::InvalidShape { .. })
        ));
        assert_eq!(CooTensor::try_new(vec![3, 2]).unwrap().shape(), &[3, 2]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = CooTensor::new(vec![2, 2]);
        assert!(matches!(
            t.push(&[2, 0], 1.0),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(t.push(&[0, 0, 0], 1.0).is_err()); // wrong order
    }

    #[test]
    fn slice_nnz_counts_per_slice() {
        let t = sample();
        assert_eq!(t.slice_nnz(0), vec![1, 2, 1]);
        assert_eq!(t.slice_nnz(1), vec![2, 0, 1, 1]);
        assert_eq!(t.slice_nnz(2), vec![2, 2]);
    }

    #[test]
    fn frob_norm_known() {
        let t = sample();
        assert!((t.frob_norm_sq() - (1.0 + 4.0 + 9.0 + 16.0)).abs() < 1e-14);
    }

    #[test]
    fn sort_dedup_merges_duplicates() {
        let mut t = CooTensor::from_entries(
            vec![2, 2],
            &[(&[1, 1], 1.0), (&[0, 0], 2.0), (&[1, 1], 3.0)],
        )
        .unwrap();
        t.sort_dedup();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.index(0), &[0, 0]);
        assert_eq!(t.value(0), 2.0);
        assert_eq!(t.index(1), &[1, 1]);
        assert_eq!(t.value(1), 4.0);
    }

    /// The comparator sort `sort_dedup` replaced, kept as its oracle: a
    /// stable sort of entry positions by index tuple, then one pass that
    /// sums each run of equal tuples in push order.
    fn comparator_sort_dedup(t: &CooTensor) -> CooTensor {
        let n = t.order();
        let mut order: Vec<usize> = (0..t.nnz()).collect();
        order.sort_by(|&a, &b| t.index(a).cmp(t.index(b)));
        let mut out = CooTensor::new(t.shape().to_vec());
        for &e in &order {
            let dup = out.nnz() > 0 && &out.indices[out.indices.len() - n..] == t.index(e);
            if dup {
                *out.values.last_mut().unwrap() += t.values[e];
            } else {
                out.indices.extend_from_slice(t.index(e));
                out.values.push(t.values[e]);
            }
        }
        out
    }

    fn value_bits(t: &CooTensor) -> Vec<u64> {
        t.values().iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The radix sort is the comparator sort, indices and value bits:
        /// at orders 1 to 6, on modes of length 1, on shapes whose packed
        /// key takes two or more words, on inputs where most entries
        /// repeat a few cells with values whose sums depend on their order,
        /// and on empty and already-sorted inputs (which it leaves alone).
        #[test]
        fn sort_dedup_is_the_comparator_sort(
            seed in 0u64..100_000,
            order in 1usize..7,
            nnz in 0usize..300,
            cells in 1usize..40,
            wide in 0usize..3,
            presorted in 0usize..3,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            // `wide` picks narrow modes, or up to 2⁶⁴ - 1 long ones.
            let shape: Vec<usize> = (0..order)
                .map(|_| match (wide, rng.random_range(0..4)) {
                    (_, 0) => 1,
                    (0, _) => rng.random_range(2..9),
                    (1, _) => {
                        let bits = rng.random_range(2..40);
                        rng.random_range(2..1usize << bits)
                    }
                    _ => usize::MAX - rng.random_range(0..1usize << 62),
                })
                .collect();
            // A pool of `cells` cells, each drawn often when it is small.
            let pool: Vec<Vec<usize>> = (0..cells)
                .map(|_| shape.iter().map(|&d| rng.random_range(0..d)).collect())
                .collect();
            let mut t = CooTensor::new(shape.clone());
            for _ in 0..nnz {
                let idx = &pool[rng.random_range(0..cells)];
                // Magnitudes 10⁻⁶ to 10⁶: a sum's bits depend on its order.
                let v = (rng.random::<f64>() - 0.5) * 10f64.powi(rng.random_range(-6..7));
                t.push(idx, v).unwrap();
            }
            let want = comparator_sort_dedup(&t);
            let mut order: Vec<usize> = (0..t.nnz()).collect();
            order.sort_by(|&a, &b| t.index(a).cmp(t.index(b)));
            let repeated = order
                .windows(2)
                .find(|w| t.index(w[0]) == t.index(w[1]))
                .map(|w| t.index(w[0]).to_vec());
            match presorted {
                0 => {}
                // Sorted, every cell once: the early return.
                1 => t = want.clone(),
                // Sorted, repeats kept side by side.
                _ => {
                    let mut s = CooTensor::new(shape.clone());
                    for e in order {
                        s.push(t.index(e), t.value(e)).unwrap();
                    }
                    t = s;
                }
            }
            let mut got = t.clone();
            got.sort_dedup();
            proptest::prop_assert_eq!(&got.indices, &want.indices);
            proptest::prop_assert_eq!(value_bits(&got), value_bits(&want));
            // `sort_distinct` sorts the same way and names the first
            // repeated cell instead of summing it.
            let mut distinct = t.clone();
            let res = distinct.sort_distinct();
            match repeated.filter(|_| presorted != 1) {
                None => {
                    proptest::prop_assert_eq!(res, Ok(()));
                    proptest::prop_assert_eq!(&distinct, &got);
                }
                Some(cell) => {
                    proptest::prop_assert_eq!(res, Err(cell));
                    proptest::prop_assert_eq!(distinct.nnz(), t.nnz());
                }
            }
        }
    }

    #[test]
    fn keys_pack_fields_whole_into_words() {
        // The paper's 10⁹-cube: two 30-bit fields in the first word, the
        // third in the second.
        let layout = KeyLayout::new(&[1_000_000_000; 3]);
        assert_eq!(layout.word_bits, vec![60, 30]);
        let at: Vec<(usize, u32)> = layout.fields.iter().map(|f| (f.word, f.shift)).collect();
        assert_eq!(at, vec![(0, 30), (0, 0), (1, 0)]);
        // A mode of length 1 takes no bits; a 2⁶⁴ - 1 long one a word.
        let layout = KeyLayout::new(&[1, usize::MAX, 3, 1]);
        assert_eq!(layout.word_bits, vec![64, 2]);
        assert_eq!(layout.fields[0].mask, 0);
        assert_eq!(layout.fields[1].mask, u64::MAX);
        // The order of keys is the order of tuples across the word break.
        let mut t = CooTensor::new(vec![1_000_000_000; 3]);
        for idx in [[5, 0, 7], [0, 999_999_999, 1], [5, 0, 6], [0, 999_999_999, 0], [5, 0, 7]] {
            t.push(&idx, idx[2] as f64).unwrap();
        }
        t.sort_dedup();
        let have: Vec<Vec<usize>> = t.iter().map(|(i, _)| i.to_vec()).collect();
        let want = [[0, 999_999_999, 0], [0, 999_999_999, 1], [5, 0, 6], [5, 0, 7]];
        assert_eq!(have, want.map(|i| i.to_vec()));
        assert_eq!(t.values(), &[0.0, 1.0, 6.0, 14.0]);
    }

    #[test]
    fn sort_distinct_names_the_first_repeated_cell() {
        let mut t = CooTensor::from_entries(
            vec![3, 3],
            &[(&[2, 2], 1.0), (&[1, 0], 2.0), (&[2, 2], 3.0), (&[0, 1], 4.0), (&[1, 0], 5.0)],
        )
        .unwrap();
        assert_eq!(t.sort_distinct(), Err(vec![1, 0]));
        // Sorted, repeats side by side in push order, nothing summed.
        assert_eq!(t.values(), &[4.0, 2.0, 5.0, 1.0, 3.0]);
        let mut u = CooTensor::from_entries(vec![3, 3], &[(&[2, 2], 1.0), (&[0, 1], 4.0)]).unwrap();
        assert_eq!(u.sort_distinct(), Ok(()));
        assert_eq!(u.index(0), &[0, 1]);
    }

    #[test]
    fn search_from_is_search_from_any_sound_start() {
        let mut t = CooTensor::new(vec![9, 7]);
        for i in (1..8).step_by(2) {
            for j in (0..7).step_by(3) {
                t.push(&[i, j], 1.0).unwrap();
            }
        }
        for i in 0..9 {
            for j in 0..7 {
                let want = t.search(&[i, j]);
                let lower = match want {
                    Ok(p) | Err(p) => p,
                };
                // Every start at or before the cell's place is sound.
                for from in 0..=lower {
                    assert_eq!(t.search_from(&[i, j], from), want, "{i},{j} from {from}");
                }
            }
        }
        assert_eq!(t.search_from(&[1, 1, 1], 3), Err(t.nnz()), "wrong order: nowhere");
        assert_eq!(CooTensor::new(vec![2]).search_from(&[1], 0), Err(0));
    }

    #[test]
    fn active_indices_sorted_unique() {
        let t = sample();
        assert_eq!(t.active_indices(0), vec![0, 1, 2]);
        assert_eq!(t.active_indices(1), vec![0, 2, 3]);
        assert_eq!(t.active_indices(2), vec![0, 1]);
    }

    #[test]
    fn position_of_finds_sorted_entries() {
        let mut t = sample();
        t.sort_dedup();
        for e in 0..t.nnz() {
            assert_eq!(t.position_of(t.index(e)), Some(e));
        }
        assert_eq!(t.position_of(&[0, 1, 0]), None); // absent cell
        assert_eq!(t.position_of(&[0, 0]), None); // wrong order
        // A miss says where the cell would go: before everything, between
        // two entries, past the end.
        assert_eq!(t.search(&[0, 0, 0]), Ok(0));
        assert_eq!(t.search(&[0, 1, 0]), Err(1));
        assert_eq!(t.search(&[2, 3, 1]), Err(4));
        assert_eq!(t.search(&[0, 0]), Err(4)); // wrong order: nowhere
        let empty = CooTensor::new(vec![3, 4, 2]);
        assert_eq!(empty.search(&[1, 1, 1]), Err(0));
    }

    /// The two-pointer merge `splice` replaced in the streaming apply,
    /// kept as its oracle: both operands sorted and of one shape,
    /// colliding cells sum. Compares and copies every entry of both into
    /// fresh vectors.
    fn merge_sorted(a: &mut CooTensor, other: &CooTensor) -> Result<()> {
        if other.shape != a.shape {
            return Err(TensorError::ShapeMismatch(format!(
                "cannot merge shape {:?} into shape {:?}",
                other.shape, a.shape
            )));
        }
        let mut merged = CooTensor::new(a.shape.clone());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.nnz() || j < other.nnz() {
            let ord = match (i < a.nnz(), j < other.nnz()) {
                (true, true) => a.index(i).cmp(other.index(j)),
                (true, false) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            match ord {
                std::cmp::Ordering::Less => {
                    merged.push(a.index(i), a.values[i])?;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.index(j), other.values[j])?;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a.index(i), a.values[i] + other.values[j])?;
                    i += 1;
                    j += 1;
                }
            }
        }
        *a = merged;
        Ok(())
    }

    #[test]
    fn merge_sorted_interleaves_and_sums() {
        let mut a = CooTensor::from_entries(
            vec![4, 4],
            &[(&[0, 0], 1.0), (&[2, 2], 2.0)],
        )
        .unwrap();
        let b = CooTensor::from_entries(
            vec![4, 4],
            &[(&[0, 1], 5.0), (&[2, 2], 3.0), (&[3, 3], 7.0)],
        )
        .unwrap();
        merge_sorted(&mut a, &b).unwrap();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.index(0), &[0, 0]);
        assert_eq!(a.index(1), &[0, 1]);
        assert_eq!(a.value(2), 5.0); // 2.0 + 3.0 at [2,2]
        assert_eq!(a.index(3), &[3, 3]);
        // Result is itself sorted: every lookup works.
        assert_eq!(a.position_of(&[3, 3]), Some(3));
        // Shape mismatch rejected.
        let c = CooTensor::new(vec![5, 4]);
        assert!(merge_sorted(&mut a, &c).is_err());
    }

    /// `base` with the cells of `cells` it does not hold yet spliced in at
    /// their searched points, next to the patch that was spliced.
    fn spliced(base: &CooTensor, cells: &[(Vec<usize>, f64)]) -> (CooTensor, CooTensor) {
        let mut patch = CooTensor::new(base.shape().to_vec());
        for (idx, v) in cells {
            patch.push(idx, *v).unwrap();
        }
        patch.sort_dedup();
        let mut absent = CooTensor::new(base.shape().to_vec());
        let mut points = Vec::new();
        for (idx, v) in patch.iter() {
            if let Err(at) = base.search(idx) {
                points.push(at);
                absent.push(idx, v).unwrap();
            }
        }
        let mut out = base.clone();
        out.splice(&points, &absent).unwrap();
        (out, absent)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Splicing a sorted batch of absent cells in at their searched
        /// points is the merge of the two lists, and the `sort_dedup` of
        /// their concatenation — for batches that land in front of every
        /// entry, behind every entry (a grown slice), in runs sharing one
        /// point and spread through the middle, at orders 1 to 4.
        #[test]
        fn splice_at_searched_points_is_the_merge(
            seed in 0u64..10_000,
            order in 1usize..5,
            base_n in 0usize..40,
            batch_n in 0usize..40,
            grow in 0usize..3,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shape: Vec<usize> = (0..order).map(|_| rng.random_range(2..6)).collect();
            // The base leaves mode 0's first and last slices empty, so
            // batch cells land before its first entry and behind its last.
            shape[0] = shape[0].max(3);
            let mut base = CooTensor::new(shape.clone());
            for _ in 0..base_n {
                let mut idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
                idx[0] = rng.random_range(1..shape[0] - 1);
                base.push(&idx, rng.random::<f64>()).unwrap();
            }
            base.sort_dedup();
            let mut grown = shape.clone();
            grown[0] += grow;
            base.grow_shape(&grown).unwrap();
            let cells: Vec<(Vec<usize>, f64)> = (0..batch_n)
                .map(|_| {
                    let idx = grown.iter().map(|&d| rng.random_range(0..d)).collect();
                    (idx, rng.random::<f64>() + 2.0)
                })
                .collect();

            let (got, absent) = spliced(&base, &cells);
            let mut merged = base.clone();
            merge_sorted(&mut merged, &absent).unwrap();
            proptest::prop_assert_eq!(&got, &merged);
            let mut rebuilt = base.clone();
            for (idx, v) in absent.iter() {
                rebuilt.push(idx, v).unwrap();
            }
            rebuilt.sort_dedup();
            proptest::prop_assert_eq!(&got, &rebuilt);
            proptest::prop_assert_eq!(got.nnz(), base.nnz() + absent.nnz());
        }
    }

    #[test]
    fn splice_covers_the_ends_and_shared_points() {
        let base = CooTensor::from_entries(vec![4, 3], &[(&[1, 1], 1.0), (&[2, 0], 2.0)]).unwrap();
        // Two in front, two sharing the point between the entries, two
        // behind — one of those in a slice the base has never seen.
        let cells = [
            (vec![0, 0], 10.0),
            (vec![0, 2], 11.0),
            (vec![1, 2], 12.0),
            (vec![1, 2], 0.0), // the same cell again: the patch dedups it
            (vec![3, 2], 14.0),
            (vec![2, 1], 13.0),
        ];
        let (got, absent) = spliced(&base, &cells);
        assert_eq!(absent.nnz(), 5);
        let want: Vec<Vec<usize>> =
            vec![vec![0, 0], vec![0, 2], vec![1, 1], vec![1, 2], vec![2, 0], vec![2, 1], vec![3, 2]];
        let have: Vec<Vec<usize>> = got.iter().map(|(i, _)| i.to_vec()).collect();
        assert_eq!(have, want);
        assert_eq!(got.values(), &[10.0, 11.0, 1.0, 12.0, 2.0, 13.0, 14.0]);
        // An empty batch is a no-op; a batch into an empty tensor is the batch.
        let mut same = base.clone();
        same.splice(&[], &CooTensor::new(vec![4, 3])).unwrap();
        assert_eq!(same, base);
        let (filled, _) = spliced(&CooTensor::new(vec![4, 3]), &cells);
        assert_eq!(filled.nnz(), 5);
    }

    #[test]
    fn splice_rejects_bad_points_before_moving_anything() {
        let base = CooTensor::from_entries(vec![4, 3], &[(&[1, 1], 1.0), (&[2, 0], 2.0)]).unwrap();
        let patch =
            CooTensor::from_entries(vec![4, 3], &[(&[0, 0], 5.0), (&[3, 0], 6.0)]).unwrap();
        let mut t = base.clone();
        for points in [&[0usize][..], &[0, 1, 2], &[2, 0], &[0, 3]] {
            assert!(
                matches!(t.splice(points, &patch), Err(TensorError::ShapeMismatch(_))),
                "points {points:?}"
            );
            assert_eq!(t, base, "a rejected splice must leave the tensor alone");
        }
        let other = CooTensor::from_entries(vec![4, 4], &[(&[0, 0], 5.0)]).unwrap();
        assert!(matches!(t.splice(&[0], &other), Err(TensorError::ShapeMismatch(_))));
        t.splice(&[0, 2], &patch).unwrap();
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.position_of(&[3, 0]), Some(3));
    }

    #[test]
    fn grow_shape_extends_modes() {
        let mut t = sample();
        assert!(t.grow_shape(&[3, 4]).is_err()); // wrong order
        assert!(t.grow_shape(&[2, 4, 2]).is_err()); // shrinks mode 0
        t.grow_shape(&[5, 4, 3]).unwrap();
        assert_eq!(t.shape(), &[5, 4, 3]);
        assert_eq!(t.nnz(), 4); // entries untouched
        t.push(&[4, 3, 2], 9.0).unwrap(); // new slices are addressable
    }

    #[test]
    fn iter_yields_all_entries() {
        let t = sample();
        let collected: Vec<(Vec<usize>, f64)> =
            t.iter().map(|(i, v)| (i.to_vec(), v)).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[3], (vec![1, 0, 1], 4.0));
    }
}
