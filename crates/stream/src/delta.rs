//! Validated change sets over an observed tensor.

use distenc_core::CoreError;
use distenc_tensor::CooTensor;

/// Errors from delta validation and application. Every misuse surfaces as
/// a typed error — no path in this crate panics on user input.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A coordinate lies outside the (grown) tensor shape.
    OutOfRange {
        /// The offending coordinate.
        index: Vec<usize>,
        /// The shape it was checked against (base shape plus growth).
        shape: Vec<usize>,
    },
    /// The same cell appears more than once within one batch (across
    /// inserts and updates combined).
    DuplicateInBatch {
        /// The repeated coordinate.
        index: Vec<usize>,
    },
    /// The initial tensor of a streaming solver holds a cell more than
    /// once.
    DuplicateInTensor {
        /// The first repeated coordinate, in index order.
        index: Vec<usize>,
    },
    /// An update targets a cell the tensor has never observed.
    UnobservedUpdate {
        /// The coordinate with no matching entry.
        index: Vec<usize>,
    },
    /// An insert targets a cell that is already observed (use an update).
    AlreadyObserved {
        /// The coordinate that already exists.
        index: Vec<usize>,
    },
    /// Dimension growth on a mode that carries auxiliary similarity
    /// information: the Laplacian's row space cannot be grown
    /// incrementally, so the batch is refused rather than silently
    /// dropping the regularizer.
    GrowthWithAux {
        /// The mode whose Laplacian blocks the growth.
        mode: usize,
    },
    /// Structural problems: wrong arity, shape mismatch against the
    /// solver's tensor, a batch built for a different base shape.
    BadBatch(String),
    /// Propagated solver-core failure.
    Core(CoreError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfRange { index, shape } => {
                write!(f, "coordinate {index:?} is outside the grown shape {shape:?}")
            }
            StreamError::DuplicateInBatch { index } => {
                write!(f, "coordinate {index:?} appears more than once in the batch")
            }
            StreamError::DuplicateInTensor { index } => {
                write!(f, "coordinate {index:?} appears more than once in the initial tensor")
            }
            StreamError::UnobservedUpdate { index } => {
                write!(f, "update targets unobserved cell {index:?}")
            }
            StreamError::AlreadyObserved { index } => {
                write!(f, "insert targets already-observed cell {index:?}")
            }
            StreamError::GrowthWithAux { mode } => {
                write!(
                    f,
                    "mode {mode} carries a similarity Laplacian; its dimension cannot grow incrementally"
                )
            }
            StreamError::BadBatch(msg) => write!(f, "malformed delta batch: {msg}"),
            StreamError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CoreError> for StreamError {
    fn from(e: CoreError) -> Self {
        StreamError::Core(e)
    }
}

impl From<distenc_tensor::TensorError> for StreamError {
    fn from(e: distenc_tensor::TensorError) -> Self {
        StreamError::Core(CoreError::Tensor(e))
    }
}

/// One validated change set against a tensor of a known shape.
///
/// A batch can hold, in any combination:
/// * **growth** — per-mode dimension increases (new slice indices appear
///   at the top of each grown mode);
/// * **inserts** — new nonzeros, which may live in the grown region;
/// * **updates** — revised values for cells that are already observed.
///
/// Construction ([`DeltaBatch::try_new`]) checks everything checkable
/// without the tensor itself: coordinate arity, bounds against the grown
/// shape, and cross-batch duplicates. Observedness (updates must hit
/// existing entries, inserts must not) is checked at apply time by
/// [`crate::StreamingSolver::apply`], which rejects the whole batch
/// before mutating anything.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    base_shape: Vec<usize>,
    growth: Vec<usize>,
    inserts: Vec<(Vec<usize>, f64)>,
    updates: Vec<(Vec<usize>, f64)>,
}

impl DeltaBatch {
    /// Validate and build a batch against `base_shape` (the shape of the
    /// tensor the batch will be applied to). `growth[n]` is how many new
    /// indices mode `n` gains; coordinates are checked against
    /// `base_shape + growth`. Inserts and updates are stored sorted in
    /// lexicographic coordinate order.
    pub fn try_new(
        base_shape: &[usize],
        growth: &[usize],
        inserts: Vec<(Vec<usize>, f64)>,
        updates: Vec<(Vec<usize>, f64)>,
    ) -> crate::Result<Self> {
        let order = base_shape.len();
        if order == 0 {
            return Err(StreamError::BadBatch("base shape has no modes".into()));
        }
        if growth.len() != order {
            return Err(StreamError::BadBatch(format!(
                "growth has {} modes, base shape has {order}",
                growth.len()
            )));
        }
        let new_shape: Vec<usize> =
            base_shape.iter().zip(growth).map(|(&d, &g)| d + g).collect();
        for (idx, _) in inserts.iter().chain(&updates) {
            if idx.len() != order {
                return Err(StreamError::BadBatch(format!(
                    "coordinate {idx:?} has {} modes, tensor has {order}",
                    idx.len()
                )));
            }
            if idx.iter().zip(&new_shape).any(|(&i, &d)| i >= d) {
                return Err(StreamError::OutOfRange {
                    index: idx.clone(),
                    shape: new_shape,
                });
            }
        }
        // Updates must address cells that existed before this batch, so
        // they can never legally touch the grown region.
        for (idx, _) in &updates {
            if idx.iter().zip(base_shape).any(|(&i, &d)| i >= d) {
                return Err(StreamError::UnobservedUpdate { index: idx.clone() });
            }
        }
        let mut keys: Vec<&[usize]> =
            inserts.iter().chain(&updates).map(|(idx, _)| idx.as_slice()).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(StreamError::DuplicateInBatch { index: w[0].to_vec() });
        }
        let mut inserts = inserts;
        let mut updates = updates;
        inserts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        updates.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(DeltaBatch { base_shape: base_shape.to_vec(), growth: growth.to_vec(), inserts, updates })
    }

    /// Read a batch off a delta in tensor form (one `.coo` file of the
    /// `distenc stream` CLI) against the tensor it will be applied to:
    /// entries on cells `observed` already holds become updates, all
    /// others inserts, and wherever `delta`'s shape exceeds `observed`'s
    /// the mode grows to it.
    pub fn from_coo(observed: &CooTensor, delta: &CooTensor) -> crate::Result<Self> {
        if delta.order() != observed.order() {
            return Err(StreamError::BadBatch(format!(
                "delta is order {}, tensor is {}",
                delta.order(),
                observed.order()
            )));
        }
        let base = observed.shape();
        let growth: Vec<usize> =
            delta.shape().iter().zip(base).map(|(&d, &b)| d.saturating_sub(b)).collect();
        let (mut inserts, mut updates) = (Vec::new(), Vec::new());
        for (idx, v) in delta.iter() {
            if observed.position_of(idx).is_some() {
                updates.push((idx.to_vec(), v));
            } else {
                inserts.push((idx.to_vec(), v));
            }
        }
        DeltaBatch::try_new(base, &growth, inserts, updates)
    }

    /// The shape this batch was validated against.
    pub(crate) fn base_shape(&self) -> &[usize] {
        &self.base_shape
    }

    /// Per-mode dimension growth.
    pub(crate) fn growth(&self) -> &[usize] {
        &self.growth
    }

    /// The shape after applying this batch.
    pub(crate) fn new_shape(&self) -> Vec<usize> {
        self.base_shape.iter().zip(&self.growth).map(|(&d, &g)| d + g).collect()
    }

    /// New nonzeros, sorted by coordinate.
    pub(crate) fn inserts(&self) -> &[(Vec<usize>, f64)] {
        &self.inserts
    }

    /// Value revisions to existing entries, sorted by coordinate.
    pub(crate) fn updates(&self) -> &[(Vec<usize>, f64)] {
        &self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_batch() {
        let b = DeltaBatch::try_new(
            &[4, 3],
            &[1, 0],
            vec![(vec![4, 2], 1.0), (vec![0, 1], 2.0)],
            vec![(vec![3, 0], -1.0)],
        )
        .unwrap();
        assert_eq!(b.new_shape(), vec![5, 3]);
        // Inserts come back sorted.
        assert_eq!(b.inserts()[0].0, vec![0, 1]);
    }

    #[test]
    fn from_coo_splits_updates_inserts_and_growth() {
        let observed =
            CooTensor::from_entries(vec![4, 3], &[(&[0, 1], 1.0), (&[3, 0], 2.0)]).unwrap();
        // One observed cell, one new cell, one cell in a grown slice.
        let delta = CooTensor::from_entries(
            vec![5, 3],
            &[(&[3, 0], -1.0), (&[1, 1], 7.0), (&[4, 2], 8.0)],
        )
        .unwrap();
        let b = DeltaBatch::from_coo(&observed, &delta).unwrap();
        assert_eq!(b.base_shape(), &[4, 3]);
        assert_eq!(b.growth(), &[1, 0]);
        assert_eq!(b.updates(), &[(vec![3, 0], -1.0)]);
        assert_eq!(b.inserts(), &[(vec![1, 1], 7.0), (vec![4, 2], 8.0)]);
        // A smaller header never shrinks the tensor; a wrong order is typed.
        let small = CooTensor::from_entries(vec![2, 2], &[(&[0, 1], 5.0)]).unwrap();
        assert_eq!(DeltaBatch::from_coo(&observed, &small).unwrap().growth(), &[0, 0]);
        let cube = CooTensor::new(vec![4, 3, 2]);
        assert!(matches!(
            DeltaBatch::from_coo(&observed, &cube),
            Err(StreamError::BadBatch(_))
        ));
    }

    #[test]
    fn rejects_out_of_range_coordinates() {
        let err = DeltaBatch::try_new(&[4, 3], &[0, 0], vec![(vec![4, 0], 1.0)], vec![])
            .unwrap_err();
        assert_eq!(
            err,
            StreamError::OutOfRange { index: vec![4, 0], shape: vec![4, 3] }
        );
        // The same coordinate is fine once growth covers it.
        assert!(DeltaBatch::try_new(&[4, 3], &[1, 0], vec![(vec![4, 0], 1.0)], vec![]).is_ok());
    }

    #[test]
    fn rejects_duplicates_within_a_batch() {
        let err = DeltaBatch::try_new(
            &[4, 3],
            &[0, 0],
            vec![(vec![1, 1], 1.0), (vec![1, 1], 2.0)],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, StreamError::DuplicateInBatch { index: vec![1, 1] });
        // Also across the insert/update split.
        let err = DeltaBatch::try_new(
            &[4, 3],
            &[0, 0],
            vec![(vec![2, 1], 1.0)],
            vec![(vec![2, 1], 2.0)],
        )
        .unwrap_err();
        assert_eq!(err, StreamError::DuplicateInBatch { index: vec![2, 1] });
    }

    #[test]
    fn rejects_updates_into_the_grown_region() {
        let err = DeltaBatch::try_new(&[4, 3], &[1, 0], vec![], vec![(vec![4, 0], 1.0)])
            .unwrap_err();
        assert_eq!(err, StreamError::UnobservedUpdate { index: vec![4, 0] });
    }

    #[test]
    fn rejects_malformed_arity() {
        assert!(matches!(
            DeltaBatch::try_new(&[4, 3], &[0], vec![], vec![]),
            Err(StreamError::BadBatch(_))
        ));
        assert!(matches!(
            DeltaBatch::try_new(&[4, 3], &[0, 0], vec![(vec![1], 1.0)], vec![]),
            Err(StreamError::BadBatch(_))
        ));
    }
}
