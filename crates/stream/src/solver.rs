//! The streaming solver: delta application + warm re-solves.

use crate::delta::{DeltaBatch, StreamError};
use distenc_core::{AdmmConfig, AdmmSolver, CompletionResult};
use distenc_graph::{Laplacian, TruncatedLaplacian};
use distenc_linalg::Mat;
use distenc_tensor::{CooTensor, KruskalTensor};

/// Seed for the rows appended to a factor when mode `mode` grows past
/// `old_rows` indices. Deterministic in `(base, mode, old_rows)` so a
/// replayed delta sequence reproduces the exact same model regardless of
/// how the sequence is batched — the same Fibonacci-hash mixing the
/// kernels use elsewhere for decorrelating per-mode streams.
fn growth_seed(base: u64, mode: usize, old_rows: usize) -> u64 {
    base.wrapping_add(
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(((mode as u64) << 32) ^ (old_rows as u64) ^ 1),
    )
}

/// Streaming tensor completion: owns the evolving observation set and the
/// current model.
///
/// Lifecycle:
///
/// ```text
/// new(T₀) ── solve() ──▶ model₀            (cold)
///    apply(Δ₁)… apply(Δₖ)                  (incremental fold-in)
///    solve() ──▶ model₁                    (warm: factors)
///    apply(Δ…), solve() ──▶ model₂ …
/// ```
///
/// * `apply` folds a [`DeltaBatch`] into the observed tensor in one pass
///   over the delta. The batch's sorted updates and inserts are each
///   located by one forward walk ([`CooTensor::search_from`]), and inserts
///   are searched for once — the search that proves them absent is the
///   search for where they go — and spliced at those points
///   ([`CooTensor::splice`]). It evaluates the model nowhere: no residual
///   is kept between solves.
/// * `solve` warm-starts ADMM from the previous factors under the
///   configured convergence budget ([`StreamingSolver::set_budget`]); its
///   first sweep derives the residual of the new tensor and banks its first
///   iteration's MTTKRPs, as every solve's does. New slice indices get
///   seeded random rows (deterministic in the config seed, the mode, and
///   the pre-growth dimension — see the module source) so replays
///   reproduce.
/// * Validation is atomic: a rejected batch leaves the solver untouched.
/// * The similarity graphs are truncated **once**, in `new` (§III-B: the
///   eigendecomposition is precomputed because `L` never changes). The
///   solver keeps the eigenbases, not the graphs — sound because a mode
///   that has a graph cannot grow ([`StreamError::GrowthWithAux`]) and
///   nothing else a delta can do touches a graph — so a re-solve contains
///   no eigensolve.
#[derive(Debug)]
pub struct StreamingSolver {
    cfg: AdmmConfig,
    solver: AdmmSolver,
    /// Per-mode eigenbases under `cfg.eigen_k` / `cfg.seed`; a zero one
    /// (re-sized on growth) for every mode without a similarity graph.
    truncated: Vec<TruncatedLaplacian>,
    /// Which modes were given a graph, i.e. cannot grow.
    regularized: Vec<bool>,
    observed: CooTensor,
    model: Option<KruskalTensor>,
    generation: u64,
}

impl StreamingSolver {
    /// Create a streaming solver over an initial observation set, which
    /// is sorted here; a cell it holds more than once is
    /// [`StreamError::DuplicateInTensor`], not a sum (a batch solve keeps
    /// every entry, so summing would solve a different problem).
    /// `laplacians[n]` is mode `n`'s optional similarity Laplacian; modes
    /// with one cannot grow (see [`StreamError::GrowthWithAux`]). The
    /// Laplacians are truncated here, once, and not kept; a graph of the
    /// wrong size or with non-finite weights is this call's error.
    pub fn new(
        mut observed: CooTensor,
        laplacians: Vec<Option<Laplacian>>,
        cfg: AdmmConfig,
    ) -> crate::Result<Self> {
        if laplacians.len() != observed.order() {
            return Err(StreamError::BadBatch(format!(
                "{} Laplacians for an order-{} tensor",
                laplacians.len(),
                observed.order()
            )));
        }
        observed.sort_distinct().map_err(|index| StreamError::DuplicateInTensor { index })?;
        let solver = AdmmSolver::new(cfg.clone())?;
        let refs: Vec<Option<&Laplacian>> = laplacians.iter().map(Option::as_ref).collect();
        let truncated = solver.truncate(observed.shape(), &refs)?;
        let regularized = laplacians.iter().map(Option::is_some).collect();
        Ok(StreamingSolver {
            cfg,
            solver,
            truncated,
            regularized,
            observed,
            model: None,
            generation: 0,
        })
    }

    /// The current observation set.
    pub fn observed(&self) -> &CooTensor {
        &self.observed
    }

    /// The most recently solved model, if any.
    pub fn model(&self) -> Option<&KruskalTensor> {
        self.model.as_ref()
    }

    /// How many solves have completed (the model generation counter the
    /// serve tier tags responses with).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Change the convergence budget for subsequent re-solves. Streaming
    /// deployments typically run the initial solve to tight tolerance and
    /// then cap re-solve work per batch. The eigenbases stay: a budget
    /// cannot change `eigen_k` or the seed they were computed under.
    pub fn set_budget(&mut self, max_iters: usize, tol: f64) -> crate::Result<()> {
        self.cfg.max_iters = max_iters;
        self.cfg.tol = tol;
        self.solver = AdmmSolver::new(self.cfg.clone())?;
        Ok(())
    }

    /// Fold one validated batch into the observed tensor and the model (new
    /// slice rows). All-or-nothing: every check
    /// runs before the first mutation, so a rejected batch leaves the
    /// solver exactly as it was.
    pub fn apply(&mut self, batch: &DeltaBatch) -> crate::Result<()> {
        if batch.base_shape() != self.observed.shape() {
            return Err(StreamError::BadBatch(format!(
                "batch built for shape {:?}, tensor is {:?}",
                batch.base_shape(),
                self.observed.shape()
            )));
        }
        for (mode, &g) in batch.growth().iter().enumerate() {
            if g > 0 && self.regularized[mode] {
                return Err(StreamError::GrowthWithAux { mode });
            }
        }
        // Resolve every update against the current support, and prove
        // every insert absent, before touching anything. Both lists are
        // sorted, so each is one forward walk: a cell's search starts
        // where the previous cell's ended.
        let mut update_pos = Vec::with_capacity(batch.updates().len());
        let mut from = 0;
        for (idx, _) in batch.updates() {
            from = self
                .observed
                .search_from(idx, from)
                .map_err(|_| StreamError::UnobservedUpdate { index: idx.clone() })?;
            update_pos.push(from);
        }
        // The search that proves an insert absent also says where it
        // goes, and the points come out ascending.
        let mut insert_at = Vec::with_capacity(batch.inserts().len());
        let mut from = 0;
        for (idx, _) in batch.inserts() {
            match self.observed.search_from(idx, from) {
                Ok(_) => return Err(StreamError::AlreadyObserved { index: idx.clone() }),
                Err(at) => {
                    insert_at.push(at);
                    from = at;
                }
            }
        }

        // ---- Mutate: grow, update, insert — in that order. -------------
        let new_shape = batch.new_shape();
        if batch.growth().iter().any(|&g| g > 0) {
            self.observed.grow_shape(&new_shape)?;
            for ((t, &g), &dim) in self.truncated.iter_mut().zip(batch.growth()).zip(&new_shape) {
                if g > 0 {
                    // Only unregularized modes get here: their basis is
                    // the zero one, at the new length.
                    *t = TruncatedLaplacian::zero(dim);
                }
            }
            if let Some(model) = &mut self.model {
                for (mode, &g) in batch.growth().iter().enumerate() {
                    if g == 0 {
                        continue;
                    }
                    let old = &model.factors()[mode];
                    let (old_rows, rank) = (old.rows(), old.cols());
                    let fresh = Mat::random(g, rank, growth_seed(self.cfg.seed, mode, old_rows));
                    let mut data = old.as_slice().to_vec();
                    data.extend_from_slice(fresh.as_slice());
                    model.set_factor(mode, Mat::from_vec(old_rows + g, rank, data))?;
                }
            }
        }
        for ((_, v), &pos) in batch.updates().iter().zip(&update_pos) {
            self.observed.values_mut()[pos] = *v;
        }
        if !batch.inserts().is_empty() {
            let mut patch = CooTensor::new(new_shape);
            patch.reserve(batch.inserts().len());
            for (idx, v) in batch.inserts() {
                patch.push(idx, *v)?;
            }
            self.observed.splice(&insert_at, &patch)?;
        }
        Ok(())
    }

    /// Re-solve on the host backend. Cold on the first call; afterwards a
    /// warm restart from the previous factors, bit-identical to
    /// [`AdmmSolver::solve_from`] on the current tensor.
    pub fn solve(&mut self) -> crate::Result<CompletionResult> {
        let result =
            self.solver.solve_streamed(&self.observed, &self.truncated, self.model.as_ref())?;
        self.model = Some(result.model.clone());
        self.generation += 1;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let mut mask = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        truth.eval_at(&mask).unwrap()
    }

    fn cfg(rank: usize) -> AdmmConfig {
        AdmmConfig { rank, max_iters: 6, tol: 1e-12, ..Default::default() }
    }

    #[test]
    fn apply_rejects_update_of_unobserved_cell() {
        let observed = planted(&[6, 5, 4], 2, 40, 1);
        let mut s = StreamingSolver::new(observed.clone(), vec![None, None, None], cfg(2)).unwrap();
        // Find a cell that is NOT observed.
        let mut idx = vec![0, 0, 0];
        while observed.position_of(&idx).is_some() {
            idx[2] += 1;
        }
        let b = DeltaBatch::try_new(&[6, 5, 4], &[0, 0, 0], vec![], vec![(idx.clone(), 1.0)])
            .unwrap();
        assert_eq!(s.apply(&b).unwrap_err(), StreamError::UnobservedUpdate { index: idx });
    }

    #[test]
    fn apply_rejects_insert_of_observed_cell() {
        let observed = planted(&[6, 5, 4], 2, 40, 2);
        let existing = observed.index(0).to_vec();
        let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg(2)).unwrap();
        let b = DeltaBatch::try_new(&[6, 5, 4], &[0, 0, 0], vec![(existing.clone(), 1.0)], vec![])
            .unwrap();
        assert_eq!(s.apply(&b).unwrap_err(), StreamError::AlreadyObserved { index: existing });
        // Atomicity: the rejected batch left the tensor untouched.
        assert_eq!(s.observed().shape(), &[6, 5, 4]);
    }

    #[test]
    fn new_rejects_a_repeated_cell_and_sorts_the_rest() {
        let cells: [(&[usize], f64); 4] =
            [(&[2, 0, 1], 1.0), (&[0, 1, 2], 4.0), (&[1, 1, 1], 2.0), (&[0, 1, 2], 4.0)];
        let repeated = CooTensor::from_entries(vec![3, 3, 3], &cells).unwrap();
        assert_eq!(
            StreamingSolver::new(repeated, vec![None, None, None], cfg(1)).unwrap_err(),
            StreamError::DuplicateInTensor { index: vec![0, 1, 2] }
        );
        let distinct = CooTensor::from_entries(vec![3, 3, 3], &cells[..3]).unwrap();
        let s = StreamingSolver::new(distinct, vec![None, None, None], cfg(1)).unwrap();
        let have: Vec<Vec<usize>> = s.observed().iter().map(|(i, _)| i.to_vec()).collect();
        assert_eq!(have, vec![vec![0, 1, 2], vec![1, 1, 1], vec![2, 0, 1]]);
    }

    /// Where `apply` puts a batch, found the way it was before the walk:
    /// one search of the whole entry list per cell, updates first. The
    /// update positions and insertion points, or the error naming the
    /// first cell that fails.
    fn per_cell_points(
        observed: &CooTensor,
        batch: &DeltaBatch,
    ) -> crate::Result<(Vec<usize>, Vec<usize>)> {
        let mut update_pos = Vec::new();
        for (idx, _) in batch.updates() {
            match observed.search(idx) {
                Ok(pos) => update_pos.push(pos),
                Err(_) => return Err(StreamError::UnobservedUpdate { index: idx.clone() }),
            }
        }
        let mut insert_at = Vec::new();
        for (idx, _) in batch.inserts() {
            match observed.search(idx) {
                Ok(_) => return Err(StreamError::AlreadyObserved { index: idx.clone() }),
                Err(at) => insert_at.push(at),
            }
        }
        Ok((update_pos, insert_at))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `apply`'s forward walk finds what a search per cell finds: the
        /// same error naming the same cell (and nothing changed), or the
        /// same tensor and model, bit for bit. Inserts land in
        /// front of the first entry and behind the last (in a grown slice
        /// too), many sharing one point; faults are unobserved updates or
        /// observed inserts, two of a kind, so the one named is the first.
        #[test]
        fn apply_walk_is_the_per_cell_search(
            seed in 0u64..10_000,
            order in 2usize..5,
            base_n in 1usize..60,
            inserts_n in 0usize..30,
            updates_n in 0usize..12,
            grow in 0usize..2,
            fault in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut shape: Vec<usize> = (0..order).map(|_| rng.random_range(2..6)).collect();
            shape[0] = shape[0].max(3);
            // Mode 0's first and last slices stay empty.
            let mut base = CooTensor::new(shape.clone());
            for _ in 0..base_n {
                let mut idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
                idx[0] = rng.random_range(1..shape[0] - 1);
                base.push(&idx, rng.random::<f64>()).unwrap();
            }
            base.sort_dedup();
            let cfg = AdmmConfig { rank: 2, max_iters: 2, tol: 1e-12, ..Default::default() };
            let mut s = StreamingSolver::new(base.clone(), vec![None; order], cfg).unwrap();
            s.solve().unwrap();

            let mut growth = vec![0; order];
            growth[0] = grow;
            let grown: Vec<usize> = shape.iter().zip(&growth).map(|(d, g)| d + g).collect();
            let draw = |rng: &mut StdRng, dims: &[usize]| -> Vec<usize> {
                dims.iter().map(|&d| rng.random_range(0..d)).collect()
            };
            let mut cells: Vec<Vec<usize>> = Vec::new();
            let mut inserts = Vec::new();
            for k in 0..inserts_n {
                let mut idx = draw(&mut rng, &grown);
                if k % 2 == 0 {
                    idx[0] = 0; // in front of every entry: one shared point
                }
                if base.position_of(&idx).is_none() && !cells.contains(&idx) {
                    cells.push(idx.clone());
                    inserts.push((idx, rng.random::<f64>()));
                }
            }
            let mut updates = Vec::new();
            for _ in 0..updates_n {
                let idx = base.index(rng.random_range(0..base.nnz())).to_vec();
                if !cells.contains(&idx) {
                    cells.push(idx.clone());
                    updates.push((idx, rng.random::<f64>()));
                }
            }
            for _ in 0..2 {
                let idx = match fault {
                    1 => draw(&mut rng, &shape),
                    _ => base.index(rng.random_range(0..base.nnz())).to_vec(),
                };
                let wanted = match fault {
                    1 => base.position_of(&idx).is_none(),
                    2 => true,
                    _ => false,
                };
                if wanted && !cells.contains(&idx) {
                    cells.push(idx.clone());
                    match fault {
                        1 => updates.push((idx, 1.0)),
                        _ => inserts.push((idx, 1.0)),
                    }
                }
            }
            let batch = DeltaBatch::try_new(&shape, &growth, inserts, updates).unwrap();

            let (observed, factors) = (s.observed.clone(), s.model().unwrap().factors().to_vec());
            let got = s.apply(&batch);
            match per_cell_points(&observed, &batch) {
                Err(want) => {
                    proptest::prop_assert_eq!(got, Err(want));
                    proptest::prop_assert_eq!(&s.observed, &observed);
                    proptest::prop_assert_eq!(s.model().unwrap().factors(), &factors[..]);
                }
                Ok((update_pos, insert_at)) => {
                    proptest::prop_assert_eq!(got, Ok(()));
                    let mut want = observed.clone();
                    want.grow_shape(&grown).unwrap();
                    for ((_, v), &pos) in batch.updates().iter().zip(&update_pos) {
                        want.values_mut()[pos] = *v;
                    }
                    let mut patch = CooTensor::new(grown.clone());
                    for (idx, v) in batch.inserts() {
                        patch.push(idx, *v).unwrap();
                    }
                    want.splice(&insert_at, &patch).unwrap();
                    proptest::prop_assert_eq!(&s.observed, &want);
                }
            }
        }
    }

    #[test]
    fn apply_rejects_growth_on_a_mode_with_aux_info() {
        use distenc_graph::builders::tridiagonal_chain;
        let observed = planted(&[6, 5, 4], 2, 40, 3);
        let lap = Laplacian::from_similarity(tridiagonal_chain(5));
        let mut s =
            StreamingSolver::new(observed, vec![None, Some(lap), None], cfg(2)).unwrap();
        let b = DeltaBatch::try_new(&[6, 5, 4], &[0, 1, 0], vec![], vec![]).unwrap();
        assert_eq!(s.apply(&b).unwrap_err(), StreamError::GrowthWithAux { mode: 1 });
    }

    #[test]
    fn new_rejects_bad_similarity_graphs() {
        use distenc_graph::builders::tridiagonal_chain;
        use distenc_graph::SparseSym;
        let observed = planted(&[6, 5, 4], 2, 40, 7);
        // Wrong size: found where the graph is truncated, not at the
        // first solve.
        let wrong = Laplacian::from_similarity(tridiagonal_chain(9));
        assert!(matches!(
            StreamingSolver::new(observed.clone(), vec![None, Some(wrong), None], cfg(2)),
            Err(StreamError::Core(_))
        ));
        // Non-finite weights: a typed error, never a panic.
        for bad in [f64::NAN, f64::INFINITY] {
            let sim = SparseSym::from_triplets(5, &[(0, 1, 1.0), (1, 2, bad), (2, 3, 1.0)]);
            let lap = Laplacian::from_similarity(sim);
            assert!(matches!(
                StreamingSolver::new(observed.clone(), vec![None, Some(lap), None], cfg(2)),
                Err(StreamError::Core(_))
            ));
        }
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let observed = planted(&[6, 5, 4], 2, 40, 4);
        let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg(2)).unwrap();
        let b = DeltaBatch::try_new(&[7, 5, 4], &[0, 0, 0], vec![], vec![]).unwrap();
        assert!(matches!(s.apply(&b).unwrap_err(), StreamError::BadBatch(_)));
    }

    #[test]
    fn warm_resolve_is_bit_identical_to_solve_from() {
        let observed = planted(&[8, 7, 6], 2, 120, 5);
        let mut s = StreamingSolver::new(observed, vec![None, None, None], cfg(2)).unwrap();
        let first = s.solve().unwrap();

        // A mixed batch: one growth mode, inserts (one in the grown
        // slice), one value update.
        let upd = s.observed().index(3).to_vec();
        let mut ins = vec![(vec![8, 0, 0], 0.7)];
        let mut probe = vec![0, 0, 0];
        while s.observed().position_of(&probe).is_some() {
            probe[1] += 1;
        }
        ins.push((probe, 0.3));
        let b = DeltaBatch::try_new(&[8, 7, 6], &[1, 0, 0], ins, vec![(upd, -0.2)]).unwrap();
        s.apply(&b).unwrap();

        // Oracle: solve_from on the final tensor with the grown model.
        let oracle = AdmmSolver::new(cfg(2).clone())
            .unwrap()
            .solve_from(s.observed(), &[None, None, None], s.model().unwrap())
            .unwrap();
        let warm = s.solve().unwrap();
        assert_eq!(warm.iterations, oracle.iterations);
        for (a, b) in warm.model.factors().iter().zip(oracle.model.factors()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "warm solve must be bit-exact");
            }
        }
        assert_eq!(s.generation(), 2);
        let _ = first;
    }

    #[test]
    fn growth_rows_are_deterministic() {
        let observed = planted(&[6, 5, 4], 2, 60, 6);
        let run = || {
            let mut s =
                StreamingSolver::new(observed.clone(), vec![None, None, None], cfg(2)).unwrap();
            s.solve().unwrap();
            let b =
                DeltaBatch::try_new(&[6, 5, 4], &[2, 0, 0], vec![(vec![7, 1, 1], 1.0)], vec![])
                    .unwrap();
            s.apply(&b).unwrap();
            s.model().unwrap().factors()[0].as_slice().to_vec()
        };
        assert_eq!(run(), run());
    }
}
