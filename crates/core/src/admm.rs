//! Serial ADMM reference solver (Algorithm 1 with the §III updates).
//!
//! This is the single-machine ground truth that the distributed
//! [`crate::DisTenC`] must reproduce. All three of the paper's
//! efficiency ideas are already applied here, because they are exact
//! reformulations, not approximations (modulo Laplacian truncation):
//!
//! 1. `B⁽ⁿ⁾`-update through the precomputed truncated eigendecomposition
//!    (Eq. 7),
//! 2. `U⁽ⁿ⁾ᵀU⁽ⁿ⁾` as a Hadamard product of cached Gram matrices (Eq. 12),
//! 3. the MTTKRP against the *completed* tensor via the sparse residual
//!    (Eq. 16).
//!
//! Within an iteration every mode update reads the factors from the
//! iteration's start (`A⁽ⁿ⁾ₜ` on every right-hand side, exactly as
//! Algorithm 3 lines 8–12 are written). This Jacobi ordering is what makes
//! the mode updates independent — and therefore distributable.

use crate::config::AdmmConfig;
use crate::solver::checkpoint::Checkpoint;
use crate::solver::{self, HostBackend, SolverState};
use crate::trace::ConvergenceTrace;
use crate::{CompletionResult, CoreError, Result};
use distenc_dataflow::{ExecMode, Executor};
use distenc_graph::{Laplacian, TruncatedLaplacian};
use distenc_tensor::{CooTensor, KruskalTensor};
use std::path::PathBuf;

/// The serial Algorithm 1 solver.
#[derive(Debug, Clone)]
pub struct AdmmSolver {
    cfg: AdmmConfig,
}

impl AdmmSolver {
    /// Create a solver, validating the configuration.
    pub fn new(cfg: AdmmConfig) -> Result<Self> {
        cfg.validate().map_err(CoreError::Invalid)?;
        Ok(AdmmSolver { cfg })
    }

    /// Run tensor completion on `observed` (the `Ω∗X = T` constraint data)
    /// with optional per-mode auxiliary Laplacians.
    ///
    /// `laplacians[n] = None` means mode `n` has no side information (its
    /// trace term vanishes; the `B`-update degenerates to `(ηA−Y)/η`).
    pub fn solve(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
    ) -> Result<CompletionResult> {
        validate_problem(observed, laplacians)?;
        truncate_and_solve(observed, laplacians, &self.cfg, None, None)
    }

    /// Warm-started completion: continue from an existing model instead of
    /// a random initialization — the online scenario where new
    /// observations arrive and the previous factors are a good starting
    /// point. The ADMM state (`B`, `Y`, `η`) restarts; only the factors
    /// are kept.
    pub fn solve_from(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
        init: &KruskalTensor,
    ) -> Result<CompletionResult> {
        validate_problem(observed, laplacians)?;
        check_warm_start(init, observed, self.cfg.rank)?;
        truncate_and_solve(observed, laplacians, &self.cfg, Some(init.clone()), None)
    }

    /// [`AdmmSolver::solve_from`] — or, with `init = None`,
    /// [`AdmmSolver::solve`] — on per-mode eigenbases *already truncated*
    /// ([`AdmmSolver::truncate`], one per mode, [`TruncatedLaplacian::zero`]
    /// where there is no similarity), bit for bit: a streaming problem's
    /// graphs never change, so §III-B's precompute belongs to the caller
    /// that outlives the re-solves, and a re-solve contains no eigensolve.
    ///
    /// Warm state is the factors alone: the ADMM auxiliaries restart
    /// (`Y = 0`, `η = η₀`; `B` is recomputed from `ηA − Y` before any
    /// read), and the residual is derived from the factors by the solve's
    /// first sweep, like every other solve's.
    pub fn solve_streamed(
        &self,
        observed: &CooTensor,
        truncated: &[TruncatedLaplacian],
        init: Option<&KruskalTensor>,
    ) -> Result<CompletionResult> {
        let dims = truncated.iter().map(|t| Some(t.dim()));
        validate_modes(observed.shape(), dims, ("eigenbasis", "eigenbases"))?;
        validate_support(observed)?;
        if let Some(m) = init {
            check_warm_start(m, observed, self.cfg.rank)?;
        }
        let exec = Executor::new(self.cfg.exec);
        solve_with(observed, truncated, &self.cfg, &exec, init.cloned(), None)
    }

    /// §III-B's precompute under this solver's `eigen_k` and `seed`: one
    /// eigenbasis per mode of a tensor of shape `shape`, a zero one where
    /// `laplacians[n]` is `None`. Every cold entry point does this
    /// internally, per call; it is public for [`AdmmSolver::solve_streamed`]
    /// callers, who do it once per problem. The modes run on this solver's
    /// threads when two or more have a graph, else on the calling thread.
    pub fn truncate(
        &self,
        shape: &[usize],
        laplacians: &[Option<&Laplacian>],
    ) -> Result<Vec<TruncatedLaplacian>> {
        validate_laplacians(shape, laplacians)?;
        let graphs = laplacians.iter().flatten().count();
        let exec = Executor::new(if graphs > 1 { self.cfg.exec } else { ExecMode::Sequential });
        truncate_on(&exec, shape, laplacians, &self.cfg)
    }

    /// Continue an interrupted solve from a [`Checkpoint`] (typically read
    /// back with [`Checkpoint::read_file`]).
    ///
    /// The iteration-determining numerics (rank, λ, α, η schedule, seed,
    /// tolerance, …) come from the *checkpoint* — they are what the
    /// interrupted run was solving — while the environment-dependent
    /// settings come from *this* solver: its execution mode and its
    /// checkpoint policy (so a resumed run keeps snapshotting if asked
    /// to).
    ///
    /// **Bit-exact recovery invariant**: resuming from a checkpoint of
    /// iteration `k` produces exactly — bit for bit — the factors, RMSE,
    /// and trace the uninterrupted run would have produced, at
    /// `DISTENC_THREADS=1` and in threaded mode alike
    /// (`tests/fault_recovery.rs` pins this). A checkpoint whose
    /// `iters_done` already reached `max_iters` returns the stored state
    /// without iterating.
    ///
    /// `observed` and `laplacians` must be the same problem the
    /// interrupted run was solving: shape, observed support size, and
    /// Laplacian dimensions are validated. Nothing else about the tensor
    /// is in the checkpoint (the format's checksum guards transport
    /// corruption; it cannot detect a swapped input tensor of the same
    /// size), and the residual is not either: the resumed solve derives
    /// it from the checkpointed factors, as the interrupted run did.
    pub fn resume(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
        ckpt: &Checkpoint,
    ) -> Result<CompletionResult> {
        let cfg = AdmmConfig {
            exec: self.cfg.exec,
            checkpoint: self.cfg.checkpoint.clone(),
            ..ckpt.config.clone()
        };
        cfg.validate().map_err(CoreError::Invalid)?;
        validate_problem(observed, laplacians)?;
        if ckpt.shape != observed.shape() {
            return Err(CoreError::Invalid(format!(
                "checkpoint shape {:?} does not match observed tensor shape {:?}",
                ckpt.shape,
                observed.shape()
            )));
        }
        if ckpt.nnz != observed.nnz() {
            return Err(CoreError::Invalid(format!(
                "checkpoint support has {} entries, observed support has {}",
                ckpt.nnz,
                observed.nnz()
            )));
        }
        truncate_and_solve(observed, laplacians, &cfg, None, Some(ckpt))
    }
}

/// Host-side [`solver::CheckpointSink`]: serializes each snapshot into
/// the versioned on-disk format at the configured path. Writes are
/// atomic (temp-file-then-rename), so an interrupted save never
/// corrupts the previously persisted snapshot.
struct FileSink<'a> {
    cfg: &'a AdmmConfig,
    path: PathBuf,
}

impl solver::CheckpointSink for FileSink<'_> {
    fn save(
        &mut self,
        st: &SolverState,
        iters_done: usize,
        trace: &ConvergenceTrace,
    ) -> Result<()> {
        Checkpoint::capture(self.cfg, st, iters_done, trace).write_file(&self.path)?;
        Ok(())
    }
}

/// Shared problem validation (also used by the distributed solver).
pub(crate) fn validate_problem(
    observed: &CooTensor,
    laplacians: &[Option<&Laplacian>],
) -> Result<()> {
    validate_laplacians(observed.shape(), laplacians)?;
    validate_support(observed)
}

/// An observed tensor with at least one entry (the train RMSE divides by
/// their count).
fn validate_support(observed: &CooTensor) -> Result<()> {
    if observed.nnz() == 0 {
        return Err(CoreError::Invalid("observed tensor has no entries".into()));
    }
    Ok(())
}

/// A warm-start model must have the problem's shape and the configured
/// rank (every warm entry point checks through here).
fn check_warm_start(
    init: &KruskalTensor,
    observed: &CooTensor,
    rank: usize,
) -> Result<()> {
    if init.shape() != observed.shape() || init.rank() != rank {
        return Err(CoreError::Invalid(format!(
            "warm-start model (shape {:?}, rank {}) does not match problem \
             (shape {:?}, rank {rank})",
            init.shape(),
            init.rank(),
            observed.shape(),
        )));
    }
    Ok(())
}

/// One optional Laplacian per mode, each as long as its mode.
fn validate_laplacians(shape: &[usize], laplacians: &[Option<&Laplacian>]) -> Result<()> {
    let dims = laplacians.iter().map(|l| l.map(Laplacian::dim));
    validate_modes(shape, dims, ("Laplacian", "Laplacians"))
}

/// The per-mode check every entry point shares: one operator per mode
/// (`dims` yields its dimension, `None` where the mode has none), each as
/// long as its mode. `(one, many)` name the operator in the error.
fn validate_modes(
    shape: &[usize],
    dims: impl ExactSizeIterator<Item = Option<usize>>,
    (one, many): (&str, &str),
) -> Result<()> {
    if dims.len() != shape.len() {
        let msg = format!("{} {many} for an order-{} tensor", dims.len(), shape.len());
        return Err(CoreError::Invalid(msg));
    }
    for (n, (dim, &len)) in dims.zip(shape).enumerate() {
        if let Some(d) = dim.filter(|&d| d != len) {
            let msg = format!("{one} for mode {n} has dimension {d}, mode has length {len}");
            return Err(CoreError::Invalid(msg));
        }
    }
    Ok(())
}

/// Truncate every provided Laplacian once, up front (§III-B: the
/// eigendecomposition is precomputed because `L` never changes). Each
/// mode's eigensolve is seeded and independent of the others, so the
/// modes run at the same time on `exec` and give the bits they give one
/// after another.
pub(crate) fn truncate_on(
    exec: &Executor,
    shape: &[usize],
    laplacians: &[Option<&Laplacian>],
    cfg: &AdmmConfig,
) -> Result<Vec<TruncatedLaplacian>> {
    exec.run(laplacians, |n, lap| match lap {
        Some(l) => l.truncate(cfg.eigen_k, cfg.seed),
        None => Ok(TruncatedLaplacian::zero(shape[n])),
    })
    .into_iter()
    .map(|t| Ok(t?))
    .collect()
}

/// A host solve that truncates its own graphs: one executor for the call,
/// built from `cfg.exec`, runs the eigensolves and then the solve.
fn truncate_and_solve(
    observed: &CooTensor,
    laplacians: &[Option<&Laplacian>],
    cfg: &AdmmConfig,
    initial: Option<KruskalTensor>,
    resume: Option<&Checkpoint>,
) -> Result<CompletionResult> {
    let exec = Executor::new(cfg.exec);
    let truncated = truncate_on(&exec, observed.shape(), laplacians, cfg)?;
    solve_with(observed, &truncated, cfg, &exec, initial, resume)
}

/// The host solve: build the single-machine backend on `exec` and the
/// state, then run the shared core ([`solver::run`]) once. Trace points
/// are stamped with the wall time since the backend was built.
///
/// `resume` continues a solve at the checkpoint's iteration cursor (the
/// core puts back its factors, duals `Y` and penalty `η` and continues
/// its trace). A [`FileSink`] is
/// attached when the config asks for on-disk checkpointing
/// ([`crate::CheckpointPolicy::with_path`]); a policy without a path is
/// the distributed driver's concern and is a no-op here.
fn solve_with(
    observed: &CooTensor,
    truncated: &[TruncatedLaplacian],
    cfg: &AdmmConfig,
    exec: &Executor,
    initial: Option<KruskalTensor>,
    resume: Option<&Checkpoint>,
) -> Result<CompletionResult> {
    let mut host = HostBackend::new(observed, cfg.rank, exec);
    let st = SolverState::new(observed.shape(), observed.nnz(), truncated, cfg, initial)?;
    let mut file_sink = cfg
        .checkpoint
        .as_ref()
        .and_then(|policy| policy.path.as_ref())
        .map(|path| FileSink { cfg, path: path.clone() });
    let sink = file_sink.as_mut().map(|s| s as &mut dyn solver::CheckpointSink);
    solver::run(truncated, cfg, &mut host, st, resume, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_graph::builders::tridiagonal_chain;
    use distenc_linalg::Mat;
    use distenc_tensor::split::split_missing;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Planted low-rank data: sample a mask, evaluate a ground-truth CP
    /// model on it.
    fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> (CooTensor, KruskalTensor) {
        let truth = KruskalTensor::random(shape, rank, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut mask = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        let observed = truth.eval_at(&mask).unwrap();
        (observed, truth)
    }

    #[test]
    fn recovers_planted_low_rank_data() {
        let shape = [12, 10, 8];
        let (observed, _) = planted(&shape, 3, 700, 2);
        let cfg = AdmmConfig {
            rank: 3,
            lambda: 1e-3,
            max_iters: 120,
            tol: 1e-7,
            ..Default::default()
        };
        let solver = AdmmSolver::new(cfg).unwrap();
        let res = solver.solve(&observed, &[None, None, None]).unwrap();
        let rmse = res.trace.final_rmse().unwrap();
        assert!(rmse < 0.02, "train RMSE {rmse} too high");
    }

    #[test]
    fn generalizes_to_held_out_entries() {
        let shape = [12, 10, 8];
        let (observed, _truth) = planted(&shape, 2, 900, 3);
        let split = split_missing(&observed, 0.3, 5);
        let cfg = AdmmConfig {
            rank: 2,
            lambda: 1e-3,
            max_iters: 150,
            tol: 1e-8,
            ..Default::default()
        };
        let res = AdmmSolver::new(cfg)
            .unwrap()
            .solve(&split.train, &[None, None, None])
            .unwrap();
        let test_rmse =
            distenc_tensor::residual::observed_rmse(&split.test, &res.model).unwrap();
        // Mean |value| of products of 3 uniforms is 1/8; RMSE ≪ that means
        // real signal was recovered.
        assert!(test_rmse < 0.1, "test RMSE {test_rmse}");
    }

    #[test]
    fn auxiliary_information_helps_on_smooth_factors() {
        // The paper's §IV-A construction: factor rows vary linearly with
        // the index, so consecutive rows are similar and the chain
        // similarity (Eq. 17) is informative.
        let (i1, i2, i3, r) = (30, 30, 30, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut factors = Vec::new();
        for &dim in &[i1, i2, i3] {
            let mut m = Mat::zeros(dim, r);
            for rr in 0..r {
                let slope: f64 = rng.random::<f64>() * 0.1;
                let inter: f64 = rng.random::<f64>();
                for i in 0..dim {
                    m.set(i, rr, i as f64 * slope + inter);
                }
            }
            factors.push(m);
        }
        let truth = KruskalTensor::new(factors).unwrap();
        let mut mask = CooTensor::new(vec![i1, i2, i3]);
        for _ in 0..800 {
            let idx = [
                rng.random_range(0..i1),
                rng.random_range(0..i2),
                rng.random_range(0..i3),
            ];
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        let observed = truth.eval_at(&mask).unwrap();
        let split = split_missing(&observed, 0.7, 2); // 70% missing: hard
        let laps: Vec<Laplacian> = (0..3)
            .map(|_| Laplacian::from_similarity(tridiagonal_chain(30)))
            .collect();

        let cfg = AdmmConfig {
            rank: r,
            lambda: 1e-2,
            max_iters: 80,
            tol: 1e-8,
            eigen_k: 15,
            ..Default::default()
        };
        let with_aux = AdmmSolver::new(AdmmConfig { alpha: 5.0, ..cfg.clone() })
            .unwrap()
            .solve(&split.train, &[Some(&laps[0]), Some(&laps[1]), Some(&laps[2])])
            .unwrap();
        let without_aux = AdmmSolver::new(AdmmConfig { alpha: 0.0, ..cfg })
            .unwrap()
            .solve(&split.train, &[None, None, None])
            .unwrap();

        let rmse_aux =
            distenc_tensor::residual::observed_rmse(&split.test, &with_aux.model).unwrap();
        let rmse_plain =
            distenc_tensor::residual::observed_rmse(&split.test, &without_aux.model).unwrap();
        assert!(
            rmse_aux < rmse_plain,
            "aux RMSE {rmse_aux} should beat plain {rmse_plain} at 70% missing"
        );
    }

    #[test]
    fn converges_and_reports_flag() {
        let (observed, _) = planted(&[8, 8, 8], 2, 400, 9);
        let cfg = AdmmConfig { rank: 2, max_iters: 200, tol: 1e-5, ..Default::default() };
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        assert!(res.converged, "should converge within 200 iterations");
        assert!(res.iterations < 200);
        assert_eq!(res.trace.points.len(), res.iterations);
    }

    #[test]
    fn trace_rmse_decreases_overall() {
        let (observed, _) = planted(&[10, 9, 8], 2, 500, 13);
        let cfg = AdmmConfig { rank: 2, max_iters: 40, ..Default::default() };
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        let first = res.trace.points.first().unwrap().train_rmse;
        let last = res.trace.final_rmse().unwrap();
        assert!(last < first * 0.5, "RMSE {first} → {last} must at least halve");
        assert!(res.trace.roughly_monotone(0.05));
    }

    #[test]
    fn nonneg_projection_respected() {
        let (observed, _) = planted(&[8, 8, 8], 2, 300, 17);
        let cfg = AdmmConfig { rank: 2, max_iters: 10, nonneg: true, ..Default::default() };
        let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        for f in res.model.factors() {
            assert!(f.as_slice().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn rejects_bad_setups() {
        let t = CooTensor::new(vec![4, 4]);
        let solver = AdmmSolver::new(AdmmConfig::default()).unwrap();
        // Empty tensor.
        assert!(solver.solve(&t, &[None, None]).is_err());
        // Wrong Laplacian count.
        let (observed, _) = planted(&[4, 4], 2, 10, 1);
        assert!(solver.solve(&observed, &[None]).is_err());
        // Wrong Laplacian dimension.
        let lap = Laplacian::from_similarity(tridiagonal_chain(7));
        assert!(solver.solve(&observed, &[Some(&lap), None]).is_err());
        // Invalid config.
        assert!(AdmmSolver::new(AdmmConfig { rank: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn truncation_is_bit_identical_on_every_executor() {
        // A chain is one component: 150 nodes take the dense eigensolver,
        // 230 and 260 Lanczos.
        let shape = [150, 230, 260];
        let laps: Vec<Laplacian> =
            shape.iter().map(|&n| Laplacian::from_similarity(tridiagonal_chain(n))).collect();
        let refs: Vec<Option<&Laplacian>> = laps.iter().map(Some).collect();
        let bits = |exec| -> Vec<Vec<u64>> {
            let cfg = AdmmConfig { eigen_k: 12, ..Default::default() };
            truncate_on(&Executor::new(exec), &shape, &refs, &cfg)
                .unwrap()
                .iter()
                .map(|t| {
                    let vals = t.values.iter().chain(t.vectors.as_slice());
                    vals.chain([&t.complement_lambda]).map(|v| v.to_bits()).collect()
                })
                .collect()
        };
        let want = bits(ExecMode::Sequential);
        let lens: Vec<usize> = want.iter().map(Vec::len).collect();
        assert_eq!(lens, [12 * 151 + 1, 12 * 231 + 1, 12 * 261 + 1], "12 pairs and λ̄ per mode");
        for n in [2, 3] {
            assert_eq!(bits(ExecMode::Threads(n)), want, "Threads({n})");
        }
    }

    #[test]
    fn eigen_k_zero_solves_with_the_complement_only() {
        // K = 0 is a legal truncation (every graph direction damped at
        // the mean rate tr(L)/I) whatever branch the component size would
        // have picked: 30 nodes → dense, 230 → Lanczos.
        let (observed, _) = planted(&[30, 230, 6], 2, 900, 19);
        let laps = [
            Laplacian::from_similarity(tridiagonal_chain(30)),
            Laplacian::from_similarity(tridiagonal_chain(230)),
        ];
        let cfg = AdmmConfig {
            rank: 2,
            max_iters: 5,
            tol: 1e-12,
            alpha: 1.0,
            eigen_k: 0,
            ..Default::default()
        };
        let res = AdmmSolver::new(cfg)
            .unwrap()
            .solve(&observed, &[Some(&laps[0]), Some(&laps[1]), None])
            .unwrap();
        assert_eq!(res.iterations, 5);
        assert!(res.trace.final_rmse().unwrap().is_finite());
    }

    #[test]
    fn non_finite_similarity_is_a_typed_error() {
        let (observed, _) = planted(&[10, 8, 6], 2, 200, 23);
        let solver = AdmmSolver::new(AdmmConfig { rank: 2, alpha: 1.0, ..Default::default() })
            .unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut triplets: Vec<(usize, usize, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
            triplets[4].2 = bad;
            let lap = Laplacian::from_similarity(distenc_graph::SparseSym::from_triplets(
                10, &triplets,
            ));
            let err = solver.solve(&observed, &[Some(&lap), None, None]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::Linalg(distenc_linalg::LinalgError::InvalidArgument(_))
                ),
                "weight {bad}: {err:?}"
            );
        }
    }

    #[test]
    fn solve_streamed_checks_eigenbases_against_the_tensor() {
        let (observed, _) = planted(&[8, 7, 6], 2, 150, 29);
        let solver = AdmmSolver::new(AdmmConfig { rank: 2, max_iters: 3, ..Default::default() })
            .unwrap();
        let zeros = |dims: &[usize]| -> Vec<TruncatedLaplacian> {
            dims.iter().map(|&d| TruncatedLaplacian::zero(d)).collect()
        };
        // Wrong count, wrong length, empty tensor: typed errors.
        assert!(solver.solve_streamed(&observed, &zeros(&[8, 7]), None).is_err());
        assert!(solver.solve_streamed(&observed, &zeros(&[8, 9, 6]), None).is_err());
        let empty = CooTensor::new(vec![8, 7, 6]);
        assert!(solver.solve_streamed(&empty, &zeros(&[8, 7, 6]), None).is_err());
        // And with the eigenbases `truncate` hands out it is `solve`.
        let lap = Laplacian::from_similarity(tridiagonal_chain(7));
        let laps = [None, Some(&lap), None];
        let truncated = solver.truncate(observed.shape(), &laps).unwrap();
        let streamed = solver.solve_streamed(&observed, &truncated, None).unwrap();
        let cold = solver.solve(&observed, &laps).unwrap();
        assert_eq!(streamed.model.factors(), cold.model.factors());
        // `truncate` validates like the cold entry points do.
        assert!(solver.truncate(&[8, 7], &laps).is_err());
        assert!(solver.truncate(&[8, 9, 6], &laps).is_err());
    }

    #[test]
    fn warm_start_improves_on_its_initialization() {
        let (observed, _) = planted(&[12, 10, 8], 2, 500, 41);
        let cfg = AdmmConfig { rank: 2, max_iters: 10, tol: 1e-12, ..Default::default() };
        let solver = AdmmSolver::new(cfg).unwrap();
        let first = solver.solve(&observed, &[None, None, None]).unwrap();
        let first_rmse = first.trace.final_rmse().unwrap();
        // Continue from the first run's model: training RMSE keeps going
        // down (or stays), never regresses past the handoff point.
        let second = solver
            .solve_from(&observed, &[None, None, None], &first.model)
            .unwrap();
        let second_rmse = second.trace.final_rmse().unwrap();
        assert!(
            second_rmse <= first_rmse * 1.01,
            "warm start must not regress: {first_rmse} → {second_rmse}"
        );
        // And a warm start must beat a cold run of the same length when
        // the init is good.
        assert!(second_rmse < first.trace.points[0].train_rmse);
    }

    #[test]
    fn warm_start_rejects_mismatched_model() {
        // One check, one wording, whichever warm entry point is used.
        let (observed, _) = planted(&[8, 8, 8], 2, 200, 43);
        let solver =
            AdmmSolver::new(AdmmConfig { rank: 2, ..Default::default() }).unwrap();
        let none = [None, None, None];
        let truncated = solver.truncate(observed.shape(), &none).unwrap();
        let cases = [
            (
                KruskalTensor::random(&[8, 8, 8], 5, 1),
                "invalid completion setup: warm-start model (shape [8, 8, 8], rank 5) \
                 does not match problem (shape [8, 8, 8], rank 2)",
            ),
            (
                KruskalTensor::random(&[8, 8, 9], 2, 1),
                "invalid completion setup: warm-start model (shape [8, 8, 9], rank 2) \
                 does not match problem (shape [8, 8, 8], rank 2)",
            ),
        ];
        for (init, want) in &cases {
            let errors = [
                solver.solve_from(&observed, &none, init).unwrap_err(),
                solver.solve_streamed(&observed, &truncated, Some(init)).unwrap_err(),
            ];
            for err in errors {
                assert_eq!(&err.to_string(), want);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (observed, _) = planted(&[8, 8, 8], 2, 300, 21);
        let cfg = AdmmConfig { rank: 2, max_iters: 15, ..Default::default() };
        let a = AdmmSolver::new(cfg.clone()).unwrap().solve(&observed, &[None, None, None]).unwrap();
        let b = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        assert_eq!(a.trace.final_rmse(), b.trace.final_rmse());
    }
}
