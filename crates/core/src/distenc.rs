//! The distributed DisTenC solver (Algorithm 3) on the dataflow engine.
//!
//! Numerically this performs exactly the serial Algorithm 1 iteration —
//! the step math itself lives in [`crate::solver`], shared with
//! [`crate::AdmmSolver`] — but the work is organized the way §III-C/D and
//! §III-F describe, and every stage, shuffle, and broadcast is accounted
//! on the [`Cluster`]:
//!
//! * the observed tensor is split into `P₁×…×P_N` blocks with Algorithm 2
//!   boundaries and the blocks are pinned to machines, once per solve:
//!   the blocking is the solve's one copy of the blocked entries, and no
//!   residual value is kept beside it (every block sweep derives them);
//! * factor matrices (and `B`, `Y`, and the Laplacian eigenbases) are
//!   row-partitioned by the same boundaries, co-located with the mode
//!   partitions;
//! * MTTKRP runs block-locally over the *residual* tensor, all N modes
//!   in the one block stage that also refreshes the residual (Algorithm 1
//!   is Jacobi: every mode of an iteration reads one model and one
//!   residual): remote factor rows are fetched once per iteration
//!   (counted as shuffle), and each block's partial `H` rows of every
//!   mode travel in one shuffle to the factor partitions' home machines,
//!   where they are combined in ascending block order;
//! * `U⁽ⁿ⁾ᵀU⁽ⁿ⁾` comes from per-partition Gram contributions reduced to
//!   `R×R` and broadcast back (Eq. 12/13);
//! * the `B⁽ⁿ⁾` update reduces the `K×R` projection `Vᵀ(ηA−Y)` the same
//!   way (Eq. 7).
//!
//! This driver owns only what is genuinely distributed: the Algorithm 2
//! blocking, the resident-memory ledger, and the one-off setup charges.
//! The per-iteration decomposition and its charges live in the
//! [`crate::solver::ClusterBackend`]; the iteration itself is
//! [`crate::solver::run`].
//!
//! Floating-point note: per-block partial sums combined block by block
//! are a different association from the serial solver's single entry-order
//! fold (as are the per-block `‖e‖²` partials and the per-partition
//! Grams), so iterates match the oracle to rounding, not bit-for-bit; the
//! integration tests assert agreement to `1e-8`. Within this driver the
//! association is fixed by the blocking alone: resumed or not, on any
//! executor, a solve produces the same bits.

use crate::admm::{truncate_on, validate_problem};
use crate::config::AdmmConfig;
use crate::solver::checkpoint::Checkpoint;
use crate::solver::{self, BlockMeta, ClusterBackend, SolverState};
use crate::trace::ConvergenceTrace;
use crate::{CompletionResult, CoreError, Result};
use distenc_dataflow::cluster::TaskCost;
use distenc_dataflow::{Cluster, DataflowError, MemoryReservation};
use distenc_graph::{Laplacian, TruncatedLaplacian};
use distenc_partition::TensorBlocks;
use distenc_tensor::CooTensor;

const F64: u64 = 8;

/// How many injected machine losses one solve call will absorb before
/// giving up and surfacing the loss. Each recovery consumes the fault
/// that caused it (injected faults are one-shot), so this bound only
/// trips when a fault plan schedules more distinct crashes than any
/// plausible test scenario.
const MAX_RECOVERIES: usize = 8;

/// The distributed DisTenC solver bound to a simulated cluster.
#[derive(Debug)]
pub struct DisTenC<'c> {
    cluster: &'c Cluster,
    cfg: AdmmConfig,
}

impl<'c> DisTenC<'c> {
    /// Create a solver, validating the configuration.
    pub fn new(cluster: &'c Cluster, cfg: AdmmConfig) -> Result<Self> {
        cfg.validate().map_err(crate::CoreError::Invalid)?;
        Ok(DisTenC { cluster, cfg })
    }

    /// Run distributed tensor completion. Returns the learned model plus a
    /// trace whose timestamps are the cluster's **virtual** clock; read
    /// [`Cluster::metrics`] afterwards for shuffle/memory totals.
    pub fn solve(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
    ) -> Result<CompletionResult> {
        validate_problem(observed, laplacians)?;
        let cl = self.cluster;
        let m = cl.machines();

        // The Algorithm 2 blocking, its per-block metadata and the
        // eigendecompositions are driver-side state: built once, they
        // survive any machine loss (the charges for them still land inside
        // attempt 0, in the pre-fault order, so a fault-free solve is
        // byte-identical to the pre-recovery driver). The blocking holds
        // the solve's one copy of the blocked entries; the backend borrows
        // it.
        let parts_per_mode: Vec<usize> = observed.shape().iter().map(|&d| d.min(m)).collect();
        let blocking = TensorBlocks::build_with(observed, &parts_per_mode, self.cfg.partition);
        let truncated = truncate_on(cl.executor(), observed.shape(), laplacians, &self.cfg)?;
        let eigen_k: Vec<usize> = truncated.iter().map(|t| t.k()).collect();
        let mut backend = ClusterBackend::new(cl, self.cfg.rank, &blocking, eigen_k);

        // Lineage-style recovery loop: a lost machine aborts the attempt,
        // the next attempt reloads that machine's blocks from the
        // (simulated) reliable input store, restores the latest snapshot
        // if checkpointing was on — a cold restart otherwise — and
        // continues. Every injected fault is one-shot, so each retry
        // makes progress.
        let mut image: Option<Vec<u8>> = None;
        let mut recovering: Option<usize> = None;
        for attempt in 0..=MAX_RECOVERIES {
            let out = self.run_attempt(
                observed,
                laplacians,
                &truncated,
                &mut backend,
                recovering,
                &mut image,
            );
            match out {
                Err(CoreError::Dataflow(DataflowError::MachineLost { machine, .. }))
                    if attempt < MAX_RECOVERIES =>
                {
                    recovering = Some(machine);
                }
                other => return other,
            }
        }
        unreachable!("the final attempt either succeeds or returns its error")
    }

    /// One solve attempt: charge the setup (full on the first attempt,
    /// the recovery reload on retries), reserve resident memory behind an
    /// RAII guard, restore the latest checkpoint image if there is one,
    /// and run the shared solver core. Any snapshot
    /// the attempt produced is harvested into `image` even when the
    /// attempt dies, so the *next* attempt resumes from the most recent
    /// snapshot.
    fn run_attempt(
        &self,
        observed: &CooTensor,
        laplacians: &[Option<&Laplacian>],
        truncated: &[TruncatedLaplacian],
        backend: &mut ClusterBackend<'_>,
        recovering: Option<usize>,
        image: &mut Option<Vec<u8>>,
    ) -> Result<CompletionResult> {
        let cl = self.cluster;
        let shape = observed.shape();
        let rank = self.cfg.rank;
        let entry_bytes = (shape.len() as u64 + 1) * F64;
        let blocking = backend.blocking;

        if recovering.is_none() {
            // ---- First attempt: the Algorithm 2 setup charges ----------
            // Counting per-slice non-zeros is one pass over the entries;
            // partitioning then shuffles the whole input tensor (Lemma
            // 3's O(nnz(X)) term).
            self.stage_over_even_split(observed.nnz(), 1.0, entry_bytes)?;
            self.charge_partition_shuffle(&backend.meta, entry_bytes)?;
        }

        // ---- Resident memory: blocks, factor state, eigenbases ---------
        // The guard releases whatever was reserved when the attempt ends,
        // success or failure — a failed attempt is torn down (its peak
        // footprint stays in `peak_resident`), so retries never leak the
        // ledger.
        let mut reservation = MemoryReservation::new(cl);
        for bm in &backend.meta {
            // Tensor block + residual values: Algorithm 3 caches E beside
            // the blocks.
            reservation.reserve(bm.machine, bm.nnz() as u64 * (entry_bytes + F64))?;
        }
        if recovering.is_none() {
            self.charge_truncation(shape, laplacians)?;
        }
        for (n, part) in blocking.modes.iter().enumerate() {
            let k = truncated[n].k() as u64;
            for p in 0..part.parts() {
                let rows = part.range(p).len() as u64;
                // A, B, Y rows plus the eigenbasis rows for this range.
                let bytes = rows * rank as u64 * F64 * 3 + rows * k * F64;
                reservation.reserve(cl.machine_for_partition(p), bytes)?;
            }
        }

        if let Some(lost) = recovering {
            // ---- Recovery charges: reload + restore --------------------
            // The lost machine re-reads its blocks from the reliable
            // input store, and the latest snapshot (if any) is broadcast
            // back out. All of it is recovery work: charged to the
            // virtual clock *and* to `Metrics::recovery_seconds`.
            let t0 = cl.now();
            let lost_nnz: u64 = backend
                .meta
                .iter()
                .filter(|bm| bm.machine == lost)
                .map(|bm| bm.nnz() as u64)
                .sum();
            cl.run_stage(&[TaskCost {
                machine: lost,
                flops: lost_nnz as f64,
                input_bytes: lost_nnz * entry_bytes,
                output_bytes: 0,
            }])?;
            if let Some(img) = image.as_ref() {
                cl.broadcast_charge(img.len() as u64)?;
            }
            cl.note_recovery(cl.now() - t0);
        }

        // ---- Delegate the iteration to the shared solver core ----------
        // A snapshot puts back its factors, duals and penalty; the
        // prologue sweep derives the residual from them, as it does for a
        // cold attempt's random factors.
        let snapshot = image.as_deref().map(Checkpoint::from_bytes).transpose()?;
        let mut st = SolverState::new(observed, truncated, &self.cfg, None)?;
        let resume_point = snapshot.as_ref().map(|ck| st.restore(ck)).transpose()?;
        let mut sink_store = self.cfg.checkpoint.as_ref().map(|_| ClusterSink {
            cl,
            cfg: &self.cfg,
            observed,
            latest: None,
        });
        let sink = sink_store.as_mut().map(|s| s as &mut dyn solver::CheckpointSink);
        let out = solver::run(observed, truncated, &self.cfg, backend, st, resume_point, sink);
        // Harvest the newest snapshot even from a dead attempt: the
        // simulated reliable store outlives the machines.
        if let Some(s) = sink_store {
            if let Some(latest) = s.latest {
                *image = Some(latest);
            }
        }
        let result = out?;
        drop(reservation);
        Ok(result)
    }

    // ---- One-off setup accounting ---------------------------------------

    /// A stage whose work is an even split of `records` across machines.
    fn stage_over_even_split(
        &self,
        records: usize,
        flops_per_record: f64,
        bytes_per_record: u64,
    ) -> Result<()> {
        let m = self.cluster.machines();
        let per = records.div_ceil(m);
        let tasks: Vec<TaskCost> = (0..m)
            .map(|mach| TaskCost {
                machine: mach,
                flops: per as f64 * flops_per_record,
                input_bytes: per as u64 * bytes_per_record,
                output_bytes: 0,
            })
            .collect();
        self.cluster.run_stage(&tasks)?;
        Ok(())
    }

    /// The initial all-to-all that moves every entry to its block's home.
    fn charge_partition_shuffle(&self, meta: &[BlockMeta<'_>], entry_bytes: u64) -> Result<()> {
        let cl = self.cluster;
        let m = cl.machines();
        let mut sent = vec![0u64; m];
        let mut received = vec![0u64; m];
        for bm in meta {
            let dst = bm.machine;
            let bytes = bm.nnz() as u64 * entry_bytes;
            // Entries start evenly spread; (m−1)/m of them are remote.
            let remote = bytes * (m as u64 - 1) / m as u64;
            received[dst] += remote;
            // Spread the sends evenly over sources (approximation of a
            // random initial layout).
            for (s, slot) in sent.iter_mut().enumerate() {
                if s != dst {
                    *slot += remote / (m as u64 - 1).max(1);
                }
            }
        }
        // Fix rounding so conservation holds.
        let total_recv: u64 = received.iter().sum();
        let total_sent: u64 = sent.iter().sum();
        if total_sent < total_recv {
            sent[0] += total_recv - total_sent;
        } else {
            received[0] += total_sent - total_recv;
        }
        cl.shuffle(&sent, &received)?;
        Ok(())
    }

    /// Charge the one-off truncated eigendecompositions (`O(K·I)` per the
    /// paper's §III-B claim). The decomposition itself is computed
    /// driver-side before the attempt loop (it never changes), so a
    /// recovery attempt skips both the work and this charge.
    fn charge_truncation(&self, shape: &[usize], laplacians: &[Option<&Laplacian>]) -> Result<()> {
        for (n, lap) in laplacians.iter().enumerate() {
            if lap.is_some() {
                let flops = (self.cfg.eigen_k * shape[n]) as f64 * 8.0;
                self.cluster.charge_driver_flops(flops)?;
            }
        }
        Ok(())
    }
}

/// The distributed [`solver::CheckpointSink`]: snapshots are serialized
/// to the driver's simulated reliable store (a byte image surviving
/// machine loss) and the collect of the snapshot — every machine shipping
/// its share of the factors and duals to the driver — is
/// charged to the cluster, so checkpoint cadence shows up honestly in the
/// virtual metrics.
struct ClusterSink<'a> {
    cl: &'a Cluster,
    cfg: &'a AdmmConfig,
    observed: &'a CooTensor,
    /// The most recent snapshot image ("reliable store" contents).
    latest: Option<Vec<u8>>,
}

impl solver::CheckpointSink for ClusterSink<'_> {
    fn save(
        &mut self,
        st: &SolverState,
        iters_done: usize,
        trace: &ConvergenceTrace,
    ) -> Result<()> {
        let bytes = Checkpoint::capture(self.cfg, self.observed, st, iters_done, trace).to_bytes();
        // Collect: each machine ships an even share of the snapshot.
        let m = self.cl.machines();
        let per = (bytes.len() as u64).div_ceil(m as u64);
        self.cl.collect_charge(&vec![per; m])?;
        self.latest = Some(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admm::AdmmSolver;
    use distenc_dataflow::{ClusterConfig, DataflowError};
    use distenc_graph::builders::tridiagonal_chain;
    use distenc_tensor::KruskalTensor;
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

    fn test_cluster(machines: usize) -> Cluster {
        Cluster::new(ClusterConfig::test(machines).with_time_budget(None))
    }

    #[test]
    fn matches_serial_oracle() {
        let observed = planted(&[15, 12, 10], 2, 500, 3);
        let cfg = AdmmConfig { rank: 2, max_iters: 12, tol: 1e-12, ..Default::default() };
        let serial = AdmmSolver::new(cfg.clone())
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        let cluster = test_cluster(3);
        let dist = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        assert_eq!(serial.iterations, dist.iterations);
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            assert!(
                a.frob_dist(b).unwrap() < 1e-8,
                "distributed factors must match the serial oracle"
            );
        }
        let (s_rmse, d_rmse) = (
            serial.trace.final_rmse().unwrap(),
            dist.trace.final_rmse().unwrap(),
        );
        assert!((s_rmse - d_rmse).abs() < 1e-10);
    }

    #[test]
    fn matches_serial_with_auxiliary_info() {
        let observed = planted(&[20, 16, 12], 2, 600, 7);
        let laps: Vec<Laplacian> = [20, 16, 12]
            .iter()
            .map(|&d| Laplacian::from_similarity(tridiagonal_chain(d)))
            .collect();
        let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(Some).collect();
        let cfg = AdmmConfig {
            rank: 2,
            max_iters: 10,
            tol: 1e-12,
            alpha: 2.0,
            eigen_k: 8,
            ..Default::default()
        };
        let serial = AdmmSolver::new(cfg.clone()).unwrap().solve(&observed, &lap_refs).unwrap();
        let cluster = test_cluster(4);
        let dist = DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &lap_refs).unwrap();
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            assert!(a.frob_dist(b).unwrap() < 1e-8);
        }
    }

    #[test]
    fn accounts_shuffle_and_stages() {
        let observed = planted(&[20, 20, 20], 2, 800, 5);
        let cluster = test_cluster(4);
        let cfg = AdmmConfig { rank: 2, max_iters: 3, tol: 1e-12, ..Default::default() };
        let _ = DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        let m = cluster.metrics();
        assert!(m.stages > 10, "stages = {}", m.stages);
        assert!(m.shuffled_bytes > 0);
        assert!(m.broadcast_bytes > 0);
        assert!(m.virtual_seconds > 0.0);
        assert!(m.peak_resident > 0);
    }

    #[test]
    fn memory_released_after_solve() {
        let observed = planted(&[15, 15, 15], 2, 300, 11);
        let cluster = test_cluster(2);
        let cfg = AdmmConfig { rank: 2, max_iters: 2, tol: 1e-12, ..Default::default() };
        let _ = DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
        // All resident memory released: a full-capacity reserve succeeds.
        let cap = cluster.config().mem_per_machine;
        assert!(cluster.reserve(0, cap).is_ok());
    }

    #[test]
    fn oom_surfaces_on_tiny_cluster() {
        let observed = planted(&[30, 30, 30], 4, 3000, 13);
        let cfg_small = ClusterConfig::test(2).with_memory(16 * 1024).with_time_budget(None);
        let cluster = Cluster::new(cfg_small);
        let cfg = AdmmConfig { rank: 4, max_iters: 2, ..Default::default() };
        let err = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap_err();
        match err {
            crate::CoreError::Dataflow(DataflowError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn out_of_time_surfaces() {
        let observed = planted(&[20, 20, 20], 2, 500, 17);
        let cluster = Cluster::new(ClusterConfig::test(2).with_time_budget(Some(0.2)));
        let cfg = AdmmConfig { rank: 2, max_iters: 50, tol: 1e-15, ..Default::default() };
        let err = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::Dataflow(DataflowError::OutOfTime { .. })
        ));
    }

    #[test]
    fn more_machines_less_virtual_time() {
        // Enough iterations that the per-iteration compute dwarfs the
        // one-time partition shuffle; latency zeroed so the signal is the
        // distributed work itself.
        let observed = planted(&[40, 40, 40], 4, 8000, 19);
        let cfg = AdmmConfig { rank: 4, max_iters: 20, tol: 1e-12, ..Default::default() };
        let mut times = Vec::new();
        for m in [1usize, 4] {
            let mut cc = ClusterConfig::test(m).with_time_budget(None);
            cc.cost.stage_latency = 0.0;
            let cluster = Cluster::new(cc);
            let _ = DisTenC::new(&cluster, cfg.clone())
                .unwrap()
                .solve(&observed, &[None, None, None])
                .unwrap();
            times.push(cluster.now());
        }
        assert!(
            times[1] < times[0],
            "4 machines ({}s) must beat 1 machine ({}s)",
            times[1],
            times[0]
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let observed = planted(&[12, 12, 12], 2, 400, 23);
        let cfg = AdmmConfig { rank: 2, max_iters: 5, tol: 1e-12, ..Default::default() };
        let run = || {
            let cluster = test_cluster(3);
            let r = DisTenC::new(&cluster, cfg.clone())
                .unwrap()
                .solve(&observed, &[None, None, None])
                .unwrap();
            (r.trace.final_rmse().unwrap(), cluster.metrics().shuffled_bytes)
        };
        assert_eq!(run(), run());
    }
}
