//! Fault-tolerance contracts: deterministic fault injection, lineage
//! recovery on the cluster, and checkpoint/resume on the host.
//!
//! The invariant under test everywhere is **bit-exact recovery**: a solve
//! interrupted by an injected fault and recovered (from a checkpoint
//! image or by a cold restart) must finish with factors, RMSE trace, and
//! iteration count bit-identical to the fault-free run. Virtual-clock
//! metrics are allowed — required, in fact — to differ: recovery work is
//! charged honestly and surfaced in `Metrics::recovery_seconds`.

use distenc::core::{
    AdmmConfig, AdmmSolver, Checkpoint, CheckpointError, CheckpointPolicy, CompletionResult,
    CoreError, DisTenC,
};
use distenc::dataflow::{Cluster, ClusterConfig, DataflowError, Fault, FaultPlan, Metrics};
use distenc::tensor::CooTensor;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

mod common;

use common::factor_bits;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0xfa17)
}

fn base_cfg() -> AdmmConfig {
    AdmmConfig { rank: 2, max_iters: 8, tol: 1e-12, ..Default::default() }
}

/// Factor matrices as raw f64 bits, for exact comparison.
/// Run DisTenC on a fresh cluster with the given fault plan and optional
/// checkpoint interval, returning the result and the cluster's metrics.
fn cluster_solve(
    observed: &CooTensor,
    plan: FaultPlan,
    every: Option<usize>,
) -> (Result<CompletionResult, CoreError>, Metrics) {
    let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None).with_faults(plan));
    let mut cfg = base_cfg();
    cfg.checkpoint = every.map(CheckpointPolicy::every);
    let out = DisTenC::new(&cluster, cfg).unwrap().solve(observed, &[None, None, None]);
    (out, cluster.metrics())
}

fn fault_free(observed: &CooTensor) -> (CompletionResult, Metrics) {
    let (out, m) = cluster_solve(observed, FaultPlan::none(), None);
    (out.unwrap(), m)
}

/// A unique temp path for checkpoint files; callers remove it when done.
fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("distenc_fault_recovery_{}_{tag}.ckpt", std::process::id()))
}

// ---------------------------------------------------------------------------
// Cluster: machine loss + lineage recovery
// ---------------------------------------------------------------------------

#[test]
fn crash_recovery_is_bit_exact_at_every_checkpoint_interval() {
    let observed = planted(&[12, 10, 8], 2, 600, 31);
    // The same cells and values in reverse entry order: a checkpoint holds
    // no residual to map back to an entry order (the restored attempt
    // derives it from the factors), so an unsorted input recovers like a
    // sorted one.
    let mut reversed = CooTensor::new(observed.shape().to_vec());
    for e in (0..observed.nnz()).rev() {
        reversed.push(observed.index(e), observed.value(e)).unwrap();
    }
    for (input, observed) in [("sorted", &observed), ("reversed", &reversed)] {
        let (clean, clean_m) = fault_free(observed);
        // Pin the crash halfway through the clean run's stage sequence so
        // snapshots exist before it fires (the stage count per iteration
        // is an implementation detail; the clean run's total is not).
        let crash_at = clean_m.stages / 2;

        // With no checkpoint the driver cold-restarts; with intervals 1
        // and 5 it resumes from the newest snapshot image. All three must
        // land on the fault-free answer bit-for-bit.
        let mut faulted_virt = Vec::new();
        for every in [None, Some(1), Some(5)] {
            let plan =
                FaultPlan::new(vec![Fault::MachineCrash { at_stage: crash_at, machine: 1 }]);
            let (out, m) = cluster_solve(observed, plan, every);
            let res = out.unwrap();
            let case = format!("{input}, interval {every:?}");
            assert_eq!(factor_bits(&clean), factor_bits(&res), "{case}");
            assert_eq!(
                clean.trace.final_rmse().unwrap().to_bits(),
                res.trace.final_rmse().unwrap().to_bits(),
                "{case}"
            );
            assert_eq!(clean.iterations, res.iterations, "{case}");
            // Every recomputed iteration reproduces the original trace.
            assert_eq!(clean.trace.points.len(), res.trace.points.len());
            for (a, b) in clean.trace.points.iter().zip(&res.trace.points) {
                assert_eq!(a.train_rmse.to_bits(), b.train_rmse.to_bits());
                assert_eq!(a.factor_delta.to_bits(), b.factor_delta.to_bits());
            }
            // The recovery is charged, not free.
            assert_eq!(m.machines_lost, 1, "{case}");
            assert_eq!(m.faults_injected, 1, "{case}: the one planned crash fired");
            assert!(m.recovery_seconds > 0.0, "{case}");
            assert!(
                m.virtual_seconds > clean_m.virtual_seconds,
                "recovery must cost virtual time: {} vs {} ({case})",
                m.virtual_seconds,
                clean_m.virtual_seconds
            );
            faulted_virt.push(m.virtual_seconds);
        }
        // A mid-run crash with per-iteration snapshots resumes from the
        // image instead of recomputing every iteration: even after paying
        // for the snapshots, the run beats the cold restart.
        assert!(
            faulted_virt[1] < faulted_virt[0],
            "{input}: interval-1 resume ({}) should beat cold restart ({})",
            faulted_virt[1],
            faulted_virt[0]
        );
    }
}

#[test]
fn crash_before_any_work_cold_restarts_bit_exactly() {
    let observed = planted(&[12, 10, 8], 2, 600, 32);
    let (clean, _) = fault_free(&observed);
    let plan = FaultPlan::new(vec![Fault::MachineCrash { at_stage: 0, machine: 0 }]);
    let (out, m) = cluster_solve(&observed, plan, Some(2));
    let res = out.unwrap();
    assert_eq!(factor_bits(&clean), factor_bits(&res));
    assert_eq!(m.machines_lost, 1);
    assert_eq!(m.faults_injected, 1);
}

#[test]
fn transient_task_failures_retry_and_stay_bit_exact() {
    let observed = planted(&[12, 10, 8], 2, 600, 33);
    let (clean, clean_m) = fault_free(&observed);
    let plan =
        FaultPlan::new(vec![Fault::TransientTask { at_stage: 5, machine: 2, failures: 2 }]);
    let (out, m) = cluster_solve(&observed, plan, None);
    let res = out.unwrap();
    assert_eq!(factor_bits(&clean), factor_bits(&res));
    assert_eq!(m.faults_injected, 1);
    assert_eq!(m.task_retries, 2);
    assert_eq!(m.machines_lost, 0);
    assert!(m.recovery_seconds > 0.0, "retried attempts are recovery time");
    assert!(m.virtual_seconds > clean_m.virtual_seconds);
}

#[test]
fn exhausted_task_retries_surface_a_typed_error() {
    let observed = planted(&[12, 10, 8], 2, 600, 34);
    let plan = FaultPlan::new(vec![Fault::TransientTask { at_stage: 5, machine: 0, failures: 9 }])
        .with_max_task_retries(2);
    let (out, m) = cluster_solve(&observed, plan, None);
    match out {
        Err(CoreError::Dataflow(DataflowError::TaskFailed { machine, attempts, .. })) => {
            assert_eq!(machine, 0);
            assert_eq!(attempts, 3, "original run plus the 2-retry budget");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }
    assert_eq!(m.faults_injected, 1);
    assert_eq!(m.task_retries, 2, "the budget was spent before aborting");
}

#[test]
fn injected_straggler_slows_the_run_but_not_the_answer() {
    let observed = planted(&[12, 10, 8], 2, 600, 35);
    let (clean, clean_m) = fault_free(&observed);
    let plan = FaultPlan::new(vec![Fault::Straggler {
        at_stage: 3,
        machine: 1,
        factor: 10.0,
        stages: 4,
    }]);
    let (out, m) = cluster_solve(&observed, plan, None);
    let res = out.unwrap();
    assert_eq!(factor_bits(&clean), factor_bits(&res));
    assert_eq!(m.faults_injected, 1);
    assert!(m.recovery_seconds > 0.0, "straggler excess is attributed to recovery");
    assert!(m.virtual_seconds > clean_m.virtual_seconds);
    assert_eq!(m.machines_lost, 0);
    assert_eq!(m.task_retries, 0);
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_fault_support() {
    let observed = planted(&[12, 10, 8], 2, 600, 36);
    let (a, am) = cluster_solve(&observed, FaultPlan::none(), None);
    let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
    let b = DisTenC::new(&cluster, base_cfg())
        .unwrap()
        .solve(&observed, &[None, None, None])
        .unwrap();
    assert_eq!(factor_bits(&a.unwrap()), factor_bits(&b));
    assert_eq!(am, cluster.metrics());
    assert_eq!(am.recovery_seconds, 0.0);
    assert_eq!(am.faults_injected, 0);
}

#[test]
fn checkpointing_without_faults_changes_metrics_not_numerics() {
    let observed = planted(&[12, 10, 8], 2, 600, 37);
    let (clean, clean_m) = fault_free(&observed);
    let (out, m) = cluster_solve(&observed, FaultPlan::none(), Some(2));
    let res = out.unwrap();
    assert_eq!(factor_bits(&clean), factor_bits(&res));
    assert_eq!(clean.iterations, res.iterations);
    // Snapshot gathers are charged work: documented, visible, honest.
    assert!(m.virtual_seconds > clean_m.virtual_seconds);
    assert_eq!(m.recovery_seconds, 0.0, "checkpointing is not recovery");
}

proptest! {
    // Each case is two full distributed solves; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fault schedules never panic: the solver either completes
    /// bit-exactly (absorbing crashes, retries, and stragglers) or
    /// returns a typed dataflow error.
    #[test]
    fn random_fault_schedules_never_panic_and_recover_bit_exactly(seed in any::<u64>()) {
        static BASELINE: OnceLock<(CooTensor, Vec<Vec<u64>>, u64)> = OnceLock::new();
        let (observed, clean_bits, clean_rmse) = BASELINE.get_or_init(|| {
            let observed = planted(&[12, 10, 8], 2, 600, 40);
            let (clean, _) = fault_free(&observed);
            let rmse = clean.trace.final_rmse().unwrap().to_bits();
            let bits = factor_bits(&clean);
            (observed, bits, rmse)
        });
        let plan = FaultPlan::seeded(seed, 3, 40);
        let planned = plan.events.len() as u64;
        let (out, m) = cluster_solve(observed, plan, Some(2));
        match out {
            Ok(res) => {
                prop_assert_eq!(clean_bits, &factor_bits(&res));
                prop_assert_eq!(*clean_rmse, res.trace.final_rmse().unwrap().to_bits());
                // Every event sits before stage 40 of a solve that runs
                // 157 (5 + 8 × 19): a finished solve has met them all.
                prop_assert_eq!(m.faults_injected, planned);
            }
            // A plan can legitimately exhaust the retry budget; anything
            // else would be a bug.
            Err(CoreError::Dataflow(DataflowError::TaskFailed { .. })) => {
                prop_assert!(m.task_retries > 0);
            }
            Err(other) => return Err(TestCaseError::fail(format!("untyped failure: {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Host: checkpoint files + `AdmmSolver::resume`
// ---------------------------------------------------------------------------

fn host_solve(observed: &CooTensor, cfg: AdmmConfig) -> CompletionResult {
    AdmmSolver::new(cfg).unwrap().solve(observed, &[None, None, None]).unwrap()
}

#[test]
fn mid_run_resume_is_bit_identical_to_the_uninterrupted_run() {
    let observed = planted(&[12, 10, 8], 2, 600, 50);
    let full = host_solve(&observed, AdmmConfig { max_iters: 10, ..base_cfg() });

    // Simulate an interruption at iteration 5: run with a truncated
    // budget and a snapshot cadence that lands exactly there.
    let path = tmp_path("mid_run");
    let interrupted = AdmmConfig {
        max_iters: 5,
        checkpoint: Some(CheckpointPolicy::every(5).with_path(&path)),
        ..base_cfg()
    };
    host_solve(&observed, interrupted);

    let mut ckpt = Checkpoint::read_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(ckpt.iters_done, 5);
    // Resume under the original (untruncated) budget.
    ckpt.config.max_iters = 10;
    let solver = AdmmSolver::new(AdmmConfig { max_iters: 10, ..base_cfg() }).unwrap();
    let resumed = solver.resume(&observed, &[None, None, None], &ckpt).unwrap();

    assert_eq!(resumed.iterations, full.iterations);
    assert_eq!(factor_bits(&full), factor_bits(&resumed));
    assert_eq!(
        full.trace.final_rmse().unwrap().to_bits(),
        resumed.trace.final_rmse().unwrap().to_bits()
    );
    // The resumed trace is the checkpointed prefix plus the recomputed
    // tail, and every point matches the uninterrupted run bit-for-bit.
    assert_eq!(full.trace.points.len(), resumed.trace.points.len());
    for (a, b) in full.trace.points.iter().zip(&resumed.trace.points) {
        assert_eq!(a.iter, b.iter);
        assert_eq!(a.train_rmse.to_bits(), b.train_rmse.to_bits());
        assert_eq!(a.factor_delta.to_bits(), b.factor_delta.to_bits());
    }
}

#[test]
fn final_checkpoint_reproduces_the_finished_state() {
    let observed = planted(&[12, 10, 8], 2, 600, 51);
    let path = tmp_path("final");
    let cfg =
        AdmmConfig { checkpoint: Some(CheckpointPolicy::every(4).with_path(&path)), ..base_cfg() };
    let run = host_solve(&observed, cfg);
    assert_eq!(run.iterations, 8, "tol is tiny; the budget is spent");

    // The newest snapshot on disk is the iteration-8 state; resuming it
    // has nothing left to do and returns that state verbatim.
    let ckpt = Checkpoint::read_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(ckpt.iters_done, 8);
    let resumed = AdmmSolver::new(base_cfg())
        .unwrap()
        .resume(&observed, &[None, None, None], &ckpt)
        .unwrap();
    assert_eq!(factor_bits(&run), factor_bits(&resumed));
    assert_eq!(
        run.trace.final_rmse().unwrap().to_bits(),
        resumed.trace.final_rmse().unwrap().to_bits()
    );
}

#[test]
fn resume_rejects_a_mismatched_problem() {
    let observed = planted(&[12, 10, 8], 2, 600, 52);
    let path = tmp_path("mismatch");
    let cfg =
        AdmmConfig { checkpoint: Some(CheckpointPolicy::every(4).with_path(&path)), ..base_cfg() };
    host_solve(&observed, cfg);
    let ckpt = Checkpoint::read_file(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let solver = AdmmSolver::new(base_cfg()).unwrap();
    // Wrong shape.
    let other = planted(&[9, 9, 9], 2, 300, 53);
    let err = solver.resume(&other, &[None, None, None], &ckpt).unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)), "got {err:?}");
    // Same shape, different support size.
    let thinner = planted(&[12, 10, 8], 2, 200, 54);
    let err = solver.resume(&thinner, &[None, None, None], &ckpt).unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)), "got {err:?}");
}

/// The checkpoint trailer: FNV-1a 64 over every preceding byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The version-1 image of the state in the version-2 `bytes`: stamped 1,
/// with the residual `T − [[A…]]` of the image's own factors stored after
/// the support size (as every version-1 writer stored it), and the
/// checksum recomputed.
fn v1_image(observed: &CooTensor, bytes: &[u8]) -> Vec<u8> {
    let ckpt = Checkpoint::from_bytes(bytes).unwrap();
    let model = distenc::tensor::KruskalTensor::new(ckpt.factors.clone()).unwrap();
    // The trace and the checksum follow the support size.
    let trace_at = bytes.len() - (8 + 32 * ckpt.trace.points.len()) - 8;
    let mut v1 = bytes[..trace_at].to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    for (idx, t) in observed.iter() {
        v1.extend_from_slice(&(t - model.eval(idx)).to_bits().to_le_bytes());
    }
    v1.extend_from_slice(&bytes[trace_at..bytes.len() - 8]);
    let sum = fnv1a(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    v1
}

/// Resume `ckpt` under a 10-iteration budget and hold it to the
/// uninterrupted 10-iteration solve `full`, bit for bit.
fn assert_resumes_to(observed: &CooTensor, mut ckpt: Checkpoint, full: &CompletionResult) {
    ckpt.config.max_iters = 10;
    let solver = AdmmSolver::new(AdmmConfig { max_iters: 10, ..base_cfg() }).unwrap();
    let resumed = solver.resume(observed, &[None, None, None], &ckpt).unwrap();
    assert_eq!(resumed.iterations, full.iterations);
    assert_eq!(factor_bits(full), factor_bits(&resumed));
    for (a, b) in full.trace.points.iter().zip(&resumed.trace.points) {
        assert_eq!(a.train_rmse.to_bits(), b.train_rmse.to_bits(), "iter {}", a.iter);
        assert_eq!(a.factor_delta.to_bits(), b.factor_delta.to_bits(), "iter {}", a.iter);
    }
}

#[test]
fn a_checkpoint_whose_second_reserved_byte_is_cleared_resumes_bit_identically() {
    // Byte 91 — after `nonneg` (88), `partition` (89) and the reserved
    // byte that once held `use_csf` (90) — held the fusion switch, 1 in
    // every file written with the default. It is reserved now: written as
    // 1, ignored on read, so a file that stored 0 there resumes the same.
    let observed = planted(&[12, 10, 8], 2, 600, 56);
    let full = host_solve(&observed, AdmmConfig { max_iters: 10, ..base_cfg() });
    let path = tmp_path("reserved");
    let interrupted = AdmmConfig {
        max_iters: 5,
        checkpoint: Some(CheckpointPolicy::every(5).with_path(&path)),
        ..base_cfg()
    };
    host_solve(&observed, interrupted);
    let mut bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(bytes[88..92], [0, 0, 0, 1], "nonneg, partition, reserved, reserved");

    bytes[91] = 0;
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ckpt.iters_done, 5);
    assert_resumes_to(&observed, ckpt, &full);
}

#[test]
fn a_version_1_checkpoint_resumes_like_its_version_2_image() {
    // The residual a version-1 file stored is read past: the image holds
    // the same state as the version-2 one and resumes to the same bits.
    let observed = planted(&[12, 10, 8], 2, 600, 58);
    let full = host_solve(&observed, AdmmConfig { max_iters: 10, ..base_cfg() });
    let path = tmp_path("v1");
    let interrupted = AdmmConfig {
        max_iters: 5,
        checkpoint: Some(CheckpointPolicy::every(5).with_path(&path)),
        ..base_cfg()
    };
    host_solve(&observed, interrupted);
    let v2 = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let v1 = v1_image(&observed, &v2);
    assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
    assert_eq!(v1.len(), v2.len() + 8 * observed.nnz());
    let (old, new) = (Checkpoint::from_bytes(&v1).unwrap(), Checkpoint::from_bytes(&v2).unwrap());
    assert_eq!(old, new);
    assert_eq!(old.nnz, observed.nnz());
    assert_resumes_to(&observed, old, &full);
}

#[test]
fn a_stale_temp_file_does_not_change_a_resume() {
    // A write that died between creating `<path>.tmp` and its rename
    // leaves garbage beside the good snapshot; `resume` reads `<path>`.
    let observed = planted(&[12, 10, 8], 2, 600, 57);
    let full = host_solve(&observed, AdmmConfig { max_iters: 10, ..base_cfg() });
    let path = tmp_path("stale_tmp");
    let interrupted = AdmmConfig {
        max_iters: 5,
        checkpoint: Some(CheckpointPolicy::every(5).with_path(&path)),
        ..base_cfg()
    };
    host_solve(&observed, interrupted);
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    assert!(!tmp.exists(), "a finished write leaves no temp file");
    std::fs::write(&tmp, b"DTCK garbage from a write that never reached its rename").unwrap();

    let ckpt = Checkpoint::read_file(&path);
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&tmp).unwrap();
    assert_resumes_to(&observed, ckpt.unwrap(), &full);
}

#[test]
fn corrupted_checkpoint_files_are_typed_errors_not_panics() {
    let observed = planted(&[12, 10, 8], 2, 600, 55);
    let path = tmp_path("corrupt");
    let cfg =
        AdmmConfig { checkpoint: Some(CheckpointPolicy::every(4).with_path(&path)), ..base_cfg() };
    host_solve(&observed, cfg);
    let v2 = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let points = Checkpoint::from_bytes(&v2).unwrap().trace.points.len();

    for bytes in [v1_image(&observed, &v2), v2] {
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        // A flipped payload byte trips the checksum — also the byte before
        // the trace, the last of version 1's residual block, which is read
        // past.
        let trace_at = bytes.len() - 8 - (8 + 32 * points);
        for at in [bytes.len() / 2, trace_at - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            match Checkpoint::from_bytes(&flipped) {
                Err(CheckpointError::ChecksumMismatch { .. }) => {}
                other => panic!("v{version}: expected checksum failure, got {other:?}"),
            }
        }

        // Truncation at any prefix is typed, never a panic.
        for cut in [0, 1, 7, bytes.len() / 3, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "v{version}: cut at {cut}");
        }
    }
}
