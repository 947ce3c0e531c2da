//! Fault-recovery measurement: virtual-clock cost of surviving an injected
//! machine crash as a function of checkpoint interval.
//!
//! Writes `BENCH_faults.json` at the repository root. One fixed planted
//! workload runs under one fixed fault schedule (a machine crash halfway
//! through the solve) at checkpoint intervals 0 (no snapshots — the
//! driver cold-restarts from iteration 0), 1, 5, and 10. For each
//! interval the table reports:
//!
//! * `checkpoint_overhead_pct` — virtual-time cost of taking snapshots,
//!   measured on a *fault-free* run at the same interval (gathering and
//!   persisting the image is charged cluster work);
//! * `recovery_seconds` / `faulted_virtual_seconds` — the honest price of
//!   the crash: lost attempt, block reload, image broadcast, recomputed
//!   iterations;
//! * `total_overhead_pct` — faulted run vs the fault-free, no-checkpoint
//!   baseline, i.e. what the interval actually buys end to end.
//!
//! Every run — snapshotted, faulted, or neither — is asserted to finish
//! with bit-identical factors: the sweep measures cost, never accuracy.

use distenc_bench::write_bench_json;
use distenc_core::{AdmmConfig, CheckpointPolicy, CompletionResult, DisTenC};
use distenc_dataflow::{Cluster, ClusterConfig, Fault, FaultPlan, Metrics};
use distenc_tensor::{CooTensor, KruskalTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHAPE: [usize; 3] = [30, 24, 20];
const RANK: usize = 3;
const NNZ: usize = 8_000;
const ITERS: usize = 12;
const MACHINES: usize = 3;
// 5 set-up and prologue stages, then 19 per iteration at order 3 (six row
// stages per mode and the all-modes sweep's one block stage), 233 in the
// fault-free run: stage 156 is the block stage that closes iteration 8 of
// 12, after snapshots exist at intervals 1 and 5 but before the first
// interval-10 snapshot — so the sweep shows image-based resume, a coarser
// image, and a forced cold restart side by side.
const CRASH_STAGE: u64 = 156;
const CRASH_MACHINE: usize = 1;
const INTERVALS: [usize; 4] = [0, 1, 5, 10];

fn workload() -> CooTensor {
    let truth = KruskalTensor::random(&SHAPE, RANK, 11);
    let mut rng = StdRng::seed_from_u64(0xfa17b);
    let mut mask = CooTensor::new(SHAPE.to_vec());
    for _ in 0..NNZ {
        let idx: Vec<usize> = SHAPE.iter().map(|&d| rng.random_range(0..d)).collect();
        mask.push(&idx, 1.0).unwrap();
    }
    mask.sort_dedup();
    truth.eval_at(&mask).unwrap()
}

fn cfg(every: usize) -> AdmmConfig {
    AdmmConfig {
        rank: RANK,
        max_iters: ITERS,
        tol: 1e-12,
        checkpoint: (every > 0).then(|| CheckpointPolicy::every(every)),
        ..Default::default()
    }
}

fn crash_plan() -> FaultPlan {
    FaultPlan::new(vec![Fault::MachineCrash { at_stage: CRASH_STAGE, machine: CRASH_MACHINE }])
}

fn run(observed: &CooTensor, plan: FaultPlan, every: usize) -> (CompletionResult, Metrics) {
    let cluster =
        Cluster::new(ClusterConfig::test(MACHINES).with_time_budget(None).with_faults(plan));
    let res = DisTenC::new(&cluster, cfg(every))
        .unwrap()
        .solve(observed, &[None, None, None])
        .unwrap();
    (res, cluster.metrics())
}

fn factor_bits(r: &CompletionResult) -> Vec<Vec<u64>> {
    r.model
        .factors()
        .iter()
        .map(|f| f.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn interval_rows(observed: &CooTensor, baseline: &(CompletionResult, Metrics)) -> Vec<String> {
    let (clean, clean_m) = baseline;
    INTERVALS
        .iter()
        .map(|&every| {
            let label = if every == 0 { "no_checkpoint".into() } else { format!("every_{every}") };
            // Snapshot cost alone: fault-free at this interval.
            let (ckpt_res, ckpt_m) = run(observed, FaultPlan::none(), every);
            // Crash + recovery at this interval.
            let (fault_res, fault_m) = run(observed, crash_plan(), every);
            assert_eq!(factor_bits(clean), factor_bits(&ckpt_res), "{label}: snapshot perturbed");
            assert_eq!(factor_bits(clean), factor_bits(&fault_res), "{label}: recovery inexact");
            // A stage number past the end of the solve would never fire and
            // the table would quietly report a fault-free run.
            assert!(CRASH_STAGE < clean_m.stages, "{label}: the crash is past the last stage");
            assert_eq!(fault_m.faults_injected, 1, "{label}: the crash must fire");
            let base = clean_m.virtual_seconds;
            format!(
                "    \"{label}\": {{ \"every\": {every}, \"checkpoint_overhead_pct\": {:.2}, \"faulted_virtual_seconds\": {:.4}, \"recovery_seconds\": {:.4}, \"machines_lost\": {}, \"total_overhead_pct\": {:.2} }}",
                100.0 * (ckpt_m.virtual_seconds - base) / base,
                fault_m.virtual_seconds,
                fault_m.recovery_seconds,
                fault_m.machines_lost,
                100.0 * (fault_m.virtual_seconds - base) / base,
            )
        })
        .collect()
}

fn main() {
    let observed = workload();
    let baseline = run(&observed, FaultPlan::none(), 0);
    let rows = interval_rows(&observed, &baseline);
    write_bench_json(
        "faults",
        &format!(
            "  \"workload\": {{ \"shape\": {SHAPE:?}, \"nnz\": {NNZ}, \"rank\": {RANK}, \"max_iters\": {ITERS}, \"machines\": {MACHINES} }},\n  \"fault\": {{ \"kind\": \"machine_crash\", \"at_stage\": {CRASH_STAGE}, \"machine\": {CRASH_MACHINE} }},\n  \"fault_free_virtual_seconds\": {:.4},\n  \"intervals\": {{\n{}\n  }},\n  \"note\": \"virtual-clock accounting on the simulated cluster; checkpoint_overhead_pct = fault-free run at this snapshot interval vs no snapshots; total_overhead_pct = crash+recovery at this interval vs the fault-free no-checkpoint baseline; every=0 means no snapshots, so recovery is a cold restart from iteration 0; all runs asserted bit-identical in factors\"",
            baseline.1.virtual_seconds,
            rows.join(",\n"),
        ),
    );
}
