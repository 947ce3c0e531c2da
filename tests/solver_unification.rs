//! Cross-driver unification tests: `AdmmSolver` and `DisTenC` now share
//! one solver core (`distenc-core`'s `solver` module), so their agreement
//! is a *structural* fact, not a numerical coincidence. These tests pin
//! the two strongest consequences:
//!
//! 1. On a **one-machine cluster** the distributed decomposition collapses
//!    to a single block and a single partition per mode, making every
//!    kernel's floating-point association identical to the serial
//!    solver's — the two drivers must agree **bit for bit**, at any
//!    `DISTENC_THREADS` setting (both sides are thread-count bit-exact).
//! 2. On a **multi-machine cluster** only the per-block accumulation
//!    order differs, so factors agree to rounding (1e-8).
//!
//! Plus regression tests that an empty observed tensor is an error from
//! every solver — never a `NaN` train RMSE (0/0) leaking into the trace —
//! and that a diverging solve is a typed error on every path through the
//! core, never `converged` beside a `NaN`.

use distenc::baselines::{AlsConfig, AlsSolver};
use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, CoreError, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode};
use distenc::stream::{DeltaBatch, StreamingSolver};
use distenc::tensor::CooTensor;
use proptest::prelude::*;

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0x5eed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One machine ⇒ one block, one partition per mode ⇒ the cluster
    /// backend's kernels run the very same floating-point associations as
    /// the host backend's. Every factor entry, every traced RMSE, and
    /// every traced delta must be bit-identical.
    #[test]
    fn one_machine_distenc_is_bitwise_the_serial_solver(
        dims in prop::collection::vec(3usize..=9, 3),
        rank in 1usize..=3,
        nnz in 30usize..=90,
        seed in any::<u64>(),
    ) {
        let observed = planted(&dims, rank, nnz, seed);
        let cfg = AdmmConfig { rank, max_iters: 4, tol: 1e-12, ..Default::default() };

        let serial = AdmmSolver::new(cfg.clone())
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        let cluster = Cluster::new(ClusterConfig::test(1).with_time_budget(None));
        let dist = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();

        prop_assert_eq!(serial.iterations, dist.iterations);
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "factor entries must be bit-identical");
            }
        }
        for (p, q) in serial.trace.points.iter().zip(&dist.trace.points) {
            prop_assert_eq!(p.train_rmse.to_bits(), q.train_rmse.to_bits());
            prop_assert_eq!(p.factor_delta.to_bits(), q.factor_delta.to_bits());
        }
    }

    /// Multi-machine blocking only reassociates the MTTKRP and Gram sums:
    /// the shared core guarantees everything else, so factors agree to
    /// rounding.
    #[test]
    fn multi_machine_distenc_matches_serial_to_rounding(
        machines in 2usize..=4,
        seed in any::<u64>(),
    ) {
        let observed = planted(&[12, 10, 8], 2, 300, seed);
        let cfg = AdmmConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() };
        let serial = AdmmSolver::new(cfg.clone())
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        let cluster = Cluster::new(ClusterConfig::test(machines).with_time_budget(None));
        let dist = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        for (a, b) in serial.model.factors().iter().zip(dist.model.factors()) {
            prop_assert!(a.frob_dist(b).unwrap() < 1e-8);
        }
    }
}

/// An empty observed tensor must surface as a setup error from every
/// solver — the shared core also guards it defensively so a future driver
/// can never produce `train_rmse = √(0/0) = NaN`.
#[test]
fn empty_tensor_is_an_error_not_a_nan() {
    let empty = CooTensor::new(vec![6, 5, 4]);
    let cfg = AdmmConfig { rank: 2, max_iters: 3, ..Default::default() };

    let serial = AdmmSolver::new(cfg.clone()).unwrap().solve(&empty, &[None, None, None]);
    assert!(serial.is_err(), "AdmmSolver must reject an empty tensor");

    let cluster = Cluster::new(ClusterConfig::test(2).with_time_budget(None));
    let dist = DisTenC::new(&cluster, cfg).unwrap().solve(&empty, &[None, None, None]);
    assert!(dist.is_err(), "DisTenC must reject an empty tensor");

    let als = AlsSolver::new(AlsConfig { rank: 2, max_iters: 3, ..Default::default() })
        .unwrap()
        .solve(&empty);
    assert!(als.is_err(), "ALS baseline must reject an empty tensor");
}

/// The error path must fire before any trace point exists: no partial
/// trace with NaNs, no "converged" flag.
#[test]
fn empty_tensor_error_carries_no_partial_state() {
    let empty = CooTensor::new(vec![4, 4]);
    let solver = AdmmSolver::new(AdmmConfig { rank: 2, ..Default::default() }).unwrap();
    let err = solver.solve(&empty, &[None, None]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no entries"), "unexpected error message: {msg}");
}

/// `distenc generate --kind skewed --dims 60,50,40 --nnz 20000 --seed 3`
/// (11,515 entries once duplicates merge) diverges at rank 4 under the
/// CLI's defaults. Host on either executor, a 4-machine cluster and a
/// streaming warm re-solve all run the one core loop:
/// each ends with a finite train RMSE or `NonFinite`, never `Ok` with a
/// non-finite one. A `NaN` in the data is `NonFinite` at iteration 0.
#[test]
fn a_diverging_solve_is_a_typed_error_on_every_path() {
    let observed = distenc::datagen::synthetic::skewed_tensor(&[60, 50, 40], 20_000, 3);
    assert_eq!(observed.nnz(), 11_515);
    let none = [None, None, None];
    let cfg = AdmmConfig { rank: 4, tol: 1e-4, ..Default::default() };
    let check = |path: &str, outcome: Result<CompletionResult, CoreError>| match outcome {
        Ok(r) => assert!(r.trace.final_rmse().unwrap().is_finite(), "{path}: Ok, RMSE not finite"),
        Err(CoreError::NonFinite { .. }) => {}
        Err(e) => panic!("{path}: {e}"),
    };

    let default = AdmmSolver::new(cfg.clone()).unwrap().solve(&observed, &none);
    let Err(CoreError::NonFinite { iter }) = default else {
        panic!("the default host solve must diverge: {default:?}")
    };
    let msg = CoreError::NonFinite { iter }.to_string();
    assert!(msg.contains(&format!("iteration {iter}")), "{msg}");

    for exec in [ExecMode::Sequential, ExecMode::Threads(2)] {
        let solver = AdmmSolver::new(cfg.clone().with_exec(exec)).unwrap();
        check(&format!("{exec:?}"), solver.solve(&observed, &none));
    }
    let cluster = Cluster::new(ClusterConfig::test(4).with_time_budget(None));
    check("DisTenC", DisTenC::new(&cluster, cfg.clone()).unwrap().solve(&observed, &none));

    let short = AdmmConfig { max_iters: 4, ..cfg.clone() };
    let mut stream = StreamingSolver::new(observed.clone(), vec![None; 3], short).unwrap();
    stream.solve().unwrap();
    let update = (observed.index(7).to_vec(), 2.0);
    let batch = DeltaBatch::try_new(&[60, 50, 40], &[0; 3], vec![], vec![update]).unwrap();
    stream.apply(&batch).unwrap();
    stream.set_budget(cfg.max_iters, cfg.tol).unwrap();
    check("streaming warm re-solve", stream.solve().map_err(|e| match e {
        distenc::stream::StreamError::Core(e) => e,
        e => panic!("{e}"),
    }));

    let mut poisoned = observed;
    poisoned.values_mut()[100] = f64::NAN;
    let err = AdmmSolver::new(cfg).unwrap().solve(&poisoned, &none).unwrap_err();
    assert_eq!(err, CoreError::NonFinite { iter: 0 });
}
