//! Failure injection and degenerate-input behaviour across the stack.

use distenc::baselines::{AlsConfig, AlsSolver};
use distenc::core::{AdmmConfig, AdmmSolver, CoreError, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig, DataflowError};
use distenc::graph::{Laplacian, SparseSym};
use distenc::tensor::CooTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0xfa11)
}

#[test]
fn sparse_slices_and_empty_planes_are_fine() {
    // A tensor where many slices of mode 0 hold no observations at all:
    // blocks along those slices are empty, factor rows there are never
    // touched by MTTKRP.
    let mut observed = CooTensor::new(vec![30, 10, 10]);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..200 {
        // Only even mode-0 slices below 10 are populated.
        let idx = [
            rng.random_range(0..5usize) * 2,
            rng.random_range(0..10),
            rng.random_range(0..10),
        ];
        observed.push(&idx, rng.random::<f64>()).unwrap();
    }
    observed.sort_dedup();
    let cfg = AdmmConfig { rank: 2, max_iters: 5, tol: 1e-12, ..Default::default() };
    let cluster = Cluster::new(ClusterConfig::test(4).with_time_budget(None));
    let res = DisTenC::new(&cluster, cfg)
        .unwrap()
        .solve(&observed, &[None, None, None])
        .unwrap();
    assert!(res.trace.final_rmse().unwrap().is_finite());
    assert!(res.model.factors()[0].is_finite());
}

#[test]
fn single_entry_tensor() {
    let observed = CooTensor::from_entries(vec![5, 5, 5], &[(&[1, 2, 3], 4.0)]).unwrap();
    let cfg = AdmmConfig { rank: 1, max_iters: 30, tol: 1e-10, lambda: 1e-6, ..Default::default() };
    let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
    // One observation, rank one: it should be fit almost exactly.
    assert!((res.model.eval(&[1, 2, 3]) - 4.0).abs() < 0.2);
}

#[test]
fn rank_larger_than_some_mode() {
    // Rank 6 on a mode of length 4 — the normal equations stay SPD thanks
    // to the λ + η ridge.
    let observed = planted(&[4, 12, 12], 2, 250, 5);
    let cfg = AdmmConfig { rank: 6, max_iters: 6, tol: 1e-12, ..Default::default() };
    let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
    assert!(res.trace.final_rmse().unwrap().is_finite());
}

#[test]
fn edgeless_similarity_behaves_like_no_aux() {
    let observed = planted(&[15, 15, 15], 2, 400, 7);
    let empty = Laplacian::from_similarity(SparseSym::from_triplets(15, &[]));
    let cfg = AdmmConfig { rank: 2, max_iters: 8, tol: 1e-12, alpha: 5.0, ..Default::default() };
    let with_empty = AdmmSolver::new(cfg.clone())
        .unwrap()
        .solve(&observed, &[Some(&empty), None, None])
        .unwrap();
    let without = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
    // L = 0 for an edgeless graph, so the trace term vanishes either way.
    for (a, b) in with_empty.model.factors().iter().zip(without.model.factors()) {
        assert!(a.frob_dist(b).unwrap() < 1e-9);
    }
}

#[test]
fn oom_is_reported_not_panicked() {
    let observed = planted(&[40, 40, 40], 6, 5_000, 9);
    let cluster = Cluster::new(ClusterConfig::test(2).with_memory(32 * 1024));
    let cfg = AdmmConfig { rank: 6, max_iters: 3, ..Default::default() };
    match DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &[None, None, None]) {
        Err(CoreError::Dataflow(DataflowError::OutOfMemory { needed, capacity, .. })) => {
            assert!(needed > capacity);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
}

#[test]
fn oot_is_reported_not_panicked() {
    let observed = planted(&[30, 30, 30], 4, 3_000, 11);
    let cluster = Cluster::new(ClusterConfig::test(2).with_time_budget(Some(0.05)));
    let cfg = AdmmConfig { rank: 4, max_iters: 200, tol: 1e-15, ..Default::default() };
    match DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &[None, None, None]) {
        Err(CoreError::Dataflow(DataflowError::OutOfTime { elapsed, budget })) => {
            assert!(elapsed > budget);
        }
        other => panic!("expected OOT, got {other:?}"),
    }
}

#[test]
fn baselines_survive_degenerate_inputs() {
    // Mode of length 1 (Facebook's 5-slice time mode scaled to absurdity).
    let observed = planted(&[12, 12, 1], 2, 100, 13);
    let als = AlsSolver::new(AlsConfig { rank: 2, max_iters: 5, ..Default::default() })
        .unwrap()
        .solve(&observed)
        .unwrap();
    assert!(als.trace.final_rmse().unwrap().is_finite());
}

#[test]
fn values_with_extreme_magnitudes() {
    let mut observed = planted(&[10, 10, 10], 2, 300, 15);
    for v in observed.values_mut() {
        *v *= 1e8;
    }
    let cfg = AdmmConfig { rank: 2, max_iters: 20, tol: 1e-9, ..Default::default() };
    let res = AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap();
    let final_rmse = res.trace.final_rmse().unwrap();
    let initial_rmse = res.trace.points[0].train_rmse;
    assert!(final_rmse.is_finite());
    assert!(final_rmse < initial_rmse, "must still make progress at 1e8 scale");
}
