//! The distributed solver must be numerically equivalent to the serial
//! reference (Algorithm 3 reorganizes Algorithm 1's computation; it does
//! not change it) — across orders, auxiliary settings, constraints, and
//! cluster sizes.

use distenc::core::{AdmmConfig, AdmmSolver, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig};
use distenc::graph::builders::tridiagonal_chain;
use distenc::graph::Laplacian;
use distenc::tensor::CooTensor;

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0xe0e0)
}

fn assert_equivalent(
    observed: &CooTensor,
    laplacians: &[Option<&Laplacian>],
    cfg: AdmmConfig,
    machines: usize,
) {
    let serial = AdmmSolver::new(cfg.clone())
        .unwrap()
        .solve(observed, laplacians)
        .unwrap();
    let cluster = Cluster::new(ClusterConfig::test(machines).with_time_budget(None));
    let dist = DisTenC::new(&cluster, cfg)
        .unwrap()
        .solve(observed, laplacians)
        .unwrap();
    assert_eq!(serial.iterations, dist.iterations);
    assert_eq!(serial.converged, dist.converged);
    for (n, (a, b)) in serial
        .model
        .factors()
        .iter()
        .zip(dist.model.factors())
        .enumerate()
    {
        let d = a.frob_dist(b).unwrap();
        assert!(d < 1e-8, "mode {n} factors diverged by {d}");
    }
}

#[test]
fn order_three_no_aux() {
    let observed = planted(&[18, 14, 11], 3, 700, 1);
    let cfg = AdmmConfig { rank: 3, max_iters: 10, tol: 1e-12, ..Default::default() };
    assert_equivalent(&observed, &[None, None, None], cfg, 3);
}

#[test]
fn order_two_matrix_completion() {
    // Matrix completion is the N = 2 special case the paper mentions.
    let observed = planted(&[25, 20], 2, 300, 2);
    let cfg = AdmmConfig { rank: 2, max_iters: 8, tol: 1e-12, ..Default::default() };
    assert_equivalent(&observed, &[None, None], cfg, 2);
}

#[test]
fn order_four_tensor() {
    let observed = planted(&[10, 8, 7, 6], 2, 800, 3);
    let cfg = AdmmConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() };
    assert_equivalent(&observed, &[None, None, None, None], cfg, 4);
}

#[test]
fn with_auxiliary_information_all_modes() {
    let shape = [16usize, 12, 9];
    let observed = planted(&shape, 2, 500, 4);
    let laps: Vec<Laplacian> = shape
        .iter()
        .map(|&d| Laplacian::from_similarity(tridiagonal_chain(d)))
        .collect();
    let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(Some).collect();
    let cfg = AdmmConfig {
        rank: 2,
        max_iters: 8,
        tol: 1e-12,
        alpha: 3.0,
        eigen_k: 6,
        ..Default::default()
    };
    assert_equivalent(&observed, &lap_refs, cfg, 3);
}

#[test]
fn with_auxiliary_information_partial_modes() {
    let shape = [16usize, 12, 9];
    let observed = planted(&shape, 2, 500, 5);
    let lap = Laplacian::from_similarity(tridiagonal_chain(12));
    let cfg = AdmmConfig { rank: 2, max_iters: 8, tol: 1e-12, alpha: 2.0, ..Default::default() };
    assert_equivalent(&observed, &[None, Some(&lap), None], cfg, 5);
}

#[test]
fn with_nonneg_projection() {
    let observed = planted(&[14, 14, 14], 2, 400, 6);
    let cfg = AdmmConfig { rank: 2, max_iters: 8, tol: 1e-12, nonneg: true, ..Default::default() };
    assert_equivalent(&observed, &[None, None, None], cfg, 3);
}

#[test]
fn result_independent_of_machine_count() {
    // The machine count changes *accounting*, never numerics.
    let observed = planted(&[20, 15, 10], 2, 600, 7);
    let cfg = AdmmConfig { rank: 2, max_iters: 6, tol: 1e-12, ..Default::default() };
    let mut finals = Vec::new();
    for machines in [1usize, 2, 5, 9] {
        let cluster = Cluster::new(ClusterConfig::test(machines).with_time_budget(None));
        let res = DisTenC::new(&cluster, cfg.clone())
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        finals.push(res.trace.final_rmse().unwrap());
    }
    for w in finals.windows(2) {
        // Block layouts differ with M, so accumulation order (and thus
        // the last few floating-point bits) may differ.
        assert!(
            (w[0] - w[1]).abs() < 1e-9,
            "final RMSE must not depend on the cluster size: {finals:?}"
        );
    }
}
