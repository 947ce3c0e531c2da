//! How many thread pools a solve call starts: one, built from
//! `AdmmConfig::exec`, which the call's eigensolves and entry sweeps
//! share; none under `Sequential`; and none for the simulated cluster,
//! which is only a ledger. `scoped_pool::pools_built` counts every pool
//! the process builds, so this file holds one `#[test]`: no other test
//! can build a pool inside its windows.

use distenc::core::{AdmmConfig, AdmmSolver, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode};
use distenc::graph::builders::tridiagonal_chain;
use distenc::graph::Laplacian;

mod common;

/// Pools `f` builds.
fn pools_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = scoped_pool::pools_built();
    let out = f();
    (scoped_pool::pools_built() - before, out)
}

#[test]
fn a_solve_call_builds_one_pool_and_the_cluster_none() {
    let shape = [12, 10, 8];
    let observed = common::planted(&shape, 2, 400, 5, 0x9001);
    let laps = [12, 10].map(|n| Laplacian::from_similarity(tridiagonal_chain(n)));
    let two_graphs = [Some(&laps[0]), Some(&laps[1]), None];
    // Explicit, so both `DISTENC_THREADS` sweeps build pools.
    let cfg = AdmmConfig {
        rank: 2,
        max_iters: 3,
        alpha: 1.0,
        eigen_k: 4,
        exec: ExecMode::Threads(2),
        ..Default::default()
    };

    // The eigensolves and the sweeps of a host solve share its pool.
    let solver = AdmmSolver::new(cfg.clone()).unwrap();
    let (pools, res) = pools_in(|| solver.solve(&observed, &two_graphs));
    res.unwrap();
    assert_eq!(pools, 1, "a cold host solve with two graphs");

    // The cluster holds no executor, whatever `DISTENC_THREADS` says.
    let (pools, cluster) = pools_in(|| Cluster::new(ClusterConfig::test(3).with_time_budget(None)));
    assert_eq!(pools, 0, "Cluster::new");

    let (pools, res) =
        pools_in(|| DisTenC::new(&cluster, cfg.clone()).unwrap().solve(&observed, &two_graphs));
    res.unwrap();
    assert_eq!(pools, 1, "a DisTenC solve with two graphs");

    // `AdmmConfig::exec` is DisTenC's only thread count.
    let sequential = AdmmConfig { exec: ExecMode::Sequential, ..cfg };
    let (pools, res) =
        pools_in(|| DisTenC::new(&cluster, sequential).unwrap().solve(&observed, &two_graphs));
    res.unwrap();
    assert_eq!(pools, 0, "a sequential DisTenC solve");
}
