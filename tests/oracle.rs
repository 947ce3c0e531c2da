//! The solver against Algorithm 1 as the paper writes it.
//!
//! [`Oracle`] is a dense, naive transcription of Algorithm 1 that shares
//! nothing with the solver but the random initial factors
//! (`KruskalTensor::random`) and the tensor it reads. Each iteration it
//!
//! * materialises the completed tensor `X = Ω∗T + (1−Ω)∗[[A]]`, cell by cell;
//! * for every mode `n`, forms the Khatri–Rao rows `U⁽ⁿ⁾` of the other
//!   factors explicitly, then `H = X₍ₙ₎U⁽ⁿ⁾` and `U⁽ⁿ⁾ᵀU⁽ⁿ⁾` from them;
//! * updates `B⁽ⁿ⁾` by a dense Cholesky solve of `(ηI + αLₙ)`, `A⁽ⁿ⁾` by
//!   a dense Cholesky solve of `(U⁽ⁿ⁾ᵀU⁽ⁿ⁾ + λI + ηI)`, then `Y⁽ⁿ⁾`;
//! * swaps all modes at once (the loop is Jacobi), takes the largest
//!   factor change as the convergence statistic, and follows the
//!   `η ← min(ρη, η_max)` schedule.
//!
//! No truncated eigenbasis, no residual trick, no cached Gram, no kernel
//! from `distenc-tensor`, `distenc-graph` or `distenc-core`. `AdmmSolver`
//! (on every executor) and `DisTenC` (on four machines) must track it to
//! `frob_dist < 1e-8` per factor with the same iteration count: the bound
//! `tests/equivalence.rs` holds the cluster to against the host.
//!
//! With a similarity graph the solver's B-update is exact only when the
//! truncation keeps every eigenpair, so those cases run at
//! `eigen_k ≥ max dim`.

use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig, ExecMode};
use distenc::graph::builders::tridiagonal_chain;
use distenc::graph::Laplacian;
use distenc::tensor::{CooTensor, KruskalTensor};

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0x0ac1e)
}

/// A row-major `rows×cols` matrix.
#[derive(Clone, Debug)]
struct Dense {
    rows: usize,
    cols: usize,
    v: Vec<f64>,
}

impl Dense {
    fn zeros(rows: usize, cols: usize) -> Dense {
        Dense { rows, cols, v: vec![0.0; rows * cols] }
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.v[i * self.cols + j]
    }

    fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.v[i * self.cols + j]
    }

    fn frob_dist(&self, other: &[f64]) -> f64 {
        self.v.iter().zip(other).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }
}

/// The lower Cholesky factor `G = LLᵀ` of a symmetric positive definite `g`.
fn cholesky(g: &Dense) -> Dense {
    let n = g.rows;
    let mut l = Dense::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = g.at(i, j);
            for k in 0..j {
                s -= l.at(i, k) * l.at(j, k);
            }
            *l.at_mut(i, j) = if i == j {
                assert!(s > 0.0, "not positive definite at pivot {i}: {s}");
                s.sqrt()
            } else {
                s / l.at(j, j)
            };
        }
    }
    l
}

/// `x` with `LLᵀx = b`, by forward then backward substitution.
fn cholesky_solve(l: &Dense, b: &[f64]) -> Vec<f64> {
    let n = l.rows;
    let mut y = vec![0.0; n];
    for i in 0..n {
        let s: f64 = (0..i).map(|k| l.at(i, k) * y[k]).sum();
        y[i] = (b[i] - s) / l.at(i, i);
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let s: f64 = (i + 1..n).map(|k| l.at(k, i) * x[k]).sum();
        x[i] = (y[i] - s) / l.at(i, i);
    }
    x
}

/// `L = D − S` of the chain similarity (weight 1 between neighbours): the
/// graph `tridiagonal_chain` builds for the solver.
fn chain_laplacian(d: usize) -> Dense {
    let mut l = Dense::zeros(d, d);
    for i in 0..d.saturating_sub(1) {
        *l.at_mut(i, i + 1) -= 1.0;
        *l.at_mut(i + 1, i) -= 1.0;
        *l.at_mut(i, i) += 1.0;
        *l.at_mut(i + 1, i + 1) += 1.0;
    }
    l
}

/// The multi-index of cell `c` of a row-major tensor of `shape`.
fn cell_index(shape: &[usize], mut c: usize, idx: &mut [usize]) {
    for (slot, &d) in idx.iter_mut().zip(shape).rev() {
        *slot = c % d;
        c /= d;
    }
}

/// The row-major cell of multi-index `idx`.
fn cell_of(shape: &[usize], idx: &[usize]) -> usize {
    idx.iter().zip(shape).fold(0, |c, (&i, &d)| c * d + i)
}

/// `[[A]](idx) = Σᵣ Πₙ A⁽ⁿ⁾(iₙ, r)`.
fn eval(factors: &[Dense], idx: &[usize]) -> f64 {
    let rank = factors[0].cols;
    (0..rank).map(|r| factors.iter().zip(idx).map(|(a, &i)| a.at(i, r)).product::<f64>()).sum()
}

/// Algorithm 1, dense, one line at a time.
struct Oracle {
    shape: Vec<usize>,
    cfg: AdmmConfig,
    /// `Lₙ` per mode (zero where the mode has no similarity graph).
    laplacians: Vec<Dense>,
    /// `(cell, t)` per observed entry: the mask `Ω` and the data `T`.
    observed: Vec<(usize, f64)>,
    a: Vec<Dense>,
    b: Vec<Dense>,
    y: Vec<Dense>,
    eta: f64,
}

/// What a run of the oracle gives back.
struct OracleRun {
    factors: Vec<Dense>,
    iterations: usize,
    converged: bool,
    /// Train RMSE after each iteration.
    rmse: Vec<f64>,
}

impl Oracle {
    /// Line 1: `A⁽ⁿ⁾` from the seeded random init, `Y⁽ⁿ⁾ = 0`, `η = η₀`.
    /// `chains[n]` puts a chain similarity on mode `n`.
    fn new(observed: &CooTensor, chains: &[bool], cfg: &AdmmConfig) -> Oracle {
        let shape = observed.shape().to_vec();
        let init = KruskalTensor::random(&shape, cfg.rank, cfg.seed);
        let a: Vec<Dense> = init
            .factors()
            .iter()
            .map(|f| Dense { rows: f.rows(), cols: f.cols(), v: f.as_slice().to_vec() })
            .collect();
        let zeros: Vec<Dense> = shape.iter().map(|&d| Dense::zeros(d, cfg.rank)).collect();
        let laplacians = shape
            .iter()
            .zip(chains)
            .map(|(&d, &chain)| if chain { chain_laplacian(d) } else { Dense::zeros(d, d) })
            .collect();
        let observed = (0..observed.nnz())
            .map(|p| (cell_of(&shape, observed.index(p)), observed.value(p)))
            .collect();
        let (b, y) = (zeros.clone(), zeros);
        Oracle { shape, cfg: cfg.clone(), laplacians, observed, a, b, y, eta: cfg.eta0 }
    }

    /// `Ω∗T + (1−Ω)∗[[A]]`, every cell.
    fn completed(&self) -> Vec<f64> {
        let cells: usize = self.shape.iter().product();
        let mut idx = vec![0; self.shape.len()];
        let mut x: Vec<f64> = (0..cells)
            .map(|c| {
                cell_index(&self.shape, c, &mut idx);
                eval(&self.a, &idx)
            })
            .collect();
        for &(c, t) in &self.observed {
            x[c] = t;
        }
        x
    }

    /// `‖Ω∗(T − [[A]])‖_F / √|Ω|`.
    fn train_rmse(&self) -> f64 {
        let mut idx = vec![0; self.shape.len()];
        let sum: f64 = self
            .observed
            .iter()
            .map(|&(c, t)| {
                cell_index(&self.shape, c, &mut idx);
                let e = t - eval(&self.a, &idx);
                e * e
            })
            .sum();
        (sum / self.observed.len() as f64).sqrt()
    }

    /// `H = X₍ₙ₎U⁽ⁿ⁾` and `U⁽ⁿ⁾ᵀU⁽ⁿ⁾`, from `U⁽ⁿ⁾`'s Khatri–Rao rows: one
    /// row per column of the unfolding, `⊛_{k≠n} A⁽ᵏ⁾(iₖ,:)`.
    fn h_and_gram(&self, x: &[f64], n: usize) -> (Dense, Dense) {
        let rank = self.cfg.rank;
        let order = self.shape.len();
        let others: Vec<usize> = (0..order).filter(|&k| k != n).collect();
        let columns: usize = others.iter().map(|&k| self.shape[k]).product();
        let other_shape: Vec<usize> = others.iter().map(|&k| self.shape[k]).collect();
        let mut u = Dense::zeros(columns, rank);
        let mut sub = vec![0; others.len()];
        for j in 0..columns {
            cell_index(&other_shape, j, &mut sub);
            for r in 0..rank {
                *u.at_mut(j, r) =
                    others.iter().zip(&sub).map(|(&k, &i)| self.a[k].at(i, r)).product();
            }
        }
        let mut gram = Dense::zeros(rank, rank);
        for j in 0..columns {
            for p in 0..rank {
                for q in 0..rank {
                    *gram.at_mut(p, q) += u.at(j, p) * u.at(j, q);
                }
            }
        }
        let mut h = Dense::zeros(self.shape[n], rank);
        let mut idx = vec![0; order];
        for (c, &xc) in x.iter().enumerate() {
            cell_index(&self.shape, c, &mut idx);
            let j = others.iter().fold(0, |j, &k| j * self.shape[k] + idx[k]);
            for r in 0..rank {
                *h.at_mut(idx[n], r) += xc * u.at(j, r);
            }
        }
        (h, gram)
    }

    /// Lines 8–12 for every mode against this iteration's `A`, then the
    /// swap; returns `max ₙ ‖A⁽ⁿ⁾ₜ₊₁ − A⁽ⁿ⁾ₜ‖_F`.
    fn iterate(&mut self) -> f64 {
        let AdmmConfig { rank, lambda, alpha, nonneg, .. } = self.cfg;
        let eta = self.eta;
        let x = self.completed();
        let mut next = Vec::with_capacity(self.shape.len());
        for (n, &dim) in self.shape.iter().enumerate() {
            // Line 8: B = (ηI + αL)⁻¹(ηA − Y), column by column.
            let mut shifted = Dense::zeros(dim, dim);
            for i in 0..dim {
                for j in 0..dim {
                    *shifted.at_mut(i, j) = alpha * self.laplacians[n].at(i, j);
                }
                *shifted.at_mut(i, i) += eta;
            }
            let chol = cholesky(&shifted);
            for r in 0..rank {
                let rhs: Vec<f64> =
                    (0..dim).map(|i| eta * self.a[n].at(i, r) - self.y[n].at(i, r)).collect();
                for (i, v) in cholesky_solve(&chol, &rhs).into_iter().enumerate() {
                    *self.b[n].at_mut(i, r) = v;
                }
            }

            // Lines 9–11: A = (H + ηB + Y)(UᵀU + λI + ηI)⁻¹, row by row.
            let (h, mut gram) = self.h_and_gram(&x, n);
            for r in 0..rank {
                *gram.at_mut(r, r) += lambda + eta;
            }
            let chol = cholesky(&gram);
            let mut a = Dense::zeros(dim, rank);
            for i in 0..dim {
                let numer: Vec<f64> = (0..rank)
                    .map(|r| h.at(i, r) + eta * self.b[n].at(i, r) + self.y[n].at(i, r))
                    .collect();
                for (r, v) in cholesky_solve(&chol, &numer).into_iter().enumerate() {
                    *a.at_mut(i, r) = if nonneg { v.max(0.0) } else { v };
                }
            }

            // Line 12: Y += η(B − A).
            for (yv, (bv, av)) in self.y[n].v.iter_mut().zip(self.b[n].v.iter().zip(&a.v)) {
                *yv += eta * (bv - av);
            }
            next.push(a);
        }
        let delta =
            self.a.iter().zip(&next).map(|(old, new)| old.frob_dist(&new.v)).fold(0.0, f64::max);
        self.a = next;
        delta
    }

    /// Lines 5–17.
    fn run(mut self) -> OracleRun {
        let mut rmse = Vec::new();
        let mut converged = false;
        for _ in 0..self.cfg.max_iters {
            let delta = self.iterate();
            rmse.push(self.train_rmse());
            self.eta = (self.cfg.rho * self.eta).min(self.cfg.eta_max);
            if delta < self.cfg.tol {
                converged = true;
                break;
            }
        }
        OracleRun { iterations: rmse.len(), factors: self.a, converged, rmse }
    }
}

/// `res` tracks `oracle`: the same iteration count and convergence flag,
/// every factor within `frob_dist < 1e-8`.
fn assert_tracks(res: &CompletionResult, oracle: &OracleRun, label: &str) {
    assert_eq!(res.iterations, oracle.iterations, "{label}: iterations");
    assert_eq!(res.converged, oracle.converged, "{label}: converged flag");
    for (n, (got, want)) in res.model.factors().iter().zip(&oracle.factors).enumerate() {
        let d = want.frob_dist(got.as_slice());
        assert!(d < 1e-8, "{label}: mode {n} is {d} from the oracle");
    }
}

/// Solve `observed` with chain similarities on the modes `chains` marks,
/// on the host under each executor and on `DisTenC` with four machines,
/// and hold every result to the oracle's.
fn check(observed: &CooTensor, chains: &[bool], cfg: &AdmmConfig, label: &str) {
    let oracle = Oracle::new(observed, chains, cfg).run();
    let laps: Vec<Option<Laplacian>> = observed
        .shape()
        .iter()
        .zip(chains)
        .map(|(&d, &chain)| chain.then(|| Laplacian::from_similarity(tridiagonal_chain(d))))
        .collect();
    let laps: Vec<Option<&Laplacian>> = laps.iter().map(Option::as_ref).collect();
    for exec in [ExecMode::Sequential, ExecMode::Threads(4)] {
        let cfg = AdmmConfig { exec, ..cfg.clone() };
        let res = AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap();
        assert_tracks(&res, &oracle, &format!("{label}, host {exec:?}"));
    }
    let cluster = Cluster::new(ClusterConfig::test(4).with_time_budget(None));
    let res = DisTenC::new(&cluster, cfg.clone()).unwrap().solve(observed, &laps).unwrap();
    assert_tracks(&res, &oracle, &format!("{label}, DisTenC on 4 machines"));
}

/// Ranks 1, 3, the two literal kernel ranks 8 and 16, their neighbour 17
/// and the paper's 20; orders 3 and 4 (the sweep's literal-order bodies)
/// and 2 and 5 (its generic one).
const CASES: &[(&[usize], usize)] = &[
    (&[13, 11, 9], 1),
    (&[13, 11, 9], 3),
    (&[13, 11, 9], 8),
    (&[13, 11, 9], 16),
    (&[13, 11, 9], 17),
    (&[13, 11, 9], 20),
    (&[7, 6, 5, 4], 3),
    (&[7, 6, 5, 4], 8),
    (&[7, 6, 5, 4], 16),
    (&[7, 6, 5, 4], 20),
    (&[17, 15], 3),
    (&[5, 4, 4, 3, 3], 8),
];

fn case_config(rank: usize) -> AdmmConfig {
    AdmmConfig { rank, max_iters: 6, tol: 1e-12, ..Default::default() }
}

#[test]
fn the_solver_tracks_algorithm_1_without_side_information() {
    for &(shape, rank) in CASES {
        let observed = planted(shape, rank, 60 * shape.len(), rank as u64 + 5);
        let chains = vec![false; shape.len()];
        check(&observed, &chains, &case_config(rank), &format!("shape {shape:?} rank {rank}"));
    }
}

#[test]
fn the_solver_tracks_algorithm_1_with_chain_similarities() {
    // Every mode, then every other mode, at a truncation that keeps every
    // eigenpair (so Eq. 7 is exact) and an α that makes the graph matter.
    for &(shape, rank) in CASES {
        let observed = planted(shape, rank, 60 * shape.len(), rank as u64 + 11);
        let eigen_k = *shape.iter().max().unwrap();
        let cfg = AdmmConfig { alpha: 2.0, eigen_k, ..case_config(rank) };
        let all = vec![true; shape.len()];
        let some: Vec<bool> = (0..shape.len()).map(|n| n % 2 == 1).collect();
        for (chains, which) in [(all, "all modes"), (some, "odd modes")] {
            let label = format!("shape {shape:?} rank {rank}, chains on {which}");
            check(&observed, &chains, &cfg, &label);
        }
    }
}

#[test]
fn the_solver_tracks_algorithm_1_under_the_nonnegativity_constraint() {
    for &(shape, rank) in CASES {
        let observed = planted(shape, rank, 60 * shape.len(), rank as u64 + 17);
        let chains: Vec<bool> = (0..shape.len()).map(|n| n == 0).collect();
        let cfg =
            AdmmConfig { nonneg: true, eigen_k: shape[0], alpha: 0.5, ..case_config(rank) };
        check(&observed, &chains, &cfg, &format!("shape {shape:?} rank {rank}, nonneg"));
    }
}

#[test]
fn the_solver_stops_where_algorithm_1_stops() {
    // A loose tolerance: both converge long before the cap, at the same
    // iteration.
    let observed = planted(&[12, 10, 8], 2, 500, 77);
    let cfg = AdmmConfig { rank: 2, max_iters: 200, tol: 1e-5, ..Default::default() };
    let oracle = Oracle::new(&observed, &[false; 3], &cfg).run();
    assert!(oracle.converged && oracle.iterations < 200, "{} iterations", oracle.iterations);
    check(&observed, &[false; 3], &cfg, "early convergence");
}

/// A measurement, not a gate: the oracle and the solver on the unplanted
/// skewed tensor that makes the solver diverge (`distenc generate --kind
/// skewed --dims 60,50,40 --nnz 20000 --seed 3`, then `complete --rank 4`).
/// Prints the train RMSE of both at iterations 6, 12 and 17 (the trace's
/// 0-based `iter`). Run it with
/// `cargo test --release --test oracle -- --ignored --nocapture`.
#[test]
#[ignore]
fn measure_the_skewed_repro() {
    let observed = distenc::datagen::synthetic::skewed_tensor(&[60, 50, 40], 20_000, 3);
    // `complete`'s defaults: the config's, with `--tol` at 1e-4.
    let cfg = AdmmConfig { rank: 4, tol: 1e-4, exec: ExecMode::Sequential, ..Default::default() };
    let budget = AdmmConfig { max_iters: 18, ..cfg.clone() };
    let oracle = Oracle::new(&observed, &[false; 3], &budget).run();
    let laps = [None, None, None];
    let solver = AdmmSolver::new(AdmmConfig { max_iters: 17, ..cfg })
        .unwrap()
        .solve(&observed, &laps)
        .unwrap();
    let last = AdmmSolver::new(budget).unwrap().solve(&observed, &laps);
    println!("nnz {}", observed.nnz());
    for t in [6, 12, 17] {
        let solver = match solver.trace.points.get(t) {
            Some(p) => format!("{:e}", p.train_rmse),
            None => format!("{:?}", last.as_ref().err()),
        };
        let oracle = oracle.rmse.get(t).map_or("stopped".into(), |r| format!("{r:e}"));
        println!("iteration {t}: oracle {oracle}, solver {solver}");
    }
}
