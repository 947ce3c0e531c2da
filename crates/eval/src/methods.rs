//! Uniform driver over the five competitors.
//!
//! The methods take different auxiliary-information inputs (DisTenC/TFAI
//! want graph Laplacians, SCouT/FlexiFact want the raw similarity
//! matrices as coupled factorization targets, ALS takes none) and run on
//! different substrates (Spark, MapReduce, one machine). [`Method`]
//! normalizes all of that so the figure drivers can sweep methods
//! generically.

use distenc_baselines::{
    AlsConfig, AlsModel, AlsSolver, FlexiFactConfig, FlexiFactModel, FlexiFactSolver,
    ScoutConfig, ScoutModel, ScoutSolver, TfaiConfig, TfaiModel, TfaiSolver,
};
use distenc_core::model::{DisTenCModel, MethodModel};
use distenc_core::{AdmmConfig, AdmmSolver, CompletionResult, DisTenC, Result};
use distenc_dataflow::{Cluster, ClusterConfig};
use distenc_graph::{Laplacian, SparseSym};
use distenc_tensor::CooTensor;

/// The five methods of §IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's contribution (Spark).
    DisTenC,
    /// Distributed CP-ALS completion (MPI-style, no aux info).
    Als,
    /// Single-machine completion with aux info.
    Tfai,
    /// Coupled matrix-tensor factorization (MapReduce).
    Scout,
    /// Stratified SGD coupled factorization (MapReduce).
    FlexiFact,
}

/// Hyper-parameters shared across methods so comparisons are apples to
/// apples. Per-method configs are derived from these.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// CP rank.
    pub rank: usize,
    /// Ridge weight.
    pub lambda: f64,
    /// Auxiliary-information weight (α for trace methods, β for coupled
    /// ones).
    pub alpha: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance.
    pub tol: f64,
    /// Laplacian eigen-truncation width.
    pub eigen_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            rank: 10,
            lambda: 0.1,
            alpha: 1.0,
            max_iters: 40,
            tol: 1e-4,
            eigen_k: 20,
            seed: 42,
        }
    }
}

impl Method {
    /// All methods, in the paper's legend order.
    pub(crate) const ALL: [Method; 5] =
        [Method::Als, Method::Tfai, Method::Scout, Method::FlexiFact, Method::DisTenC];

    /// The three methods the application experiments compare (§IV-E/F:
    /// TFAI cannot load the datasets, FlexiFact scales worse than SCouT).
    pub const APPLICATION: [Method; 3] = [Method::Als, Method::Scout, Method::DisTenC];

    /// Figure-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::DisTenC => "DisTenC",
            Method::Als => "ALS",
            Method::Tfai => "TFAI",
            Method::Scout => "SCouT",
            Method::FlexiFact => "FlexiFact",
        }
    }

    /// The method's scalability model (Fig. 3 sweeps).
    pub(crate) fn model(&self) -> Box<dyn MethodModel> {
        match self {
            Method::DisTenC => Box::new(DisTenCModel),
            Method::Als => Box::new(AlsModel),
            Method::Tfai => Box::new(TfaiModel),
            Method::Scout => Box::new(ScoutModel),
            Method::FlexiFact => Box::new(FlexiFactModel),
        }
    }

    /// The substrate the paper runs this method on.
    pub(crate) fn cluster_config(&self) -> ClusterConfig {
        match self {
            Method::DisTenC | Method::Als => ClusterConfig::paper_spark(),
            Method::Scout | Method::FlexiFact => ClusterConfig::paper_mapreduce(),
            Method::Tfai => ClusterConfig::single_machine(),
        }
    }

    /// Run the method serially (wall-clock trace) on `observed` with
    /// optional per-mode similarities.
    pub fn run(
        &self,
        observed: &CooTensor,
        similarities: &[Option<&SparseSym>],
        knobs: &Knobs,
    ) -> Result<CompletionResult> {
        self.run_inner(observed, similarities, knobs, None)
    }

    /// Run with engine accounting on `cluster` (virtual-time trace); pass
    /// a cluster built from [`Method::cluster_config`] for the paper's
    /// setup. TFAI is inherently single-machine and ignores the cluster.
    pub(crate) fn run_on_cluster(
        &self,
        cluster: &Cluster,
        observed: &CooTensor,
        similarities: &[Option<&SparseSym>],
        knobs: &Knobs,
    ) -> Result<CompletionResult> {
        self.run_inner(observed, similarities, knobs, Some(cluster))
    }

    fn run_inner(
        &self,
        observed: &CooTensor,
        similarities: &[Option<&SparseSym>],
        knobs: &Knobs,
        cluster: Option<&Cluster>,
    ) -> Result<CompletionResult> {
        match self {
            Method::DisTenC => {
                let laps = to_laplacians(similarities);
                let lap_refs = lap_refs(&laps);
                let cfg = AdmmConfig {
                    rank: knobs.rank,
                    lambda: knobs.lambda,
                    alpha: knobs.alpha,
                    max_iters: knobs.max_iters,
                    tol: knobs.tol,
                    eigen_k: knobs.eigen_k,
                    seed: knobs.seed,
                    ..Default::default()
                };
                match cluster {
                    Some(cl) => DisTenC::new(cl, cfg)?.solve(observed, &lap_refs),
                    None => AdmmSolver::new(cfg)?.solve(observed, &lap_refs),
                }
            }
            Method::Als => {
                let cfg = AlsConfig {
                    rank: knobs.rank,
                    lambda: knobs.lambda,
                    max_iters: knobs.max_iters,
                    tol: knobs.tol,
                    seed: knobs.seed,
                };
                match cluster {
                    Some(cl) => AlsSolver::on_cluster(cfg, cl)?.solve(observed),
                    None => AlsSolver::new(cfg)?.solve(observed),
                }
            }
            Method::Tfai => {
                let laps = to_laplacians(similarities);
                let lap_refs = lap_refs(&laps);
                let cfg = TfaiConfig {
                    rank: knobs.rank,
                    lambda: knobs.lambda,
                    alpha: knobs.alpha,
                    max_iters: knobs.max_iters,
                    tol: knobs.tol,
                    eigen_k: knobs.eigen_k,
                    seed: knobs.seed,
                };
                TfaiSolver::new(cfg)?.solve(observed, &lap_refs)
            }
            Method::Scout => {
                // Coupled baselines run at their native default coupling
                // weight; `knobs.alpha` parameterizes the trace-regularized
                // methods under study. (EXPERIMENTS.md notes that sweeping
                // β can make SCouT considerably stronger on the planted
                // analogs, whose similarity matrices are closer to exactly
                // factorizable than real side information is.)
                let cfg = ScoutConfig {
                    rank: knobs.rank,
                    lambda: knobs.lambda,
                    beta: ScoutConfig::default().beta,
                    max_iters: knobs.max_iters,
                    tol: knobs.tol,
                    seed: knobs.seed,
                };
                match cluster {
                    Some(cl) => ScoutSolver::on_cluster(cfg, cl)?.solve(observed, similarities),
                    None => ScoutSolver::new(cfg)?.solve(observed, similarities),
                }
            }
            Method::FlexiFact => {
                let cfg = FlexiFactConfig {
                    rank: knobs.rank,
                    lambda: knobs.lambda.min(0.05),
                    beta: FlexiFactConfig::default().beta,
                    max_iters: knobs.max_iters,
                    tol: knobs.tol,
                    seed: knobs.seed,
                    ..Default::default()
                };
                match cluster {
                    Some(cl) => {
                        FlexiFactSolver::on_cluster(cfg, cl)?.solve(observed, similarities)
                    }
                    None => FlexiFactSolver::new(cfg)?.solve(observed, similarities),
                }
            }
        }
    }
}

/// Build owned Laplacians for the modes that have similarities.
fn to_laplacians(similarities: &[Option<&SparseSym>]) -> Vec<Option<Laplacian>> {
    similarities
        .iter()
        .map(|s| s.map(|s| Laplacian::from_similarity(s.clone())))
        .collect()
}

fn lap_refs(laps: &[Option<Laplacian>]) -> Vec<Option<&Laplacian>> {
    laps.iter().map(|l| l.as_ref()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_datagen::synthetic::error_tensor;
    use distenc_tensor::split::split_missing;

    #[test]
    fn every_method_runs_on_a_small_problem() {
        let data = error_tensor(&[15, 15, 15], 2, 800, 1);
        let split = split_missing(&data.observed, 0.3, 2);
        let sims: Vec<Option<&SparseSym>> = data.similarities.iter().map(Some).collect();
        let knobs = Knobs { rank: 2, max_iters: 8, ..Default::default() };
        for m in Method::ALL {
            let res = m.run(&split.train, &sims, &knobs).unwrap();
            assert!(res.iterations > 0, "{} must iterate", m.name());
            assert!(
                res.trace.final_rmse().unwrap().is_finite(),
                "{} produced a non-finite RMSE",
                m.name()
            );
        }
    }

    #[test]
    fn substrates_match_the_paper() {
        use distenc_dataflow::Platform;
        assert_eq!(Method::DisTenC.cluster_config().mode, Platform::Spark);
        assert_eq!(Method::Scout.cluster_config().mode, Platform::MapReduce);
        assert_eq!(Method::FlexiFact.cluster_config().mode, Platform::MapReduce);
        assert_eq!(Method::Tfai.cluster_config().machines, 1);
    }

    #[test]
    fn model_names_match_method_names() {
        for m in Method::ALL {
            assert_eq!(m.model().name(), m.name());
        }
    }

    #[test]
    fn cluster_runs_produce_virtual_timestamps() {
        let data = error_tensor(&[12, 12, 12], 2, 500, 3);
        let sims: Vec<Option<&SparseSym>> = data.similarities.iter().map(Some).collect();
        let knobs = Knobs { rank: 2, max_iters: 3, tol: 1e-12, ..Default::default() };
        for m in [Method::DisTenC, Method::Als, Method::Scout] {
            let cluster = Cluster::new(m.cluster_config().with_time_budget(None));
            let res = m.run_on_cluster(&cluster, &data.observed, &sims, &knobs).unwrap();
            let t = res.trace.total_seconds();
            assert!(t > 0.0, "{} trace should advance the virtual clock", m.name());
            assert!((t - cluster.now()).abs() < 1e-9);
        }
    }
}
