//! One driver per table and figure of the paper's evaluation (§IV).
//!
//! Each driver returns structured data (for tests and plotting) and the
//! `distenc-bench` binaries render it with [`crate::table`]. Drivers take
//! a [`Profile`]: `Quick` sizes run in seconds inside the test suite,
//! `Full` sizes are for the bench binaries. The *modelled* sweeps
//! (Figs. 3 and 4) always use the paper's exact parameters — models are
//! cheap at any scale; the *measured* experiments (Figs. 5–7, Table III)
//! use scaled analogs per DESIGN.md §2.

use crate::discovery::{discover_concepts, mean_purity, Concept};
use crate::methods::{Knobs, Method};
use crate::metrics;
use distenc_core::model::{RunOutcome, WorkloadSpec};
use distenc_core::{CompletionResult, Result};
use distenc_dataflow::Cluster;
use distenc_datagen::apps::{dblp_like, facebook_like, netflix_like, twitter_like, Dataset};
use distenc_datagen::synthetic::error_tensor;
use distenc_graph::SparseSym;
use distenc_tensor::split::split_missing;

/// Experiment size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Small shapes for the test suite (seconds).
    Quick,
    /// Larger shapes for the bench binaries.
    Full,
}

/// One modelled data point of a Fig. 3 sweep.
#[derive(Debug, Clone, Copy)]
pub struct ModelPoint {
    /// Swept parameter value (dimension, nnz, or rank).
    pub x: u64,
    /// Modelled outcome (time / O.O.M. / O.O.T.).
    pub outcome: RunOutcome,
}

/// A method's curve in a modelled sweep.
#[derive(Debug, Clone)]
pub struct ModelSeries {
    /// The method.
    pub method: Method,
    /// Curve points in sweep order.
    pub points: Vec<ModelPoint>,
}

fn model_sweep(xs: &[u64], workload: impl Fn(u64) -> WorkloadSpec) -> Vec<ModelSeries> {
    Method::ALL
        .iter()
        .map(|&method| {
            let model = method.model();
            let cluster = method.cluster_config();
            let points = xs
                .iter()
                .map(|&x| ModelPoint { x, outcome: model.estimate(&workload(x), &cluster) })
                .collect();
            ModelSeries { method, points }
        })
        .collect()
}

/// Fig. 3a — running time vs dimensionality: `I = J = K ∈ 10³…10⁹`,
/// `nnz = 10⁷`, rank 20, identity similarities (no eigen work).
pub fn fig3a() -> Vec<ModelSeries> {
    let dims: Vec<u64> = (3..=9).map(|e| 10u64.pow(e)).collect();
    model_sweep(&dims, |d| WorkloadSpec {
        dims: vec![d; 3],
        nnz: 10_000_000,
        rank: 20,
        eigen_k: 0,
        iters: 20,
    })
}

/// Fig. 3b — running time vs non-zeros: `nnz ∈ 10⁶…10⁹`, `I = 10⁵`,
/// rank 10.
pub fn fig3b() -> Vec<ModelSeries> {
    let nnzs: Vec<u64> = (6..=9).map(|e| 10u64.pow(e)).collect();
    model_sweep(&nnzs, |nnz| WorkloadSpec {
        dims: vec![100_000; 3],
        nnz,
        rank: 10,
        eigen_k: 0,
        iters: 20,
    })
}

/// Fig. 3c — running time vs rank: `R ∈ 10…500`, `I = 10⁶`, `nnz = 10⁷`.
pub fn fig3c() -> Vec<ModelSeries> {
    let ranks: Vec<u64> = vec![10, 50, 100, 150, 200, 300, 500];
    model_sweep(&ranks, |r| WorkloadSpec {
        dims: vec![1_000_000; 3],
        nnz: 10_000_000,
        rank: r,
        eigen_k: 0,
        iters: 20,
    })
}

/// A method's speed-up curve for Fig. 4.
#[derive(Debug, Clone)]
pub struct SpeedupSeries {
    /// The method.
    pub method: Method,
    /// `(machines, T₁/T_M)` points.
    pub points: Vec<(usize, f64)>,
}

/// Fig. 4 — machine scalability `T₁/T_M`, `M ∈ {1,2,4,6,8}` on the
/// paper's workload (`I = 10⁵`, `nnz = 10⁷`, rank 10). Methods: ALS,
/// SCouT, DisTenC (§IV-C drops TFAI and FlexiFact).
pub fn fig4() -> Vec<SpeedupSeries> {
    let w = WorkloadSpec {
        dims: vec![100_000; 3],
        nnz: 10_000_000,
        rank: 10,
        eigen_k: 0,
        iters: 20,
    };
    [Method::Als, Method::Scout, Method::DisTenC]
        .iter()
        .map(|&method| {
            let model = method.model();
            let base = method.cluster_config().with_time_budget(None);
            let t1 = model.seconds(&w, &base.clone().with_machines(1));
            let points = [1usize, 2, 4, 6, 8]
                .iter()
                .map(|&m| (m, t1 / model.seconds(&w, &base.clone().with_machines(m))))
                .collect();
            SpeedupSeries { method, points }
        })
        .collect()
}

/// A method's reconstruction-error curve for Fig. 5.
#[derive(Debug, Clone)]
pub struct ErrorSeries {
    /// The method.
    pub method: Method,
    /// `(missing rate, relative error)` points.
    pub points: Vec<(f64, f64)>,
}

/// Fig. 5 — relative error vs missing rate on `Synthetic-error` (linear
/// factors + tri-diagonal similarities), missing ∈ {30%, 50%, 70%},
/// averaged over `reps` random splits (the paper averages 5 runs).
pub fn fig5(profile: Profile) -> Result<Vec<ErrorSeries>> {
    let (dim, nnz, reps) = match profile {
        Profile::Quick => (25usize, 5_000usize, 1usize),
        Profile::Full => (60, 40_000, 3),
    };
    let rank = 5;
    let data = error_tensor(&[dim, dim, dim], rank, nnz, 9);
    let sims: Vec<Option<&SparseSym>> = data.similarities.iter().map(Some).collect();
    let knobs = Knobs {
        rank,
        alpha: 5.0,
        lambda: 0.05,
        max_iters: match profile {
            Profile::Quick => 30,
            Profile::Full => 60,
        },
        tol: 1e-7,
        eigen_k: dim.min(20),
        ..Default::default()
    };
    let rates = [0.3, 0.5, 0.7];
    let mut out = Vec::new();
    for method in Method::ALL {
        let mut points = Vec::new();
        for &rate in &rates {
            let mut acc = 0.0;
            for rep in 0..reps {
                let split = split_missing(&data.observed, rate, 11 + rep as u64);
                let res = method.run(&split.train, &sims, &knobs)?;
                acc += metrics::relative_error(&res.model, &split.test)?;
            }
            points.push((rate, acc / reps as f64));
        }
        out.push(ErrorSeries { method, points });
    }
    Ok(out)
}

/// RMSE rows of an application experiment (Figs. 6a, 7a).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// The method.
    pub method: Method,
    /// Held-out RMSE.
    pub rmse: f64,
}

/// Run one application dataset through the application methods with a
/// 50/50 split (§IV-E protocol).
pub(crate) fn application_accuracy(data: &Dataset, knobs: &Knobs) -> Result<Vec<AccuracyRow>> {
    let split = split_missing(&data.tensor, 0.5, 17);
    let sims = data.similarity_refs();
    // Mean-center the training values (standard recommender practice):
    // the global mean is a rank-one component every method would burn
    // iterations on; all methods share the same centering.
    let (train, mean) = center(&split.train);
    Method::APPLICATION
        .iter()
        .map(|&method| {
            let res = method.run(&train, &sims, knobs)?;
            Ok(AccuracyRow {
                method,
                rmse: metrics::rmse_with_offset(&res.model, &split.test, mean)?,
            })
        })
        .collect()
}

/// Subtract the mean of the stored values, returning the centered tensor
/// and the mean.
fn center(t: &distenc_tensor::CooTensor) -> (distenc_tensor::CooTensor, f64) {
    let mean = if t.nnz() == 0 {
        0.0
    } else {
        t.values().iter().sum::<f64>() / t.nnz() as f64
    };
    let mut out = t.clone();
    for v in out.values_mut() {
        *v -= mean;
    }
    (out, mean)
}

/// The shared application datasets at a profile's scale.
pub(crate) fn app_datasets(profile: Profile) -> (Dataset, Dataset, Dataset) {
    match profile {
        Profile::Quick => (
            netflix_like(150, 80, 10, 5_000, 5),
            twitter_like(100, 100, 12, 4_000, 6),
            facebook_like(120, 8, 4_000, 7),
        ),
        Profile::Full => (
            netflix_like(1_200, 500, 40, 400_000, 5),
            twitter_like(800, 800, 16, 160_000, 6),
            facebook_like(900, 10, 160_000, 7),
        ),
    }
}

fn app_knobs(profile: Profile) -> Knobs {
    Knobs {
        // Above the generators' latent rank (6): the star-scale mapping
        // adds a rank-one offset, and slack helps every method equally.
        rank: 8,
        // A strong auxiliary weight: the analogs' similarity graphs are
        // exactly aligned with the latent structure, and the eigenbasis
        // must cover the community null spaces (see below), so heavy
        // smoothing is safe and matches the paper's observed gains.
        alpha: 8.0,
        lambda: 0.05,
        max_iters: match profile {
            Profile::Quick => 25,
            Profile::Full => 60,
        },
        tol: 1e-6,
        // Must exceed the community count of the planted similarity
        // graphs (their Laplacian null space) or the complement damping
        // crushes real structure.
        eigen_k: 60,
        ..Default::default()
    }
}

/// Fig. 6a — recommendation RMSE on the Netflix and Twitter analogs.
pub fn fig6a(profile: Profile) -> Result<Vec<(&'static str, Vec<AccuracyRow>)>> {
    let (netflix, twitter, _) = app_datasets(profile);
    let knobs = app_knobs(profile);
    Ok(vec![
        ("Netflix", application_accuracy(&netflix, &knobs)?),
        ("Twitter List", application_accuracy(&twitter, &knobs)?),
    ])
}

/// A convergence curve (Figs. 6b, 7b): training RMSE against the
/// substrate's virtual clock.
#[derive(Debug, Clone)]
pub struct ConvergenceSeries {
    /// The method.
    pub method: Method,
    /// `(virtual seconds, training RMSE)` samples.
    pub points: Vec<(f64, f64)>,
}

/// Convergence comparison on one dataset: every application method runs
/// on *its own* substrate (DisTenC/ALS on Spark, SCouT on MapReduce) and
/// reports training RMSE against that substrate's clock.
pub fn convergence(data: &Dataset, knobs: &Knobs) -> Result<Vec<ConvergenceSeries>> {
    let split = split_missing(&data.tensor, 0.5, 17);
    let sims = data.similarity_refs();
    let (train, _mean) = center(&split.train);
    Method::APPLICATION
        .iter()
        .map(|&method| {
            let cluster = Cluster::new(method.cluster_config().with_time_budget(None));
            let res: CompletionResult =
                method.run_on_cluster(&cluster, &train, &sims, knobs)?;
            Ok(ConvergenceSeries { method, points: res.trace.series() })
        })
        .collect()
}

/// Fig. 6b — convergence on the Netflix analog.
pub fn fig6b(profile: Profile) -> Result<Vec<ConvergenceSeries>> {
    let (netflix, _, _) = app_datasets(profile);
    convergence(&netflix, &app_knobs(profile))
}

/// Fig. 7a — link-prediction RMSE on the Facebook analog.
pub fn fig7a(profile: Profile) -> Result<Vec<AccuracyRow>> {
    let (_, _, facebook) = app_datasets(profile);
    application_accuracy(&facebook, &app_knobs(profile))
}

/// Fig. 7b — convergence on the Facebook analog.
pub fn fig7b(profile: Profile) -> Result<Vec<ConvergenceSeries>> {
    let (_, _, facebook) = app_datasets(profile);
    convergence(&facebook, &app_knobs(profile))
}

/// One row of Table II (dataset summary): paper's original shape and the
/// analog's shape actually generated at `Quick` scale.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset name.
    pub name: &'static str,
    /// The original's mode sizes as reported in Table II.
    pub paper_dims: [u64; 3],
    /// The original's non-zero count.
    pub paper_nnz: u64,
    /// The analog's mode sizes.
    pub analog_dims: Vec<usize>,
    /// The analog's non-zero count.
    pub analog_nnz: usize,
}

/// Table II — dataset summary (paper originals vs generated analogs).
pub fn table2(profile: Profile) -> Vec<Table2Row> {
    let (netflix, twitter, facebook) = app_datasets(profile);
    let dblp = dblp_dataset(profile);
    let rows = [
        ("Netflix", [480_000u64, 18_000, 2_000], 100_000_000u64, &netflix),
        ("Facebook", [60_000, 60_000, 5], 1_550_000, &facebook),
        ("DBLP", [317_000, 317_000, 629_000], 1_040_000, &dblp),
        ("Twitter", [640_000, 640_000, 16], 1_130_000, &twitter),
    ];
    rows.into_iter()
        .map(|(name, paper_dims, paper_nnz, d)| Table2Row {
            name,
            paper_dims,
            paper_nnz,
            analog_dims: d.tensor.shape().to_vec(),
            analog_nnz: d.tensor.nnz(),
        })
        .collect()
}

/// The DBLP analog at a profile's scale.
pub(crate) fn dblp_dataset(profile: Profile) -> Dataset {
    match profile {
        Profile::Quick => dblp_like(120, 150, 9, 3, 5_000, 10),
        Profile::Full => dblp_like(600, 900, 9, 3, 40_000, 8),
    }
}

/// Table III result: discovered concepts plus purity against the planted
/// communities.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Discovered concepts (one per factor component).
    pub concepts: Vec<Concept>,
    /// Mean purity across concepts and labelled modes (1.0 = every
    /// concept is a single planted community).
    pub purity: f64,
}

/// Table III — concept discovery on the DBLP analog: complete the tensor
/// with DisTenC (non-negative factors for interpretability, as concept
/// mining requires), then read top-k members per factor component.
pub fn table3(profile: Profile) -> Result<Table3Result> {
    let data = dblp_dataset(profile);
    let split = split_missing(&data.tensor, 0.5, 17);
    let sims = data.similarity_refs();
    let cfg = distenc_core::AdmmConfig {
        rank: 3,
        alpha: 8.0,
        lambda: 0.02,
        max_iters: match profile {
            Profile::Quick => 60,
            Profile::Full => 140,
        },
        tol: 1e-9,
        eigen_k: 10,
        nonneg: true,
        ..Default::default()
    };
    let laps: Vec<Option<distenc_graph::Laplacian>> = sims
        .iter()
        .map(|s| s.map(|s| distenc_graph::Laplacian::from_similarity(s.clone())))
        .collect();
    let lap_refs: Vec<Option<&distenc_graph::Laplacian>> =
        laps.iter().map(|l| l.as_ref()).collect();
    let res = distenc_core::AdmmSolver::new(cfg)?.solve(&split.train, &lap_refs)?;
    let top_k = match profile {
        Profile::Quick => 10,
        Profile::Full => 20,
    };
    let concepts = discover_concepts(res.model.factors(), top_k);
    let purity = mean_purity(&concepts, &data.communities);
    Ok(Table3Result { concepts, purity })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_at(series: &[ModelSeries], method: Method, x: u64) -> RunOutcome {
        series
            .iter()
            .find(|s| s.method == method)
            .unwrap()
            .points
            .iter()
            .find(|p| p.x == x)
            .unwrap()
            .outcome
    }

    #[test]
    fn fig3a_failure_boundaries_match_paper() {
        let s = fig3a();
        // TFAI: fine at 10⁵, O.O.M. from 10⁶ on.
        assert!(outcome_at(&s, Method::Tfai, 100_000).is_ok());
        assert!(matches!(
            outcome_at(&s, Method::Tfai, 1_000_000),
            RunOutcome::OutOfMemory { .. }
        ));
        // ALS & FlexiFact: fine at 10⁶, O.O.M. from 10⁷ on.
        for m in [Method::Als, Method::FlexiFact] {
            assert!(outcome_at(&s, m, 1_000_000).is_ok(), "{}", m.name());
            assert!(
                matches!(outcome_at(&s, m, 10_000_000), RunOutcome::OutOfMemory { .. }),
                "{}",
                m.name()
            );
        }
        // DisTenC & SCouT: complete everywhere, including 10⁹.
        for m in [Method::DisTenC, Method::Scout] {
            for p in &s.iter().find(|x| x.method == m).unwrap().points {
                assert!(p.outcome.is_ok(), "{} at {}: {:?}", m.name(), p.x, p.outcome);
            }
        }
    }

    #[test]
    fn fig3b_shapes_match_paper() {
        let s = fig3b();
        // Only TFAI dies as density grows (at 10⁹ non-zeros).
        assert!(outcome_at(&s, Method::Tfai, 100_000_000).is_ok());
        assert!(!outcome_at(&s, Method::Tfai, 1_000_000_000).is_ok());
        for m in [Method::Als, Method::Scout, Method::FlexiFact, Method::DisTenC] {
            assert!(
                outcome_at(&s, m, 1_000_000_000).is_ok(),
                "{} must scale to 10⁹ nnz",
                m.name()
            );
        }
        // ALS fastest; DisTenC beats SCouT and FlexiFact.
        for &nnz in &[1_000_000u64, 100_000_000, 1_000_000_000] {
            let t = |m: Method| outcome_at(&s, m, nnz).seconds();
            assert!(t(Method::Als) < t(Method::DisTenC), "ALS fastest at {nnz}");
            assert!(t(Method::DisTenC) < t(Method::Scout), "DisTenC < SCouT at {nnz}");
            assert!(t(Method::DisTenC) < t(Method::FlexiFact), "DisTenC < FlexiFact at {nnz}");
        }
        // The ALS-vs-DisTenC gap shrinks as nnz grows (the paper: "with
        // shrinked differences as the number of non-zero elements
        // increases").
        let gap = |nnz: u64| {
            outcome_at(&s, Method::DisTenC, nnz).seconds()
                / outcome_at(&s, Method::Als, nnz).seconds()
        };
        assert!(gap(1_000_000_000) < gap(1_000_000));
    }

    #[test]
    fn fig3c_rank_shapes() {
        let s = fig3c();
        // TFAI is O.O.M. at I = 10⁶ regardless of rank.
        for p in &s.iter().find(|x| x.method == Method::Tfai).unwrap().points {
            assert!(!p.outcome.is_ok());
        }
        // Everyone else completes at rank 200 (the paper's claim).
        for m in [Method::Als, Method::Scout, Method::FlexiFact, Method::DisTenC] {
            assert!(outcome_at(&s, m, 200).is_ok(), "{} at rank 200", m.name());
        }
        // ALS grows much faster with rank than DisTenC.
        let ratio = |m: Method| {
            outcome_at(&s, m, 200).seconds() / outcome_at(&s, m, 10).seconds()
        };
        assert!(ratio(Method::Als) > 3.0 * ratio(Method::DisTenC));
    }

    #[test]
    fn fig4_speedups_match_paper_ordering() {
        let s = fig4();
        let at8 = |m: Method| {
            s.iter()
                .find(|x| x.method == m)
                .unwrap()
                .points
                .iter()
                .find(|p| p.0 == 8)
                .unwrap()
                .1
        };
        let dis = at8(Method::DisTenC);
        let als = at8(Method::Als);
        let scout = at8(Method::Scout);
        // The paper: DisTenC ≈ 4.9× at 8 machines, best linearity; SCouT
        // saturates.
        assert!((4.0..6.5).contains(&dis), "DisTenC speedup {dis}");
        assert!(dis > als, "DisTenC {dis} > ALS {als}");
        assert!(als > scout, "ALS {als} > SCouT {scout}");
        assert!(scout < 3.0, "SCouT must saturate, got {scout}");
        // Monotone in machines for DisTenC.
        let pts = &s.iter().find(|x| x.method == Method::DisTenC).unwrap().points;
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.95);
        }
    }

    #[test]
    fn fig5_aux_methods_win_at_high_missing_rates() {
        let series = fig5(Profile::Quick).unwrap();
        let err = |m: Method, rate: f64| {
            series
                .iter()
                .find(|s| s.method == m)
                .unwrap()
                .points
                .iter()
                .find(|p| (p.0 - rate).abs() < 1e-9)
                .unwrap()
                .1
        };
        // At 70% missing, the trace-regularized methods beat plain ALS.
        assert!(err(Method::DisTenC, 0.7) < err(Method::Als, 0.7));
        assert!(err(Method::Tfai, 0.7) < err(Method::Als, 0.7));
        // DisTenC is comparable to TFAI (within 25%).
        let (d, t) = (err(Method::DisTenC, 0.7), err(Method::Tfai, 0.7));
        assert!(d < t * 1.25, "DisTenC {d} vs TFAI {t}");
        // Errors grow with the missing rate for every method.
        for s in &series {
            assert!(
                s.points[2].1 >= s.points[0].1 * 0.8,
                "{}: error should not collapse as data shrinks",
                s.method.name()
            );
        }
    }

    #[test]
    fn fig6a_distenc_beats_als_by_3_pct_and_is_within_5_pct_of_scout() {
        for (name, rows) in fig6a(Profile::Quick).unwrap() {
            let rmse = |m: Method| rows.iter().find(|r| r.method == m).unwrap().rmse;
            let (dis, als, scout) = (
                rmse(Method::DisTenC),
                rmse(Method::Als),
                rmse(Method::Scout),
            );
            assert!(dis < als, "{name}: DisTenC {dis} must beat ALS {als}");
            assert!(dis <= scout * 1.05, "{name}: DisTenC {dis} vs SCouT {scout}");
            let imp = metrics::improvement_pct(als, dis);
            assert!(imp > 3.0, "{name}: improvement {imp:.1}% too small");
        }
    }

    #[test]
    fn fig6b_convergence_ordering() {
        let series = fig6b(Profile::Quick).unwrap();
        let total = |m: Method| {
            series
                .iter()
                .find(|s| s.method == m)
                .unwrap()
                .points
                .last()
                .unwrap()
                .0
        };
        // SCouT (MapReduce) takes far longer wall-clock than the Spark
        // methods — the Fig. 6b gap.
        assert!(total(Method::Scout) > 5.0 * total(Method::DisTenC));
        // Every series' RMSE improves substantially from start to end.
        for s in &series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last < first, "{} did not improve", s.method.name());
        }
    }

    #[test]
    fn fig7a_link_prediction_ordering() {
        let rows = fig7a(Profile::Quick).unwrap();
        let rmse = |m: Method| rows.iter().find(|r| r.method == m).unwrap().rmse;
        let (dis, als, scout) = (rmse(Method::DisTenC), rmse(Method::Als), rmse(Method::Scout));
        // Paper: DisTenC +27.4% over ALS, SCouT +19.5% — both beat ALS.
        assert!(dis < als);
        assert!(scout < als);
        assert!(dis <= scout * 1.05);
    }

    #[test]
    fn table2_rows_present() {
        let rows = table2(Profile::Quick);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].name, "Netflix");
        assert_eq!(rows[0].paper_nnz, 100_000_000);
        assert!(rows.iter().all(|r| r.analog_nnz > 0));
    }

    #[test]
    fn table3_concepts_are_pure() {
        let res = table3(Profile::Quick).unwrap();
        assert_eq!(res.concepts.len(), 3);
        assert!(
            res.purity > 0.8,
            "discovered concepts must align with planted communities, purity {}",
            res.purity
        );
    }
}
