//! Golden-trace regression tests for the solver core.
//!
//! The files under `tests/golden/` were captured from the solver *before*
//! the `solver::ModeStep` unification refactor, with every `f64` stored as
//! its exact bit pattern (`f64::to_bits`, hex). The tests assert that the
//! refactored solvers reproduce those traces **bit for bit** — under
//! `DISTENC_THREADS=1` and `DISTENC_THREADS=4` alike, since `ci.sh` runs
//! the whole suite under both settings and `AdmmConfig::default()` picks
//! the backend up from the environment.
//!
//! `AdmmSolver` trace timestamps are wall-clock and therefore excluded;
//! `DisTenC` timestamps are the cluster's deterministic *virtual* clock
//! and are part of the golden data (they pin the accounting order, not
//! just the arithmetic).
//!
//! Regenerate (only when intentionally changing numerics) with:
//! `cargo test --test golden_trace -- --ignored regen`

use distenc::core::{AdmmConfig, AdmmSolver, CompletionResult, DisTenC};
use distenc::dataflow::{Cluster, ClusterConfig};
use distenc::graph::builders::tridiagonal_chain;
use distenc::graph::Laplacian;
use distenc::tensor::CooTensor;
use std::fmt::Write as _;
use std::path::PathBuf;

mod common;

fn planted(shape: &[usize], rank: usize, nnz: usize, seed: u64) -> CooTensor {
    common::planted(shape, rank, nnz, seed, 0x601d)
}

/// One golden scenario: a completion run whose trace and final factors are
/// pinned. `seconds` are recorded only when deterministic (virtual clock).
struct Scenario {
    name: &'static str,
    with_seconds: bool,
}

const ADMM_PLAIN: Scenario = Scenario { name: "admm_plain", with_seconds: false };
const ADMM_AUX: Scenario = Scenario { name: "admm_aux", with_seconds: false };
const DISTENC_3M: Scenario = Scenario { name: "distenc_3m", with_seconds: true };

fn run_scenario(s: &Scenario) -> CompletionResult {
    match s.name {
        "admm_plain" => {
            let observed = planted(&[12, 10, 8], 3, 700, 2);
            let cfg = AdmmConfig {
                rank: 3,
                lambda: 1e-3,
                max_iters: 8,
                tol: 1e-12,
                ..Default::default()
            };
            AdmmSolver::new(cfg).unwrap().solve(&observed, &[None, None, None]).unwrap()
        }
        "admm_aux" => {
            let observed = planted(&[20, 16, 12], 2, 600, 7);
            let laps: Vec<Laplacian> = [20, 16, 12]
                .iter()
                .map(|&d| Laplacian::from_similarity(tridiagonal_chain(d)))
                .collect();
            let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(Some).collect();
            let cfg = AdmmConfig {
                rank: 2,
                max_iters: 6,
                tol: 1e-12,
                alpha: 2.0,
                eigen_k: 8,
                ..Default::default()
            };
            AdmmSolver::new(cfg).unwrap().solve(&observed, &lap_refs).unwrap()
        }
        "distenc_3m" => {
            let observed = planted(&[12, 10, 8], 3, 700, 2);
            let cfg = AdmmConfig {
                rank: 3,
                lambda: 1e-3,
                max_iters: 8,
                tol: 1e-12,
                ..Default::default()
            };
            let cluster = Cluster::new(ClusterConfig::test(3).with_time_budget(None));
            DisTenC::new(&cluster, cfg).unwrap().solve(&observed, &[None, None, None]).unwrap()
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.golden"))
}

fn serialize(s: &Scenario, res: &CompletionResult) -> String {
    let mut out = String::new();
    out.push_str("golden-trace-v1\n");
    writeln!(out, "points {} {}", res.trace.points.len(), u8::from(s.with_seconds)).unwrap();
    for p in &res.trace.points {
        write!(out, "{} {:016x} {:016x}", p.iter, p.train_rmse.to_bits(), p.factor_delta.to_bits())
            .unwrap();
        if s.with_seconds {
            write!(out, " {:016x}", p.seconds.to_bits()).unwrap();
        }
        out.push('\n');
    }
    writeln!(out, "factors {}", res.model.factors().len()).unwrap();
    for f in res.model.factors() {
        writeln!(out, "mode {} {}", f.rows(), f.cols()).unwrap();
        for row in 0..f.rows() {
            let hex: Vec<String> =
                f.row(row).iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            writeln!(out, "{}", hex.join(" ")).unwrap();
        }
    }
    out
}

fn assert_matches_golden(s: &Scenario) {
    let path = golden_path(s.name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run the regen test"));
    let got = serialize(s, &run_scenario(s));
    if got != want {
        // Diff the first mismatching line for a readable failure.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "scenario {}: first divergence at line {}", s.name, i + 1);
        }
        panic!(
            "scenario {}: golden mismatch (line count {} vs {})",
            s.name,
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn admm_plain_matches_golden_trace_bit_for_bit() {
    assert_matches_golden(&ADMM_PLAIN);
}

#[test]
fn admm_aux_matches_golden_trace_bit_for_bit() {
    assert_matches_golden(&ADMM_AUX);
}

#[test]
fn distenc_matches_golden_trace_and_virtual_clock_bit_for_bit() {
    assert_matches_golden(&DISTENC_3M);
}

/// Rewrites the golden files from the current solver. Ignored by default:
/// run explicitly (and review the diff) when a numerics change is
/// intentional.
#[test]
#[ignore = "regenerates the golden files; run only for intentional numeric changes"]
fn regen_golden_files() {
    std::fs::create_dir_all(golden_path("x").parent().unwrap()).unwrap();
    for s in [&ADMM_PLAIN, &ADMM_AUX, &DISTENC_3M] {
        let res = run_scenario(s);
        std::fs::write(golden_path(s.name), serialize(s, &res)).unwrap();
    }
}
