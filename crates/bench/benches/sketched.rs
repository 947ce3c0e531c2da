//! Sketched-tier measurement: accuracy and economics of the sampled MTTKRP
//! solver against the exact tier, on the accuracy-gate workloads.
//!
//! Writes `BENCH_sketched.json` at the repository root with, per planted
//! workload:
//!
//! * the exact tier's final train RMSE and wall time,
//! * the gate run (`samples = nnz/4`): RMSE delta vs exact and the
//!   per-iteration entry-touch ratio (`nnz/samples` — a sampled iteration
//!   touches `samples·N` entries per iteration where the exact tier
//!   touches `nnz·N`; `tests/pass_count.rs` pins that accounting),
//! * the sample-efficiency curve over `samples ∈ {nnz/2, nnz/4, nnz/8,
//!   nnz/16}` — how far the budget drops before the RMSE gap leaves
//!   [`accuracy::ACCURACY_GATE_TOL`],
//! * time-to-target-RMSE for both tiers (first trace crossing of
//!   `1.5 × exact_final_rmse`; for the sketched run, first among its
//!   exact trace points).
//!
//! Non-finite values (a diverged low-budget run) serialize as `null` —
//! honest curve data, not a failure of the program.

use distenc_bench::write_bench_json;
use distenc_core::{AdmmConfig, AdmmSolver, ConvergenceTrace, SolverTier, DEFAULT_POLISH_ITERS};
use distenc_eval::accuracy::{self, gate_config, gate_workloads, sample_efficiency_curve};
use distenc_tensor::CooTensor;

/// The divisors of nnz the efficiency curve sweeps.
const CURVE_DIVISORS: [usize; 4] = [2, 4, 8, 16];
/// The gate's own budget: `samples = nnz / GATE_DIVISOR`.
const GATE_DIVISOR: usize = 4;

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(s) if s.is_finite() => format!("{s:.6}"),
        _ => "null".to_string(),
    }
}

/// Solve with an explicit tier, returning (final RMSE, wall seconds,
/// trace) — RMSE recomputed from the model so both tiers are measured
/// identically.
fn run_tier(
    observed: &CooTensor,
    cfg: &AdmmConfig,
    tier: SolverTier,
) -> (f64, f64, ConvergenceTrace) {
    let laps = vec![None; observed.order()];
    let cfg = AdmmConfig { solver_tier: tier, ..cfg.clone() };
    let t0 = std::time::Instant::now();
    let res = AdmmSolver::new(cfg).unwrap().solve(observed, &laps).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let rmse = distenc_tensor::residual::observed_rmse(observed, &res.model).unwrap();
    (rmse, secs, res.trace)
}

fn main() {
    let mut sections = Vec::new();
    for w in gate_workloads() {
        let cfg = gate_config(w.rank);
        let nnz = w.observed.nnz();
        let (exact_rmse, exact_secs, exact_trace) =
            run_tier(&w.observed, &cfg, SolverTier::Exact);

        let samples: Vec<usize> = CURVE_DIVISORS.iter().map(|d| nnz / d).collect();
        let curve =
            sample_efficiency_curve(&w.observed, &cfg, &samples, DEFAULT_POLISH_ITERS)
                .unwrap();
        let curve_rows: Vec<String> = curve
            .iter()
            .map(|p| {
                format!(
                    "        {{ \"samples\": {}, \"touch_ratio\": {:.2}, \"sketched_rmse\": {}, \"rmse_gap\": {}, \"seconds\": {} }}",
                    p.samples,
                    p.touch_ratio,
                    json_num(p.sketched_rmse),
                    json_num(p.gap),
                    json_num(p.seconds),
                )
            })
            .collect();

        // Time-to-target: a level both tiers should reach comfortably.
        let target = exact_rmse * 1.5;
        let gate_samples = nnz / GATE_DIVISOR;
        let (_, _, sk_trace) = run_tier(
            &w.observed,
            &cfg,
            SolverTier::Sketched { samples: gate_samples, polish_iters: DEFAULT_POLISH_ITERS },
        );
        // Only the sketched run's exact points count — the boundary
        // iteration and the polish ones: the earlier points are sampled
        // estimates, which can cross before the model does.
        let first_exact = cfg.max_iters - DEFAULT_POLISH_ITERS - 1;
        let sk_exact = ConvergenceTrace {
            points: sk_trace.points.into_iter().filter(|p| p.iter >= first_exact).collect(),
        };
        let gate_point = curve
            .iter()
            .find(|p| p.samples == gate_samples)
            .expect("gate divisor is in the curve");

        sections.push(format!(
            "    \"{name}\": {{\n      \"nnz\": {nnz}, \"rank\": {rank},\n      \"exact\": {{ \"rmse\": {ermse}, \"seconds\": {esecs} }},\n      \"gate\": {{ \"samples\": {gs}, \"touch_ratio\": {gtr:.2}, \"rmse_gap\": {ggap}, \"passes\": {gpass} }},\n      \"time_to_target\": {{ \"target_rmse\": {tgt}, \"exact_seconds\": {tex}, \"sketched_seconds\": {tsk} }},\n      \"curve\": [\n{curve}\n      ]\n    }}",
            name = w.name,
            rank = w.rank,
            ermse = json_num(exact_rmse),
            esecs = json_num(exact_secs),
            gs = gate_samples,
            gtr = gate_point.touch_ratio,
            ggap = json_num(gate_point.gap),
            gpass = gate_point.gap <= accuracy::ACCURACY_GATE_TOL,
            tgt = json_num(target),
            tex = json_opt(exact_trace.time_to_rmse(target)),
            tsk = json_opt(sk_exact.time_to_rmse(target)),
            curve = curve_rows.join(",\n"),
        ));
    }

    write_bench_json(
        "sketched",
        &format!(
            "  \"tolerance\": {tol},\n  \"polish_iters\": {polish},\n  \"workloads\": {{\n{body}\n  }},\n  \"note\": \"sketched tier vs exact on the accuracy-gate workloads; touch_ratio = nnz/samples = exact entry-touches per sketch-phase iteration over sketched (both tiers touch N passes of their respective counts per iteration; tests/pass_count.rs pins the instrument); rmse_gap = sketched_final - exact_final; gate.passes requires gap <= tolerance at >= 2x touch discount; null = run diverged or target never reached\"",
            tol = accuracy::ACCURACY_GATE_TOL,
            polish = DEFAULT_POLISH_ITERS,
            body = sections.join(",\n"),
        ),
    );
}
