//! `compare A.json B.json`: per workload × metric, both result sets'
//! medians and quartiles, the bound, and a verdict.

use crate::json::Json;
use crate::stats;
use crate::workloads::{self, Better};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` (the change) against `a` (the base) for a metric with the
/// given direction and bound.
///
/// * regressed — B's median is worse than A's by more than the bound;
/// * improved — every run of B reads better than every run of A;
/// * unresolved — otherwise, when either side's quartile spread is wider
///   than the bound (the runs cannot tell "unchanged" from "changed");
/// * unchanged — the rest.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (mb - ma) / base,
        Better::Higher => (ma - mb) / base,
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let fold = |xs: &[f64], f: fn(f64, f64) -> f64, init: f64| xs.iter().copied().fold(init, f);
    let dominates = match better {
        Better::Lower => fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY),
        Better::Higher => fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY),
    };
    if dominates {
        return Verdict::Improved;
    }
    if stats::spread(a).max(stats::spread(b)) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// workload → metric → (unit, values over the set's runs); plus failed
/// and attempted totals per workload.
struct ResultSet {
    metrics: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>,
    fails: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no `runs` array"))?;
    let mut set = ResultSet {
        metrics: BTreeMap::new(),
        fails: BTreeMap::new(),
    };
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without workload"))?;
        let f = set.fails.entry(workload.to_string()).or_insert((0.0, 0.0));
        f.0 += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        f.1 += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            // An incorrect run fails as a whole, whatever it counted.
            f.0 = f.0.max(1.0);
        }
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: run without metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: {name} has no value"))?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            set.metrics
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(set)
}

/// Print the table; `Ok(true)` when nothing regressed and no workload
/// fails a larger share of its operations.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "ratios are B/A, the base of every ratio is A's median; spread = (q3 - q1) / median\n"
    );
    println!(
        "{:<15} {:<36} {:>13} {:>25} {:>7} {:>13} {:>25} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric [unit]",
        "A median",
        "A q1..q3 (n)",
        "spread",
        "B median",
        "B q1..q3 (n)",
        "spread",
        "B/A",
        "bound"
    );
    for (workload, metrics_a) in &a.metrics {
        let Some(metrics_b) = b.metrics.get(workload) else {
            println!("{workload:<15} only in A");
            continue;
        };
        for (name, (unit, va)) in metrics_a {
            let Some((_, vb)) = metrics_b.get(name) else {
                continue;
            };
            let (sa, sb) = (
                stats::Summary::quiet(va, true),
                stats::Summary::quiet(vb, true),
            );
            let ratio = sb.median / sa.median;
            let (bound, word) = match workloads::end_to_end(name) {
                Some(m) => {
                    let v = verdict(va, vb, m.better, m.bound);
                    ok &= v != Verdict::Regressed;
                    (format!("{:.0}%", m.bound * 100.0), v.as_str())
                }
                None => ("-".to_string(), "per-layer"),
            };
            println!(
                "{workload:<15} {:<36} {:>13.6} {:>25} {:>6.1}% {:>13.6} {:>25} {:>6.1}% {ratio:>8.4} {bound:>6}  {word}",
                format!("{name} [{unit}]"),
                sa.median,
                format!("{:.5}..{:.5} ({})", sa.q1, sa.q3, sa.n),
                stats::spread(va) * 100.0,
                sb.median,
                format!("{:.5}..{:.5} ({})", sb.q1, sb.q3, sb.n),
                stats::spread(vb) * 100.0,
            );
        }
        let share = |f: Option<&(f64, f64)>| {
            f.map_or(0.0, |(failed, attempted)| failed / attempted.max(1.0))
        };
        let (fa, fb) = (share(a.fails.get(workload)), share(b.fails.get(workload)));
        let word = if fb > fa { "regressed" } else { "unchanged" };
        ok &= fb <= fa;
        println!(
            "{workload:<15} {:<36} {fa:>13.6} {:>25} {:>7} {fb:>13.6} {:>25} {:>7} {:>8} {:>6}  {word}",
            "fail_share [share]", "", "", "", "", "", "-"
        );
    }
    for workload in b.metrics.keys().filter(|w| !a.metrics.contains_key(*w)) {
        println!("{workload:<15} only in B");
    }
    println!("\n{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Median worse by more than the bound.
        assert_eq!(
            verdict(&base, &[11.5, 11.6, 11.4, 11.5, 11.5], Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Every run of B under every run of A.
        assert_eq!(
            verdict(&base, &[9.0, 9.1, 8.9, 9.2, 9.05], Better::Lower, 0.1),
            Verdict::Improved
        );
        // Overlapping, tight: unchanged.
        assert_eq!(
            verdict(&base, &[10.0, 10.2, 9.8, 10.1, 9.9], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Overlapping, spread wider than the bound: unresolved.
        assert_eq!(
            verdict(&base, &[8.0, 12.0, 10.0, 7.0, 13.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Direction flips for higher-is-better.
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9, 8.0, 8.0], Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9, 12.0, 12.0], Better::Higher, 0.1),
            Verdict::Improved
        );
        // Identical exact counts.
        assert_eq!(
            verdict(&[13.0; 5], &[13.0; 5], Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }
}
