//! Shared plumbing for the figure/table binaries and the three measurement
//! programs under `benches/`.
//!
//! Every table and figure of the paper's evaluation has a binary here
//! that regenerates its rows/series:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `fig3a`  | running time vs dimensionality (10³…10⁹) |
//! | `fig3b`  | running time vs non-zeros (10⁶…10⁹) |
//! | `fig3c`  | running time vs rank (10…500) |
//! | `fig4`   | machine-scalability speed-ups (1…8 machines) |
//! | `fig5`   | reconstruction error vs missing rate |
//! | `fig6a`  | recommendation RMSE (Netflix / Twitter analogs) |
//! | `fig6b`  | convergence on the Netflix analog |
//! | `fig7a`  | link-prediction RMSE (Facebook analog) |
//! | `fig7b`  | convergence on the Facebook analog |
//! | `table2` | dataset summary |
//! | `table3` | concept discovery on the DBLP analog |
//!
//! Pass `--quick` to any measured binary to use the test-suite-sized
//! workloads instead of the larger defaults.
//!
//! The programs under `benches/` (`parallel`, `faults`, `serve_slo`) are
//! plain `fn main()`s holding the three measurements the `benchmark/`
//! package does not make yet. Each records one
//! `BENCH_<name>.json` at the repository root through
//! [`write_bench_json`], which stamps the host's parallelism and the
//! commit: `cargo bench -p distenc-bench --bench <name>`.

#![warn(missing_docs)]

use distenc_eval::figures::{
    AccuracyRow, ConvergenceSeries, ErrorSeries, ModelSeries, Profile, SpeedupSeries,
};
use distenc_eval::table::{fmt_f, render};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// `--quick` selects [`Profile::Quick`]; default is [`Profile::Full`].
pub fn profile_from_args() -> Profile {
    if std::env::args().any(|a| a == "--quick") {
        Profile::Quick
    } else {
        Profile::Full
    }
}

/// Render a modelled Fig. 3 sweep as a table (rows = methods, columns =
/// swept values), printing `O.O.M.`/`O.O.T.` exactly as the paper does.
pub fn render_model_series(x_label: &str, series: &[ModelSeries]) -> String {
    let xs: Vec<String> = series[0]
        .points
        .iter()
        .map(|p| {
            if p.x < 1000 {
                p.x.to_string()
            } else {
                format!("{:.0e}", p.x as f64)
            }
        })
        .collect();
    let mut header = vec![x_label];
    let x_refs: Vec<&str> = xs.iter().map(String::as_str).collect();
    header.extend(x_refs);
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let mut row = vec![s.method.name().to_string()];
            row.extend(s.points.iter().map(|p| p.outcome.label()));
            row
        })
        .collect();
    render(&header, &rows)
}

/// Render Fig. 4 speed-up curves.
pub fn render_speedups(series: &[SpeedupSeries]) -> String {
    let mut header = vec!["machines".to_string()];
    header.extend(series[0].points.iter().map(|(m, _)| m.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let mut row = vec![s.method.name().to_string()];
            row.extend(s.points.iter().map(|(_, v)| format!("{v:.2}x")));
            row
        })
        .collect();
    render(&header_refs, &rows)
}

/// Render Fig. 5 error curves.
pub fn render_error_series(series: &[ErrorSeries]) -> String {
    let mut header = vec!["missing".to_string()];
    header.extend(series[0].points.iter().map(|(r, _)| format!("{:.0}%", r * 100.0)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let mut row = vec![s.method.name().to_string()];
            row.extend(s.points.iter().map(|(_, e)| fmt_f(*e)));
            row
        })
        .collect();
    render(&header_refs, &rows)
}

/// Render an RMSE table (Figs. 6a / 7a).
pub fn render_accuracy(rows: &[AccuracyRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.method.name().to_string(), fmt_f(r.rmse)])
        .collect();
    render(&["method", "RMSE"], &body)
}

/// Render convergence series (Figs. 6b / 7b) as aligned (time, RMSE)
/// columns, sampling at most `max_rows` points per method.
pub fn render_convergence(series: &[ConvergenceSeries], max_rows: usize) -> String {
    let mut out = String::new();
    for s in series {
        out.push_str(&format!("-- {} --\n", s.method.name()));
        let step = (s.points.len().div_ceil(max_rows)).max(1);
        let body: Vec<Vec<String>> = s
            .points
            .iter()
            .step_by(step)
            .map(|(t, r)| vec![fmt_f(*t), fmt_f(*r)])
            .collect();
        out.push_str(&render(&["seconds", "train RMSE"], &body));
    }
    out
}

/// The median of `samples` (the upper one of the middle pair when the
/// count is even). Sorts in place.
fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall time in nanoseconds of `f`, called once per item of
/// `inputs` and timed with a plain [`Instant`].
pub fn median_ns<T>(inputs: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> u64 {
    let mut samples: Vec<u64> = inputs
        .into_iter()
        .map(|input| {
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut samples)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Record `BENCH_<name>.json` at the repository root.
///
/// `body` is the members of a JSON object (no outer braces, no trailing
/// comma). It is written unchanged after two stamps every recorded file
/// carries: `host_parallelism` (what `available_parallelism` reports
/// here) and `commit` (`git rev-parse --short HEAD`; `unknown` in a tree
/// that is not a git checkout).
pub fn write_bench_json(name: &str, body: &str) {
    let path = write_stamped(&repo_root(), name, body);
    eprintln!("wrote {}", path.display());
}

fn write_stamped(dir: &Path, name: &str, body: &str) -> PathBuf {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit_stamp(&repo_root());
    let json = format!(
        "{{\n  \"host_parallelism\": {host},\n  \"commit\": \"{commit}\",\n{body}\n}}\n"
    );
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// The short hash of the checkout `dir` is in, or `unknown` when `git` is
/// missing or `dir` is in none (an exported tree).
fn commit_stamp(dir: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|git| git.status.success())
        .and_then(|git| String::from_utf8(git.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |hash| hash.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_eval::figures;

    #[test]
    fn median_of_odd_and_even_sample_sets() {
        assert_eq!(median(&mut [5, 1, 3]), 3);
        // Even count: the upper of the middle pair.
        assert_eq!(median(&mut [4, 1, 3, 2]), 3);
        assert_eq!(median(&mut [7]), 7);
    }

    #[test]
    fn median_ns_times_each_input_once() {
        let mut seen = Vec::new();
        median_ns([3u32, 1, 2], |x| seen.push(x));
        assert_eq!(seen, [3, 1, 2]);
    }

    #[test]
    fn written_json_is_stamped_and_keeps_the_body() {
        let dir = std::env::temp_dir().join(format!("distenc-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body =
            "  \"rows\": [\n    { \"x\": 1.50 },\n    { \"x\": null }\n  ],\n  \"note\": \"a, b\"";
        let path = write_stamped(&dir, "probe", body);
        assert_eq!(path, dir.join("BENCH_probe.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        // Outside any checkout (a `.git` that leads nowhere stops git's
        // walk up the parents) the stamp is `unknown`, not a panic.
        std::fs::write(dir.join(".git"), "gitdir: ./missing\n").unwrap();
        assert_eq!(commit_stamp(&dir), "unknown");
        std::fs::remove_dir_all(&dir).unwrap();

        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rest = text
            .strip_prefix(&format!(
                "{{\n  \"host_parallelism\": {host},\n  \"commit\": \""
            ))
            .expect("host_parallelism, then commit");
        let (commit, rest) = rest.split_once("\",\n").expect("commit is a string member");
        let short_hash = commit.len() >= 7 && commit.bytes().all(|b| b.is_ascii_hexdigit());
        assert!(short_hash || commit == "unknown", "short hash or `unknown`: {commit:?}");
        assert_eq!(rest, format!("{body}\n}}\n"));
    }

    #[test]
    fn model_series_render_includes_failures() {
        let t = render_model_series("dim", &figures::fig3a());
        assert!(t.contains("O.O.M."));
        assert!(t.contains("DisTenC"));
        assert!(t.contains("1e9"));
    }

    #[test]
    fn speedup_render_has_multipliers() {
        let t = render_speedups(&figures::fig4());
        assert!(t.contains('x'));
        assert!(t.contains("SCouT"));
    }
}
