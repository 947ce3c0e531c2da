//! The repository's benchmark: one command, three workloads, end-to-end
//! and per-layer numbers for read → solve → stream → serve.
//!
//! ```text
//! distenc-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!                       [--runs N] [--smoke] [--out FILE]
//! distenc-benchmark compare A.json B.json
//! distenc-benchmark curve --workload W [--seed S]
//! distenc-benchmark spec
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload` it re-runs
//! itself once per workload (and per seed, with `--runs`), so peak memory
//! is per workload, and gathers the runs into one result-set file.
//! See `README.md` beside this package for the vocabulary.

mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod pipeline;
mod serve_loop;
mod spans;
mod speed;
mod stats;
mod workloads;

use json::Json;
use pipeline::Check;
use stats::Summary;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

const DEFAULT_SEED: u64 = 20_180_416;
const DEFAULT_SECONDS: f64 = 40.0;
const SMOKE_SECONDS: f64 = 1.5;
/// Share of `--seconds` the traced pass spends on the pipeline stages;
/// the per-layer probes take the rest.
const TRACED_PIPELINE_SHARE: f64 = 0.5;
/// A run is flagged `noisy` when the generator's own p99 lateness
/// exceeds this (µs).
const NOISY_LAG_P99_US: f64 = 1000.0;

/// `benchmark/out/`: scratch files, traces and result files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let smoke = args.iter().any(|f| f == "--smoke");
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        },
        trace: false,
        runs: 1,
        smoke,
        out: None,
    };
    let mut it = args.iter().filter(|f| *f != "--smoke");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                if workloads::by_name(value).is_none() {
                    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{value}`; known: {}",
                        names.join(", ")
                    ));
                }
                a.workload = Some(value.clone());
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" => {
                a.runs = value.parse().map_err(|_| bad("a whole number"))?;
                if a.runs == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(a)
}

/// One measured run of one workload.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `(name, unit, summary)` in table order: the end-to-end metrics of
    /// an untraced run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub noisy: bool,
    pub extra: Json,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self, detailed: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, unit, s)| {
                    let mut fields = vec![("value", Json::Num(s.value)), ("unit", Json::str(unit))];
                    if detailed {
                        fields.extend([
                            ("median", Json::Num(s.median)),
                            ("q1", Json::Num(s.q1)),
                            ("q3", Json::Num(s.q3)),
                            ("min", Json::Num(s.min)),
                            ("max", Json::Num(s.max)),
                            ("n", Json::Num(s.n as f64)),
                        ]);
                    }
                    (name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The contract's result line: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .to_line()
    }

    /// The run as it goes into result files: the result line's fields
    /// plus quartiles, checks, the host fingerprint and the noise report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("noisy", Json::Bool(self.noisy)),
            ("metrics", self.metrics_json(true)),
            (
                "failed_checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .filter(|c| !c.ok)
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(&c.name)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("checks_run", Json::Num(self.checks.len() as f64)),
            ("extra", self.extra.clone()),
        ])
    }
}

/// Measure one workload: set-up, the four stages and — traced — the
/// per-layer probes.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunReport, String> {
    let hostinfo = host::Host::probe();
    let mut out = pipeline::run(
        w,
        seed,
        if trace {
            TRACED_PIPELINE_SHARE * seconds
        } else {
            seconds
        },
        trace,
        smoke,
    )?;

    // Repetition times as they would have read at the host's undisturbed
    // speed (see `speed.rs`); the raw ones go into the run file beside them.
    let quiet_probe = out.probe.quiet();
    let at_speed = |secs: f64, probe: speed::Reading| secs / speed::slowdown(probe, quiet_probe);
    let timed = |ts: &[pipeline::Timed]| -> (Vec<f64>, Vec<f64>) {
        (
            ts.iter().map(|t| at_speed(t.secs, t.probe)).collect(),
            ts.iter().map(|t| t.secs).collect(),
        )
    };
    let solve_col = |f: fn(&pipeline::SolveRep) -> f64| -> (Vec<f64>, Vec<f64>) {
        (
            out.solve.iter().map(|r| at_speed(f(r), r.probe)).collect(),
            out.solve.iter().map(f).collect(),
        )
    };
    let s = &out.serve;
    let mut metrics: Vec<(&'static str, &'static str, Summary)> = Vec::new();
    // The wall-clock metrics as measured, before the speed correction.
    let mut raw_values: Vec<(&'static str, f64)> = Vec::new();
    if trace {
        // A second open-loop phase: a stand-in model that is costly to
        // serve, offered about twice what the queue serves of it, with a
        // shed watermark. Generated and replayed after the measured stages.
        let model = gen::overload_model(seed);
        let engine = std::sync::Arc::new(
            distenc_serve::Engine::new(&model, distenc_serve::EngineConfig::default())
                .map_err(|e| e.to_string())?,
        );
        let mut overload = serve_loop::ServeStats::default();
        for segment in pipeline::serve_segments(
            gen::traffic(
                &workloads::OVERLOAD_SHAPE,
                workloads::OVERLOAD_MIX,
                workloads::OVERLOAD_QPS,
                pipeline::serve_seconds(seconds),
                seed ^ 0x6f76_6572,
            ),
            1,
        ) {
            overload.absorb(pipeline::serve_segment(
                &engine,
                &model,
                segment,
                Some(workloads::OVERLOAD_SHED_WATERMARK),
                false,
                &mut out.rec,
            )?);
        }
        pipeline::serve_checks(&overload, &mut out.checks);
        out.attempted += overload.sent;
        let values = layers::measure(w, seed, &out, &overload, &engine, &hostinfo)?;
        for m in layers::PER_LAYER {
            metrics.push((m.name, m.unit, Summary::exact(values[m.name])));
        }
        let path = out_dir().join(format!("trace-{}.json", w.name));
        std::fs::write(&path, out.rec.to_chrome_trace().to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        for m in workloads::END_TO_END {
            let quiet = |xs: &[f64]| Summary::quiet(xs, m.better == workloads::Better::Lower);
            // A timed repetition: the median of its repetitions at the
            // host's undisturbed speed, and as measured.
            let mut speed_corrected = |(at_speed, raw): (Vec<f64>, Vec<f64>)| {
                raw_values.push((m.name, stats::median(&raw)));
                Summary::center(&at_speed)
            };
            let summary = match m.name {
                "setup_s" => speed_corrected(timed(&out.setup)),
                "pipeline_s" => speed_corrected(solve_col(|r| r.pipeline_s)),
                "time_to_target_s" => {
                    speed_corrected(solve_col(|r| r.time_to_target_s.unwrap_or(f64::NAN)))
                }
                "iters_to_target" => Summary::center(
                    &solve_col(|r| r.iters_to_target.map_or(f64::NAN, |i| i as f64)).1,
                ),
                "heldout_rmse" => Summary::exact(out.heldout_rmse),
                "peak_rss_mb" => Summary::exact(out.peak_rss_mb),
                "virtual_s" => Summary::exact(out.cluster[0].metrics.virtual_seconds),
                "refresh_s" => speed_corrected(timed(&out.refresh)),
                "serve_p50_us" => quiet(&stats::window_percentiles(&s.windows, 50.0)),
                "goodput_qps" => quiet(&s.goodput_per_window()),
                "in_slo_share" => quiet(&s.in_slo_per_window()),
                other => return Err(format!("end-to-end metric `{other}` has no measurement")),
            };
            metrics.push((m.name, m.unit, summary));
        }
    }

    let rep = |secs: f64, probe: speed::Reading| {
        Json::Arr(vec![
            Json::Num(secs),
            Json::Num(probe[0]),
            Json::Num(probe[1]),
        ])
    };
    let reps =
        |ts: &[pipeline::Timed]| Json::Arr(ts.iter().map(|t| rep(t.secs, t.probe)).collect());
    let ms = |r: speed::Reading| Json::Arr(r.iter().map(|s| Json::Num(s * 1e3)).collect());
    let lag_p99 = s.lag_percentile(99.0);
    let extra = Json::obj(vec![
        ("host", hostinfo.to_json()),
        ("nnz", Json::Num(out.inputs.observed.tensor.nnz() as f64)),
        ("target_rmse", Json::Num(out.inputs.target)),
        ("solve_reps", Json::Num(out.solve.len() as f64)),
        ("cluster_reps", Json::Num(out.cluster.len() as f64)),
        ("refreshes", Json::Num(out.refresh.len() as f64)),
        (
            "speed_probe",
            Json::obj(vec![
                // Per kernel: [sweep, arithmetic].
                ("samples", Json::Num(out.probe.samples[0].len() as f64)),
                ("quiet_ms", ms(quiet_probe)),
                ("median_ms", ms(out.probe.median())),
            ]),
        ),
        (
            // Every repetition as measured, with the probe's times beside
            // it: [seconds, sweep seconds, arithmetic seconds].
            "repetitions",
            Json::obj(vec![
                ("setup_s", reps(&out.setup)),
                (
                    "pipeline_s",
                    Json::Arr(
                        out.solve
                            .iter()
                            .map(|r| rep(r.pipeline_s, r.probe))
                            .collect(),
                    ),
                ),
                ("refresh_s", reps(&out.refresh)),
            ]),
        ),
        (
            "as_measured",
            Json::Obj(
                raw_values
                    .iter()
                    .map(|(name, v)| (name.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "serve",
            Json::obj(vec![
                ("sent", Json::Num(s.sent as f64)),
                ("served", Json::Num(s.served as f64)),
                ("shed", Json::Num(s.shed as f64)),
                ("rejected", Json::Num(s.rejected as f64)),
                ("timed_out", Json::Num(s.timed_out as f64)),
                ("errors", Json::Num(s.errors as f64)),
                ("verified_points", Json::Num(s.verified as f64)),
                ("windows", Json::Num(s.windows.len() as f64)),
                ("gen.lag_p50_us", Json::Num(s.lag_percentile(50.0))),
                ("gen.lag_p99_us", Json::Num(lag_p99)),
                ("gen.lag_max_us", Json::Num(s.lag_percentile(100.0))),
            ]),
        ),
    ]);
    // Each failed check is one failed operation (a request answered with
    // an error or never resolved fails the serving checks). Sheds and
    // rejections are the program's designed answer to overload: they
    // miss `in_slo_share` and are not failures.
    let failed = out.checks.failed();
    Ok(RunReport {
        workload: w.name,
        seed,
        seconds,
        trace,
        metrics,
        checks: out.checks.0,
        attempted: out.attempted,
        failed,
        noisy: lag_p99 > NOISY_LAG_P99_US,
        extra,
    })
}

fn print_report(r: &RunReport) {
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.trace),
        host::nproc()
    );
    for (name, unit, s) in &r.metrics {
        if s.n > 1 {
            println!(
                "{name:<40} {:>16.6} {unit:<6} median {:.6} q1 {:.6} q3 {:.6} n {}",
                s.value, s.median, s.q1, s.q3, s.n
            );
        } else {
            println!("{name:<40} {:>16.6} {unit}", s.value);
        }
    }
    for c in r.checks.iter().filter(|c| !c.ok) {
        println!("CHECK FAILED {}: {}", c.name, c.detail);
    }
    println!(
        "# checks {} failed {} attempted {}{}",
        r.checks.len(),
        r.failed,
        r.attempted,
        if r.noisy {
            " NOISY (generator p99 lateness over 1 ms)"
        } else {
            ""
        }
    );
}

/// `run --workload W`: measure here, print, leave the detailed run file.
fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let mut w = workloads::by_name(name).expect("validated while parsing");
    if a.smoke {
        w = w.smoke();
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let report = run_workload(&w, a.seed, a.seconds, a.trace, a.smoke)?;
    print_report(&report);
    let path = run_file(name, a.seed, a.trace);
    std::fs::write(&path, report.to_json().to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn run_file(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "run-{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

/// `run` without `--workload`: every workload (× `--runs` seeds), each in
/// a child process of its own, gathered into one result-set file.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut ok = true;
    for w in workloads::all() {
        for seed in a.seed..a.seed + a.runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &a.seconds.to_string(),
                    "--trace",
                    if a.trace { "1" } else { "0" },
                ]);
            if a.smoke {
                cmd.arg("--smoke");
            }
            // Children inherit standard output: their metric lines are
            // this command's metric lines.
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            let path = run_file(w.name, seed, a.trace);
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t))
            {
                Ok(run) => runs.push(run),
                Err(e) => {
                    ok = false;
                    eprintln!("{}: {e}", path.display());
                }
            }
        }
    }
    let head = Json::obj(vec![
        ("seed", Json::Num(a.seed as f64)),
        ("runs_per_workload", Json::Num(a.runs as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("smoke", Json::Bool(a.smoke)),
    ])
    .to_line();
    // One run per line: the file stays small and diffs run by run.
    let lines: Vec<String> = runs.iter().map(Json::to_line).collect();
    let set = format!(
        "{},\"runs\":[\n{}\n]}}\n",
        head.trim_end_matches('}'),
        lines.join(",\n")
    );
    let path = a.out.clone().unwrap_or_else(|| {
        out_dir().join(format!(
            "results-seed{}-trace{}.json",
            a.seed,
            u8::from(a.trace)
        ))
    });
    std::fs::write(&path, set).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# result set: {}", path.display());
    Ok(ok)
}

/// `spec`: the contents of `BENCHMARK.json`, made from the tables in
/// `workloads.rs` and `layers.rs` (a self-test keeps the committed file
/// equal to this).
fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: workloads::Better, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        fields.extend(bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(fields)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                workloads::END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                layers::PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

/// `curve --workload W [--seed S]`: the cold solve's training RMSE as a
/// share of `rms(T)`, iteration by iteration — what `target_rel` literals
/// are calibrated against.
fn curve(a: &Args) -> Result<bool, String> {
    let name = a.workload.as_deref().ok_or("curve needs --workload")?;
    let w = workloads::by_name(name).expect("validated while parsing");
    let o = gen::observed(&w, a.seed);
    let rms = gen::rms(&o.tensor);
    let laps = o.laplacians();
    let refs: Vec<Option<&distenc_graph::Laplacian>> = laps.iter().map(Option::as_ref).collect();
    let cfg = pipeline::admm_config(&w, w.max_iters);
    let res = distenc_core::AdmmSolver::new(cfg)
        .and_then(|s| s.solve(&o.tensor, &refs))
        .map_err(|e| e.to_string())?;
    println!(
        "# {name} seed={} nnz={} rms={rms} target_rel={}",
        a.seed,
        o.tensor.nnz(),
        w.target_rel
    );
    for p in &res.trace.points {
        println!(
            "{:>3} {:>9.4} s  rmse/rms {:.5}",
            p.iter + 1,
            p.seconds,
            p.train_rmse / rms
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    // The harness measures the shipped defaults: nothing the program
    // reads from the environment may reach it.
    for var in ["DISTENC_THREADS", "DISTENC_TIER", "DISTENC_LAYOUT"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(name) => run_one(&a, &name),
            None => run_all(&a),
        }),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("curve") => parse_run_args(&args[1..]).and_then(|a| curve(&a)),
        Some("spec") if args.len() == 1 => {
            print!("{}", benchmark_json().to_pretty());
            Ok(true)
        }
        _ => Err("usage: distenc-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--runs N] [--smoke] [--out FILE]\n       distenc-benchmark compare A.json B.json\n       distenc-benchmark curve --workload W [--seed S]\n       distenc-benchmark spec".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is `spec`'s output: the
    /// tables in `workloads.rs` and `layers.rs` and the file cannot drift
    /// apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).unwrap(),
            benchmark_json(),
            "regenerate with `distenc-benchmark spec`"
        );
        for w in workloads::all() {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why must be one line of at most 200",
                w.name
            );
        }
        assert!(workloads::END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(layers::PER_LAYER.len() <= 128 && workloads::END_TO_END.len() <= 16);
    }

    /// Every workload at smoke size, untraced and traced, pass every
    /// check and report every metric of their table.
    #[test]
    fn smoke_runs_every_workload() {
        std::fs::create_dir_all(out_dir()).unwrap();
        for w in workloads::all() {
            let w = w.smoke();
            let e2e =
                run_workload(&w, 7, 1.0, false, true).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let failed: Vec<_> = e2e.checks.iter().filter(|c| !c.ok).collect();
            assert!(e2e.correct(), "{}: {failed:?}", w.name);
            assert_eq!(e2e.metrics.len(), workloads::END_TO_END.len());
            for (name, _, s) in &e2e.metrics {
                assert!(
                    s.value.is_finite() && s.value > 0.0,
                    "{}: {name} = {}",
                    w.name,
                    s.value
                );
            }
            let line = Json::parse(&e2e.result_line()).unwrap();
            assert_eq!(line.as_obj().unwrap().len(), 4);
            assert!(e2e.attempted >= 1);

            let traced =
                run_workload(&w, 7, 1.0, true, true).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                traced.correct(),
                "{}: {:?}",
                w.name,
                traced.checks.iter().filter(|c| !c.ok).collect::<Vec<_>>()
            );
            assert_eq!(traced.metrics.len(), layers::PER_LAYER.len());
            for (name, _, s) in &traced.metrics {
                assert!(s.value.is_finite(), "{}: {name} = {}", w.name, s.value);
            }
            assert!(out_dir().join(format!("trace-{}.json", w.name)).exists());
        }
    }
}
