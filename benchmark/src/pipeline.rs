//! One workload's pipeline: set-up (untimed work, reported as `setup_s`)
//! and the four measured stages — cold completions from files, the
//! simulated cluster, streaming refreshes, open-loop serving. Every
//! number is taken from outside, around calls into public functions.

use crate::gen::{self, Delta, Observed, SplitMix};
use crate::serve_loop::{self, ServeStats};
use crate::spans::Recorder;
use crate::speed::{self, Probe, Reading};
use crate::workloads::{Workload, CHECKPOINT_EVERY, MIN_BATCHES, SERVE_MIX, VERIFY_READS};
use distenc_core::{AdmmConfig, AdmmSolver, CheckpointPolicy, ConvergenceTrace, DisTenC};
use distenc_dataflow::{Cluster, ClusterConfig, Metrics};
use distenc_graph::{Laplacian, SparseSym};
use distenc_serve::workload::TimedRequest;
use distenc_serve::{
    AdmissionControl, Engine, EngineConfig, LiveEngine, MetricsSnapshot, QueueConfig, ServeQueue,
};
use distenc_stream::{DeltaBatch, StreamingSolver};
use distenc_tensor::{io, CooTensor, KruskalTensor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One correctness check; a failed one makes the run incorrect.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    pub fn expect(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    pub fn failed(&self) -> u64 {
        self.0.iter().filter(|c| !c.ok).count() as u64
    }
}

/// Serving's share of `--seconds`. Its figures are summaries over
/// thousands of requests and settle in a few seconds; the schedule is made
/// in set-up, so its length cannot depend on how long set-up takes.
const SERVE_SHARE: f64 = 0.13;
/// Shares of what a round has left after its set-up and its serving
/// segment. The cluster solve's end-to-end figure is exact (`virtual_s`),
/// so one solve a round is enough there; the rest goes to the stages whose
/// figures are wall-clock times.
const SOLVE_SHARE: f64 = 0.62;
const CLUSTER_SHARE: f64 = 0.05;

/// Seconds of open-loop serving in a run of `seconds`.
pub fn serve_seconds(seconds: f64) -> f64 {
    SERVE_SHARE * seconds
}

/// The solver configuration every stage starts from: the shipped defaults
/// plus the workload's rank, eigen width and iteration cap. `main` has
/// removed the `DISTENC_*` variables, so the defaults that read the
/// environment resolve as they ship: sequential execution, the exact
/// tier, the COO layout. The solver's own seed (factor initialisation,
/// Lanczos starts) stays the shipped default too: `--seed` makes the
/// inputs, not the program's settings.
pub fn admm_config(w: &Workload, max_iters: usize) -> AdmmConfig {
    AdmmConfig {
        rank: w.rank,
        eigen_k: w.eigen_k,
        max_iters,
        ..AdmmConfig::default()
    }
}

/// A fresh scratch directory under `benchmark/out/`, removed when the run
/// ends — also when it ends in an error.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(w: &Workload) -> Result<WorkDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = crate::out_dir().join(format!(
            "work-{}-{}-{}",
            w.name,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_similarity(s: &SparseSym, path: &Path) -> Result<(), String> {
    let mut coo = CooTensor::new(vec![s.dim(), s.dim()]);
    for i in 0..s.dim() {
        let (cols, vals) = s.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j >= i {
                coo.push(&[i, j], v).map_err(|e| e.to_string())?;
            }
        }
    }
    io::write_coo_file(&coo, path).map_err(|e| e.to_string())
}

fn read_similarity(path: &Path) -> Result<SparseSym, String> {
    let coo = io::read_coo_file(path).map_err(|e| e.to_string())?;
    if coo.order() != 2 || coo.shape()[0] != coo.shape()[1] {
        return Err(format!("{}: not a square 2-order file", path.display()));
    }
    let triplets: Vec<(usize, usize, f64)> = coo.iter().map(|(i, v)| (i[0], i[1], v)).collect();
    Ok(SparseSym::from_triplets(coo.shape()[0], &triplets))
}

/// Everything the measured stages consume, made before the clock.
pub struct Inputs {
    pub observed: Observed,
    pub laplacians: Vec<Option<Laplacian>>,
    pub target: f64,
    pub heldout: Vec<(Vec<usize>, f64)>,
    pub deltas: Vec<Delta>,
    pub traffic: Vec<TimedRequest>,
    pub tensor_path: PathBuf,
    pub sim_paths: Vec<PathBuf>,
    pub tensor_file_bytes: u64,
    /// Cold-solved on the observed tensor, budget set for warm re-solves.
    pub stream: StreamingSolver,
    /// Serving generation 1 = the base model.
    pub live: LiveEngine,
}

impl Inputs {
    pub fn lap_refs(&self) -> Vec<Option<&Laplacian>> {
        self.laplacians.iter().map(Option::as_ref).collect()
    }
}

/// Generate, write files, base-solve, build the engine: everything one
/// round of the stages consumes. Every round's set-up does the same work
/// on the same inputs; only the request schedule (`segment_s` seconds of
/// it) is drawn afresh per round, so that no round replays another's
/// requests into the engine's cache.
pub fn setup(
    w: &Workload,
    seed: u64,
    round: usize,
    segment_s: f64,
    dir: &WorkDir,
) -> Result<Inputs, String> {
    let observed = gen::observed(w, seed);
    let target = gen::target_rmse(w, &observed.tensor);
    let heldout = gen::heldout(w, &observed, seed);
    let deltas = gen::deltas(w, &observed, seed);
    let traffic = gen::traffic(
        &w.shape,
        SERVE_MIX,
        w.qps,
        segment_s,
        seed ^ ((round as u64) << 32),
    );

    let tensor_path = dir.join("observed.coo");
    io::write_coo_file(&observed.tensor, &tensor_path).map_err(|e| e.to_string())?;
    let tensor_file_bytes = std::fs::metadata(&tensor_path)
        .map_err(|e| e.to_string())?
        .len();
    let mut sim_paths = Vec::new();
    for (n, s) in observed.similarities.iter().enumerate() {
        let p = dir.join(&format!("similarity{n}.coo"));
        write_similarity(s, &p)?;
        sim_paths.push(p);
    }

    let laplacians = observed.laplacians();
    let cfg = admm_config(w, w.base_iters);
    let warm_tol = cfg.tol;
    let mut stream = StreamingSolver::new(observed.tensor.clone(), laplacians.clone(), cfg)
        .map_err(|e| format!("stream base: {e}"))?;
    let base = stream
        .solve()
        .map_err(|e| format!("stream base solve: {e}"))?;
    stream
        .set_budget(w.warm_iters, warm_tol)
        .map_err(|e| e.to_string())?;
    let live = LiveEngine::new(&base.model, EngineConfig::default()).map_err(|e| e.to_string())?;

    Ok(Inputs {
        observed,
        laplacians,
        target,
        heldout,
        deltas,
        traffic,
        tensor_path,
        sim_paths,
        tensor_file_bytes,
        stream,
        live,
    })
}

/// Wall seconds of one repetition with the speed probe's times beside it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub secs: f64,
    pub probe: Reading,
}

/// One cold completion, file to file.
pub struct SolveRep {
    pub pipeline_s: f64,
    /// The speed probe's times beside this completion.
    pub probe: Reading,
    pub solve_wall_s: f64,
    pub time_to_target_s: Option<f64>,
    pub iters_to_target: Option<usize>,
    pub trace: ConvergenceTrace,
    pub checksum: u64,
}

pub struct ClusterRep {
    pub wall_s: f64,
    pub metrics: Metrics,
    pub checksum: u64,
}

/// What a run of the four stages leaves behind.
pub struct Outcome {
    pub setup: Vec<Timed>,
    /// Every speed-probe sample of the run.
    pub probe: Probe,
    /// `VmHWM` in MiB after the run's first refresh.
    pub peak_rss_mb: f64,
    pub inputs: Inputs,
    pub dir: WorkDir,
    pub solve: Vec<SolveRep>,
    /// The last cold completion's model.
    pub model: KruskalTensor,
    pub heldout_rmse: f64,
    pub cluster: Vec<ClusterRep>,
    pub refresh: Vec<Timed>,
    pub rmse_after_batch: Vec<f64>,
    pub serve: ServeStats,
    pub serve_snapshot: MetricsSnapshot,
    pub rec: Recorder,
    pub checks: Checks,
    /// Operations attempted: completions, cluster solves, refreshes,
    /// requests sent.
    pub attempted: u64,
}

/// Times repetitions with a burst of speed-probe samples on either side.
/// Back to back, the burst that closes one repetition opens the next.
struct Bracket {
    probe: Probe,
    before: Reading,
}

impl Bracket {
    fn new() -> Bracket {
        Bracket {
            probe: Probe::new(),
            before: [0.0; 2],
        }
    }

    /// A fresh opening burst: before the first repetition, and when other
    /// work has run since the last one closed.
    fn reopen(&mut self) {
        self.before = self.probe.burst();
    }

    fn close(&mut self, secs: f64) -> Timed {
        let after = self.probe.burst();
        let probe = speed::beside(self.before, after);
        self.before = after;
        Timed { secs, probe }
    }
}

/// How many times the run goes round set-up and its four stages.
const ROUNDS: usize = 6;

/// One stage's block of repetitions in one round: it ends at a moment
/// fixed by the run's start, so a block that overruns takes the time from
/// the next one and the run as a whole keeps to `--seconds`.
struct Block {
    end: Instant,
    min: usize,
    max: usize,
    reps: usize,
    spent: f64,
}

impl Block {
    fn until(end: Instant, min: usize, max: usize) -> Block {
        Block {
            end,
            min,
            max,
            reps: 0,
            spent: 0.0,
        }
    }

    /// Another repetition? Yes while under the minimum, then while one of
    /// average length would end nearer to the block's end than not
    /// starting it would.
    fn wants(&self) -> bool {
        self.reps < self.max
            && (self.reps < self.min
                || Instant::now() + Duration::from_secs_f64(0.5 * self.spent / self.reps as f64)
                    <= self.end)
    }

    fn took(&mut self, seconds: f64) {
        self.reps += 1;
        self.spent += seconds;
    }
}

/// Go round six times: set-up, then a block of cold completions, a cluster
/// solve, a block of refreshes and a segment of serving. This host has
/// slow phases that last seconds; with each stage in one piece, a slow
/// phase moved every sample of one metric. In six pieces spread over the
/// whole run it reaches a part of any metric's samples. (One repetition
/// per turn spreads the samples further but starts every repetition with
/// cold caches and a churned heap.) A round is a sixth of `seconds` by the
/// clock; what its set-up and its serving segment leave is shared out
/// among the other stages. Every round's set-up is timed (`setup_s`) and
/// its products are what the round's stages use, so every round refreshes
/// the same base model with the same deltas. With `trace`, and at smoke
/// size, there is one round: every call named in the README records a
/// span, and serving is one segment, so the queue's numbers are free of
/// the start-up transient of a fresh worker.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let rounds = if smoke || trace { 1 } else { ROUNDS };
    let round_s = seconds / rounds as f64;
    let segment_s = serve_seconds(seconds) / rounds as f64;
    let dir = WorkDir::create(w)?;
    let mut bracket = Bracket::new();
    let start = Instant::now();
    let mut rec = Recorder::new(trace);
    let mut checks = Checks::default();

    let mut setups = Vec::new();
    let mut solve = Vec::new();
    let mut model = None;
    let mut cluster = Vec::new();
    let mut refresh = Vec::new();
    let mut rmse_after_batch: Vec<f64> = Vec::new();
    let mut verify_rng = SplitMix(seed ^ 0x7665_7269);
    let growth = vec![0usize; w.shape.len()];
    // Serving answers from one engine for the whole run, built over the
    // first round's base model; each segment gets a fresh queue (and
    // worker) over it. Refreshes publish to the round's own `LiveEngine`,
    // where every generation is checked.
    let mut serving: Option<(KruskalTensor, Arc<Engine>)> = None;
    let mut serve = ServeStats::default();
    let mut peak_rss_mb = None;
    let mut last_inputs: Option<Inputs> = None;
    for round in 0..rounds {
        // ---- set-up: this round's inputs ---------------------------------
        drop(last_inputs.take());
        bracket.reopen();
        let t0 = Instant::now();
        let mut inp = setup(w, seed, round, segment_s, &dir)?;
        setups.push(bracket.close(t0.elapsed().as_secs_f64()));
        if serving.is_none() {
            let base = inp
                .stream
                .model()
                .expect("base solve ran in set-up")
                .clone();
            let (engine, _) = rec.span("serve.engine.build", 0, |_| {
                Engine::new(&base, EngineConfig::default())
            });
            serving = Some((base, Arc::new(engine.map_err(|e| e.to_string())?)));
        }
        let (served_model, engine) = serving.as_ref().expect("built in the first round");

        // The round ends a sixth of the run after it began, by the run's
        // clock; the stages before serving share what is left.
        let stages_end = start + Duration::from_secs_f64((round + 1) as f64 * round_s - segment_s);
        let left = stages_end.saturating_duration_since(Instant::now());
        let solve_end = Instant::now() + left.mul_f64(SOLVE_SHARE);
        let cluster_end = solve_end + left.mul_f64(CLUSTER_SHARE);
        let mut turns_solve = Block::until(solve_end, 1, usize::MAX);
        let mut turns_cluster = Block::until(cluster_end, 1, usize::MAX);
        let mut turns_stream = Block::until(
            stages_end,
            MIN_BATCHES.div_ceil(rounds).min(w.max_batches),
            w.max_batches,
        );

        // ---- cold completions, file to file -----------------------------
        // (The burst that closed set-up opens the first completion.)
        while turns_solve.wants() {
            let (mut r, m) = solve_rep(w, &inp, &dir, &mut rec, solve.len() as u32)?;
            r.probe = bracket.close(r.pipeline_s).probe;
            turns_solve.took(r.pipeline_s);
            solve.push(r);
            model = Some(m);
        }

        // ---- solves on the simulated cluster ----------------------------
        while turns_cluster.wants() {
            let cl = Cluster::new(ClusterConfig {
                machines: w.machines,
                ..ClusterConfig::paper_spark()
            });
            let cfg = admm_config(w, w.cluster_iters);
            let laps = inp.lap_refs();
            let (res, wall_s) = rec.span("core.cluster_solve", cluster.len() as u32, |_| {
                DisTenC::new(&cl, cfg).and_then(|d| d.solve(&inp.observed.tensor, &laps))
            });
            let res = res.map_err(|e| format!("cluster solve: {e}"))?;
            turns_cluster.took(wall_s);
            cluster.push(ClusterRep {
                wall_s,
                metrics: cl.metrics(),
                checksum: gen::model_checksum(&res.model),
            });
        }

        // ---- streaming refreshes ------------------------------------------
        let mut deltas = std::mem::take(&mut inp.deltas).into_iter();
        bracket.reopen();
        while let Some(delta) = turns_stream.wants().then(|| deltas.next()).flatten() {
            let b = turns_stream.reps;
            let rep = refresh.len() as u32;
            let shape = inp.stream.observed().shape().to_vec();
            let (stream, live) = (&mut inp.stream, &inp.live);
            let (out, secs) = rec.span("refresh", rep, |rec| -> Result<(f64, u64), String> {
                let (batch, _) = rec.span("stream.try_new", rep, |_| {
                    DeltaBatch::try_new(&shape, &growth, delta.inserts, delta.updates)
                });
                let batch = batch.map_err(|e| format!("batch {b}: {e}"))?;
                rec.span("stream.apply", rep, |_| stream.apply(&batch))
                    .0
                    .map_err(|e| format!("apply {b}: {e}"))?;
                let res = rec
                    .span("stream.warm_solve", rep, |_| stream.solve())
                    .0
                    .map_err(|e| format!("re-solve {b}: {e}"))?;
                let gen = rec
                    .span("stream.publish", rep, |_| live.publish(&res.model))
                    .0
                    .map_err(|e| format!("publish {b}: {e}"))?;
                Ok((res.trace.final_rmse().unwrap_or(f64::NAN), gen))
            });
            let (rmse, generation) = out?;
            turns_stream.took(secs);
            refresh.push(bracket.close(secs));
            // The memory high-water mark is read after the run's first
            // refresh: a completion, a cluster solve and a refresh have run
            // and the serving engine is built, whatever the host's speed
            // (how many more refreshes fit a round depends on it, and each
            // grows the streamed tensor).
            if peak_rss_mb.is_none() {
                peak_rss_mb = Some(crate::host::peak_rss_mb()?);
            }
            // Every round refreshes the same base model with the same
            // deltas: batch b must leave the same training RMSE, bit for
            // bit, in every round.
            match rmse_after_batch.get(b) {
                Some(first) => checks.expect(
                    "stream.same_bits_every_round",
                    first.to_bits() == rmse.to_bits(),
                    || format!("round {round} batch {b}: rmse {rmse} != round 0's {first}"),
                ),
                None => rmse_after_batch.push(rmse),
            }
            // Generation 1 is the round's base model, so batch b publishes
            // b + 2: each generation is seen exactly once and in order.
            checks.expect(
                "stream.generations_in_order",
                generation == b as u64 + 2 && live.generation() == generation,
                || {
                    format!(
                        "round {round} batch {b} published generation {generation}, engine serves {}",
                        live.generation()
                    )
                },
            );
            let current = stream.model().expect("a solve just ran");
            let mut bad = 0;
            for _ in 0..VERIFY_READS {
                let idx: Vec<usize> = shape.iter().map(|&d| verify_rng.below(d)).collect();
                match live.point(&idx) {
                    Ok(t)
                        if t.generation == generation
                            && t.value.to_bits() == current.eval(&idx).to_bits() => {}
                    _ => bad += 1,
                }
            }
            checks.expect("stream.reads_match_model", bad == 0, || {
                format!(
                    "round {round} batch {b}: {bad} of {VERIFY_READS} reads differ from KruskalTensor::eval"
                )
            });
        }

        // ---- a segment of open-loop serving -----------------------------
        for segment in serve_segments(std::mem::take(&mut inp.traffic), 1) {
            let stats = serve_segment(engine, served_model, segment, None, trace, &mut rec)?;
            serve.absorb(stats);
        }

        last_inputs = Some(inp);
    }
    let inp = last_inputs.expect("at least one round ran");
    let serve_snapshot = serving.expect("built in the first round").1.snapshot();

    let model = model.expect("at least one completion ran");
    for (i, r) in solve.iter().enumerate() {
        checks.expect("solve.reaches_target", r.iters_to_target.is_some(), || {
            format!(
                "rep {i}: rmse {:?} never reached {}",
                r.trace.final_rmse(),
                inp.target
            )
        });
        checks.expect(
            "solve.same_bits_every_rep",
            r.checksum == solve[0].checksum,
            || {
                format!(
                    "rep {i}: model checksum {:#x} != rep 0's {:#x}",
                    r.checksum, solve[0].checksum
                )
            },
        );
        checks.expect(
            "solve.same_iters_every_rep",
            r.iters_to_target == solve[0].iters_to_target,
            || {
                format!(
                    "rep {i}: {:?} iterations to target, rep 0 took {:?}",
                    r.iters_to_target, solve[0].iters_to_target
                )
            },
        );
    }
    let heldout_rmse = gen::heldout_rmse(&model, &inp.heldout);
    checks.expect(
        "solve.heldout_under_ceiling",
        heldout_rmse.is_finite() && heldout_rmse <= w.heldout_ceiling,
        || {
            format!(
                "held-out rmse {heldout_rmse} over ceiling {}",
                w.heldout_ceiling
            )
        },
    );
    for (i, r) in cluster.iter().enumerate() {
        checks.expect(
            "cluster.same_accounting_every_rep",
            r.metrics == cluster[0].metrics,
            || {
                format!(
                    "rep {i}: {:?} != rep 0's {:?}",
                    r.metrics, cluster[0].metrics
                )
            },
        );
        checks.expect(
            "cluster.same_bits_every_rep",
            r.checksum == cluster[0].checksum,
            || format!("rep {i}: model checksum differs from rep 0's"),
        );
    }
    serve_checks(&serve, &mut checks);

    let attempted = (solve.len() + cluster.len() + refresh.len()) as u64 + serve.sent;
    Ok(Outcome {
        setup: setups,
        probe: bracket.probe,
        peak_rss_mb: peak_rss_mb.expect("at least one refresh ran"),
        inputs: inp,
        dir,
        solve,
        model,
        heldout_rmse,
        cluster,
        refresh,
        rmse_after_batch,
        serve,
        serve_snapshot,
        rec,
        checks,
        attempted,
    })
}

/// read `.coo` (+ similarity files) → solve with a checkpoint every 10
/// iterations → write the model.
fn solve_rep(
    w: &Workload,
    inp: &Inputs,
    dir: &WorkDir,
    rec: &mut Recorder,
    rep: u32,
) -> Result<(SolveRep, KruskalTensor), String> {
    let cfg = admm_config(w, w.max_iters).with_checkpoint(
        CheckpointPolicy::every(CHECKPOINT_EVERY).with_path(dir.join("solve.ckpt")),
    );
    let target = inp.target;
    let (out, pipeline_s) = rec.span("pipeline", rep, |rec| -> Result<_, String> {
        let (observed, _) = rec.span("tensor.io.read_coo", rep, |_| {
            io::read_coo_file(&inp.tensor_path)
        });
        let observed = observed.map_err(|e| e.to_string())?;
        let (laps, _) = rec.span(
            "graph.read_similarities",
            rep,
            |_| -> Result<Vec<Option<Laplacian>>, String> {
                if inp.sim_paths.is_empty() {
                    return Ok(vec![None; observed.order()]);
                }
                inp.sim_paths
                    .iter()
                    .map(|p| Ok(Some(Laplacian::from_similarity(read_similarity(p)?))))
                    .collect()
            },
        );
        let laps = laps?;
        let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(Option::as_ref).collect();
        let (res, solve_wall_s) = rec.span("core.solve", rep, |_| {
            AdmmSolver::new(cfg).and_then(|s| s.solve(&observed, &lap_refs))
        });
        let res = res.map_err(|e| format!("cold solve: {e}"))?;
        let (wrote, _) = rec.span("tensor.io.write_kruskal", rep, |_| {
            io::write_kruskal_file(&res.model, dir.join("model.kruskal"))
        });
        wrote.map_err(|e| e.to_string())?;
        Ok((res, solve_wall_s))
    });
    let (res, solve_wall_s) = out?;
    let hit = res.trace.points.iter().position(|p| p.train_rmse <= target);
    Ok((
        SolveRep {
            pipeline_s,
            probe: [0.0; 2],
            solve_wall_s,
            time_to_target_s: res.trace.time_to_rmse(target),
            iters_to_target: hit.map(|i| i + 1),
            checksum: gen::model_checksum(&res.model),
            trace: res.trace,
        },
        res.model,
    ))
}

/// One serve turn: requests rebased to start at zero, and how many
/// summary windows the turn spans.
pub struct Segment {
    pub requests: Vec<TimedRequest>,
    pub windows: usize,
}

/// Cut a schedule into `n` consecutive segments of equal length, a whole
/// number of summary windows each (the remainder of the schedule is
/// dropped), every segment rebased to start at zero.
pub fn serve_segments(traffic: Vec<TimedRequest>, n: usize) -> Vec<Segment> {
    let window = serve_loop::WINDOW;
    let end = traffic.last().map_or(Duration::ZERO, |r| r.offset);
    let windows = (((end.as_nanos() / window.as_nanos()) as usize) / n).max(1);
    let length = window * windows as u32;
    let mut segments: Vec<Segment> = (0..n)
        .map(|_| Segment {
            requests: Vec::new(),
            windows,
        })
        .collect();
    for mut r in traffic {
        let k = (r.offset.as_nanos() / length.as_nanos()) as usize;
        if let Some(segment) = segments.get_mut(k) {
            r.offset -= length * k as u32;
            segment.requests.push(r);
        }
    }
    segments.retain(|s| !s.requests.is_empty());
    segments
}

/// Replay one segment through a fresh queue (one worker) over `engine`.
pub fn serve_segment(
    engine: &Arc<Engine>,
    model: &KruskalTensor,
    segment: Segment,
    shed_watermark: Option<usize>,
    time_submits: bool,
    rec: &mut Recorder,
) -> Result<ServeStats, String> {
    let cfg = QueueConfig {
        admission: AdmissionControl {
            shed_watermark,
            ..AdmissionControl::default()
        },
        ..QueueConfig::default()
    };
    let mut queue = ServeQueue::new(Arc::clone(engine), cfg).map_err(|e| e.to_string())?;
    let (stats, _) = rec.span("serve.open_loop", 0, |_| {
        serve_loop::open_loop(
            &queue,
            segment.requests,
            segment.windows.max(1),
            model,
            time_submits,
        )
    });
    queue.shutdown();
    Ok(stats)
}

pub fn serve_checks(s: &ServeStats, checks: &mut Checks) {
    checks.expect("serve.every_request_accounted", s.accounted() == s.sent && s.unresolved_or_double == 0, || {
        format!(
            "sent {} != served {} + shed {} + rejected {} + timed out {} + errors {}; {} tickets unresolved or answered twice",
            s.sent, s.served, s.shed, s.rejected, s.timed_out, s.errors, s.unresolved_or_double
        )
    });
    checks.expect("serve.no_errors", s.errors == 0, || {
        format!("{} requests came back as errors", s.errors)
    });
    checks.expect(
        "serve.sampled_points_match_model",
        s.verify_mismatches == 0 && s.verified > 0,
        || {
            format!(
                "{} of {} sampled point responses differ from KruskalTensor::eval",
                s.verify_mismatches, s.verified
            )
        },
    );
}
