//! `distenc` — command-line tensor completion.
//!
//! ```text
//! distenc generate --kind error --dims 40,40,40 --nnz 8000 --out data.coo
//! distenc complete --input data.coo --rank 5 --out model.kruskal \
//!                  [--similarity sim.coo@0]... [--alpha 2.0] [--iters 60]
//! distenc evaluate --model model.kruskal --test held_out.coo
//! distenc predict  --model model.kruskal --at 3,17,2
//! distenc predict  --model model.kruskal --top-k 10 --mode 1 --at 3,_,2
//! distenc serve-bench --model model.kruskal --queries 100000
//! distenc <command> --help
//! ```
//!
//! Tensors are plain-text COO files (`# shape: …` header, one
//! `i j k value` line per entry); similarity matrices are 2-order COO
//! files attached to a mode with `path@mode`. Models round-trip through
//! the same text format (`distenc_tensor::io`). Prediction and the
//! serving benchmark go through `distenc_serve::Engine`, so scores are
//! bit-identical to `KruskalTensor::eval` on the loaded model.
//!
//! Every option a subcommand takes is a row of [`COMMANDS`]; `cli`
//! parses, rejects and documents options from that table alone.

mod cli;

use cli::{fail, flag, many, parse_list, parse_num, val, Cmd, Opt, Opts, Res};
use distenc::core::{AdmmConfig, AdmmSolver, Checkpoint, CheckpointPolicy, CompletionResult};
use distenc::dataflow::ExecMode;
use distenc::eval::metrics;
use distenc::graph::{Laplacian, SparseSym};
use distenc::linalg::isa;
use distenc::serve::{
    replay_direct, replay_queued, serve_open_loop, synth_trace, AdmissionControl, Engine,
    EngineConfig, OpenLoopConfig, QueueConfig, ServeQueue, TopKQuery, TraceConfig,
};
use distenc::tensor::{io, CooTensor, KruskalTensor};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

// ---- the option table -----------------------------------------------------

const PROBLEM: &[Opt] = &[
    val("input", "FILE", "observed tensor, a .coo file (required)"),
    val("out", "MODEL", "where to write the finished Kruskal model (required)"),
];
const SIMILARITY: &[Opt] =
    &[many("similarity", "FILE@MODE", "square 2-order .coo similarity attached to a mode")];
/// How the solve executes; never changes what it computes.
const EXEC: &[Opt] = &[
    val(
        "threads",
        "N",
        "0|1 sequential, N >= 2 a thread pool [default: DISTENC_THREADS, else the host's cores]",
    ),
];
const BUDGET: &[Opt] = &[
    val("iters", "T", "iteration cap [default: 60]"),
    val("tol", "EPS", "convergence tolerance on the factor change [default: 1e-4]"),
    val("seed", "S", "factor-initialisation seed [default: 42]"),
];
const CHECKPOINT: &[Opt] = &[
    val("checkpoint", "FILE", "solver snapshot: complete writes it, resume continues from it"),
    val("checkpoint-every", "N", "snapshot every N iterations [default: complete 5, resume off]"),
];
const QUEUE: &[Opt] = &[
    val("capacity", "N", "bounded queue capacity [default: 1024]"),
    val("max-batch", "N", "largest batch a worker forms [default: 64]"),
];

const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "generate",
        about: "write a synthetic tensor (kind error adds FILE.simN chain similarities)",
        groups: &[&[
            val("kind", "scalability|error|skewed", "which generator (required)"),
            val("dims", "d1,d2,..", "mode lengths (required)"),
            val("nnz", "N", "observed entries to draw (required)"),
            val("out", "FILE", "where to write the .coo file (required)"),
            val("seed", "S", "generator seed [default: 42]"),
        ]],
        run: cmd_generate,
    },
    Cmd {
        name: "complete",
        about: "solve a completion problem and write the model",
        groups: &[
            PROBLEM,
            &[
                val("rank", "R", "CP rank (required)"),
                val("alpha", "A", "similarity (trace-regulariser) weight [default: 1.0]"),
                val("lambda", "L", "ridge weight [default: 0.1]"),
                val("eigen-k", "K", "Laplacian eigen-truncation width [default: 20]"),
                flag("nonneg", "project factors onto the non-negative orthant"),
            ],
            SIMILARITY,
            EXEC,
            BUDGET,
            CHECKPOINT,
        ],
        run: cmd_complete,
    },
    Cmd {
        name: "resume",
        about: "finish an interrupted complete from its --checkpoint, bit-identically",
        groups: &[PROBLEM, SIMILARITY, EXEC, CHECKPOINT],
        run: cmd_resume,
    },
    Cmd {
        name: "stream",
        about: "solve, then fold in each --delta and warm re-solve",
        groups: &[
            PROBLEM,
            &[
                val("rank", "R", "CP rank (required)"),
                many("delta", "FILE", ".coo batch: updates, new cells, growth (required)"),
                val("budget-iters", "T", "iteration cap of each warm re-solve [default: --iters]"),
            ],
            EXEC,
            BUDGET,
        ],
        run: cmd_stream,
    },
    Cmd {
        name: "evaluate",
        about: "RMSE and relative error of a model on held-out entries",
        groups: &[&[
            val("model", "MODEL", "Kruskal model file (required)"),
            val("test", "FILE", "held-out entries, a .coo file (required)"),
        ]],
        run: cmd_evaluate,
    },
    Cmd {
        name: "predict",
        about: "score --at, every index of --at-file, or the --top-k of a free mode",
        groups: &[&[
            val("model", "MODEL", "Kruskal model file (required)"),
            val("at", "i1,i2,..", "index tuple; with --top-k, _ marks the free mode"),
            val("at-file", "FILE", ".coo file whose indices are all scored (values ignored)"),
            val("top-k", "K", "rank the K best indices of --mode, the rest pinned by --at"),
            val("mode", "M", "with --top-k: the free mode"),
            val("budget-ms", "MS", "with --top-k: scan deadline; on expiry prints best-so-far"),
        ]],
        run: cmd_predict,
    },
    Cmd {
        name: "serve-bench",
        about: "replay a Zipf request trace on the serving stack (--qps: open-loop arrivals)",
        groups: &[
            &[
                val("model", "MODEL", "serve this model [default: a random --dims/--rank one]"),
                val("dims", "d1,d2,..", "random-model mode lengths [default: 2000,500,20]"),
                val("rank", "R", "random-model rank [default: 8]"),
                val("seed", "S", "model and trace seed [default: 42]"),
                val("queries", "N", "requests in the trace [default: 100000]"),
                val("point-frac", "F", "share of point lookups [default: 0.6]"),
                val("batch-frac", "F", "share of batch lookups; the rest are top-K [default: 0.2]"),
                val("batch-size", "B", "entries per batch lookup [default: 32]"),
                val("k", "K", "K of the top-K requests [default: 10]"),
                val("zipf", "S", "index skew exponent [default: 1.1]"),
                val("budget-ms", "MS", "scan deadline attached to top-K requests"),
                val("cache", "N", "top-K LRU entries [default: 1024]"),
                val("workers", "W", "queue workers, 0 = none, replay on the engine [default: 0]"),
                val("qps", "Q", "open-loop mode: offered load, Poisson arrivals, --workers 2"),
                val("tenants", "N", "with --qps: fair-queued registry tenants [default: 1]"),
                val("tenant-zipf", "S", "with --qps: tenant skew exponent [default: 1.0]"),
                val("shed-watermark", "N", "with --qps: shed new requests at this queue depth"),
                val("tenant-share", "N", "with --qps: per-tenant cap on queued requests"),
                val("deadline-ms", "MS", "with --qps: end-to-end deadline; infeasible ones shed"),
                flag("json", "with --qps: print the report as JSON"),
            ],
            QUEUE,
        ],
        run: cmd_serve_bench,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Res {
    // Checked once, here, so a bad value is this typed error for every
    // subcommand rather than a panic in the first `ExecMode::default()`.
    ExecMode::from_env().map_err(|e| format!("DISTENC_THREADS: {e}"))?;
    let Some((name, rest)) = args.split_first() else {
        return fail(format!("no command given\n{}", cli::usage(COMMANDS)));
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return to_stdout(|out| writeln!(out, "{}", cli::usage(COMMANDS)));
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\n{}", cli::usage(COMMANDS)))?;
    match Opts::parse(cmd, rest)? {
        Some(opts) => (cmd.run)(&opts),
        None => to_stdout(|out| write!(out, "{}", cmd.help())),
    }
}

/// Everything the CLI prints as its result goes to stdout through here:
/// locked once, buffered, flushed before returning. A reader that went
/// away (`distenc predict … | head -1`) is not a failure of this program —
/// it ends quietly with status 0, as it would have had the reader stayed;
/// any other I/O error is an `error: …` line and status 1 like the rest.
fn to_stdout(write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> Res {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        result => Ok(result?),
    }
}

// ---- shared option groups -------------------------------------------------

/// The `EXEC` group: `--threads` through the one thread-count parser. A
/// typo is an error, never a fallback — it must not silently change which
/// kernels run.
fn exec_options(opts: &Opts) -> Res<ExecMode> {
    let Some(s) = opts.get("threads") else { return Ok(ExecMode::default()) };
    Ok(ExecMode::parse(s).map_err(|e| format!("--threads: {e}"))?)
}

/// The `EXEC` and `BUDGET` groups plus `--rank`, over the shipped defaults.
fn solver_config(opts: &Opts) -> Res<AdmmConfig> {
    Ok(AdmmConfig {
        rank: opts.req_num("rank")?,
        max_iters: opts.num_or("iters", 60)?,
        tol: opts.num_or("tol", 1e-4)?,
        seed: opts.num_or("seed", 42)?,
        exec: exec_options(opts)?,
        ..Default::default()
    })
}

/// The `CHECKPOINT` group; `default_every` is the cadence when only
/// `--checkpoint` is given (`None`: no snapshots without an explicit one).
fn checkpoint_policy(opts: &Opts, default_every: Option<usize>) -> Res<Option<CheckpointPolicy>> {
    let Some(path) = opts.get("checkpoint") else {
        if opts.has("checkpoint-every") {
            return fail("--checkpoint-every needs --checkpoint FILE");
        }
        return Ok(None);
    };
    let every = opts.num("checkpoint-every")?.or(default_every);
    Ok(every.map(|n| CheckpointPolicy::every(n).with_path(path)))
}

/// The `QUEUE` group.
fn queue_config(opts: &Opts, workers: usize, admission: AdmissionControl) -> Res<QueueConfig> {
    Ok(QueueConfig {
        capacity: opts.num_or("capacity", 1024)?,
        max_batch: opts.num_or("max-batch", 64)?,
        workers,
        admission,
    })
}

/// `--similarity FILE@MODE`, repeatable.
fn similarities(opts: &Opts, order: usize) -> Res<Vec<Option<Laplacian>>> {
    let mut laps: Vec<Option<Laplacian>> = vec![None; order];
    for spec in opts.all("similarity") {
        let (path, mode) = spec
            .rsplit_once('@')
            .ok_or_else(|| format!("--similarity needs FILE@MODE, got `{spec}`"))?;
        let mode: usize = parse_num(mode, "similarity mode")?;
        if mode >= order {
            return fail(format!("mode {mode} out of range for order {order}"));
        }
        laps[mode] = Some(Laplacian::from_similarity(read_similarity(path)?));
    }
    Ok(laps)
}

fn write_similarity(s: &SparseSym, path: &str) -> Res {
    let mut coo = CooTensor::new(vec![s.dim(), s.dim()]);
    for i in 0..s.dim() {
        let (cols, vals) = s.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j >= i {
                coo.push(&[i, j], v)?;
            }
        }
    }
    Ok(io::write_coo_file(&coo, path).map_err(|e| format!("{path}: {e}"))?)
}

fn read_similarity(path: &str) -> Res<SparseSym> {
    let coo = io::read_coo_file(path).map_err(|e| format!("{path}: {e}"))?;
    if coo.order() != 2 || coo.shape()[0] != coo.shape()[1] {
        return fail(format!("{path}: similarity must be a square 2-order COO file"));
    }
    let triplets: Vec<(usize, usize, f64)> = coo
        .iter()
        .filter(|(idx, _)| idx[0] <= idx[1]) // upper triangle; mirrored on build
        .map(|(idx, v)| (idx[0], idx[1], v))
        .collect();
    Ok(SparseSym::from_triplets(coo.shape()[0], &triplets))
}

/// The `--input` tensor, read on the `--threads` the solve runs on; a
/// bad line is named by its number.
fn read_input(input: &str, opts: &Opts) -> Res<CooTensor> {
    Ok(io::read_coo_file_on(input, exec_options(opts)?).map_err(|e| format!("{input}: {e}"))?)
}

fn write_model(model: &KruskalTensor, out: &str) -> Res {
    io::write_kruskal_file(model, out).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote rank-{} model to {out}", model.rank());
    Ok(())
}

fn final_rmse(result: &CompletionResult) -> f64 {
    result.trace.final_rmse().unwrap_or(f64::NAN)
}

// ---- subcommands ----------------------------------------------------------

fn cmd_generate(opts: &Opts) -> Res {
    use distenc::datagen::synthetic;
    let dims = parse_list(opts.req("dims")?, "dimension")?;
    let nnz: usize = opts.req_num("nnz")?;
    let out = opts.req("out")?;
    let seed: u64 = opts.num_or("seed", 42)?;
    let tensor = match opts.req("kind")? {
        "scalability" => synthetic::scalability_tensor(&dims, nnz, seed),
        "skewed" => synthetic::skewed_tensor(&dims, nnz, seed),
        "error" => {
            let data = synthetic::error_tensor(&dims, 5, nnz, seed);
            // Also emit the chain similarities next to the tensor.
            for (n, sim) in data.similarities.iter().enumerate() {
                let path = format!("{out}.sim{n}");
                write_similarity(sim, &path)?;
                eprintln!("wrote mode-{n} similarity to {path}");
            }
            data.observed
        }
        other => return fail(format!("unknown --kind `{other}`")),
    };
    io::write_coo_file(&tensor, out).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {} entries of shape {:?} to {out}", tensor.nnz(), tensor.shape());
    Ok(())
}

fn cmd_complete(opts: &Opts) -> Res {
    let (input, out) = (opts.req("input")?, opts.req("out")?);
    let observed = read_input(input, opts)?;

    let cfg = AdmmConfig {
        checkpoint: checkpoint_policy(opts, Some(5))?,
        lambda: opts.num_or("lambda", 0.1)?,
        alpha: opts.num_or("alpha", 1.0)?,
        eigen_k: opts.num_or("eigen-k", 20)?,
        nonneg: opts.has("nonneg"),
        ..solver_config(opts)?
    };

    let laps = similarities(opts, observed.order())?;
    let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(|l| l.as_ref()).collect();
    let result = AdmmSolver::new(cfg)?.solve(&observed, &lap_refs)?;
    eprintln!(
        "completed in {} iterations (converged: {}, train RMSE {:.6}), kernels: {}",
        result.iterations,
        result.converged,
        final_rmse(&result),
        isa::name()
    );
    write_model(&result.model, out)
}

fn cmd_resume(opts: &Opts) -> Res {
    let ckpt_path = opts.req("checkpoint")?;
    let (input, out) = (opts.req("input")?, opts.req("out")?);
    let observed = read_input(input, opts)?;
    let ckpt = Checkpoint::read_file(std::path::Path::new(ckpt_path))
        .map_err(|e| format!("reading {ckpt_path}: {e}"))?;

    // The solve numerics come from the snapshot; only the environment
    // knobs are taken from this invocation. `--checkpoint-every` keeps
    // snapshotting to the same file while the resumed run progresses.
    let exec = exec_options(opts)?;
    let checkpoint = checkpoint_policy(opts, None)?;
    let cfg = AdmmConfig { checkpoint, exec, ..ckpt.config.clone() };

    let laps = similarities(opts, observed.order())?;
    let lap_refs: Vec<Option<&Laplacian>> = laps.iter().map(|l| l.as_ref()).collect();
    let result = AdmmSolver::new(cfg)?.resume(&observed, &lap_refs, &ckpt)?;
    eprintln!(
        "resumed at iteration {} and finished at {} (converged: {}, train RMSE {:.6}), \
         kernels: {}",
        ckpt.iters_done,
        result.iterations,
        result.converged,
        final_rmse(&result),
        isa::name()
    );
    write_model(&result.model, out)
}

fn cmd_stream(opts: &Opts) -> Res {
    use distenc::stream::{DeltaBatch, StreamingSolver};

    let (input, out) = (opts.req("input")?, opts.req("out")?);
    let observed = read_input(input, opts)?;
    let order = observed.order();
    let cfg = solver_config(opts)?;
    let budget: usize = opts.num_or("budget-iters", cfg.max_iters)?;
    let tol = cfg.tol;
    opts.req("delta")?; // fail before the initial solve, not after it

    let mut solver = StreamingSolver::new(observed, vec![None; order], cfg)?;
    let first = solver.solve()?;
    eprintln!(
        "initial solve: {} iterations, train RMSE {:.6}, kernels: {}",
        first.iterations,
        final_rmse(&first),
        isa::name()
    );

    // Each --delta COO file is one batch: its entries are split into
    // updates (cells already observed) and inserts (new cells); a larger
    // shape header grows the tensor.
    solver.set_budget(budget, tol)?;
    for path in opts.all("delta") {
        let delta = io::read_coo_file(path).map_err(|e| format!("{path}: {e}"))?;
        let batch = DeltaBatch::from_coo(solver.observed(), &delta)
            .map_err(|e| format!("{path}: {e}"))?;
        solver.apply(&batch).map_err(|e| format!("{path}: {e}"))?;
        let r = solver.solve()?;
        eprintln!(
            "{path}: applied {} entries -> generation {}: {} iterations, train RMSE {:.6}",
            delta.nnz(),
            solver.generation(),
            r.iterations,
            final_rmse(&r)
        );
    }
    write_model(solver.model().expect("solved at least once"), out)
}

fn cmd_evaluate(opts: &Opts) -> Res {
    let model = io::read_kruskal_file(opts.req("model")?)?;
    let path = opts.req("test")?;
    let test = io::read_coo_file(path).map_err(|e| format!("{path}: {e}"))?;
    if test.shape() != model.shape().as_slice() {
        return fail(format!(
            "test shape {:?} does not match model shape {:?}",
            test.shape(),
            model.shape()
        ));
    }
    let rmse = metrics::rmse(&model, &test)?;
    let relative_error = metrics::relative_error(&model, &test)?;
    to_stdout(|out| {
        writeln!(out, "entries: {}", test.nnz())?;
        writeln!(out, "rmse: {rmse:.6}")?;
        writeln!(out, "relative_error: {relative_error:.6}")
    })
}

fn cmd_predict(opts: &Opts) -> Res {
    let model = io::read_kruskal_file(opts.req("model")?)?;
    let engine = Engine::new(&model, EngineConfig::default())?;

    if let Some(k) = opts.num("top-k")? {
        // Rank the free mode with everything else pinned; `_` or `*`
        // marks the free-mode placeholder.
        let mode: usize = opts.req_num("mode")?;
        let at = opts
            .req("at")?
            .split(',')
            .map(|p| match p.trim() {
                "_" | "*" => Ok(0),
                p => parse_num(p, "index"),
            })
            .collect::<Res<Vec<usize>>>()?;
        let res = engine.topk(&TopKQuery { mode, at, k }, opts.millis("budget-ms")?)?;
        if res.degraded {
            eprintln!(
                "warning: budget expired after {} of {} candidates; showing best-so-far",
                res.scanned,
                model.shape()[mode]
            );
        }
        to_stdout(|out| {
            res.items.iter().try_for_each(|item| writeln!(out, "{} {}", item.index, item.score))
        })
    } else if let Some(path) = opts.get("at-file") {
        // Score every index of a COO-style list in one batch pass
        // (values in the file, if any, are ignored).
        let queries = io::read_coo_file(path).map_err(|e| format!("reading {path}: {e}"))?;
        if queries.shape() != model.shape().as_slice() {
            return fail(format!(
                "query shape {:?} does not match model shape {:?}",
                queries.shape(),
                model.shape()
            ));
        }
        let indices: Vec<Vec<usize>> = queries.iter().map(|(idx, _)| idx.to_vec()).collect();
        let scores = engine.batch(&indices)?;
        to_stdout(|out| {
            indices.iter().zip(scores).try_for_each(|(idx, score)| {
                let coords: Vec<String> = idx.iter().map(|i| i.to_string()).collect();
                writeln!(out, "{} {score}", coords.join(" "))
            })
        })
    } else {
        let idx = parse_list(opts.req("at")?, "index")?;
        let score = engine.point(&idx)?;
        to_stdout(|out| writeln!(out, "{score}"))
    }
}

fn cmd_serve_bench(opts: &Opts) -> Res {
    let seed: u64 = opts.num_or("seed", 42)?;
    let model = match opts.get("model") {
        Some(path) => io::read_kruskal_file(path)?,
        None => {
            let dims = parse_list(opts.get("dims").unwrap_or("2000,500,20"), "dimension")?;
            KruskalTensor::random(&dims, opts.num_or("rank", 8)?, seed)
        }
    };
    let engine_cfg = EngineConfig { topk_cache: opts.num_or("cache", 1024)? };
    let trace_cfg = TraceConfig {
        queries: opts.num_or("queries", 100_000)?,
        point_frac: opts.num_or("point-frac", 0.6)?,
        batch_frac: opts.num_or("batch-frac", 0.2)?,
        batch_size: opts.num_or("batch-size", 32)?,
        k: opts.num_or("k", 10)?,
        topk_budget: opts.millis("budget-ms")?,
        zipf_exponent: opts.num_or("zipf", 1.1)?,
        seed,
    };
    if !(0.0..=1.0).contains(&trace_cfg.point_frac)
        || !(0.0..=1.0).contains(&trace_cfg.batch_frac)
        || trace_cfg.point_frac + trace_cfg.batch_frac > 1.0
    {
        return fail(format!(
            "--point-frac ({}) and --batch-frac ({}) must be non-negative and sum to at most 1",
            trace_cfg.point_frac, trace_cfg.batch_frac
        ));
    }
    let shape = model.shape();

    if let Some(qps) = opts.num::<f64>("qps")? {
        // Open loop: offered load at a fixed QPS with admission control
        // and, past one tenant, fair queuing over a model registry.
        let workers: usize = opts.num_or("workers", 2)?;
        if workers == 0 {
            return fail("open-loop mode needs --workers >= 1");
        }
        let deadline = opts.millis("deadline-ms")?;
        let admission = AdmissionControl {
            shed_watermark: opts.num("shed-watermark")?,
            deadline_aware: deadline.is_some(),
            tenant_share: opts.num("tenant-share")?,
        };
        let load = OpenLoopConfig {
            qps,
            tenants: opts.num_or("tenants", 1)?,
            tenant_zipf: opts.num_or("tenant-zipf", 1.0)?,
            trace: trace_cfg,
        };
        eprintln!(
            "offering {} requests at {qps:.0} qps across {} tenant(s), shape {shape:?} rank {}",
            load.trace.queries,
            load.tenants,
            model.rank(),
        );
        let queue_cfg = queue_config(opts, workers, admission)?;
        let report = serve_open_loop(&model, engine_cfg, queue_cfg, &load, deadline)?;
        return to_stdout(|out| {
            if opts.has("json") {
                writeln!(out, "{}", report.to_json())
            } else {
                writeln!(out, "{report}")
            }
        });
    }

    let engine = Arc::new(Engine::new(&model, engine_cfg)?);
    let trace = synth_trace(&shape, &trace_cfg);
    let store = engine.store();
    eprintln!(
        "replaying {} requests against shape {:?} rank {} ({:.1} MiB store)",
        trace.len(),
        shape,
        model.rank(),
        store.mem_bytes() as f64 / (1024.0 * 1024.0),
    );

    // Closed loop: straight on the engine, or with --workers through the
    // bounded batching queue.
    let workers: usize = opts.num_or("workers", 0)?;
    let total = trace.len();
    let start = Instant::now();
    if workers == 0 {
        replay_direct(&engine, &trace)?;
    } else {
        let queue_cfg = queue_config(opts, workers, AdmissionControl::default())?;
        replay_queued(&ServeQueue::new(Arc::clone(&engine), queue_cfg)?, trace)?;
    }
    let elapsed = start.elapsed().as_secs_f64();
    to_stdout(|out| {
        let rate = total as f64 / elapsed.max(1e-9);
        writeln!(out, "replayed {total} requests in {elapsed:.3} s ({rate:.0} req/s)")?;
        writeln!(out, "{}", engine.snapshot())
    })
}
