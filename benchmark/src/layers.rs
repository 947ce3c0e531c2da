//! The traced pass's per-layer numbers. A layer is a crate; each number is
//! taken from outside, by timing calls into the crate's public functions
//! on the workload's own tensor and model, or read from the spans and
//! counters the pipeline stages left behind.

use crate::gen;
use crate::host;
use crate::pipeline::{admm_config, Outcome};
use crate::serve_loop::ServeStats;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{
    Better, Workload, CHECKPOINT_EVERY, OVERLOAD_MIX, OVERLOAD_SHAPE, SERVE_BATCH,
};
use distenc_core::{AdmmSolver, Checkpoint, CheckpointPolicy};
use distenc_dataflow::{ExecMode, Executor};
use distenc_graph::builders::tridiagonal_chain;
use distenc_graph::{Laplacian, ShiftedInverseScratch};
use distenc_linalg::{Cholesky, Mat};
use distenc_partition::{greedy_boundaries, PartitionStrategy, TensorBlocks};
use distenc_serve::{Engine, EngineConfig, Request};
use distenc_tensor::residual::ResidualWorkspace;
use distenc_tensor::{LayoutKind, TensorLayout};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, by layer. Exact counts and host facts carry a
/// direction only because the table needs one.
pub const PER_LAYER: &[PerLayer] = &[
    lo("tensor.io.read_coo_s", "s"),
    hi("tensor.io.read_mb_per_s", "MB/s"),
    lo("tensor.io.write_kruskal_s", "s"),
    lo("tensor.layout.build_coo_ns_per_nnz", "ns"),
    lo("tensor.layout.build_tiled_ns_per_nnz", "ns"),
    lo("tensor.layout.build_csf_ns_per_nnz", "ns"),
    lo("tensor.mttkrp_coo_t1_ns_per_nnz", "ns"),
    lo("tensor.mttkrp_coo_t2_ns_per_nnz", "ns"),
    lo("tensor.mttkrp_tiled_t1_ns_per_nnz", "ns"),
    lo("tensor.mttkrp_tiled_t2_ns_per_nnz", "ns"),
    lo("tensor.mttkrp_csf_t1_ns_per_nnz", "ns"),
    lo("tensor.mttkrp_csf_t2_ns_per_nnz", "ns"),
    lo("tensor.fused_coo_t1_ns_per_nnz", "ns"),
    lo("tensor.fused_coo_t2_ns_per_nnz", "ns"),
    lo("tensor.fused_tiled_t1_ns_per_nnz", "ns"),
    lo("tensor.fused_tiled_t2_ns_per_nnz", "ns"),
    lo("tensor.fused_csf_t1_ns_per_nnz", "ns"),
    lo("tensor.fused_csf_t2_ns_per_nnz", "ns"),
    lo("tensor.refresh_coo_t1_ns_per_nnz", "ns"),
    lo("tensor.refresh_coo_t2_ns_per_nnz", "ns"),
    lo("tensor.refresh_tiled_t1_ns_per_nnz", "ns"),
    lo("tensor.refresh_tiled_t2_ns_per_nnz", "ns"),
    lo("tensor.refresh_csf_t1_ns_per_nnz", "ns"),
    lo("tensor.refresh_csf_t2_ns_per_nnz", "ns"),
    lo("tensor.bytes_per_nnz_computed", "B"),
    hi("tensor.roofline_share", "share"),
    lo("linalg.gram_ns_per_row", "ns"),
    lo("linalg.chol_refactor_us", "us"),
    lo("linalg.solve_right_ns_per_row", "ns"),
    lo("linalg.matmul_ns_per_row", "ns"),
    lo("graph.truncate_s", "s"),
    lo("graph.shifted_inverse_ns_per_row", "ns"),
    lo("core.solve.wall_s", "s"),
    lo("core.solve.prologue_s", "s"),
    lo("core.solve.first_iter_s", "s"),
    lo("core.solve.steady_iter_ms", "ms"),
    lo("core.solve.ns_per_nnz_iter", "ns"),
    hi("core.solve.attributed_share", "share"),
    lo("core.solve.tensor_share", "share"),
    lo("core.checkpoint.write_s", "s"),
    lo("core.checkpoint.read_s", "s"),
    lo("core.checkpoint.bytes", "B"),
    hi("core.resume_matches", "count"),
    lo("partition.build_s", "s"),
    lo("partition.imbalance_greedy", "ratio"),
    lo("partition.imbalance_equal_width", "ratio"),
    lo("dataflow.stages", "count"),
    lo("dataflow.shuffled_bytes", "B"),
    lo("dataflow.broadcast_bytes", "B"),
    lo("dataflow.peak_resident_bytes", "B"),
    lo("dataflow.cluster_wall_s", "s"),
    lo("dataflow.wall_over_virtual", "ratio"),
    lo("dataflow.exec.dispatch_ns", "ns"),
    lo("stream.try_new_s", "s"),
    lo("stream.apply_s", "s"),
    lo("stream.warm_solve_s", "s"),
    lo("stream.publish_us", "us"),
    lo("stream.rmse_after_batch", "rmse"),
    lo("serve.engine.build_s", "s"),
    lo("serve.engine.point_ns", "ns"),
    lo("serve.engine.batch16_ns", "ns"),
    lo("serve.engine.topk_ns", "ns"),
    hi("serve.engine.cache_hit_rate", "share"),
    hi("serve.engine.prune_rate", "share"),
    lo("serve.queue.submit_ns_p50", "ns"),
    lo("serve.queue.submit_ns_p99", "ns"),
    lo("serve.queue.depth_peak", "count"),
    hi("serve.queue.mean_batch", "count"),
    lo("serve.queue.wait_mean_us", "us"),
    lo("serve.queue.rejected_share", "share"),
    lo("serve.queue.e2e_p90_us", "us"),
    lo("serve.queue.e2e_p99_us", "us"),
    lo("serve.queue.e2e_p999_us", "us"),
    hi("serve.queue.e2e_samples", "count"),
    lo("serve.queue.hist_p50_over_true", "ratio"),
    hi("serve.overload.goodput_qps", "1/s"),
    lo("serve.overload.shed_share", "share"),
    lo("serve.overload.p50_us", "us"),
    hi("serve.overload.in_slo_share", "share"),
    lo("serve.overload.goodput_cv", "ratio"),
    lo("gen.lag_p50_us", "us"),
    lo("gen.lag_p99_us", "us"),
    lo("gen.lag_max_us", "us"),
    hi("host.nproc", "count"),
    hi("host.l2_bytes", "B"),
    hi("host.l3_bytes", "B"),
    hi("host.stream_gb_per_s", "GB/s"),
    lo("host.timer_ns", "ns"),
    lo("host.spin_gap_p99_us", "us"),
    lo("trace.overhead_share", "share"),
];

/// Cycles of the sweep sequence each layout × thread count is timed over.
const KERNEL_CYCLES: usize = 5;
/// Empty spans recorded to calibrate the cost of one.
const CALIBRATION_SPANS: usize = 100_000;

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Seconds per call of `f`, timing `calls` of them in one span (for calls
/// too short to time singly).
fn time_each(calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

type Values = BTreeMap<&'static str, f64>;

fn layout_tag(kind: LayoutKind) -> &'static str {
    match kind {
        LayoutKind::Coo => "coo",
        LayoutKind::Tiled => "tiled",
        LayoutKind::Csf => "csf",
    }
}

/// `PER_LAYER`'s static name for a composed one (the table owns the
/// strings; a composed name outside it is a harness bug).
fn key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the per-layer table"))
        .name
}

/// Every per-layer value of one traced run. `overload` is the second
/// open-loop phase — a stand-in model that is costly to serve, offered
/// more than the queue serves of it — and `overload_engine` what answered
/// it.
pub fn measure(
    w: &Workload,
    seed: u64,
    out: &Outcome,
    overload: &ServeStats,
    overload_engine: &Engine,
    hostinfo: &host::Host,
) -> Result<Values, String> {
    let mut v = Values::new();
    let observed = &out.inputs.observed.tensor;
    let nnz = observed.nnz() as f64;
    let rec = &out.rec;
    let med = |name: &str| stats::median(&rec.durations(name));

    // ---- host -----------------------------------------------------------
    // Copy arrays of four times the reported last-level cache, capped so
    // the probe stays under a second and a GiB.
    let llc = if hostinfo.l3_bytes > 0.0 {
        hostinfo.l3_bytes
    } else {
        hostinfo.l2_bytes.max(8e6)
    };
    let stream_bytes = ((4.0 * llc) as usize).min(256 << 20);
    let stream_gb = host::stream_gb_per_s(stream_bytes);
    v.insert("host.nproc", hostinfo.nproc as f64);
    v.insert("host.l2_bytes", hostinfo.l2_bytes);
    v.insert("host.l3_bytes", hostinfo.l3_bytes);
    v.insert("host.stream_gb_per_s", stream_gb);
    v.insert("host.timer_ns", hostinfo.timer_ns);
    v.insert("host.spin_gap_p99_us", hostinfo.spin_gap_p99_us);

    // ---- tensor: io -----------------------------------------------------
    let read_s = med("tensor.io.read_coo");
    v.insert("tensor.io.read_coo_s", read_s);
    v.insert(
        "tensor.io.read_mb_per_s",
        out.inputs.tensor_file_bytes as f64 / 1e6 / read_s,
    );
    v.insert("tensor.io.write_kruskal_s", med("tensor.io.write_kruskal"));

    // ---- tensor: layouts and sweeps -------------------------------------
    let model = &out.model;
    let rank = w.rank;
    let order = observed.order();
    for kind in [LayoutKind::Coo, LayoutKind::Tiled, LayoutKind::Csf] {
        let tag = layout_tag(kind);
        // CSF builds cost ~100x a COO wrap; one build is enough there.
        let builds = if kind == LayoutKind::Csf { 1 } else { 3 };
        let mut layout = None;
        let mut build_s = Vec::new();
        for _ in 0..builds {
            let e = observed.clone();
            let t0 = Instant::now();
            let l = TensorLayout::build(e, kind).map_err(|e| e.to_string())?;
            build_s.push(t0.elapsed().as_secs_f64());
            layout = Some(l);
        }
        let mut layout = layout.expect("built at least once");
        v.insert(
            key(&format!("tensor.layout.build_{tag}_ns_per_nnz")),
            stats::median(&build_s) * 1e9 / nnz,
        );
        for threads in [1usize, 2] {
            let exec = Executor::new(if threads >= 2 {
                ExecMode::Threads(host::probe_threads())
            } else {
                ExecMode::Sequential
            });
            let boundaries: Vec<Vec<usize>> = (0..order)
                .map(|n| greedy_boundaries(&observed.slice_nnz(n), exec.parallelism()))
                .collect();
            let mut lw = layout
                .workspace(rank, &boundaries, &exec)
                .map_err(|e| e.to_string())?;
            let mut res = ResidualWorkspace::new(observed.nnz(), &exec);
            // Cycle through the sweeps in the solver's order, so each call
            // starts with another sweep's data in cache, as in a solve;
            // then take each sweep's median over the cycles.
            let mut hs: Vec<Mat> = observed
                .shape()
                .iter()
                .map(|&d| Mat::zeros(d, rank))
                .collect();
            let mut samples = vec![Vec::new(); order + 2];
            for _cycle in 0..KERNEL_CYCLES {
                for mode in 0..order {
                    let t0 = Instant::now();
                    layout
                        .mttkrp_into(model.factors(), mode, &mut lw, &exec, &mut hs[mode])
                        .map_err(|e| e.to_string())?;
                    samples[mode].push(t0.elapsed().as_secs_f64());
                }
                let t0 = Instant::now();
                black_box(
                    layout
                        .fused_refresh_into(observed, model, &mut lw, &exec, &mut hs[0])
                        .map_err(|e| e.to_string())?,
                );
                samples[order].push(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                layout
                    .refresh_values(observed, model, &mut res, &exec)
                    .map_err(|e| e.to_string())?;
                samples[order + 1].push(t0.elapsed().as_secs_f64());
            }
            black_box(&hs);
            let mttkrp_s = samples[..order]
                .iter()
                .map(|s| stats::median(s))
                .sum::<f64>()
                / order as f64;
            let fused_s = stats::median(&samples[order]);
            let refresh_s = stats::median(&samples[order + 1]);
            v.insert(
                key(&format!("tensor.mttkrp_{tag}_t{threads}_ns_per_nnz")),
                mttkrp_s * 1e9 / nnz,
            );
            v.insert(
                key(&format!("tensor.fused_{tag}_t{threads}_ns_per_nnz")),
                fused_s * 1e9 / nnz,
            );
            v.insert(
                key(&format!("tensor.refresh_{tag}_t{threads}_ns_per_nnz")),
                refresh_s * 1e9 / nnz,
            );
        }
    }
    // Bytes one COO MTTKRP sweep touches per entry, computed from array
    // sizes (cache misses not counted): N indices + the value, N-1 factor
    // rows read, one output row read and written.
    let bytes_per_nnz = (8 * order + 8 + 8 * rank * (order - 1) + 16 * rank) as f64;
    v.insert("tensor.bytes_per_nnz_computed", bytes_per_nnz);
    v.insert(
        "tensor.roofline_share",
        bytes_per_nnz / v["tensor.mttkrp_coo_t1_ns_per_nnz"] / stream_gb,
    );

    // ---- linalg: the per-mode dense steps at the workload's I and R -----
    let rows = observed.shape()[0];
    let a = Mat::random(rows, rank, seed ^ 0x006c_696e);
    let mut g = Mat::zeros(rank, rank);
    let calls = (2_000_000 / (rows * rank * rank).max(1)).clamp(3, 200);
    let gram_s = time_each(calls, || {
        a.gram_into(&mut g).expect("gram shapes");
    });
    g.add_diag(1.0);
    let mut chol = Cholesky::factor(&g).map_err(|e| e.to_string())?;
    let chol_s = time_each(200, || {
        chol.refactor(black_box(&g))
            .expect("gram + I is positive definite");
    });
    let mut x = Mat::zeros(rows, rank);
    let solve_s = time_each(calls, || {
        chol.solve_right_into(&a, &mut x).expect("solve shapes");
    });
    let matmul_s = time_each(calls, || {
        a.matmul_into(&g, &mut x).expect("matmul shapes");
    });
    black_box(&x);
    v.insert("linalg.gram_ns_per_row", gram_s * 1e9 / rows as f64);
    v.insert("linalg.chol_refactor_us", chol_s * 1e6);
    v.insert("linalg.solve_right_ns_per_row", solve_s * 1e9 / rows as f64);
    v.insert("linalg.matmul_ns_per_row", matmul_s * 1e9 / rows as f64);

    // ---- graph: truncation of every mode's chain Laplacian --------------
    // Measured on every workload (also those that solve without
    // similarities), at the workload's mode lengths and eigen width.
    let mut truncate_s = 0.0;
    let mut first = None;
    for (n, &d) in observed.shape().iter().enumerate() {
        let lap = Laplacian::from_similarity(tridiagonal_chain(d));
        let t0 = Instant::now();
        let t = lap.truncate(w.eigen_k, seed).map_err(|e| e.to_string())?;
        truncate_s += t0.elapsed().as_secs_f64();
        if n == 0 {
            first = Some(t);
        }
    }
    let trunc = first.expect("tensors have at least one mode");
    let mut scratch = ShiftedInverseScratch::new(&trunc, rank);
    let shifted_s = time_each(calls, || {
        trunc
            .apply_shifted_inverse_into(1.0, 1.0, &a, &mut x, &mut scratch)
            .expect("shapes");
    });
    v.insert("graph.truncate_s", truncate_s);
    v.insert(
        "graph.shifted_inverse_ns_per_row",
        shifted_s * 1e9 / rows as f64,
    );

    // ---- core: the cold solve, from its trace ---------------------------
    let traced = &out.solve;
    let wall = stats::median(&traced.iter().map(|r| r.solve_wall_s).collect::<Vec<_>>());
    let prologue = stats::median(
        &traced
            .iter()
            .map(|r| r.solve_wall_s - r.trace.total_seconds())
            .collect::<Vec<_>>(),
    );
    let first_iter = stats::median(
        &traced
            .iter()
            .map(|r| r.trace.points[0].seconds)
            .collect::<Vec<_>>(),
    );
    let steps: Vec<f64> = traced
        .iter()
        .flat_map(|r| {
            r.trace
                .points
                .windows(2)
                .map(|p| p[1].seconds - p[0].seconds)
        })
        .collect();
    let steady = stats::median(&steps);
    v.insert("core.solve.wall_s", wall);
    v.insert("core.solve.prologue_s", prologue);
    v.insert("core.solve.first_iter_s", first_iter);
    v.insert("core.solve.steady_iter_ms", steady * 1e3);
    v.insert("core.solve.ns_per_nnz_iter", steady * 1e9 / nnz);
    // Phase replay: one steady iteration of the default schedule is a
    // fused sweep, N-1 MTTKRPs and, per mode, a Gram, a refactor, a right
    // solve and (with similarities) a shifted inverse. What the replay
    // does not cover, only spans inside the program could explain.
    let tensor_s = (v["tensor.fused_coo_t1_ns_per_nnz"]
        + (order - 1) as f64 * v["tensor.mttkrp_coo_t1_ns_per_nnz"])
        * nnz
        / 1e9;
    let total_rows: f64 = observed.shape().iter().map(|&d| d as f64).sum();
    let per_row_ns = v["linalg.gram_ns_per_row"]
        + v["linalg.solve_right_ns_per_row"]
        + if w.similarities {
            v["graph.shifted_inverse_ns_per_row"]
        } else {
            0.0
        };
    let dense_s = total_rows * per_row_ns / 1e9 + order as f64 * chol_s;
    v.insert("core.solve.attributed_share", (tensor_s + dense_s) / steady);
    v.insert("core.solve.tensor_share", tensor_s / steady);

    // ---- core: checkpoint round trip and resume -------------------------
    let ckpt_path = out.dir.join("solve.ckpt");
    let mut ckpt = None;
    let read_s = time_median(3, || ckpt = Checkpoint::read_file(&ckpt_path).ok());
    let ckpt = ckpt.ok_or_else(|| format!("{}: unreadable checkpoint", ckpt_path.display()))?;
    let copy_path = out.dir.join("copy.ckpt");
    let mut wrote = Ok(());
    let write_s = time_median(3, || wrote = ckpt.write_file(&copy_path));
    wrote.map_err(|e| e.to_string())?;
    v.insert("core.checkpoint.read_s", read_s);
    v.insert("core.checkpoint.write_s", write_s);
    v.insert("core.checkpoint.bytes", ckpt.to_bytes().len() as f64);
    // The last snapshot sits before the iteration cap, so resuming runs
    // the remaining iterations and must land on the same bits.
    let resume_cfg = admm_config(w, w.max_iters).with_checkpoint(
        CheckpointPolicy::every(CHECKPOINT_EVERY).with_path(out.dir.join("resume.ckpt")),
    );
    let resumed = AdmmSolver::new(resume_cfg)
        .and_then(|s| s.resume(observed, &out.inputs.lap_refs(), &ckpt))
        .map_err(|e| format!("resume: {e}"))?;
    let matches = ckpt.iters_done < w.max_iters
        && gen::model_checksum(&resumed.model) == out.solve[0].checksum;
    v.insert("core.resume_matches", f64::from(u8::from(matches)));

    // ---- partition ------------------------------------------------------
    let parts: Vec<usize> = observed
        .shape()
        .iter()
        .map(|&d| d.min(w.machines))
        .collect();
    let mut greedy = None;
    let build_s = time_median(3, || {
        greedy = Some(TensorBlocks::build_with(
            observed,
            &parts,
            PartitionStrategy::Greedy,
        ))
    });
    let imbalance = |b: &TensorBlocks| {
        (0..order)
            .map(|n| b.balance(n).imbalance)
            .fold(0.0, f64::max)
    };
    v.insert("partition.build_s", build_s);
    v.insert(
        "partition.imbalance_greedy",
        imbalance(&greedy.expect("built")),
    );
    v.insert(
        "partition.imbalance_equal_width",
        imbalance(&TensorBlocks::build_with(
            observed,
            &parts,
            PartitionStrategy::EqualWidth,
        )),
    );

    // ---- dataflow: the cluster's own accounting -------------------------
    let m = out.cluster[0].metrics;
    let cluster_wall = stats::median(&out.cluster.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    v.insert("dataflow.stages", m.stages as f64);
    v.insert("dataflow.shuffled_bytes", m.shuffled_bytes as f64);
    v.insert("dataflow.broadcast_bytes", m.broadcast_bytes as f64);
    v.insert("dataflow.peak_resident_bytes", m.peak_resident as f64);
    v.insert("dataflow.cluster_wall_s", cluster_wall);
    v.insert(
        "dataflow.wall_over_virtual",
        cluster_wall / m.virtual_seconds,
    );
    let exec = Executor::new(ExecMode::Threads(host::probe_threads()));
    let items = vec![0u8; host::probe_threads()];
    let dispatch_s = time_each(2000, || {
        black_box(exec.run(&items, |i, _| i));
    });
    v.insert("dataflow.exec.dispatch_ns", dispatch_s * 1e9);

    // ---- stream: the parts of a refresh ---------------------------------
    v.insert("stream.try_new_s", med("stream.try_new"));
    v.insert("stream.apply_s", med("stream.apply"));
    v.insert("stream.warm_solve_s", med("stream.warm_solve"));
    v.insert("stream.publish_us", med("stream.publish") * 1e6);
    v.insert(
        "stream.rmse_after_batch",
        out.rmse_after_batch.last().copied().unwrap_or(f64::NAN),
    );

    // ---- serve: the engine alone, closed loop, one thread ---------------
    // On the overload phase's stand-in model and mix: that is where the
    // engine's time decides a figure (`serve.overload.goodput_qps`); on the
    // workloads' own small models a request costs under a microsecond.
    let stand_in = gen::overload_model(seed);
    let mut engine = None;
    let build_s = time_median(3, || {
        engine = Engine::new(&stand_in, EngineConfig::default()).ok()
    });
    let engine = engine.ok_or("engine build failed on the overload model")?;
    v.insert("serve.engine.build_s", build_s);
    let sample = gen::traffic(
        &OVERLOAD_SHAPE,
        OVERLOAD_MIX,
        1000.0,
        3.0,
        seed ^ 0x0065_6e67,
    );
    let (mut point, mut batch, mut topk) = (Vec::new(), Vec::new(), Vec::new());
    for r in &sample {
        let t0 = Instant::now();
        match &r.request {
            Request::Point { index } => {
                black_box(engine.point(index).map_err(|e| e.to_string())?);
                point.push(t0.elapsed().as_nanos() as f64);
            }
            Request::Batch { indices } => {
                black_box(engine.batch(indices).map_err(|e| e.to_string())?);
                batch.push(
                    t0.elapsed().as_nanos() as f64 * SERVE_BATCH as f64 / indices.len() as f64,
                );
            }
            Request::TopK { query, budget } => {
                black_box(engine.topk(query, *budget).map_err(|e| e.to_string())?);
                topk.push(t0.elapsed().as_nanos() as f64);
            }
        }
    }
    v.insert("serve.engine.point_ns", stats::median(&point));
    v.insert("serve.engine.batch16_ns", stats::median(&batch));
    v.insert("serve.engine.topk_ns", stats::median(&topk));
    let overload_snap = overload_engine.snapshot();
    v.insert(
        "serve.engine.cache_hit_rate",
        overload_snap.cache_hit_rate(),
    );
    v.insert("serve.engine.prune_rate", overload_snap.prune_rate());

    // ---- serve: the queue, seen from the generator ----------------------
    let s = &out.serve;
    let snap = &out.serve_snapshot;
    let submit = stats::sorted(&s.submit_ns);
    let lat = s.all_latencies_sorted();
    let true_p50 = stats::percentile_sorted(&lat, 50.0);
    v.insert(
        "serve.queue.submit_ns_p50",
        stats::percentile_sorted(&submit, 50.0),
    );
    v.insert(
        "serve.queue.submit_ns_p99",
        stats::percentile_sorted(&submit, 99.0),
    );
    v.insert("serve.queue.depth_peak", snap.queue_depth_peak as f64);
    v.insert(
        "serve.queue.mean_batch",
        snap.e2e_recorded as f64 / (snap.batches_executed as f64).max(1.0),
    );
    v.insert(
        "serve.queue.wait_mean_us",
        (snap.e2e_mean.as_secs_f64() - snap.mean.as_secs_f64()) * 1e6,
    );
    v.insert(
        "serve.queue.rejected_share",
        s.rejected as f64 / s.sent as f64,
    );
    v.insert(
        "serve.queue.e2e_p90_us",
        stats::median(&stats::window_percentiles(&s.windows, 90.0)),
    );
    v.insert(
        "serve.queue.e2e_p99_us",
        stats::percentile_sorted(&lat, 99.0),
    );
    v.insert(
        "serve.queue.e2e_p999_us",
        stats::percentile_sorted(&lat, 99.9),
    );
    v.insert("serve.queue.e2e_samples", lat.len() as f64);
    v.insert(
        "serve.queue.hist_p50_over_true",
        snap.e2e_p50.as_secs_f64() * 1e6 / true_p50,
    );
    // ---- serve: the overload phase --------------------------------------
    // Goodput here sits at one of two levels for seconds at a time on this
    // host (`goodput_cv` is the windows' standard deviation over their
    // mean), which is why these are not end-to-end metrics.
    let goodput = overload.goodput_per_window();
    let mean = goodput.iter().sum::<f64>() / goodput.len().max(1) as f64;
    let var = goodput.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / goodput.len().max(1) as f64;
    v.insert("serve.overload.goodput_qps", stats::median(&goodput));
    v.insert("serve.overload.goodput_cv", var.sqrt() / mean);
    v.insert(
        "serve.overload.shed_share",
        overload.shed as f64 / overload.sent as f64,
    );
    v.insert(
        "serve.overload.p50_us",
        stats::median(&stats::window_percentiles(&overload.windows, 50.0)),
    );
    v.insert(
        "serve.overload.in_slo_share",
        stats::median(&overload.in_slo_per_window()),
    );
    v.insert("gen.lag_p50_us", s.lag_percentile(50.0));
    v.insert("gen.lag_p99_us", s.lag_percentile(99.0));
    v.insert("gen.lag_max_us", s.lag_percentile(100.0));

    // ---- the tracing itself ---------------------------------------------
    // The spans are the only difference between a traced and an untraced
    // completion, so their cost is calibrated directly: record many empty
    // spans, take the cost of one, and charge a completion its spans. (A
    // paired difference of completion times cannot resolve this here: with
    // two or three completions a side it read -16% to +5% across
    // workloads.)
    let mut probe = Recorder::new(true);
    let t0 = Instant::now();
    for _ in 0..CALIBRATION_SPANS {
        black_box(probe.span("calibration", 0, |_| ()));
    }
    let span_cost_s = t0.elapsed().as_secs_f64() / CALIBRATION_SPANS as f64;
    let spans_per_completion = rec.spans_under("pipeline") as f64 / traced.len() as f64;
    let completion_s = stats::median(&traced.iter().map(|r| r.pipeline_s).collect::<Vec<_>>());
    v.insert(
        "trace.overhead_share",
        spans_per_completion * span_cost_s / completion_s,
    );

    for m in PER_LAYER {
        if !v.contains_key(m.name) {
            return Err(format!("per-layer metric `{}` was not measured", m.name));
        }
    }
    Ok(v)
}
