//! The three workloads and the metric tables. Every workload runs the
//! whole pipeline (read → solve → cluster → stream → serve), so every
//! metric exists on every workload; the workloads differ in the inputs
//! that decide which layer the time goes to. (Three, not more: the driver
//! gives all runs of all workloads one fixed hour, and on this host a run
//! needs over half a minute before its figures hold still.) `BENCHMARK.json` at the
//! repository root repeats these tables (a self-test keeps them equal).

/// How a workload's observed tensor is drawn from the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TensorKind {
    /// Planted random CP model, uniform cell draws.
    Planted,
    /// Planted random CP model, head-heavy draws `⌊d·u²⌋` per mode.
    PlantedSquareSkew,
    /// The paper's §IV-A tensor (`datagen::synthetic::error_tensor`):
    /// linear factors, Eq. 17 tri-diagonal similarity on every mode.
    PaperAux,
}

/// One workload: the inputs of every stage, as literals.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    // ---- tensor and host solve -------------------------------------
    pub kind: TensorKind,
    pub shape: Vec<usize>,
    /// Cell draws (duplicates merge, so nnz is a little lower).
    pub draws: usize,
    /// Solve with the Eq. 17 tri-diagonal similarity on every mode.
    pub similarities: bool,
    pub rank: usize,
    pub eigen_k: usize,
    /// The accuracy target is `target_rel · rms(T)`: a pure function of
    /// the generated tensor, calibrated once per workload (see README).
    pub target_rel: f64,
    /// Iteration cap of the cold solve.
    pub max_iters: usize,
    /// Ceiling for `heldout_rmse` (relative to the truth's rms on the
    /// held-out cells); exceeding it fails the run.
    pub heldout_ceiling: f64,
    // ---- simulated cluster -----------------------------------------
    pub machines: usize,
    pub cluster_iters: usize,
    // ---- streaming --------------------------------------------------
    /// Cold iterations of the base solve done in set-up.
    pub base_iters: usize,
    pub batch_inserts: usize,
    pub batch_updates: usize,
    pub warm_iters: usize,
    /// Batches generated per set-up, that is per round (a round's block
    /// of refreshes stops earlier when its time share is spent).
    pub max_batches: usize,
    // ---- serving: the base model of the workload's own pipeline ------
    /// Offered load, open loop, Poisson arrivals, no admission control;
    /// the same on all three (the smoke size lowers it).
    pub qps: f64,
}

/// A request mix: shares of point and batch reads (top-K is the rest) and
/// the Zipf exponent of the index draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub point_frac: f64,
    pub batch_frac: f64,
    pub zipf: f64,
}

/// The serving stage's mix, the same on all three workloads.
pub const SERVE_MIX: Mix = Mix {
    point_frac: 0.7,
    batch_frac: 0.15,
    zipf: 1.1,
};
pub const SERVE_BATCH: usize = 16;
pub const SERVE_TOPK: usize = 8;
/// Latency limit: a request counts for `in_slo_share` when its response
/// is observed within this long of its due time.
pub const SLO_MS: f64 = 25.0;
pub const CHECKPOINT_EVERY: usize = 10;
pub const HELDOUT_CELLS: usize = 20_000;
pub const VERIFY_READS: usize = 1000;
pub const MIN_BATCHES: usize = 5;
/// The traced pass's overload phase, the same on every workload: a random
/// model with modes long enough that a top-K scan costs tens of
/// microseconds (no tensor dense enough to converge here has such modes),
/// a mix heavy in top-K with few cache hits, offered open loop at about
/// twice what the queue serves of it, with a shed watermark.
pub const OVERLOAD_SHAPE: [usize; 3] = [8000, 2000, 100];
pub const OVERLOAD_RANK: usize = 16;
pub const OVERLOAD_MIX: Mix = Mix {
    point_frac: 0.4,
    batch_frac: 0.3,
    zipf: 0.8,
};
pub const OVERLOAD_QPS: f64 = 80_000.0;
pub const OVERLOAD_SHED_WATERMARK: usize = 256;

impl Workload {
    /// The same workload at roughly 1/20 of the entries with every mode
    /// shrunk, for the self-test and `--smoke`.
    pub fn smoke(&self) -> Workload {
        let mut w = self.clone();
        w.shape = w.shape.iter().map(|&d| (d * 2 / 5).max(8)).collect();
        w.draws = (w.draws / 20).max(2000);
        w.batch_inserts = (w.batch_inserts / 20).max(50);
        w.batch_updates = (w.batch_updates / 20).max(10);
        w.max_batches = MIN_BATCHES;
        w.qps = (w.qps / 8.0).max(1000.0);
        // Tiny tensors are too sparse to fit unseen cells; the smoke run
        // checks plumbing, not accuracy.
        w.heldout_ceiling = f64::INFINITY;
        w.target_rel = 0.98;
        w
    }
}

pub fn all() -> Vec<Workload> {
    let base = Workload {
        name: "",
        why: "",
        kind: TensorKind::Planted,
        shape: vec![],
        draws: 0,
        similarities: false,
        rank: 16,
        eigen_k: 20,
        target_rel: 0.9,
        max_iters: 19,
        heldout_ceiling: 1.5,
        machines: 4,
        cluster_iters: 6,
        base_iters: 10,
        batch_inserts: 2000,
        batch_updates: 200,
        warm_iters: 5,
        max_batches: 12,
        qps: 10_000.0,
    };
    vec![
        Workload {
            name: "solve_dense",
            why: "8%-dense rank-16 tensor past L2, no similarities: entry sweeps in crates/tensor are nearly all of every stage, so kernel and layout work shows here first",
            shape: vec![180, 160, 130],
            draws: 330_000,
            target_rel: 0.1615,
            heldout_ceiling: 0.25,
            ..base.clone()
        },
        Workload {
            name: "solve_aux",
            why: "paper IV-A tensor, similarity on all 3 modes, rank 20: Laplacian truncation in every solve, B-updates, generic-rank kernels, the cluster backend with similarities",
            kind: TensorKind::PaperAux,
            similarities: true,
            shape: vec![300, 225, 150],
            draws: 300_000,
            rank: 20,
            heldout_ceiling: 0.7,
            target_rel: 0.492,
            cluster_iters: 8,
            ..base.clone()
        },
        Workload {
            name: "solve_skew4",
            why: "order-4 rank-8 head-heavy tensor with a 24-row mode: the other kernel path, skewed partitions, large structural delta batches",
            kind: TensorKind::PlantedSquareSkew,
            shape: vec![32, 24, 80, 120],
            draws: 330_000,
            rank: 8,
            target_rel: 0.392,
            heldout_ceiling: 0.7,
            batch_inserts: 10_000,
            batch_updates: 1000,
            ..base
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Direction of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pipeline_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_target_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "iters_to_target",
        unit: "count",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "heldout_rmse",
        unit: "rel",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "virtual_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "refresh_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.1,
    },
    EndToEnd {
        name: "in_slo_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.1,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
