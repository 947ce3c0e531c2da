//! Analytical cost & memory models (Lemmas 1–3).
//!
//! Fig. 3 evaluates tensors up to `10⁹×10⁹×10⁹` — sizes at which even the
//! *factor matrices* exceed any real machine, let alone this simulation.
//! The original experiments are only possible because per-machine state
//! scales with the **active** rows (`min(Iₙ, nnz)`), and the failures the
//! figure reports (O.O.M., out-of-time) are themselves the data points.
//! This module computes those outcomes analytically, with the same cost
//! constants the engine charges, so the small-scale *measured* runs and
//! the large-scale *modelled* runs form one consistent series (the
//! model-vs-engine fidelity is asserted by tests).

use distenc_dataflow::ClusterConfig;

/// Workload description for the scalability models.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Mode lengths `I₁…I_N` (u64: Fig. 3 goes to 10⁹).
    pub dims: Vec<u64>,
    /// Number of observed non-zeros.
    pub nnz: u64,
    /// CP rank `R`.
    pub rank: u64,
    /// Laplacian truncation width `K`.
    pub eigen_k: u64,
    /// Iterations to model (the paper's scalability plots report fixed-
    /// iteration running time).
    pub iters: u64,
}

impl WorkloadSpec {
    /// A cubic `I×I×I` workload, the shape of every Fig. 3 sweep.
    pub fn cube(dim: u64, nnz: u64, rank: u64) -> Self {
        WorkloadSpec { dims: vec![dim; 3], nnz, rank, eigen_k: 20, iters: 20 }
    }

    /// Tensor order.
    pub(crate) fn order(&self) -> u64 {
        self.dims.len() as u64
    }

    /// Active rows of mode `n`: at most one distinct index per non-zero,
    /// so `min(Iₙ, nnz)`. The quantity that lets DisTenC/SCouT survive
    /// `I = 10⁹` while full-matrix methods die (DESIGN.md §5).
    pub fn active(&self, n: usize) -> u64 {
        self.dims[n].min(self.nnz)
    }

    /// Sum of active rows over all modes.
    pub fn active_total(&self) -> u64 {
        (0..self.dims.len()).map(|n| self.active(n)).sum()
    }

    /// Bytes of one COO entry (`N` indices + value).
    pub fn entry_bytes(&self) -> u64 {
        (self.order() + 1) * 8
    }
}

/// Modelled outcome of running a method on a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunOutcome {
    /// The run fits and finishes; estimated wall-clock (virtual) seconds.
    Completed {
        /// Estimated seconds.
        seconds: f64,
    },
    /// Per-machine memory demand exceeds capacity ("O.O.M." in Fig. 3).
    OutOfMemory {
        /// Bytes needed on the worst machine.
        needed: u64,
        /// Machine capacity.
        capacity: u64,
    },
    /// Estimated time exceeds the experiment budget ("O.O.T.", §IV-B's
    /// 8-hour cutoff).
    OutOfTime {
        /// Estimated seconds.
        estimated: f64,
        /// Budget seconds.
        budget: f64,
    },
}

impl RunOutcome {
    /// True when the run completes.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }

    /// Seconds if completed, `+∞` otherwise (for plotting).
    pub fn seconds(&self) -> f64 {
        match self {
            RunOutcome::Completed { seconds } => *seconds,
            _ => f64::INFINITY,
        }
    }

    /// The label the paper's figures use.
    pub fn label(&self) -> String {
        match self {
            RunOutcome::Completed { seconds } => format!("{seconds:.1}s"),
            RunOutcome::OutOfMemory { .. } => "O.O.M.".to_string(),
            RunOutcome::OutOfTime { .. } => "O.O.T.".to_string(),
        }
    }
}

/// A scalability model of one method: how much memory the worst machine
/// needs, and how long the run takes, on a given cluster.
pub trait MethodModel {
    /// Method name as it appears in the figures.
    fn name(&self) -> &'static str;

    /// Peak bytes on the most loaded machine.
    fn mem_per_machine(&self, w: &WorkloadSpec, c: &ClusterConfig) -> u64;

    /// Estimated seconds for `w.iters` iterations (including setup).
    fn seconds(&self, w: &WorkloadSpec, c: &ClusterConfig) -> f64;

    /// Combine both into the figure's outcome.
    fn estimate(&self, w: &WorkloadSpec, c: &ClusterConfig) -> RunOutcome {
        let needed = self.mem_per_machine(w, c);
        if needed > c.mem_per_machine {
            return RunOutcome::OutOfMemory { needed, capacity: c.mem_per_machine };
        }
        let seconds = self.seconds(w, c);
        if let Some(budget) = c.time_budget {
            if seconds > budget {
                return RunOutcome::OutOfTime { estimated: seconds, budget };
            }
        }
        RunOutcome::Completed { seconds }
    }
}

/// The DisTenC model, mirroring term by term (Lemmas 1–3) Algorithm 3's
/// schedule as published: one block stage and one factor fetch per mode's
/// MTTKRP plus one for the residual refresh. That is the system Figs. 3–4
/// reproduce, and two of the paper's shapes hang on its fixed
/// per-iteration overhead (Fig. 3b's DisTenC/ALS gap shrinking with
/// `nnz`, asserted in `distenc-eval`). The engine [`crate::DisTenC`] runs
/// one schedule, a sweep that banks every mode's MTTKRP: it pays N fewer
/// block stages and factor fetches per iteration than this model
/// (`solver/cluster.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DisTenCModel;

impl MethodModel for DisTenCModel {
    fn name(&self) -> &'static str {
        "DisTenC"
    }

    fn mem_per_machine(&self, w: &WorkloadSpec, c: &ClusterConfig) -> u64 {
        let m = c.machines as u64;
        let r = w.rank;
        let k = w.eigen_k;
        // Tensor + residual blocks, spread over machines (Lemma 2's
        // O(nnz) term).
        let tensor = w.nnz * (w.entry_bytes() + 8) / m;
        // A, B, Y rows (3 matrices) + eigenbasis rows, active rows only,
        // row-partitioned.
        let factors: u64 = (0..w.dims.len())
            .map(|n| w.active(n) * (3 * r + k) * 8 / m)
            .sum();
        // Broadcast R×R self-products for every mode on every machine,
        // plus eigenvalue arrays (Lemma 2's O(M N R²) + O(N K)).
        let broadcasts = w.order() * (r * r + k) * 8;
        // Stage working set: the largest transient is MTTKRP partial
        // output + fetched remote factor rows.
        let working: u64 = (0..w.dims.len()).map(|n| w.active(n) * r * 8 / m).sum::<u64>()
            + w.nnz * (w.entry_bytes() + 2 * 8) / m;
        tensor + factors + broadcasts + working
    }

    fn seconds(&self, w: &WorkloadSpec, c: &ClusterConfig) -> f64 {
        let m = c.machines as f64;
        let cores = c.cores_per_machine as f64;
        let r = w.rank as f64;
        let k = w.eigen_k as f64;
        let n_modes = w.dims.len() as f64;
        let nnz = w.nnz as f64;
        let act: Vec<f64> = (0..w.dims.len()).map(|n| w.active(n) as f64).collect();
        let act_sum: f64 = act.iter().sum();
        let cost = &c.cost;

        // ---- setup: partition shuffle + eigendecompositions ------------
        let entry = w.entry_bytes() as f64;
        let setup_net = nnz * entry * (m - 1.0) / m;
        let setup = nnz / (m * cores) * cost.seconds_per_flop
            + setup_net / m * cost.seconds_per_net_byte
            + act_sum * k * 8.0 * cost.seconds_per_flop; // Lanczos O(K·I)

        // ---- per-iteration compute flops (Lemma 1) ----------------------
        let mut flops = 0.0;
        for a in &act {
            // Gram (I R²) + B-update (2R + 2KR per row) + A-update
            // (2R² + 3R per row) + Y (R per row) + delta (R per row).
            flops += a * (r * r + 2.0 * r + 2.0 * k * r + 2.0 * r * r + 3.0 * r + 2.0 * r);
        }
        // MTTKRP per mode + residual refresh: (N+1) sparse passes.
        flops += (n_modes + 1.0) * nnz * n_modes * r;
        flops += n_modes * r * r * r; // R×R solves (replicated; negligible)

        // ---- per-iteration shuffled bytes (Lemma 3) ----------------------
        let mut shuffle = 0.0;
        for (n, a) in act.iter().enumerate() {
            // Factor fetches for MTTKRP (modes ≠ n) …
            let others: f64 = act
                .iter()
                .enumerate()
                .filter(|&(kk, _)| kk != n)
                .map(|(_, v)| v)
                .sum();
            shuffle += (m - 1.0) / m * others * r * 8.0;
            // … partial-H combine, K×R reduce, R² reduce.
            shuffle += (m - 1.0) / m * a * r * 8.0;
            shuffle += (m - 1.0) * (k * r + r * r) * 8.0;
        }
        // Residual refresh fetches all modes' rows.
        shuffle += (m - 1.0) / m * act_sum * r * 8.0;
        let broadcast_per_iter = n_modes * (k * r + r * r) * 8.0;

        // ---- stages per iteration (latency) ------------------------------
        let stages = 7.0 * n_modes + 2.0;

        let per_iter = flops / (m * cores) * cost.seconds_per_flop
            + shuffle / m * cost.seconds_per_net_byte
            + broadcast_per_iter * cost.seconds_per_net_byte
            + stages * cost.stage_latency
            + if c.mode == distenc_dataflow::Platform::MapReduce {
                // Every stage spills inputs+outputs: dominated by the
                // sparse passes.
                (n_modes + 1.0) * nnz * entry / m * cost.seconds_per_disk_byte
            } else {
                0.0
            };

        setup + w.iters as f64 * per_iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distenc_dataflow::ClusterConfig;

    fn paper() -> ClusterConfig {
        ClusterConfig::paper_spark()
    }

    #[test]
    fn active_rows_cap_at_nnz() {
        let w = WorkloadSpec::cube(1_000_000_000, 10_000_000, 20);
        assert_eq!(w.active(0), 10_000_000);
        let w2 = WorkloadSpec::cube(1_000, 10_000_000, 20);
        assert_eq!(w2.active(0), 1_000);
    }

    #[test]
    fn distenc_fits_billion_dims_at_fixed_nnz() {
        // The headline claim of Fig. 3a: DisTenC completes at I = 10⁹.
        let w = WorkloadSpec::cube(1_000_000_000, 10_000_000, 20);
        let out = DisTenCModel.estimate(&w, &paper());
        assert!(out.is_ok(), "DisTenC must fit at 10⁹: {out:?}");
    }

    #[test]
    fn memory_grows_with_nnz_not_dims_beyond_active() {
        let c = paper();
        // Both dims exceed nnz, so active rows are nnz-capped in both:
        // dimensionality stops mattering past the cap.
        let big_dim = DisTenCModel.mem_per_machine(&WorkloadSpec::cube(1 << 30, 1 << 24, 20), &c);
        let huge_dim =
            DisTenCModel.mem_per_machine(&WorkloadSpec::cube(1 << 40, 1 << 24, 20), &c);
        assert_eq!(huge_dim, big_dim);
        let more_nnz =
            DisTenCModel.mem_per_machine(&WorkloadSpec::cube(1 << 40, 1 << 27, 20), &c);
        assert!(more_nnz > huge_dim);
    }

    #[test]
    fn seconds_scale_down_with_machines() {
        let w = WorkloadSpec::cube(100_000, 10_000_000, 10);
        let t1 = DisTenCModel.seconds(&w, &paper().with_machines(1));
        let t8 = DisTenCModel.seconds(&w, &paper().with_machines(8));
        assert!(t8 < t1, "8 machines {t8} must beat 1 machine {t1}");
        // And not super-linearly (communication overhead exists).
        assert!(t1 / t8 < 8.0);
        assert!(t1 / t8 > 2.0);
    }

    #[test]
    fn rank_scaling_is_flat_ish() {
        // Fig. 3c: DisTenC's curve grows sub-cubically in rank (the Gram
        // trick caps it at R²·I + R·nnz; ALS's normal equations are R³·I).
        // A 50× rank increase must cost far less than 50³ and even less
        // than 50² — the cross-method comparison lives in distenc-eval.
        let c = paper();
        let t10 = DisTenCModel.seconds(&WorkloadSpec::cube(1_000_000, 10_000_000, 10), &c);
        let t500 = DisTenCModel.seconds(&WorkloadSpec::cube(1_000_000, 10_000_000, 500), &c);
        assert!(t500 / t10 < 300.0, "ratio {}", t500 / t10);
        assert!(t500 > t10);
    }

    #[test]
    fn mapreduce_mode_slower() {
        let w = WorkloadSpec::cube(100_000, 10_000_000, 10);
        let spark = DisTenCModel.seconds(&w, &paper());
        let mr = DisTenCModel.seconds(&w, &ClusterConfig::paper_mapreduce());
        assert!(mr > spark * 1.5, "MapReduce {mr} vs Spark {spark}");
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(RunOutcome::Completed { seconds: 2.0 }.label(), "2.0s");
        assert_eq!(RunOutcome::OutOfMemory { needed: 1, capacity: 0 }.label(), "O.O.M.");
        assert_eq!(
            RunOutcome::OutOfTime { estimated: 9.0, budget: 1.0 }.label(),
            "O.O.T."
        );
    }

    #[test]
    fn model_tracks_engine_within_factor_three() {
        // Fidelity: the analytical model and the actual engine-accounted
        // run must agree on the order of magnitude for a small workload.
        use crate::{AdmmConfig, DisTenC};
        use distenc_dataflow::Cluster;
        use distenc_tensor::{CooTensor, KruskalTensor};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let shape = [60usize, 60, 60];
        let nnz = 6000usize;
        let rank = 4usize;
        let truth = KruskalTensor::random(&shape, rank, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut mask = CooTensor::new(shape.to_vec());
        for _ in 0..nnz {
            let idx: Vec<usize> = shape.iter().map(|&d| rng.random_range(0..d)).collect();
            mask.push(&idx, 1.0).unwrap();
        }
        mask.sort_dedup();
        let observed = truth.eval_at(&mask).unwrap();

        let iters = 5usize;
        let cc = ClusterConfig::test(4).with_time_budget(None);
        let w = WorkloadSpec {
            dims: vec![60; 3],
            nnz: observed.nnz() as u64,
            rank: rank as u64,
            eigen_k: 0,
            iters: iters as u64,
        };
        let model_seconds = DisTenCModel.seconds(&w, &cc);
        // The model describes the published schedule term by term; the
        // engine's one schedule undercuts it by N stages an iteration.
        let cluster = Cluster::new(cc);
        let cfg = AdmmConfig { rank, max_iters: iters, tol: 1e-15, ..Default::default() };
        let _ = DisTenC::new(&cluster, cfg)
            .unwrap()
            .solve(&observed, &[None, None, None])
            .unwrap();
        let engine_seconds = cluster.now();
        let ratio = model_seconds / engine_seconds;
        assert!(
            (0.33..3.0).contains(&ratio),
            "model {model_seconds}s vs engine {engine_seconds}s (ratio {ratio})"
        );
    }
}
