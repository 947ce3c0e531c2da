//! Cluster configuration and the calibrated cost model.

use crate::fault::FaultPlan;

/// Execution substrate being modelled: what the simulation charges, not
/// how many host threads compute it (that is the solver's business).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// In-memory iteration à la Spark: persisted datasets stay resident,
    /// stages exchange data over the network only.
    Spark,
    /// Hadoop-style MapReduce: every stage reads its inputs from disk and
    /// writes its outputs back to disk; persisting buys nothing. Used for
    /// the SCouT and FlexiFact baselines.
    MapReduce,
}

/// Per-resource cost constants translating accounted work into virtual
/// seconds. Defaults approximate commodity 2010s hardware (the paper's
/// Xeon E5410 cluster): ~1 GFLOP/s effective per core on sparse irregular
/// code, ~1 Gb/s network, ~100 MB/s disk. `distenc-eval`'s calibration can
/// refit `seconds_per_flop` against measured small-scale runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per floating-point operation (per core).
    pub seconds_per_flop: f64,
    /// Seconds per byte crossing a machine boundary.
    pub seconds_per_net_byte: f64,
    /// Seconds per byte read from or written to disk (MapReduce mode).
    pub seconds_per_disk_byte: f64,
    /// Fixed per-stage scheduling/launch overhead in seconds (Spark).
    pub stage_latency: f64,
    /// Fixed per-job launch overhead in MapReduce mode. Hadoop job
    /// start-up (JVM spawn, scheduling, HDFS metadata) is notoriously
    /// orders of magnitude above a Spark stage — the root cause of the
    /// convergence-time gap in Figs. 6b/7b.
    pub mr_job_latency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // Sparse, irregular tensor kernels run far below peak FLOPs on
            // the paper's Xeon E5410 era hardware: ~250 MFLOP/s effective.
            seconds_per_flop: 4.0e-9,
            seconds_per_net_byte: 3.0e-9,
            seconds_per_disk_byte: 1.0e-8,
            stage_latency: 0.001,
            mr_job_latency: 2.0,
        }
    }
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker machines (accounting domains).
    pub machines: usize,
    /// Cores per machine: compute on one machine is divided by this.
    pub cores_per_machine: usize,
    /// Memory capacity per machine, in bytes.
    pub mem_per_machine: u64,
    /// Spark or MapReduce semantics.
    pub mode: Platform,
    /// Cost constants.
    pub cost: CostModel,
    /// Optional virtual-time budget; exceeding it fails stages with
    /// [`crate::DataflowError::OutOfTime`].
    pub time_budget: Option<f64>,
    /// Deterministic fault schedule (crashes, transient task failures,
    /// straggler windows). Empty by default — a fault-free cluster's
    /// accounting is bit-identical with or without the fault machinery.
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// The paper's cluster (§IV-A): 9 executors × 8 cores, 12 GB each,
    /// Spark, with the experiments' 8-hour cutoff.
    pub fn paper_spark() -> Self {
        ClusterConfig {
            machines: 9,
            cores_per_machine: 8,
            mem_per_machine: 12 * (1 << 30),
            mode: Platform::Spark,
            cost: CostModel::default(),
            time_budget: Some(8.0 * 3600.0),
            faults: FaultPlan::none(),
        }
    }

    /// The same hardware driven as a MapReduce cluster (SCouT, FlexiFact).
    pub fn paper_mapreduce() -> Self {
        ClusterConfig { mode: Platform::MapReduce, ..Self::paper_spark() }
    }

    /// A single 16 GB machine (the TFAI baseline's environment — one
    /// cluster node, §IV-A).
    pub fn single_machine() -> Self {
        ClusterConfig {
            machines: 1,
            cores_per_machine: 4,
            mem_per_machine: 16 * (1 << 30),
            mode: Platform::Spark,
            cost: CostModel::default(),
            time_budget: Some(8.0 * 3600.0),
            faults: FaultPlan::none(),
        }
    }

    /// Small deterministic test cluster.
    pub fn test(machines: usize) -> Self {
        ClusterConfig {
            machines,
            cores_per_machine: 2,
            mem_per_machine: 1 << 30,
            mode: Platform::Spark,
            cost: CostModel::default(),
            time_budget: None,
            faults: FaultPlan::none(),
        }
    }

    /// Builder-style override of the machine count (Fig. 4 sweeps 1→8).
    pub fn with_machines(mut self, machines: usize) -> Self {
        self.machines = machines;
        self
    }

    /// Builder-style override of the modelled platform.
    pub fn with_mode(mut self, mode: Platform) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style override of per-machine memory.
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.mem_per_machine = bytes;
        self
    }

    /// Builder-style override of the time budget.
    pub fn with_time_budget(mut self, seconds: Option<f64>) -> Self {
        self.time_budget = seconds;
        self
    }

    /// Builder-style override of the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_section_iv_a() {
        let spark = ClusterConfig::paper_spark();
        assert_eq!(spark.machines, 9);
        assert_eq!(spark.cores_per_machine, 8);
        assert_eq!(spark.mem_per_machine, 12 * (1 << 30));
        assert_eq!(spark.mode, Platform::Spark);
        let mr = ClusterConfig::paper_mapreduce();
        assert_eq!(mr.mode, Platform::MapReduce);
        assert_eq!(mr.machines, 9);
    }

    #[test]
    fn builders_override_fields() {
        let c = ClusterConfig::paper_spark()
            .with_machines(4)
            .with_memory(1024)
            .with_time_budget(None);
        assert_eq!(c.machines, 4);
        assert_eq!(c.mem_per_machine, 1024);
        assert_eq!(c.time_budget, None);
    }
}
