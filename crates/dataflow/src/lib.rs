//! A Spark-like in-process dataflow engine with resource accounting.
//!
//! The paper runs DisTenC on a 10-node Spark cluster (9 executors × 8
//! cores, 12 GB each) and compares against MapReduce-based systems. This
//! crate is the substitution for that infrastructure (DESIGN.md §2): a
//! deterministic, single-process [`Cluster`] to which the drivers charge
//! each stage's per-machine work while the solver's own [`Executor`] runs
//! the real computation, accounting for the three resources the paper's
//! evaluation measures —
//!
//! * **virtual time** — per-stage wall-clock model: `max` over machines of
//!   (compute ÷ cores) plus network transfer, per-stage scheduling
//!   latency, and (in MapReduce mode) disk spills between stages;
//! * **memory** — per-machine resident bytes for persisted datasets plus
//!   per-stage working sets, with out-of-memory failures surfacing as
//!   [`DataflowError::OutOfMemory`] (the "O.O.M." entries of Fig. 3);
//! * **shuffled bytes** — every record that crosses a machine boundary is
//!   counted (the quantity of Lemma 3).
//!
//! "Machines" are accounting domains decoupled from the host's physical
//! cores: results are assembled in partition order regardless of which
//! host thread computed what, which keeps every run bit-for-bit
//! reproducible even under [`ExecMode::Threads`] (see `exec`).
//! Spark-vs-Hadoop is modelled by [`Platform`]: `MapReduce` charges disk
//! I/O for every stage's inputs and outputs and makes caching worthless,
//! which is the paper's explanation for SCouT/FlexiFact's slow
//! convergence (Figs. 6b, 7b).

#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
pub mod alloc;
pub mod cluster;
pub(crate) mod config;
pub(crate) mod exec;
pub(crate) mod fault;
#[cfg(feature = "pass-count")]
pub mod passes;

/// With `alloc-count` enabled, every crate in the workspace that links
/// this one gets the counting allocator installed process-wide, so the
/// allocation-budget test and `benches/solver_core.rs` can observe the
/// solver's heap traffic without instrumenting call sites.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

pub use cluster::Cluster;
pub use cluster::MemoryReservation;
pub use cluster::Metrics;
pub use config::ClusterConfig;
pub use config::Platform;
pub use exec::even_ranges;
pub use exec::ExecMode;
pub use exec::Executor;
pub use fault::Fault;
pub use fault::FaultPlan;

/// Errors surfaced by the engine. `OutOfMemory` and `OutOfTime` are
/// *results* of the simulation (they reproduce the paper's O.O.M./O.O.T.
/// table entries), not bugs.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// A stage's working set plus resident data exceeded a machine's
    /// memory capacity.
    OutOfMemory {
        /// Machine that overflowed.
        machine: usize,
        /// Bytes the stage needed on that machine.
        needed: u64,
        /// The machine's capacity.
        capacity: u64,
    },
    /// The virtual clock passed the configured time budget (the paper's
    /// 8-hour out-of-time cutoff).
    OutOfTime {
        /// Virtual seconds elapsed.
        elapsed: f64,
        /// The configured budget.
        budget: f64,
    },
    /// An operation was invoked with inconsistent arguments (e.g. a
    /// shuffle whose byte counts are not one per machine or not conserved).
    Invalid(String),
    /// A machine was lost mid-operation (injected via
    /// [`fault::FaultPlan`]): its resident data is gone and the driver
    /// must recover — restore a checkpoint or recompute lineage — before
    /// retrying. The failed attempt's virtual time has been charged.
    MachineLost {
        /// The machine that died.
        machine: usize,
        /// Global stage number at which it died.
        stage: u64,
    },
    /// A task kept failing past the fault plan's retry budget; the stage
    /// aborted after charging every attempt.
    TaskFailed {
        /// Machine the flaky task ran on.
        machine: usize,
        /// Global stage number of the aborted stage.
        stage: u64,
        /// Attempts made (original run plus retries).
        attempts: u32,
    },
    /// An operation named a machine outside the cluster. Replaces the
    /// pre-fault-model panic: malformed input on the failure path must
    /// surface as a typed error, never a panic.
    BadMachine {
        /// The out-of-range machine index.
        machine: usize,
        /// Number of machines in the cluster.
        machines: usize,
    },
    /// A thread count (`DISTENC_THREADS`, `--threads`) that
    /// [`ExecMode::parse`] does not accept; the payload is the rejected
    /// text.
    BadThreadCount(String),
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowError::OutOfMemory { machine, needed, capacity } => write!(
                f,
                "out of memory on machine {machine}: needed {needed} B of {capacity} B"
            ),
            DataflowError::OutOfTime { elapsed, budget } => {
                write!(f, "out of time: {elapsed:.1}s elapsed of {budget:.1}s budget")
            }
            DataflowError::Invalid(msg) => write!(f, "invalid dataflow operation: {msg}"),
            DataflowError::MachineLost { machine, stage } => {
                write!(f, "machine {machine} lost at stage {stage}")
            }
            DataflowError::TaskFailed { machine, stage, attempts } => write!(
                f,
                "task on machine {machine} failed {attempts} attempts at stage {stage}"
            ),
            DataflowError::BadMachine { machine, machines } => {
                write!(f, "operation names machine {machine} of a {machines}-machine cluster")
            }
            DataflowError::BadThreadCount(raw) => write!(
                f,
                "bad thread count `{raw}`: expected a whole number (0 or 1 = sequential, \
                 n >= 2 = n threads)"
            ),
        }
    }
}

impl std::error::Error for DataflowError {}

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, DataflowError>;
