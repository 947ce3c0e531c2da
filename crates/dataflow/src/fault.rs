//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is part of [`crate::ClusterConfig`]: a list of fault
//! events pinned to global *stage numbers* (the cluster's `stages`
//! counter, which every driver advances deterministically), so a plan
//! replays bit-identically for a fixed workload. Three fault kinds are
//! modeled, mirroring what Spark's lineage story has to survive:
//!
//! * [`Fault::MachineCrash`] — an executor is lost: its resident memory
//!   is zeroed and the in-flight operation returns
//!   [`crate::DataflowError::MachineLost`]. The failed attempt's virtual
//!   time has already been charged (the work ran, then was lost), and
//!   the driver must re-reserve and recompute or restore state.
//! * [`Fault::TransientTask`] — a task fails and is re-executed up to
//!   [`FaultPlan::max_task_retries`] times. Retries re-run the victim
//!   machine's work serially, stretching the stage; if the failure count
//!   exceeds the retry budget the stage returns
//!   [`crate::DataflowError::TaskFailed`] (after charging all attempts),
//!   matching Spark aborting a job when a task exhausts its retries.
//! * [`Fault::Straggler`] — a machine runs slower by a factor for a
//!   window of stages, modelling contention; its slowdown is attributed
//!   to `Metrics::recovery_seconds`.
//!
//! An empty plan (the default) leaves every charge bit-identical to a
//! cluster built without fault support — the golden traces pin this.
//!
//! Machine indices in a plan are clamped to the cluster size rather than
//! rejected: a plan is injected configuration (like the cost model), not
//! runtime input, and clamping keeps randomly generated plans valid for
//! any cluster. Events whose `at_stage` never arrives simply never fire.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault event. Stage numbers refer to the cluster's global
/// stage counter (`Metrics::stages`); an event with `at_stage = k` fires
/// the first time the counter is at `k` or beyond (stages skipped because
/// the driver shuffled instead still trigger the event on the next
/// opportunity), and fires exactly once (stragglers: once per window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Lose `machine` at stage `at_stage`: resident bytes vanish and the
    /// operation fails with [`crate::DataflowError::MachineLost`].
    MachineCrash {
        /// Global stage number at which the machine dies.
        at_stage: u64,
        /// Victim machine (clamped to the cluster size).
        machine: usize,
    },
    /// A task on `machine` fails `failures` times at stage `at_stage`
    /// before (possibly) succeeding on a retry.
    TransientTask {
        /// Global stage number at which the task starts flaking.
        at_stage: u64,
        /// Victim machine (clamped to the cluster size).
        machine: usize,
        /// Number of failed attempts before one would succeed. When this
        /// exceeds `FaultPlan::max_task_retries` the stage aborts with
        /// [`crate::DataflowError::TaskFailed`].
        failures: u32,
    },
    /// `machine` runs `factor`× slower for `stages` consecutive stages
    /// starting at `at_stage`.
    Straggler {
        /// First global stage number of the slow window.
        at_stage: u64,
        /// Victim machine (clamped to the cluster size).
        machine: usize,
        /// Compute-time multiplier (≥ 1 to slow down).
        factor: f64,
        /// Length of the slow window, in stages.
        stages: u64,
    },
}

/// A deterministic schedule of fault events plus the cluster's retry
/// policy. The default plan is empty: no faults, bit-identical accounting
/// to a fault-free cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault events, fired in schedule order as their stages arrive.
    pub events: Vec<Fault>,
    /// How many times a failed task is retried before the stage aborts
    /// with [`crate::DataflowError::TaskFailed`]. Mirrors Spark's
    /// `spark.task.maxFailures - 1`. Default: 3.
    pub(crate) max_task_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults are ever injected.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new(), max_task_retries: 3 }
    }

    /// A plan with the given events and the default retry budget.
    pub fn new(events: Vec<Fault>) -> Self {
        FaultPlan { events, max_task_retries: 3 }
    }

    /// Override the per-task retry budget.
    pub fn with_max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Generate a random plan from a seed: one to three events of mixed
    /// kinds over the first `horizon_stages` stages of a run on
    /// `machines` machines. Same seed ⇒ same plan, always — this is the
    /// entry point the fault-injection proptests drive.
    pub fn seeded(seed: u64, machines: usize, horizon_stages: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let machines = machines.max(1);
        let horizon = horizon_stages.max(1);
        let n = rng.random_range(1..=3usize);
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            let at_stage = rng.random_range(0..horizon);
            let machine = rng.random_range(0..machines);
            events.push(match rng.random_range(0..3u32) {
                0 => Fault::MachineCrash { at_stage, machine },
                1 => Fault::TransientTask {
                    at_stage,
                    machine,
                    failures: rng.random_range(1..=5u32),
                },
                _ => Fault::Straggler {
                    at_stage,
                    machine,
                    factor: 2.0 + 8.0 * rng.random::<f64>(),
                    stages: rng.random_range(1..=5u64),
                },
            });
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().events.is_empty());
        assert_eq!(FaultPlan::default().max_task_retries, 3);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 4, 100);
        let b = FaultPlan::seeded(42, 4, 100);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        let c = FaultPlan::seeded(43, 4, 100);
        assert_ne!(a, c, "different seeds should differ (for this pair)");
    }

    #[test]
    fn seeded_events_respect_bounds() {
        for seed in 0..50 {
            let p = FaultPlan::seeded(seed, 3, 20);
            assert!((1..=3).contains(&p.events.len()));
            for e in &p.events {
                match *e {
                    Fault::MachineCrash { at_stage, machine } => {
                        assert!(at_stage < 20 && machine < 3);
                    }
                    Fault::TransientTask { at_stage, machine, failures } => {
                        assert!(at_stage < 20 && machine < 3);
                        assert!((1..=5).contains(&failures));
                    }
                    Fault::Straggler { at_stage, machine, factor, stages } => {
                        assert!(at_stage < 20 && machine < 3);
                        assert!((2.0..10.0).contains(&factor));
                        assert!((1..=5).contains(&stages));
                    }
                }
            }
        }
    }
}
