//! The simulated cluster: virtual clock, memory ledger, traffic counters.

use crate::config::{ClusterConfig, Platform};
use crate::fault::Fault;
use crate::{DataflowError, Result};
use parking_lot::Mutex;

/// One task of a stage, described by the resources it consumes. The engine
/// derives virtual time and memory pressure purely from these numbers; the
/// actual Rust closure producing the data runs separately (and its real
/// wall-clock time is irrelevant to the model).
#[derive(Debug, Clone, Copy)]
pub struct TaskCost {
    /// Machine the task runs on.
    pub machine: usize,
    /// Floating-point (or equivalent) operations performed.
    pub flops: f64,
    /// Bytes of input the task reads.
    pub input_bytes: u64,
    /// Bytes of output the task produces.
    pub output_bytes: u64,
}

/// Snapshot of the cluster's accounting counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Virtual seconds elapsed since construction.
    pub virtual_seconds: f64,
    /// Number of stages executed.
    pub stages: u64,
    /// Bytes that crossed machine boundaries in shuffles.
    pub shuffled_bytes: u64,
    /// Bytes replicated to machines by broadcasts.
    pub broadcast_bytes: u64,
    /// Bytes spilled to / read from disk (MapReduce mode only).
    pub disk_bytes: u64,
    /// Largest per-machine resident footprint observed, in bytes.
    pub peak_resident: u64,
    /// Virtual seconds attributable to injected faults and their
    /// recovery: repeated task attempts, straggler-window slowdown beyond
    /// the clean schedule, stage attempts lost to machine crashes, and
    /// driver-side restore work noted via [`Cluster::note_recovery`].
    /// Always ≤ `virtual_seconds`; zero for an empty fault plan.
    pub recovery_seconds: f64,
    /// Machines lost to injected [`Fault::MachineCrash`] events.
    pub machines_lost: u64,
    /// Task re-executions caused by [`Fault::TransientTask`] events
    /// (failed attempts that were retried, whether or not the stage
    /// ultimately succeeded).
    pub task_retries: u64,
    /// Fault events from the plan that have fired so far.
    pub faults_injected: u64,
}

/// A fault event from the plan that has not finished firing yet.
#[derive(Debug)]
struct PendingFault {
    fault: Fault,
    /// For straggler windows: whether the window has begun (the event is
    /// counted as injected once, at its first slow stage).
    started: bool,
}

#[derive(Debug)]
struct State {
    clock: f64,
    resident: Vec<u64>,
    peak_resident: Vec<u64>,
    shuffled_bytes: u64,
    broadcast_bytes: u64,
    disk_bytes: u64,
    stages: u64,
    faults: Vec<PendingFault>,
    recovery_seconds: f64,
    machines_lost: u64,
    task_retries: u64,
    faults_injected: u64,
}

/// The simulated cluster. All mutation happens behind a mutex so `&Cluster`
/// can be shared freely by the drivers and tasks that charge it.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    state: Mutex<State>,
}

impl Cluster {
    /// Create a cluster from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero machines or zero cores.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.machines > 0, "cluster needs at least one machine");
        assert!(cfg.cores_per_machine > 0, "machines need at least one core");
        let m = cfg.machines;
        let faults = cfg
            .faults
            .events
            .iter()
            .map(|&fault| PendingFault { fault, started: false })
            .collect();
        Cluster {
            cfg,
            state: Mutex::new(State {
                clock: 0.0,
                resident: vec![0; m],
                peak_resident: vec![0; m],
                shuffled_bytes: 0,
                broadcast_bytes: 0,
                disk_bytes: 0,
                stages: 0,
                faults,
                recovery_seconds: 0.0,
                machines_lost: 0,
                task_retries: 0,
                faults_injected: 0,
            }),
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.cfg.machines
    }

    /// Deterministic machine assignment for a partition index.
    pub fn machine_for_partition(&self, part: usize) -> usize {
        part % self.cfg.machines
    }

    /// Current accounting snapshot.
    pub fn metrics(&self) -> Metrics {
        let s = self.state.lock();
        Metrics {
            virtual_seconds: s.clock,
            stages: s.stages,
            shuffled_bytes: s.shuffled_bytes,
            broadcast_bytes: s.broadcast_bytes,
            disk_bytes: s.disk_bytes,
            peak_resident: s.peak_resident.iter().copied().max().unwrap_or(0),
            recovery_seconds: s.recovery_seconds,
            machines_lost: s.machines_lost,
            task_retries: s.task_retries,
            faults_injected: s.faults_injected,
        }
    }

    /// Virtual seconds elapsed.
    pub fn now(&self) -> f64 {
        self.state.lock().clock
    }

    /// Reserve `bytes` of resident memory on `machine` (persisting a
    /// dataset partition, caching factor blocks, …). In MapReduce mode
    /// nothing stays resident — the bytes are spilled to disk instead,
    /// charged at disk rate.
    pub fn reserve(&self, machine: usize, bytes: u64) -> Result<()> {
        if machine >= self.cfg.machines {
            return Err(DataflowError::BadMachine { machine, machines: self.cfg.machines });
        }
        let mut s = self.state.lock();
        match self.cfg.mode {
            Platform::Spark => {
                let new = s.resident[machine] + bytes;
                if new > self.cfg.mem_per_machine {
                    return Err(DataflowError::OutOfMemory {
                        machine,
                        needed: new,
                        capacity: self.cfg.mem_per_machine,
                    });
                }
                s.resident[machine] = new;
                s.peak_resident[machine] = s.peak_resident[machine].max(new);
                Ok(())
            }
            Platform::MapReduce => {
                s.disk_bytes += bytes;
                s.clock += bytes as f64 * self.cfg.cost.seconds_per_disk_byte;
                Ok(())
            }
        }
    }

    /// Release resident memory reserved earlier (no-op in MapReduce mode,
    /// mirroring [`Cluster::reserve`]). The subtraction saturates, so
    /// releasing bytes a crash already wiped is harmless.
    pub(crate) fn release(&self, machine: usize, bytes: u64) -> Result<()> {
        if machine >= self.cfg.machines {
            return Err(DataflowError::BadMachine { machine, machines: self.cfg.machines });
        }
        if self.cfg.mode == Platform::Spark {
            let mut s = self.state.lock();
            s.resident[machine] = s.resident[machine].saturating_sub(bytes);
        }
        Ok(())
    }

    /// Attribute `seconds` of already-charged virtual time to fault
    /// recovery (driver-side restore work: checkpoint deserialization and
    /// broadcast, lineage re-reads). Adds to
    /// [`Metrics::recovery_seconds`] only — the clock itself is advanced
    /// by the operations performing the recovery.
    pub fn note_recovery(&self, seconds: f64) {
        self.state.lock().recovery_seconds += seconds.max(0.0);
    }

    /// Execute (account) one stage. Per machine: compute time is total
    /// task flops divided across its cores; the working set (inputs +
    /// outputs of its tasks) must fit beside resident data; MapReduce mode
    /// additionally pays disk I/O for all task inputs and outputs. Stage
    /// duration is the per-stage latency plus the slowest machine.
    ///
    /// Fault events from the configured [`crate::FaultPlan`] whose stage
    /// has arrived fire here: transient task failures re-run the victim
    /// machine's work (stretching the stage, or aborting it with
    /// [`DataflowError::TaskFailed`] past the retry budget), straggler
    /// windows multiply the victim's compute time, and a machine crash
    /// charges the doomed attempt, wipes the victim's resident memory and
    /// returns [`DataflowError::MachineLost`]. At most one terminal event
    /// (crash preferred over task-abort) fires per stage, so a retried
    /// stage always makes progress through a multi-event plan.
    pub fn run_stage(&self, tasks: &[TaskCost]) -> Result<()> {
        let m = self.cfg.machines;
        let mut flops = vec![0.0_f64; m];
        let mut working = vec![0u64; m];
        for t in tasks {
            if t.machine >= m {
                return Err(DataflowError::BadMachine { machine: t.machine, machines: m });
            }
            flops[t.machine] += t.flops;
            working[t.machine] += t.input_bytes + t.output_bytes;
        }

        let mut s = self.state.lock();
        // Memory check first: a stage that cannot fit never runs.
        for (mach, &work) in working.iter().enumerate() {
            let needed = s.resident[mach] + work;
            if needed > self.cfg.mem_per_machine {
                return Err(DataflowError::OutOfMemory {
                    machine: mach,
                    needed,
                    capacity: self.cfg.mem_per_machine,
                });
            }
            s.peak_resident[mach] = s.peak_resident[mach].max(needed);
        }

        // Pull the fault events due at this stage. Machine indices in the
        // plan are clamped to the cluster (a plan is configuration, not
        // task input). Crash and task-abort events are consumed here;
        // straggler windows persist until they expire.
        let stage = s.stages;
        let mut crash: Option<usize> = None;
        let mut transient: Option<(usize, u32)> = None;
        let mut slow: Vec<(usize, f64)> = Vec::new();
        if !s.faults.is_empty() {
            if let Some(i) = s.faults.iter().position(
                |p| matches!(p.fault, Fault::MachineCrash { at_stage, .. } if at_stage <= stage),
            ) {
                if let Fault::MachineCrash { machine, .. } = s.faults.remove(i).fault {
                    crash = Some(machine.min(m - 1));
                }
            }
            if crash.is_none() {
                if let Some(i) = s.faults.iter().position(
                    |p| matches!(p.fault, Fault::TransientTask { at_stage, .. } if at_stage <= stage),
                ) {
                    if let Fault::TransientTask { machine, failures, .. } =
                        s.faults.remove(i).fault
                    {
                        transient = Some((machine.min(m - 1), failures));
                    }
                }
            }
            let mut i = 0;
            while i < s.faults.len() {
                if let Fault::Straggler { at_stage, machine, factor, stages } = s.faults[i].fault {
                    if at_stage.saturating_add(stages) <= stage {
                        s.faults.remove(i);
                        continue;
                    }
                    if at_stage <= stage {
                        if !s.faults[i].started {
                            s.faults[i].started = true;
                            s.faults_injected += 1;
                        }
                        slow.push((machine.min(m - 1), factor));
                    }
                }
                i += 1;
            }
        }

        let cores = self.cfg.cores_per_machine as f64;
        // `slowest` includes injected-fault effects; `slowest_clean` is
        // what the stage would have cost without them — the difference is
        // honest recovery/slowdown cost. With an empty plan the two are
        // computed identically, keeping fault-free runs bit-exact.
        let mut slowest = 0.0_f64;
        let mut slowest_clean = 0.0_f64;
        for mach in 0..m {
            let mut t = flops[mach] * self.cfg.cost.seconds_per_flop / cores;
            if self.cfg.mode == Platform::MapReduce {
                t += working[mach] as f64 * self.cfg.cost.seconds_per_disk_byte;
            }
            let mut tf = t;
            for &(sm, sf) in &slow {
                if sm == mach {
                    tf *= sf;
                }
            }
            if let Some((tm, failures)) = transient {
                if tm == mach {
                    // Failed attempts re-run serially on the same machine.
                    let runs = failures.min(self.cfg.faults.max_task_retries) + 1;
                    tf *= runs as f64;
                }
            }
            slowest_clean = slowest_clean.max(t);
            slowest = slowest.max(tf);
        }
        let latency = match self.cfg.mode {
            Platform::Spark => self.cfg.cost.stage_latency,
            Platform::MapReduce => {
                s.disk_bytes += working.iter().sum::<u64>();
                self.cfg.cost.mr_job_latency
            }
        };
        s.clock += latency + slowest;
        s.recovery_seconds += slowest - slowest_clean;
        s.stages += 1;
        if let Some((tm, failures)) = transient {
            s.faults_injected += 1;
            let allowed = self.cfg.faults.max_task_retries;
            s.task_retries += u64::from(failures.min(allowed));
            if failures > allowed {
                return Err(DataflowError::TaskFailed {
                    machine: tm,
                    stage,
                    attempts: allowed + 1,
                });
            }
        }
        if let Some(cm) = crash {
            s.faults_injected += 1;
            s.machines_lost += 1;
            // The whole attempt — latency plus the stage's clean work —
            // was wasted: the driver has to redo it after recovering.
            s.recovery_seconds += latency + slowest_clean;
            s.resident[cm] = 0;
            return Err(DataflowError::MachineLost { machine: cm, stage });
        }
        Self::check_budget_locked(&s, &self.cfg)
    }

    /// Account a shuffle: `sent[m]` / `received[m]` are the bytes machine
    /// `m` sends and receives. Transfers proceed in parallel, so the time
    /// is the slowest machine's `(sent + received)` at network rate.
    ///
    /// A due [`Fault::MachineCrash`] also surfaces here: the shuffle
    /// aborts with [`DataflowError::MachineLost`] before any bytes or
    /// time are charged, and the victim's resident data is wiped.
    pub fn shuffle(&self, sent: &[u64], received: &[u64]) -> Result<()> {
        let m = self.cfg.machines;
        if sent.len() != m || received.len() != m {
            return Err(DataflowError::Invalid(format!(
                "shuffle needs one entry per machine: sent {}, received {}, machines {m}",
                sent.len(),
                received.len()
            )));
        }
        let total: u64 = sent.iter().sum();
        if total != received.iter().sum::<u64>() {
            return Err(DataflowError::Invalid(format!(
                "shuffle must conserve bytes: sent {total}, received {}",
                received.iter().sum::<u64>()
            )));
        }
        let slowest = sent
            .iter()
            .zip(received)
            .map(|(&a, &b)| a + b)
            .max()
            .unwrap_or(0);
        let mut s = self.state.lock();
        let stage = s.stages;
        if let Some(i) = s.faults.iter().position(
            |p| matches!(p.fault, Fault::MachineCrash { at_stage, .. } if at_stage <= stage),
        ) {
            if let Fault::MachineCrash { machine, .. } = s.faults.remove(i).fault {
                let machine = machine.min(m - 1);
                s.faults_injected += 1;
                s.machines_lost += 1;
                s.resident[machine] = 0;
                return Err(DataflowError::MachineLost { machine, stage });
            }
        }
        s.shuffled_bytes += total;
        s.clock += slowest as f64 * self.cfg.cost.seconds_per_net_byte;
        if self.cfg.mode == Platform::MapReduce {
            // Map outputs are materialized to disk before reducers fetch.
            s.disk_bytes += total;
            s.clock += total as f64 * self.cfg.cost.seconds_per_disk_byte
                / self.cfg.machines as f64;
        }
        Self::check_budget_locked(&s, &self.cfg)
    }

    /// Account a broadcast of `bytes` from the driver to every machine
    /// (pipelined: time is one traversal; traffic is `bytes × machines`).
    pub fn broadcast_charge(&self, bytes: u64) -> Result<()> {
        let mut s = self.state.lock();
        s.broadcast_bytes += bytes * self.cfg.machines as u64;
        s.clock += bytes as f64 * self.cfg.cost.seconds_per_net_byte;
        Self::check_budget_locked(&s, &self.cfg)
    }

    /// Account a gather of per-machine bytes to the driver (`collect`).
    pub fn collect_charge(&self, per_machine_bytes: &[u64]) -> Result<()> {
        let mut s = self.state.lock();
        let total: u64 = per_machine_bytes.iter().sum();
        s.clock += total as f64 * self.cfg.cost.seconds_per_net_byte;
        Self::check_budget_locked(&s, &self.cfg)
    }

    /// Manually advance the virtual clock (driver-side computation).
    pub(crate) fn advance(&self, seconds: f64) -> Result<()> {
        let mut s = self.state.lock();
        s.clock += seconds;
        Self::check_budget_locked(&s, &self.cfg)
    }

    /// Convenience: account driver-side flops (single machine, no cores).
    pub fn charge_driver_flops(&self, flops: f64) -> Result<()> {
        self.advance(flops * self.cfg.cost.seconds_per_flop)
    }

    fn check_budget_locked(s: &State, cfg: &ClusterConfig) -> Result<()> {
        if let Some(budget) = cfg.time_budget {
            if s.clock > budget {
                return Err(DataflowError::OutOfTime { elapsed: s.clock, budget });
            }
        }
        Ok(())
    }
}

/// RAII guard over [`Cluster::reserve`]/`Cluster::release`: every
/// reservation made through the guard is released when it drops, so an
/// early `?` return between reservations can no longer leak resident
/// bytes. Dropping the guard models a job tearing down — its cached
/// partitions are evicted whether the job succeeded or failed.
#[derive(Debug)]
pub struct MemoryReservation<'c> {
    cluster: &'c Cluster,
    held: Vec<(usize, u64)>,
}

impl<'c> MemoryReservation<'c> {
    /// An empty guard holding nothing on `cluster`.
    pub fn new(cluster: &'c Cluster) -> Self {
        MemoryReservation { cluster, held: Vec::new() }
    }

    /// Reserve `bytes` on `machine`; the reservation is released when the
    /// guard drops.
    pub fn reserve(&mut self, machine: usize, bytes: u64) -> Result<()> {
        self.cluster.reserve(machine, bytes)?;
        self.held.push((machine, bytes));
        Ok(())
    }
}

impl Drop for MemoryReservation<'_> {
    fn drop(&mut self) {
        for &(machine, bytes) in &self.held {
            // Machines were validated at reserve time; the saturating
            // release also absorbs a crashed machine whose resident
            // bytes were already wiped.
            let _ = self.cluster.release(machine, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CostModel;
    use crate::fault::FaultPlan;

    fn cluster(machines: usize) -> Cluster {
        Cluster::new(ClusterConfig::test(machines))
    }

    #[test]
    fn stage_time_is_slowest_machine() {
        let c = Cluster::new(ClusterConfig {
            cost: CostModel {
                stage_latency: 0.0,
                seconds_per_flop: 1.0e-9,
                ..CostModel::default()
            },
            ..ClusterConfig::test(2)
        });
        // Machine 0: 2e9 flops, machine 1: 4e9 flops; 2 cores each at 1e-9
        // s/flop ⇒ 1 s vs 2 s ⇒ stage takes 2 s.
        c.run_stage(&[
            TaskCost { machine: 0, flops: 2e9, input_bytes: 0, output_bytes: 0 },
            TaskCost { machine: 1, flops: 4e9, input_bytes: 0, output_bytes: 0 },
        ])
        .unwrap();
        assert!((c.now() - 2.0).abs() < 1e-9, "clock = {}", c.now());
    }

    #[test]
    fn stage_latency_added_per_stage() {
        let c = cluster(1);
        c.run_stage(&[]).unwrap();
        c.run_stage(&[]).unwrap();
        let m = c.metrics();
        assert_eq!(m.stages, 2);
        let want = 2.0 * c.config().cost.stage_latency;
        assert!((m.virtual_seconds - want).abs() < 1e-12);
    }

    #[test]
    fn oom_when_working_set_exceeds_capacity() {
        let c = Cluster::new(ClusterConfig::test(1).with_memory(1000));
        let err = c
            .run_stage(&[TaskCost {
                machine: 0,
                flops: 0.0,
                input_bytes: 800,
                output_bytes: 300,
            }])
            .unwrap_err();
        assert!(matches!(err, DataflowError::OutOfMemory { machine: 0, needed: 1100, .. }));
    }

    #[test]
    fn resident_memory_counts_against_stages() {
        let c = Cluster::new(ClusterConfig::test(1).with_memory(1000));
        c.reserve(0, 700).unwrap();
        assert!(c
            .run_stage(&[TaskCost { machine: 0, flops: 0.0, input_bytes: 400, output_bytes: 0 }])
            .is_err());
        c.release(0, 700).unwrap();
        assert!(c
            .run_stage(&[TaskCost { machine: 0, flops: 0.0, input_bytes: 400, output_bytes: 0 }])
            .is_ok());
    }

    #[test]
    fn reserve_beyond_capacity_fails() {
        let c = Cluster::new(ClusterConfig::test(2).with_memory(100));
        assert!(c.reserve(0, 90).is_ok());
        assert!(c.reserve(0, 20).is_err());
        assert!(c.reserve(1, 90).is_ok(), "machines are independent");
    }

    #[test]
    fn shuffle_counts_bytes_and_time() {
        let c = cluster(2);
        c.shuffle(&[100, 50], &[50, 100]).unwrap();
        let m = c.metrics();
        assert_eq!(m.shuffled_bytes, 150);
        // Slowest machine moves 150 bytes at the network rate.
        let want = 150.0 * c.config().cost.seconds_per_net_byte;
        assert!((m.virtual_seconds - want).abs() < 1e-15);
    }

    #[test]
    fn mapreduce_charges_disk() {
        let spark = Cluster::new(ClusterConfig::test(1));
        let mr = Cluster::new(ClusterConfig::test(1).with_mode(Platform::MapReduce));
        let task = TaskCost { machine: 0, flops: 1e6, input_bytes: 1 << 20, output_bytes: 1 << 20 };
        spark.run_stage(&[task]).unwrap();
        mr.run_stage(&[task]).unwrap();
        assert!(mr.now() > spark.now(), "MapReduce must be slower per stage");
        assert_eq!(mr.metrics().disk_bytes, 2 << 20);
        assert_eq!(spark.metrics().disk_bytes, 0);
    }

    #[test]
    fn mapreduce_persist_goes_to_disk_not_ram() {
        let mr = Cluster::new(
            ClusterConfig::test(1)
                .with_mode(Platform::MapReduce)
                .with_memory(100),
        );
        // Far beyond RAM, but MapReduce spills, so no OOM.
        mr.reserve(0, 10_000).unwrap();
        assert_eq!(mr.metrics().disk_bytes, 10_000);
        assert_eq!(mr.metrics().peak_resident, 0);
    }

    #[test]
    fn time_budget_trips_out_of_time() {
        let c = Cluster::new(ClusterConfig::test(1).with_time_budget(Some(1.0)));
        let err = c.advance(2.0).unwrap_err();
        assert!(matches!(err, DataflowError::OutOfTime { .. }));
    }

    #[test]
    fn broadcast_traffic_scales_with_machines() {
        let c = cluster(4);
        c.broadcast_charge(1000).unwrap();
        assert_eq!(c.metrics().broadcast_bytes, 4000);
    }

    #[test]
    fn peak_resident_tracks_high_water_mark() {
        let c = Cluster::new(ClusterConfig::test(1).with_memory(10_000));
        c.reserve(0, 4000).unwrap();
        c.release(0, 4000).unwrap();
        c.reserve(0, 1000).unwrap();
        assert_eq!(c.metrics().peak_resident, 4000);
    }

    #[test]
    fn bad_machine_is_a_typed_error_not_a_panic() {
        let c = cluster(2);
        let task = TaskCost { machine: 5, flops: 1.0, input_bytes: 0, output_bytes: 0 };
        assert!(matches!(
            c.run_stage(&[task]),
            Err(DataflowError::BadMachine { machine: 5, machines: 2 })
        ));
        assert!(matches!(c.reserve(9, 1), Err(DataflowError::BadMachine { machine: 9, .. })));
        assert!(matches!(c.release(9, 1), Err(DataflowError::BadMachine { machine: 9, .. })));
        // Nothing was charged by the rejected stage.
        assert_eq!(c.metrics().stages, 0);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn shuffle_rejects_malformed_vectors() {
        let c = cluster(2);
        assert!(matches!(c.shuffle(&[1], &[1, 0]), Err(DataflowError::Invalid(_))));
        assert!(matches!(c.shuffle(&[5, 0], &[0, 4]), Err(DataflowError::Invalid(_))));
        assert_eq!(c.metrics().shuffled_bytes, 0);
    }

    #[test]
    fn machine_crash_charges_the_lost_attempt_and_wipes_resident() {
        let plan = FaultPlan::new(vec![Fault::MachineCrash { at_stage: 1, machine: 0 }]);
        let c = Cluster::new(ClusterConfig::test(2).with_faults(plan));
        c.reserve(0, 500).unwrap();
        let task = TaskCost { machine: 0, flops: 2e9, input_bytes: 0, output_bytes: 0 };
        c.run_stage(&[task]).unwrap();
        let before = c.now();
        let err = c.run_stage(&[task]).unwrap_err();
        assert!(matches!(err, DataflowError::MachineLost { machine: 0, stage: 1 }));
        let m = c.metrics();
        // The doomed attempt's full cost (latency + work) was charged and
        // attributed to recovery.
        let attempt = c.config().cost.stage_latency
            + 2e9 * c.config().cost.seconds_per_flop / c.config().cores_per_machine as f64;
        assert!((c.now() - before - attempt).abs() < 1e-12);
        assert!((m.recovery_seconds - attempt).abs() < 1e-12);
        assert_eq!(m.machines_lost, 1);
        assert_eq!(m.faults_injected, 1);
        // Resident memory on the victim is gone; the stage after recovery
        // can use its full capacity again.
        c.reserve(0, c.config().mem_per_machine).unwrap();
        // The crash fired once: re-running the stage succeeds.
        c.release(0, c.config().mem_per_machine).unwrap();
        assert!(c.run_stage(&[task]).is_ok());
    }

    #[test]
    fn crash_surfaces_in_shuffle_too() {
        let plan = FaultPlan::new(vec![Fault::MachineCrash { at_stage: 0, machine: 1 }]);
        let c = Cluster::new(ClusterConfig::test(2).with_faults(plan));
        c.reserve(1, 100).unwrap();
        let err = c.shuffle(&[10, 10], &[10, 10]).unwrap_err();
        assert!(matches!(err, DataflowError::MachineLost { machine: 1, stage: 0 }));
        // Aborted before charging: no bytes or time recorded.
        let m = c.metrics();
        assert_eq!(m.shuffled_bytes, 0);
        assert_eq!(m.virtual_seconds, 0.0);
        assert_eq!(m.machines_lost, 1);
        // One-shot: the next shuffle goes through.
        assert!(c.shuffle(&[10, 10], &[10, 10]).is_ok());
    }

    #[test]
    fn transient_failure_stretches_stage_and_counts_retries() {
        let plan = FaultPlan::new(vec![Fault::TransientTask {
            at_stage: 0,
            machine: 0,
            failures: 2,
        }]);
        let mut cfg = ClusterConfig::test(1).with_faults(plan);
        cfg.cost.stage_latency = 0.0;
        let c = Cluster::new(cfg);
        let task = TaskCost { machine: 0, flops: 2e9, input_bytes: 0, output_bytes: 0 };
        c.run_stage(&[task]).unwrap();
        let clean = 2e9 * c.config().cost.seconds_per_flop / 2.0;
        // 2 failures within the default budget of 3 retries ⇒ 3 runs.
        assert!((c.now() - 3.0 * clean).abs() < 1e-9, "clock = {}", c.now());
        let m = c.metrics();
        assert_eq!(m.task_retries, 2);
        assert_eq!(m.faults_injected, 1);
        assert!((m.recovery_seconds - 2.0 * clean).abs() < 1e-9);
        // One-shot: the next stage runs clean.
        let before = c.now();
        c.run_stage(&[task]).unwrap();
        assert!((c.now() - before - clean).abs() < 1e-9);
    }

    #[test]
    fn transient_past_retry_budget_aborts_with_task_failed() {
        let plan = FaultPlan::new(vec![Fault::TransientTask {
            at_stage: 0,
            machine: 0,
            failures: 9,
        }])
        .with_max_task_retries(2);
        let c = Cluster::new(ClusterConfig::test(1).with_faults(plan));
        let task = TaskCost { machine: 0, flops: 2e9, input_bytes: 0, output_bytes: 0 };
        let err = c.run_stage(&[task]).unwrap_err();
        assert!(matches!(
            err,
            DataflowError::TaskFailed { machine: 0, stage: 0, attempts: 3 }
        ));
        // All three attempts were charged before the abort.
        let m = c.metrics();
        assert_eq!(m.task_retries, 2);
        let clean = 2e9 * c.config().cost.seconds_per_flop / 2.0;
        assert!((m.recovery_seconds - 2.0 * clean).abs() < 1e-9);
    }

    #[test]
    fn straggler_event_slows_a_window_then_expires() {
        let plan = FaultPlan::new(vec![Fault::Straggler {
            at_stage: 1,
            machine: 0,
            factor: 4.0,
            stages: 2,
        }]);
        let mut cfg = ClusterConfig::test(1).with_faults(plan);
        cfg.cost.stage_latency = 0.0;
        let c = Cluster::new(cfg);
        let task = TaskCost { machine: 0, flops: 2e9, input_bytes: 0, output_bytes: 0 };
        let clean = 2e9 * c.config().cost.seconds_per_flop / 2.0;
        let mut spans = Vec::new();
        for _ in 0..4 {
            let before = c.now();
            c.run_stage(&[task]).unwrap();
            spans.push(c.now() - before);
        }
        assert!((spans[0] - clean).abs() < 1e-9, "before the window");
        assert!((spans[1] - 4.0 * clean).abs() < 1e-9, "window stage 1");
        assert!((spans[2] - 4.0 * clean).abs() < 1e-9, "window stage 2");
        assert!((spans[3] - clean).abs() < 1e-9, "after the window");
        let m = c.metrics();
        assert_eq!(m.faults_injected, 1, "a window counts once");
        assert!((m.recovery_seconds - 2.0 * 3.0 * clean).abs() < 1e-9);
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let a = Cluster::new(ClusterConfig::test(2));
        let b = Cluster::new(ClusterConfig::test(2).with_faults(FaultPlan::none()));
        for c in [&a, &b] {
            c.reserve(0, 1000).unwrap();
            c.run_stage(&[TaskCost { machine: 1, flops: 3e7, input_bytes: 64, output_bytes: 8 }])
                .unwrap();
            c.shuffle(&[40, 0], &[0, 40]).unwrap();
        }
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(ma, mb);
        assert_eq!(ma.virtual_seconds.to_bits(), mb.virtual_seconds.to_bits());
        assert_eq!(ma.recovery_seconds, 0.0);
        assert_eq!(ma.faults_injected, 0);
    }

    #[test]
    fn reservation_guard_releases_on_drop() {
        let c = Cluster::new(ClusterConfig::test(2).with_memory(1000));
        {
            let mut guard = MemoryReservation::new(&c);
            guard.reserve(0, 600).unwrap();
            guard.reserve(1, 400).unwrap();
            // A failed reservation is not held.
            assert!(guard.reserve(0, 600).is_err());
            assert_eq!(guard.held, [(0, 600), (1, 400)]);
        }
        // Everything the guard held was released; capacity is free again.
        assert!(c.reserve(0, 1000).is_ok());
        assert!(c.reserve(1, 1000).is_ok());
        // The high-water mark still remembers the guard's footprint.
        assert_eq!(c.metrics().peak_resident, 1000);
    }

    #[test]
    fn reservation_guard_survives_a_crash_wipe() {
        let plan = FaultPlan::new(vec![Fault::MachineCrash { at_stage: 0, machine: 0 }]);
        let c = Cluster::new(ClusterConfig::test(1).with_memory(1000).with_faults(plan));
        let mut guard = MemoryReservation::new(&c);
        guard.reserve(0, 800).unwrap();
        let err = c.run_stage(&[]).unwrap_err();
        assert!(matches!(err, DataflowError::MachineLost { .. }));
        drop(guard); // releases bytes the crash already wiped — harmless
        assert!(c.reserve(0, 1000).is_ok());
    }
}
