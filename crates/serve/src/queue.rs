//! Bounded, work-conserving request queue with per-tenant fair queuing
//! and admission control.
//!
//! Callers [`submit`](ServeQueue::submit) requests and get back a
//! [`Ticket`]; worker threads drain the queue in batches, coalescing
//! queued point lookups into one [`Engine::batch`] call so the shared
//! rank loop amortizes across concurrent callers.
//!
//! ## Work-conserving batching
//!
//! A worker parks only when the queue is empty, and the moment it is
//! free it takes whatever is queued (up to `max_batch`). A batch is
//! therefore exactly what arrived while the previous one executed: about
//! one request under light load, full batches under overload. Nothing
//! lingers for company, so there is no batching delay to tune. A submit
//! wakes a worker only when one is parked (a count kept under the lane
//! lock says so); while the workers are busy a submit makes no system
//! call at all.
//!
//! ## Backpressure and admission control
//!
//! Backpressure is explicit and layered, and checked in this order:
//!
//! 1. **Capacity** — when the queue is at capacity, `submit` returns
//!    [`ServeError::QueueFull`] instead of buffering unboundedly.
//! 2. **Load shedding** (opt-in via [`AdmissionControl`]) — past a depth
//!    watermark, over a tenant's queue share, or holding a deadline the
//!    backlog makes infeasible, the request is *accepted and immediately
//!    answered* with a typed [`Response::Shed`], so callers can tell "the
//!    server chose not to serve this" from failure, and every ticket
//!    still resolves to exactly one response.
//!
//! A submit takes the lane lock once: it finds its tenant's lane, then
//! decides capacity and every shedder on the depth it holds, so
//! `capacity` is an exact bound, and pushes. A request already past
//! its deadline when drained is answered [`Response::TimedOut`] (top-K
//! requests additionally degrade gracefully inside their own scan budget
//! — see [`Engine::topk`]).
//!
//! ## Fair queuing across tenants
//!
//! Requests are queued into per-tenant lanes and drained by deficit
//! round-robin: each visit grants a lane eight credits, each
//! dequeued request costs one, so a hot tenant flooding its lane cannot
//! starve the rest — every lane gets a proportional share of every batch.
//! With one tenant this degenerates to plain FIFO.
//!
//! The queue fronts a [`ModelRegistry`] ([`ServeQueue::with_registry`]);
//! [`ServeQueue::new`] fronts a one-tenant registry of its engine, named
//! `"default"`. A lane is created by the first submit naming a registered
//! tenant and resolves that tenant's [`LiveEngine`] then, once (the
//! registry is append-only); a submit naming any other tenant is
//! [`ServeError::UnknownTenant`]. A drained batch pins each lane's
//! generation once, so a publish landing mid-batch never splits a batch
//! across models.
//!
//! With `workers: 0` no threads are spawned and the owner drives the
//! queue by calling [`drain_once`](ServeQueue::drain_once) — this is the
//! deterministic mode the tests and the replay harness use.

use crate::engine::Engine;
use crate::live::{LiveEngine, Pinned};
use crate::registry::ModelRegistry;
use crate::ticket::{Promise, Request, Response, ShedReason, Ticket};
use crate::{Result, ServeError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lane of a submit that names no tenant, and the one tenant of a
/// [`ServeQueue::new`] queue.
const DEFAULT_TENANT: &str = "default";

/// Deficit-round-robin credits granted per lane visit when forming a
/// batch.
const FAIR_QUANTUM: usize = 8;

/// Opt-in load-shedding policy (see the module docs). The default sheds
/// nothing: the only backpressure is the capacity bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Shed submissions once the queue holds this many requests
    /// (`None` = off). Set below `capacity` to keep a reserve of queue
    /// space and bound the waiting time of admitted requests.
    pub shed_watermark: Option<usize>,
    /// Shed submissions whose end-to-end deadline the current backlog
    /// already makes infeasible: the wait is estimated as the batches
    /// ahead of the request times the workers' measured mean batch
    /// service time (zero, so nothing is shed, until a batch has run).
    pub deadline_aware: bool,
    /// Shed a tenant's submissions while it already has this many queued
    /// (`None` = off). Caps how much of the shared queue one tenant can
    /// hold, complementing drain-side fairness with admit-side fairness.
    pub tenant_share: Option<usize>,
}

/// Tunables for [`ServeQueue`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum queued (not yet drained) requests before `submit` rejects.
    pub capacity: usize,
    /// Maximum requests drained and executed together.
    pub max_batch: usize,
    /// Worker threads to spawn (0 = manual draining via `drain_once`).
    pub workers: usize,
    /// Load-shedding policy (default: shed nothing).
    pub admission: AdmissionControl,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 1024,
            max_batch: 64,
            workers: 1,
            admission: AdmissionControl::default(),
        }
    }
}

/// Per-request options of [`ServeQueue::submit_with`]; the default is
/// what [`ServeQueue::submit`] uses.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOpts<'a> {
    /// The registered tenant to queue for: its lane, and the engine that
    /// serves it. Defaults to `"default"`, the one tenant of a
    /// [`ServeQueue::new`] queue.
    pub tenant: &'a str,
    /// The request must *start* executing within this long of
    /// submission; otherwise it resolves to [`Response::TimedOut`].
    pub deadline: Option<Duration>,
}

impl Default for SubmitOpts<'_> {
    fn default() -> Self {
        SubmitOpts { tenant: DEFAULT_TENANT, deadline: None }
    }
}

#[derive(Debug)]
struct Job {
    req: Request,
    /// Index of the job's lane in `QueueState::lanes`.
    lane: usize,
    deadline: Option<Instant>,
    admitted: Instant,
    promise: Promise,
}

/// One tenant's FIFO lane, the engine that serves it, and its
/// deficit-round-robin credit.
#[derive(Debug)]
struct Lane {
    tenant: Arc<str>,
    engine: Arc<LiveEngine>,
    jobs: VecDeque<Job>,
    deficit: usize,
    peak: usize,
}

/// All queued work, organized into per-tenant lanes (append-only, so a
/// lane's index names it for the queue's lifetime).
#[derive(Debug, Default)]
struct QueueState {
    lanes: Vec<Lane>,
    by_tenant: HashMap<Arc<str>, usize>,
    /// Requests queued across all lanes.
    total: usize,
    cursor: usize,
    /// Workers waiting on `Shared::cv` for the queue to become non-empty.
    parked: usize,
}

impl QueueState {
    /// The lane of `tenant`, created on its first submit with the engine
    /// `registry` holds for it.
    fn lane_index(&mut self, tenant: &str, registry: &ModelRegistry) -> Result<usize> {
        if let Some(&i) = self.by_tenant.get(tenant) {
            return Ok(i);
        }
        let engine =
            registry.engine(tenant).ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        let name: Arc<str> = Arc::from(tenant);
        let lane =
            Lane { tenant: Arc::clone(&name), engine, jobs: VecDeque::new(), deficit: 0, peak: 0 };
        self.lanes.push(lane);
        self.by_tenant.insert(name, self.lanes.len() - 1);
        Ok(self.lanes.len() - 1)
    }
}

#[derive(Debug)]
struct Shared {
    /// The tenants served; queue-level counters go to its fleet metrics.
    registry: Arc<ModelRegistry>,
    cfg: QueueConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Running mean of one batch's service time in nanoseconds (0 until
    /// a batch has run). A statistic: relaxed, and a lost update between
    /// two workers is harmless.
    service_nanos: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("a thread panicked holding the queue lock")
    }

    /// Fold one batch's service time into the running mean (weight 1/8,
    /// so the estimate follows a model swap within a few batches).
    fn note_service(&self, took: Duration) {
        let sample = took.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mean = self.service_nanos.load(Ordering::Relaxed);
        let next = if mean == 0 { sample } else { mean - mean / 8 + sample / 8 };
        self.service_nanos.store(next, Ordering::Relaxed);
    }
}

/// Bounded, batching front of a [`ModelRegistry`].
#[derive(Debug)]
pub struct ServeQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeQueue {
    /// Serve `engine` as the one tenant, `"default"`, and spawn the
    /// configured worker threads. Queue counters go to the engine's own
    /// metrics, so queue and engine accounting stay one stream.
    pub fn new(engine: Arc<Engine>, cfg: QueueConfig) -> Result<Self> {
        Self::with_registry(Arc::new(ModelRegistry::of_engine(DEFAULT_TENANT, engine)), cfg)
    }

    /// Front a multi-model [`ModelRegistry`]: each request is routed to
    /// the engine of its [`SubmitOpts::tenant`], and queue counters go to
    /// the registry's fleet metrics. Tenant-less submits go to a tenant
    /// named `"default"` (servable only if one is registered).
    pub fn with_registry(registry: Arc<ModelRegistry>, cfg: QueueConfig) -> Result<Self> {
        let counts = [
            ("capacity", Some(cfg.capacity)),
            ("max_batch", Some(cfg.max_batch)),
            ("shed_watermark", cfg.admission.shed_watermark),
            ("tenant_share", cfg.admission.tenant_share),
        ];
        if let Some((name, _)) = counts.iter().find(|(_, count)| *count == Some(0)) {
            return Err(ServeError::BadConfig(format!("queue {name} must be at least 1")));
        }
        let shared = Arc::new(Shared {
            registry,
            cfg: cfg.clone(),
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            service_nanos: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(ServeQueue { shared, workers })
    }

    /// Enqueue a request into the default lane with no deadline.
    pub fn submit(&self, req: Request) -> Result<Ticket> {
        self.submit_with(req, SubmitOpts::default())
    }

    /// Enqueue a request into `opts.tenant`'s lane with an optional
    /// end-to-end deadline. A tenant the registry does not hold is
    /// [`ServeError::UnknownTenant`], with nothing queued or counted. A
    /// caller that wants to ride out a momentary
    /// [`ServeError::QueueFull`] loops over this (see
    /// [`crate::replay_queued`]); every refused attempt counts in
    /// [`queue_rejections`](crate::MetricsSnapshot::queue_rejections).
    pub fn submit_with(&self, req: Request, opts: SubmitOpts<'_>) -> Result<Ticket> {
        let shared = &*self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let (cfg, metrics) = (&shared.cfg, shared.registry.metrics());
        let (ticket, promise) = Ticket::pending();
        let admitted = Instant::now();
        let mut state = shared.lock();
        let lane = state.lane_index(opts.tenant, &shared.registry)?;
        // Capacity first (a full queue is a submit-side error, not a
        // shed), then the shedders: the watermark, the tenant's share,
        // the deadline.
        let ahead = state.total;
        if ahead >= cfg.capacity {
            drop(state);
            metrics.queue_rejection();
            return Err(ServeError::QueueFull { capacity: cfg.capacity });
        }
        let queued = state.lanes[lane].jobs.len();
        let watermark = cfg.admission.shed_watermark.filter(|&w| ahead >= w);
        let over_share = cfg.admission.tenant_share.filter(|&share| queued >= share);
        let judged = opts.deadline.filter(|_| cfg.admission.deadline_aware);
        let infeasible = judged.and_then(|deadline| {
            let batches_ahead = (ahead / cfg.max_batch) as u32 + 1;
            let mean = Duration::from_nanos(shared.service_nanos.load(Ordering::Relaxed));
            let estimated = mean.saturating_mul(batches_ahead);
            (estimated > deadline).then_some(ShedReason::DeadlineInfeasible { estimated, deadline })
        });
        if let Some(reason) = watermark
            .map(|watermark| ShedReason::QueueDepth { depth: ahead, watermark })
            .or(over_share.map(|share| ShedReason::TenantShare { queued, share }))
            .or(infeasible)
        {
            drop(state);
            // Accepted and answered at once: the ticket still resolves
            // exactly once.
            metrics.shed(&reason);
            promise.fulfil(Response::Shed(reason));
            return Ok(ticket);
        }
        let deadline = opts.deadline.map(|d| admitted + d);
        state.lanes[lane].jobs.push_back(Job { req, lane, deadline, admitted, promise });
        state.lanes[lane].peak = state.lanes[lane].peak.max(queued + 1);
        state.total += 1;
        // Wake a worker only if one is parked: a busy one looks at the
        // lanes again before it parks, so this submit needs no system call.
        let wake = state.parked > 0;
        drop(state);
        metrics.submitted(ahead + 1, wake);
        if wake {
            shared.cv.notify_one();
        }
        Ok(ticket)
    }

    /// Requests currently queued (not yet drained).
    pub fn len(&self) -> usize {
        self.shared.lock().total
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-tenant queue occupancy: `(tenant, queued now, peak queued)`
    /// for every lane that has ever held a request, sorted by tenant.
    pub fn occupancy(&self) -> Vec<(String, usize, usize)> {
        let lanes = &self.shared.lock().lanes;
        let mut rows: Vec<_> =
            lanes.iter().map(|l| (l.tenant.to_string(), l.jobs.len(), l.peak)).collect();
        rows.sort();
        rows
    }

    /// Drain and execute one batch synchronously, without waiting, and
    /// return how many requests it held: how a `workers: 0` queue is driven.
    pub fn drain_once(&self) -> usize {
        let mut scratch = Scratch::default();
        take_batch(&self.shared, &mut self.shared.lock(), &mut scratch);
        execute(&self.shared, &mut scratch)
    }

    /// Stop accepting work, let workers finish what is queued, and join
    /// them. Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Under the lock, so a worker between its shutdown check and its
        // wait cannot miss the wake-up.
        drop(self.shared.lock());
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // In manual mode serve the stragglers here: no ticket is left dangling.
        while self.drain_once() > 0 {}
    }
}

impl Drop for ServeQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Form one batch by deficit round-robin over the tenant lanes: each
/// visited lane earns [`FAIR_QUANTUM`] credits, each dequeued job spends
/// one, an emptied lane forfeits its balance. Jobs within a lane leave in
/// FIFO order; with a single lane the whole batch is plain FIFO.
fn drr_batch(state: &mut QueueState, max_batch: usize, batch: &mut Vec<Job>) {
    // `total` counts the jobs in the lanes, so while it is positive the
    // cursor reaches a non-empty lane.
    while batch.len() < max_batch && state.total > 0 {
        let li = state.cursor % state.lanes.len();
        let lane = &mut state.lanes[li];
        if lane.jobs.is_empty() {
            lane.deficit = 0;
            state.cursor += 1;
            continue;
        }
        lane.deficit += FAIR_QUANTUM;
        while lane.deficit > 0 && batch.len() < max_batch {
            let Some(job) = lane.jobs.pop_front() else { break };
            batch.push(job);
            lane.deficit -= 1;
            state.total -= 1;
        }
        if lane.jobs.is_empty() {
            lane.deficit = 0;
        }
        if lane.deficit == 0 || lane.jobs.is_empty() {
            // Lane spent its credit (or emptied): move on. A lane cut off
            // by a full batch keeps its balance and the cursor, so the
            // next batch resumes exactly where fairness paused.
            state.cursor += 1;
        } else {
            break; // batch is full mid-lane
        }
    }
}

/// What one drainer reuses from batch to batch, so forming and serving a
/// batch allocates nothing of its own. Everything indexed by lane is as
/// long as `engines`.
#[derive(Default)]
struct Scratch {
    jobs: Vec<Job>,
    responses: Vec<Option<Response>>,
    /// Engine of each lane, copied from the append-only lane list.
    engines: Vec<Arc<LiveEngine>>,
    /// The generation each lane serves this batch from.
    pins: Vec<Option<Pinned>>,
    /// The batch's coalesced point lookups, per lane.
    points: Vec<PointGroup>,
}

/// One lane's point lookups: where each answer goes, and its index tuple.
#[derive(Default)]
struct PointGroup {
    slots: Vec<usize>,
    indices: Vec<Vec<usize>>,
}

/// Pop up to `max_batch` jobs into `scratch.jobs` without blocking.
fn take_batch(shared: &Shared, state: &mut QueueState, scratch: &mut Scratch) {
    drr_batch(state, shared.cfg.max_batch, &mut scratch.jobs);
    let known = scratch.engines.len();
    scratch.engines.extend(state.lanes[known..].iter().map(|l| Arc::clone(&l.engine)));
    if !scratch.jobs.is_empty() {
        shared.registry.metrics().queue_depth_update(state.total);
    }
}

fn worker_loop(shared: &Shared) {
    let mut scratch = Scratch::default();
    loop {
        {
            let mut state = shared.lock();
            // Park only on an empty queue; whatever is queued by the time
            // this worker is free is the next batch.
            while state.total == 0 {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                state.parked += 1;
                state = shared.cv.wait(state).expect("a thread panicked holding the queue lock");
                state.parked -= 1;
            }
            take_batch(shared, &mut state, &mut scratch);
        }
        execute(shared, &mut scratch);
    }
}

/// Serve the batch in `scratch.jobs`: validate, coalesce each lane's
/// point lookups into a single engine batch call, run batch/top-K jobs
/// individually, and deliver every response. Each lane's generation is
/// pinned once for the whole batch. Returns the number of requests
/// answered.
fn execute(shared: &Shared, scratch: &mut Scratch) -> usize {
    let Scratch { jobs, responses, engines, pins, points } = scratch;
    if jobs.is_empty() {
        return 0;
    }
    let metrics = shared.registry.metrics();
    metrics.batch_executed();
    // The dequeue stamp: queue wait ends and service begins here.
    let now = Instant::now();
    pins.resize_with(engines.len(), || None);
    points.resize_with(engines.len(), PointGroup::default);
    responses.resize_with(jobs.len(), || None);

    for (slot, job) in jobs.iter_mut().enumerate() {
        let engine = pins[job.lane].get_or_insert_with(|| engines[job.lane].pin()).engine();
        if job.deadline.is_some_and(|dl| now >= dl) {
            metrics.deadline_miss();
            responses[slot] = Some(Response::TimedOut);
            continue;
        }
        match &mut job.req {
            Request::Point { index } => match engine.validate_index(index) {
                Ok(()) => {
                    // The job is done with its tuple: move it, don't copy.
                    points[job.lane].slots.push(slot);
                    points[job.lane].indices.push(std::mem::take(index));
                }
                Err(e) => responses[slot] = Some(Response::Error(e)),
            },
            Request::Batch { indices } => {
                responses[slot] = Some(match engine.batch(indices) {
                    Ok(values) => Response::Values(values),
                    Err(e) => Response::Error(e),
                });
            }
            Request::TopK { query, budget } => {
                // Clip the scan budget to whatever end-to-end time remains.
                let remaining = job.deadline.map(|dl| dl.saturating_duration_since(now));
                let effective = match (*budget, remaining) {
                    (Some(b), Some(r)) => Some(b.min(r)),
                    (Some(b), None) => Some(b),
                    (None, r) => r,
                };
                responses[slot] = Some(match engine.topk(query, effective) {
                    Ok(res) => Response::TopK(res),
                    Err(e) => Response::Error(e),
                });
            }
        }
    }

    for (group, pin) in points.iter_mut().zip(pins.iter()) {
        if group.slots.is_empty() {
            continue;
        }
        let engine = pin.as_ref().expect("a lane with points was pinned").engine();
        match engine.batch(&group.indices) {
            Ok(values) => {
                for (&slot, value) in group.slots.iter().zip(values) {
                    responses[slot] = Some(Response::Value(value));
                }
            }
            Err(e) => {
                for &slot in &group.slots {
                    responses[slot] = Some(Response::Error(e.clone()));
                }
            }
        }
        group.slots.clear();
        group.indices.clear();
    }

    let answered = jobs.len();
    for (job, response) in jobs.drain(..).zip(responses.drain(..)) {
        let response =
            response.unwrap_or(Response::Error(ServeError::BadQuery("unserved job".into())));
        // Latency is recorded for answered requests only — timeouts and
        // errors have their own counters.
        if matches!(response, Response::Value(_) | Response::Values(_) | Response::TopK(_)) {
            let queue_wait = now.saturating_duration_since(job.admitted);
            metrics.record_served(queue_wait, job.admitted.elapsed());
        }
        job.promise.fulfil(response);
    }
    // Let go of the batch's generations: the next batch pins afresh.
    pins.fill_with(|| None);
    shared.note_service(now.elapsed());
    answered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::topk::TopKQuery;
    use distenc_tensor::KruskalTensor;

    fn test_engine() -> Arc<Engine> {
        let model = KruskalTensor::random(&[40, 20, 10], 4, 21);
        Arc::new(Engine::new(&model, EngineConfig::default()).unwrap())
    }

    fn manual_cfg() -> QueueConfig {
        QueueConfig { workers: 0, ..Default::default() }
    }

    fn point(i: usize, j: usize, k: usize) -> Request {
        Request::Point { index: vec![i, j, k] }
    }

    fn topk(j: usize, k: usize) -> Request {
        Request::TopK { query: TopKQuery { mode: 0, at: vec![0, j, k], k: 3 }, budget: None }
    }

    fn tenant(tenant: &str) -> SubmitOpts<'_> {
        SubmitOpts { tenant, ..Default::default() }
    }

    fn within(deadline: Duration) -> SubmitOpts<'static> {
        SubmitOpts { deadline: Some(deadline), ..Default::default() }
    }

    #[test]
    fn manual_drain_coalesces_points() {
        let engine = test_engine();
        let queue = ServeQueue::new(Arc::clone(&engine), manual_cfg()).unwrap();
        let tickets: Vec<Ticket> =
            (0..10).map(|i| queue.submit(point(i, i, i % 10)).unwrap()).collect();
        assert_eq!(queue.len(), 10);
        assert_eq!(queue.drain_once(), 10);
        for (i, t) in tickets.into_iter().enumerate() {
            let idx = [i, i, i % 10];
            match t.wait() {
                Response::Value(v) => assert_eq!(v, engine.point(&idx).unwrap()),
                other => panic!("expected value, got {other:?}"),
            }
        }
        // All ten points were served by ONE coalesced engine batch call.
        let s = engine.snapshot();
        assert_eq!(s.batches_executed, 1);
        assert_eq!(s.batch_queries, 1);
        assert_eq!(s.batch_points, 10);
    }

    #[test]
    fn queue_rejects_when_full() {
        let engine = test_engine();
        let cfg = QueueConfig { capacity: 2, ..manual_cfg() };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let _t1 = queue.submit(point(0, 0, 0)).unwrap();
        let _t2 = queue.submit(point(1, 1, 1)).unwrap();
        // Every refused attempt counts: the pressure was real each time.
        for refused in 1..=3 {
            match queue.submit(point(2, 2, 2)) {
                Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
                other => panic!("expected QueueFull, got {other:?}"),
            }
            assert_eq!(engine.snapshot().queue_rejections, refused);
        }
        assert_eq!(queue.len(), 2, "a refusal leaves no reservation behind");
        queue.drain_once();
        assert!(queue.submit(point(2, 2, 2)).is_ok(), "capacity reappears with the drain");
    }

    #[test]
    fn expired_deadline_times_out() {
        let engine = test_engine();
        let queue = ServeQueue::new(Arc::clone(&engine), manual_cfg()).unwrap();
        // A zero deadline has passed by any later reading of the clock.
        let late = queue.submit_with(point(1, 2, 3), within(Duration::ZERO)).unwrap();
        let fine = queue.submit(point(1, 2, 3)).unwrap();
        queue.drain_once();
        assert_eq!(late.wait(), Response::TimedOut);
        assert!(matches!(fine.wait(), Response::Value(_)));
        assert_eq!(engine.snapshot().deadline_misses, 1);
    }

    #[test]
    fn invalid_requests_fail_individually() {
        let engine = test_engine();
        let queue = ServeQueue::new(engine, manual_cfg()).unwrap();
        let bad = queue.submit(point(99, 0, 0)).unwrap();
        let good = queue.submit(point(0, 0, 0)).unwrap();
        queue.drain_once();
        assert!(matches!(bad.wait(), Response::Error(ServeError::BadQuery(_))));
        assert!(matches!(good.wait(), Response::Value(_)));
    }

    #[test]
    fn worker_threads_serve_mixed_load() {
        let engine = test_engine();
        let cfg = QueueConfig { workers: 2, ..Default::default() };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let mut tickets = Vec::new();
        for i in 0..100usize {
            let req = match i % 3 {
                0 => point(i % 40, i % 20, i % 10),
                1 => Request::Batch {
                    indices: vec![vec![0, 0, 0], vec![i % 40, i % 20, i % 10]],
                },
                _ => topk(i % 20, i % 10),
            };
            tickets.push(queue.submit(req).unwrap());
        }
        for t in tickets {
            match t.wait() {
                Response::Value(v) => assert!(v.is_finite()),
                Response::Values(vs) => assert_eq!(vs.len(), 2),
                Response::TopK(res) => assert_eq!(res.items.len(), 3),
                other => panic!("unexpected response {other:?}"),
            }
        }
        // 34 coalesced points + 33 batches of 2 = 100 entries scored via
        // the batch path; the 33 top-K requests are counted separately.
        let s = engine.snapshot();
        assert_eq!(s.batch_points, 100);
        assert_eq!(s.topk_queries, 33);
        assert_eq!((s.submits, s.e2e_recorded), (100, 100));
    }

    /// The wake rule, host-independently: a submit pays for a wake-up only
    /// when it finds a worker parked, so never without workers and at
    /// most once per submit with them.
    #[test]
    fn a_submit_wakes_only_a_parked_worker() {
        const N: u64 = 200;
        let engine = test_engine();
        let queue = ServeQueue::new(Arc::clone(&engine), manual_cfg()).unwrap();
        for i in 0..N as usize {
            queue.submit(point(i % 40, i % 20, i % 10)).unwrap();
        }
        while queue.drain_once() > 0 {}
        let s = engine.snapshot();
        assert_eq!((s.submits, s.worker_wakes), (N, 0), "nobody is parked: nobody is woken");
        assert!(s.queue_wait_p50 <= s.queue_wait_p99 && s.queue_wait_p99 <= s.e2e_p99);

        let engine = test_engine();
        let queue = ServeQueue::new(Arc::clone(&engine), QueueConfig::default()).unwrap();
        for i in 0..N as usize {
            // Waiting for each answer lets the one worker drain to empty.
            let ticket = queue.submit(point(i % 40, i % 20, i % 10)).unwrap();
            assert!(matches!(ticket.wait(), Response::Value(_)));
        }
        let s = engine.snapshot();
        assert_eq!(s.submits, N);
        assert!(s.worker_wakes <= N, "{} wakes for {N} submits", s.worker_wakes);
    }

    #[test]
    fn shutdown_serves_queued_work_and_rejects_new() {
        let engine = test_engine();
        let mut queue = ServeQueue::new(engine, manual_cfg()).unwrap();
        let pending = queue.submit(point(3, 4, 5)).unwrap();
        queue.shutdown();
        assert!(matches!(pending.wait(), Response::Value(_)));
        assert!(matches!(queue.submit(point(0, 0, 0)), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn watermark_sheds_with_typed_response() {
        let engine = test_engine();
        let cfg = QueueConfig {
            capacity: 8,
            admission: AdmissionControl { shed_watermark: Some(2), ..Default::default() },
            ..manual_cfg()
        };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let a = queue.submit(point(0, 0, 0)).unwrap();
        let b = queue.submit(point(1, 1, 1)).unwrap();
        // Third submission meets the watermark: accepted, answered Shed.
        let shed = queue.submit(point(2, 2, 2)).unwrap();
        let reason = ShedReason::QueueDepth { depth: 2, watermark: 2 };
        assert_eq!(shed.wait(), Response::Shed(reason));
        assert_eq!(queue.len(), 2, "shed submissions are never queued");
        queue.drain_once();
        assert!(matches!(a.wait(), Response::Value(_)));
        assert!(matches!(b.wait(), Response::Value(_)));
        let s = engine.snapshot();
        assert_eq!(s.sheds_queue_depth, 1);
        assert_eq!(s.queue_rejections, 0, "a shed is not a rejection");
        assert_eq!(s.e2e_recorded, 2, "only served requests get e2e latency");
    }

    /// Feasibility is judged from the measured batch service time:
    /// nothing is shed before a batch has run, and afterwards the
    /// estimate is that mean times the batches ahead of the request.
    #[test]
    fn deadline_aware_admission_sheds_infeasible_deadlines() {
        let engine = test_engine();
        let cfg = QueueConfig {
            max_batch: 4,
            admission: AdmissionControl { deadline_aware: true, ..Default::default() },
            ..manual_cfg()
        };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let tight = Duration::from_nanos(1);
        let estimate_for = |deadline| {
            match queue.submit_with(point(1, 1, 1), within(deadline)).unwrap().wait() {
                Response::Shed(ShedReason::DeadlineInfeasible { estimated, deadline: d }) => {
                    assert_eq!(d, deadline);
                    estimated
                }
                other => panic!("expected a deadline shed, got {other:?}"),
            }
        };
        // No batch has run: the estimate is zero and even 1 ns is admitted.
        let unmeasured = queue.submit_with(point(0, 0, 0), within(tight)).unwrap();
        // Two batches of real work seed the mean.
        for j in 0..2 {
            let scan = queue.submit(topk(j, j)).unwrap();
            queue.drain_once();
            assert!(matches!(scan.wait(), Response::TopK(_)));
        }
        assert_eq!(unmeasured.wait(), Response::TimedOut, "admitted, then late at the drain");
        let one_batch = estimate_for(tight);
        assert!(one_batch > tight, "a top-K scan takes more than 1 ns");
        // A deadline the estimate just meets is feasible; none is never shed.
        let met = queue.submit_with(point(2, 2, 2), within(one_batch)).unwrap();
        let free = queue.submit(point(3, 3, 3)).unwrap();
        // Four queued fill the one batch ahead: the next waits for two.
        let fill: Vec<Ticket> = (0..2).map(|i| queue.submit(point(i, i, i)).unwrap()).collect();
        assert_eq!(queue.len(), 4);
        assert_eq!(estimate_for(one_batch), 2 * one_batch);
        queue.drain_once();
        for t in fill.into_iter().chain([met, free]) {
            assert!(matches!(t.wait(), Response::Value(_) | Response::TimedOut));
        }
        assert_eq!(engine.snapshot().sheds_deadline, 2);
    }

    /// A registry serving one model to each of `tenants`.
    fn test_registry(tenants: &[&str]) -> Arc<ModelRegistry> {
        let model = KruskalTensor::random(&[40, 20, 10], 4, 21);
        let reg = Arc::new(ModelRegistry::new());
        for name in tenants {
            reg.register(name, &model, EngineConfig::default()).unwrap();
        }
        reg
    }

    #[test]
    fn tenant_share_caps_one_tenant_without_touching_others() {
        let reg = test_registry(&["hot", "cold"]);
        let cfg = QueueConfig {
            admission: AdmissionControl { tenant_share: Some(2), ..Default::default() },
            ..manual_cfg()
        };
        let queue = ServeQueue::with_registry(Arc::clone(&reg), cfg).unwrap();
        let hot: Vec<Ticket> =
            (0..4).map(|i| queue.submit_with(point(i, i, i), tenant("hot")).unwrap()).collect();
        // Cold tenant is unaffected by hot's cap.
        let cold = queue.submit_with(point(5, 5, 5), tenant("cold")).unwrap();
        assert_eq!(queue.len(), 3, "a shed gives its reservation back");
        queue.drain_once();
        let outcomes: Vec<Response> = hot.into_iter().map(Ticket::wait).collect();
        let served = outcomes.iter().filter(|r| matches!(r, Response::Value(_))).count();
        let shed = outcomes
            .iter()
            .filter(|r| matches!(r, Response::Shed(ShedReason::TenantShare { .. })))
            .count();
        assert_eq!(served, 2);
        assert_eq!(shed, 2);
        assert!(matches!(cold.wait(), Response::Value(_)));
        assert_eq!(reg.snapshot().sheds_tenant_share, 2);
    }

    #[test]
    fn drr_interleaves_hot_and_cold_tenants() {
        let reg = test_registry(&["hot", "cold"]);
        let cfg = QueueConfig { max_batch: 16, ..manual_cfg() };
        let queue = ServeQueue::with_registry(reg, cfg).unwrap();
        // Hot floods 60 requests before cold submits 5.
        let hot: Vec<Ticket> = (0..60)
            .map(|i| queue.submit_with(point(i % 40, i % 20, i % 10), tenant("hot")).unwrap())
            .collect();
        let cold: Vec<Ticket> =
            (0..5).map(|i| queue.submit_with(point(i, i, i), tenant("cold")).unwrap()).collect();

        // The first 16-request batch: hot's quantum of 8, then all 5 of
        // cold's instead of waiting behind all 60 hot ones, then 3 more
        // of hot's.
        assert_eq!(queue.drain_once(), 16);
        let hot_left = queue.occupancy().into_iter().find(|(n, _, _)| n == "hot").map(|r| r.1);
        assert_eq!(hot_left, Some(60 - 11));
        let cold_served = cold
            .into_iter()
            .filter(|t| matches!(t.wait_for(Duration::ZERO), Some(Response::Value(_))))
            .count();
        assert_eq!(cold_served, 5, "cold tenant must not be starved by hot backlog");

        while queue.drain_once() > 0 {}
        for t in hot {
            assert!(matches!(t.wait(), Response::Value(_)));
        }
        let occ = queue.occupancy();
        assert_eq!(occ.len(), 2);
        let hot_row = occ.iter().find(|(n, _, _)| n == "hot").unwrap();
        assert_eq!(hot_row.1, 0);
        assert_eq!(hot_row.2, 60, "peak occupancy tracks the flood");
    }

    #[test]
    fn registry_queue_routes_tenants_and_pins_generations() {
        let reg = Arc::new(ModelRegistry::new());
        let ma = KruskalTensor::random(&[30, 10, 5], 3, 51);
        let mb = KruskalTensor::random(&[12, 12], 2, 52);
        reg.register("a", &ma, EngineConfig::default()).unwrap();
        reg.register("b", &mb, EngineConfig::default()).unwrap();
        let queue = ServeQueue::with_registry(Arc::clone(&reg), manual_cfg()).unwrap();

        let ta = queue.submit_with(point(3, 4, 2), tenant("a")).unwrap();
        let tb = queue.submit_with(Request::Point { index: vec![7, 1] }, tenant("b")).unwrap();
        assert!(matches!(
            queue.submit_with(Request::Point { index: vec![0, 0] }, tenant("nope")),
            Err(ServeError::UnknownTenant(_))
        ));
        queue.drain_once();
        match ta.wait() {
            Response::Value(v) => assert_eq!(v.to_bits(), ma.eval(&[3, 4, 2]).to_bits()),
            other => panic!("tenant a: {other:?}"),
        }
        match tb.wait() {
            Response::Value(v) => assert_eq!(v.to_bits(), mb.eval(&[7, 1]).to_bits()),
            other => panic!("tenant b: {other:?}"),
        }
        // Queue accounting lands in the fleet metrics, query accounting
        // in each tenant's own stream.
        let fleet = reg.snapshot();
        assert_eq!(fleet.batches_executed, 1);
        assert_eq!(fleet.e2e_recorded, 2);
        let per_tenant = reg.tenant_snapshots();
        assert!(per_tenant.iter().all(|(_, s)| s.batch_points == 1));

        // A `ServeQueue::new` queue is a registry of one tenant, `default`.
        let engine = test_engine();
        let single = ServeQueue::new(Arc::clone(&engine), manual_cfg()).unwrap();
        let served = single.submit(point(1, 2, 3)).unwrap();
        assert!(matches!(
            single.submit_with(point(1, 2, 3), tenant("other")),
            Err(ServeError::UnknownTenant(name)) if name == "other"
        ));
        assert_eq!(single.len(), 1, "an unknown tenant queues nothing");
        assert_eq!(engine.snapshot().queue_rejections, 0, "and is no rejection");
        single.drain_once();
        assert!(matches!(served.wait(), Response::Value(_)));
        assert_eq!(engine.snapshot().batches_executed, 1, "queue events count in the engine");
    }
}
