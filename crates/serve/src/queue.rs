//! Bounded request queue with a batching window, per-tenant fair
//! queuing, and admission control.
//!
//! Callers [`submit`](ServeQueue::submit) requests and get back a
//! [`Ticket`]; worker threads drain the queue in batches, coalescing
//! queued point lookups into one [`Engine::batch`] call so the shared
//! rank loop amortizes across concurrent callers. A drain waits up to the
//! configured `window` for more work (or until `max_batch` requests are
//! queued), trading a bounded sliver of latency for batch efficiency.
//!
//! ## Backpressure and admission control
//!
//! Backpressure is explicit and layered:
//!
//! 1. **Capacity** — when the queue is at capacity, `submit` returns
//!    [`ServeError::QueueFull`] instead of buffering unboundedly (always
//!    on, same contract as ever).
//! 2. **Load shedding** (opt-in via [`AdmissionControl`]) — below
//!    capacity but past a depth watermark, over a tenant's queue share,
//!    or holding a deadline the backlog makes infeasible, the request is
//!    *accepted and immediately answered* with a typed
//!    [`Response::Shed`], so callers can distinguish "the server chose
//!    not to serve this" from failure, and every ticket still resolves to
//!    exactly one response.
//!
//! Each request may carry an end-to-end deadline; requests that are
//! already past it when drained are answered [`Response::TimedOut`]
//! (top-K requests additionally degrade gracefully inside their own scan
//! budget — see [`Engine::topk`]).
//!
//! ## Fair queuing across tenants
//!
//! Requests are queued into per-tenant lanes and drained by deficit
//! round-robin: each visit grants a lane `fair_quantum` credits, each
//! dequeued request costs one, so a hot tenant flooding its lane cannot
//! starve the rest — every lane gets a proportional share of every batch.
//! With one tenant (the default) this degenerates to plain FIFO.
//!
//! The queue fronts either a single [`Engine`] ([`ServeQueue::new`]) or a
//! multi-model [`ModelRegistry`] ([`ServeQueue::with_registry`]), where
//! each tenant lane maps to its registered [`crate::LiveEngine`] and a
//! drained batch pins each tenant's generation once — a publish landing
//! mid-batch never splits a batch across models.
//!
//! With `workers: 0` no threads are spawned and the owner drives the
//! queue by calling [`drain_once`](ServeQueue::drain_once) — this is the
//! deterministic mode the tests and the replay harness use.

use crate::engine::Engine;
use crate::metrics::ServeMetrics;
use crate::registry::ModelRegistry;
use crate::topk::{TopKQuery, TopKResult};
use crate::{Result, ServeError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lane label used by the tenant-less submit methods.
const DEFAULT_TENANT: &str = "default";

/// Opt-in load-shedding policy (see the module docs). The default sheds
/// nothing: the only backpressure is the capacity bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Shed submissions once the queue holds this many requests
    /// (`None` = off). Set below `capacity` to keep a reserve of queue
    /// space and bound the waiting time of admitted requests.
    pub shed_watermark: Option<usize>,
    /// Shed submissions whose end-to-end deadline the current backlog
    /// already makes infeasible (estimated as one batching window per
    /// pending batch ahead of the request — a deliberately cheap, rough
    /// lower bound on queue wait; it never counts execution time).
    pub deadline_aware: bool,
    /// Shed a tenant's submissions while it already has this many queued
    /// (`None` = off). Caps how much of the shared queue one tenant can
    /// hold, complementing drain-side fairness with admit-side fairness.
    pub tenant_share: Option<usize>,
}

/// Why a submission was shed (delivered inside [`Response::Shed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue was past the configured depth watermark.
    QueueDepth {
        /// Queue depth observed at admission.
        depth: usize,
        /// The configured watermark it met or exceeded.
        watermark: usize,
    },
    /// The backlog made the request's deadline infeasible at admission.
    DeadlineInfeasible {
        /// Estimated queue wait (batching windows ahead of the request).
        estimated: Duration,
        /// The deadline the request carried.
        deadline: Duration,
    },
    /// The tenant was over its configured share of the queue.
    TenantShare {
        /// Requests the tenant already had queued.
        queued: usize,
        /// The configured per-tenant share.
        share: usize,
    },
}

/// Tunables for [`ServeQueue`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum queued (not yet drained) requests before `submit` rejects.
    pub capacity: usize,
    /// Maximum requests drained and executed together.
    pub max_batch: usize,
    /// How long a drain lingers for more work before executing a partial
    /// batch. `Duration::ZERO` executes whatever is queued immediately.
    pub window: Duration,
    /// Worker threads to spawn (0 = manual draining via `drain_once`).
    pub workers: usize,
    /// Load-shedding policy (default: shed nothing).
    pub admission: AdmissionControl,
    /// Deficit-round-robin credits granted per lane visit when forming a
    /// batch. Smaller values interleave tenants more finely; with a
    /// single tenant the value is irrelevant (plain FIFO either way).
    pub fair_quantum: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 1024,
            max_batch: 64,
            window: Duration::from_micros(200),
            workers: 1,
            admission: AdmissionControl::default(),
            fair_quantum: 8,
        }
    }
}

/// Bounded retry-with-backoff for transient [`ServeError::QueueFull`]
/// rejections (see [`ServeQueue::submit_with_retry`]).
///
/// Backpressure from a bounded queue is usually momentary — a worker
/// drains a batch and capacity reappears — so a short, doubling backoff
/// turns most rejections into slightly-delayed acceptances without
/// letting a persistently overloaded queue buffer unboundedly: after
/// `attempts` rejections the caller gets the [`ServeError::QueueFull`]
/// and must shed the request.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total submission attempts (at least 1; 1 means no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles after each rejection.
    /// `Duration::ZERO` retries immediately (only useful when another
    /// thread is draining concurrently).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 4, backoff: Duration::from_micros(50) }
    }
}

/// A queued query.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One completed entry.
    Point {
        /// Full index tuple.
        index: Vec<usize>,
    },
    /// Many completed entries, scored in one engine pass.
    Batch {
        /// Full index tuples.
        indices: Vec<Vec<usize>>,
    },
    /// Top-K along a free mode.
    TopK {
        /// The ranking query.
        query: TopKQuery,
        /// Optional scan budget; an expiring scan returns best-so-far.
        budget: Option<Duration>,
    },
}

/// The answer delivered through a [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Point query result.
    Value(f64),
    /// Batch query results, in submission order.
    Values(Vec<f64>),
    /// Top-K query result (possibly degraded).
    TopK(TopKResult),
    /// The request was invalid or the queue shut down before serving it.
    Error(ServeError),
    /// The request's end-to-end deadline passed before it was drained.
    TimedOut,
    /// Admission control declined to serve the request (typed so callers
    /// can distinguish deliberate load shedding from failure).
    Shed(ShedReason),
}

/// Receipt for a submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Response>,
}

impl Ticket {
    /// Block until the response arrives. If the queue shuts down with the
    /// request still queued, this resolves to a `ShuttingDown` error.
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .unwrap_or(Response::Error(ServeError::ShuttingDown))
    }

    /// Wait up to `timeout` for the response.
    pub fn wait_for(&self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }
}

#[derive(Debug)]
struct Job {
    req: Request,
    tenant: Arc<str>,
    deadline: Option<Instant>,
    submitted: Instant,
    tx: SyncSender<Response>,
}

/// One tenant's FIFO lane plus its deficit-round-robin credit.
#[derive(Debug)]
struct Lane {
    tenant: Arc<str>,
    jobs: VecDeque<Job>,
    deficit: usize,
    peak: usize,
}

/// All queued work, organized into per-tenant lanes.
#[derive(Debug, Default)]
struct QueueState {
    lanes: Vec<Lane>,
    by_tenant: HashMap<Arc<str>, usize>,
    total: usize,
    cursor: usize,
}

impl QueueState {
    fn lane_index(&mut self, tenant: &str) -> usize {
        if let Some(&i) = self.by_tenant.get(tenant) {
            return i;
        }
        let name: Arc<str> = Arc::from(tenant);
        self.lanes.push(Lane {
            tenant: Arc::clone(&name),
            jobs: VecDeque::new(),
            deficit: 0,
            peak: 0,
        });
        self.by_tenant.insert(name, self.lanes.len() - 1);
        self.lanes.len() - 1
    }
}

/// What the queue serves into: one engine, or a keyed fleet of them.
#[derive(Debug)]
enum Backend {
    Single(Arc<Engine>),
    Registry(Arc<ModelRegistry>),
}

#[derive(Debug)]
struct Shared {
    backend: Backend,
    cfg: QueueConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Queue-level counters: the engine's own metrics in single mode (so
    /// queue and engine accounting stay one stream), the registry's
    /// fleet metrics in registry mode.
    metrics: Arc<ServeMetrics>,
}

/// Bounded, batching front of an [`Engine`] or a [`ModelRegistry`].
#[derive(Debug)]
pub struct ServeQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeQueue {
    /// Wrap `engine` and spawn the configured worker threads.
    pub fn new(engine: Arc<Engine>, cfg: QueueConfig) -> Result<Self> {
        let metrics = engine.metrics_handle();
        Self::build(Backend::Single(engine), cfg, metrics)
    }

    /// Front a multi-model [`ModelRegistry`]: requests submitted via
    /// [`submit_for`](ServeQueue::submit_for) are routed to their
    /// tenant's engine, and queue counters go to the registry's fleet
    /// metrics. Tenant-less submits go to a tenant named `"default"`
    /// (which must then be registered for them to be servable).
    pub fn with_registry(registry: Arc<ModelRegistry>, cfg: QueueConfig) -> Result<Self> {
        let metrics = registry.metrics_handle();
        Self::build(Backend::Registry(registry), cfg, metrics)
    }

    fn build(backend: Backend, cfg: QueueConfig, metrics: Arc<ServeMetrics>) -> Result<Self> {
        if cfg.capacity == 0 || cfg.max_batch == 0 {
            return Err(ServeError::BadConfig(
                "queue capacity and max_batch must be at least 1".into(),
            ));
        }
        if cfg.fair_quantum == 0 {
            return Err(ServeError::BadConfig("fair_quantum must be at least 1".into()));
        }
        if let Some(w) = cfg.admission.shed_watermark {
            if w == 0 {
                return Err(ServeError::BadConfig("shed_watermark must be at least 1".into()));
            }
        }
        if let Some(s) = cfg.admission.tenant_share {
            if s == 0 {
                return Err(ServeError::BadConfig("tenant_share must be at least 1".into()));
            }
        }
        let shared = Arc::new(Shared {
            backend,
            cfg: cfg.clone(),
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
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

    /// Enqueue a request with no end-to-end deadline.
    pub fn submit(&self, req: Request) -> Result<Ticket> {
        self.submit_for_with_deadline(DEFAULT_TENANT, req, None)
    }

    /// Enqueue a request that must *start* executing within `deadline`
    /// of submission; otherwise it resolves to [`Response::TimedOut`].
    pub fn submit_with_deadline(
        &self,
        req: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket> {
        self.submit_for_with_deadline(DEFAULT_TENANT, req, deadline)
    }

    /// Enqueue a request into `tenant`'s lane, with no deadline.
    pub fn submit_for(&self, tenant: &str, req: Request) -> Result<Ticket> {
        self.submit_for_with_deadline(tenant, req, None)
    }

    /// Enqueue a request into `tenant`'s lane with an optional
    /// end-to-end deadline. In registry mode the tenant must be
    /// registered; in single-engine mode the tenant is purely a fairness
    /// lane label and every lane is served by the one engine.
    pub fn submit_for_with_deadline(
        &self,
        tenant: &str,
        req: Request,
        deadline: Option<Duration>,
    ) -> Result<Ticket> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if let Backend::Registry(reg) = &self.shared.backend {
            if !reg.contains(tenant) {
                return Err(ServeError::UnknownTenant(tenant.to_string()));
            }
        }
        let cfg = &self.shared.cfg;
        let metrics = &self.shared.metrics;
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut state = self.shared.state.lock().expect("queue lock");
            // Capacity is checked first so the legacy contract is
            // unchanged: a full queue is a submit-side error, not a shed.
            if state.total >= cfg.capacity {
                metrics.queue_rejection();
                return Err(ServeError::QueueFull { capacity: cfg.capacity });
            }
            // Admission control: shed *through the ticket* so every
            // accepted submission resolves to exactly one response.
            if let Some(watermark) = cfg.admission.shed_watermark {
                if state.total >= watermark {
                    metrics.shed_queue_depth();
                    let _ = tx.send(Response::Shed(ShedReason::QueueDepth {
                        depth: state.total,
                        watermark,
                    }));
                    return Ok(Ticket { rx });
                }
            }
            let lane = state.lane_index(tenant);
            if let Some(share) = cfg.admission.tenant_share {
                let queued = state.lanes[lane].jobs.len();
                if queued >= share {
                    metrics.shed_tenant_share();
                    let _ =
                        tx.send(Response::Shed(ShedReason::TenantShare { queued, share }));
                    return Ok(Ticket { rx });
                }
            }
            if cfg.admission.deadline_aware {
                if let Some(d) = deadline {
                    // One batching window per pending batch ahead of us: a
                    // cheap lower bound on queue wait (execution excluded).
                    let batches_ahead = (state.total / cfg.max_batch) as u32 + 1;
                    let estimated = cfg.window.saturating_mul(batches_ahead);
                    if estimated > d {
                        metrics.shed_deadline();
                        let _ = tx.send(Response::Shed(ShedReason::DeadlineInfeasible {
                            estimated,
                            deadline: d,
                        }));
                        return Ok(Ticket { rx });
                    }
                }
            }
            let now = Instant::now();
            let tenant_name = Arc::clone(&state.lanes[lane].tenant);
            state.lanes[lane].jobs.push_back(Job {
                req,
                tenant: tenant_name,
                deadline: deadline.map(|d| now + d),
                submitted: now,
                tx,
            });
            state.lanes[lane].peak = state.lanes[lane].peak.max(state.lanes[lane].jobs.len());
            state.total += 1;
            metrics.queue_depth_update(state.total);
        }
        self.shared.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// [`submit`](ServeQueue::submit) with bounded retry on
    /// [`ServeError::QueueFull`].
    ///
    /// Each rejected attempt still counts in
    /// [`queue_rejections`](crate::MetricsSnapshot::queue_rejections)
    /// (the pressure was real), sleeps the policy's current backoff, and
    /// tries again; any other error — and a rejection on the final
    /// attempt — returns immediately. With `workers: 0` nothing drains
    /// between attempts unless another thread calls
    /// [`drain_once`](ServeQueue::drain_once), so retrying there only
    /// makes sense in multi-threaded harnesses.
    pub fn submit_with_retry(&self, req: Request, policy: &RetryPolicy) -> Result<Ticket> {
        let attempts = policy.attempts.max(1);
        let mut backoff = policy.backoff;
        for _ in 1..attempts {
            match self.submit(req.clone()) {
                Err(ServeError::QueueFull { .. }) => {
                    if backoff > Duration::ZERO {
                        std::thread::sleep(backoff);
                    }
                    backoff = backoff.saturating_mul(2);
                }
                other => return other,
            }
        }
        self.submit(req)
    }

    /// Requests currently queued (not yet drained).
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("queue lock").total
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-tenant queue occupancy: `(tenant, queued now, peak queued)`
    /// for every lane that has ever held a request, sorted by tenant.
    pub fn occupancy(&self) -> Vec<(String, usize, usize)> {
        let state = self.shared.state.lock().expect("queue lock");
        let mut rows: Vec<(String, usize, usize)> = state
            .lanes
            .iter()
            .map(|l| (l.tenant.to_string(), l.jobs.len(), l.peak))
            .collect();
        rows.sort();
        rows
    }

    /// Drain and execute one batch synchronously (no waiting, no window).
    /// Returns the number of requests served. This is how a `workers: 0`
    /// queue is driven.
    pub fn drain_once(&self) -> usize {
        let batch = take_batch(&self.shared);
        let n = batch.len();
        if n > 0 {
            execute(&self.shared, batch);
        }
        n
    }

    /// Stop accepting work, let workers finish what is queued, and join
    /// them. Idempotent; also invoked on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // In manual mode (or if workers were already gone) serve the
        // stragglers here so no ticket is left dangling.
        loop {
            let batch = take_batch(&self.shared);
            if batch.is_empty() {
                break;
            }
            execute(&self.shared, batch);
        }
    }
}

impl Drop for ServeQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Form one batch by deficit round-robin over the tenant lanes: each
/// visited lane earns `fair_quantum` credits, each dequeued job spends
/// one, an emptied lane forfeits its balance. Jobs within a lane leave in
/// FIFO order; with a single lane the whole batch is plain FIFO.
fn drr_batch(state: &mut QueueState, max_batch: usize, quantum: usize) -> Vec<Job> {
    let mut batch = Vec::new();
    let nlanes = state.lanes.len();
    if nlanes == 0 {
        return batch;
    }
    let mut empty_streak = 0usize;
    while batch.len() < max_batch && state.total > 0 {
        let li = state.cursor % nlanes;
        let lane = &mut state.lanes[li];
        if lane.jobs.is_empty() {
            lane.deficit = 0;
            state.cursor += 1;
            empty_streak += 1;
            if empty_streak >= nlanes {
                break; // defensive: total says work exists, lanes disagree
            }
            continue;
        }
        empty_streak = 0;
        lane.deficit += quantum;
        while lane.deficit > 0 && batch.len() < max_batch {
            match lane.jobs.pop_front() {
                Some(job) => {
                    batch.push(job);
                    lane.deficit -= 1;
                    state.total -= 1;
                }
                None => break,
            }
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
    batch
}

/// Pop up to `max_batch` jobs without blocking.
fn take_batch(shared: &Shared) -> Vec<Job> {
    let mut state = shared.state.lock().expect("queue lock");
    let batch = drr_batch(&mut state, shared.cfg.max_batch, shared.cfg.fair_quantum);
    if !batch.is_empty() {
        shared.metrics.queue_depth_update(state.total);
    }
    batch
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("queue lock");
            // Sleep until there is work or we are told to stop.
            while state.total == 0 {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                state = shared.cv.wait(state).expect("queue lock");
            }
            // Batching window: linger for more work unless shutting down.
            if shared.cfg.window > Duration::ZERO && !shared.shutdown.load(Ordering::Acquire)
            {
                let until = Instant::now() + shared.cfg.window;
                while state.total < shared.cfg.max_batch {
                    let now = Instant::now();
                    if now >= until || shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let (guard, _timeout) = shared
                        .cv
                        .wait_timeout(state, until - now)
                        .expect("queue lock");
                    state = guard;
                }
            }
            let batch =
                drr_batch(&mut state, shared.cfg.max_batch, shared.cfg.fair_quantum);
            if !batch.is_empty() {
                shared.metrics.queue_depth_update(state.total);
            }
            batch
        };
        execute(shared, batch);
    }
}

/// Everything `execute` needs from one tenant's serving engine, resolved
/// once per batch so a publish landing mid-batch never splits it.
enum TenantEngine {
    Single(Arc<Engine>),
    Pinned(crate::live::Pinned),
    Missing,
}

impl TenantEngine {
    fn engine(&self) -> Option<&Engine> {
        match self {
            TenantEngine::Single(e) => Some(e),
            TenantEngine::Pinned(p) => Some(p.engine()),
            TenantEngine::Missing => None,
        }
    }
}

/// Serve one drained batch: validate, coalesce each tenant's point
/// lookups into a single engine batch call, run batch/top-K jobs
/// individually, and deliver every response. Per-tenant engines are
/// resolved (and their generation pinned) once for the whole batch.
fn execute(shared: &Shared, jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    shared.metrics.batch_executed();
    let now = Instant::now();

    // Resolve each distinct tenant in the batch to an engine once.
    let mut engines: HashMap<Arc<str>, TenantEngine> = HashMap::new();
    for job in &jobs {
        if !engines.contains_key(&job.tenant) {
            let resolved = match &shared.backend {
                Backend::Single(e) => TenantEngine::Single(Arc::clone(e)),
                Backend::Registry(reg) => match reg.engine(&job.tenant) {
                    Some(live) => TenantEngine::Pinned(live.pin()),
                    None => TenantEngine::Missing,
                },
            };
            engines.insert(Arc::clone(&job.tenant), resolved);
        }
    }

    let mut responses: Vec<Option<Response>> = (0..jobs.len()).map(|_| None).collect();
    // Coalesced point lookups, grouped per tenant: slot lists + indices.
    type PointGroup = (Vec<usize>, Vec<Vec<usize>>);
    let mut points: HashMap<Arc<str>, PointGroup> = HashMap::new();

    for (slot, job) in jobs.iter().enumerate() {
        let engine = match engines.get(&job.tenant).and_then(TenantEngine::engine) {
            Some(e) => e,
            None => {
                responses[slot] = Some(Response::Error(ServeError::UnknownTenant(
                    job.tenant.to_string(),
                )));
                continue;
            }
        };
        if let Some(dl) = job.deadline {
            if now > dl {
                shared.metrics.deadline_miss();
                responses[slot] = Some(Response::TimedOut);
                continue;
            }
        }
        match &job.req {
            Request::Point { index } => match engine.validate_index(index) {
                Ok(()) => {
                    let entry = points.entry(Arc::clone(&job.tenant)).or_default();
                    entry.0.push(slot);
                    entry.1.push(index.clone());
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

    for (tenant, (slots, indices)) in points {
        let engine = engines
            .get(&tenant)
            .and_then(TenantEngine::engine)
            .expect("points only gathered for resolved tenants");
        match engine.batch(&indices) {
            Ok(values) => {
                for (&slot, value) in slots.iter().zip(values) {
                    responses[slot] = Some(Response::Value(value));
                }
            }
            Err(e) => {
                for &slot in &slots {
                    responses[slot] = Some(Response::Error(e.clone()));
                }
            }
        }
    }

    for (job, response) in jobs.into_iter().zip(responses) {
        let response =
            response.unwrap_or(Response::Error(ServeError::BadQuery("unserved job".into())));
        // End-to-end latency is recorded for answered requests only —
        // timeouts and errors have their own counters.
        if matches!(
            response,
            Response::Value(_) | Response::Values(_) | Response::TopK(_)
        ) {
            shared.metrics.record_e2e(job.submitted.elapsed());
        }
        // A dropped ticket just means the caller stopped waiting.
        let _ = job.tx.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use distenc_tensor::KruskalTensor;

    fn test_engine() -> Arc<Engine> {
        let model = KruskalTensor::random(&[40, 20, 10], 4, 21);
        Arc::new(Engine::new(&model, EngineConfig::default()).unwrap())
    }

    fn manual_cfg() -> QueueConfig {
        QueueConfig { workers: 0, window: Duration::ZERO, ..Default::default() }
    }

    #[test]
    fn manual_drain_coalesces_points() {
        let engine = test_engine();
        let queue = ServeQueue::new(Arc::clone(&engine), manual_cfg()).unwrap();
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| queue.submit(Request::Point { index: vec![i, i, i % 10] }).unwrap())
            .collect();
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
        let _t1 = queue.submit(Request::Point { index: vec![0, 0, 0] }).unwrap();
        let _t2 = queue.submit(Request::Point { index: vec![1, 1, 1] }).unwrap();
        match queue.submit(Request::Point { index: vec![2, 2, 2] }) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(engine.snapshot().queue_rejections, 1);
        queue.drain_once();
    }

    #[test]
    fn expired_deadline_times_out() {
        let engine = test_engine();
        let queue = ServeQueue::new(Arc::clone(&engine), manual_cfg()).unwrap();
        let late = queue
            .submit_with_deadline(
                Request::Point { index: vec![1, 2, 3] },
                Some(Duration::ZERO),
            )
            .unwrap();
        let fine = queue.submit(Request::Point { index: vec![1, 2, 3] }).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        queue.drain_once();
        assert_eq!(late.wait(), Response::TimedOut);
        assert!(matches!(fine.wait(), Response::Value(_)));
        assert_eq!(engine.snapshot().deadline_misses, 1);
    }

    #[test]
    fn invalid_requests_fail_individually() {
        let engine = test_engine();
        let queue = ServeQueue::new(engine, manual_cfg()).unwrap();
        let bad = queue.submit(Request::Point { index: vec![99, 0, 0] }).unwrap();
        let good = queue.submit(Request::Point { index: vec![0, 0, 0] }).unwrap();
        queue.drain_once();
        assert!(matches!(bad.wait(), Response::Error(ServeError::BadQuery(_))));
        assert!(matches!(good.wait(), Response::Value(_)));
    }

    #[test]
    fn worker_threads_serve_mixed_load() {
        let engine = test_engine();
        let cfg = QueueConfig {
            workers: 2,
            window: Duration::from_micros(100),
            ..Default::default()
        };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let mut tickets = Vec::new();
        for i in 0..100usize {
            let req = match i % 3 {
                0 => Request::Point { index: vec![i % 40, i % 20, i % 10] },
                1 => Request::Batch {
                    indices: vec![vec![0, 0, 0], vec![i % 40, i % 20, i % 10]],
                },
                _ => Request::TopK {
                    query: TopKQuery { mode: 0, at: vec![0, i % 20, i % 10], k: 3 },
                    budget: None,
                },
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
    }

    #[test]
    fn retry_exhaustion_surfaces_queue_full() {
        let engine = test_engine();
        let cfg = QueueConfig { capacity: 1, ..manual_cfg() };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let _held = queue.submit(Request::Point { index: vec![0, 0, 0] }).unwrap();
        let policy = RetryPolicy { attempts: 3, backoff: Duration::ZERO };
        match queue.submit_with_retry(Request::Point { index: vec![1, 1, 1] }, &policy) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Every rejected attempt counted: the pressure was real each time.
        assert_eq!(engine.snapshot().queue_rejections, 3);
        queue.drain_once();
    }

    #[test]
    fn retry_succeeds_once_capacity_reappears() {
        let engine = test_engine();
        let cfg = QueueConfig { capacity: 1, ..manual_cfg() };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let held = queue.submit(Request::Point { index: vec![0, 0, 0] }).unwrap();
        let policy = RetryPolicy { attempts: 30, backoff: Duration::from_millis(1) };
        std::thread::scope(|s| {
            let submitter = s.spawn(|| {
                queue.submit_with_retry(Request::Point { index: vec![1, 1, 1] }, &policy)
            });
            // Capacity reappears only after the submitter has been turned
            // away at least once, so the acceptance below is a retry by
            // construction; the doubling backoff outlasts any scheduling
            // delay between the rejection and this drain.
            while engine.snapshot().queue_rejections == 0 {
                std::thread::yield_now();
            }
            queue.drain_once();
            let ticket = submitter.join().expect("submitter thread").unwrap();
            queue.drain_once();
            assert!(matches!(ticket.wait(), Response::Value(_)));
        });
        assert!(matches!(held.wait(), Response::Value(_)));
        assert!(engine.snapshot().queue_rejections >= 1);
    }

    #[test]
    fn retry_does_not_mask_other_errors() {
        let engine = test_engine();
        let mut queue = ServeQueue::new(engine, manual_cfg()).unwrap();
        queue.shutdown();
        let policy = RetryPolicy { attempts: 5, backoff: Duration::ZERO };
        assert!(matches!(
            queue.submit_with_retry(Request::Point { index: vec![0, 0, 0] }, &policy),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn shutdown_serves_queued_work_and_rejects_new() {
        let engine = test_engine();
        let mut queue = ServeQueue::new(engine, manual_cfg()).unwrap();
        let pending = queue.submit(Request::Point { index: vec![3, 4, 5] }).unwrap();
        queue.shutdown();
        assert!(matches!(pending.wait(), Response::Value(_)));
        assert!(matches!(
            queue.submit(Request::Point { index: vec![0, 0, 0] }),
            Err(ServeError::ShuttingDown)
        ));
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
        let a = queue.submit(Request::Point { index: vec![0, 0, 0] }).unwrap();
        let b = queue.submit(Request::Point { index: vec![1, 1, 1] }).unwrap();
        // Third submission meets the watermark: accepted, answered Shed.
        let shed = queue.submit(Request::Point { index: vec![2, 2, 2] }).unwrap();
        match shed.wait() {
            Response::Shed(ShedReason::QueueDepth { depth, watermark }) => {
                assert_eq!(depth, 2);
                assert_eq!(watermark, 2);
            }
            other => panic!("expected queue-depth shed, got {other:?}"),
        }
        assert_eq!(queue.len(), 2, "shed submissions are never queued");
        queue.drain_once();
        assert!(matches!(a.wait(), Response::Value(_)));
        assert!(matches!(b.wait(), Response::Value(_)));
        let s = engine.snapshot();
        assert_eq!(s.sheds_queue_depth, 1);
        assert_eq!(s.queue_rejections, 0, "a shed is not a rejection");
        assert_eq!(s.e2e_recorded, 2, "only served requests get e2e latency");
    }

    #[test]
    fn deadline_aware_admission_sheds_infeasible_deadlines() {
        let engine = test_engine();
        let cfg = QueueConfig {
            workers: 0,
            window: Duration::from_millis(10),
            max_batch: 4,
            admission: AdmissionControl { deadline_aware: true, ..Default::default() },
            ..Default::default()
        };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        // Empty queue: one window (10ms) is the estimate. A 50ms deadline
        // is feasible, a 1ms deadline is not.
        let ok = queue
            .submit_with_deadline(Request::Point { index: vec![0, 0, 0] }, Some(Duration::from_millis(50)))
            .unwrap();
        let shed = queue
            .submit_with_deadline(Request::Point { index: vec![1, 1, 1] }, Some(Duration::from_millis(1)))
            .unwrap();
        match shed.wait() {
            Response::Shed(ShedReason::DeadlineInfeasible { estimated, deadline }) => {
                assert_eq!(estimated, Duration::from_millis(10));
                assert_eq!(deadline, Duration::from_millis(1));
            }
            other => panic!("expected deadline shed, got {other:?}"),
        }
        // Deadline-less submissions are never deadline-shed.
        let free = queue.submit(Request::Point { index: vec![2, 2, 2] }).unwrap();
        queue.drain_once();
        assert!(matches!(ok.wait(), Response::Value(_)));
        assert!(matches!(free.wait(), Response::Value(_)));
        assert_eq!(engine.snapshot().sheds_deadline, 1);
    }

    #[test]
    fn tenant_share_caps_one_tenant_without_touching_others() {
        let engine = test_engine();
        let cfg = QueueConfig {
            admission: AdmissionControl { tenant_share: Some(2), ..Default::default() },
            ..manual_cfg()
        };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        let mut hot = Vec::new();
        for i in 0..4usize {
            hot.push(queue.submit_for("hot", Request::Point { index: vec![i, i, i] }).unwrap());
        }
        // Cold tenant is unaffected by hot's cap.
        let cold = queue.submit_for("cold", Request::Point { index: vec![5, 5, 5] }).unwrap();
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
        assert_eq!(engine.snapshot().sheds_tenant_share, 2);
    }

    #[test]
    fn drr_interleaves_hot_and_cold_tenants() {
        let engine = test_engine();
        let cfg = QueueConfig { fair_quantum: 4, max_batch: 16, ..manual_cfg() };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        // Hot floods 60 requests before cold submits 5.
        let hot: Vec<Ticket> = (0..60)
            .map(|i| {
                queue
                    .submit_for("hot", Request::Point { index: vec![i % 40, i % 20, i % 10] })
                    .unwrap()
            })
            .collect();
        let cold: Vec<Ticket> = (0..5)
            .map(|i| queue.submit_for("cold", Request::Point { index: vec![i, i, i] }).unwrap())
            .collect();

        // First two 16-request batches: with quantum 4, cold's 5 requests
        // ride along instead of waiting behind all 60 hot ones.
        queue.drain_once();
        queue.drain_once();
        let cold_served = cold
            .into_iter()
            .filter(|t| matches!(t.wait_for(Duration::from_secs(5)), Some(Response::Value(_))))
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

        let ta = queue.submit_for("a", Request::Point { index: vec![3, 4, 2] }).unwrap();
        let tb = queue.submit_for("b", Request::Point { index: vec![7, 1] }).unwrap();
        assert!(matches!(
            queue.submit_for("nope", Request::Point { index: vec![0, 0] }),
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
    }
}
