//! Bounded, work-conserving request queue with admission control, in
//! front of one [`LiveEngine`].
//!
//! Callers [`submit`](ServeQueue::submit) requests and get back a
//! [`Ticket`]; worker threads drain the queue in batches, coalescing
//! queued point lookups into one [`Engine::batch`] call so the shared
//! rank loop amortizes across concurrent callers.
//!
//! ## Work-conserving batching
//!
//! A worker parks only when the queue is empty, and the moment it is
//! free it takes whatever is queued (up to `max_batch`), oldest first. A
//! batch is therefore exactly what arrived while the previous one
//! executed: about one request under light load, full batches under
//! overload. Nothing lingers for company, so there is no batching delay
//! to tune. A submit wakes a worker only when one is parked (a count kept
//! under the queue lock says so); while the workers are busy a submit
//! makes no system call at all.
//!
//! ## Backpressure and admission control
//!
//! Backpressure is explicit and layered, and checked in this order:
//!
//! 1. **Capacity** — when the queue is at capacity, `submit` returns
//!    [`ServeError::QueueFull`] instead of buffering unboundedly.
//! 2. **Load shedding** (opt-in via [`AdmissionControl`]) — past a depth
//!    watermark, or holding a deadline the backlog makes infeasible, the
//!    request is *accepted and immediately answered* with a typed
//!    [`Response::Shed`], so callers can tell "the server chose not to
//!    serve this" from failure, and every ticket still resolves to
//!    exactly one response.
//!
//! A submit takes the queue lock once and decides capacity and both
//! shedders on the depth it holds, so `capacity` is an exact bound, and
//! pushes. A request already past its deadline when drained is answered
//! [`Response::TimedOut`] (top-K requests additionally degrade gracefully
//! inside their own scan budget — see [`Engine::topk`]).
//!
//! ## One model generation per batch
//!
//! A drained batch pins the [`LiveEngine`]'s generation once, so a
//! publish landing mid-batch never splits a batch across models.
//! [`ServeQueue::new`] serves a plain [`Engine`] as generation 1;
//! [`ServeQueue::live`] fronts a live engine someone publishes to. Either
//! way the queue's counters land in the engine's own [`ServeMetrics`], so
//! queue and engine accounting stay one stream.
//!
//! With `workers: 0` no threads are spawned and the owner drives the
//! queue by calling [`drain_once`](ServeQueue::drain_once) — this is the
//! deterministic mode the tests and the replay harness use.
//!
//! [`ServeMetrics`]: crate::ServeMetrics

use crate::engine::Engine;
use crate::live::LiveEngine;
use crate::ticket::{Promise, Request, Response, ShedReason, Ticket};
use crate::{Result, ServeError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

#[derive(Debug)]
struct Job {
    req: Request,
    deadline: Option<Instant>,
    admitted: Instant,
    promise: Promise,
}

/// All queued work, oldest first.
#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers waiting on `Shared::cv` for the queue to become non-empty.
    parked: usize,
}

#[derive(Debug)]
struct Shared {
    /// The model served; queue counters go to its metrics.
    engine: Arc<LiveEngine>,
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

/// Bounded, batching front of one [`LiveEngine`].
#[derive(Debug)]
pub struct ServeQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeQueue {
    /// Serve `engine` (as generation 1) and spawn the configured worker
    /// threads. Queue counters go to the engine's own metrics.
    pub fn new(engine: Arc<Engine>, cfg: QueueConfig) -> Result<Self> {
        Self::live(Arc::new(LiveEngine::serving(engine)), cfg)
    }

    /// Front a hot-swappable engine: each drained batch is served by the
    /// generation current when it was drained, and queue counters go to
    /// the engine's metrics.
    pub fn live(engine: Arc<LiveEngine>, cfg: QueueConfig) -> Result<Self> {
        let counts = [
            ("capacity", Some(cfg.capacity)),
            ("max_batch", Some(cfg.max_batch)),
            ("shed_watermark", cfg.admission.shed_watermark),
        ];
        if let Some((name, _)) = counts.iter().find(|(_, count)| *count == Some(0)) {
            return Err(ServeError::BadConfig(format!("queue {name} must be at least 1")));
        }
        let shared = Arc::new(Shared {
            engine,
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

    /// Enqueue a request with no deadline.
    pub fn submit(&self, req: Request) -> Result<Ticket> {
        self.submit_with(req, None)
    }

    /// Enqueue a request that must *start* executing within `deadline` of
    /// submission; otherwise it resolves to [`Response::TimedOut`]. A
    /// caller that wants to ride out a momentary
    /// [`ServeError::QueueFull`] loops over this (see
    /// [`crate::replay_queued`]); every refused attempt counts in
    /// [`queue_rejections`](crate::MetricsSnapshot::queue_rejections).
    pub fn submit_with(&self, req: Request, deadline: Option<Duration>) -> Result<Ticket> {
        let shared = &*self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let (cfg, metrics) = (&shared.cfg, shared.engine.metrics());
        let (ticket, promise) = Ticket::pending();
        let admitted = Instant::now();
        let mut state = shared.lock();
        // Capacity first (a full queue is a submit-side error, not a
        // shed), then the shedders: the watermark, the deadline.
        let ahead = state.jobs.len();
        if ahead >= cfg.capacity {
            drop(state);
            metrics.queue_rejection();
            return Err(ServeError::QueueFull { capacity: cfg.capacity });
        }
        let watermark = cfg.admission.shed_watermark.filter(|&w| ahead >= w);
        let judged = deadline.filter(|_| cfg.admission.deadline_aware);
        let infeasible = judged.and_then(|deadline| {
            let batches_ahead = (ahead / cfg.max_batch) as u32 + 1;
            let mean = Duration::from_nanos(shared.service_nanos.load(Ordering::Relaxed));
            let estimated = mean.saturating_mul(batches_ahead);
            (estimated > deadline).then_some(ShedReason::DeadlineInfeasible { estimated, deadline })
        });
        if let Some(reason) = watermark
            .map(|watermark| ShedReason::QueueDepth { depth: ahead, watermark })
            .or(infeasible)
        {
            drop(state);
            // Accepted and answered at once: the ticket still resolves
            // exactly once.
            metrics.shed(&reason);
            promise.fulfil(Response::Shed(reason));
            return Ok(ticket);
        }
        let deadline = deadline.map(|d| admitted + d);
        state.jobs.push_back(Job { req, deadline, admitted, promise });
        // Wake a worker only if one is parked: a busy one looks at the
        // queue again before it parks, so this submit needs no system call.
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
        self.shared.lock().jobs.len()
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// What one drainer reuses from batch to batch, so forming and serving a
/// batch allocates nothing of its own.
#[derive(Default)]
struct Scratch {
    jobs: Vec<Job>,
    responses: Vec<Option<Response>>,
    /// The batch's coalesced point lookups.
    points: PointGroup,
}

/// Point lookups coalesced into one engine batch: where each answer
/// goes, and its index tuple.
#[derive(Default)]
struct PointGroup {
    slots: Vec<usize>,
    indices: Vec<Vec<usize>>,
}

/// Pop up to `max_batch` jobs, oldest first, into `scratch.jobs` without
/// blocking.
fn take_batch(shared: &Shared, state: &mut QueueState, scratch: &mut Scratch) {
    let n = state.jobs.len().min(shared.cfg.max_batch);
    if n > 0 {
        scratch.jobs.extend(state.jobs.drain(..n));
        shared.engine.metrics().queue_depth_update(state.jobs.len());
    }
}

fn worker_loop(shared: &Shared) {
    let mut scratch = Scratch::default();
    loop {
        {
            let mut state = shared.lock();
            // Park only on an empty queue; whatever is queued by the time
            // this worker is free is the next batch.
            while state.jobs.is_empty() {
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

/// Serve the batch in `scratch.jobs`: validate, coalesce the point
/// lookups into a single engine batch call, run batch/top-K jobs
/// individually, and deliver every response. The engine's generation is
/// pinned once for the whole batch. Returns the number of requests
/// answered.
fn execute(shared: &Shared, scratch: &mut Scratch) -> usize {
    let Scratch { jobs, responses, points } = scratch;
    if jobs.is_empty() {
        return 0;
    }
    let metrics = shared.engine.metrics();
    metrics.batch_executed();
    // The dequeue stamp: queue wait ends and service begins here.
    let now = Instant::now();
    let pinned = shared.engine.pin();
    let engine = pinned.engine();
    responses.resize_with(jobs.len(), || None);

    for (slot, job) in jobs.iter_mut().enumerate() {
        if job.deadline.is_some_and(|dl| now >= dl) {
            metrics.deadline_miss();
            responses[slot] = Some(Response::TimedOut);
            continue;
        }
        match &mut job.req {
            Request::Point { index } => match engine.validate_index(index) {
                Ok(()) => {
                    // The job is done with its tuple: move it, don't copy.
                    points.slots.push(slot);
                    points.indices.push(std::mem::take(index));
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

    if !points.slots.is_empty() {
        match engine.batch(&points.indices) {
            Ok(values) => {
                for (&slot, value) in points.slots.iter().zip(values) {
                    responses[slot] = Some(Response::Value(value));
                }
            }
            Err(e) => {
                for &slot in &points.slots {
                    responses[slot] = Some(Response::Error(e.clone()));
                }
            }
        }
        points.slots.clear();
        points.indices.clear();
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
        let late = queue.submit_with(point(1, 2, 3), Some(Duration::ZERO)).unwrap();
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
            match queue.submit_with(point(1, 1, 1), Some(deadline)).unwrap().wait() {
                Response::Shed(ShedReason::DeadlineInfeasible { estimated, deadline: d }) => {
                    assert_eq!(d, deadline);
                    estimated
                }
                other => panic!("expected a deadline shed, got {other:?}"),
            }
        };
        // No batch has run: the estimate is zero and even 1 ns is admitted.
        let unmeasured = queue.submit_with(point(0, 0, 0), Some(tight)).unwrap();
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
        let met = queue.submit_with(point(2, 2, 2), Some(one_batch)).unwrap();
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

    /// A publish between submit and drain lands before the batch is
    /// pinned: the whole batch is served by the new generation, and the
    /// next batch by whatever is current when it is drained.
    #[test]
    fn a_publish_before_the_drain_serves_the_whole_batch_from_one_generation() {
        let shape = [30, 10, 5];
        let models: Vec<KruskalTensor> =
            (0..3).map(|seed| KruskalTensor::random(&shape, 3, 51 + seed)).collect();
        let live = Arc::new(LiveEngine::new(&models[0], EngineConfig::default()).unwrap());
        let queue = ServeQueue::live(Arc::clone(&live), manual_cfg()).unwrap();
        let cells: Vec<[usize; 3]> = (0..12).map(|i| [i % 30, i % 10, i % 5]).collect();
        for (generation, model) in models.iter().enumerate().skip(1) {
            let tickets: Vec<Ticket> =
                cells.iter().map(|c| queue.submit(point(c[0], c[1], c[2])).unwrap()).collect();
            assert_eq!(live.publish(model).unwrap(), generation as u64 + 1);
            assert_eq!(queue.drain_once(), cells.len());
            for (cell, ticket) in cells.iter().zip(tickets) {
                match ticket.wait() {
                    Response::Value(v) => assert_eq!(v.to_bits(), model.eval(cell).to_bits()),
                    other => panic!("expected a value, got {other:?}"),
                }
            }
        }
        // Queue and engine counters are one stream, across generations.
        let s = live.snapshot();
        assert_eq!((s.batches_executed, s.batch_queries, s.e2e_recorded), (2, 2, 24));
        assert_eq!(s.serving_generation, 3);
    }
}
