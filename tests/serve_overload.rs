//! Overload-stress gate for the serving queue: drive the queue well past
//! capacity from many threads with mixed deadlines and tenants, and
//! prove the accounting contract holds under contention —
//!
//! * no panics anywhere in the stack,
//! * the queued depth never exceeds the configured capacity,
//! * every submission resolves to **exactly one** outcome: a served
//!   response, a typed shed, a deadline timeout, or a submit-side
//!   `QueueFull` rejection,
//! * the metrics balance against the caller-observed outcome counts:
//!   the fleet block's queue counters (sheds, rejections, served e2e
//!   samples, queue timeouts) and the tenants' engine counters (top-K
//!   deadline misses against degraded results).
//!
//! The tenants are registered, each serving the same model.
//!
//! A proptest sweep then replays the same contract over randomized small
//! queue configurations in deterministic manual-drain mode.

use distenc::serve::{
    AdmissionControl, EngineConfig, ModelRegistry, QueueConfig, Request, Response, ServeError,
    ServeQueue, SubmitOpts, TopKQuery,
};
use distenc::tensor::KruskalTensor;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A registry serving one model to each of `tenants`.
fn test_registry<S: AsRef<str>>(seed: u64, tenants: &[S]) -> Arc<ModelRegistry> {
    let model = KruskalTensor::random(&[40, 20, 10], 4, seed);
    let reg = Arc::new(ModelRegistry::new());
    for name in tenants {
        reg.register(name.as_ref(), &model, EngineConfig::default()).unwrap();
    }
    reg
}

#[test]
fn overload_storm_resolves_every_ticket_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    let reg = test_registry(77, &["tenant-0", "tenant-1", "tenant-2", "tenant-3"]);
    let cfg = QueueConfig {
        capacity: 32,
        max_batch: 16,
        workers: 2,
        admission: AdmissionControl {
            shed_watermark: Some(24),
            deadline_aware: true,
            tenant_share: Some(16),
        },
    };
    let queue = Arc::new(ServeQueue::with_registry(Arc::clone(&reg), cfg).unwrap());

    let served = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let timed_out = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let depth_violations = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let queue = Arc::clone(&queue);
            let (served, shed, timed_out, errors, rejected, depth_violations) =
                (&served, &shed, &timed_out, &errors, &rejected, &depth_violations);
            s.spawn(move || {
                let tenant = format!("tenant-{}", t % 4);
                for i in 0..PER_THREAD {
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
                    // Mixed deadlines: none, comfortable, and tight enough
                    // to be shed at admission or expire in the queue.
                    let deadline = match i % 4 {
                        0 | 1 => None,
                        2 => Some(Duration::from_millis(50)),
                        _ => Some(Duration::from_micros(300)),
                    };
                    match queue.submit_with(req, SubmitOpts { tenant: &tenant, deadline }) {
                        Ok(ticket) => match ticket.wait() {
                            Response::Value(_) | Response::Values(_) | Response::TopK(_) => {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Shed(_) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::TimedOut => {
                                timed_out.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Error(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(ServeError::QueueFull { .. }) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    if queue.len() > 32 {
                        depth_violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let (served, shed, timed_out, errors, rejected) = (
        served.into_inner(),
        shed.into_inner(),
        timed_out.into_inner(),
        errors.into_inner(),
        rejected.into_inner(),
    );
    // Exactly-once accounting: the five outcome classes tile the storm.
    assert_eq!(
        served + shed + timed_out + errors + rejected,
        (THREADS * PER_THREAD) as u64,
        "served {served} shed {shed} timed_out {timed_out} errors {errors} rejected {rejected}"
    );
    assert_eq!(errors, 0, "every request in the storm is valid");
    assert!(served > 0, "the queue must make forward progress under overload");
    assert_eq!(depth_violations.into_inner(), 0, "queued depth stayed within capacity");
    assert!(queue.is_empty(), "nothing may linger after every ticket resolved");

    // Caller-observed outcomes balance against the fleet's queue counters.
    let s = reg.snapshot();
    assert_eq!(s.sheds(), shed);
    assert_eq!(s.queue_rejections, rejected);
    assert_eq!(s.e2e_recorded, served);
    assert_eq!(s.deadline_misses, timed_out, "the fleet's deadline misses are queue timeouts");
    assert!(s.queue_depth_peak <= 32, "peak {} over capacity", s.queue_depth_peak);
    // A tenant's `deadline_misses` are its top-K scans that degraded
    // inside their clipped budget (each also ticks `degraded_results`).
    for (name, t) in reg.tenant_snapshots() {
        assert_eq!(t.deadline_misses, t.degraded_results, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exactly-once/balance contract over randomized small configs,
    /// in deterministic manual-drain mode: submissions interleave with
    /// drains, and at the end every ticket has resolved, the queue is
    /// empty, and the metrics mirror the observed outcome counts.
    #[test]
    fn accounting_balances_over_small_configs(
        capacity in 1usize..8,
        max_batch in 1usize..5,
        // 0 encodes "off" (the vendored proptest has no Option strategy).
        watermark_sel in 0usize..9,
        share_sel in 0usize..4,
        n_tenants in 1usize..4,
        submissions in 1usize..40,
        drain_every in 1usize..12,
    ) {
        let names: Vec<String> = (0..n_tenants).map(|t| format!("t{t}")).collect();
        let reg = test_registry(5, &names);
        let watermark = (watermark_sel > 0).then(|| ((watermark_sel - 1) % capacity) + 1);
        let tenant_share = (share_sel > 0).then_some(share_sel);
        let cfg = QueueConfig {
            capacity,
            max_batch,
            workers: 0,
            admission: AdmissionControl {
                shed_watermark: watermark,
                deadline_aware: false,
                tenant_share,
            },
        };
        let queue = ServeQueue::with_registry(Arc::clone(&reg), cfg).unwrap();
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for i in 0..submissions {
            let tenant = &names[i % n_tenants];
            let req = Request::Point { index: vec![i % 6, i % 5, i % 4] };
            match queue.submit_with(req, SubmitOpts { tenant, deadline: None }) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
            prop_assert!(queue.len() <= capacity);
            if i % drain_every == drain_every - 1 {
                queue.drain_once();
            }
        }
        while queue.drain_once() > 0 {}
        let (mut served, mut shed) = (0u64, 0u64);
        for t in tickets {
            match t.wait() {
                Response::Value(_) => served += 1,
                Response::Shed(_) => shed += 1,
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            }
        }
        prop_assert_eq!(served + shed + rejected, submissions as u64);
        prop_assert!(queue.is_empty());
        let s = reg.snapshot();
        prop_assert_eq!(s.sheds(), shed);
        prop_assert_eq!(s.queue_rejections, rejected);
        prop_assert_eq!(s.e2e_recorded, served);
    }
}

/// Deficit-round-robin under live overload: a cold tenant trickling
/// requests through a hot flood is never starved and never shed, because
/// the hot tenant's admission share caps how much queue it can hold and
/// DRR guarantees the cold lane a slice of every batch.
#[test]
fn cold_tenant_survives_hot_flood() {
    let reg = test_registry(99, &["hot", "cold"]);
    let cfg = QueueConfig {
        capacity: 64,
        max_batch: 16,
        workers: 2,
        admission: AdmissionControl {
            shed_watermark: None,
            deadline_aware: false,
            tenant_share: Some(8),
        },
    };
    let queue = Arc::new(ServeQueue::with_registry(reg, cfg).unwrap());
    // A failure is counted, not panicked on: the counter wait below needs
    // every hot thread to run to its end.
    let (hot_resolved, hot_errors) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (queue, hot_resolved, hot_errors) =
                (Arc::clone(&queue), &hot_resolved, &hot_errors);
            s.spawn(move || {
                for i in 0..500usize {
                    let req = Request::Point { index: vec![i % 40, i % 20, i % 10] };
                    match queue.submit_with(req, SubmitOpts { tenant: "hot", deadline: None }) {
                        Ok(t) => drop(t.wait()),
                        Err(ServeError::QueueFull { .. }) => {}
                        Err(_) => drop(hot_errors.fetch_add(1, Ordering::Relaxed)),
                    }
                    hot_resolved.fetch_add(1, Ordering::Release);
                }
            });
        }
        // The cold tenant trickles 50 requests while the flood rages: its
        // i-th goes in once the flood is 30·i requests along, so the
        // trickle is spread over the first three quarters of the flood
        // whatever the scheduler does.
        let mut cold_served = 0usize;
        for i in 0..50usize {
            while hot_resolved.load(Ordering::Acquire) < 30 * i as u64 {
                std::thread::yield_now();
            }
            let req = Request::Point { index: vec![i % 40, i % 20, i % 10] };
            let ticket = queue
                .submit_with(req, SubmitOpts { tenant: "cold", deadline: None })
                .expect("cold submit");
            if matches!(ticket.wait(), Response::Value(_)) {
                cold_served += 1;
            }
        }
        assert_eq!(cold_served, 50, "cold tenant must never be starved or shed");
    });
    assert_eq!(hot_errors.into_inner(), 0, "QueueFull is the only submit error a flood may see");
}
