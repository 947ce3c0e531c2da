//! Serve-SLO smoke gates for CI: fixed-work invariants of the serving
//! stack that must hold at any thread count — no wall-clock assertions,
//! so the gate is stable on loaded hosts.
//!
//! Two contracts, each run under `DISTENC_THREADS=1` and `=4` by
//! `ci.sh` (the queue sizes its worker pool from the same variable the
//! execution backends use):
//!
//! 1. **Shed accounting balances** — under offered load past the shed
//!    watermark, every submission resolves to exactly one outcome and
//!    the fleet metrics mirror the caller-observed counts.
//! 2. **Zero failed reads across swaps** — a two-tenant queue under
//!    concurrent hot-publishes never surfaces an error, a stale read, or
//!    an unresolved ticket.

use distenc::dataflow::ExecMode;
use distenc::serve::{
    open_loop_trace, AdmissionControl, EngineConfig, ModelRegistry, OpenLoopConfig, QueueConfig,
    Request, Response, ServeError, ServeQueue, SubmitOpts, TraceConfig,
};
use distenc::tensor::KruskalTensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Worker-pool size for the gate: the thread count of the solver's
/// default execution backend (`DISTENC_THREADS`, 1 when unset), so
/// `ci.sh`'s two sweeps drain with one worker and with several.
fn workers_from_env() -> usize {
    ExecMode::default().threads()
}

#[test]
fn shed_accounting_balances_under_offered_load() {
    let shape = [60, 30, 10];
    let model = KruskalTensor::random(&shape, 4, 11);
    let names = ["a", "b"];
    let reg = Arc::new(ModelRegistry::new());
    for name in names {
        reg.register(name, &model, EngineConfig::default()).unwrap();
    }
    let queue = ServeQueue::with_registry(
        Arc::clone(&reg),
        QueueConfig {
            capacity: 64,
            max_batch: 16,
            workers: workers_from_env(),
            admission: AdmissionControl {
                shed_watermark: Some(8),
                deadline_aware: false,
                tenant_share: None,
            },
        },
    )
    .unwrap();
    let trace = open_loop_trace(
        &shape,
        &OpenLoopConfig {
            qps: 1_000_000.0, // offsets collapse: submit as fast as possible
            tenants: 2,
            tenant_zipf: 1.0,
            trace: TraceConfig { queries: 5_000, ..Default::default() },
        },
    );
    let mut tickets = Vec::with_capacity(trace.len());
    let mut rejected = 0u64;
    for tr in &trace {
        let opts = SubmitOpts { tenant: names[tr.tenant], deadline: None };
        match queue.submit_with(tr.request.clone(), opts) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let (mut served, mut shed) = (0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Response::Value(_) | Response::Values(_) | Response::TopK(_) => served += 1,
            Response::Shed(_) => shed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(served + shed + rejected, trace.len() as u64, "outcomes tile the trace");
    assert!(shed > 0, "a watermark of 8 under a 5k-request burst must shed");
    assert!(served > 0, "admitted work must still be served");
    let s = reg.snapshot();
    assert_eq!(s.sheds(), shed, "metrics sheds mirror caller-observed sheds");
    assert_eq!(s.sheds_queue_depth, shed, "only the watermark shedder was armed");
    assert_eq!(s.queue_rejections, rejected);
    assert_eq!(s.e2e_recorded, served, "every served request left one e2e sample");
    let expected_rate = shed as f64 / (shed + served) as f64;
    assert!((s.shed_rate() - expected_rate).abs() < 1e-12);
    assert!(s.queue_depth_peak <= 64);
    assert!(queue.is_empty());
}

#[test]
fn zero_failed_reads_across_swaps() {
    let shape = [50, 20, 10];
    let reg = Arc::new(ModelRegistry::new());
    reg.register("a", &KruskalTensor::random(&shape, 3, 31), EngineConfig::default()).unwrap();
    reg.register("b", &KruskalTensor::random(&shape, 3, 32), EngineConfig::default()).unwrap();
    let queue = Arc::new(
        ServeQueue::with_registry(
            Arc::clone(&reg),
            QueueConfig {
                capacity: 256,
                max_batch: 32,
                workers: workers_from_env(),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // A failed read is counted, not panicked on: the publisher's counter
    // wait needs both readers to run to their end.
    let (reads, failed_reads) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        // Publisher hot-swaps tenant "a" twenty times mid-stream: the
        // g-th swap goes in once 90·g of the 2000 reads have resolved, so
        // every one lands between reads whatever the scheduler does.
        let publisher = {
            let (reg, reads) = (Arc::clone(&reg), &reads);
            s.spawn(move || {
                for gen in 0..20u64 {
                    while reads.load(Ordering::Acquire) < 90 * gen {
                        std::thread::yield_now();
                    }
                    reg.publish("a", &KruskalTensor::random(&shape, 3, 100 + gen)).unwrap();
                }
            })
        };
        // Two readers hammer both tenants through the queue the whole
        // time; every single ticket must resolve to a served value.
        for reader in 0..2usize {
            let (queue, reads, failed_reads) = (Arc::clone(&queue), &reads, &failed_reads);
            s.spawn(move || {
                for i in 0..1_000usize {
                    let tenant = if (i + reader) % 2 == 0 { "a" } else { "b" };
                    let req = if i % 5 == 0 {
                        Request::TopK {
                            query: distenc::serve::TopKQuery {
                                mode: 0,
                                at: vec![0, i % 20, i % 10],
                                k: 4,
                            },
                            budget: None,
                        }
                    } else {
                        Request::Point { index: vec![i % 50, i % 20, i % 10] }
                    };
                    // Registered tenants never fail to submit under capacity.
                    let served = queue
                        .submit_with(req, SubmitOpts { tenant, deadline: None })
                        .is_ok_and(|ticket| match ticket.wait() {
                            Response::Value(v) => v.is_finite(),
                            Response::TopK(r) => r.items.len() == 4,
                            _ => false,
                        });
                    failed_reads.fetch_add(u64::from(!served), Ordering::Relaxed);
                    reads.fetch_add(1, Ordering::Release);
                }
            });
        }
        publisher.join().unwrap();
    });
    assert_eq!(failed_reads.into_inner(), 0, "failed reads across swaps");
    // Every publish landed; the final generation is 1 (initial) + 20.
    assert_eq!(reg.engine("a").unwrap().point(&[0, 0, 0]).unwrap().generation, 21);
    assert_eq!(reg.engine("b").unwrap().point(&[0, 0, 0]).unwrap().generation, 1);
}
