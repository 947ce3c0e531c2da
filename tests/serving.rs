//! Integration tests of the serving subsystem against the rest of the
//! stack: property tests tying `Engine` to the CP algebra, exactness of
//! the pruned top-K search, and the save → load → serve round trip.

use distenc::serve::{
    Engine, EngineConfig, QueueConfig, Request, Response, ServeQueue, TopKItem, TopKQuery,
    DEADLINE_CHECK_EVERY,
};
use distenc::tensor::{io, KruskalTensor};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Strategy: a random CP model with order 2–4, small modes, rank 1–5.
fn model_strategy() -> impl Strategy<Value = KruskalTensor> {
    (prop::collection::vec(2usize..=9, 2..=4), 1usize..=5, any::<u64>())
        .prop_map(|(shape, rank, seed)| KruskalTensor::random(&shape, rank, seed))
}

/// An in-bounds index tuple for `shape`, derived from one seed.
fn index_for(shape: &[usize], seed: u64) -> Vec<usize> {
    shape
        .iter()
        .enumerate()
        .map(|(n, &d)| (seed as usize).wrapping_mul(31).wrapping_add(n * 17) % d)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Engine::point` equals the naive weighted outer-product sum
    /// `Σᵣ ∏ₙ A⁽ⁿ⁾[iₙ, r]` computed straight off the factors — and is
    /// bit-identical to `KruskalTensor::eval`.
    #[test]
    fn point_matches_naive_outer_product_sum(model in model_strategy(), q in any::<u64>()) {
        let engine = Engine::new(&model, EngineConfig::default()).expect("engine");
        let idx = index_for(&model.shape(), q);
        let served = engine.point(&idx).expect("point");
        // Independent reference: accumulate rank-one contributions.
        let mut naive = 0.0;
        for rr in 0..model.rank() {
            let mut prod = 1.0;
            for (n, &i) in idx.iter().enumerate() {
                prod *= model.factors()[n].get(i, rr);
            }
            naive += prod;
        }
        prop_assert!((served - naive).abs() <= 1e-12 * naive.abs().max(1.0));
        prop_assert_eq!(served.to_bits(), model.eval(&idx).to_bits());
    }

    /// Batched scoring returns bit-identical values to point scoring.
    #[test]
    fn batch_is_bitwise_equal_to_points(model in model_strategy(), qs in prop::collection::vec(any::<u64>(), 1..40)) {
        let engine = Engine::new(&model, EngineConfig::default()).expect("engine");
        let indices: Vec<Vec<usize>> =
            qs.iter().map(|&q| index_for(&model.shape(), q)).collect();
        let batched = engine.batch(&indices).expect("batch");
        for (idx, &v) in indices.iter().zip(&batched) {
            prop_assert_eq!(v.to_bits(), engine.point(idx).expect("point").to_bits());
        }
    }

    /// Writing a model with `tensor::io`, reading it back, and serving it
    /// reproduces every entry bit-for-bit (the text codec is lossless and
    /// the engine evaluates in `eval`'s exact multiply order).
    #[test]
    fn save_load_serve_round_trip_is_bit_exact(model in model_strategy(), qs in prop::collection::vec(any::<u64>(), 1..20)) {
        let mut buf = Vec::new();
        io::write_kruskal(&model, &mut buf).expect("write");
        let loaded = io::read_kruskal(&buf[..]).expect("read");
        let engine = Engine::new(&loaded, EngineConfig::default()).expect("engine");
        for &q in &qs {
            let idx = index_for(&model.shape(), q);
            prop_assert_eq!(
                engine.point(&idx).expect("point").to_bits(),
                model.eval(&idx).to_bits()
            );
        }
    }

    /// The pruned top-K search returns exactly what brute force returns —
    /// same indices, same order, bit-identical scores.
    #[test]
    fn topk_matches_brute_force(model in model_strategy(), q in any::<u64>(), k in 1usize..12) {
        let engine = Engine::new(&model, EngineConfig::default()).expect("engine");
        let shape = model.shape();
        let mode = (q as usize) % shape.len();
        let at = index_for(&shape, q ^ 0xabcd);
        let got = engine
            .topk(&TopKQuery { mode, at: at.clone(), k }, None)
            .expect("topk");
        prop_assert!(!got.degraded);

        let mut brute: Vec<TopKItem> = (0..shape[mode])
            .map(|i| {
                let mut idx = at.clone();
                idx[mode] = i;
                TopKItem { index: i, score: model.eval(&idx) }
            })
            .collect();
        brute.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
        brute.truncate(k.min(shape[mode]));
        prop_assert_eq!(got.items, brute);
    }
}

/// Several modes and k values on one larger model, against brute force.
#[test]
fn topk_exact_across_modes_and_k() {
    let model = KruskalTensor::random(&[400, 120, 30, 6], 7, 2024);
    let engine = Engine::new(&model, EngineConfig::default()).unwrap();
    let at = vec![17, 40, 3, 2];
    for mode in 0..4 {
        for k in [1, 3, 10, 64, 1000] {
            let got = engine.topk(&TopKQuery { mode, at: at.clone(), k }, None).unwrap();
            let dim = model.shape()[mode];
            let mut brute: Vec<TopKItem> = (0..dim)
                .map(|i| {
                    let mut idx = at.clone();
                    idx[mode] = i;
                    TopKItem { index: i, score: model.eval(&idx) }
                })
                .collect();
            brute.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.index.cmp(&b.index)));
            brute.truncate(k.min(dim));
            assert_eq!(got.items, brute, "mode {mode}, k {k}");
            assert_eq!(got.scanned + got.pruned, dim, "accounting, mode {mode} k {k}");
        }
    }
    // On the large mode with small k, pruning must have done real work.
    let res = engine.topk(&TopKQuery { mode: 0, at: at.clone(), k: 1 }, None).unwrap();
    assert!(res.scanned < 400, "bound never pruned: scanned {}", res.scanned);
}

/// Deadline-bounded top-K returns a well-formed degraded prefix whose
/// items agree with brute force over the candidates it scanned.
#[test]
fn deadline_bounded_topk_degrades_gracefully() {
    let model = KruskalTensor::random(&[8000, 20, 10], 6, 99);
    let engine = Engine::new(&model, EngineConfig { topk_cache: 0 }).unwrap();
    // The deadline window is shorter than k, so the clock is read before
    // the heap fills and the bound could end the scan.
    let q = TopKQuery { mode: 0, at: vec![0, 7, 3], k: 200 };
    let res = engine.topk(&q, Some(Duration::ZERO)).unwrap();
    assert!(res.degraded);
    assert!(res.scanned >= DEADLINE_CHECK_EVERY);
    assert!(res.scanned < 8000);
    assert_eq!(res.items.len(), res.scanned.min(200));
    for w in res.items.windows(2) {
        assert!(w[0].score >= w[1].score || (w[0].score == w[1].score && w[0].index < w[1].index));
    }
    // Every reported score is the true completed-tensor value.
    for item in &res.items {
        assert_eq!(item.score, model.eval(&[item.index, 7, 3]));
    }
    let s = engine.snapshot();
    assert_eq!(s.deadline_misses, 1);
    assert_eq!(s.degraded_results, 1);
}

/// The full stack: model → queue → a burst of point reads, with
/// responses checked against direct evaluation. The burst arrives while
/// no drainer is free, so what a free drainer then takes is exactly what
/// queued up meanwhile: 60 requests leave in `max_batch`-sized batches of
/// 25, 25 and 10, each one coalesced engine call.
#[test]
fn queued_serving_agrees_with_direct_evaluation() {
    let model = KruskalTensor::random(&[60, 30, 12], 5, 7);
    let engine = Arc::new(Engine::new(&model, EngineConfig::default()).unwrap());
    let queue = ServeQueue::new(
        Arc::clone(&engine),
        QueueConfig { workers: 0, max_batch: 25, ..Default::default() },
    )
    .unwrap();

    let mut expected = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..60usize {
        let idx = vec![i, i % 30, i % 12];
        expected.push(model.eval(&idx));
        tickets.push(queue.submit(Request::Point { index: idx }).unwrap());
    }
    let batches: Vec<usize> = std::iter::from_fn(|| Some(queue.drain_once()))
        .take_while(|&served| served > 0)
        .collect();
    assert_eq!(batches, [25, 25, 10]);
    for (want, ticket) in expected.into_iter().zip(tickets) {
        match ticket.wait() {
            Response::Value(got) => assert_eq!(got.to_bits(), want.to_bits()),
            other => panic!("expected a value, got {other:?}"),
        }
    }
    let s = engine.snapshot();
    assert_eq!((s.batches_executed, s.batch_queries, s.batch_points), (3, 3, 60));
}

/// Cache hits serve repeated top-K queries without re-scanning.
#[test]
fn topk_cache_short_circuits_repeats() {
    let model = KruskalTensor::random(&[500, 40, 8], 4, 13);
    let engine = Engine::new(&model, EngineConfig::default()).unwrap();
    let q = TopKQuery { mode: 0, at: vec![0, 11, 5], k: 10 };
    let first = engine.topk(&q, None).unwrap();
    let scanned_after_first = engine.snapshot().candidates_scanned;
    for _ in 0..5 {
        assert_eq!(engine.topk(&q, None).unwrap(), first);
    }
    let s = engine.snapshot();
    assert_eq!(s.candidates_scanned, scanned_after_first, "hits must not re-scan");
    assert_eq!(s.cache_hits, 5);
    assert_eq!(s.cache_misses, 1);
    assert!(s.cache_hit_rate() > 0.8);
}
