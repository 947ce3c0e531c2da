//! Live model swap: serve one model generation while publishing the next.
//!
//! A [`LiveEngine`] wraps an epoch-versioned [`Engine`] handle in an
//! `arc-swap` cell (vendored shim). Readers resolve the handle **once per
//! query** — every row gather, cache probe, and top-K scan inside that
//! query sees one coherent `(engine, generation)` pair, so a response is
//! always attributable to exactly one model generation even if a publish
//! lands mid-query. Publishing builds the new engine off to the side
//! (the store's norm tables are the expensive part), from the served
//! engine's config and into its metrics, and then swaps the handle with a
//! single atomic store; queries in flight finish on the generation they
//! pinned, new queries see the new model. No reader ever blocks and no
//! read can fail because of a swap. Each generation's engine owns its
//! top-K cache, so the new one starts cold and a pinned old one keeps
//! answering from its own entries: no entry can cross models.
//!
//! Memory ordering: correctness rests on the cell's Release-store /
//! Acquire-load pair (see the `arc-swap` shim docs for the full
//! argument); the generation tag travels *inside* the swapped value, so
//! it can never be observed torn from its engine. The
//! `ServeMetrics::publish` counters are relaxed — they feed reporting,
//! not the swap protocol.

use crate::engine::{Engine, EngineConfig};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::topk::{TopKQuery, TopKResult};
use crate::Result;
use arc_swap::ArcSwap;
use distenc_tensor::KruskalTensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A query response tagged with the model generation that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged<T> {
    /// The response payload.
    pub value: T,
    /// The generation of the model that served this query (1-based;
    /// generation 1 is the model the engine was created with).
    pub generation: u64,
}

/// One published model generation: an engine plus its epoch tag, swapped
/// as a unit so the two can never be observed out of sync.
#[derive(Debug)]
struct GenerationSlot {
    engine: Arc<Engine>,
    generation: u64,
}

/// A hot-swappable serving engine.
///
/// All query methods mirror [`Engine`]'s, returning [`Tagged`] responses.
/// [`LiveEngine::publish`] atomically replaces the served model; the new
/// generation's top-K cache starts cold, while [`ServeMetrics`] counters
/// continue across generations as one stream.
#[derive(Debug)]
pub struct LiveEngine {
    slot: ArcSwap<GenerationSlot>,
    metrics: Arc<ServeMetrics>,
    next_generation: AtomicU64,
}

impl LiveEngine {
    /// Start serving `model` as generation 1.
    pub fn new(model: &KruskalTensor, cfg: EngineConfig) -> Result<Self> {
        let live = LiveEngine::serving(Arc::new(Engine::new(model, cfg)?));
        live.metrics.publish(1);
        Ok(live)
    }

    /// Serve an existing engine as generation 1, counting into its
    /// metrics. Counts no publish: the engine was never published here.
    pub(crate) fn serving(engine: Arc<Engine>) -> Self {
        LiveEngine {
            metrics: engine.metrics_handle(),
            slot: ArcSwap::new(Arc::new(GenerationSlot { engine, generation: 1 })),
            next_generation: AtomicU64::new(2),
        }
    }

    /// Build and atomically publish a new model generation, returning its
    /// tag. The build happens before the swap, so the served model is
    /// stale-but-consistent during the build and the cutover itself is
    /// one atomic store. The new model may have any shape/rank (streaming
    /// growth changes both). The new engine has the served engine's
    /// config and metrics and an empty top-K cache of its own.
    pub fn publish(&self, model: &KruskalTensor) -> Result<u64> {
        // Build first, allocate the generation second: a model that fails
        // to build must not burn a generation number.
        let served = Arc::clone(&self.slot.load_full().engine);
        let cfg = served.config().clone();
        let engine = match Engine::with_metrics(model, cfg, served.metrics_handle()) {
            Ok(e) => e,
            Err(e) => {
                // Publish-on-success only: a model the engine cannot build
                // never replaces the serving generation.
                self.metrics.publish_failed();
                return Err(e);
            }
        };
        let generation = self.next_generation.fetch_add(1, Ordering::SeqCst);
        self.slot.store(Arc::new(GenerationSlot { engine: Arc::new(engine), generation }));
        self.metrics.publish(generation);
        Ok(generation)
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.slot.load_full().generation
    }

    /// Shape of the currently served model.
    pub fn shape(&self) -> Vec<usize> {
        self.slot.load_full().engine.shape().to_vec()
    }

    /// Live counters, continuous across generations.
    pub(crate) fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Snapshot the counters for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// One completed entry (see [`Engine::point`]), tagged with the
    /// generation that scored it.
    pub fn point(&self, index: &[usize]) -> Result<Tagged<f64>> {
        let slot = self.slot.load_full();
        let value = slot.engine.point(index)?;
        Ok(Tagged { value, generation: slot.generation })
    }

    /// Top-K search (see [`Engine::topk`]); cache and scan both run
    /// against the pinned generation.
    pub fn topk(&self, query: &TopKQuery, budget: Option<Duration>) -> Result<Tagged<TopKResult>> {
        let slot = self.slot.load_full();
        let value = slot.engine.topk(query, budget)?;
        Ok(Tagged { value, generation: slot.generation })
    }

    /// Pin the current generation for a run of queries. Unlike the
    /// per-query methods (which pin per call), the returned handle keeps
    /// one `(engine, generation)` pair alive for its whole lifetime — the
    /// queue uses this to serve an entire drained batch from a single
    /// coherent model even if a publish lands mid-batch.
    pub(crate) fn pin(&self) -> Pinned {
        Pinned { slot: self.slot.load_full() }
    }
}

/// One pinned model generation (see [`LiveEngine::pin`]). Holding a
/// `Pinned` keeps its generation's engine alive; publishes proceed
/// unblocked and new pins see the new model.
#[derive(Debug)]
pub(crate) struct Pinned {
    slot: Arc<GenerationSlot>,
}

impl Pinned {
    /// The pinned engine; every query through it is served by one model.
    pub(crate) fn engine(&self) -> &Engine {
        &self.slot.engine
    }

    /// The pinned generation tag.
    #[cfg(test)]
    fn generation(&self) -> u64 {
        self.slot.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_and_tags_generations() {
        let m1 = KruskalTensor::random(&[20, 15, 10], 3, 1);
        let live = LiveEngine::new(&m1, EngineConfig::default()).unwrap();
        let r = live.point(&[3, 4, 5]).unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.value.to_bits(), m1.eval(&[3, 4, 5]).to_bits());

        let m2 = KruskalTensor::random(&[20, 15, 10], 3, 2);
        assert_eq!(live.publish(&m2).unwrap(), 2);
        let r = live.point(&[3, 4, 5]).unwrap();
        assert_eq!(r.generation, 2);
        assert_eq!(r.value.to_bits(), m2.eval(&[3, 4, 5]).to_bits());
        assert_eq!(live.generation(), 2);

        let s = live.snapshot();
        assert_eq!(s.models_published, 2);
        assert_eq!(s.serving_generation, 2);
        // Counters are continuous across the swap.
        assert_eq!(s.point_queries, 2);
    }

    #[test]
    fn publish_accepts_grown_models() {
        let m1 = KruskalTensor::random(&[10, 8], 2, 3);
        let live = LiveEngine::new(&m1, EngineConfig::default()).unwrap();
        assert!(live.point(&[10, 0]).is_err(), "out of range on gen 1");
        let m2 = KruskalTensor::random(&[12, 8], 2, 4);
        live.publish(&m2).unwrap();
        assert_eq!(live.shape(), vec![12, 8]);
        let r = live.point(&[10, 0]).unwrap();
        assert_eq!(r.generation, 2);
    }

    #[test]
    fn a_non_finite_model_is_never_served() {
        let m1 = KruskalTensor::random(&[10, 8, 6], 2, 9);
        let live = LiveEngine::new(&m1, EngineConfig::default()).unwrap();
        for (mode, bad) in [(0, f64::NAN), (1, f64::INFINITY), (2, f64::NEG_INFINITY)] {
            let mut factors = m1.factors().to_vec();
            factors[mode].set(3, 1, bad);
            let model = KruskalTensor::new(factors).unwrap();
            let refused = crate::ServeError::NonFiniteModel { mode };
            // Refused before it is numbered: the generation stays.
            assert_eq!(live.publish(&model).unwrap_err(), refused);
            assert_eq!(live.generation(), 1);
            assert_eq!(live.point(&[3, 3, 3]).unwrap().value, m1.eval(&[3, 3, 3]));
            // Nor is it served as a first generation.
            assert_eq!(LiveEngine::new(&model, EngineConfig::default()).unwrap_err(), refused);
        }
        let s = live.snapshot();
        assert_eq!((s.models_published, s.models_failed), (1, 3));
    }

    #[test]
    fn publish_mid_stream_never_serves_stale_topk() {
        // Regression test for generation-unaware caching: a top-K result
        // cached before a publish must never be returned after it.
        let m1 = KruskalTensor::random(&[60, 8, 8], 3, 41);
        let live = LiveEngine::new(&m1, EngineConfig::default()).unwrap();
        let q = TopKQuery { mode: 0, at: vec![0, 3, 5], k: 5 };

        // Warm the cache on generation 1 and confirm it hits.
        let warm = live.topk(&q, None).unwrap();
        assert_eq!(warm.generation, 1);
        let hit = live.topk(&q, None).unwrap();
        assert_eq!(hit.value, warm.value);
        assert_eq!(live.snapshot().cache_hits, 1);

        // A pinned gen-1 handle taken before the publish.
        let pinned = live.pin();
        assert_eq!(pinned.generation(), 1);

        // Publish mid-stream; the same query must be recomputed against
        // the new model, not served from the gen-1 cache entry.
        let m2 = KruskalTensor::random(&[60, 8, 8], 3, 42);
        live.publish(&m2).unwrap();
        let fresh = live.topk(&q, None).unwrap();
        assert_eq!(fresh.generation, 2);
        let s = live.snapshot();
        assert_eq!(s.cache_misses, 2, "post-publish query must miss, not hit stale");
        for item in &fresh.value.items {
            let mut idx = q.at.clone();
            idx[q.mode] = item.index;
            assert_eq!(
                item.score.to_bits(),
                m2.eval(&idx).to_bits(),
                "served score must come from the published model"
            );
        }

        // The old pinned handle answers from its own gen-1 cache: a hit,
        // carrying gen-1 bits.
        let old = pinned.engine().topk(&q, None).unwrap();
        assert_eq!(live.snapshot().cache_hits, 2, "the pinned repeat is a hit");
        assert_eq!(old, warm.value);
        for item in &old.items {
            let mut idx = q.at.clone();
            idx[q.mode] = item.index;
            assert_eq!(item.score.to_bits(), m1.eval(&idx).to_bits());
        }
    }

    #[test]
    fn topk_cache_does_not_leak_across_generations() {
        let m1 = KruskalTensor::random(&[50, 6, 6], 3, 5);
        let live = LiveEngine::new(&m1, EngineConfig::default()).unwrap();
        let q = TopKQuery { mode: 0, at: vec![0, 2, 3], k: 4 };
        let first = live.topk(&q, None).unwrap();
        let m2 = KruskalTensor::random(&[50, 6, 6], 3, 6);
        live.publish(&m2).unwrap();
        let second = live.topk(&q, None).unwrap();
        assert_eq!(second.generation, 2);
        assert_ne!(first.value.items, second.value.items, "gen-2 top-K must be recomputed");
    }
}
