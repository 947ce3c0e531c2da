//! The serving front door: point, batch, and top-K queries over a
//! [`FactorStore`], with an LRU cache for repeated top-K requests and
//! always-on [`ServeMetrics`] accounting.
//!
//! Top-K is exact: the norm-bound-pruned scan skips only rows the
//! Cauchy–Schwarz bound proves outside the top K, and every score is
//! bit-identical to [`KruskalTensor::eval`]. Only an expired deadline cuts
//! the scan short, and then the result says so (`degraded`).
//!
//! Every engine owns its top-K cache, so an entry is always the answer of
//! the one model the engine serves: a hot-swapped generation (see
//! [`crate::LiveEngine`]) is a new engine and starts with an empty cache,
//! while a pinned older generation keeps answering from its own.

use crate::cache::LruCache;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::store::FactorStore;
use crate::topk::{self, TopKQuery, TopKResult};
use crate::{Result, ServeError};
use distenc_tensor::KruskalTensor;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cache key for a top-K query: `(mode, k, fixed indices sans the free
/// slot)`. Two queries that differ only in the ignored free-mode
/// placeholder share an entry.
type TopKKey = (usize, usize, Vec<usize>);

/// Tunables for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Capacity of the top-K result cache, in entries (0 disables it).
    pub topk_cache: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { topk_cache: 1024 }
    }
}

/// Immutable serving engine over a completed CP model.
///
/// The engine is `Sync`: the store is read-only and the cache sits behind
/// a mutex, so one engine can be shared across worker threads via `Arc`.
#[derive(Debug)]
pub struct Engine {
    store: FactorStore,
    cache: Mutex<LruCache<TopKKey, TopKResult>>,
    metrics: Arc<ServeMetrics>,
    cfg: EngineConfig,
}

impl Engine {
    /// Copy `model` into a [`FactorStore`] and wrap it for serving. A
    /// factor holding a non-finite value is [`ServeError::NonFiniteModel`].
    pub fn new(model: &KruskalTensor, cfg: EngineConfig) -> Result<Self> {
        Engine::with_metrics(model, cfg, Arc::new(ServeMetrics::new()))
    }

    /// Like [`Engine::new`], but counting into an existing set of
    /// metrics. This is how [`crate::LiveEngine`] keeps one continuous
    /// counter stream across model generations: each published engine is
    /// fresh, the metrics are shared.
    pub(crate) fn with_metrics(
        model: &KruskalTensor,
        cfg: EngineConfig,
        metrics: Arc<ServeMetrics>,
    ) -> Result<Self> {
        // Every engine is built here, so no path serves a diverged model.
        if let Some(mode) =
            model.factors().iter().position(|a| a.as_slice().iter().any(|x| !x.is_finite()))
        {
            return Err(ServeError::NonFiniteModel { mode });
        }
        Ok(Engine {
            store: FactorStore::new(model),
            cache: Mutex::new(LruCache::new(cfg.topk_cache)),
            metrics,
            cfg,
        })
    }

    /// The configuration this engine was built with.
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The underlying factor store.
    pub fn store(&self) -> &FactorStore {
        &self.store
    }

    /// Shape of the served tensor.
    pub(crate) fn shape(&self) -> &[usize] {
        self.store.shape()
    }

    /// Clonable handle to the counters, for worker threads and reporters.
    pub(crate) fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Snapshot the counters for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Entries currently held by the top-K cache.
    #[cfg(test)]
    fn cache_entries(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Check a full index tuple against the served shape.
    pub(crate) fn validate_index(&self, index: &[usize]) -> Result<()> {
        let shape = self.store.shape();
        if index.len() != shape.len() {
            return Err(ServeError::BadQuery(format!(
                "index has {} modes, model has {}",
                index.len(),
                shape.len()
            )));
        }
        for (m, (&i, &d)) in index.iter().zip(shape).enumerate() {
            if i >= d {
                return Err(ServeError::BadQuery(format!(
                    "index {i} out of bounds for mode {m} (length {d})"
                )));
            }
        }
        Ok(())
    }

    fn validate_topk(&self, q: &TopKQuery) -> Result<()> {
        let shape = self.store.shape();
        if q.mode >= shape.len() {
            return Err(ServeError::BadQuery(format!(
                "free mode {} out of bounds for order {}",
                q.mode,
                shape.len()
            )));
        }
        if q.at.len() != shape.len() {
            return Err(ServeError::BadQuery(format!(
                "fixed index tuple has {} modes, model has {}",
                q.at.len(),
                shape.len()
            )));
        }
        for (m, (&i, &d)) in q.at.iter().zip(shape).enumerate() {
            if m != q.mode && i >= d {
                return Err(ServeError::BadQuery(format!(
                    "fixed index {i} out of bounds for mode {m} (length {d})"
                )));
            }
        }
        Ok(())
    }

    /// One completed entry `x̂(i₁,…,i_N)`, bit-identical to
    /// [`KruskalTensor::eval`] on the source model.
    pub fn point(&self, index: &[usize]) -> Result<f64> {
        self.validate_index(index)?;
        let start = Instant::now();
        let rows: Vec<&[f64]> = index
            .iter()
            .enumerate()
            .map(|(m, &i)| self.store.row(m, i))
            .collect();
        let mut acc = 0.0;
        for rr in 0..self.store.rank() {
            let mut prod = 1.0;
            for row in &rows {
                prod *= row[rr];
            }
            acc += prod;
        }
        self.metrics.point();
        self.metrics.record_latency(start.elapsed());
        Ok(acc)
    }

    /// Score many entries in one pass. Factor rows are gathered once per
    /// entry up front, then a single shared rank loop sweeps all entries —
    /// amortizing row lookups and keeping the inner loop over contiguous
    /// row slices. Per-entry values are bit-identical to [`Engine::point`].
    pub fn batch<I: AsRef<[usize]>>(&self, indices: &[I]) -> Result<Vec<f64>> {
        for idx in indices {
            self.validate_index(idx.as_ref())?;
        }
        let start = Instant::now();
        let n = self.store.order();
        let mut rows: Vec<&[f64]> = Vec::with_capacity(indices.len() * n);
        for idx in indices {
            for (m, &i) in idx.as_ref().iter().enumerate() {
                rows.push(self.store.row(m, i));
            }
        }
        let mut out = vec![0.0; indices.len()];
        for rr in 0..self.store.rank() {
            for (b, o) in out.iter_mut().enumerate() {
                let mut prod = 1.0;
                for row in &rows[b * n..(b + 1) * n] {
                    prod *= row[rr];
                }
                *o += prod;
            }
        }
        self.metrics.batch(indices.len() as u64);
        self.metrics.record_latency(start.elapsed());
        Ok(out)
    }

    /// The best `k` indices along the query's free mode. Results are
    /// exact unless the optional `budget` expires mid-scan (then
    /// `degraded` is set and the items are the best-so-far). Non-degraded
    /// results are cached.
    pub fn topk(&self, query: &TopKQuery, budget: Option<Duration>) -> Result<TopKResult> {
        self.validate_topk(query)?;
        let start = Instant::now();
        self.metrics.topk();

        let fixed: Vec<usize> = query
            .at
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != query.mode)
            .map(|(_, &i)| i)
            .collect();
        let key: TopKKey = (query.mode, query.k, fixed);
        let cached = self.cfg.topk_cache > 0;
        if cached {
            if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
                let hit = hit.clone();
                self.metrics.cache_hit();
                self.metrics.record_latency(start.elapsed());
                return Ok(hit);
            }
            self.metrics.cache_miss();
        }

        let deadline = budget.map(|b| start + b);
        let res = topk::search(&self.store, query, deadline);
        self.metrics.scan(res.scanned as u64, res.pruned as u64);
        if res.degraded {
            self.metrics.degraded();
            self.metrics.deadline_miss();
        } else if cached {
            self.cache.lock().expect("cache lock").put(key, res.clone());
        }

        self.metrics.record_latency(start.elapsed());
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_is_bit_exact_vs_eval() {
        let model = KruskalTensor::random(&[30, 20, 10], 5, 17);
        let engine = Engine::new(&model, EngineConfig::default()).unwrap();
        for idx in [[0, 0, 0], [29, 19, 9], [7, 13, 4]] {
            assert_eq!(engine.point(&idx).unwrap(), model.eval(&idx));
        }
    }

    #[test]
    fn batch_matches_point_bitwise() {
        let model = KruskalTensor::random(&[25, 25, 25], 4, 3);
        let engine = Engine::new(&model, EngineConfig::default()).unwrap();
        let queries: Vec<Vec<usize>> =
            (0..50).map(|i| vec![i % 25, (i * 7) % 25, (i * 3) % 25]).collect();
        let batched = engine.batch(&queries).unwrap();
        for (idx, &v) in queries.iter().zip(&batched) {
            assert_eq!(v, engine.point(idx).unwrap());
        }
    }

    #[test]
    fn bad_queries_are_rejected() {
        let model = KruskalTensor::random(&[5, 5], 2, 1);
        let engine = Engine::new(&model, EngineConfig::default()).unwrap();
        assert!(matches!(engine.point(&[0]), Err(ServeError::BadQuery(_))));
        assert!(matches!(engine.point(&[5, 0]), Err(ServeError::BadQuery(_))));
        assert!(matches!(
            engine.batch(&[vec![0, 0], vec![0, 9]]),
            Err(ServeError::BadQuery(_))
        ));
        let q = TopKQuery { mode: 2, at: vec![0, 0], k: 1 };
        assert!(matches!(engine.topk(&q, None), Err(ServeError::BadQuery(_))));
    }

    #[test]
    fn topk_cache_hits_on_repeat() {
        let model = KruskalTensor::random(&[100, 10, 10], 3, 9);
        let engine = Engine::new(&model, EngineConfig::default()).unwrap();
        let q = TopKQuery { mode: 0, at: vec![0, 3, 4], k: 5 };
        let first = engine.topk(&q, None).unwrap();
        // Same query with a different free-slot placeholder: still a hit.
        let q2 = TopKQuery { mode: 0, at: vec![99, 3, 4], k: 5 };
        let second = engine.topk(&q2, None).unwrap();
        assert_eq!(first, second);
        let s = engine.snapshot();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(engine.cache_entries(), 1);
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let model = KruskalTensor::random(&[4000, 8, 8], 4, 5);
        let engine = Engine::new(&model, EngineConfig::default()).unwrap();
        // A window shorter than k makes the deadline fire before the
        // bound can end the scan.
        let q = TopKQuery { mode: 0, at: vec![0, 1, 2], k: 2 * topk::DEADLINE_CHECK_EVERY };
        let degraded = engine.topk(&q, Some(Duration::ZERO)).unwrap();
        assert!(degraded.degraded);
        assert_eq!(engine.cache_entries(), 0);
        // The follow-up unconstrained query recomputes and caches.
        let full = engine.topk(&q, None).unwrap();
        assert!(!full.degraded);
        assert_eq!(engine.cache_entries(), 1);
        let s = engine.snapshot();
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.degraded_results, 1);
    }

    #[test]
    fn disabled_cache_counts_no_hits_or_misses() {
        let model = KruskalTensor::random(&[50, 5, 5], 2, 2);
        let cfg = EngineConfig { topk_cache: 0 };
        let engine = Engine::new(&model, cfg).unwrap();
        let q = TopKQuery { mode: 0, at: vec![0, 2, 2], k: 3 };
        engine.topk(&q, None).unwrap();
        engine.topk(&q, None).unwrap();
        let s = engine.snapshot();
        assert_eq!(s.cache_hits + s.cache_misses, 0);
        assert_eq!(s.topk_queries, 2);
    }
}
