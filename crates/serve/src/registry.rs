//! Multi-model registry: one process serving several completed tensors.
//!
//! A [`ModelRegistry`] maps tenant names to independent [`LiveEngine`]s —
//! each tenant gets its own [`FactorStore`], its own hot-swap
//! generation stream, its own top-K cache, and its own per-tenant
//! [`ServeMetrics`]. On top the registry keeps a *fleet* metrics block
//! for cross-tenant accounting (queue depth, sheds, end-to-end latency),
//! which is what a [`crate::ServeQueue`] counts into. A registry is the
//! queue's only backend: [`crate::ServeQueue::new`] fronts a one-tenant
//! registry whose fleet block is its engine's own metrics.
//!
//! Tenants are only ever added, so a queue resolves a tenant's
//! [`LiveEngine`] once, when its lane is created, and that handle never
//! goes stale.
//!
//! The tenant map is read-mostly: queries resolve tenants through a
//! shared read lock, registration takes the write lock briefly.
//! Publishing a new model for a tenant does **not** lock the map at all —
//! it clones the tenant's `Arc<LiveEngine>` under the read lock and then
//! runs the build + atomic swap entirely on that engine.
//!
//! [`FactorStore`]: crate::store::FactorStore

use crate::engine::{Engine, EngineConfig};
use crate::live::LiveEngine;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::{Result, ServeError};
use distenc_tensor::KruskalTensor;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A keyed collection of independently hot-swappable serving engines.
#[derive(Debug)]
pub struct ModelRegistry {
    tenants: RwLock<BTreeMap<Arc<str>, Arc<LiveEngine>>>,
    /// Fleet-level counters (queue accounting across all tenants).
    metrics: Arc<ServeMetrics>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            tenants: RwLock::new(BTreeMap::new()),
            metrics: Arc::new(ServeMetrics::new()),
        }
    }

    /// A registry of one tenant, `name`, serving `engine` and counting
    /// fleet events into the engine's own metrics.
    pub(crate) fn of_engine(name: &str, engine: Arc<Engine>) -> Self {
        let metrics = engine.metrics_handle();
        let live = Arc::new(LiveEngine::serving(engine));
        ModelRegistry { tenants: RwLock::new(BTreeMap::from([(Arc::from(name), live)])), metrics }
    }

    /// Register `name` serving `model` (as its generation 1). Each tenant
    /// may carry its own [`EngineConfig`] — e.g. a top-K cache for tenants
    /// with repeated queries, none for the rest. Errors
    /// with [`ServeError::AlreadyRegistered`] on a duplicate name.
    pub fn register(&self, name: &str, model: &KruskalTensor, cfg: EngineConfig) -> Result<()> {
        let engine = Arc::new(LiveEngine::new(model, cfg)?);
        let mut map = self.tenants.write().expect("registry lock");
        if map.contains_key(name) {
            return Err(ServeError::AlreadyRegistered(name.to_string()));
        }
        map.insert(Arc::from(name), engine);
        Ok(())
    }

    /// Hot-publish a new model generation for `name` (see
    /// [`LiveEngine::publish`]). The registry lock is held only to clone
    /// the tenant handle; the build and swap run outside it.
    pub fn publish(&self, name: &str, model: &KruskalTensor) -> Result<u64> {
        let engine = self
            .engine(name)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))?;
        engine.publish(model)
    }

    /// The tenant's live engine, if registered.
    pub fn engine(&self, name: &str) -> Option<Arc<LiveEngine>> {
        self.tenants.read().expect("registry lock").get(name).cloned()
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tenants.read().expect("registry lock").keys().map(|k| k.to_string()).collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().expect("registry lock").len()
    }

    /// True iff no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().expect("registry lock").is_empty()
    }

    /// Fleet-level counters (what a registry-backed queue counts into).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Clonable handle to the fleet counters.
    pub fn metrics_handle(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Snapshot of the fleet counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Per-tenant metric snapshots, sorted by tenant name.
    pub fn tenant_snapshots(&self) -> Vec<(String, MetricsSnapshot)> {
        self.tenants
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, engine)| (name.to_string(), engine.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKQuery;

    #[test]
    fn tenants_serve_their_own_models() {
        let reg = ModelRegistry::new();
        let ma = KruskalTensor::random(&[20, 10, 5], 3, 1);
        let mb = KruskalTensor::random(&[8, 8], 2, 2);
        reg.register("alpha", &ma, EngineConfig::default()).unwrap();
        reg.register("beta", &mb, EngineConfig::default()).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["alpha".to_string(), "beta".to_string()]);

        let a = reg.engine("alpha").unwrap().point(&[3, 4, 2]).unwrap();
        assert_eq!(a.value.to_bits(), ma.eval(&[3, 4, 2]).to_bits());
        let b = reg.engine("beta").unwrap().point(&[7, 1]).unwrap();
        assert_eq!(b.value.to_bits(), mb.eval(&[7, 1]).to_bits());
        assert!(reg.engine("gamma").is_none());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let reg = ModelRegistry::new();
        let m = KruskalTensor::random(&[5, 5], 2, 0);
        reg.register("a", &m, EngineConfig::default()).unwrap();
        assert!(matches!(
            reg.register("a", &m, EngineConfig::default()),
            Err(ServeError::AlreadyRegistered(_))
        ));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn publish_swaps_one_tenant_only() {
        let reg = ModelRegistry::new();
        let ma1 = KruskalTensor::random(&[20, 10], 2, 3);
        let mb = KruskalTensor::random(&[20, 10], 2, 4);
        reg.register("a", &ma1, EngineConfig::default()).unwrap();
        reg.register("b", &mb, EngineConfig::default()).unwrap();

        let ma2 = KruskalTensor::random(&[20, 10], 2, 5);
        assert_eq!(reg.publish("a", &ma2).unwrap(), 2);
        let a = reg.engine("a").unwrap().point(&[1, 2]).unwrap();
        assert_eq!(a.generation, 2);
        assert_eq!(a.value.to_bits(), ma2.eval(&[1, 2]).to_bits());
        let b = reg.engine("b").unwrap().point(&[1, 2]).unwrap();
        assert_eq!(b.generation, 1);
        assert_eq!(b.value.to_bits(), mb.eval(&[1, 2]).to_bits());

        assert!(matches!(
            reg.publish("missing", &ma2),
            Err(ServeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn per_tenant_configs_and_snapshots() {
        let reg = ModelRegistry::new();
        let m = KruskalTensor::random(&[200, 10, 10], 3, 6);
        reg.register("cached", &m, EngineConfig::default()).unwrap();
        reg.register("uncached", &m, EngineConfig { topk_cache: 0 }).unwrap();

        let q = TopKQuery { mode: 0, at: vec![0, 2, 3], k: 20 };
        for name in ["cached", "uncached"] {
            let live = reg.engine(name).unwrap();
            let first = live.topk(&q, None).unwrap();
            assert_eq!(live.topk(&q, None).unwrap().value, first.value);
        }

        let snaps = reg.tenant_snapshots();
        assert_eq!(snaps.len(), 2);
        let cached = &snaps.iter().find(|(n, _)| n == "cached").unwrap().1;
        assert_eq!((cached.cache_hits, cached.cache_misses), (1, 1));
        let uncached = &snaps.iter().find(|(n, _)| n == "uncached").unwrap().1;
        assert_eq!((uncached.cache_hits, uncached.cache_misses), (0, 0));
        assert_eq!((cached.topk_queries, uncached.topk_queries), (2, 2));
    }
}
