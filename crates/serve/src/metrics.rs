//! Serving-side accounting, mirroring the style of `dataflow::Metrics`:
//! cheap always-on counters plus a snapshot struct for reporting.
//!
//! All counters are relaxed atomics — the serving hot path must never
//! take a lock to count a query. Latencies go into log-linear
//! [`Histogram`]s: every power-of-two octave of nanoseconds is cut into
//! [`SUB`] equal sub-buckets, and a snapshot quantile is the upper edge of
//! the sub-bucket holding it — never below the true value and at most
//! `1/SUB` (6.25 %) above it.

use crate::ticket::ShedReason;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Linear sub-buckets per octave. Eight would bound the overshoot at
/// 12.5 %; sixteen is the smallest power of two that keeps it under 7 %.
const SUB: u64 = 16;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Values below `SUB` get a bucket each; every octave from `2^SUB_BITS`
/// to `2^63` gets `SUB` more.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Bucket of a latency of `nanos`: the value itself below `SUB`, else
/// `SUB` per octave above it plus the top `SUB_BITS` bits after the
/// leading one.
fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let shift = 63 - nanos.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((nanos >> shift) - SUB)) as usize
}

/// Largest latency that lands in `bucket`, in nanoseconds.
fn upper_edge(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB {
        return bucket;
    }
    let (shift, sub) = (bucket / SUB - 1, bucket % SUB);
    // The last bucket's exclusive edge is 2^64: saturate to u64::MAX.
    (((u128::from(SUB + sub) + 1) << shift) - 1).min(u128::from(u64::MAX)) as u64
}

/// A latency histogram on relaxed atomics: log-linear buckets plus the
/// count and sum the mean is read from.
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn record(&self, lat: Duration) {
        let nanos = lat.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_of(nanos)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_nanos.fetch_add(nanos, Relaxed);
    }

    fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    fn mean(&self) -> Duration {
        self.sum_nanos
            .load(Relaxed)
            .checked_div(self.count())
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Upper edge of the bucket holding quantile `q` of what has been
    /// recorded: the true latency is at most this, and at least
    /// `SUB / (SUB + 1)` of it.
    fn quantile(&self, q: f64) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let target = ((count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n.load(Relaxed);
            if seen >= target {
                return Duration::from_nanos(upper_edge(b));
            }
        }
        // Only reachable while a concurrent `record` has bumped `count`
        // but not yet its bucket.
        Duration::from_nanos(u64::MAX)
    }
}

/// Always-on counters for a serving engine. Shared via `Arc` between the
/// engine, the queue workers, and whoever reports.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    point_queries: AtomicU64,
    batch_queries: AtomicU64,
    batch_points: AtomicU64,
    topk_queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    deadline_misses: AtomicU64,
    degraded_results: AtomicU64,
    candidates_scanned: AtomicU64,
    candidates_pruned: AtomicU64,
    queue_rejections: AtomicU64,
    batches_executed: AtomicU64,
    models_published: AtomicU64,
    models_failed: AtomicU64,
    serving_generation: AtomicU64,
    sheds_queue_depth: AtomicU64,
    sheds_deadline: AtomicU64,
    sheds_tenant_share: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    submits: AtomicU64,
    worker_wakes: AtomicU64,
    latency: Histogram,
    e2e: Histogram,
    queue_wait: Histogram,
}

impl ServeMetrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn point(&self) {
        self.point_queries.fetch_add(1, Relaxed);
    }

    pub(crate) fn batch(&self, points: u64) {
        self.batch_queries.fetch_add(1, Relaxed);
        self.batch_points.fetch_add(points, Relaxed);
    }

    pub(crate) fn topk(&self) {
        self.topk_queries.fetch_add(1, Relaxed);
    }

    pub(crate) fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Relaxed);
    }

    pub(crate) fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Relaxed);
    }

    /// A query blew its deadline before (or while) being served.
    pub fn deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Relaxed);
    }

    pub(crate) fn degraded(&self) {
        self.degraded_results.fetch_add(1, Relaxed);
    }

    pub(crate) fn scan(&self, scanned: u64, pruned: u64) {
        self.candidates_scanned.fetch_add(scanned, Relaxed);
        self.candidates_pruned.fetch_add(pruned, Relaxed);
    }

    /// The bounded queue rejected a submission.
    pub fn queue_rejection(&self) {
        self.queue_rejections.fetch_add(1, Relaxed);
    }

    /// One batch drained from the queue and executed.
    pub fn batch_executed(&self) {
        self.batches_executed.fetch_add(1, Relaxed);
    }

    /// A new model generation went live (hot swap). Counters are relaxed
    /// like everything here — the *swap itself* is ordered by the
    /// engine-handle cell, these only feed reporting.
    pub fn publish(&self, generation: u64) {
        self.models_published.fetch_add(1, Relaxed);
        self.serving_generation.store(generation, Relaxed);
    }

    /// A publish refused its model; the previously published generation
    /// keeps serving.
    pub fn publish_failed(&self) {
        self.models_failed.fetch_add(1, Relaxed);
    }

    /// Admission control shed a submission, for `reason`.
    pub(crate) fn shed(&self, reason: &ShedReason) {
        let counter = match reason {
            ShedReason::QueueDepth { .. } => &self.sheds_queue_depth,
            ShedReason::DeadlineInfeasible { .. } => &self.sheds_deadline,
            ShedReason::TenantShare { .. } => &self.sheds_tenant_share,
        };
        counter.fetch_add(1, Relaxed);
    }

    /// Record the queue depth after a submit or drain (keeps the gauge
    /// and its high-water mark current).
    pub fn queue_depth_update(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Relaxed);
        self.queue_depth_peak.fetch_max(depth, Relaxed);
    }

    /// One request entered a lane, leaving `depth` queued; `woke` says
    /// the submit found a parked worker and paid the wake-up for it.
    pub(crate) fn submitted(&self, depth: usize, woke: bool) {
        self.submits.fetch_add(1, Relaxed);
        self.worker_wakes.fetch_add(u64::from(woke), Relaxed);
        self.queue_depth_update(depth);
    }

    /// Record where one admitted-and-served queued request's time went:
    /// `queue_wait` from admit to dequeue, `e2e` from admit to the
    /// response being delivered (so `e2e − queue_wait` is its share of
    /// the batch's execution). Shed and timed-out requests are *not*
    /// recorded here — they are accounted by their own counters, so these
    /// quantiles describe what callers that got an answer actually waited.
    pub(crate) fn record_served(&self, queue_wait: Duration, e2e: Duration) {
        self.queue_wait.record(queue_wait);
        self.e2e.record(e2e);
    }

    /// Record one served-query latency.
    pub fn record_latency(&self, lat: Duration) {
        self.latency.record(lat);
    }

    /// Consistent-enough snapshot of all counters (individual loads are
    /// relaxed; serving continues while snapshotting).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            point_queries: self.point_queries.load(Relaxed),
            batch_queries: self.batch_queries.load(Relaxed),
            batch_points: self.batch_points.load(Relaxed),
            topk_queries: self.topk_queries.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            deadline_misses: self.deadline_misses.load(Relaxed),
            degraded_results: self.degraded_results.load(Relaxed),
            candidates_scanned: self.candidates_scanned.load(Relaxed),
            candidates_pruned: self.candidates_pruned.load(Relaxed),
            queue_rejections: self.queue_rejections.load(Relaxed),
            batches_executed: self.batches_executed.load(Relaxed),
            models_published: self.models_published.load(Relaxed),
            models_failed: self.models_failed.load(Relaxed),
            serving_generation: self.serving_generation.load(Relaxed),
            sheds_queue_depth: self.sheds_queue_depth.load(Relaxed),
            sheds_deadline: self.sheds_deadline.load(Relaxed),
            sheds_tenant_share: self.sheds_tenant_share.load(Relaxed),
            queue_depth: self.queue_depth.load(Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Relaxed),
            submits: self.submits.load(Relaxed),
            worker_wakes: self.worker_wakes.load(Relaxed),
            queue_wait_mean: self.queue_wait.mean(),
            queue_wait_p50: self.queue_wait.quantile(0.50),
            queue_wait_p99: self.queue_wait.quantile(0.99),
            e2e_p50: self.e2e.quantile(0.50),
            e2e_p90: self.e2e.quantile(0.90),
            e2e_p99: self.e2e.quantile(0.99),
            e2e_mean: self.e2e.mean(),
            e2e_recorded: self.e2e.count(),
            p50: self.latency.quantile(0.50),
            p90: self.latency.quantile(0.90),
            p99: self.latency.quantile(0.99),
            mean: self.latency.mean(),
            latencies_recorded: self.latency.count(),
        }
    }
}

/// Point-in-time copy of [`ServeMetrics`], ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Single-entry queries served.
    pub point_queries: u64,
    /// Batch queries served.
    pub batch_queries: u64,
    /// Entries scored across all batch queries.
    pub batch_points: u64,
    /// Top-K queries served (including cache hits).
    pub topk_queries: u64,
    /// Top-K queries answered from the LRU cache.
    pub cache_hits: u64,
    /// Top-K queries that had to be computed.
    pub cache_misses: u64,
    /// Queries that exceeded their deadline.
    pub deadline_misses: u64,
    /// Top-K queries that returned a degraded (best-so-far) result.
    pub degraded_results: u64,
    /// Top-K candidates exactly scored.
    pub candidates_scanned: u64,
    /// Top-K candidates skipped by the norm bound.
    pub candidates_pruned: u64,
    /// Submissions rejected by the bounded queue.
    pub queue_rejections: u64,
    /// Batches drained from the queue.
    pub batches_executed: u64,
    /// Model generations published over the engine's lifetime (0 for a
    /// static engine that never hot-swapped).
    pub models_published: u64,
    /// Publishes that refused their model; each one left the previous
    /// generation serving (graceful degradation).
    pub models_failed: u64,
    /// The model generation currently being served (0 until the first
    /// publish).
    pub serving_generation: u64,
    /// Submissions shed on the queue-depth watermark.
    pub sheds_queue_depth: u64,
    /// Submissions shed because their deadline was infeasible at admit.
    pub sheds_deadline: u64,
    /// Submissions shed because their tenant exceeded its queue share.
    pub sheds_tenant_share: u64,
    /// Queue depth at snapshot time (gauge, not a counter).
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub queue_depth_peak: u64,
    /// Requests that entered a lane (admitted, not shed or rejected).
    pub submits: u64,
    /// Submits that found a worker parked on an empty queue and woke it:
    /// `worker_wakes / submits` is the share that paid a futex call.
    pub worker_wakes: u64,
    /// Mean admit → dequeue wait of served queued requests.
    pub queue_wait_mean: Duration,
    /// Median admit → dequeue wait (bucket upper bound).
    pub queue_wait_p50: Duration,
    /// 99th-percentile admit → dequeue wait (bucket upper bound).
    pub queue_wait_p99: Duration,
    /// Median end-to-end (submit → served) latency (bucket upper bound).
    pub e2e_p50: Duration,
    /// 90th-percentile end-to-end latency (bucket upper bound).
    pub e2e_p90: Duration,
    /// 99th-percentile end-to-end latency (bucket upper bound).
    pub e2e_p99: Duration,
    /// Mean end-to-end latency.
    pub e2e_mean: Duration,
    /// Admitted-and-served queued requests with an end-to-end latency.
    pub e2e_recorded: u64,
    /// Median served latency (bucket upper bound).
    pub p50: Duration,
    /// 90th-percentile served latency (bucket upper bound).
    pub p90: Duration,
    /// 99th-percentile served latency (bucket upper bound).
    pub p99: Duration,
    /// Mean served latency.
    pub mean: Duration,
    /// Number of latencies recorded.
    pub latencies_recorded: u64,
}

impl MetricsSnapshot {
    /// Cache hit rate over top-K lookups, in `[0, 1]` (0 when unused).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of top-K candidates skipped by pruning, in `[0, 1]`.
    pub fn prune_rate(&self) -> f64 {
        let total = self.candidates_scanned + self.candidates_pruned;
        if total == 0 {
            0.0
        } else {
            self.candidates_pruned as f64 / total as f64
        }
    }

    /// Total queries served (a batch counts once).
    pub fn queries(&self) -> u64 {
        self.point_queries + self.batch_queries + self.topk_queries
    }

    /// Total submissions shed by admission control, over all causes.
    pub fn sheds(&self) -> u64 {
        self.sheds_queue_depth + self.sheds_deadline + self.sheds_tenant_share
    }

    /// Fraction of queue submissions shed by admission control, in
    /// `[0, 1]`: sheds over sheds-plus-served (0 when the queue is
    /// unused). Capacity rejections (`queue_rejections`) are a submit-side
    /// error, not a shed, and are excluded.
    pub fn shed_rate(&self) -> f64 {
        let total = self.sheds() + self.e2e_recorded;
        if total == 0 {
            0.0
        } else {
            self.sheds() as f64 / total as f64
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "queries served      : {}", self.queries())?;
        writeln!(
            f,
            "  point / batch / topk: {} / {} ({} entries) / {}",
            self.point_queries, self.batch_queries, self.batch_points, self.topk_queries
        )?;
        writeln!(f, "batches executed    : {}", self.batches_executed)?;
        writeln!(
            f,
            "cache hit rate      : {:.1}% ({} hits, {} misses)",
            100.0 * self.cache_hit_rate(),
            self.cache_hits,
            self.cache_misses
        )?;
        writeln!(
            f,
            "topk prune rate     : {:.1}% ({} scanned, {} pruned)",
            100.0 * self.prune_rate(),
            self.candidates_scanned,
            self.candidates_pruned
        )?;
        writeln!(
            f,
            "deadline misses     : {} ({} degraded top-K results)",
            self.deadline_misses, self.degraded_results
        )?;
        writeln!(f, "queue rejections    : {}", self.queue_rejections)?;
        writeln!(
            f,
            "sheds               : {} ({:.1}% of admits; depth {} / deadline {} / tenant {})",
            self.sheds(),
            100.0 * self.shed_rate(),
            self.sheds_queue_depth,
            self.sheds_deadline,
            self.sheds_tenant_share
        )?;
        writeln!(
            f,
            "queue depth         : {} now, {} peak",
            self.queue_depth, self.queue_depth_peak
        )?;
        writeln!(
            f,
            "models published    : {} (serving generation {}, {} failed publishes)",
            self.models_published, self.serving_generation, self.models_failed
        )?;
        writeln!(
            f,
            "latency (≤)         : p50 {:?}  p90 {:?}  p99 {:?}  mean {:?}  (n={})",
            self.p50, self.p90, self.p99, self.mean, self.latencies_recorded
        )?;
        writeln!(
            f,
            "e2e latency (≤)     : p50 {:?}  p90 {:?}  p99 {:?}  mean {:?}  (n={})",
            self.e2e_p50, self.e2e_p90, self.e2e_p99, self.e2e_mean, self.e2e_recorded
        )?;
        write!(
            f,
            "  of it queue wait  : p50 {:?}  p99 {:?}  mean {:?}  ({} worker wakes / {} submits)",
            self.queue_wait_p50,
            self.queue_wait_p99,
            self.queue_wait_mean,
            self.worker_wakes,
            self.submits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::new();
        m.point();
        m.batch(32);
        m.topk();
        m.cache_hit();
        m.cache_miss();
        m.scan(10, 90);
        let s = m.snapshot();
        assert_eq!(s.point_queries, 1);
        assert_eq!(s.batch_points, 32);
        assert_eq!(s.queries(), 3);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.prune_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn buckets_tile_the_range_and_edges_round_trip() {
        // Every value lands in the bucket whose edge is the first at or
        // above it, and bucket edges are strictly increasing.
        for b in 1..BUCKETS {
            assert!(upper_edge(b) > upper_edge(b - 1), "bucket {b}");
            assert_eq!(bucket_of(upper_edge(b)), b);
            assert_eq!(bucket_of(upper_edge(b - 1) + 1), b);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(upper_edge(BUCKETS - 1), u64::MAX);
    }

    /// 10k samples from three known distributions: every reported
    /// quantile is at or above the true one and within 7 % of it.
    #[test]
    fn quantiles_bound_the_truth_within_seven_percent() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut unit = move || rng.random::<f64>();
        let n = 10_000;
        let uniform: Vec<u64> = (0..n).map(|_| 1_000 + (unit() * 4e5) as u64).collect();
        // Exponential around 20 µs: where the served p50 sits.
        let exponential: Vec<u64> = (0..n).map(|_| (-2e4 * (1.0 - unit()).ln()) as u64).collect();
        // Log-uniform over 100 ns .. 100 ms: every octave a queue sees.
        let heavy: Vec<u64> = (0..n).map(|_| (100.0 * 1e6f64.powf(unit())) as u64).collect();
        for (name, mut samples) in
            [("uniform", uniform), ("exponential", exponential), ("log-uniform", heavy)]
        {
            let h = Histogram::default();
            for &nanos in &samples {
                h.record(Duration::from_nanos(nanos));
            }
            samples.sort_unstable();
            for q in [0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                let rank = ((n as f64 * q).ceil() as usize).max(1);
                let truth = samples[rank - 1];
                let reported = h.quantile(q).as_nanos() as u64;
                assert!(reported >= truth, "{name} q{q}: {reported} under the true {truth}");
                assert!(
                    reported as f64 <= 1.07 * truth as f64,
                    "{name} q{q}: {reported} over 1.07 x {truth}"
                );
            }
            assert_eq!(h.count(), n as u64);
        }
    }

    #[test]
    fn latency_quantiles_are_monotone_bounds() {
        let m = ServeMetrics::new();
        for micros in [1u64, 2, 5, 10, 50, 100, 500, 1000, 5000, 10_000] {
            m.record_latency(Duration::from_micros(micros));
        }
        let s = m.snapshot();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        // The 5th of 10 samples is 50 µs, the 9th 5 ms, the 10th 10 ms:
        // each bound covers its sample and overshoots by under 1/16.
        for (bound, micros) in [(s.p50, 50u64), (s.p90, 5_000), (s.p99, 10_000)] {
            let truth = Duration::from_micros(micros);
            assert!(bound >= truth && bound < truth + truth / 16, "{bound:?} for {truth:?}");
        }
        assert_eq!(s.latencies_recorded, 10);
        assert_eq!(s.mean, Duration::from_nanos(1_666_800));
    }

    #[test]
    fn empty_metrics_report_zeros() {
        let s = ServeMetrics::new().snapshot();
        assert_eq!(s.queries(), 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.p99, Duration::ZERO);
        // Display must not panic.
        let _ = format!("{s}");
    }
}
