//! Synthetic query traces for load-testing the serving stack.
//!
//! Real recommendation traffic is heavily skewed — a few users/items
//! absorb most queries — so the generator draws every index from a Zipf
//! distribution. The skew is what makes the top-K LRU cache earn its
//! keep: popular fixed-index tuples recur, and the replay reports a
//! meaningful hit rate instead of the zero a uniform trace would give.
//!
//! For SLO benchmarking, [`open_loop_trace`] adds *timing* to a trace:
//! each request carries a submit offset drawn from a Poisson process at a
//! configured QPS, plus a Zipf-assigned tenant. Open-loop (arrivals do
//! not wait for completions) is the honest way to measure a serving
//! system: a closed loop self-throttles under overload and hides the
//! latency cliff that real traffic — which does not slow down because the
//! server is slow — runs straight into. [`serve_open_loop`] is the driver
//! that offers such a trace to a [`ServeQueue`] and accounts for every
//! request; `distenc serve-bench --qps` and `benches/serve_slo.rs` both
//! run it.

use crate::engine::{Engine, EngineConfig};
use crate::metrics::MetricsSnapshot;
use crate::queue::{QueueConfig, ServeQueue, SubmitOpts};
use crate::registry::ModelRegistry;
use crate::ticket::{Request, Response, Ticket};
use crate::topk::TopKQuery;
use crate::{Result, ServeError};
use distenc_tensor::KruskalTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples `0..n` with probability `P(i) ∝ 1/(i+1)^s` via inverse-CDF
/// binary search (build O(n), sample O(log n)).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `0..n` with skew exponent `s` (`s = 0` is
    /// uniform; larger `s` concentrates mass on small indices).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs a non-empty domain");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Domain size `n`.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the domain is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Shape of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Total requests to generate.
    pub queries: usize,
    /// Fraction of requests that are point lookups.
    pub point_frac: f64,
    /// Fraction of requests that are batch lookups.
    pub batch_frac: f64,
    /// Entries per batch request.
    pub batch_size: usize,
    /// `k` for top-K requests (the remainder after point/batch fractions).
    pub k: usize,
    /// Optional per-query scan budget attached to top-K requests.
    pub topk_budget: Option<Duration>,
    /// Zipf skew exponent shared by every mode.
    pub zipf_exponent: f64,
    /// RNG seed — the same seed always yields the same trace.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            queries: 100_000,
            point_frac: 0.6,
            batch_frac: 0.2,
            batch_size: 32,
            k: 10,
            topk_budget: None,
            zipf_exponent: 1.1,
            seed: 42,
        }
    }
}

/// Generate a deterministic Zipf-skewed request trace against `shape`.
pub fn synth_trace(shape: &[usize], cfg: &TraceConfig) -> Vec<Request> {
    assert!(!shape.is_empty(), "trace needs a non-empty shape");
    assert!(
        cfg.point_frac >= 0.0 && cfg.batch_frac >= 0.0
            && cfg.point_frac + cfg.batch_frac <= 1.0,
        "query-type fractions must be non-negative and sum to at most 1"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let samplers: Vec<ZipfSampler> = shape
        .iter()
        .map(|&d| ZipfSampler::new(d, cfg.zipf_exponent))
        .collect();
    let draw = |rng: &mut StdRng| -> Vec<usize> {
        samplers.iter().map(|s| s.sample(rng)).collect()
    };
    let mut trace = Vec::with_capacity(cfg.queries);
    for _ in 0..cfg.queries {
        let u: f64 = rng.random();
        let req = if u < cfg.point_frac {
            Request::Point { index: draw(&mut rng) }
        } else if u < cfg.point_frac + cfg.batch_frac {
            let indices = (0..cfg.batch_size.max(1)).map(|_| draw(&mut rng)).collect();
            Request::Batch { indices }
        } else {
            let mode = rng.random_range(0..shape.len());
            Request::TopK {
                query: TopKQuery { mode, at: draw(&mut rng), k: cfg.k },
                budget: cfg.topk_budget,
            }
        };
        trace.push(req);
    }
    trace
}

/// Closed-loop replay straight on the engine: every request runs
/// synchronously on the calling thread, in trace order.
pub fn replay_direct(engine: &Engine, trace: &[Request]) -> Result<()> {
    for request in trace {
        match request {
            Request::Point { index } => {
                engine.point(index)?;
            }
            Request::Batch { indices } => {
                engine.batch(indices)?;
            }
            Request::TopK { query, budget } => {
                engine.topk(query, *budget)?;
            }
        }
    }
    Ok(())
}

/// Closed-loop replay through the bounded batching queue, returning once
/// every ticket has resolved. Backpressure is the caller's loop: a
/// submit the full queue refuses is retried once the replayer's oldest
/// in-flight ticket has resolved, which is when capacity has reappeared.
pub fn replay_queued(queue: &ServeQueue, trace: Vec<Request>) -> Result<()> {
    let mut pending: VecDeque<Ticket> = VecDeque::new();
    for request in trace {
        loop {
            match queue.submit(request.clone()) {
                Ok(ticket) => {
                    pending.push_back(ticket);
                    break;
                }
                Err(ServeError::QueueFull { .. }) => match pending.pop_front() {
                    Some(ticket) => {
                        ticket.wait();
                    }
                    None => std::thread::yield_now(),
                },
                Err(e) => return Err(e),
            }
        }
    }
    for ticket in pending {
        ticket.wait();
    }
    Ok(())
}

/// Shape of an open-loop (offered-load) trace.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered load in queries per second (Poisson arrivals).
    pub qps: f64,
    /// Number of tenants to spread requests across.
    pub tenants: usize,
    /// Zipf skew of the tenant assignment (`0` = uniform; larger values
    /// concentrate traffic on tenant 0, the "hot" tenant).
    pub tenant_zipf: f64,
    /// The request mix (reuses the replay trace generator).
    pub trace: TraceConfig,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig { qps: 50_000.0, tenants: 1, tenant_zipf: 1.0, trace: TraceConfig::default() }
    }
}

/// One request of an open-loop trace: what to submit, when, and for whom.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// Submit time, as an offset from the start of the run.
    pub offset: Duration,
    /// Tenant lane the request belongs to (`0..tenants`).
    pub tenant: usize,
    /// The request itself.
    pub request: Request,
}

/// Generate a deterministic open-loop trace: `cfg.trace.queries` requests
/// with exponential inter-arrival gaps at `cfg.qps` (a Poisson arrival
/// process) and Zipf-skewed tenant assignment. The request mix is exactly
/// [`synth_trace`]`(shape, &cfg.trace)`; the timing/tenant stream uses an
/// independent RNG derived from the same seed, so changing the QPS never
/// changes which requests are generated.
pub fn open_loop_trace(shape: &[usize], cfg: &OpenLoopConfig) -> Vec<TimedRequest> {
    assert!(cfg.qps.is_finite() && cfg.qps > 0.0, "qps must be positive and finite");
    assert!(cfg.tenants >= 1, "need at least one tenant");
    let requests = synth_trace(shape, &cfg.trace);
    let mut rng = StdRng::seed_from_u64(cfg.trace.seed ^ 0x9e37_79b9_7f4a_7c15);
    let tenant_sampler = ZipfSampler::new(cfg.tenants, cfg.tenant_zipf);
    let mut clock = 0.0f64; // seconds
    requests
        .into_iter()
        .map(|request| {
            let u: f64 = rng.random();
            // Inverse-CDF exponential gap; (1 - u) keeps ln's argument in
            // (0, 1] for u in [0, 1).
            clock += -(1.0 - u).ln() / cfg.qps;
            TimedRequest {
                offset: Duration::from_secs_f64(clock),
                tenant: tenant_sampler.sample(&mut rng),
                request,
            }
        })
        .collect()
}

/// Spin/sleep until `start + offset` (sleep for coarse gaps, spin the
/// final stretch — high-QPS inter-arrival gaps are far below OS sleep
/// granularity). The one sleep in the serving stack: an open-loop arrival
/// schedule is wall-clock time by definition.
fn pace(start: Instant, offset: Duration) {
    let target = start + offset;
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        if target - now > Duration::from_micros(300) {
            std::thread::sleep(target - now - Duration::from_micros(200)); // time is under test
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What became of every request of one [`serve_open_loop`] run. Each
/// offered request is exactly one of served / shed (per tenant) or
/// rejected / timed out / errored.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Offered load (the configured QPS).
    pub offered_qps: f64,
    /// Requests offered.
    pub requests: usize,
    /// Wall time from the first submit to the last resolved ticket.
    pub wall_secs: f64,
    /// Requests answered, per tenant (`tenant-0`, `tenant-1`, …).
    pub served: Vec<u64>,
    /// Requests shed by admission control, per tenant.
    pub shed: Vec<u64>,
    /// Peak queued requests in each tenant's lane.
    pub queued_peak: Vec<usize>,
    /// Submissions refused because the queue was at capacity.
    pub rejected: u64,
    /// Requests whose deadline passed before execution started.
    pub timed_out: u64,
    /// Requests the engine answered with an error.
    pub errors: u64,
    /// Fleet-wide counters and latency quantiles at the end of the run.
    pub metrics: MetricsSnapshot,
}

impl OpenLoopReport {
    /// Requests answered, all tenants.
    pub fn served_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Requests shed by admission control, all tenants.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Requests answered per second of wall time.
    pub fn achieved_qps(&self) -> f64 {
        self.served_total() as f64 / self.wall_secs.max(1e-9)
    }

    /// The machine-readable report `serve-bench --json` prints.
    pub fn to_json(&self) -> String {
        let tenant_rows: Vec<String> = (0..self.served.len())
            .map(|i| {
                format!(
                    "    {{ \"tenant\": \"tenant-{i}\", \"served\": {}, \"shed\": {}, \"queued_peak\": {} }}",
                    self.served[i], self.shed[i], self.queued_peak[i]
                )
            })
            .collect();
        let m = &self.metrics;
        format!(
            "{{\n  \"offered_qps\": {:.0},\n  \"achieved_qps\": {:.0},\n  \"wall_secs\": {:.3},\n  \"requests\": {},\n  \"served\": {},\n  \"shed\": {},\n  \"sheds_queue_depth\": {},\n  \"sheds_deadline\": {},\n  \"sheds_tenant_share\": {},\n  \"rejected\": {},\n  \"timed_out\": {},\n  \"errors\": {},\n  \"shed_rate\": {:.4},\n  \"queue_depth_peak\": {},\n  \"e2e_us\": {{ \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"mean\": {:.1} }},\n  \"tenants\": [\n{}\n  ]\n}}",
            self.offered_qps,
            self.achieved_qps(),
            self.wall_secs,
            self.requests,
            self.served_total(),
            self.shed_total(),
            m.sheds_queue_depth,
            m.sheds_deadline,
            m.sheds_tenant_share,
            self.rejected,
            self.timed_out,
            self.errors,
            m.shed_rate(),
            m.queue_depth_peak,
            m.e2e_p50.as_secs_f64() * 1e6,
            m.e2e_p90.as_secs_f64() * 1e6,
            m.e2e_p99.as_secs_f64() * 1e6,
            m.e2e_mean.as_secs_f64() * 1e6,
            tenant_rows.join(",\n"),
        )
    }
}

/// The human-readable report `serve-bench --qps` prints.
impl std::fmt::Display for OpenLoopReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "offered {} requests at {:.0} qps in {:.3} s: {} served ({:.0} qps), {} shed, {} rejected, {} timed out, {} errors",
            self.requests,
            self.offered_qps,
            self.wall_secs,
            self.served_total(),
            self.achieved_qps(),
            self.shed_total(),
            self.rejected,
            self.timed_out,
            self.errors,
        )?;
        write!(f, "{}", self.metrics)?;
        for i in 0..self.served.len() {
            write!(
                f,
                "\n  tenant-{i}: served {} shed {} peak queue {}",
                self.served[i], self.shed[i], self.queued_peak[i]
            )?;
        }
        Ok(())
    }
}

/// Offer [`open_loop_trace`]`(shape, load)` to a fresh queue at the
/// trace's own arrival times and account for every request.
///
/// The queue fronts a [`ModelRegistry`] in which every tenant
/// (`tenant-0`, `tenant-1`, …) serves this same `model` from its own
/// engine, so the queue forms batches by per-tenant deficit round-robin
/// (with one tenant, plain FIFO). Every submission carries
/// `deadline` (see [`SubmitOpts::deadline`]). Arrivals
/// never wait for completions: tickets are only collected once the whole
/// trace has been offered.
pub fn serve_open_loop(
    model: &KruskalTensor,
    engine_cfg: EngineConfig,
    queue_cfg: QueueConfig,
    load: &OpenLoopConfig,
    deadline: Option<Duration>,
) -> Result<OpenLoopReport> {
    if queue_cfg.workers == 0 {
        // A manual-drain queue would never resolve the tickets.
        return Err(ServeError::BadConfig("open-loop serving needs workers >= 1".into()));
    }
    if load.tenants == 0 {
        return Err(ServeError::BadConfig("open-loop serving needs tenants >= 1".into()));
    }
    let tenants = load.tenants;
    let names: Vec<String> = (0..tenants).map(|i| format!("tenant-{i}")).collect();
    let reg = Arc::new(ModelRegistry::new());
    for name in &names {
        reg.register(name, model, engine_cfg.clone())?;
    }
    let queue = ServeQueue::with_registry(Arc::clone(&reg), queue_cfg)?;

    let trace = open_loop_trace(&model.shape(), load);
    let mut tickets = Vec::with_capacity(trace.len());
    let mut rejected = 0u64;
    let start = Instant::now();
    for tr in &trace {
        pace(start, tr.offset);
        let opts = SubmitOpts { tenant: &names[tr.tenant], deadline };
        match queue.submit_with(tr.request.clone(), opts) {
            Ok(t) => tickets.push((tr.tenant, t)),
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(e) => return Err(e),
        }
    }
    let mut served = vec![0u64; tenants];
    let mut shed = vec![0u64; tenants];
    let (mut timed_out, mut errors) = (0u64, 0u64);
    for (tenant, ticket) in tickets {
        match ticket.wait() {
            Response::Value(_) | Response::Values(_) | Response::TopK(_) => served[tenant] += 1,
            Response::Shed(_) => shed[tenant] += 1,
            Response::TimedOut => timed_out += 1,
            Response::Error(_) => errors += 1,
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let occupancy = queue.occupancy();
    drop(queue);
    let queued_peak = names
        .iter()
        .map(|name| occupancy.iter().find(|(n, _, _)| n == name).map_or(0, |(_, _, p)| *p))
        .collect();

    Ok(OpenLoopReport {
        offered_qps: load.qps,
        requests: trace.len(),
        wall_secs,
        served,
        shed,
        queued_peak,
        rejected,
        timed_out,
        errors,
        metrics: reg.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_trace_paces_at_the_configured_qps() {
        let shape = [50, 30, 7];
        let cfg = OpenLoopConfig {
            qps: 10_000.0,
            tenants: 3,
            tenant_zipf: 1.0,
            trace: TraceConfig { queries: 20_000, ..Default::default() },
        };
        let a = open_loop_trace(&shape, &cfg);
        let b = open_loop_trace(&shape, &cfg);
        assert_eq!(a, b, "same seed, same trace");
        assert_eq!(a.len(), 20_000);
        // Offsets are non-decreasing; mean arrival rate is within 5% of
        // the configured QPS (20k draws tightly concentrate the mean).
        for w in a.windows(2) {
            assert!(w[0].offset <= w[1].offset);
        }
        let span = a.last().unwrap().offset.as_secs_f64();
        let rate = a.len() as f64 / span;
        assert!((rate / cfg.qps - 1.0).abs() < 0.05, "measured {rate:.0} qps");
        // Every tenant appears; tenant 0 is the hottest under Zipf.
        let mut counts = [0usize; 3];
        for t in &a {
            counts[t.tenant] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        // The request mix is untouched by the timing overlay.
        let plain = synth_trace(&shape, &cfg.trace);
        assert!(a.iter().map(|t| &t.request).eq(plain.iter()));
    }

    #[test]
    fn zipf_is_skewed_toward_small_indices() {
        let z = ZipfSampler::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0usize;
        let draws = 10_000;
        for _ in 0..draws {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The top 1% of indices should absorb far more than 1% of draws.
        assert!(head > draws / 5, "only {head}/{draws} in the head");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn trace_is_deterministic_and_in_bounds() {
        let shape = [50, 30, 7];
        let cfg = TraceConfig { queries: 500, ..Default::default() };
        let a = synth_trace(&shape, &cfg);
        let b = synth_trace(&shape, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        let mut kinds = [0usize; 3];
        for req in &a {
            match req {
                Request::Point { index } => {
                    kinds[0] += 1;
                    for (i, d) in index.iter().zip(&shape) {
                        assert!(i < d);
                    }
                }
                Request::Batch { indices } => {
                    kinds[1] += 1;
                    assert_eq!(indices.len(), cfg.batch_size);
                }
                Request::TopK { query, .. } => {
                    kinds[2] += 1;
                    assert!(query.mode < 3);
                    assert_eq!(query.k, cfg.k);
                }
            }
        }
        // All three query types must appear at the default fractions.
        assert!(kinds.iter().all(|&k| k > 0), "kinds {kinds:?}");
    }

    /// The caller-side retry loop: a one-slot queue refuses most submits,
    /// and each is offered again once the oldest ticket has resolved.
    #[test]
    fn replay_queued_rides_out_a_full_queue() {
        let model = KruskalTensor::random(&[60, 40, 8], 3, 11);
        let engine = Arc::new(Engine::new(&model, EngineConfig::default()).unwrap());
        let trace = synth_trace(&model.shape(), &TraceConfig { queries: 400, ..Default::default() });
        let cfg = QueueConfig { capacity: 1, ..Default::default() };
        let queue = ServeQueue::new(Arc::clone(&engine), cfg).unwrap();
        replay_queued(&queue, trace).unwrap();
        let s = engine.snapshot();
        assert_eq!((s.queries(), s.e2e_recorded), (400, 400), "every request was served once");
        assert!(s.queue_depth_peak <= 1);
        // Any other error ends the replay instead of being retried.
        drop(queue);
        let mut closed = ServeQueue::new(engine, QueueConfig::default()).unwrap();
        closed.shutdown();
        let one = vec![Request::Point { index: vec![0, 0, 0] }];
        assert_eq!(replay_queued(&closed, one), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn open_loop_run_accounts_for_every_request() {
        let model = KruskalTensor::random(&[60, 40, 8], 3, 11);
        for tenants in [1usize, 3] {
            let load = OpenLoopConfig {
                qps: 200_000.0,
                tenants,
                tenant_zipf: 1.0,
                trace: TraceConfig { queries: 600, ..Default::default() },
            };
            let queue_cfg = QueueConfig { capacity: 64, workers: 2, ..Default::default() };
            let r = serve_open_loop(&model, EngineConfig::default(), queue_cfg, &load, None)
                .unwrap();
            assert_eq!(r.requests, 600);
            assert_eq!((r.served.len(), r.shed.len(), r.queued_peak.len()), (tenants, tenants, tenants));
            let resolved = r.served_total()
                + r.shed_total()
                + r.rejected
                + r.timed_out
                + r.errors;
            assert_eq!(resolved, 600, "{r:?}");
            assert_eq!(r.metrics.queue_rejections, r.rejected);
            assert!(r.to_json().contains(&format!("\"tenant-{}\"", tenants - 1)));
        }
        // A manual-drain queue or a tenant-less load is a typed error,
        // not a hang or a panic.
        let load = OpenLoopConfig::default();
        let no_workers = QueueConfig { workers: 0, ..Default::default() };
        assert!(matches!(
            serve_open_loop(&model, EngineConfig::default(), no_workers, &load, None),
            Err(ServeError::BadConfig(_))
        ));
        let no_tenants = OpenLoopConfig { tenants: 0, ..load };
        assert!(matches!(
            serve_open_loop(&model, EngineConfig::default(), QueueConfig::default(), &no_tenants, None),
            Err(ServeError::BadConfig(_))
        ));
    }
}
