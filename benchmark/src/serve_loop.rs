//! The open-loop load generator. One thread, never sleeping: it submits
//! each request when its due time arrives and, in between, polls the head
//! of the outstanding-ticket FIFO. Latency runs from the request's *due*
//! time to the moment the harness sees the response, so a stall of the
//! generator or of the queue is charged to every request it delays.

use crate::stats;
use crate::workloads::SLO_MS;
use distenc_serve::workload::TimedRequest;
use distenc_serve::{Request, Response, ServeError, ServeQueue, Ticket};
use distenc_tensor::KruskalTensor;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Width of the windows whose percentiles are then medianed.
pub const WINDOW: Duration = Duration::from_millis(250);
/// One point request in this many (the first included) is checked
/// against the model.
const VERIFY_EVERY: usize = 1000;
/// How long the generator waits for stragglers after the last due time.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

struct Outstanding {
    ticket: Ticket,
    due: Duration,
    /// The index tuple to re-evaluate, for sampled point requests.
    verify: Option<Vec<usize>>,
}

#[derive(Debug, Default)]
pub struct ServeStats {
    pub sent: u64,
    pub served: u64,
    pub shed: u64,
    pub rejected: u64,
    pub timed_out: u64,
    pub errors: u64,
    /// Tickets that yielded a second response or never resolved.
    pub unresolved_or_double: u64,
    pub verified: u64,
    pub verify_mismatches: u64,
    /// Requests sent and requests answered inside the latency limit, per
    /// full window of due time.
    pub window_sent: Vec<u64>,
    pub window_in_slo: Vec<u64>,
    /// Seconds from the first due time to the last.
    pub schedule_s: f64,
    /// Latencies (µs) of served requests, per full window of due time.
    pub windows: Vec<Vec<f64>>,
    /// Generator lateness (µs): submit moment minus due time.
    pub lag_us: Vec<f64>,
    /// Wall time of each `submit` call (ns); filled only when asked.
    pub submit_ns: Vec<f64>,
}

impl ServeStats {
    /// Fold another segment's stats into these.
    pub fn absorb(&mut self, other: ServeStats) {
        self.sent += other.sent;
        self.served += other.served;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
        self.errors += other.errors;
        self.unresolved_or_double += other.unresolved_or_double;
        self.verified += other.verified;
        self.verify_mismatches += other.verify_mismatches;
        self.window_sent.extend(other.window_sent);
        self.window_in_slo.extend(other.window_in_slo);
        self.schedule_s += other.schedule_s;
        self.windows.extend(other.windows);
        self.lag_us.extend(other.lag_us);
        self.submit_ns.extend(other.submit_ns);
    }

    pub fn accounted(&self) -> u64 {
        self.served + self.shed + self.rejected + self.timed_out + self.errors
    }

    pub fn all_latencies_sorted(&self) -> Vec<f64> {
        let all: Vec<f64> = self.windows.iter().flatten().copied().collect();
        stats::sorted(&all)
    }

    /// Share of the requests due in each window that were answered inside
    /// the latency limit.
    pub fn in_slo_per_window(&self) -> Vec<f64> {
        self.window_sent
            .iter()
            .zip(&self.window_in_slo)
            .filter(|(&sent, _)| sent > 0)
            .map(|(&sent, &ok)| ok as f64 / sent as f64)
            .collect()
    }

    /// Responses that carried a value, per second, one figure per window.
    pub fn goodput_per_window(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.len() as f64 / WINDOW.as_secs_f64())
            .collect()
    }

    pub fn lag_percentile(&self, p: f64) -> f64 {
        stats::percentile_sorted(&stats::sorted(&self.lag_us), p)
    }
}

/// Replay `trace` against `queue`, summarising latencies over its first
/// `n_windows` windows. `model` is what the queue's engine serves;
/// sampled point responses must equal `model.eval` bit for bit.
pub fn open_loop(
    queue: &ServeQueue,
    trace: Vec<TimedRequest>,
    n_windows: usize,
    model: &KruskalTensor,
    time_submits: bool,
) -> ServeStats {
    let mut st = ServeStats::default();
    let Some(last_due) = trace.last().map(|r| r.offset) else {
        return st;
    };
    st.schedule_s = last_due.as_secs_f64();
    st.windows = vec![Vec::new(); n_windows];
    st.window_sent = vec![0; n_windows];
    st.window_in_slo = vec![0; n_windows];
    st.lag_us.reserve(trace.len());
    if time_submits {
        st.submit_ns.reserve(trace.len());
    }
    let slo = Duration::from_secs_f64(SLO_MS / 1e3);
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let mut pending = trace.into_iter().peekable();
    let mut points_seen = 0usize;
    let start = Instant::now();

    let settle = |st: &mut ServeStats, o: Outstanding, resp: Response, seen: Duration| {
        // Exactly once: a resolved ticket must have nothing more to say.
        if o.ticket.wait_for(Duration::ZERO).is_some() {
            st.unresolved_or_double += 1;
        }
        match resp {
            Response::Value(v) => {
                if let Some(idx) = &o.verify {
                    st.verified += 1;
                    if v.to_bits() != model.eval(idx).to_bits() {
                        st.verify_mismatches += 1;
                    }
                }
                served(st, o.due, seen, slo);
            }
            Response::Values(_) | Response::TopK(_) => served(st, o.due, seen, slo),
            Response::Shed(_) => st.shed += 1,
            Response::TimedOut => st.timed_out += 1,
            Response::Error(_) => st.errors += 1,
        }
    };

    loop {
        let now = start.elapsed();
        if let Some(req) = pending.next_if(|r| r.offset <= now) {
            st.lag_us.push((now - req.offset).as_secs_f64() * 1e6);
            let verify = match &req.request {
                Request::Point { index } => {
                    points_seen += 1;
                    (points_seen % VERIFY_EVERY == 1).then(|| index.clone())
                }
                _ => None,
            };
            st.sent += 1;
            if let Some(n) = st.window_sent.get_mut(window_of(req.offset)) {
                *n += 1;
            }
            let t0 = time_submits.then(Instant::now);
            let outcome = queue.submit(req.request);
            if let Some(t0) = t0 {
                st.submit_ns.push(t0.elapsed().as_nanos() as f64);
            }
            match outcome {
                Ok(ticket) => outstanding.push_back(Outstanding {
                    ticket,
                    due: req.offset,
                    verify,
                }),
                Err(ServeError::QueueFull { .. }) => st.rejected += 1,
                Err(_) => st.errors += 1,
            }
        }
        // Stamp every response that is ready at the head of the FIFO.
        while let Some(resp) = outstanding
            .front()
            .and_then(|o| o.ticket.wait_for(Duration::ZERO))
        {
            let o = outstanding.pop_front().expect("front was just polled");
            settle(&mut st, o, resp, start.elapsed());
        }
        if pending.peek().is_none() {
            if outstanding.is_empty() {
                break;
            }
            if start.elapsed() > last_due + DRAIN_LIMIT {
                st.unresolved_or_double += outstanding.len() as u64;
                break;
            }
        }
    }
    st
}

fn served(st: &mut ServeStats, due: Duration, seen: Duration, slo: Duration) {
    st.served += 1;
    let lat = seen.saturating_sub(due);
    let w = window_of(due);
    if let Some(window) = st.windows.get_mut(w) {
        window.push(lat.as_secs_f64() * 1e6);
        if lat <= slo {
            st.window_in_slo[w] += 1;
        }
    }
}

fn window_of(due: Duration) -> usize {
    (due.as_nanos() / WINDOW.as_nanos()) as usize
}
