//! What a caller hands the queue and what comes back: a [`Request`], the
//! [`Ticket`] it is exchanged for, and the one [`Response`] the ticket
//! resolves to.
//!
//! The response travels through a one-shot slot: the queue holds the
//! [`Promise`], the caller the [`Ticket`]. A slot is filled exactly once
//! and emptied at most once. Filling it costs one uncontended lock, and a
//! system call only when the ticket's holder is actually parked on it — a
//! caller that polls ([`Ticket::wait_for`] with a zero timeout) reads one
//! atomic flag and never touches the lock until the answer is there.

use crate::topk::{TopKQuery, TopKResult};
use crate::ServeError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// A queued query.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One completed entry.
    Point {
        /// Full index tuple.
        index: Vec<usize>,
    },
    /// Many completed entries, scored in one engine pass.
    Batch {
        /// Full index tuples.
        indices: Vec<Vec<usize>>,
    },
    /// Top-K along a free mode.
    TopK {
        /// The ranking query.
        query: TopKQuery,
        /// Optional scan budget; an expiring scan returns best-so-far.
        budget: Option<Duration>,
    },
}

/// The answer delivered through a [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Point query result.
    Value(f64),
    /// Batch query results, in submission order.
    Values(Vec<f64>),
    /// Top-K query result (possibly degraded).
    TopK(TopKResult),
    /// The request was invalid or the queue shut down before serving it.
    Error(ServeError),
    /// The request's end-to-end deadline passed before it was drained.
    TimedOut,
    /// Admission control declined to serve the request (typed so callers
    /// can distinguish deliberate load shedding from failure).
    Shed(ShedReason),
}

/// Why a submission was shed (delivered inside [`Response::Shed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// The queue was past the configured depth watermark.
    QueueDepth {
        /// Queue depth observed at admission.
        depth: usize,
        /// The configured watermark it met or exceeded.
        watermark: usize,
    },
    /// The backlog made the request's deadline infeasible at admission.
    DeadlineInfeasible {
        /// Estimated queue wait (batches ahead × mean batch service time).
        estimated: Duration,
        /// The deadline the request carried.
        deadline: Duration,
    },
    /// The tenant was over its configured share of the queue.
    TenantShare {
        /// Requests the tenant already had queued.
        queued: usize,
        /// The configured per-tenant share.
        share: usize,
    },
}

#[derive(Debug, Default)]
struct Slot {
    /// Set, under `inner`'s lock, together with the response; stays set
    /// once the ticket has taken it. A poll reads it without the lock, so
    /// a caller spinning on an unanswered ticket never holds up the
    /// worker that is about to fill it.
    ready: AtomicBool,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    response: Option<Response>,
    /// The thread blocked on the ticket, to unpark when the slot fills.
    waiter: Option<Thread>,
}

impl Slot {
    /// Every update under this lock is a plain field store, so the slot
    /// is valid at every step and a poisoned guard can be used as it is.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Receipt for a submitted request.
#[derive(Debug)]
pub struct Ticket(Arc<Slot>);

impl Ticket {
    /// An unresolved ticket and the promise that resolves it.
    pub(crate) fn pending() -> (Ticket, Promise) {
        let slot = Arc::new(Slot::default());
        (Ticket(Arc::clone(&slot)), Promise { slot, fulfilled: false })
    }

    /// Block until the response arrives. If the queue drops the request
    /// unserved (or [`wait_for`](Ticket::wait_for) already took the
    /// response), this resolves to a `ShuttingDown` error.
    pub fn wait(self) -> Response {
        self.wait_until(None).unwrap_or(Response::Error(ServeError::ShuttingDown))
    }

    /// Wait up to `timeout` for the response; `None` if it has not
    /// arrived by then or was already taken. A zero timeout is a poll:
    /// one atomic load while the ticket is unanswered, no lock, no clock.
    pub fn wait_for(&self, timeout: Duration) -> Option<Response> {
        self.wait_until(Some(timeout))
    }

    /// `None` for `timeout` waits until the slot resolves.
    fn wait_until(&self, timeout: Option<Duration>) -> Option<Response> {
        let slot = &*self.0;
        let mut until = None;
        loop {
            // Acquire pairs with the Release store in `Promise::fill`.
            if slot.ready.load(Ordering::Acquire) {
                return slot.lock().response.take();
            }
            let left = match timeout {
                None => None,
                Some(timeout) if timeout.is_zero() => return None,
                Some(timeout) => {
                    let now = Instant::now();
                    let left = until.get_or_insert(now + timeout).saturating_duration_since(now);
                    if left.is_zero() {
                        return None;
                    }
                    Some(left)
                }
            };
            {
                // `ready` only changes under this lock, so either the fill
                // is seen here or the fill sees this thread registered.
                let mut inner = slot.lock();
                if slot.ready.load(Ordering::Acquire) {
                    return inner.response.take();
                }
                inner.waiter = Some(std::thread::current());
            }
            // A stale or spurious unpark only costs one more look.
            match left {
                Some(left) => std::thread::park_timeout(left),
                None => std::thread::park(),
            }
        }
    }
}

/// The queue's end of a [`Ticket`]: fulfilled exactly once, with
/// `ShuttingDown` if it is dropped first (a worker that died mid-batch
/// must not leave its callers blocked).
#[derive(Debug)]
pub(crate) struct Promise {
    slot: Arc<Slot>,
    fulfilled: bool,
}

impl Promise {
    pub(crate) fn fulfil(mut self, response: Response) {
        self.fill(response);
    }

    fn fill(&mut self, response: Response) {
        self.fulfilled = true;
        let waiter = {
            let mut inner = self.slot.lock();
            inner.response = Some(response);
            self.slot.ready.store(true, Ordering::Release);
            inner.waiter.take()
        };
        // Outside the lock, and only for a registered waiter: unparking a
        // thread that is not parked makes no system call.
        if let Some(thread) = waiter {
            thread.unpark();
        }
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.fill(Response::Error(ServeError::ShuttingDown));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn a_response_is_taken_exactly_once() {
        let (ticket, promise) = Ticket::pending();
        assert_eq!(ticket.wait_for(Duration::ZERO), None, "nothing yet");
        promise.fulfil(Response::Value(1.5));
        assert_eq!(ticket.wait_for(Duration::ZERO), Some(Response::Value(1.5)));
        assert_eq!(ticket.wait_for(Duration::ZERO), None, "a second take finds nothing");
        assert_eq!(ticket.wait(), Response::Error(ServeError::ShuttingDown));
    }

    #[test]
    fn a_dropped_promise_resolves_its_ticket() {
        let (ticket, promise) = Ticket::pending();
        drop(promise);
        assert_eq!(ticket.wait(), Response::Error(ServeError::ShuttingDown));
    }

    #[test]
    fn a_blocked_waiter_is_woken_by_the_fill() {
        let (ticket, promise) = Ticket::pending();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                barrier.wait();
                ticket.wait()
            });
            barrier.wait();
            // Whether the waiter has parked yet or not, the fill reaches
            // it: it looks under the lock before every park.
            promise.fulfil(Response::Value(2.0));
            assert_eq!(waiter.join().expect("waiter thread"), Response::Value(2.0));
        });
    }
}
