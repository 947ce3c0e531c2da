//! What a caller hands the queue and what comes back: a [`Request`], the
//! [`Ticket`] it is exchanged for, and the one [`Response`] the ticket
//! resolves to.
//!
//! The response travels through a one-shot slot: the queue holds the
//! [`Promise`], the caller the [`Ticket`]. A slot is filled at most once
//! and emptied at most once. Filling it costs one uncontended lock, and a
//! system call only when the ticket's holder is blocked on it (a
//! `Condvar`) — a caller that polls ([`Ticket::wait_for`] with a zero
//! timeout) reads one atomic flag and never touches the lock until the
//! answer is there.

use crate::topk::{TopKQuery, TopKResult};
use crate::ServeError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// The one-shot slot a [`Ticket`] and its [`Promise`] share.
#[derive(Debug, Default)]
struct Slot {
    /// Set, under `state`'s lock, together with the response; stays set
    /// once the ticket has taken it. A poll reads it without the lock, so
    /// a caller spinning on an unanswered ticket never holds up the
    /// worker that is about to fill it.
    ready: AtomicBool,
    state: Mutex<State>,
    /// Signalled by a fill that finds the ticket's holder waiting.
    filled: Condvar,
}

#[derive(Debug, Default)]
struct State {
    response: Option<Response>,
    /// The ticket's holder is blocked on `Slot::filled`.
    waiting: bool,
}

impl Slot {
    /// Every update under this lock is a plain field store, so the slot
    /// is valid at every step and a poisoned guard can be used as it is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Receipt for a submitted request.
#[derive(Debug)]
pub struct Ticket(Arc<Slot>);

impl Ticket {
    /// An unresolved ticket and the promise that resolves it.
    pub(crate) fn pending() -> (Ticket, Promise) {
        let slot = Arc::new(Slot::default());
        (Ticket(Arc::clone(&slot)), Promise(slot))
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
        if !timeout.is_zero() {
            self.wait_until(Some(timeout))
        } else if self.0.ready.load(Ordering::Acquire) {
            // Acquire pairs with the Release store in `Promise::fill`.
            self.0.lock().response.take()
        } else {
            None
        }
    }

    /// `None` for `timeout` waits until the slot resolves.
    fn wait_until(&self, timeout: Option<Duration>) -> Option<Response> {
        let slot = &*self.0;
        // `ready` only changes under the lock, so a fill either comes
        // before this look or finds `waiting` set and signals.
        let unfilled = |state: &mut State| {
            state.waiting = !slot.ready.load(Ordering::Acquire);
            state.waiting
        };
        let guard = slot.lock();
        let mut state = match timeout {
            None => slot.filled.wait_while(guard, unfilled).unwrap_or_else(PoisonError::into_inner),
            Some(timeout) => {
                let waited = slot.filled.wait_timeout_while(guard, timeout, unfilled);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        state.waiting = false;
        state.response.take()
    }
}

/// The queue's end of a [`Ticket`]: filled at most once, with
/// `ShuttingDown` if it is dropped unfilled (a worker that died mid-batch
/// must not leave its callers blocked).
#[derive(Debug)]
pub(crate) struct Promise(Arc<Slot>);

impl Promise {
    pub(crate) fn fulfil(self, response: Response) {
        self.fill(response);
    }

    fn fill(&self, response: Response) {
        let slot = &*self.0;
        // Only the promise sets `ready`, so it sees its own fill.
        if slot.ready.load(Ordering::Relaxed) {
            return;
        }
        let wake = {
            let mut state = slot.lock();
            state.response = Some(response);
            slot.ready.store(true, Ordering::Release);
            state.waiting
        };
        // Outside the lock, and only for a waiting holder: a fill nobody
        // waits for makes no system call.
        if wake {
            slot.filled.notify_one();
        }
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        self.fill(Response::Error(ServeError::ShuttingDown));
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
        // Through a poll, exactly once.
        let (ticket, promise) = Ticket::pending();
        drop(promise);
        let shutting_down = Some(Response::Error(ServeError::ShuttingDown));
        assert_eq!(ticket.wait_for(Duration::ZERO), shutting_down);
        assert_eq!(ticket.wait_for(Duration::ZERO), None, "a second poll finds nothing");
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
            // Whether the waiter is blocked yet or not, the fill reaches
            // it: it looks under the lock before every wait.
            promise.fulfil(Response::Value(2.0));
            assert_eq!(waiter.join().expect("waiter thread"), Response::Value(2.0));
        });
    }
}
