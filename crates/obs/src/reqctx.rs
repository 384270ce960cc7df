//! Ambient per-request context for the fetch layer.
//!
//! The fetch layer (`nalg`'s pool workers, coalescing source and retry
//! wrapper, `websim`'s simulated network waits, the dataflow store's
//! upqueries) sits below the evaluator and has no request parameter to
//! thread anything through — a `PageSource::fetch` call carries a URL and
//! nothing else. This module is the missing channel, and a [`RequestCtx`]
//! carries two independent things down it:
//!
//! * **the budget** — the request's [`Deadline`] and [`CancelToken`].
//!   `nalg::Evaluator::eval` installs them with [`with_budget`] for the
//!   evaluation's duration, whoever runs the evaluator (a server, a query
//!   or store session, a bare evaluator), so a blocked follower or a
//!   simulated GET gives up when the evaluation does;
//! * **the attribution** — an observed request's [`Attribution`]. The
//!   serving layer installs it around a traced request (and a traced
//!   dataflow sync around its batch); the fetch layer emits its events to
//!   it and charges fetch time to its clock.
//!
//! Pool workers re-install the context they were spawned under. The
//! context is *optional everywhere*: when nothing is installed,
//! [`current`] is a thread-local read returning `None` and the fetch layer
//! does no extra work — results never depend on it.

use crate::deadline::{CancelToken, Deadline};
use crate::trace::TraceSink;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Accumulates wall-clock microseconds spent inside fetch calls on a
/// request's behalf, across every thread that worked for it. With a
/// worker pool the total can exceed the request's elapsed wall clock.
#[derive(Debug, Clone, Default)]
pub struct FetchClock {
    total: Arc<AtomicU64>,
}

impl FetchClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `us` microseconds of fetch time.
    pub fn add_us(&self, us: u64) {
        self.total.fetch_add(us, Ordering::Relaxed);
    }

    /// Total charged so far.
    pub fn total_us(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Who an observed request is, for the fetch layer's attribution.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Sink receiving fetch attribution events (leader/follower links,
    /// upqueries). The serving layer points this at a side sink so the
    /// request's deterministic causal trace is not perturbed by
    /// scheduling-dependent events.
    pub sink: TraceSink,
    /// Span id attribution events should parent under.
    pub parent: u64,
    /// The owning request's id.
    pub request_id: u64,
    /// Where fetch time is charged.
    pub clock: FetchClock,
}

/// What the current thread's work must honour and whom it is done for.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// The observed request's identity; `None` in a budget-only context,
    /// which records no event and times no fetch.
    pub trace: Option<Attribution>,
    /// The request's remaining wall-clock budget; infinite when none is
    /// set.
    pub deadline: Deadline,
    /// Cooperative per-URL cancellation for in-flight fetches, when the
    /// evaluation made a token.
    pub cancel: Option<CancelToken>,
}

impl RequestCtx {
    /// An observed request's context with no budget of its own; an
    /// evaluation under it adds its budget with [`with_budget`].
    pub fn traced(trace: Attribution) -> Self {
        RequestCtx {
            trace: Some(trace),
            deadline: Deadline::infinite(),
            cancel: None,
        }
    }

    /// Whether a blocking wait must watch this context: it has a finite
    /// deadline or a token. Otherwise waiting it out costs nothing extra.
    pub fn has_budget(&self) -> bool {
        self.deadline.is_finite() || self.cancel.is_some()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<RequestCtx>> = const { RefCell::new(None) };
}

/// The context installed on this thread, if any.
pub fn current() -> Option<RequestCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` with `ctx` installed as this thread's request context,
/// restoring the previous context afterwards (also on panic). Passing
/// `None` explicitly clears the context for the duration — pool workers
/// use this to mirror their spawner's state exactly.
pub fn with_ctx<R>(ctx: Option<RequestCtx>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<RequestCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx));
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with `deadline` and `cancel` installed as this thread's
/// budget, over the [`Attribution`] already installed, if any, and
/// restores the previous context afterwards. With an infinite deadline
/// and no token it installs nothing: `f` runs under the context as it is.
pub fn with_budget<R>(deadline: Deadline, cancel: Option<CancelToken>, f: impl FnOnce() -> R) -> R {
    if !deadline.is_finite() && cancel.is_none() {
        return f();
    }
    let trace = CURRENT.with(|c| c.borrow().as_ref().and_then(|c| c.trace.clone()));
    let ctx = RequestCtx {
        trace,
        deadline,
        cancel,
    };
    with_ctx(Some(ctx), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceSink};

    fn ctx(req: u64) -> RequestCtx {
        RequestCtx::traced(Attribution {
            sink: TraceSink::with_seed(req),
            parent: 1,
            request_id: req,
            clock: FetchClock::new(),
        })
    }

    fn request_id() -> Option<u64> {
        current().and_then(|c| c.trace).map(|t| t.request_id)
    }

    #[test]
    fn install_read_restore() {
        assert!(current().is_none());
        with_ctx(Some(ctx(7)), || {
            assert_eq!(request_id(), Some(7));
            // Nested install shadows, then restores.
            with_ctx(Some(ctx(8)), || assert_eq!(request_id(), Some(8)));
            assert_eq!(request_id(), Some(7));
            // Explicit None clears for the duration.
            with_ctx(None, || assert!(current().is_none()));
            assert_eq!(request_id(), Some(7));
        });
        assert!(current().is_none());
    }

    #[test]
    fn restores_on_panic() {
        let result = std::panic::catch_unwind(|| {
            with_ctx(Some(ctx(1)), || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(current().is_none());
    }

    #[test]
    fn clock_is_shared_across_clones_and_threads() {
        let c = ctx(3);
        let clock = || current().and_then(|c| c.trace).unwrap().clock;
        with_ctx(Some(c.clone()), || {
            let grabbed = current().unwrap();
            std::thread::scope(|s| {
                s.spawn(move || {
                    // A worker thread re-installs the captured context.
                    with_ctx(Some(grabbed), || clock().add_us(40));
                });
            });
            clock().add_us(2);
        });
        assert_eq!(c.trace.unwrap().clock.total_us(), 42);
    }

    #[test]
    fn sink_receives_attribution_events() {
        let c = ctx(5);
        with_ctx(Some(c.clone()), || {
            let cur = current().and_then(|c| c.trace).unwrap();
            cur.sink
                .event(EventKind::Fetch, "fetch.join", Some(cur.parent), vec![]);
        });
        let sink = &c.trace.unwrap().sink;
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].parent, Some(1));
    }

    #[test]
    fn a_budget_joins_the_installed_attribution_or_stands_alone() {
        let token = CancelToken::new();
        // Nothing to honour: nothing is installed.
        with_budget(Deadline::infinite(), None, || assert!(current().is_none()));
        // On its own: a budget-only context, with no identity to record.
        with_budget(Deadline::after_us(1_000_000), None, || {
            let c = current().unwrap();
            assert!(c.has_budget() && c.trace.is_none());
        });
        // Over an observed request: its identity stays, the budget joins.
        with_ctx(Some(ctx(4)), || {
            with_budget(Deadline::infinite(), Some(token.clone()), || {
                let c = current().unwrap();
                assert!(c.cancel.is_some() && !c.deadline.is_finite());
                assert_eq!(request_id(), Some(4));
            });
            assert!(!current().unwrap().has_budget(), "restored afterwards");
        });
        assert!(current().is_none());
    }
}
