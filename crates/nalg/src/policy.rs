//! What an evaluation may do besides the paper's navigation: the one place
//! each execution knob the [`crate::Evaluator`] reads is declared.
//!
//! An [`EvalPolicy`] is a plain value with public fields and a
//! [`Default`] that is the paper's engine — fail fast, fetch inline,
//! nothing shared, no deadline, no tracing. Every
//! field changes *how* pages are obtained, never which pages the plan
//! charges: the cost measure 𝒞 (`accesses_by_operator`) is the same under
//! every policy. Callers above the evaluator (a query session, a
//! materialized-view session, a server) hold one policy and hand it down
//! by reference; none re-declares its fields.
//!
//! ```
//! use nalg::{DegradationMode, EvalPolicy, Fetch};
//!
//! let policy = EvalPolicy {
//!     degradation: DegradationMode::Partial,
//!     fetch: Fetch::pool(4),
//!     ..EvalPolicy::default()
//! };
//! assert!(policy.fetch.hedge().is_none());
//! assert!(policy.cancel_token().is_none(), "nothing cancels: no token");
//! ```

use crate::cache::SharedPageCache;
use crate::eval::DegradationMode;
use crate::fetch::HedgeConfig;
use obs::trace::TraceSink;
use obs::{CancelToken, Deadline};
use std::num::NonZeroUsize;

/// How an evaluation fetches the pages it misses.
///
/// Hedging is part of the pool variant because a backup GET needs a
/// second fetch in flight to race: over the inline executor nothing runs
/// concurrently with the drain loop, so a hedge there could only ever be
/// inert — and now cannot be written.
#[derive(Debug, Clone, Default)]
pub enum Fetch {
    /// One fetch at a time on the calling thread (the paper's model).
    #[default]
    Inline,
    /// A pool of up to `workers` threads per evaluation, shared by every
    /// navigation of the plan. Threads start on demand, one per queued
    /// fetch until `workers` run, and live until the evaluation ends: an
    /// evaluation served wholly from the caches starts none (an idle
    /// 4-worker scope cost ≈ 120–150 µs wall on a 2-vCPU box). Rows and every
    /// access count are those of [`Fetch::Inline`]; only wall-clock
    /// changes.
    Pool {
        /// Fetch threads.
        workers: NonZeroUsize,
        /// Hedged GETs: after `delay_us` in flight one backup fetch races
        /// the primary and the first response wins. Hedge activity lands
        /// only in the config's own counters, never in `page_accesses`.
        hedge: Option<HedgeConfig>,
    },
}

impl Fetch {
    /// A pool of `workers` threads (at least one), unhedged.
    pub fn pool(workers: usize) -> Fetch {
        Fetch::Pool {
            workers: at_least_one(workers),
            hedge: None,
        }
    }

    /// A pool of `workers` threads (at least one) that hedges as `hedge`
    /// says.
    pub fn hedged(workers: usize, hedge: HedgeConfig) -> Fetch {
        Fetch::Pool {
            workers: at_least_one(workers),
            hedge: Some(hedge),
        }
    }

    /// The hedging policy, when the pool hedges.
    pub fn hedge(&self) -> Option<&HedgeConfig> {
        match self {
            Fetch::Inline => None,
            Fetch::Pool { hedge, .. } => hedge.as_ref(),
        }
    }
}

fn at_least_one(workers: usize) -> NonZeroUsize {
    NonZeroUsize::new(workers).unwrap_or(NonZeroUsize::MIN)
}

/// Everything the evaluator reads besides the plan, the scheme and the
/// source. See the [module docs](self).
#[derive(Clone)]
pub struct EvalPolicy<'a> {
    /// What a fetch that ultimately fails does: abort the query
    /// ([`DegradationMode::FailFast`]) or skip the page and report it in
    /// `EvalReport::unreachable` ([`DegradationMode::Partial`]).
    pub degradation: DegradationMode,
    /// Inline or pooled fetching, and hedging with the pool.
    pub fetch: Fetch,
    /// A cross-query page cache consulted before the network and fed by
    /// every download. Its hits are `shared_cache_hits`, never page
    /// accesses.
    pub shared_cache: Option<&'a SharedPageCache>,
    /// The relevance monitor: a pending URL whose carrying rows all fail
    /// a σ/⋈ residual above its navigation is cancelled instead of
    /// fetched (`EvalReport::cancelled`). The answer is unchanged — such a
    /// page could only have produced rows the residuals discard — and the
    /// cost-model charge still counts every distinct link; only downloads
    /// shrink.
    pub relevance: bool,
    /// The wall-clock budget. Past it, not-yet-fetched URLs are reported
    /// unreachable and the answer is the partial one over what arrived —
    /// even under [`DegradationMode::FailFast`]. A finite one reaches the
    /// fetch layers through [`obs::reqctx`], as the token does.
    pub deadline: Deadline,
    /// A token the caller keeps to cancel URLs from outside the
    /// evaluation. Unset, [`EvalPolicy::cancel_token`] makes one when
    /// something will use it. Either way the evaluator installs the token,
    /// with the deadline, in [`obs::reqctx`] for the evaluation's
    /// duration, where pool workers, coalescing followers and simulated
    /// network waits check it.
    pub cancel: Option<CancelToken>,
    /// A sink and the span everything traced nests under. Each operator
    /// records a span with its pre-order node index, output cardinality
    /// and subtree deltas of downloads, cache hits, shared-cache hits and
    /// broken links; pool workers and the audit add their events (and the
    /// planner its rule events, above this crate). Results and counters
    /// are identical with and without it.
    pub trace: Option<(TraceSink, Option<u64>)>,
}

impl Default for EvalPolicy<'_> {
    fn default() -> Self {
        EvalPolicy {
            degradation: DegradationMode::FailFast,
            fetch: Fetch::Inline,
            shared_cache: None,
            relevance: false,
            deadline: Deadline::infinite(),
            cancel: None,
            trace: None,
        }
    }
}

impl EvalPolicy<'_> {
    /// The token an evaluation under this policy cancels through: the one
    /// set, else a fresh one exactly when something will use it — a finite
    /// deadline (aborting queued fetches), hedging (cancelling the losing
    /// twin) or relevance (cancelling dead URLs). The one place that
    /// decision is made.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        let needed = self.deadline.is_finite() || self.fetch.hedge().is_some() || self.relevance;
        self.cancel
            .clone()
            .or_else(|| needed.then(CancelToken::new))
    }

    /// The trace sink, when tracing.
    pub fn sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref().map(|(sink, _)| sink)
    }

    /// The span everything traced nests under, when tracing under one.
    pub fn trace_parent(&self) -> Option<u64> {
        self.trace.as_ref().and_then(|&(_, parent)| parent)
    }
}
