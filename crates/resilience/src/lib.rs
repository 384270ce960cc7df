//! # resilience — fault tolerance for the web-view engine
//!
//! The paper's execution model assumes every navigation succeeds; its
//! motivating setting — live web sites — is exactly where fetches time
//! out, links rot, and pages come back truncated. This crate supplies the
//! machinery that lets the rest of the engine keep the paper's model while
//! surviving a faulty web:
//!
//! * [`ResilientSource`] — wraps any [`nalg::PageSource`] so evaluation,
//!   the fetch worker pool, the crawler and statistics collection retry
//!   transient errors at once, up to a given number of attempts, behind a
//!   per-scheme circuit breaker that fast-fails calls
//!   after consecutive failures and recovers through a half-open probe.
//!   X3 and the chaos tests stack it; nothing else does;
//! * [`HedgePolicy`] — tail-latency hedging for pooled fetches: after a
//!   (seeded, jittered) delay — typically a high latency quantile — one
//!   backup GET races the laggard, first response wins, and the loser is
//!   cancelled cooperatively through an [`obs::CancelToken`];
//! * [`AdmissionControl`] — a bounded-concurrency gate for serving
//!   layers: at most `capacity` sessions hold permits at a time, and
//!   requests beyond the limit are shed (answered as empty partial
//!   results upstream) instead of queueing;
//! * [`ConstraintHealth`] — the constraint-drift defense: per-constraint
//!   violation accounting fed by runtime auditing, quarantine with TTL
//!   re-admission, and the registry the optimizer consults so quarantined
//!   constraints stop licensing rewrites.
//!
//! **Counter separation.** Every action this crate takes is counted in
//! [`ResilienceSnapshot`] — retries, give-ups, breaker trips and
//! rejections, hedges — and *never* in the paper's page-access
//! statistics. A retried GET that eventually succeeds is one download; a
//! failed attempt is zero downloads plus one retry. With a zero-fault
//! plan the wrapper is a pure pass-through and every paper number is
//! byte-identical to running without them (pinned by the equivalence
//! proptests in `tests/chaos_equivalence.rs`).

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod admission;
mod breaker;
pub mod health;
pub mod hedge;
pub mod source;
pub mod stats;

pub use admission::{AdmissionControl, AdmissionPermit, AdmissionStats};
pub use health::{ConstraintHealth, ConstraintHealthSnapshot};
pub use hedge::HedgePolicy;
pub use source::ResilientSource;
pub use stats::ResilienceSnapshot;
// Deadline budgets and cooperative cancellation live in `obs` (they are
// ambient request state), but they are resilience mechanisms — re-export
// them so serving code can configure everything from one place.
pub use obs::{CancelToken, Deadline};
