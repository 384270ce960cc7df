//! # nalg — the navigational algebra
//!
//! The paper's NALG (Section 4) is an algebra for nested page-relations
//! with the classical operators — selection σ, projection π, join ⋈ —
//! plus two navigational ones:
//!
//! * **unnest page** `R ∘ A` — navigate *inside* a page's nested structure
//!   (the traditional unnest μ);
//! * **follow link** `R –L→ P` — navigate *between* pages; semantically a
//!   join `R ⋈_{R.L = P.URL} P`, but physically a page download per
//!   distinct link, which is what the cost model charges for.
//!
//! This crate provides
//! * [`NalgExpr`] — expression trees, with external-relation leaves that
//!   the optimizer replaces by default navigations (rule 1);
//! * static analysis (computability, output columns) driven by the ADM
//!   scheme;
//! * [`display`] — paper-style pretty printing of expressions and query
//!   plans (Figures 2–4);
//! * [`source`] — the access boundary: [`PageServer`] (GET, HEAD, the
//!   server's clock), [`PageSource`] (a page wrapped into its tuple), the
//!   [`ChangeFeed`] protocol, and [`SourceError`], the one access error;
//! * [`eval`] — an evaluator over any [`PageSource`], with page-access
//!   accounting that realizes the paper's cost measure;
//! * [`policy`] — [`EvalPolicy`], everything an evaluation may do besides
//!   navigate (pool, caches, deadline, tracing), declared once;
//! * two [`PageSource`] wrappers: [`CoalescingSource`] (single-flight
//!   fetches shared across sessions) and [`ResilientSource`] (retries of
//!   transient errors behind a per-scheme circuit breaker, counted in
//!   [`ResilienceSnapshot`] and never in page accesses).
//!
//! ```
//! use nalg::{NalgExpr, Pred};
//!
//! // the paper's Expression 2: name and e-mail of CS professors
//! let expr = NalgExpr::entry("ProfListPage")
//!     .unnest("ProfList")
//!     .follow("ToProf", "ProfPage")
//!     .select(Pred::eq("DName", "Computer Science"))
//!     .project(vec!["Name", "Email"]);
//! assert_eq!(
//!     nalg::display::inline(&expr),
//!     "π[Name,Email](σ[DName='Computer Science'](ProfListPage ∘ ProfList –ToProf→ ProfPage))"
//! );
//! assert!(expr.is_computable());
//! ```

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

mod breaker;
pub mod cache;
pub mod display;
pub mod error;
pub mod eval;
pub mod expr;
mod fetch;
pub mod policy;
mod reads;
mod retry;
pub mod source;

pub use cache::{CacheStats, SharedPageCache};
pub use error::EvalError;
pub use eval::{AuditConfig, AuditReport, ConstraintAudit, DegradationMode, EvalReport, Evaluator};
pub use expr::{NalgExpr, Pred};
pub use fetch::{CoalesceStats, CoalescingSource, HedgeConfig};
pub use policy::{EvalPolicy, Fetch};
pub use retry::{ResilienceSnapshot, ResilientSource};
pub use source::{
    ChangeFeed, ChangeKind, FeedCursor, FeedTrimmed, HeadResponse, PageResponse, PageServer,
    PageSource, SiteChange, SourceError,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
