//! How a query is executed besides what it asks: the one declaration of
//! every knob a [`crate::QuerySession`], a [`crate::Optimizer`], a
//! materialized-view session and a server pass down.
//!
//! [`ExecPolicy`] is the evaluator's [`EvalPolicy`] plus the planning half
//! — the rule mask, incomplete navigations, the constraint audit and the
//! health registry — which `nalg` cannot name. Its [`Default`] is the
//! paper's Algorithm 1 over the paper's engine. An owner keeps one value
//! and hands it down by reference: the session gives the optimizer
//! `&policy` and the evaluator `&policy.eval`, and a variant (the audit
//! fallback's rule mask, a server request's deadline) is a struct update
//! of a clone, never a field copied by hand.
//!
//! ```
//! use nalg::{DegradationMode, EvalPolicy};
//! use wvcore::{ExecPolicy, RuleMask};
//!
//! let policy = ExecPolicy {
//!     audit: Some((1.0, 7)),
//!     eval: EvalPolicy {
//!         degradation: DegradationMode::Partial,
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let fallback = ExecPolicy {
//!     mask: RuleMask::none(),
//!     ..policy.clone()
//! };
//! assert_eq!(fallback.audit, policy.audit);
//! ```

use crate::health::ConstraintHealth;
use crate::optimizer::RuleMask;
use nalg::EvalPolicy;

/// Everything a query session reads besides the query, the scheme, the
/// catalog, the statistics and the source. See the [module docs](self).
#[derive(Clone, Default)]
pub struct ExecPolicy<'a> {
    /// What the evaluator reads: degradation, fetching, caches,
    /// relevance, deadline, cancellation and tracing. The trace sink also
    /// receives the planner's rule events.
    pub eval: EvalPolicy<'a>,
    /// Which rewrite stages Algorithm 1 may use (ablations); all by
    /// default.
    pub mask: RuleMask,
    /// Whether designer-declared *incomplete* navigations may seed plans;
    /// off by default.
    pub incomplete_navigations: bool,
    /// `(rate, seed)` of the runtime constraint audit: a page is sampled
    /// with probability `rate` (decided from `seed` and the URL) and the
    /// winning plan's assumed constraints are re-checked over the sample.
    /// A violation re-answers the query from its default navigation. A
    /// rate of 0 (or `None`) audits nothing; auditing never fetches.
    pub audit: Option<(f64, u64)>,
    /// A registry the audit books into: violated constraints are
    /// quarantined and stop licensing rewrites in every session that
    /// shares it, and each run advances its clock so quarantines expire.
    pub health: Option<&'a ConstraintHealth>,
}
