//! # matview — one maintenance engine for a materialized web view (Section 8)
//!
//! When virtual-view evaluation is too slow, the ADM representation of the
//! site is materialized locally: one nested page-relation per page-scheme,
//! each tuple keyed by URL and stamped with the date it was last accessed
//! ([`MatStore`]). The site is autonomous — its manager updates pages
//! without notification — so the mirror has to be kept fresh, and this
//! crate keeps it fresh in two modes over the **one** store, chosen by
//! which method the caller invokes:
//!
//! **Pull mode** (no change feed required) — the paper's lazy protocol,
//! maintaining the view *while answering queries* ([`MatSession`]):
//!
//! * a query plan is selected by the same Algorithm 1 used for virtual
//!   views — it identifies the *minimal* set of pages that must be
//!   consulted;
//! * before a materialized tuple is used, **URLCheck** (the paper's
//!   Function 2, [`urlcheck`]) opens a *light connection* (HTTP HEAD
//!   analogue — only an error flag and the last-modified date are
//!   exchanged) and re-downloads the page only when it actually changed,
//!   diffing its outgoing links to mark `new` and `missing` URLs;
//! * URLs marked `missing` are deferred to a [`store::MatStore::check_missing`]
//!   queue purged off-line ([`maintain`]).
//!
//! The cost of a query is then 𝒞(E) light connections plus one download
//! per *changed* page — drastically less than re-navigating the site.
//!
//! **Push mode** (the site exposes a change feed) — the Noria-style
//! alternative ([`IncrementalView`]): propagate **deltas** instead of
//! re-reading the world.
//!
//! * every [`nalg::SiteChange`] becomes a ±page delta pushed through a
//!   compiled operator tree over the existing σ/π/⋈/unnest/follow algebra
//!   ([`ops`]): filters pass deltas through, projections fold them through
//!   set-semantics counts, joins keep keyed state on both sides and apply
//!   the bilinear rule `Δ(L⋈R) = ΔL⋈R_old + L_new⋈ΔR`, unnests fan out,
//!   and follow resolves only the *touched* URLs;
//! * state is **partial** in one place: the store's page payloads are
//!   evictable under a byte budget (LRU), and a read that misses an
//!   evicted payload triggers a targeted **upquery** — an ordinary `GET`,
//!   counted in the paper's page-access statistics like any other fetch.
//!   The operators' own state (follow slices included) is never evicted;
//! * registered queries keep a maintained answer that the serving layer
//!   reads directly, falling back to live evaluation when an upquery fails
//!   and the view degrades.
//!
//! Both modes issue, wrap, stamp and account every page through one
//! routine, [`MatStore::download`]; the per-page GET/HEAD counters stay
//! paper-exact throughout.
//!
//! The crate sees the web only through `nalg`'s access boundary: a
//! [`nalg::PageServer`] for GET and HEAD, a [`nalg::ChangeFeed`] for push
//! mode, and [`nalg::SourceError`] for what went wrong — of which only
//! [`nalg::SourceError::NotFound`] says a page is gone. Pages are wrapped by
//! [`wvcore::download_page`]. The simulated web that implements both traits
//! is a test dependency only, as in the example below.
//!
//! ```
//! use matview::IncrementalView;
//! use nalg::NalgExpr;
//! use websim::sitegen::{University, UniversityConfig};
//! use websim::{MutationPlan, MutationRule};
//!
//! let mut site = University::generate(UniversityConfig::default()).unwrap();
//! let ws = site.site.scheme.clone();
//!
//! // materialize once, then register a view over the store
//! let mut views = IncrementalView::new(&ws);
//! views.materialize(&site.site.server).unwrap();
//! views.set_cursor(site.site.change_cursor());
//! let profs = NalgExpr::entry("DeptListPage")
//!     .unnest("DeptList")
//!     .follow("ToDept", "DeptPage")
//!     .unnest("ProfList")
//!     .follow("ToProf", "ProfPage")
//!     .project(vec!["ProfPage.PName", "ProfPage.Rank"]);
//! views.register("profs", "profs", &profs, &site.site.server).unwrap();
//!
//! // the site drifts: some professors change rank
//! let plan = MutationPlan::new(5)
//!     .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.4));
//! plan.apply_round(&mut site.site, 0).unwrap();
//!
//! // one sync drains the feed, fetching only the changed pages
//! let report = views.sync(&site.site).unwrap();
//! assert!(report.pages_fetched <= report.changes_seen);
//! let answer = views.answer("profs").unwrap();   // matches live evaluation
//! assert!(!answer.is_empty());
//! ```

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod delta;
pub mod error;
pub mod eval;
pub mod maintain;
pub mod ops;
pub mod store;
pub mod urlcheck;
pub mod view;

pub use delta::PageDelta;
pub use error::MatError;
pub use eval::{MatOutcome, MatSession};
pub use store::{MatStore, StoreStats, StoredPage, UrlStatus};
pub use view::{DeltaReport, IncrementalView};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MatError>;
