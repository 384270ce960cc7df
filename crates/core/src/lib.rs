//! # wv-core — the web-view query optimizer
//!
//! This crate is the paper's primary contribution (Sections 5–7): querying
//! **virtual relational views** of a web site by translating conjunctive
//! queries into efficient navigation plans.
//!
//! * [`query`] — conjunctive queries over external relations;
//! * [`views`] — external relations with their *default navigations*
//!   (rewrite rule 1) and the catalogs for the two running-example sites;
//! * [`stats`] — site statistics (page-scheme cardinalities, list
//!   fan-outs, distinct counts, join selectivities), collected by crawling;
//! * [`cost`] — the cardinality estimator and the cost function 𝒞 of
//!   Section 6.2 (network page accesses; local operators are free);
//! * [`arena`] — the optimizer's working representation: a hash-consed
//!   plan arena with per-subtree memo tables, alive for one `optimize`;
//! * [`rules`] — rewrite rules 2–9, including **pointer-join** (rule 8)
//!   and **pointer-chase** (rule 9), over that arena;
//! * [`health`] — [`ConstraintHealth`], the constraint-drift defense:
//!   audited violations quarantine a constraint, which then stops
//!   licensing rewrites until its TTL re-admits it;
//! * [`registry`] — the phase-staged registry naming rules 1–9, their
//!   stages, trace labels, and ablation gates;
//! * [`optimizer`] — Algorithm 1: staged rewriting and cost-based plan
//!   selection, with rule masks for ablation studies;
//! * [`exec`] — an end-to-end query session over a live (simulated) site:
//!   optimize, navigate, wrap, and report estimated vs. actual accesses;
//! * [`plan_cache`] — one rule 1–9 enumeration per query *shape*: the
//!   cache a server or a materialized store owns and a session consults;
//! * [`policy`] — [`ExecPolicy`], every execution knob declared once and
//!   handed from session to optimizer and evaluator by reference;
//! * [`analyze`] — EXPLAIN ANALYZE: joins the optimizer's per-operator
//!   estimates onto the executed operator spans of a traced run;
//! * [`source`] — [`download_page`], the one routine that turns a `GET` from
//!   any [`nalg::PageServer`] into a wrapped page, and [`LiveSource`], the
//!   [`nalg::PageSource`] built on it.
//!
//! ```
//! use websim::sitegen::{University, UniversityConfig};
//! use wvcore::views::university_catalog;
//! use wvcore::{ConjunctiveQuery, LiveSource, QuerySession, SiteStatistics};
//!
//! let site = University::generate(UniversityConfig::default()).unwrap();
//! let stats = SiteStatistics::from_site(&site.site);
//! let catalog = university_catalog();
//! let source = LiveSource::for_site(&site.site);
//! let session = QuerySession::new(&site.site.scheme, &catalog, &stats, &source);
//!
//! let q = ConjunctiveQuery::new("full professors")
//!     .atom("Professor")
//!     .select((0, "Rank"), "Full")
//!     .project((0, "PName"));
//! let outcome = session.run(&q).unwrap();
//! // the cost model estimated what the evaluator then measured
//! assert!(outcome.estimated_pages() >= outcome.measured_pages() as f64 - 1.0);
//! ```

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod analyze;
pub mod arena;
pub mod cost;
pub mod crawl;
pub mod discover;
pub mod error;
pub mod exec;
pub mod health;
pub mod infer;
pub mod optimizer;
pub mod plan_cache;
pub mod policy;
pub mod query;
pub mod registry;
pub mod rules;
pub mod source;
pub mod stats;
pub mod views;

pub use analyze::{ExplainAnalyze, OpAnalysis};
pub use arena::{NodeId, PlanArena};
pub use cost::{Cost, Estimate, NodeEstimate};
pub use crawl::{crawl_instance, SiteInstance};
pub use discover::{discover_constraints, Discovered};
pub use error::OptError;
pub use exec::{FallbackOutcome, QueryOutcome, QuerySession};
pub use health::{ConstraintHealth, ConstraintHealthSnapshot};
pub use infer::{auto_catalog, auto_relation, infer_navigations, InferredNavigation};
pub use optimizer::{CandidatePlan, Explain, Optimizer, RuleMask};
pub use plan_cache::{
    quarantine_fingerprint, PlanCache, PlanCacheStats, PlanKey, PlanOrigin, PLAN_CACHE_CAPACITY,
};
pub use policy::ExecPolicy;
pub use query::ConjunctiveQuery;
pub use registry::{RewritePhase, RewriteRule};
pub use rules::ConstraintDependency;
pub use source::{download_page, LiveSource};
pub use stats::SiteStatistics;
pub use views::{DefaultNavigation, ExternalRelation, ViewCatalog};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OptError>;
