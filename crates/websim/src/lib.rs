//! # websim — a simulated web substrate
//!
//! The paper evaluates its optimizer against live 1998 web sites (the Trier
//! bibliography, university sites) over a real network, with *number of
//! pages downloaded* as the cost measure. This crate substitutes an
//! **in-process virtual web** that preserves exactly that quantity:
//!
//! * [`VirtualServer`] — a page store with instrumented `GET` (full
//!   download) and `HEAD` ("light connection", Section 8) requests, atomic
//!   access counters, per-page `Last-Modified` stamps driven by a logical
//!   clock, and 404s;
//! * [`page`] — rendering of ADM nested tuples into real HTML documents
//!   carrying extraction markers the `wrapper` crate parses back, written
//!   front to back into one buffer (no document tree in between);
//! * [`sitegen`] — generators for the paper's two running examples: the
//!   **university site** of Figure 1 and a **bibliography site** modeled on
//!   the Trier DBLP repository used in the introduction;
//! * [`mutation`] — a site-update API (the autonomous site manager of the
//!   paper's Section 1), used by the materialized-view experiments, plus
//!   seeded mutation rounds ([`MutationPlan`]) whose edits, link drops and
//!   deletions land in the site's [`SiteChange`] feed for incremental view
//!   maintenance to consume — a feed that retains what its registered
//!   readers ([`FeedCursor`]) have not consumed yet, and nothing else. One
//!   round at `u64::MAX` is the constraint drift the auditing experiments
//!   inject: it breaks declared link/inclusion constraints;
//! * [`fault`] — deterministic, seed-driven fault injection ([`FaultPlan`])
//!   for chaos testing: transient 5xx/timeouts, permanent link rot, slow
//!   responses, and truncated bodies, all counted separately from the
//!   paper's page-access statistics.
//!
//! The access boundary itself is `nalg`'s, and this crate implements it:
//! [`VirtualServer`] (and a [`Site`], through its server) is a
//! [`PageServer`], a [`Site`] is a [`ChangeFeed`], and a failed request is
//! `nalg`'s one access error, re-exported here as [`WebError`] — a 5xx is
//! `Unavailable { reason: "http 503" }`. Building a site fails with
//! [`SiteError`] instead.

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod error;
pub mod fault;
pub mod mutation;
pub mod page;
pub mod server;
pub mod site;
pub mod sitegen;

pub use error::SiteError;
pub use fault::{FaultKind, FaultPlan, FaultRule};
pub use mutation::{MutationKind, MutationPlan, MutationReport, MutationRule};
pub use nalg::{
    ChangeFeed, ChangeKind, FeedCursor, FeedTrimmed, HeadResponse, PageResponse, PageServer,
    SiteChange, SourceError as WebError,
};
pub use server::{AccessSnapshot, FaultSnapshot, LatencyProfile, VirtualServer};
pub use site::Site;

/// Crate-wide result alias: building and publishing a site.
pub type Result<T> = std::result::Result<T, SiteError>;
