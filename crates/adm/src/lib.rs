//! # adm — the Araneus Data Model (subset)
//!
//! This crate implements the data model of *Efficient Queries over Web
//! Views* (Mecca, Mendelzon, Merialdo, 1998): a subset of the Araneus Data
//! Model (ADM) in which a portion of the Web is described by
//!
//! * **page-schemes** — nested-relation descriptions of sets of structurally
//!   homogeneous pages ([`PageScheme`]),
//! * **entry points** — page-schemes whose instance is a single page with a
//!   known URL ([`EntryPoint`]),
//! * **link constraints** — `P1.A = P2.B` predicates attached to a link,
//!   documenting attribute replication across pages ([`LinkConstraint`]),
//! * **inclusion constraints** — `P1.L1 ⊆ P2.L2` containments between sets
//!   of links, documenting multiple navigation paths to the same pages
//!   ([`InclusionConstraint`]); either kind is one [`Constraint`].
//!
//! Instances are **page-relations**: sets of nested tuples in Partitioned
//! Normal Form, one tuple per page, keyed by URL ([`Relation`], [`Tuple`],
//! [`Value`]).
//!
//! The companion crates build on this model: `websim` generates sites whose
//! pages are instances of these schemes, `wrapper` parses HTML back into
//! [`Tuple`]s, `nalg` evaluates the navigational algebra over
//! [`Relation`]s, and `wv-core` reasons about the constraints to optimize
//! queries.

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod columnar;
pub mod constraints;
pub mod display;
pub mod dot;
pub mod error;
pub mod hash;
pub mod intern;
pub mod name;
pub mod paths;
pub mod relation;
pub mod schema;
pub mod types;
pub mod url;
pub mod value;

pub use columnar::{Bitmap, Column, ColumnData, ColumnRel, ColumnRelBuilder, Keep};
pub use constraints::{Constraint, InclusionConstraint, LinkConstraint};
pub use error::AdmError;
pub use hash::{fnv1a, mix64};
pub use intern::{Dict, Symbol};
pub use paths::{NavPath, PathStep};
pub use relation::Relation;
pub use schema::{AttrRef, EntryPoint, PageScheme, WebScheme, WebSchemeBuilder};
pub use types::{Field, WebType};
pub use url::Url;
pub use value::{EncodedTuple, Tuple, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AdmError>;
