//! # wvquery — the relational front end
//!
//! The paper's users "pose queries against the relational view … using
//! SQL"; the use of ADM and the navigational algebra is completely
//! transparent to them. This crate provides that interface: a hand-written
//! parser for the conjunctive (select–project–join) SQL subset, producing
//! [`wvcore::ConjunctiveQuery`] values the optimizer consumes.
//!
//! Supported grammar:
//!
//! ```text
//! query  := SELECT [DISTINCT] item (, item)*
//!           FROM rel [alias] (, rel [alias])*
//!           [WHERE cond (AND cond)*]
//! item   := [qualifier.]attr
//! cond   := term = term
//! term   := [qualifier.]attr | 'literal' | "literal" | number
//! ```
//!
//! Qualifiers are atom aliases (or relation names when used once);
//! unqualified attributes resolve against the catalog when unambiguous.

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod lexer;
pub mod parser;

pub use parser::{parse_query, ParseError};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ParseError>;
