//! # wrapper — HTML wrappers for ADM page-schemes
//!
//! The paper assumes "suitable wrappers are applied to pages in order to
//! access attribute values" (Section 3.1, citing the Araneus wrapper
//! toolkits). This crate is that substrate, built from scratch:
//!
//! * [`lexer`] — an HTML tokenizer (tags, attributes, text, entities,
//!   comments) whose tokens are spans of the page body;
//! * [`dom`] — a flat document arena with tolerant parsing (auto-closing of
//!   mismatched tags, void elements), filled in one pass over the page into
//!   buffers its thread reuses from page to page;
//! * [`wrap`] — scheme-driven extraction: given a [`adm::PageScheme`] and a
//!   page's HTML, produce the corresponding nested [`adm::Tuple`].
//!
//! Nothing is copied out of the page until extraction builds the tuple:
//! the document records `u32` offsets into the body, names are compared
//! ignoring ASCII case instead of being lower-cased, text and values are
//! written to a side string only where an entity decoded, and no walk
//! recurses over the document's depth.
//!
//! Extraction follows the microformat emitted by `websim::page`: attribute
//! elements carry `data-attr`, lists are `ul.adm-list` with `li.adm-row`
//! rows. Extraction is *scoped*: while looking for attributes of one
//! nesting level it never descends into nested lists, so inner attribute
//! names may shadow outer ones without ambiguity.

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod dom;
pub mod error;
pub mod lexer;
pub mod wrap;

pub use dom::{Document, Element, Node};
pub use error::WrapError;
pub use wrap::{wrap_bytes, wrap_page, wrap_page_columnar};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WrapError>;
