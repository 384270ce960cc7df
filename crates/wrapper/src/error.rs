//! Wrapper errors.

use std::fmt;

/// Errors raised while lexing, parsing, or extracting a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapError {
    /// The tokenizer hit malformed markup it cannot recover from.
    Lex {
        /// Byte offset of the problem.
        offset: usize,
        /// Description.
        message: String,
    },
    /// A required (non-optional) attribute was not found on the page.
    MissingAttribute {
        /// The page-scheme attribute that could not be extracted.
        attr: String,
        /// The page-scheme name.
        scheme: String,
    },
    /// The page structure does not match the scheme (e.g. a list marker on
    /// a mono-valued attribute).
    BadStructure(String),
    /// A link attribute's element had no `href`.
    MissingHref(String),
    /// The page body is not UTF-8.
    NotUtf8 {
        /// Length of the longest valid prefix, in bytes.
        valid_up_to: usize,
    },
}

impl fmt::Display for WrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrapError::Lex { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            WrapError::MissingAttribute { attr, scheme } => {
                write!(
                    f,
                    "attribute `{attr}` of page-scheme `{scheme}` not found on page"
                )
            }
            WrapError::BadStructure(m) => write!(f, "page structure mismatch: {m}"),
            WrapError::MissingHref(a) => write!(f, "link attribute `{a}` has no href"),
            WrapError::NotUtf8 { valid_up_to } => {
                write!(f, "page body is not UTF-8 (valid up to byte {valid_up_to})")
            }
        }
    }
}

impl std::error::Error for WrapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = WrapError::MissingAttribute {
            attr: "PName".into(),
            scheme: "ProfPage".into(),
        };
        assert!(e.to_string().contains("PName"));
        assert!(e.to_string().contains("ProfPage"));
    }
}
