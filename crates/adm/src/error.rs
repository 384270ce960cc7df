//! Error type shared by the data-model layer.

use std::fmt;

/// Errors raised while building schemes, resolving attributes, or
/// manipulating page-relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmError {
    /// A page-scheme name was referenced but is not part of the web scheme.
    UnknownScheme(String),
    /// An attribute path did not resolve inside a page-scheme or relation.
    UnknownAttribute {
        /// The attribute (or dotted path) that failed to resolve.
        attr: String,
        /// Where resolution was attempted (scheme or relation description).
        within: String,
    },
    /// An attribute name matched more than one column of a relation.
    AmbiguousAttribute {
        /// The ambiguous suffix.
        attr: String,
        /// The columns it matched.
        candidates: Vec<String>,
    },
    /// An operation expected an attribute of a different type
    /// (e.g. unnest on a non-list attribute, follow on a non-link).
    TypeMismatch {
        /// The offending attribute.
        attr: String,
        /// What the operation required.
        expected: &'static str,
        /// What was found.
        found: String,
    },
    /// A scheme failed validation (dangling link target, bad constraint, …).
    InvalidScheme(String),
    /// A tuple did not conform to its page-scheme.
    SchemaViolation(String),
    /// Two relations/rows had incompatible shapes for the attempted operation.
    ArityMismatch {
        /// Expected column count.
        expected: usize,
        /// Found column count.
        found: usize,
    },
    /// A duplicate name was introduced where names must be unique.
    DuplicateName(String),
    /// Two relations glued side by side had different numbers of rows.
    RowCountMismatch {
        /// Rows of the left relation.
        left: usize,
        /// Rows of the right relation.
        right: usize,
    },
}

impl fmt::Display for AdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmError::UnknownScheme(name) => write!(f, "unknown page-scheme `{name}`"),
            AdmError::UnknownAttribute { attr, within } => {
                write!(f, "attribute `{attr}` not found in {within}")
            }
            AdmError::AmbiguousAttribute { attr, candidates } => write!(
                f,
                "attribute `{attr}` is ambiguous; candidates: {}",
                candidates.join(", ")
            ),
            AdmError::TypeMismatch {
                attr,
                expected,
                found,
            } => write!(
                f,
                "attribute `{attr}` has wrong type: expected {expected}, found {found}"
            ),
            AdmError::InvalidScheme(msg) => write!(f, "invalid web scheme: {msg}"),
            AdmError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            AdmError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} columns, found {found}"
                )
            }
            AdmError::DuplicateName(name) => write!(f, "duplicate name `{name}`"),
            AdmError::RowCountMismatch { left, right } => {
                write!(f, "row count mismatch: {left} rows beside {right}")
            }
        }
    }
}

impl std::error::Error for AdmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_scheme() {
        let e = AdmError::UnknownScheme("ProfPage".into());
        assert_eq!(e.to_string(), "unknown page-scheme `ProfPage`");
    }

    #[test]
    fn display_ambiguous() {
        let e = AdmError::AmbiguousAttribute {
            attr: "Name".into(),
            candidates: vec!["ProfPage.Name".into(), "DeptPage.Name".into()],
        };
        assert!(e.to_string().contains("ProfPage.Name, DeptPage.Name"));
    }

    #[test]
    fn display_type_mismatch() {
        let e = AdmError::TypeMismatch {
            attr: "CourseList".into(),
            expected: "link",
            found: "list".into(),
        };
        assert!(e.to_string().contains("expected link"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(AdmError::DuplicateName("x".into()));
        assert!(e.to_string().contains('x'));
    }
}
