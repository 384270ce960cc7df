//! Optimizer-layer errors.

use std::fmt;

/// Errors raised during view resolution, rewriting, or plan selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// A query referenced an external relation the catalog doesn't define.
    UnknownRelation(String),
    /// A query referenced an attribute an external relation doesn't have.
    UnknownViewAttribute {
        /// The external relation.
        relation: String,
        /// The attribute.
        attr: String,
    },
    /// The query is malformed (bad atom index, empty projection, …).
    BadQuery(String),
    /// No candidate plan survived rewriting and validation.
    NoPlan(String),
    /// The session's deadline had already passed when its plan cache
    /// missed: rule 1–9 enumeration was never started.
    DeadlineExceeded,
    /// Data-model error.
    Adm(adm::AdmError),
    /// Evaluation error.
    Eval(nalg::EvalError),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::UnknownRelation(r) => write!(f, "unknown external relation `{r}`"),
            OptError::UnknownViewAttribute { relation, attr } => {
                write!(
                    f,
                    "external relation `{relation}` has no attribute `{attr}`"
                )
            }
            OptError::BadQuery(m) => write!(f, "bad query: {m}"),
            OptError::NoPlan(m) => write!(f, "no executable plan: {m}"),
            OptError::DeadlineExceeded => write!(f, "deadline exceeded before planning"),
            OptError::Adm(e) => write!(f, "{e}"),
            OptError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptError::Adm(e) => Some(e),
            OptError::Eval(e) => Some(e),
            _ => None,
        }
    }
}

impl From<adm::AdmError> for OptError {
    fn from(e: adm::AdmError) -> Self {
        OptError::Adm(e)
    }
}

impl From<nalg::EvalError> for OptError {
    fn from(e: nalg::EvalError) -> Self {
        OptError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = OptError::UnknownRelation("Course".into());
        assert!(e.to_string().contains("Course"));
        let e: OptError = adm::AdmError::UnknownScheme("P".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        let e: OptError = nalg::EvalError::NotComputable("x".into()).into();
        assert!(e.to_string().contains("not computable"));
    }
}
