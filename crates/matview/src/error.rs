//! Errors of the maintenance engine, pull and push mode alike.

use std::fmt;

/// Errors of the materialized-view layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatError {
    /// Data-model error.
    Adm(adm::AdmError),
    /// Wrapping a downloaded page failed.
    Wrap(String),
    /// Evaluation error.
    Eval(nalg::EvalError),
    /// Optimization error.
    Opt(String),
    /// A page could not be reached (transient server failure) and no
    /// usable stored copy exists.
    Unreachable {
        /// The URL that could not be fetched.
        url: adm::Url,
        /// Human-readable failure detail.
        reason: String,
    },
    /// A registered expression cannot be maintained (e.g. external leaf).
    NotMaintainable(String),
    /// A targeted upquery could not complete (transient failure at the
    /// server); the affected view degrades and the caller should fall
    /// back to live evaluation.
    Upquery {
        /// The URL whose recomputation failed.
        url: adm::Url,
        /// The underlying failure.
        reason: String,
    },
    /// Needed operator state was evicted and could not be restored in
    /// time; the view must rebuild from the store.
    StateGone(String),
}

impl fmt::Display for MatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatError::Adm(e) => write!(f, "{e}"),
            MatError::Wrap(m) => write!(f, "wrapper failure: {m}"),
            MatError::Eval(e) => write!(f, "{e}"),
            MatError::Opt(m) => write!(f, "optimizer failure: {m}"),
            MatError::Unreachable { url, reason } => {
                write!(f, "unreachable page {url}: {reason}")
            }
            MatError::NotMaintainable(m) => write!(f, "not maintainable: {m}"),
            MatError::Upquery { url, reason } => write!(f, "upquery {url} failed: {reason}"),
            MatError::StateGone(m) => write!(f, "state evicted: {m}"),
        }
    }
}

impl std::error::Error for MatError {}

impl From<adm::AdmError> for MatError {
    fn from(e: adm::AdmError) -> Self {
        MatError::Adm(e)
    }
}

impl From<nalg::EvalError> for MatError {
    fn from(e: nalg::EvalError) -> Self {
        MatError::Eval(e)
    }
}

impl From<wvcore::OptError> for MatError {
    fn from(e: wvcore::OptError) -> Self {
        match e {
            wvcore::OptError::Adm(e) => MatError::Adm(e),
            wvcore::OptError::Eval(e) => MatError::Eval(e),
            other => MatError::Opt(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = MatError::Upquery {
            url: adm::Url::new("/index.html"),
            reason: "timeout".into(),
        };
        assert!(e.to_string().contains("/index.html"));
        let e: MatError = adm::AdmError::UnknownScheme("P".into()).into();
        assert!(e.to_string().contains('P'));
    }
}
