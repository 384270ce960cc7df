//! Errors of the site generators and publishing.
//!
//! A request to the server fails with the access boundary's one error,
//! [`nalg::SourceError`] (re-exported as [`crate::WebError`]); this type is
//! only for building a site.

use std::fmt;

/// Errors raised by the site generators and [`crate::Site::publish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteError {
    /// A site generator was asked for an impossible configuration.
    BadConfig(String),
    /// An underlying data-model error.
    Adm(adm::AdmError),
}

impl fmt::Display for SiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteError::BadConfig(msg) => write!(f, "bad site configuration: {msg}"),
            SiteError::Adm(e) => write!(f, "data model error: {e}"),
        }
    }
}

impl std::error::Error for SiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SiteError::Adm(e) => Some(e),
            SiteError::BadConfig(_) => None,
        }
    }
}

impl From<adm::AdmError> for SiteError {
    fn from(e: adm::AdmError) -> Self {
        SiteError::Adm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SiteError::BadConfig("no rows".into());
        assert_eq!(e.to_string(), "bad site configuration: no rows");
        let e = SiteError::Adm(adm::AdmError::UnknownScheme("P".into()));
        assert!(std::error::Error::source(&e).is_some());
    }
}
