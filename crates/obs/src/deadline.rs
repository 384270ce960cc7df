//! Per-request deadline budgets and cooperative cancellation.
//!
//! A [`Deadline`] is a `Copy` wall-clock expiry threaded from the
//! caller's policy through planning, evaluation, and (by the evaluator,
//! through [`crate::reqctx`]) the fetch layer; each
//! blocking point checks [`Deadline::expired`] (or bounds its wait by
//! [`Deadline::remaining`]) and fails over to partial-result degradation
//! instead of blocking past the SLO. The default is [`Deadline::infinite`],
//! which makes every check free-ish and never fires — results with no
//! deadline configured are byte-identical to a build without this module.
//!
//! A [`CancelToken`] is the complementary *selective* signal: the
//! evaluator's relevance monitor marks individual URLs whose fetches can
//! no longer contribute an answer tuple, and pool workers / coalescing
//! followers check the token cooperatively before dispatching or while
//! waiting. URL keys are plain strings so this crate needs no dependency
//! on the relation layer.

use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock budget for one request. `Copy`, two words; the infinite
/// deadline never expires and is the `Default`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    expires: Option<Instant>,
}

impl Deadline {
    /// A deadline that never fires.
    pub fn infinite() -> Self {
        Self { expires: None }
    }

    /// A deadline `us` microseconds from now.
    pub fn after_us(us: u64) -> Self {
        Self {
            expires: Some(Instant::now() + Duration::from_micros(us)),
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(instant: Instant) -> Self {
        Self {
            expires: Some(instant),
        }
    }

    /// Whether this deadline can ever fire.
    pub fn is_finite(&self) -> bool {
        self.expires.is_some()
    }

    /// Remaining budget; `None` for an infinite deadline, zero when
    /// already expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.expires
            .map(|e| e.saturating_duration_since(Instant::now()))
    }

    /// Whether the budget is gone.
    pub fn expired(&self) -> bool {
        match self.expires {
            None => false,
            Some(e) => Instant::now() >= e,
        }
    }
}

/// Cooperative cancellation shared between the evaluator and the fetch
/// layer. Cheap to clone; all clones observe the same state.
///
/// Cancellation is advisory: a worker that already dispatched a GET
/// finishes it (both accesses are then counted), one that has not yet
/// dispatched skips the server entirely. Individual URLs can be
/// *un*-cancelled — the relevance monitor does this when a URL judged
/// irrelevant for one navigation turns out to be needed by a later one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Individually cancelled URLs.
    urls: Arc<Mutex<HashSet<String>>>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks one URL as not worth fetching.
    pub fn cancel_url(&self, url: &str) {
        self.urls.lock().insert(url.to_string());
    }

    /// Clears a per-URL cancellation (the URL became relevant again).
    pub fn uncancel_url(&self, url: &str) {
        self.urls.lock().remove(url);
    }

    /// Whether fetching `url` should be skipped.
    pub fn is_url_cancelled(&self, url: &str) -> bool {
        self.urls.lock().contains(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_deadline_never_expires() {
        let d = Deadline::infinite();
        assert!(!d.is_finite());
        assert!(!d.expired());
        assert!(d.remaining().is_none());
        assert!(!Deadline::default().is_finite());
    }

    #[test]
    fn finite_deadline_counts_down_and_expires() {
        let d = Deadline::after_us(1_000_000);
        assert!(d.is_finite());
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_millis(500));

        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining().unwrap(), Duration::ZERO);
    }

    #[test]
    fn deadline_is_copy() {
        let d = Deadline::after_us(10);
        let d2 = d; // Copy, not move
        assert_eq!(d.is_finite(), d2.is_finite());
    }

    #[test]
    fn token_clones_share_state() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_url_cancelled("http://a"));
        t2.cancel_url("http://a");
        assert!(t.is_url_cancelled("http://a"));
        assert!(!t.is_url_cancelled("http://b"));

        t.uncancel_url("http://a");
        assert!(!t2.is_url_cancelled("http://a"));
    }
}
