//! A fault-tolerant [`PageSource`] wrapper.

use crate::breaker::{BreakerConfig, BreakerState};
use crate::govern::{Class, Governor};
use crate::policy::RetryPolicy;
use crate::stats::ResilienceSnapshot;
use adm::{Tuple, Url};
use nalg::{PageSource, SourceError};
use std::sync::Arc;

/// Wraps any [`PageSource`] with retries and per-scheme circuit breakers.
///
/// Transient errors ([`SourceError::Unavailable`], [`SourceError::Timeout`])
/// are retried under the [`RetryPolicy`]; permanent ones are returned
/// immediately. The breaker is keyed by page scheme — a sick department
/// server (all `ProfPage` fetches failing) stops being hammered while
/// `CoursePage` fetches flow on. Calls an Open breaker rejects fail with
/// [`SourceError::Unavailable`] without touching the inner source.
///
/// The wrapper is itself a [`PageSource`], so it drops into every consumer
/// unchanged: sequential evaluation, the concurrent fetch pool (it is
/// `Sync` when the inner source is), the crawler, and statistics
/// collection.
pub struct ResilientSource<'a, S> {
    inner: &'a S,
    gov: Governor,
}

impl<'a, S: PageSource> ResilientSource<'a, S> {
    /// Wraps `inner` under `policy` with default breaker tuning.
    pub fn new(inner: &'a S, policy: RetryPolicy) -> Self {
        ResilientSource {
            inner,
            gov: Governor::new(policy, BreakerConfig::default()),
        }
    }

    /// Overrides the breaker tuning.
    pub fn with_breaker(inner: &'a S, policy: RetryPolicy, breaker: BreakerConfig) -> Self {
        ResilientSource {
            inner,
            gov: Governor::new(policy, breaker),
        }
    }

    /// Attaches a trace sink: retries, give-ups and breaker transitions
    /// are recorded as [`obs::trace::EventKind::Resilience`] events.
    /// No effect on accounting.
    pub fn with_trace(mut self, sink: &obs::trace::TraceSink) -> Self {
        self.gov.set_trace(sink);
        self
    }

    /// The registry backing this wrapper's counters (prefix `resilience`).
    pub fn metrics(&self) -> &obs::MetricsRegistry {
        self.gov.metrics()
    }

    /// Current resilience counters (never part of page-access statistics).
    pub fn stats(&self) -> ResilienceSnapshot {
        self.gov.snapshot()
    }

    /// Zeroes the counters, closes every breaker, and restores the retry
    /// budget.
    pub fn reset(&self) {
        self.gov.reset()
    }

    /// The breaker state for a page scheme.
    pub fn breaker_state(&self, scheme: &str) -> BreakerState {
        self.gov.breaker_state(scheme)
    }
}

fn classify(e: &SourceError) -> Class {
    match e {
        SourceError::NotFound(_) => Class::Absence,
        _ if e.is_transient() => Class::Transient,
        _ => Class::Permanent,
    }
}

impl<S> ResilientSource<'_, S> {
    /// Runs one fetch of the inner source under the retry policy and the
    /// scheme's breaker.
    fn governed<T>(
        &self,
        url: &Url,
        scheme: &str,
        fetch: impl FnMut() -> Result<T, SourceError>,
    ) -> Result<T, SourceError> {
        self.gov
            .call(scheme, fetch, classify, || SourceError::Unavailable {
                url: url.clone(),
                reason: format!("circuit breaker open for scheme {scheme}"),
            })
    }
}

/// Holds no page: each method forwards to the inner source's method of the
/// same name, so a page the inner source shares stays shared and one it
/// produces is not wrapped only to be copied out again.
impl<S: PageSource> PageSource for ResilientSource<'_, S> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        self.governed(url, scheme, || self.inner.fetch_stamped(url, scheme))
    }

    fn fetch_shared(
        &self,
        url: &Url,
        scheme: &str,
    ) -> Result<(Arc<Tuple>, Option<u64>), SourceError> {
        self.governed(url, scheme, || self.inner.fetch_shared(url, scheme))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Fails each URL `fail_first` times with the given error, then serves.
    struct FlakySource {
        pages: HashMap<Url, Tuple>,
        fail_first: u32,
        error: fn(&Url) -> SourceError,
        attempts: parking_lot::Mutex<HashMap<Url, u32>>,
        calls: AtomicU32,
    }

    impl FlakySource {
        fn new(fail_first: u32, error: fn(&Url) -> SourceError) -> Self {
            let mut pages = HashMap::new();
            pages.insert(Url::new("/p"), Tuple::new().with("Name", "p"));
            FlakySource {
                pages,
                fail_first,
                error,
                attempts: parking_lot::Mutex::new(HashMap::new()),
                calls: AtomicU32::new(0),
            }
        }
    }

    impl PageSource for FlakySource {
        fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut attempts = self.attempts.lock();
            let n = attempts.entry(url.clone()).or_insert(0);
            *n += 1;
            if *n <= self.fail_first {
                return Err((self.error)(url));
            }
            self.pages
                .get(url)
                .cloned()
                .ok_or_else(|| SourceError::NotFound(url.clone()))
        }
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let src = FlakySource::new(2, |u| SourceError::Timeout(u.clone()));
        let rs = ResilientSource::new(&src, RetryPolicy::new(4));
        let t = rs.fetch(&Url::new("/p"), "P").unwrap();
        assert_eq!(t.get("Name").unwrap().as_text(), Some("p"));
        assert_eq!(src.calls.load(Ordering::SeqCst), 3);
        let s = rs.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 0);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let src = FlakySource::new(99, |u| SourceError::Malformed {
            url: u.clone(),
            reason: "truncated".into(),
        });
        let rs = ResilientSource::new(&src, RetryPolicy::new(4));
        assert!(matches!(
            rs.fetch(&Url::new("/p"), "P"),
            Err(SourceError::Malformed { .. })
        ));
        assert_eq!(src.calls.load(Ordering::SeqCst), 1);
        assert_eq!(rs.stats().retries, 0);
    }

    #[test]
    fn not_found_passes_through_untouched() {
        let src = FlakySource::new(0, |u| SourceError::NotFound(u.clone()));
        let rs = ResilientSource::new(&src, RetryPolicy::new(4));
        assert!(matches!(
            rs.fetch(&Url::new("/missing"), "P"),
            Err(SourceError::NotFound(_))
        ));
        assert_eq!(src.calls.load(Ordering::SeqCst), 1);
        assert!(rs.stats().is_quiet());
        assert_eq!(rs.breaker_state("P"), BreakerState::Closed);
    }

    #[test]
    fn exhausted_retries_give_up_with_the_last_error() {
        let src = FlakySource::new(99, |u| SourceError::Unavailable {
            url: u.clone(),
            reason: "http 503".into(),
        });
        let rs = ResilientSource::new(&src, RetryPolicy::new(3));
        assert!(matches!(
            rs.fetch(&Url::new("/p"), "P"),
            Err(SourceError::Unavailable { .. })
        ));
        assert_eq!(src.calls.load(Ordering::SeqCst), 3);
        let s = rs.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 1);
    }

    #[test]
    fn breaker_is_per_scheme() {
        let src = FlakySource::new(99, |u| SourceError::Timeout(u.clone()));
        let rs = ResilientSource::with_breaker(
            &src,
            RetryPolicy::no_retries(),
            BreakerConfig {
                failure_threshold: 2,
                cooldown_rejections: 100,
            },
        );
        for _ in 0..2 {
            let _ = rs.fetch(&Url::new("/p"), "Sick");
        }
        assert_eq!(rs.breaker_state("Sick"), BreakerState::Open);
        assert_eq!(rs.breaker_state("Fine"), BreakerState::Closed);
        // Rejected without touching the inner source.
        let calls_before = src.calls.load(Ordering::SeqCst);
        let err = rs.fetch(&Url::new("/p"), "Sick").unwrap_err();
        assert!(matches!(err, SourceError::Unavailable { .. }));
        assert!(err.to_string().contains("circuit breaker open"));
        assert_eq!(src.calls.load(Ordering::SeqCst), calls_before);
        assert_eq!(rs.stats().breaker_rejections, 1);
    }

    #[test]
    fn fault_free_wrapper_is_invisible() {
        let src = FlakySource::new(0, |u| SourceError::NotFound(u.clone()));
        let rs = ResilientSource::new(&src, RetryPolicy::default());
        for _ in 0..5 {
            rs.fetch(&Url::new("/p"), "P").unwrap();
        }
        assert_eq!(src.calls.load(Ordering::SeqCst), 5);
        assert!(rs.stats().is_quiet());
    }
}
