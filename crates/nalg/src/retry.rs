//! A fault-tolerant [`PageSource`] wrapper, beside
//! [`CoalescingSource`](crate::CoalescingSource), the other one.
//!
//! **Counter separation.** Everything the wrapper does is counted in
//! [`ResilienceSnapshot`] — retries, give-ups, breaker trips and
//! rejections — and *never* in the paper's page-access statistics. A
//! retried GET that eventually succeeds is one download; a failed attempt
//! is zero downloads plus one retry. With a zero-fault plan the wrapper is
//! a pure pass-through and every paper number is byte-identical to running
//! without it (pinned by the facade's chaos property tests).

use crate::breaker::{Breaker, BreakerState};
use crate::{PageSource, SourceError};
use adm::{Tuple, Url};
use obs::trace::{EventKind, FieldValue};
use obs::Counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Wraps any [`PageSource`] with retries and per-scheme circuit breakers.
///
/// Transient errors ([`SourceError::Unavailable`], [`SourceError::Timeout`])
/// are retried at once, up to `max_attempts` attempts a call; permanent
/// ones are returned immediately, and a 404 is final without counting as a
/// failure, as is a fetch its own requester gave up on ([`SourceError::Cancelled`]:
/// its deadline or token severed the wait), so that one request's give-up
/// never trips a breaker that rejects another's fetches. The breaker is keyed by page scheme — a sick department
/// server (all `ProfPage` fetches failing) stops being hammered while
/// `CoursePage` fetches flow on. Five consecutive failed calls trip it;
/// it rejects the next three calls without touching the inner source
/// (they fail with [`SourceError::Unavailable`]) and then lets one probe
/// through.
///
/// Retries, give-ups and breaker transitions are
/// [`EventKind::Resilience`] events on the ambient request's attribution
/// ([`obs::reqctx::Attribution`]), parented under its span: a retry inside
/// a traced served request shows in that request's trace, and with no
/// attribution installed nothing is recorded. The counters in
/// [`ResilientSource::stats`] are the same either way.
///
/// The wrapper is itself a [`PageSource`], so it drops into every consumer
/// unchanged: sequential evaluation, the concurrent fetch pool (it is
/// `Sync` when the inner source is), the crawler, and statistics
/// collection.
///
/// The README's chaos example (a facade test) runs it over a live
/// University site with transient faults and link rot.
pub struct ResilientSource<'a, S> {
    inner: &'a S,
    /// Total attempts per call, including the first (≥ 1).
    max_attempts: u32,
    retries: Counter,
    giveups: Counter,
    breaker_trips: Counter,
    breaker_rejections: Counter,
    breakers: Mutex<HashMap<String, Breaker>>,
}

/// How a call-level error is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The page does not exist (404), or the requester gave up on it
    /// (`Cancelled`). Final, and *not* a server failure: no retry, no
    /// breaker effect.
    Absence,
    /// A retry may succeed (5xx, timeout).
    Transient,
    /// Retrying is pointless (malformed body, infrastructure error), but
    /// the failure does count toward the breaker.
    Permanent,
}

fn classify(e: &SourceError) -> Class {
    match e {
        SourceError::NotFound(_) | SourceError::Cancelled(_) => Class::Absence,
        _ if e.is_transient() => Class::Transient,
        _ => Class::Permanent,
    }
}

/// Records a resilience event on the ambient request context, if any.
fn ambient_event(name: &str, scheme: &str, extra: Option<(&str, FieldValue)>) {
    let Some(ctx) = obs::reqctx::current().and_then(|c| c.trace) else {
        return;
    };
    let mut fields = vec![("key".to_string(), FieldValue::Str(scheme.to_string()))];
    fields.extend(extra.map(|(k, v)| (k.to_string(), v)));
    ctx.sink
        .event(EventKind::Resilience, name, Some(ctx.parent), fields);
}

impl<'a, S: PageSource> ResilientSource<'a, S> {
    /// Wraps `inner`, making up to `max_attempts` attempts a call
    /// (at least one).
    pub fn new(inner: &'a S, max_attempts: u32) -> Self {
        ResilientSource {
            inner,
            max_attempts: max_attempts.max(1),
            retries: Counter::new(),
            giveups: Counter::new(),
            breaker_trips: Counter::new(),
            breaker_rejections: Counter::new(),
            breakers: Mutex::new(HashMap::new()),
        }
    }

    /// Current resilience counters (never part of page-access statistics).
    pub fn stats(&self) -> ResilienceSnapshot {
        ResilienceSnapshot {
            retries: self.retries.get(),
            giveups: self.giveups.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_rejections: self.breaker_rejections.get(),
        }
    }

    /// Zeroes the counters and closes every breaker.
    pub fn reset(&self) {
        self.retries.reset();
        self.giveups.reset();
        self.breaker_trips.reset();
        self.breaker_rejections.reset();
        self.breakers.lock().clear();
    }
}

impl<S> ResilientSource<'_, S> {
    /// Runs one fetch of the inner source under the retry loop and the
    /// scheme's breaker.
    fn governed<T>(
        &self,
        url: &Url,
        scheme: &str,
        mut fetch: impl FnMut() -> Result<T, SourceError>,
    ) -> Result<T, SourceError> {
        let admitted = self
            .breakers
            .lock()
            .entry(scheme.to_string())
            .or_insert_with(Breaker::new)
            .admit();
        if !admitted {
            self.breaker_rejections.inc();
            ambient_event("breaker.reject", scheme, None);
            return Err(SourceError::Unavailable {
                url: url.clone(),
                reason: format!("circuit breaker open for scheme {scheme}"),
            });
        }
        let mut attempt = 1u32;
        // (outcome, counts as a call-level failure for the breaker?)
        let (result, failed) = loop {
            match fetch() {
                Ok(v) => break (Ok(v), false),
                Err(e) => match classify(&e) {
                    Class::Absence => break (Err(e), false),
                    Class::Permanent => break (Err(e), true),
                    Class::Transient if attempt >= self.max_attempts => {
                        self.giveups.inc();
                        ambient_event("giveup", scheme, None);
                        break (Err(e), true);
                    }
                    Class::Transient => {
                        self.retries.inc();
                        ambient_event(
                            "retry",
                            scheme,
                            Some(("attempt", u64::from(attempt).into())),
                        );
                        attempt += 1;
                    }
                },
            }
        };
        // The entry is taken again rather than assumed: a `reset` while
        // the fetch ran may have cleared the map.
        let mut breakers = self.breakers.lock();
        let breaker = breakers
            .entry(scheme.to_string())
            .or_insert_with(Breaker::new);
        match (&result, failed) {
            // Absence is final but says nothing about server health.
            (Err(_), false) => {}
            (Ok(_), _) => {
                let was = breaker.state();
                breaker.on_success();
                drop(breakers);
                if was != BreakerState::Closed {
                    ambient_event("breaker.close", scheme, None);
                }
            }
            (Err(_), true) => {
                let tripped = breaker.on_failure();
                drop(breakers);
                if tripped {
                    self.breaker_trips.inc();
                    ambient_event("breaker.trip", scheme, None);
                }
            }
        }
        result
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

/// A point-in-time copy of a wrapper's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceSnapshot {
    /// Transient failures that were retried.
    pub retries: u64,
    /// Calls that exhausted their attempts and failed.
    pub giveups: u64,
    /// Breaker transitions into Open (including failed half-open probes).
    pub breaker_trips: u64,
    /// Calls rejected by an Open breaker without touching the source.
    pub breaker_rejections: u64,
}

impl ResilienceSnapshot {
    /// Counter deltas since an earlier snapshot. Saturating per field: a
    /// counter that went backwards (e.g. the wrapper was reset between
    /// snapshots) yields 0, not a wrapped-around huge delta — so
    /// [`ResilienceSnapshot::is_quiet`] stays truthful on such deltas.
    pub fn since(&self, earlier: &ResilienceSnapshot) -> ResilienceSnapshot {
        ResilienceSnapshot {
            retries: self.retries.saturating_sub(earlier.retries),
            giveups: self.giveups.saturating_sub(earlier.giveups),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            breaker_rejections: self
                .breaker_rejections
                .saturating_sub(earlier.breaker_rejections),
        }
    }

    /// True when the wrapper took no action at all — the fault-free fast
    /// path.
    pub fn is_quiet(&self) -> bool {
        *self == ResilienceSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{COOLDOWN_REJECTIONS, FAILURE_THRESHOLD};

    /// The breaker state for a page scheme (Closed when none exists yet).
    fn state<S>(rs: &ResilientSource<'_, S>, scheme: &str) -> BreakerState {
        rs.breakers
            .lock()
            .get(scheme)
            .map(Breaker::state)
            .unwrap_or(BreakerState::Closed)
    }
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
        let rs = ResilientSource::new(&src, 4);
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
        let rs = ResilientSource::new(&src, 4);
        assert!(matches!(
            rs.fetch(&Url::new("/p"), "P"),
            Err(SourceError::Malformed { .. })
        ));
        assert_eq!(src.calls.load(Ordering::SeqCst), 1);
        assert_eq!(rs.stats().retries, 0);
    }

    #[test]
    fn not_found_and_cancelled_pass_through_untouched() {
        let errors: [fn(&Url) -> SourceError; 2] = [
            |u| SourceError::NotFound(u.clone()),
            |u| SourceError::Cancelled(u.clone()),
        ];
        for error in errors {
            let src = FlakySource::new(99, error);
            let rs = ResilientSource::new(&src, 4);
            // more of them than the breaker's threshold: none counts
            for _ in 0..2 * FAILURE_THRESHOLD {
                let got = rs.fetch(&Url::new("/p"), "P").unwrap_err();
                assert_eq!(got, error(&Url::new("/p")));
            }
            assert_eq!(src.calls.load(Ordering::SeqCst), 2 * FAILURE_THRESHOLD);
            assert!(rs.stats().is_quiet());
            assert_eq!(state(&rs, "P"), BreakerState::Closed);
        }
    }

    #[test]
    fn exhausted_retries_give_up_with_the_last_error() {
        let src = FlakySource::new(99, |u| SourceError::Unavailable {
            url: u.clone(),
            reason: "http 503".into(),
        });
        let rs = ResilientSource::new(&src, 3);
        assert!(matches!(
            rs.fetch(&Url::new("/p"), "P"),
            Err(SourceError::Unavailable { .. })
        ));
        assert_eq!(src.calls.load(Ordering::SeqCst), 3);
        let s = rs.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.giveups, 1);
        // zero attempts still makes the one
        let once = ResilientSource::new(&src, 0);
        assert!(once.fetch(&Url::new("/p"), "P").is_err());
        assert_eq!(src.calls.load(Ordering::SeqCst), 4);
        assert_eq!(once.stats().retries, 0);
    }

    #[test]
    fn breaker_is_per_scheme() {
        let src = FlakySource::new(99, |u| SourceError::Timeout(u.clone()));
        let rs = ResilientSource::new(&src, 1);
        for _ in 0..FAILURE_THRESHOLD {
            let _ = rs.fetch(&Url::new("/p"), "Sick");
        }
        assert_eq!(state(&rs, "Sick"), BreakerState::Open);
        assert_eq!(state(&rs, "Fine"), BreakerState::Closed);
        // Rejected without touching the inner source.
        let calls_before = src.calls.load(Ordering::SeqCst);
        let err = rs.fetch(&Url::new("/p"), "Sick").unwrap_err();
        assert!(matches!(err, SourceError::Unavailable { .. }));
        assert!(err.to_string().contains("circuit breaker open"));
        assert_eq!(src.calls.load(Ordering::SeqCst), calls_before);
        assert_eq!(rs.stats().breaker_rejections, 1);
    }

    #[test]
    fn breaker_trips_and_rejects_then_a_probe_recovers() {
        // each call fails until the threshold-th, then the page serves
        let src = FlakySource::new(FAILURE_THRESHOLD, |u| SourceError::Timeout(u.clone()));
        let rs = ResilientSource::new(&src, 1);
        let url = Url::new("/p");
        for _ in 0..FAILURE_THRESHOLD {
            assert!(rs.fetch(&url, "P").is_err());
        }
        assert_eq!(state(&rs, "P"), BreakerState::Open);
        for _ in 0..COOLDOWN_REJECTIONS {
            assert!(rs.fetch(&url, "P").is_err());
        }
        assert_eq!(state(&rs, "P"), BreakerState::HalfOpen);
        assert_eq!(
            src.calls.load(Ordering::SeqCst),
            FAILURE_THRESHOLD,
            "rejections never reach the source"
        );
        assert!(rs.fetch(&url, "P").is_ok(), "the probe succeeds");
        assert_eq!(state(&rs, "P"), BreakerState::Closed);
        let s = rs.stats();
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.breaker_rejections, u64::from(COOLDOWN_REJECTIONS));
    }

    #[test]
    fn reset_closes_breakers_and_zeroes_counters() {
        let src = FlakySource::new(99, |u| SourceError::Timeout(u.clone()));
        let rs = ResilientSource::new(&src, 1);
        for _ in 0..FAILURE_THRESHOLD {
            let _ = rs.fetch(&Url::new("/p"), "P");
        }
        assert_eq!(state(&rs, "P"), BreakerState::Open);
        rs.reset();
        assert_eq!(state(&rs, "P"), BreakerState::Closed);
        assert!(rs.stats().is_quiet());
    }

    #[test]
    fn a_reset_between_admission_and_outcome_does_not_panic() {
        let src = FlakySource::new(0, |u| SourceError::NotFound(u.clone()));
        let rs = ResilientSource::new(&src, 1);
        let url = Url::new("/p");
        let out: Result<(), SourceError> = rs.governed(&url, "P", || {
            rs.reset();
            Err(SourceError::Timeout(url.clone()))
        });
        assert!(matches!(out, Err(SourceError::Timeout(_))));
        assert_eq!(rs.stats().giveups, 1);
        let out = rs.governed(&url, "P", || {
            rs.reset();
            Ok(())
        });
        assert!(out.is_ok());
        assert_eq!(state(&rs, "P"), BreakerState::Closed);
    }

    #[test]
    fn retries_and_giveups_go_to_the_ambient_context() {
        use obs::reqctx::{with_ctx, Attribution, FetchClock, RequestCtx};
        use obs::trace::TraceSink;

        let sink = TraceSink::with_seed(1);
        let ctx = RequestCtx::traced(Attribution {
            sink: sink.clone(),
            parent: 42,
            request_id: 7,
            clock: FetchClock::new(),
        });
        let run = |ctx: Option<RequestCtx>| {
            let src = FlakySource::new(99, |u| SourceError::Timeout(u.clone()));
            let rs = ResilientSource::new(&src, 3);
            let out = with_ctx(ctx, || rs.fetch(&Url::new("/p"), "P"));
            assert!(matches!(out, Err(SourceError::Timeout(_))));
            rs.stats()
        };

        let plain = run(None);
        assert!(sink.is_empty(), "no context, no events");
        let traced = run(Some(ctx));
        assert_eq!(traced, plain, "the counters do not depend on the context");
        assert_eq!((plain.retries, plain.giveups), (2, 1));

        let events = sink.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["retry", "retry", "giveup"]);
        for e in &events {
            assert_eq!(e.kind, EventKind::Resilience);
            assert_eq!(e.parent, Some(42));
        }
    }

    #[test]
    fn fault_free_wrapper_is_invisible() {
        let src = FlakySource::new(0, |u| SourceError::NotFound(u.clone()));
        let rs = ResilientSource::new(&src, 4);
        for _ in 0..5 {
            rs.fetch(&Url::new("/p"), "P").unwrap();
        }
        assert_eq!(src.calls.load(Ordering::SeqCst), 5);
        assert!(rs.stats().is_quiet());
    }

    #[test]
    fn since_is_saturating_per_field() {
        let newer = ResilienceSnapshot {
            retries: 5,
            giveups: 0,
            breaker_trips: 100,
            ..Default::default()
        };
        let earlier = ResilienceSnapshot {
            retries: 2,
            giveups: 3, // went backwards (reset between snapshots)
            breaker_trips: 400,
            ..Default::default()
        };
        let d = newer.since(&earlier);
        assert_eq!(d.retries, 3);
        assert_eq!(d.giveups, 0, "backwards field saturates to 0");
        assert_eq!(d.breaker_trips, 0);
    }

    #[test]
    fn is_quiet_after_wraparound_style_delta() {
        // Every field went backwards: without saturation each delta
        // would wrap to ~u64::MAX and is_quiet would be trivially false
        // for garbage reasons.
        let newer = ResilienceSnapshot::default();
        let earlier = ResilienceSnapshot {
            retries: 7,
            giveups: 1,
            breaker_trips: 2,
            breaker_rejections: 3,
        };
        assert!(newer.since(&earlier).is_quiet());
        // ... and a genuinely active delta is still not quiet.
        let active = ResilienceSnapshot {
            retries: 8,
            ..earlier
        };
        assert!(!active.since(&earlier).is_quiet());
    }
}
