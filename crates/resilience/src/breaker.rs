//! Per-key circuit breakers.
//!
//! A breaker watches *call-level* outcomes (after the retry loop has done
//! its work): `FAILURE_THRESHOLD` (5) consecutive failures trip it **Open**,
//! in which state calls are rejected without touching the network. Because
//! the simulated web has no independent clock to wait on, cooldown is
//! counted in *rejected calls* rather than wall time — after
//! `COOLDOWN_REJECTIONS` (3) fast-fails the breaker moves to **HalfOpen** and
//! lets a single probe through; the probe's outcome either closes the
//! breaker or re-opens it. Page absence (404) never counts toward tripping:
//! a missing page is a fact about the site, not the server's health.

/// Consecutive call-level failures that trip a breaker Open.
pub(crate) const FAILURE_THRESHOLD: u32 = 5;
/// Rejected calls the Open state absorbs before allowing a probe.
pub(crate) const COOLDOWN_REJECTIONS: u32 = 3;

/// The state of a breaker, as its transitions are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Calls flow normally; failures are being counted.
    Closed,
    /// Calls are rejected without being attempted.
    Open,
    /// One probe call is allowed through to test recovery.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { consecutive: u32 },
    Open { rejected: u32 },
    HalfOpen,
}

/// One circuit breaker ([`crate::ResilientSource`] keeps one per page
/// scheme).
#[derive(Debug)]
pub(crate) struct Breaker {
    state: State,
}

impl Breaker {
    pub(crate) fn new() -> Self {
        Breaker {
            state: State::Closed { consecutive: 0 },
        }
    }

    /// May the next call proceed? A `false` is a rejection and counts
    /// toward the Open state's cooldown.
    pub(crate) fn admit(&mut self) -> bool {
        match self.state {
            State::Closed { .. } | State::HalfOpen => true,
            State::Open { rejected } => {
                let rejected = rejected + 1;
                self.state = if rejected >= COOLDOWN_REJECTIONS {
                    State::HalfOpen
                } else {
                    State::Open { rejected }
                };
                false
            }
        }
    }

    /// Records a successful call.
    pub(crate) fn on_success(&mut self) {
        self.state = State::Closed { consecutive: 0 };
    }

    /// Records a failed call; returns `true` when this failure tripped the
    /// breaker (Closed→Open or HalfOpen→Open).
    pub(crate) fn on_failure(&mut self) -> bool {
        match self.state {
            State::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= FAILURE_THRESHOLD {
                    self.state = State::Open { rejected: 0 };
                    true
                } else {
                    self.state = State::Closed { consecutive };
                    false
                }
            }
            State::HalfOpen => {
                self.state = State::Open { rejected: 0 };
                true
            }
            State::Open { .. } => false,
        }
    }

    pub(crate) fn state(&self) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tripped() -> Breaker {
        let mut b = Breaker::new();
        for _ in 0..FAILURE_THRESHOLD {
            b.on_failure();
        }
        b
    }

    #[test]
    fn trips_after_consecutive_failures() {
        let mut b = Breaker::new();
        for _ in 1..FAILURE_THRESHOLD {
            assert!(!b.on_failure());
        }
        assert!(b.on_failure()); // the threshold-th failure trips
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit());
    }

    #[test]
    fn success_resets_the_count() {
        let mut b = Breaker::new();
        for _ in 1..FAILURE_THRESHOLD {
            b.on_failure();
        }
        b.on_success();
        for _ in 1..FAILURE_THRESHOLD {
            assert!(!b.on_failure());
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_then_half_open_probe() {
        let mut b = tripped();
        // The cooldown's rejections…
        for _ in 0..COOLDOWN_REJECTIONS {
            assert!(!b.admit());
        }
        // …then a probe is admitted.
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.admit());
        // A successful probe closes the breaker for good.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = tripped();
        while !b.admit() {}
        assert!(b.on_failure()); // failed probe counts as a trip
        assert_eq!(b.state(), BreakerState::Open);
    }
}
