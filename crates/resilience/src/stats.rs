//! Resilience counters — strictly separate from the paper's statistics.
//!
//! Nothing in this module ever feeds `page_accesses`, `gets`, or any other
//! number the paper's experiments report. Retries, give-ups, breaker
//! activity and hedging live here and only here, so the cost-model
//! experiments stay byte-identical whether or not a resilient wrapper sits
//! in the fetch path.
//!
//! The cells are registered in an [`obs::MetricsRegistry`] (prefix
//! `resilience`); [`ResilienceSnapshot`] is a point-in-time view over
//! those registry cells, so the numbers are identical to the
//! pre-registry ad-hoc atomics while also being exportable by name.

use obs::{Counter, MetricsRegistry};

/// Registry-backed counter cells behind [`ResilienceSnapshot`].
#[derive(Debug)]
pub(crate) struct StatCells {
    registry: MetricsRegistry,
    pub retries: Counter,
    pub giveups: Counter,
    pub breaker_trips: Counter,
    pub breaker_rejections: Counter,
    pub hedges: Counter,
    pub hedge_wins: Counter,
    pub hedge_cancelled: Counter,
}

impl Default for StatCells {
    fn default() -> Self {
        let registry = MetricsRegistry::with_prefix("resilience");
        StatCells {
            retries: registry.counter("retries"),
            giveups: registry.counter("giveups"),
            breaker_trips: registry.counter("breaker_trips"),
            breaker_rejections: registry.counter("breaker_rejections"),
            hedges: registry.counter("hedges"),
            hedge_wins: registry.counter("hedge_wins"),
            hedge_cancelled: registry.counter("hedge_cancelled"),
            registry,
        }
    }
}

impl StatCells {
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub(crate) fn snapshot(&self) -> ResilienceSnapshot {
        ResilienceSnapshot {
            retries: self.retries.get(),
            giveups: self.giveups.get(),
            breaker_trips: self.breaker_trips.get(),
            breaker_rejections: self.breaker_rejections.get(),
            hedges: self.hedges.get(),
            hedge_wins: self.hedge_wins.get(),
            hedge_cancelled: self.hedge_cancelled.get(),
        }
    }

    pub(crate) fn reset(&self) {
        self.retries.reset();
        self.giveups.reset();
        self.breaker_trips.reset();
        self.breaker_rejections.reset();
        self.hedges.reset();
        self.hedge_wins.reset();
        self.hedge_cancelled.reset();
    }
}

/// A point-in-time copy of a wrapper's resilience counters.
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
    /// Backup fetches launched by a hedge policy.
    pub hedges: u64,
    /// Hedged fetches where the backup's response arrived first.
    pub hedge_wins: u64,
    /// Losing hedge twins cancelled before a worker dispatched them
    /// (the server never saw their GET).
    pub hedge_cancelled: u64,
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
            hedges: self.hedges.saturating_sub(earlier.hedges),
            hedge_wins: self.hedge_wins.saturating_sub(earlier.hedge_wins),
            hedge_cancelled: self.hedge_cancelled.saturating_sub(earlier.hedge_cancelled),
        }
    }

    /// True when the wrapper took no resilience action at all — the
    /// fault-free fast path.
    pub fn is_quiet(&self) -> bool {
        *self == ResilienceSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_saturating_per_field() {
        let newer = ResilienceSnapshot {
            retries: 5,
            giveups: 0,
            hedges: 100,
            ..Default::default()
        };
        let earlier = ResilienceSnapshot {
            retries: 2,
            giveups: 3, // went backwards (reset between snapshots)
            hedges: 400,
            ..Default::default()
        };
        let d = newer.since(&earlier);
        assert_eq!(d.retries, 3);
        assert_eq!(d.giveups, 0, "backwards field saturates to 0");
        assert_eq!(d.hedges, 0);
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
            hedges: 6,
            hedge_wins: 2,
            hedge_cancelled: 1,
        };
        assert!(newer.since(&earlier).is_quiet());
        // ... and a genuinely active delta is still not quiet.
        let active = ResilienceSnapshot {
            retries: 8,
            ..earlier
        };
        assert!(!active.since(&earlier).is_quiet());
    }

    #[test]
    fn cells_register_under_resilience_prefix() {
        let cells = StatCells::default();
        cells.retries.add(2);
        assert!(cells
            .registry()
            .names()
            .contains(&"resilience_retries".to_string()));
        assert!(cells
            .registry()
            .render_prometheus()
            .contains("resilience_retries 2"));
        assert_eq!(cells.snapshot().retries, 2);
        cells.reset();
        assert!(cells.snapshot().is_quiet());
    }
}
