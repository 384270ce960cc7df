//! Constraint health: violation accounting, quarantine, and TTL
//! re-admission for the optimizer's constraint assumptions.
//!
//! The optimizer's rewrite rules are licensed by link and inclusion
//! constraints declared in the web-scheme; a drifted site silently breaks
//! them, and with them the *correctness* of every plan they licensed. A
//! [`ConstraintHealth`] registry is the shared memory between runtime
//! auditing (which reports sampled checks and violations per constraint)
//! and plan selection (which asks, per constraint, whether it is still
//! trustworthy):
//!
//! * a constraint with one audited violation is **quarantined** — the
//!   optimizer excludes it from rewrites until it is re-admitted;
//! * quarantine expires after 8 logical ticks (one tick per query session
//!   run), re-admitting the constraint on probation with its violation
//!   count cleared — if the site was fixed the constraint stays, if not
//!   the next audited violation re-quarantines it.
//!
//! The optimizer reads it through the rule engine's
//! [`ConstraintGate`](crate::rules::ConstraintGate): a quarantined
//! constraint's gate answers `false`. Counters live in an
//! [`obs::MetricsRegistry`] under the `constraint` prefix;
//! [`ConstraintHealthSnapshot`] is the point-in-time view. Everything is
//! deterministic: no wall clock, no randomness.

use obs::{Counter, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Audited violations that quarantine a constraint.
const QUARANTINE_THRESHOLD: u64 = 1;
/// Quarantine duration in logical ticks.
const QUARANTINE_TTL: u64 = 8;

/// Per-constraint bookkeeping.
#[derive(Debug, Default, Clone)]
struct ConstraintState {
    checks: u64,
    violations: u64,
    /// Logical tick at which the constraint was quarantined, if it is.
    quarantined_at: Option<u64>,
}

/// Shared registry of constraint trust: violation counts, quarantine with
/// TTL re-admission, and `constraint`-prefixed metrics. Constraints are
/// keyed by their canonical display form (e.g.
/// `"P1.A = P2.B  (via P1.L)"` or `"P1.L1 ⊆ P2.L2"`).
#[derive(Debug)]
pub struct ConstraintHealth {
    registry: MetricsRegistry,
    checks: Counter,
    violations: Counter,
    quarantines: Counter,
    readmissions: Counter,
    fallbacks: Counter,
    state: Mutex<(u64, BTreeMap<String, ConstraintState>)>,
}

impl Default for ConstraintHealth {
    fn default() -> Self {
        ConstraintHealth::new()
    }
}

impl ConstraintHealth {
    /// An empty registry: one audited violation quarantines a constraint
    /// for 8 ticks.
    pub fn new() -> Self {
        let registry = MetricsRegistry::with_prefix("constraint");
        ConstraintHealth {
            checks: registry.counter("checks"),
            violations: registry.counter("violations"),
            quarantines: registry.counter("quarantines"),
            readmissions: registry.counter("readmissions"),
            fallbacks: registry.counter("fallbacks"),
            state: Mutex::new((0, BTreeMap::new())),
            registry,
        }
    }

    /// The registry backing this health's counters (prefix `constraint`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn state(&self) -> MutexGuard<'_, (u64, BTreeMap<String, ConstraintState>)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances logical time by one tick (called once per query-session
    /// run), re-admitting constraints whose quarantine has expired.
    /// Returns the keys re-admitted on this tick, sorted.
    pub fn tick(&self) -> Vec<String> {
        let mut guard = self.state();
        let (ref mut now, ref mut map) = *guard;
        *now += 1;
        let mut readmitted = Vec::new();
        for (key, st) in map.iter_mut() {
            if let Some(at) = st.quarantined_at {
                if now.saturating_sub(at) >= QUARANTINE_TTL {
                    st.quarantined_at = None;
                    // Probation: the slate is clean, but one fresh
                    // violation re-quarantines.
                    st.violations = 0;
                    self.readmissions.inc();
                    readmitted.push(key.clone());
                }
            }
        }
        readmitted
    }

    /// Records `checks` audited checks and `violations` violations for the
    /// constraint `key`, quarantining it when its violation count reaches
    /// the threshold. Returns true if this call quarantined it.
    pub fn record(&self, key: &str, checks: u64, violations: u64) -> bool {
        self.checks.add(checks);
        self.violations.add(violations);
        let mut guard = self.state();
        let (now, ref mut map) = *guard;
        let st = map.entry(key.to_string()).or_default();
        st.checks += checks;
        st.violations += violations;
        if st.quarantined_at.is_none() && st.violations >= QUARANTINE_THRESHOLD {
            st.quarantined_at = Some(now);
            self.quarantines.inc();
            return true;
        }
        false
    }

    /// Records that a query fell back to its default-navigation plan
    /// because of a constraint violation.
    pub fn note_fallback(&self) {
        self.fallbacks.inc();
    }

    /// True if the constraint `key` is currently quarantined — the
    /// optimizer must not let it license a rewrite.
    pub fn is_quarantined(&self, key: &str) -> bool {
        let guard = self.state();
        guard.1.get(key).is_some_and(|s| s.quarantined_at.is_some())
    }

    /// The currently quarantined constraint keys, sorted.
    pub fn quarantined(&self) -> Vec<String> {
        let guard = self.state();
        guard
            .1
            .iter()
            .filter(|(_, s)| s.quarantined_at.is_some())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// A point-in-time copy of the aggregate counters.
    pub fn snapshot(&self) -> ConstraintHealthSnapshot {
        let quarantined_now = {
            let guard = self.state();
            guard
                .1
                .values()
                .filter(|s| s.quarantined_at.is_some())
                .count() as u64
        };
        ConstraintHealthSnapshot {
            checks: self.checks.get(),
            violations: self.violations.get(),
            quarantines: self.quarantines.get(),
            readmissions: self.readmissions.get(),
            fallbacks: self.fallbacks.get(),
            quarantined_now,
        }
    }
}

/// A point-in-time copy of the constraint-health counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstraintHealthSnapshot {
    /// Audited constraint checks performed.
    pub checks: u64,
    /// Violations detected by auditing.
    pub violations: u64,
    /// Quarantine activations.
    pub quarantines: u64,
    /// Constraints re-admitted after their quarantine TTL expired.
    pub readmissions: u64,
    /// Queries that fell back to their default-navigation plan.
    pub fallbacks: u64,
    /// Constraints quarantined at snapshot time (a gauge, not a counter).
    pub quarantined_now: u64,
}

impl ConstraintHealthSnapshot {
    /// Counter deltas since an earlier snapshot, saturating per field
    /// (`quarantined_now` is a gauge and is carried over, not subtracted).
    pub fn since(&self, earlier: &ConstraintHealthSnapshot) -> ConstraintHealthSnapshot {
        ConstraintHealthSnapshot {
            checks: self.checks.saturating_sub(earlier.checks),
            violations: self.violations.saturating_sub(earlier.violations),
            quarantines: self.quarantines.saturating_sub(earlier.quarantines),
            readmissions: self.readmissions.saturating_sub(earlier.readmissions),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            quarantined_now: self.quarantined_now,
        }
    }

    /// True when auditing saw no violation and took no action — the
    /// drift-free fast path.
    pub fn is_quiet(&self) -> bool {
        self.violations == 0
            && self.quarantines == 0
            && self.readmissions == 0
            && self.fallbacks == 0
            && self.quarantined_now == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &str = "P1.A = P2.B  (via P1.L)";

    #[test]
    fn clean_checks_never_quarantine() {
        let h = ConstraintHealth::new();
        for _ in 0..10 {
            assert!(!h.record(KEY, 5, 0));
        }
        assert!(!h.is_quarantined(KEY));
        let s = h.snapshot();
        assert_eq!(s.checks, 50);
        assert!(s.is_quiet());
    }

    #[test]
    fn violations_quarantine_at_threshold() {
        let h = ConstraintHealth::new();
        assert!(!h.record(KEY, 3, 0));
        assert!(h.record(KEY, 1, 1), "the first violation quarantines");
        assert!(h.is_quarantined(KEY));
        assert!(!h.record(KEY, 1, 1), "already quarantined: no re-trigger");
        assert_eq!(h.quarantined(), vec![KEY.to_string()]);
        let s = h.snapshot();
        assert_eq!(s.quarantines, 1);
        assert_eq!(s.quarantined_now, 1);
        assert!(!s.is_quiet());
    }

    #[test]
    fn ttl_readmits_on_probation() {
        let h = ConstraintHealth::new();
        h.record(KEY, 1, 1);
        assert!(h.is_quarantined(KEY));
        for tick in 1..QUARANTINE_TTL {
            assert!(h.tick().is_empty(), "tick {tick}: still quarantined");
            assert!(h.is_quarantined(KEY));
        }
        assert_eq!(h.tick(), vec![KEY.to_string()], "tick 8: readmitted");
        assert!(!h.is_quarantined(KEY));
        assert_eq!(h.snapshot().readmissions, 1);
        // Probation: a fresh violation re-quarantines immediately.
        assert!(h.record(KEY, 1, 1));
        assert!(h.is_quarantined(KEY));
        assert_eq!(h.snapshot().quarantines, 2);
    }

    #[test]
    fn registers_under_constraint_prefix() {
        let h = ConstraintHealth::new();
        h.record(KEY, 4, 2);
        let names = h.metrics().names();
        assert!(names.contains(&"constraint_checks".to_string()));
        assert!(names.contains(&"constraint_violations".to_string()));
        let prom = h.metrics().render_prometheus();
        assert!(prom.contains("constraint_checks 4"));
        assert!(prom.contains("constraint_violations 2"));
        assert!(prom.contains("constraint_quarantines 1"));
    }

    #[test]
    fn snapshot_since_saturates() {
        let newer = ConstraintHealthSnapshot {
            checks: 5,
            violations: 1,
            quarantined_now: 1,
            ..Default::default()
        };
        let earlier = ConstraintHealthSnapshot {
            checks: 9, // went backwards
            violations: 0,
            ..Default::default()
        };
        let d = newer.since(&earlier);
        assert_eq!(d.checks, 0);
        assert_eq!(d.violations, 1);
        assert_eq!(d.quarantined_now, 1, "gauge is carried, not subtracted");
    }
}
