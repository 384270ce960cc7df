//! Admission control: a bounded-concurrency gate for serving layers.
//!
//! The retry/breaker wrapper [`nalg::ResilientSource`] protects the engine
//! from a *faulty* web; [`AdmissionControl`] protects it from its own
//! *clients*. A long-lived server fielding concurrent sessions admits at
//! most `capacity` of them at a time; a request arriving beyond the limit
//! is **shed** immediately — the serving layer answers it with an empty
//! [`nalg::DegradationMode::Partial`]-style result instead of queueing
//! (queueing under overload just converts load into latency).
//!
//! Every admission decision is visible in an [`obs::MetricsRegistry`]
//! under the `admission` prefix and in [`AdmissionStats`], and, like the
//! retry wrapper's counters, none of it ever touches the paper's
//! page-access accounting.

use obs::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded-concurrency admission gate. Cheap to share by reference
/// across serving threads; permits release on drop.
#[derive(Debug)]
pub struct AdmissionControl {
    registry: MetricsRegistry,
    admitted: Counter,
    shed: Counter,
    capacity: usize,
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl AdmissionControl {
    /// A gate admitting at most `capacity` concurrent sessions
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let registry = MetricsRegistry::with_prefix("admission");
        AdmissionControl {
            admitted: registry.counter("admitted"),
            shed: registry.counter("shed"),
            capacity: capacity.max(1),
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            registry,
        }
    }

    /// The registry backing this gate's counters (prefix `admission`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Tries to admit one session. `Some(permit)` reserves a slot until
    /// the permit is dropped; `None` means the gate is at capacity and the
    /// request must be shed.
    pub fn try_admit(&self) -> Option<AdmissionPermit<'_>> {
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if current >= self.capacity {
                self.shed.inc();
                return None;
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.admitted.inc();
                    self.peak.fetch_max(current + 1, Ordering::SeqCst);
                    return Some(AdmissionPermit { gate: self });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// A point-in-time copy of the admission counters.
    pub fn snapshot(&self) -> AdmissionStats {
        AdmissionStats {
            capacity: self.capacity,
            admitted: self.admitted.get(),
            shed: self.shed.get(),
            active: self.active.load(Ordering::SeqCst),
            peak_active: self.peak.load(Ordering::SeqCst),
        }
    }
}

/// A reserved concurrency slot; dropping it releases the slot.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionControl,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A point-in-time copy of the admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// The concurrency limit.
    pub capacity: usize,
    /// Sessions admitted (granted a permit).
    pub admitted: u64,
    /// Sessions shed at the gate.
    pub shed: u64,
    /// Permits held right now (a gauge).
    pub active: usize,
    /// The highest concurrent permit count observed.
    pub peak_active: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let gate = AdmissionControl::new(2);
        let a = gate.try_admit().expect("slot 1");
        let _b = gate.try_admit().expect("slot 2");
        assert!(gate.try_admit().is_none(), "at capacity: shed");
        assert_eq!(gate.snapshot().active, 2);
        drop(a);
        assert!(gate.try_admit().is_some(), "released slot is reusable");
        let s = gate.snapshot();
        assert_eq!((s.admitted, s.shed), (3, 1));
        assert_eq!(s.peak_active, 2);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let gate = AdmissionControl::new(0);
        assert_eq!(gate.snapshot().capacity, 1);
        let _p = gate.try_admit().expect("one slot");
        assert!(gate.try_admit().is_none());
    }

    #[test]
    fn registers_under_admission_prefix() {
        let gate = AdmissionControl::new(1);
        let _p = gate.try_admit();
        let _ = gate.try_admit();
        let prom = gate.metrics().render_prometheus();
        assert!(prom.contains("admission_admitted 1"));
        assert!(prom.contains("admission_shed 1"));
    }

    #[test]
    fn concurrent_admission_never_exceeds_capacity() {
        let gate = AdmissionControl::new(4);
        let peak_violations = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        if let Some(p) = gate.try_admit() {
                            if gate.snapshot().active > 4 {
                                peak_violations.fetch_add(1, Ordering::SeqCst);
                            }
                            drop(p);
                        }
                    }
                });
            }
        });
        assert_eq!(peak_violations.load(Ordering::SeqCst), 0);
        assert_eq!(gate.snapshot().active, 0, "every permit released");
        assert!(gate.snapshot().peak_active <= 4);
    }
}
