//! A registry of named counters, gauges and histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`FixedHistogram`]) are cheap
//! cloneable `Arc`-backed cells; the registry maps stable names to handles and
//! renders them as Prometheus-style text or a JSON snapshot.
//! Subsystems keep their existing snapshot structs (`CacheStats`,
//! `AccessSnapshot`, …) as *views*: the struct is assembled by reading
//! registry-backed handles, so totals are identical to the old ad-hoc
//! atomics while every number is also exportable by name.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::hist::FixedHistogram;

/// A monotonically increasing counter (resettable for test harnesses).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere (useful for tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (used by `reset_stats`-style harness hooks).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A signed gauge: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not registered anywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(FixedHistogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A name asked for as one metric type while the registry holds it as
/// another — a programming error, which [`MetricsRegistry::clashes`]
/// reports instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricClash {
    /// The full (prefixed) name.
    pub name: String,
    /// The type the name is registered as.
    pub registered: &'static str,
    /// The type it was asked for as.
    pub requested: &'static str,
}

#[derive(Debug)]
struct RegistryInner {
    prefix: String,
    metrics: RwLock<BTreeMap<String, Metric>>,
    clashes: Mutex<Vec<MetricClash>>,
}

/// A named collection of metrics. Cloning is cheap; all clones share
/// the same underlying map.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with no name prefix.
    pub fn new() -> Self {
        Self::with_prefix("")
    }

    /// An empty registry whose metric names are all prefixed with
    /// `<prefix>_` (e.g. prefix `"cache"` + name `"hits"` →
    /// `cache_hits`).
    pub fn with_prefix(prefix: &str) -> Self {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                prefix: prefix.to_string(),
                metrics: RwLock::new(BTreeMap::new()),
                clashes: Mutex::new(Vec::new()),
            }),
        }
    }

    fn full_name(&self, name: &str) -> String {
        if self.inner.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}_{}", self.inner.prefix, name)
        }
    }

    /// Registers (or retrieves) a counter under `name`. A name registered
    /// as another type keeps that type: the caller gets a counter
    /// registered nowhere, and the clash is recorded in
    /// [`MetricsRegistry::clashes`]. The same holds for [`Self::gauge`] and
    /// [`Self::histogram`].
    pub fn counter(&self, name: &str) -> Counter {
        self.handle(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// Registers (or retrieves) a gauge under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.handle(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// Registers (or retrieves) a histogram under `name`.
    pub fn histogram(&self, name: &str) -> FixedHistogram {
        self.handle(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// The handle registered under `name`, registering a fresh one when the
    /// name is free; a fresh unregistered one when it holds another type.
    fn handle<T: Clone + Default>(
        &self,
        name: &str,
        wrap: fn(T) -> Metric,
        unwrap: fn(&Metric) -> Option<&T>,
    ) -> T {
        let full = self.full_name(name);
        let mut map = self.inner.metrics.write();
        let metric = map
            .entry(full.clone())
            .or_insert_with(|| wrap(T::default()));
        if let Some(handle) = unwrap(metric) {
            return handle.clone();
        }
        self.inner.clashes.lock().push(MetricClash {
            name: full,
            registered: metric.type_name(),
            requested: wrap(T::default()).type_name(),
        });
        T::default()
    }

    /// Every type clash met so far, in order (see [`Self::counter`]).
    pub fn clashes(&self) -> Vec<MetricClash> {
        self.inner.clashes.lock().clone()
    }

    /// All registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.metrics.read().keys().cloned().collect()
    }

    /// Prometheus-style text exposition (`# TYPE` lines plus samples;
    /// histogram buckets are cumulative with `le` labels).
    pub fn render_prometheus(&self) -> String {
        let map = self.inner.metrics.read();
        let mut out = String::new();
        for (name, metric) in map.iter() {
            out.push_str(&format!("# TYPE {name} {}\n", metric.type_name()));
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (le, n) in h.buckets() {
                        cum += n;
                        if le == u64::MAX {
                            continue;
                        }
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }

    /// One JSON object mapping each metric name to its snapshot.
    pub fn render_json(&self) -> String {
        let map = self.inner.metrics.read();
        let mut out = String::from("{");
        for (i, (name, metric)) in map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":"));
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{{\"type\":\"counter\",\"value\":{}}}", c.get()))
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{{\"type\":\"gauge\",\"value\":{}}}", g.get()))
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count(),
                        h.sum()
                    ));
                    for (j, (le, n)) in h.buckets().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        if *le == u64::MAX {
                            out.push_str(&format!("[null,{n}]"));
                        } else {
                            out.push_str(&format!("[{le},{n}]"));
                        }
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::with_prefix("cache");
        let hits = reg.counter("hits");
        hits.inc();
        hits.add(4);
        assert_eq!(hits.get(), 5);
        // Same name yields the same underlying cell.
        assert_eq!(reg.counter("hits").get(), 5);
        hits.reset();
        assert_eq!(reg.counter("hits").get(), 0);

        let g = reg.gauge("entries");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        assert_eq!(reg.names(), vec!["cache_entries", "cache_hits"]);
    }

    #[test]
    fn prometheus_rendering_shapes() {
        let reg = MetricsRegistry::with_prefix("websim");
        reg.counter("gets").add(3);
        let h = reg.histogram("get_bytes");
        h.observe(100);
        h.observe(200);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE websim_gets counter"));
        assert!(text.contains("websim_gets 3"));
        assert!(text.contains("# TYPE websim_get_bytes histogram"));
        assert!(text.contains("websim_get_bytes_bucket{le=\"101\"} 1"));
        assert!(text.contains("websim_get_bytes_bucket{le=\"203\"} 2"));
        assert!(text.contains("websim_get_bytes_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("websim_get_bytes_sum 300"));
        assert!(text.contains("websim_get_bytes_count 2"));
    }

    #[test]
    fn json_snapshot_shapes() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.gauge("b").set(-1);
        let json = reg.render_json();
        assert_eq!(
            json,
            "{\"a\":{\"type\":\"counter\",\"value\":2},\"b\":{\"type\":\"gauge\",\"value\":-1}}"
        );
    }

    #[test]
    fn a_type_clash_keeps_the_first_metric_and_is_reported() {
        let reg = MetricsRegistry::with_prefix("p");
        reg.counter("x").inc();
        let g = reg.gauge("x");
        g.set(-5);
        assert_eq!(g.get(), -5, "the caller's handle still works");
        assert_eq!(reg.counter("x").get(), 1, "the name kept its counter");
        assert_eq!(
            reg.render_json(),
            "{\"p_x\":{\"type\":\"counter\",\"value\":1}}"
        );
        assert_eq!(
            reg.clashes(),
            vec![MetricClash {
                name: "p_x".into(),
                registered: "counter",
                requested: "gauge",
            }]
        );
    }
}
