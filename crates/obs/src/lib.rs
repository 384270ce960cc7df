//! Observability for the web-view engine.
//!
//! Independent facilities, composable per subsystem:
//!
//! * [`trace`] — a lightweight structured tracing core: spans and
//!   instantaneous events collected into a bounded ring buffer with
//!   seeded, deterministic ids and JSON-lines export. A [`TraceSink`]
//!   is a cheap cloneable handle; subsystems hold an
//!   `Option<TraceSink>` and skip all work when it is `None`, so
//!   tracing has zero overhead unless explicitly attached.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges and
//!   histograms with Prometheus-style text exposition and a JSON
//!   snapshot. Subsystem counter structs (`CacheStats`,
//!   `AccessSnapshot`, `AdmissionStats`, …) are views over
//!   registry-backed handles, so the registry is the single
//!   registration point without changing any public API.
//! * [`hist`] — a [`FixedHistogram`]: HDR-style sub-bucketed histogram
//!   bounding quantile quantization error at ~3.1%; it is also what the
//!   registry hands out for a named histogram.
//! * [`slo`] — latency objectives with deterministic request-count
//!   multi-window burn-rate accounting over a [`FixedHistogram`].
//! * [`flight`] — a [`FlightRecorder`]: a bounded ring of recent
//!   per-request causal traces, frozen into a JSONL dump when a request
//!   is shed, falls back, misses a degraded view, or breaches the SLO.
//! * [`reqctx`] — ambient per-request context: the budget an evaluation
//!   installs and an observed request's attribution, which the fetch layer
//!   (coalescing, pool workers, simulated waits, upqueries) reads without
//!   any API threading.
//! * [`deadline`] — per-request wall-clock budgets ([`Deadline`]) and
//!   cooperative per-URL cancellation ([`CancelToken`]) threaded through
//!   the same ambient context.
//!
//! Everything is offline-shim compatible: the only dependency is the
//! workspace `parking_lot` shim.

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod deadline;
pub mod flight;
pub mod hist;
pub mod metrics;
pub mod reqctx;
pub mod slo;
pub mod trace;

pub use deadline::{CancelToken, Deadline};
pub use flight::{FlightDump, FlightRecorder, PhaseBreakdown, RequestTrace, TriggerKind};
pub use hist::FixedHistogram;
pub use metrics::{Counter, Gauge, MetricsRegistry};
pub use slo::{LatencyObjective, SloSnapshot, SloTracker};
pub use trace::{EventKind, FieldValue, Span, TraceEvent, TraceSink};
