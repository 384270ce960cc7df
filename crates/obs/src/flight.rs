//! Flight recorder: a bounded ring of recent request traces that
//! snapshots a full causal dump when something goes wrong.
//!
//! Counters tell you *how many* requests were shed or fell back;
//! the flight recorder tells you *why this one*. The serving layer
//! [`record`](FlightRecorder::record)s every completed request's
//! [`RequestTrace`] into a ring of the last N requests, and fires
//! [`trigger`](FlightRecorder::trigger) when a request was shed by
//! admission control, fell back after a constraint violation, missed a
//! degraded view, or blew the latency SLO. A trigger freezes the whole
//! ring into a [`FlightDump`] — the causal context *around* the bad
//! request, not just the bad request itself — exportable as JSON lines
//! for `harness trace`.
//!
//! Wall-clock latencies live only in the flight/ops export
//! ([`RequestTrace::to_json`]); the deterministic causal export
//! ([`RequestTrace::causal_jsonl`]) carries none, so same-seed causal
//! exports stay byte-identical, which the workspace determinism tests
//! pin.

use crate::trace::{escape, TraceEvent};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Why a flight dump was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerKind {
    /// Admission control shed the request.
    Shed,
    /// The constraint audit fired and the request fell back.
    ConstraintFallback,
    /// A registered view was degraded and the request went to live
    /// evaluation.
    ViewDegraded,
    /// The request's latency exceeded the SLO threshold.
    SloBreach,
    /// The request's deadline budget ran out mid-evaluation and it
    /// browned out to a partial answer.
    BudgetExhausted,
}

impl TriggerKind {
    /// Stable lowercase name used in the JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerKind::Shed => "shed",
            TriggerKind::ConstraintFallback => "constraint_fallback",
            TriggerKind::ViewDegraded => "view_degraded",
            TriggerKind::SloBreach => "slo_breach",
            TriggerKind::BudgetExhausted => "budget_exhausted",
        }
    }

    const ALL: [TriggerKind; 5] = [
        TriggerKind::Shed,
        TriggerKind::ConstraintFallback,
        TriggerKind::ViewDegraded,
        TriggerKind::SloBreach,
        TriggerKind::BudgetExhausted,
    ];
}

// `ALL` is in declaration order, so `kind as usize` is a kind's counter slot.
const _: () = {
    let mut i = 0;
    while i < TriggerKind::ALL.len() {
        assert!(TriggerKind::ALL[i] as usize == i);
        i += 1;
    }
};

impl fmt::Display for TriggerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Wall-clock time a request spent in each serving phase, microseconds.
/// `queue` is admission/scheduling delay (the load generator fills it
/// in for open-loop runs), the rest are measured inside
/// `QueryServer::serve`. `fetch` is summed across fetch calls, so with
/// a worker pool it can exceed the wall-clock `eval` it is nested in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    pub queue_us: u64,
    pub plan_us: u64,
    pub fetch_us: u64,
    pub eval_us: u64,
    pub view_us: u64,
}

impl PhaseBreakdown {
    /// Renders as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_us\": {}, \"plan_us\": {}, \"fetch_us\": {}, \"eval_us\": {}, \"view_us\": {}}}",
            self.queue_us, self.plan_us, self.fetch_us, self.eval_us, self.view_us
        )
    }
}

/// Everything recorded about one served request: identity, outcome
/// flags, wall-clock phases, and the causal event trees.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Seeded-deterministic request id (stable per query + occurrence).
    pub request_id: u64,
    /// The query's cache key.
    pub query: String,
    /// End-to-end latency, microseconds (wall clock — ops only).
    pub latency_us: u64,
    pub shed: bool,
    pub cached_plan: bool,
    pub from_view: bool,
    pub fell_back: bool,
    pub phases: PhaseBreakdown,
    /// Deterministic causal events (root span, planner, operators).
    pub events: Vec<TraceEvent>,
    /// Scheduling-dependent fetch attribution events (coalescing
    /// leader/follower links) — kept apart so determinism pins can
    /// ignore them without losing them.
    pub fetch_events: Vec<TraceEvent>,
}

impl RequestTrace {
    /// Deterministic export: a header line naming the request, then one
    /// JSON line per causal event. Same seed → byte-identical.
    pub fn causal_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"request\": {}, \"query\": \"{}\", \"shed\": {}, \"cached_plan\": {}, \
             \"from_view\": {}, \"fell_back\": {}}}\n",
            self.request_id,
            escape(&self.query),
            self.shed,
            self.cached_plan,
            self.from_view,
            self.fell_back,
        );
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Full operational export: one JSON object with latency, phases,
    /// and both event streams inline.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"request_id\": {}, \"query\": \"{}\", \"latency_us\": {}, \"shed\": {}, \
             \"cached_plan\": {}, \"from_view\": {}, \"fell_back\": {}, \"phases\": {}, ",
            self.request_id,
            escape(&self.query),
            self.latency_us,
            self.shed,
            self.cached_plan,
            self.from_view,
            self.fell_back,
            self.phases.to_json(),
        ));
        out.push_str("\"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("], \"fetch_events\": [");
        for (i, e) in self.fetch_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// A frozen snapshot of the ring, taken when a trigger fired.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Dump ordinal (0-based, in trigger order).
    pub seq: u64,
    pub trigger: TriggerKind,
    /// The request that tripped the trigger.
    pub request_id: u64,
    /// The ring contents at trigger time, oldest first.
    pub traces: Vec<RequestTrace>,
}

impl FlightDump {
    /// JSON-lines export: a dump header, then one full request line per
    /// ring entry.
    pub fn export_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"flight_dump\": {}, \"trigger\": \"{}\", \"request_id\": {}, \"requests\": {}}}\n",
            self.seq,
            self.trigger.as_str(),
            self.request_id,
            self.traces.len()
        );
        for t in &self.traces {
            out.push_str(&t.to_json());
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<RequestTrace>,
    dumps: Vec<FlightDump>,
    fired: [u64; TriggerKind::ALL.len()],
    next_dump: u64,
}

/// Bounded ring of recent request traces plus the trigger machinery.
/// Cheap to clone; all clones share one ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    max_dumps: usize,
    state: Arc<Mutex<RecorderState>>,
}

/// Default ring capacity (requests).
pub const DEFAULT_RING: usize = 256;
/// Default cap on retained dumps: triggers past it still count but
/// stop snapshotting, so a storm cannot hoard memory.
pub const DEFAULT_MAX_DUMPS: usize = 8;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING, DEFAULT_MAX_DUMPS)
    }

    /// Explicit ring capacity and retained-dump cap.
    pub fn with_capacity(capacity: usize, max_dumps: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            max_dumps,
            state: Arc::new(Mutex::new(RecorderState {
                ring: VecDeque::new(),
                dumps: Vec::new(),
                fired: [0; TriggerKind::ALL.len()],
                next_dump: 0,
            })),
        }
    }

    /// Records one completed request into the ring.
    pub fn record(&self, trace: RequestTrace) {
        let mut st = self.state.lock();
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
        }
        st.ring.push_back(trace);
    }

    /// Fires a trigger: counts it and, while under the dump cap,
    /// freezes the current ring into a new dump. Returns true when a
    /// dump was actually taken.
    pub fn trigger(&self, kind: TriggerKind, request_id: u64) -> bool {
        let mut st = self.state.lock();
        st.fired[kind as usize] += 1;
        if st.dumps.len() >= self.max_dumps {
            return false;
        }
        let dump = FlightDump {
            seq: st.next_dump,
            trigger: kind,
            request_id,
            traces: st.ring.iter().cloned().collect(),
        };
        st.next_dump += 1;
        st.dumps.push(dump);
        true
    }

    /// Ring contents, oldest first (completion order).
    pub fn recent(&self) -> Vec<RequestTrace> {
        self.state.lock().ring.iter().cloned().collect()
    }

    /// All retained dumps, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.state.lock().dumps.clone()
    }

    /// `(trigger, times fired)` for every trigger kind, including fires
    /// past the dump cap.
    pub fn fired(&self) -> Vec<(TriggerKind, u64)> {
        let st = self.state.lock();
        TriggerKind::ALL.into_iter().zip(st.fired).collect()
    }

    /// Exports the ring as one full request line each, sorted by
    /// request id so the order is canonical regardless of which thread
    /// finished first.
    pub fn export_recent_jsonl(&self) -> String {
        let mut traces = self.recent();
        traces.sort_by_key(|t| (t.request_id, t.latency_us));
        let mut out = String::new();
        for t in &traces {
            out.push_str(&t.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceSink};

    fn trace(id: u64) -> RequestTrace {
        let sink = TraceSink::with_seed(id);
        sink.event(EventKind::Serve, "serve.request", None, vec![]);
        RequestTrace {
            request_id: id,
            query: format!("q{id}"),
            latency_us: id * 10,
            shed: false,
            cached_plan: id > 0,
            from_view: false,
            fell_back: false,
            phases: PhaseBreakdown::default(),
            events: sink.events(),
            fetch_events: vec![],
        }
    }

    #[test]
    fn ring_is_bounded_and_dump_freezes_it() {
        let rec = FlightRecorder::with_capacity(3, 8);
        for i in 0..5 {
            rec.record(trace(i));
        }
        assert_eq!(rec.recent().len(), 3);
        assert!(rec.trigger(TriggerKind::Shed, 4));
        rec.record(trace(9));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].traces.len(), 3, "dump is frozen at trigger time");
        assert_eq!(dumps[0].trigger, TriggerKind::Shed);
        let ids: Vec<_> = dumps[0].traces.iter().map(|t| t.request_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn dump_cap_stops_snapshots_but_keeps_counting() {
        let rec = FlightRecorder::with_capacity(4, 2);
        rec.record(trace(1));
        assert!(rec.trigger(TriggerKind::SloBreach, 1));
        assert!(rec.trigger(TriggerKind::SloBreach, 1));
        assert!(!rec.trigger(TriggerKind::SloBreach, 1));
        assert_eq!(rec.dumps().len(), 2);
        let fired = rec.fired();
        let slo = fired
            .iter()
            .find(|(k, _)| *k == TriggerKind::SloBreach)
            .unwrap();
        assert_eq!(slo.1, 3);
    }

    #[test]
    fn exports_are_parseable_shapes() {
        let rec = FlightRecorder::new();
        rec.record(trace(7));
        rec.trigger(TriggerKind::ConstraintFallback, 7);
        let dump = &rec.dumps()[0];
        let jsonl = dump.export_jsonl();
        let mut lines = jsonl.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"flight_dump\": 0"));
        assert!(header.contains("\"trigger\": \"constraint_fallback\""));
        let req = lines.next().unwrap();
        assert!(req.contains("\"request_id\": 7"));
        assert!(req.contains("\"events\": ["));
        assert!(req.contains("\"phases\": {\"queue_us\": 0"));
        assert!(req.contains("serve.request"));
    }

    #[test]
    fn causal_export_is_latency_free_and_deterministic() {
        let a = trace(3);
        let mut b = trace(3);
        b.latency_us = 999_999; // wall clock differs run to run
        b.phases.eval_us = 123;
        assert_eq!(a.causal_jsonl(), b.causal_jsonl());
        assert!(!a.causal_jsonl().contains("latency"));
        assert_ne!(a.to_json(), b.to_json(), "ops export does carry it");
    }

    #[test]
    fn recent_export_sorts_by_request_id() {
        let rec = FlightRecorder::new();
        rec.record(trace(9));
        rec.record(trace(2));
        let out = rec.export_recent_jsonl();
        let first = out.lines().next().unwrap();
        assert!(first.contains("\"request_id\": 2"));
    }
}
