//! The benchmark's own spans: recorded around calls into each layer's
//! public functions, kept in memory, written out when the run ends.
//!
//! A span's parent is the innermost span open on its thread. A span opened
//! on a thread with none open — a fetch issued from one of nalg's pool
//! workers — is adopted by the span currently marked with
//! [`SpanGuard::adopt_orphans`]; the traced pass runs one client, so that
//! is the single request in flight.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` 0 means a root; `request` is the number of
/// the request (or maintenance round) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// (span id, request) of the spans open on this thread, outermost first.
    static OPEN: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of the process.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    /// `(span id << 32) | request` of the adopting span, 0 when none.
    adopter: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            adopter: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Starts or stops recording; spans opened while off cost one atomic
    /// load and record nothing.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for request number `request`.
    pub fn request(&self, name: &'static str, request: u32) -> SpanGuard<'_> {
        self.open(name, Some(request))
    }

    /// Opens a span under whatever is open on this thread (or adopted).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None)
    }

    fn open(&self, name: &'static str, request: Option<u32>) -> SpanGuard<'_> {
        if !self.on.load(SeqCst) {
            return SpanGuard {
                rec: self,
                live: None,
            };
        }
        let id = self.next_id.fetch_add(1, SeqCst);
        let (parent, request) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, inherited) = open.last().copied().unwrap_or_else(|| {
                let a = self.adopter.load(SeqCst);
                ((a >> 32) as u32, a as u32)
            });
            let request = request.unwrap_or(inherited);
            open.push((id, request));
            (parent, request)
        });
        SpanGuard {
            rec: self,
            live: Some(Live {
                id,
                parent,
                request,
                name,
                start_ns: self.now_ns(),
                adopting: false,
            }),
        }
    }

    /// Every span finished so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.done.lock().expect("span buffer poisoned"))
    }
}

struct Live {
    id: u32,
    parent: u32,
    request: u32,
    name: &'static str,
    start_ns: u64,
    adopting: bool,
}

/// Closes its span when dropped.
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    live: Option<Live>,
}

impl SpanGuard<'_> {
    /// While this span is open, spans opened on threads with no span of
    /// their own become its children.
    pub fn adopt_orphans(mut self) -> Self {
        if let Some(l) = self.live.as_mut() {
            l.adopting = true;
            self.rec
                .adopter
                .store((u64::from(l.id) << 32) | u64::from(l.request), SeqCst);
        }
        self
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(l) = self.live.take() else { return };
        let end_ns = self.rec.now_ns();
        if l.adopting {
            self.rec.adopter.store(0, SeqCst);
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // Guards drop in reverse order of creation on their thread.
            debug_assert_eq!(open.last().map(|o| o.0), Some(l.id));
            open.pop();
        });
        if let Ok(mut done) = self.rec.done.lock() {
            done.push(Span {
                id: l.id,
                parent: l.parent,
                request: l.request,
                name: l.name,
                start_ns: l.start_ns,
                end_ns,
            });
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap one another (parallel
/// fetches) are counted once; a child that outlives its parent is clipped.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Totals per span name: (spans, Σ duration, Σ self time), nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> HashMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// For every span named `name`: how much of its interval its direct
/// children named `child` cover (overlaps counted once), keyed by span id.
pub fn child_coverage(spans: &[Span], name: &str, child: &str) -> HashMap<u32, u64> {
    let mut kids: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == child && s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let c = kids
                .get_mut(&s.id)
                .map_or(0, |k| covered_ns(k, s.start_ns, s.end_ns));
            (s.id, c)
        })
        .collect()
}

/// One JSON object per line: `name, start_ns, end_ns, parent, request`
/// plus the span's own `id`, ordered by start time.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in ordered {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "serve.serve", 10, 90),
            span(3, 2, "source.fetch", 20, 40),
            span(4, 3, "websim.get", 20, 25),
            span(5, 3, "wrapper.wrap", 25, 40),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 20);
        assert_eq!(s[&2], 60);
        assert_eq!(s[&3], 0);
        assert_eq!((s[&4], s[&5]), (5, 15));
        let t = totals_by_name(&spans);
        assert_eq!(t["serve.serve"], (1, 80, 60));
    }

    #[test]
    fn overlapping_pool_children_are_counted_once_and_clipped() {
        // Four pool fetches in flight at once under one serve span, one of
        // them finishing after the parent (clipped at 100).
        let spans = vec![
            span(1, 0, "serve.serve", 0, 100),
            span(2, 1, "source.fetch", 10, 60),
            span(3, 1, "source.fetch", 20, 70),
            span(4, 1, "source.fetch", 65, 80),
            span(5, 1, "source.fetch", 95, 120),
        ];
        let s = self_times(&spans);
        // union = [10,80] ∪ [95,100] = 75
        assert_eq!(s[&1], 25);
        assert_eq!(
            child_coverage(&spans, "serve.serve", "source.fetch")[&1],
            75
        );
    }

    #[test]
    fn recorder_parents_by_thread_and_adopts_pool_threads() {
        let rec = Recorder::default();
        {
            let _ignored = rec.span("off");
        }
        assert!(rec.take().is_empty(), "off records nothing");
        rec.set_on(true);
        {
            let _req = rec.request("request", 7);
            let _serve = rec.span("serve.serve").adopt_orphans();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _fetch = rec.span("source.fetch");
                    let _get = rec.span("websim.get");
                });
            });
            let _own = rec.span("source.fetch");
        }
        {
            // nothing adopts once the serve span has closed
            let _stray = rec.span("stray");
        }
        let spans = rec.take();
        let by = |n: &str| spans.iter().filter(|s| s.name == n).collect::<Vec<_>>();
        let (req, serve) = (by("request")[0], by("serve.serve")[0]);
        assert_eq!((req.parent, req.request), (0, 7));
        assert_eq!(serve.parent, req.id);
        assert!(by("source.fetch")
            .iter()
            .all(|f| f.parent == serve.id && f.request == 7));
        assert_eq!(by("websim.get")[0].parent, by("source.fetch")[0].id);
        assert_eq!(by("stray")[0].parent, 0);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
