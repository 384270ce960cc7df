//! Windows of equal work, and the quietest quarter of them.
//!
//! A closed-loop phase is cut into windows of `window` consecutive
//! completions, about a second each. Every end-to-end timing is then
//! computed over the **quietest quarter** of the windows — the quarter
//! with the highest throughput — pooled: requests per second and CPU per
//! request over those windows' time, latency percentiles over those
//! windows' samples.
//!
//! On a small shared box the noise is one-sided. For stretches of one to
//! ten seconds — a neighbour, the hypervisor — the same work takes 5–15 %
//! more CPU time; nothing ever makes it take less. Pooled over a whole
//! run, a ten-second stretch moves every number by most of that. The
//! quietest quarter asks only that a quarter of the run went undisturbed,
//! describes one and the same stretch of time with every metric, and
//! still pools enough samples for a p95 (six windows of 70 leave it 21
//! beyond). Over ten runs of each workload on the box this was built on,
//! it halved the run-to-run spread of the CPU-bound workloads against
//! pooling the whole run, and beat keeping half. The schedules are
//! stratified, so every window holds (almost exactly) the same multiset
//! of requests, and the slower windows are slower because of the machine,
//! not because of what was asked.

use crate::stats::{percentile, sort};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process state when `done` operations had completed.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub done: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Counts completions across the client threads of a phase and drops a
/// [`Mark`] every `window` of them.
pub struct Windows {
    window: usize,
    start: Instant,
    done: AtomicUsize,
    marks: Mutex<Vec<Mark>>,
    /// Wall and CPU seconds spent under [`Windows::excluding`] so far.
    excluded: Mutex<(f64, f64)>,
}

impl Windows {
    pub fn start(window: usize) -> Windows {
        let w = Windows {
            window: window.max(1),
            start: Instant::now(),
            done: AtomicUsize::new(0),
            marks: Mutex::new(Vec::new()),
            excluded: Mutex::new((0.0, 0.0)),
        };
        w.mark(0);
        w
    }

    fn mark(&self, done: usize) {
        let (wall_out, cpu_out) = *self.excluded.lock().expect("exclusions poisoned");
        let m = Mark {
            done,
            wall_s: self.start.elapsed().as_secs_f64() - wall_out,
            cpu_s: super::process_cpu_s() - cpu_out,
        };
        self.marks.lock().expect("marks poisoned").push(m);
    }

    /// Runs `f` off the clock: its wall and CPU time count towards no
    /// window. For the harness's own periodic work on a one-client phase.
    pub fn excluding<R>(&self, f: impl FnOnce() -> R) -> R {
        let (t0, cpu0) = (Instant::now(), super::process_cpu_s());
        let r = f();
        let mut out = self.excluded.lock().expect("exclusions poisoned");
        out.0 += t0.elapsed().as_secs_f64();
        out.1 += super::process_cpu_s() - cpu0;
        r
    }

    /// Call when an operation completes; returns its completion rank.
    pub fn completed(&self) -> usize {
        let rank = self.done.fetch_add(1, Ordering::SeqCst);
        if (rank + 1).is_multiple_of(self.window) {
            self.mark(rank + 1);
        }
        rank
    }

    /// Ends the phase: the marks, the last one taken now.
    pub fn finish(self) -> Vec<Mark> {
        let done = self.done.load(Ordering::SeqCst);
        if !done.is_multiple_of(self.window) || done == 0 {
            self.mark(done);
        }
        let mut marks = self.marks.into_inner().expect("marks poisoned");
        marks.sort_by_key(|m| m.done);
        marks
    }
}

/// The quietest quarter of a phase's windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    window: usize,
    /// Complete windows the phase had.
    pub windows: usize,
    /// Which of them were kept (window `w` covers completion ranks
    /// `w·window .. (w+1)·window`). Empty when the phase was shorter than
    /// one window: the numbers are then its totals, over all its samples.
    pub kept: Vec<usize>,
    /// Operations per second over the kept windows.
    pub ops_per_s: f64,
    /// Process CPU per operation over the kept windows, ms.
    pub cpu_ms_per_op: f64,
}

/// Picks the quietest quarter (rounded up) of the complete windows between
/// `marks` and computes the rates over it.
pub fn quiet(marks: &[Mark], window: usize) -> Quiet {
    let window = window.max(1);
    // (operations, wall seconds, CPU seconds) between two marks
    let span = |a: &Mark, b: &Mark| {
        (
            (b.done - a.done) as f64,
            b.wall_s - a.wall_s,
            b.cpu_s - a.cpu_s,
        )
    };
    let mut complete: Vec<(usize, (f64, f64, f64))> = marks
        .windows(2)
        .filter(|p| p[1].done - p[0].done == window && p[1].done % window == 0)
        .map(|p| (p[0].done / window, span(&p[0], &p[1])))
        .collect();
    let windows = complete.len();
    let (kept, (ops, wall_s, cpu_s)) = if windows == 0 {
        let total = marks
            .first()
            .zip(marks.last())
            .map_or((0.0, 0.0, 0.0), |(a, b)| span(a, b));
        (Vec::new(), total)
    } else {
        // fastest first: least wall time for the same number of operations
        complete.sort_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite"));
        complete.truncate(windows.div_ceil(4));
        let sum = complete.iter().fold((0.0, 0.0, 0.0), |acc, (_, s)| {
            (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2)
        });
        let mut kept: Vec<usize> = complete.iter().map(|(w, _)| *w).collect();
        kept.sort_unstable();
        (kept, sum)
    };
    Quiet {
        window,
        windows,
        kept,
        ops_per_s: ops / wall_s.max(1e-9),
        cpu_ms_per_op: cpu_s * 1e3 / ops.max(1.0),
    }
}

/// What one arm of an interleaved comparison costs over the other, in
/// percent. Each arm is the (kind, nanoseconds) of its operations — kind
/// being the request text, or the query whose turn a round was. The arms
/// are compared kind by kind on their median times, weighted by how often
/// the kind occurred: matching kinds keeps a slice that happened to hold
/// more expensive requests from reading as overhead, and medians keep a
/// machine stall that hit one arm from reading as overhead either.
pub fn overhead_pct(off: &[(u32, u64)], on: &[(u32, u64)]) -> f64 {
    let by_kind = |arm: &[(u32, u64)]| {
        let mut m: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for &(kind, ns) in arm {
            m.entry(kind).or_default().push(ns as f64);
        }
        m
    };
    let (off, on) = (by_kind(off), by_kind(on));
    let (mut cost_off, mut cost_on) = (0.0, 0.0);
    for (kind, a) in &off {
        if let Some(b) = on.get(kind) {
            let weight = (a.len() + b.len()) as f64;
            cost_off += weight * crate::stats::median(a);
            cost_on += weight * crate::stats::median(b);
        }
    }
    if cost_off > 0.0 {
        (cost_on - cost_off) / cost_off * 100.0
    } else {
        0.0
    }
}

impl Quiet {
    /// Percentile `p` of the samples that completed in the kept windows,
    /// in units of `per_unit` ns. `samples` are (completion rank, ns).
    pub fn percentile(&self, samples: &[(usize, u64)], p: f64, per_unit: f64) -> f64 {
        let mut pooled: Vec<f64> = samples
            .iter()
            .filter(|(rank, _)| {
                self.kept.is_empty() || self.kept.binary_search(&(rank / self.window)).is_ok()
            })
            .map(|&(_, ns)| ns as f64 / per_unit)
            .collect();
        sort(&mut pooled);
        percentile(&pooled, p)
    }

    /// Samples a percentile of the kept windows is taken over.
    pub fn samples(&self) -> usize {
        self.kept.len() * self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_drop_every_window_and_once_at_the_end() {
        let w = Windows::start(3);
        let ranks: Vec<usize> = (0..7).map(|_| w.completed()).collect();
        assert_eq!(ranks, (0..7).collect::<Vec<_>>());
        let marks = w.finish();
        assert_eq!(
            marks.iter().map(|m| m.done).collect::<Vec<_>>(),
            [0, 3, 6, 7]
        );
        assert!(marks.windows(2).all(|p| p[1].wall_s >= p[0].wall_s));
        assert_eq!(quiet(&marks, 3).windows, 2);
        let empty = Windows::start(3).finish();
        assert_eq!(empty.len(), 2);
        assert_eq!(quiet(&empty, 3).windows, 0);
    }

    #[test]
    fn excluded_work_is_off_the_clock() {
        let w = Windows::start(1);
        w.excluding(|| std::thread::sleep(std::time::Duration::from_millis(300)));
        w.completed();
        let marks = w.finish();
        assert!(marks[1].wall_s - marks[0].wall_s < 0.15, "{marks:?}");
    }

    #[test]
    fn disturbed_windows_are_left_out_of_every_number() {
        let mark = |done, wall_s, cpu_s| Mark {
            done,
            wall_s,
            cpu_s,
        };
        // five windows of 100 at 100/s; the second and fourth slowed by a
        // fifth, the third stalled outright; then a partial window
        let marks = [
            mark(0, 0.0, 0.0),
            mark(100, 1.0, 0.9),
            mark(200, 2.2, 2.0),
            mark(300, 6.2, 3.8),
            mark(400, 7.4, 4.9),
            mark(500, 8.4, 5.8),
            mark(530, 8.8, 6.1),
        ];
        let q = quiet(&marks, 100);
        assert_eq!((q.windows, q.kept.clone()), (5, vec![0, 4]));
        assert!((q.ops_per_s - 100.0).abs() < 1e-9);
        assert!((q.cpu_ms_per_op - 9.0).abs() < 1e-9);
        assert_eq!(q.samples(), 200);

        // latencies: 10 ms in the kept windows, 40 ms in the others
        let samples: Vec<(usize, u64)> = (0..530)
            .map(|rank| {
                let slow = (100..400).contains(&rank);
                (rank, if slow { 40_000_000 } else { 10_000_000 })
            })
            .collect();
        assert_eq!(q.percentile(&samples, 0.95, 1e6), 10.0);
        // pooled over the whole run, the same p95 is the stall's
        let mut pooled: Vec<f64> = samples.iter().map(|s| s.1 as f64 / 1e6).collect();
        sort(&mut pooled);
        assert_eq!(percentile(&pooled, 0.95), 40.0);
    }

    #[test]
    fn overhead_is_matched_by_kind_and_shrugs_off_a_stall() {
        // kind 0 costs 10, kind 1 costs 100; tracing adds 5 % to each.
        let mut off = vec![(0, 10_000); 9];
        off.extend(vec![(1, 100_000); 3]);
        // the traced arm happened to get more of the expensive kind, and
        // a stall tripled two of its requests
        let mut on = vec![(0, 10_500); 4];
        on.extend(vec![(1, 105_000); 7]);
        on.extend([(0, 31_500), (1, 315_000)]);
        assert!((overhead_pct(&off, &on) - 5.0).abs() < 1e-9);
        // a kind only one arm saw is left out; nothing in common is 0
        assert!((overhead_pct(&off, &[(0, 10_500)]) - 5.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&off, &[(7, 1)]), 0.0);
    }

    #[test]
    fn a_phase_shorter_than_a_window_reports_what_it_has() {
        let samples: Vec<(usize, u64)> = (0..10).map(|r| (r, (r as u64 + 1) * 1_000_000)).collect();
        let marks = [
            Mark {
                done: 0,
                wall_s: 0.0,
                cpu_s: 0.0,
            },
            Mark {
                done: 10,
                wall_s: 0.5,
                cpu_s: 0.1,
            },
        ];
        let q = quiet(&marks, 100);
        assert_eq!((q.windows, q.kept.len()), (0, 0));
        assert!((q.ops_per_s - 20.0).abs() < 1e-9 && (q.cpu_ms_per_op - 10.0).abs() < 1e-9);
        assert_eq!(q.percentile(&samples, 0.5, 1e6), 5.0);
    }
}
