//! The four workloads and what they share: run budgets, process counters,
//! repeated set-up, and the metric map each run fills.

pub mod adhoc_plan;
pub mod hot_navigate;
pub mod net_overlap;
pub mod serving;
pub mod view_maintain;
pub mod windows;

use crate::api::UniversityConfig;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in ledger order. Stable: later issues cite them.
pub const NAMES: [&str; 4] = ["adhoc_plan", "hot_navigate", "net_overlap", "view_maintain"];

/// The site every workload but `adhoc_plan` runs on: 10 departments, 200
/// professors, 1 000 courses, 1 217 pages.
///
/// The site seed is fixed, not drawn from `--seed`: two generated sites of
/// one size differ by several percent in pages per query, which is more
/// than the regression bound, and `page_accesses_per_req` could not be an
/// exact count. `--seed` drives what is asked and when — schedule order,
/// constants, the mutation plan — never what the site holds.
pub fn medium_site() -> UniversityConfig {
    UniversityConfig {
        departments: 10,
        professors: 200,
        courses: 1_000,
        ..UniversityConfig::default()
    }
}

/// How long a phase runs: for a wall-clock time (the driver's `--seconds`)
/// or for a fixed number of operations (`--ops`, which makes every count
/// repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Seconds(f64),
    Ops(usize),
}

impl Budget {
    /// `num/den` of this budget, at least one operation or a millisecond.
    pub fn part(self, num: usize, den: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds((s * num as f64 / den as f64).max(0.001)),
            Budget::Ops(n) => Budget::Ops((n * num / den).max(1)),
        }
    }

    /// The stop condition of a phase that starts now.
    pub fn start(self) -> Stop {
        match self {
            Budget::Seconds(s) => Stop::At(Instant::now() + Duration::from_secs_f64(s)),
            Budget::Ops(n) => Stop::After(n),
        }
    }
}

/// When a phase ends: at an instant, or after so many operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(usize),
}

impl Stop {
    /// True when operation number `done` (0-based, within the phase) must
    /// not start.
    pub fn reached(&self, done: usize) -> bool {
        match *self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => done >= n,
        }
    }
}

/// One run's request: which seed, how long, traced or not.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value. End-to-end names on an untraced run, per-layer
    /// names on a traced one; `main` checks the set against the registry.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other context, printed above the metrics.
    pub notes: Vec<String>,
    /// Spans of the traced pass (empty on untraced runs).
    pub spans: Vec<crate::spans::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: RunCfg) -> Result<Outcome, String> {
    match name {
        "adhoc_plan" => adhoc_plan::run(cfg),
        "hot_navigate" => hot_navigate::run(cfg),
        "net_overlap" => net_overlap::run(cfg),
        "view_maintain" => view_maintain::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {NAMES:?})"
        )),
    }
}

/// Times `setup` `reps` times, keeps the last result, and returns the
/// median time: one set-up of a few hundred milliseconds is too noisy to
/// gate on.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        crate::stats::median(&times),
    )
}

/// User + system CPU seconds of this process so far, all threads
/// (`/proc/self/stat`, in `USER_HZ` = 100 ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, so the 12th and 13th after it.
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / 100.0
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_split_and_stop() {
        assert_eq!(Budget::Ops(100).part(1, 4), Budget::Ops(25));
        assert_eq!(Budget::Ops(2).part(1, 4), Budget::Ops(1));
        assert_eq!(Budget::Seconds(8.0).part(1, 4), Budget::Seconds(2.0));
        let stop = Budget::Ops(3).start();
        assert!(!stop.reached(2) && stop.reached(3));
    }

    #[test]
    fn process_counters_read_something() {
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(std::hint::black_box(x) != 1);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn repeated_setup_reports_a_median_and_keeps_the_last() {
        let mut n = 0;
        let (last, median) = repeated_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(median >= 0.0);
    }
}
