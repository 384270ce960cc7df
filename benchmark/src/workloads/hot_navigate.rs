//! `hot_navigate` — the paper's virtual-view regime with the network taken
//! away: seven popular queries over a warm plan cache, no page cache, zero
//! latency, so every request re-downloads and re-wraps 11–354 pages and
//! websim, wrapper and nalg do the work while planning is a cache hit.
//!
//! End-to-end: a closed loop of two clients. The traced run adds an open
//! loop — independent users — at a fixed 120 requests per second, about
//! half the closed-loop capacity of the seed commit, with a 50 ms latency
//! limit, each request timed from when it was due.

use super::serving::{self, Mix, Spec};
use super::{medium_site, Outcome, RunCfg};
use crate::schedule::ZipfCycles;
use std::time::Duration;

/// The seven university queries of E4/E6, owned here as SQL. Their order
/// is their popularity rank.
pub const QUERIES: [&str; 7] = [
    "SELECT PName FROM Professor WHERE Rank = 'Full'",
    "SELECT p.PName, p.Email FROM Professor p, ProfDept d \
     WHERE p.PName = d.PName AND d.DName = 'Computer Science'",
    "SELECT c.CName, c.Description FROM Professor p, CourseInstructor i, Course c \
     WHERE p.PName = i.PName AND i.CName = c.CName AND p.Rank = 'Full' AND c.Session = 'Fall'",
    "SELECT p.PName, p.Email FROM Course c, CourseInstructor i, Professor p, ProfDept d \
     WHERE c.CName = i.CName AND i.PName = p.PName AND p.PName = d.PName \
     AND d.DName = 'Computer Science' AND c.Type = 'Graduate'",
    "SELECT CName, Description FROM Course WHERE Session = 'Fall' AND Type = 'Graduate'",
    "SELECT PName, CName FROM CourseInstructor",
    "SELECT DName, Address FROM Dept",
];

/// Zipf exponent of the popularity skew.
pub const ZIPF_S: f64 = 1.1;

/// Requests per schedule cycle; each cycle holds every query exactly its
/// Zipf share of this many times.
pub const CYCLE: usize = 100;

/// The hot mix, shared with `net_overlap`.
pub fn mix(seed: u64) -> Mix {
    let cycles = ZipfCycles::new(seed, QUERIES.len(), CYCLE, ZIPF_S);
    Mix {
        sql: QUERIES.iter().map(|s| s.to_string()).collect(),
        full_cycle: cycles.cycle(),
        at: Box::new(move |i| cycles.at(i)),
        warm: (0..QUERIES.len()).collect(),
    }
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let spec = Spec {
        site: medium_site(),
        clients: 2,
        get_latency: Duration::ZERO,
        overlap: None,
        open: Some((120.0, 2, 50.0)),
        price_product_trace: true,
        setup_reps: 5,
        window: CYCLE,
    };
    serving::run(&spec, |_| mix(cfg.seed), cfg)
}
