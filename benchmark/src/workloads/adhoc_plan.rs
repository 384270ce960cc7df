//! `adhoc_plan` — every request is a query the server has not planned
//! lately, so rule 1–9 enumeration does the work.
//!
//! Paper-scale site (3 departments, 20 professors, 50 courses, 80 pages),
//! one closed-loop client, zero simulated latency. A five-slot cycle of
//! four templates — A1 one atom, A2 two atoms, A3 three atoms (twice), A4
//! four atoms — with constants from the generator's ground truth: 280
//! distinct cache keys against a 64-plan cache, each template walking its
//! pool in seeded order, so no key returns before at least 99 others have
//! been planned and every request is a plan miss. The 1:1:2:1 mix keeps
//! the median inside A3's mass and the tail inside A4's.

use super::serving::{self, Env, Mix, Spec};
use super::{Outcome, RunCfg};
use crate::api::UniversityConfig;
use crate::schedule::TemplateCycle;
use std::time::Duration;

/// Template of each slot of the request cycle.
const SLOTS: [usize; 5] = [0, 1, 2, 2, 3];

/// Requests served before timing: the ones the schedule asks for last, so
/// none of their plans is still cached when its turn comes.
const WARM_REQUESTS: usize = 10;

fn quoted(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// The 280 request texts, pool after pool, and the size of each pool.
fn texts(env: &Env) -> (Vec<String>, [usize; 4]) {
    let uni = &env.uni;
    let courses: Vec<String> = uni.expected_course().into_iter().map(|c| c.0).collect();
    let profs: Vec<String> = uni.expected_professor().into_iter().map(|p| p.0).collect();
    let depts: Vec<String> = uni.expected_dept().into_iter().map(|d| d.0).collect();
    let sessions = &uni.config().sessions;
    let mut sql = Vec::new();
    // A1 — one atom: a course by name.
    for c in &courses {
        sql.push(format!(
            "SELECT CName, Description FROM Course WHERE CName = {}",
            quoted(c)
        ));
    }
    // A2 — two atoms: a professor and their department.
    for p in &profs {
        sql.push(format!(
            "SELECT p.PName, p.Email, d.DName FROM Professor p, ProfDept d \
             WHERE p.PName = d.PName AND p.PName = {}",
            quoted(p)
        ));
    }
    // A3 — three atoms, the shape of Example 7.1: a professor's courses in
    // one session.
    for p in &profs {
        for s in sessions {
            sql.push(format!(
                "SELECT c.CName, c.Description FROM Professor p, CourseInstructor i, Course c \
                 WHERE p.PName = i.PName AND i.CName = c.CName AND p.PName = {} AND c.Session = {}",
                quoted(p),
                quoted(s)
            ));
        }
    }
    // A4 — four atoms, the shape of Example 7.2: who in a department
    // teaches a given course.
    for d in &depts {
        for c in &courses {
            sql.push(format!(
                "SELECT p.PName, p.Email FROM Course c, CourseInstructor i, Professor p, ProfDept d \
                 WHERE c.CName = i.CName AND i.PName = p.PName AND p.PName = d.PName \
                 AND d.DName = {} AND c.CName = {}",
                quoted(d),
                quoted(c)
            ));
        }
    }
    let pools = [
        courses.len(),
        profs.len(),
        profs.len() * sessions.len(),
        depts.len() * courses.len(),
    ];
    (sql, pools)
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    let spec = Spec {
        site: UniversityConfig::default(),
        clients: 1,
        get_latency: Duration::ZERO,
        overlap: None,
        open: None,
        price_product_trace: false,
        setup_reps: 7,
        window: 100,
    };
    serving::run(
        &spec,
        |env| {
            let (sql, pools) = texts(env);
            let cycle = TemplateCycle::new(cfg.seed, &SLOTS, &pools);
            let full_cycle = cycle.full_cycle();
            let warm = (full_cycle - WARM_REQUESTS..full_cycle)
                .map(|i| cycle.at(i))
                .collect();
            Mix {
                sql,
                at: Box::new(move |i| cycle.at(i)),
                full_cycle,
                warm,
            }
        },
        cfg,
    )
}
