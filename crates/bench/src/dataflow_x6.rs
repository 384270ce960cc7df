//! X6 (extension) — incremental view maintenance vs. full refresh.
//!
//! The paper's E5 already shows when a *stored* view beats re-navigation;
//! X6 measures how cheaply the store can be kept fresh. Three twin sites
//! are generated from one seed and mutated by one seeded [`MutationPlan`]
//! — so all three serve byte-identical content every round — and three
//! maintenance strategies race over them:
//!
//! * **delta** — [`matview::IncrementalView`]: drain the change feed,
//!   fetch only changed pages, propagate ± deltas through the operator
//!   tree (unbudgeted);
//! * **full refresh** — [`matview::maintain::full_refresh`]: re-crawl the
//!   site from its entry points every round (the E5 baseline);
//! * **budgeted delta** — the same delta path under a byte budget, where
//!   evicted pages come back through targeted upqueries.
//!
//! Every table cell is a deterministic counter (no wall-clock): the same
//! seeds produce the same table on every machine, which is what lets
//! `tests/golden.rs` pin it cell for cell. The
//! `x6_delta_dominates_refresh_with_equal_answers` test asserts the delta
//! path fetched **strictly** fewer pages than full refresh while producing
//! the same store (modulo `access_date`) and the same answers as live
//! evaluation, and that the budgeted twin never exceeded its budget while
//! backfilling evicted pages byte-identically.

use crate::table::Table;
use adm::{Relation, Tuple, Value};
use matview::maintain::full_refresh;
use matview::{IncrementalView, MatStore};
use nalg::{Evaluator, NalgExpr};
use websim::sitegen::{University, UniversityConfig};
use websim::{MutationPlan, MutationRule};
use wvcore::LiveSource;

/// Knobs of the X6 run. `Default` is the full benchmark scale; the
/// tests run a reduced copy.
#[derive(Debug, Clone)]
pub struct DataflowConfig {
    /// Seed of the three twin sites.
    pub site_seed: u64,
    /// Seed of the mutation plan applied identically to every twin.
    pub plan_seed: u64,
    /// Mutation/maintenance rounds.
    pub rounds: u64,
    /// Byte budget of the budgeted twin's partial store.
    pub budget: usize,
    /// Site scale.
    pub departments: usize,
    /// Site scale.
    pub professors: usize,
    /// Site scale.
    pub courses: usize,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            site_seed: 17,
            plan_seed: 0xD17A,
            rounds: 4,
            budget: 4096,
            departments: 4,
            professors: 10,
            courses: 16,
        }
    }
}

/// Output of the X6 run (see [`x6_dataflow`]).
pub struct DataflowSmoke {
    /// One row per round plus a Σ totals row.
    pub table: Table,
    /// Total delta-path page accesses (GET + HEAD) across all rounds.
    pub delta_accesses: u64,
    /// Total full-refresh page accesses (GET + HEAD) across all rounds.
    pub refresh_accesses: u64,
    /// Every maintained view matched live evaluation every round.
    pub answers_match: bool,
    /// The delta store matched the full-refresh store (modulo
    /// `access_date`) every round.
    pub store_equivalent: bool,
    /// The budgeted twin never exceeded its byte budget.
    pub budget_held: bool,
    /// Every evicted page read back byte-identical to the server.
    pub backfill_identical: bool,
    /// Upqueries issued by the budgeted twin.
    pub upqueries: u64,
}

fn views() -> Vec<(&'static str, NalgExpr)> {
    vec![
        (
            "depts",
            NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .follow("ToDept", "DeptPage")
                .project(vec!["DeptPage.DName", "DeptPage.Address"]),
        ),
        (
            "profs",
            NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .follow("ToDept", "DeptPage")
                .unnest("ProfList")
                .follow("ToProf", "ProfPage")
                .project(vec!["ProfPage.PName", "ProfPage.Rank", "DeptPage.DName"]),
        ),
        (
            "courses",
            NalgExpr::entry("ProfListPage")
                .unnest("ProfList")
                .follow("ToProf", "ProfPage")
                .unnest("CourseList")
                .follow("ToCourse", "CoursePage")
                .project(vec!["CoursePage.CName", "CoursePage.Description"]),
        ),
    ]
}

fn sorted(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows = rel.rows().to_vec();
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

/// Everything except `access_date`, which legitimately differs between
/// maintenance paths (each stamps its fetches at its own clock).
fn fingerprint(store: &MatStore) -> Vec<(String, String, Tuple, bool)> {
    store
        .pages_sorted()
        .into_iter()
        .map(|(u, p)| {
            (
                u.as_str().to_string(),
                p.scheme.clone(),
                (*p.tuple).clone(),
                p.stale,
            )
        })
        .collect()
}

/// X6 — see the module docs. Returns the per-round table plus the
/// verdicts its test asserts.
pub fn x6_dataflow(cfg: &DataflowConfig) -> DataflowSmoke {
    let mk = || {
        University::generate(UniversityConfig {
            departments: cfg.departments,
            professors: cfg.professors,
            courses: cfg.courses,
            seed: cfg.site_seed,
            ..UniversityConfig::default()
        })
        .expect("site")
    };
    // Three identical twins: one per maintenance strategy, so each
    // strategy's GET/HEAD counters are isolated.
    let mut ud = mk(); // delta
    let mut ur = mk(); // full refresh
    let mut ub = mk(); // budgeted delta
    let ws = ud.site.scheme.clone();

    let mut iv = IncrementalView::new(&ws);
    iv.materialize(&ud.site.server).expect("materialize");
    iv.set_cursor(ud.site.change_cursor());
    for (key, expr) in &views() {
        iv.register(*key, *key, expr, &ud.site.server)
            .expect("register");
    }

    let mut mat = MatStore::new();
    mat.materialize(&ws, &ur.site.server).expect("materialize");

    let mut bv = IncrementalView::new(&ws).with_byte_budget(cfg.budget);
    bv.materialize(&ub.site.server).expect("materialize");
    bv.set_cursor(ub.site.change_cursor());

    let plan = MutationPlan::new(cfg.plan_seed)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.5))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.4))
        .with_rule(MutationRule::delete("CoursePage", 0.2))
        .with_rule(MutationRule::drop_links(
            "DeptListPage",
            &["DeptList", "ToDept"],
            0.15,
        ));

    let mut t = Table::new(
        "X6 — incremental maintenance: delta propagation vs full refresh",
        vec![
            "round",
            "changes",
            "Δ fetches",
            "refresh fetches",
            "rows +",
            "rows −",
            "answers",
            "store",
        ],
    );

    let mut delta_accesses = 0u64;
    let mut refresh_accesses = 0u64;
    let mut changes_total = 0u64;
    let (mut rows_added, mut rows_removed) = (0u64, 0u64);
    let mut answers_match = true;
    let mut store_equivalent = true;
    let mut budget_held = bv.store().stats().resident_bytes <= cfg.budget as u64;

    for round in 0..cfg.rounds {
        // One seeded plan, three identical sites → identical mutations.
        let m = plan.apply_round(&mut ud.site, round).expect("mutate");
        let mr = plan.apply_round(&mut ur.site, round).expect("mutate");
        let mb = plan.apply_round(&mut ub.site, round).expect("mutate");
        assert_eq!(
            (m.total(), m.total()),
            (mr.total(), mb.total()),
            "twins diverged"
        );

        ud.site.server.reset_stats();
        let rep = iv.sync(&ud.site).expect("delta sync");
        let ds = ud.site.server.stats();
        let d_round = ds.gets + ds.heads;

        ur.site.server.reset_stats();
        full_refresh(&mut mat, &ws, &ur.site.server).expect("full refresh");
        let rs = ur.site.server.stats();
        let r_round = rs.gets + rs.heads;

        bv.sync(&ub.site).expect("budgeted sync");
        budget_held &= bv.store().stats().resident_bytes <= cfg.budget as u64;

        let round_store_ok = fingerprint(iv.store()) == fingerprint(&mat);
        store_equivalent &= round_store_ok;

        let src = LiveSource::new(&ws, &ud.site.server);
        let live = Evaluator::new(&ws, &src);
        let mut round_answers_ok = true;
        for (key, expr) in &views() {
            let want = sorted(&live.eval(expr).expect("live eval").relation);
            let got = iv.answer(key).map(|r| r.rows().to_vec());
            round_answers_ok &= got.as_deref() == Some(&want[..]);
        }
        answers_match &= round_answers_ok;

        delta_accesses += d_round;
        refresh_accesses += r_round;
        changes_total += rep.changes_seen;
        rows_added += rep.rows_added;
        rows_removed += rep.rows_removed;
        t.row(vec![
            round.to_string(),
            rep.changes_seen.to_string(),
            d_round.to_string(),
            r_round.to_string(),
            rep.rows_added.to_string(),
            rep.rows_removed.to_string(),
            if round_answers_ok { "=" } else { "DIVERGED" }.to_string(),
            if round_store_ok { "=" } else { "DIVERGED" }.to_string(),
        ]);
    }
    t.row(vec![
        "Σ".to_string(),
        changes_total.to_string(),
        delta_accesses.to_string(),
        refresh_accesses.to_string(),
        rows_added.to_string(),
        rows_removed.to_string(),
        if answers_match { "=" } else { "DIVERGED" }.to_string(),
        if store_equivalent { "=" } else { "DIVERGED" }.to_string(),
    ]);

    // Backfill: after all rounds, read every live page through the
    // budgeted store — evicted ones must upquery back byte-identical,
    // with the budget held throughout.
    let mut backfill_identical = true;
    for scheme in [
        "DeptListPage",
        "DeptPage",
        "ProfListPage",
        "ProfPage",
        "CoursePage",
    ] {
        for (url, truth) in ub.site.instance(scheme) {
            match bv.store_mut().read(&ws, &ub.site.server, &url) {
                Ok(Some((tuple, s))) => {
                    backfill_identical &= *tuple == truth && s == scheme;
                }
                _ => backfill_identical = false,
            }
            budget_held &= bv.store().stats().resident_bytes <= cfg.budget as u64;
        }
    }
    DataflowSmoke {
        table: t,
        delta_accesses,
        refresh_accesses,
        answers_match,
        store_equivalent,
        budget_held,
        backfill_identical,
        upqueries: bv.store().stats().upqueries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x6_delta_dominates_refresh_with_equal_answers() {
        let cfg = DataflowConfig {
            rounds: 3,
            departments: 3,
            professors: 6,
            courses: 8,
            budget: 2048,
            ..DataflowConfig::default()
        };
        let smoke = x6_dataflow(&cfg);
        assert_eq!(smoke.table.rows.len(), 4, "3 rounds + Σ");
        assert!(
            smoke.delta_accesses < smoke.refresh_accesses,
            "delta ({}) must strictly beat refresh ({})",
            smoke.delta_accesses,
            smoke.refresh_accesses
        );
        assert!(smoke.answers_match, "views must match live evaluation");
        assert!(smoke.store_equivalent, "store must match full refresh");
        assert!(smoke.budget_held, "byte budget is an invariant");
        assert!(
            smoke.backfill_identical,
            "upqueries must restore pages exactly"
        );
        assert!(smoke.upqueries > 0, "a 2 KiB budget must upquery");
    }

    #[test]
    fn x6_is_deterministic_across_runs() {
        let cfg = DataflowConfig {
            rounds: 2,
            departments: 2,
            professors: 4,
            courses: 6,
            ..DataflowConfig::default()
        };
        let a = x6_dataflow(&cfg);
        let b = x6_dataflow(&cfg);
        assert_eq!(a.table.rows, b.table.rows, "X6 cells must be seed-pure");
    }
}
