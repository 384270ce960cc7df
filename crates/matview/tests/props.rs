//! Property pins for the delta path: whatever the seeded mutation
//! sequence, incremental maintenance must land on exactly the store a
//! full refresh would produce (modulo `access_date`) and exactly the
//! answers live evaluation produces — and a byte-budgeted store must
//! never exceed its budget while upqueries restore evicted pages
//! byte-identically.

use adm::{Relation, Value};
use matview::maintain::full_refresh;
use matview::IncrementalView;
use matview::MatStore;
use nalg::{Evaluator, NalgExpr};
use proptest::prelude::*;
use websim::sitegen::{University, UniversityConfig};
use websim::{MutationPlan, MutationRule};
use wvcore::LiveSource;

fn university(seed: u64) -> University {
    University::generate(UniversityConfig {
        departments: 3,
        professors: 6,
        courses: 8,
        seed,
        ..UniversityConfig::default()
    })
    .unwrap()
}

fn prof_expr() -> NalgExpr {
    NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .project(vec!["ProfPage.PName", "ProfPage.Rank", "DeptPage.DName"])
}

fn course_expr() -> NalgExpr {
    NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .unnest("CourseList")
        .follow("ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Description"])
}

/// Professors ⋈ departments on `DName`: the drawn edits reach the view
/// through both sides of the ⋈, a `Rank` from the right and an `Address`
/// from the left, and a dropped department link from the left.
fn dept_prof_expr() -> NalgExpr {
    NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .join(
            NalgExpr::entry("ProfListPage")
                .unnest("ProfList")
                .follow("ToProf", "ProfPage"),
            vec![("DeptPage.DName", "ProfPage.DName")],
        )
        .project(vec![
            "ProfPage.PName",
            "ProfPage.Rank",
            "DeptPage.DName",
            "DeptPage.Address",
        ])
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

/// Everything except `access_date` (each maintenance path stamps its
/// fetches at its own clock) — url, scheme, tuple, and stale flag.
fn fingerprint(store: &MatStore) -> Vec<(String, String, adm::Tuple, bool)> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // For ANY seeded mutation sequence — edits, deletions, link drops, at
    // any rate — the delta-maintained store matches a full refresh and
    // the maintained views match live evaluation, round after round.
    #[test]
    fn delta_path_is_equivalent_to_full_refresh(
        site_seed in 0u64..=1000,
        plan_seed in 0u64..=u64::MAX,
        edit_pct in 0u32..=100,
        delete_pct in 0u32..=60,
        drop_pct in 0u32..=50,
    ) {
        let mut u = university(site_seed);
        let ws = u.site.scheme.clone();
        let mut iv = IncrementalView::new(&ws);
        iv.materialize(&u.site.server).unwrap();
        iv.set_cursor(u.site.change_cursor());
        iv.register("profs", "profs", &prof_expr(), &u.site.server).unwrap();
        iv.register("courses", "courses", &course_expr(), &u.site.server).unwrap();
        iv.register("dept-profs", "dept-profs", &dept_prof_expr(), &u.site.server).unwrap();

        let mut oracle = MatStore::new();
        oracle.materialize(&ws, &u.site.server).unwrap();

        let plan = MutationPlan::new(plan_seed)
            .with_rule(MutationRule::edit_attr(
                "ProfPage", "Rank", f64::from(edit_pct) / 100.0,
            ))
            .with_rule(MutationRule::edit_attr(
                "DeptPage", "Address", f64::from(edit_pct) / 100.0,
            ))
            .with_rule(MutationRule::delete(
                "CoursePage", f64::from(delete_pct) / 100.0,
            ))
            .with_rule(MutationRule::drop_links(
                "DeptListPage", &["DeptList", "ToDept"], f64::from(drop_pct) / 100.0,
            ));

        for round in 0..3u64 {
            plan.apply_round(&mut u.site, round).unwrap();
            let rep = iv.sync(&u.site).unwrap();
            prop_assert!(rep.failed.is_empty(), "fault-free: {:?}", rep.failed);

            full_refresh(&mut oracle, &ws, &u.site.server).unwrap();
            prop_assert_eq!(fingerprint(iv.store()), fingerprint(&oracle));

            let src = LiveSource::new(&ws, &u.site.server);
            let live = Evaluator::new(&ws, &src);
            let views = [
                ("profs", prof_expr()),
                ("courses", course_expr()),
                ("dept-profs", dept_prof_expr()),
            ];
            for (key, expr) in views {
                let want = sorted(&live.eval(&expr).unwrap().relation);
                let got = iv.answer(key).expect("fault-free views never degrade");
                prop_assert_eq!(got.rows().to_vec(), want, "view {} round {}", key, round);
            }
        }
    }

    // A byte budget is an invariant, not a hint: whatever the budget and
    // mutation seed, residency never exceeds it, and every evicted page
    // an upquery brings back is byte-identical to the server's truth.
    #[test]
    fn budgeted_eviction_round_trips_through_upqueries(
        budget in 512usize..8192,
        plan_seed in 0u64..=u64::MAX,
    ) {
        let mut u = university(7);
        let ws = u.site.scheme.clone();
        let mut iv = IncrementalView::new(&ws).with_byte_budget(budget);
        iv.materialize(&u.site.server).unwrap();
        iv.set_cursor(u.site.change_cursor());
        prop_assert!(iv.store().stats().resident_bytes <= budget as u64);

        let plan = MutationPlan::new(plan_seed)
            .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.5))
            .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.4));
        for round in 0..2u64 {
            plan.apply_round(&mut u.site, round).unwrap();
            iv.sync(&u.site).unwrap();
            prop_assert!(
                iv.store().stats().resident_bytes <= budget as u64,
                "over budget after sync round {}", round,
            );
        }

        // Read back every live page: evicted ones upquery, and all of
        // them come back exactly as the server holds them.
        for scheme in ["DeptPage", "ProfPage", "CoursePage"] {
            for (url, truth) in u.site.instance(scheme) {
                let (tuple, got_scheme) = iv
                    .store_mut()
                    .read(&ws, &u.site.server, &url)
                    .unwrap()
                    .expect("published page");
                prop_assert_eq!(&*tuple, &truth, "upquery must restore {} exactly", url);
                prop_assert_eq!(got_scheme.as_str(), scheme);
                prop_assert!(iv.store().stats().resident_bytes <= budget as u64);
            }
        }
        prop_assert!(iv.store().stats().upqueries > 0, "a small budget must upquery");
    }
}
