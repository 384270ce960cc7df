//! End-to-end incremental maintenance over a mutating university site:
//! delta syncs must track live evaluation and the full-refresh store while
//! fetching only what changed, partial state must stay under budget and
//! backfill via upqueries, and transient failures must degrade (not
//! corrupt) a view until a rebuild recovers it.

use adm::{Relation, Value};
use matview::maintain::{full_refresh, purge_missing};
use matview::IncrementalView;
use matview::MatStore;
use nalg::{Evaluator, NalgExpr};
use websim::sitegen::{University, UniversityConfig};
use websim::{FaultPlan, FaultRule, MutationPlan, MutationRule};
use wvcore::LiveSource;

fn university(seed: u64) -> University {
    University::generate(UniversityConfig {
        departments: 4,
        professors: 8,
        courses: 10,
        seed,
        ..UniversityConfig::default()
    })
    .unwrap()
}

fn dept_expr() -> NalgExpr {
    NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .project(vec!["DeptPage.DName", "DeptPage.Address"])
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

/// Republishes the department list with its entries in reverse order:
/// the same departments, a different page.
fn republish_reordered_dept_list(u: &mut University) {
    let (url, page) = u.site.instance("DeptListPage")[0].clone();
    let mut depts = page
        .get("DeptList")
        .and_then(Value::as_list)
        .unwrap()
        .to_vec();
    depts.reverse();
    let page = adm::Tuple::new().with_list("DeptList", depts);
    u.site
        .republish("DeptListPage", url, page, "Depts")
        .unwrap();
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

/// (url, scheme, tuple, stale) for every stored page — everything except
/// `access_date`, which legitimately differs between maintenance paths
/// (each fetch stamps the server clock at its own time).
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

#[test]
fn delta_sync_tracks_live_eval_and_full_refresh() {
    let mut u = university(11);
    let ws = u.site.scheme.clone();
    let mut iv = IncrementalView::new(&ws);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    iv.register("depts", "depts", &dept_expr(), &u.site.server)
        .unwrap();
    iv.register("profs", "profs", &prof_expr(), &u.site.server)
        .unwrap();
    iv.register("courses", "courses", &course_expr(), &u.site.server)
        .unwrap();

    // the full-refresh twin, maintained across the same rounds
    let mut oracle = MatStore::new();
    oracle.materialize(&ws, &u.site.server).unwrap();

    let plan = MutationPlan::new(77)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.6))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.5))
        .with_rule(MutationRule::delete("CoursePage", 0.25));
    let mut saw_delete = false;
    for round in 0..4 {
        let mutated = plan.apply_round(&mut u.site, round).unwrap();
        saw_delete |= mutated.deleted_pages > 0;

        let rep = iv.sync(&u.site).unwrap();
        assert_eq!(
            rep.changes_seen,
            mutated.total(),
            "every mutation lands in the feed (round {round})"
        );
        assert!(
            rep.pages_fetched <= rep.changes_seen,
            "delta path fetches at most the changed pages (round {round})"
        );
        assert!(rep.failed.is_empty(), "fault-free site: {:?}", rep.failed);

        full_refresh(&mut oracle, &ws, &u.site.server).unwrap();
        assert_eq!(
            fingerprint(iv.store()),
            fingerprint(&oracle),
            "store diverged from full refresh after round {round}"
        );

        let src = LiveSource::new(&ws, &u.site.server);
        let live = Evaluator::new(&ws, &src);
        for (key, expr) in [
            ("depts", dept_expr()),
            ("profs", prof_expr()),
            ("courses", course_expr()),
        ] {
            let want = sorted(&live.eval(&expr).unwrap().relation);
            let got = iv.answer(key).expect("fault-free view never degrades");
            assert_eq!(
                got.rows().to_vec(),
                want,
                "view {key} diverged from live eval after round {round}"
            );
        }
    }
    assert!(saw_delete, "seed 77 must exercise the removal path");
}

#[test]
fn link_drops_cascade_retractions_without_refetching_targets() {
    let mut u = university(23);
    let ws = u.site.scheme.clone();
    let mut iv = IncrementalView::new(&ws);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    iv.register("depts", "depts", &dept_expr(), &u.site.server)
        .unwrap();
    let before = iv.answer("depts").unwrap().rows().len();

    let plan = MutationPlan::new(5).with_rule(MutationRule::drop_links(
        "DeptListPage",
        &["DeptList", "ToDept"],
        0.5,
    ));
    let mutated = plan.apply_round(&mut u.site, 0).unwrap();
    assert!(mutated.dropped_links > 0, "seed 5 must drop something");

    u.site.server.reset_stats();
    let rep = iv.sync(&u.site).unwrap();
    // one list page changed → one GET; the dangling targets are retracted
    // from operator state, never re-fetched
    assert_eq!(rep.pages_fetched, 1);
    assert_eq!(u.site.server.stats().gets, 1);
    assert!(rep.rows_removed > 0);

    let src = LiveSource::new(&ws, &u.site.server);
    let want = sorted(
        &Evaluator::new(&ws, &src)
            .eval(&dept_expr())
            .unwrap()
            .relation,
    );
    let got = iv.answer("depts").unwrap();
    assert_eq!(got.rows().to_vec(), want);
    assert!(got.rows().len() < before, "dropped depts leave the view");
}

#[test]
fn budgeted_store_stays_under_budget_and_upqueries_backfill() {
    let mut u = university(3);
    let ws = u.site.scheme.clone();
    let budget = 2048usize;
    let mut iv = IncrementalView::new(&ws).with_byte_budget(budget);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());

    let s = iv.store().stats();
    assert!(
        s.resident_bytes <= budget as u64,
        "{} bytes resident over budget {budget}",
        s.resident_bytes
    );
    assert!(s.skeleton_pages > 0, "a {budget}-byte budget must evict");

    // every evicted page comes back byte-identical via one upquery, and
    // the budget holds throughout
    for (url, truth) in u.site.instance("ProfPage") {
        let (tuple, scheme) = iv
            .store_mut()
            .read(&ws, &u.site.server, &url)
            .unwrap()
            .expect("live page");
        assert_eq!(*tuple, truth, "upquery must restore {url} exactly");
        assert_eq!(scheme, "ProfPage");
        assert!(iv.store().stats().resident_bytes <= budget as u64);
    }
    assert!(iv.store().stats().upqueries > 0);

    // maintenance under mutation keeps respecting the budget
    let plan = MutationPlan::new(41).with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.5));
    for round in 0..3 {
        plan.apply_round(&mut u.site, round).unwrap();
        iv.sync(&u.site).unwrap();
        assert!(iv.store().stats().resident_bytes <= budget as u64);
    }
}

#[test]
fn transient_upquery_failure_degrades_then_rebuild_recovers() {
    let mut u = university(9);
    let ws = u.site.scheme.clone();
    let mut iv = IncrementalView::new(&ws);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    iv.register("depts", "depts", &dept_expr(), &u.site.server)
        .unwrap();

    // evict every dept payload and time out only dept pages, then change
    // the entry page: the follow must read the depts back — an upquery
    // to a server that is down for them
    for (url, _) in u.site.instance("DeptPage") {
        assert!(iv.store_mut().evict(&ws, &url));
    }
    u.site.server.set_fault_plan(
        FaultPlan::new(1).with_rule(
            FaultRule::timeouts(1.0)
                .for_scheme("DeptPage")
                .with_max_per_url(None),
        ),
    );
    republish_reordered_dept_list(&mut u);
    let rep = iv.sync(&u.site).unwrap();
    assert!(!rep.failed.is_empty());
    assert!(iv.is_degraded("depts"));
    assert!(
        iv.answer("depts").is_none(),
        "a degraded view must not serve a possibly-wrong answer"
    );

    // server recovers; the next (change-free) sync retries the rebuild
    u.site.server.clear_fault_plan();
    let rep = iv.sync(&u.site).unwrap();
    assert_eq!(rep.changes_seen, 0);
    assert_eq!(rep.view_rebuilds, 1);
    assert!(!iv.is_degraded("depts"));
    assert!(iv.rebuild_count("depts") >= 1);

    let src = LiveSource::new(&ws, &u.site.server);
    let want = sorted(
        &Evaluator::new(&ws, &src)
            .eval(&dept_expr())
            .unwrap()
            .relation,
    );
    assert_eq!(iv.answer("depts").unwrap().rows().to_vec(), want);
}

/// The push engine fills `CheckMissing`; the pull engine's sweep drains it
/// on the same store, with the byte and LRU account following along.
#[test]
fn purge_on_the_views_own_store_keeps_the_byte_account_exact() {
    let mut u = university(11);
    let ws = u.site.scheme.clone();
    let budget = 4096usize;
    let mut iv = IncrementalView::new(&ws).with_byte_budget(budget);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    iv.register("courses", "courses", &course_expr(), &u.site.server)
        .unwrap();

    // deleted course pages stay linked from their professors, so the sync
    // retracts them from the view and retains them, stale, for the sweep
    let plan = MutationPlan::new(77).with_rule(MutationRule::delete("CoursePage", 0.25));
    let mutated = plan.apply_round(&mut u.site, 0).unwrap();
    assert!(mutated.deleted_pages > 0, "seed 77 must delete something");
    let rep = iv.sync(&u.site).unwrap();
    assert_eq!(rep.marked_stale, mutated.deleted_pages);
    let queued: Vec<_> = iv.store().check_missing.iter().cloned().collect();
    assert_eq!(queued.len() as u64, mutated.deleted_pages);
    assert!(queued.iter().all(|url| iv.store().knows(url)));

    let purge = purge_missing(iv.store_mut(), &u.site.server);
    assert_eq!(purge.confirmed_deleted, mutated.deleted_pages);
    assert!(queued.iter().all(|url| !iv.store().knows(url)));
    let resident: usize = iv
        .store()
        .pages_sorted()
        .iter()
        .map(|(url, p)| url.as_str().len() + p.tuple.approx_bytes())
        .sum();
    assert_eq!(iv.store().stats().resident_bytes, resident as u64);
    assert!(resident <= budget);
}

/// A maintainer over `u` as it is now, the three views registered.
fn three_views<'a>(u: &University, ws: &'a adm::WebScheme) -> IncrementalView<'a> {
    let mut iv = IncrementalView::new(ws);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    for (key, expr) in [
        ("depts", dept_expr()),
        ("profs", prof_expr()),
        ("courses", course_expr()),
    ] {
        iv.register(key, key, &expr, &u.site.server).unwrap();
    }
    iv
}

/// [`three_views`], synced once: the store's reachability invariant is
/// established (the crawl leaves it pending: one walk, nothing to drop).
fn maintained<'a>(u: &University, ws: &'a adm::WebScheme) -> IncrementalView<'a> {
    let mut iv = three_views(u, ws);
    assert_eq!(iv.sync(&u.site).unwrap().pages_dropped, 0);
    assert_eq!(iv.store().stats().sweeps, 1);
    iv
}

#[test]
fn edit_only_rounds_never_walk_the_store() {
    let mut u = university(11);
    let ws = u.site.scheme.clone();
    let mut iv = maintained(&u, &ws);
    let mut twin = MatStore::new();
    twin.materialize(&ws, &u.site.server).unwrap();

    let plan = MutationPlan::new(7)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.5))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.3))
        .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.2));
    let mut edits = 0;
    for round in 0..50 {
        edits += plan.apply_round(&mut u.site, round).unwrap().edited_pages;
        let rep = iv.sync(&u.site).unwrap();
        assert_eq!(rep.pages_dropped, 0);
    }
    assert!(edits > 100, "{edits} edits are too few to mean anything");
    // content moved, no link did: the one walk is still the only one
    assert_eq!(iv.store().stats().sweeps, 1);
    assert_eq!(
        iv.metrics().counter("store_sweeps").get(),
        1,
        "counted under the dataflow prefix, beside sync_pages_dropped"
    );
    full_refresh(&mut twin, &ws, &u.site.server).unwrap();
    assert_eq!(fingerprint(iv.store()), fingerprint(&twin));
}

#[test]
fn a_batch_that_moves_a_link_walks_once_and_drops_what_a_full_refresh_drops() {
    let mut u = university(23);
    let ws = u.site.scheme.clone();
    let mut iv = maintained(&u, &ws);
    let mut twin = MatStore::new();
    twin.materialize(&ws, &u.site.server).unwrap();

    let drop_depts = MutationPlan::new(5).with_rule(MutationRule::drop_links(
        "DeptListPage",
        &["DeptList", "ToDept"],
        0.5,
    ));
    let course = u.course_ids()[0];
    type Step<'s> = (&'s str, Box<dyn Fn(&mut University) + 's>, usize);
    // each batch, and how many pages it leaves unreachable: a department
    // off the list is still linked from its professors, a course removed
    // for good is linked from nowhere
    let steps: [Step<'_>; 3] = [
        (
            "dropped links",
            Box::new(|u| {
                assert!(
                    drop_depts
                        .apply_round(&mut u.site, 0)
                        .unwrap()
                        .dropped_links
                        > 0
                );
            }),
            0,
        ),
        (
            "a deleted page",
            Box::new(|u| u.remove_course(course).unwrap()),
            1,
        ),
        (
            "a newly linked page",
            Box::new(|u| {
                u.add_course(1, "Fall", "Seminar").unwrap();
            }),
            0,
        ),
    ];
    for (walks, (what, mutate, unreachable)) in steps.iter().enumerate() {
        mutate(&mut u);
        let rep = iv.sync(&u.site).unwrap();
        assert_eq!(
            iv.store().stats().sweeps,
            walks as u64 + 2,
            "{what}: exactly one walk for the batch"
        );
        let (_, dropped) =
            matview::maintain::full_refresh_report(&mut twin, &ws, &u.site.server).unwrap();
        assert_eq!(dropped, *unreachable, "{what}");
        assert_eq!(rep.pages_dropped, dropped as u64, "{what}");
        assert_eq!(fingerprint(iv.store()), fingerprint(&twin), "{what}");
    }
    // and a change-free sync after all that looks at nothing
    iv.sync(&u.site).unwrap();
    assert_eq!(iv.store().stats().sweeps, 4);
}

#[test]
fn an_upquery_that_returns_other_outlinks_makes_the_next_sweep_walk() {
    let mut u = university(3);
    let ws = u.site.scheme.clone();
    let mut iv = maintained(&u, &ws);
    let list = ws.entry_point("DeptListPage").unwrap().url.clone();

    // evicted and read back unchanged: the remembered outlinks are the
    // page's outlinks, the graph stands, the sweep does not look
    assert!(iv.store_mut().evict(&ws, &list));
    iv.store_mut().read(&ws, &u.site.server, &list).unwrap();
    assert_eq!(iv.store_mut().sweep_unreachable(&ws), 0);
    assert_eq!(iv.store().stats().sweeps, 1);

    // evicted, then the live page loses links behind the store's back: the
    // upquery brings back a version that links elsewhere
    assert!(iv.store_mut().evict(&ws, &list));
    let plan = MutationPlan::new(5).with_rule(MutationRule::drop_links(
        "DeptListPage",
        &["DeptList", "ToDept"],
        0.5,
    ));
    assert!(plan.apply_round(&mut u.site, 0).unwrap().dropped_links > 0);
    iv.store_mut().read(&ws, &u.site.server, &list).unwrap();
    assert_eq!(iv.store().stats().upqueries, 2);
    iv.store_mut().sweep_unreachable(&ws);
    assert_eq!(iv.store().stats().sweeps, 2, "the upquery moved the graph");
    iv.store_mut().sweep_unreachable(&ws);
    assert_eq!(iv.store().stats().sweeps, 2, "and the walk settled it");
}

#[test]
fn a_view_that_fell_behind_the_feed_refreshes_in_full_and_rejoins_its_twin() {
    let mut u = university(11);
    let ws = u.site.scheme.clone();
    let mut ahead = maintained(&u, &ws);
    // the late view is built on the same site state, cursor and all, but
    // never syncs — so it never registers, and the site trims past it
    let mut late = three_views(&u, &ws);

    let plan = MutationPlan::new(77)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.6))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.5));
    for round in 0..4 {
        assert!(plan.apply_round(&mut u.site, round).unwrap().total() > 0);
        if round == 1 {
            u.remove_course(u.course_ids()[0]).unwrap();
            u.add_course(2, "Winter", "Lab").unwrap();
        }
        ahead.sync(&u.site).unwrap();
    }
    let missed = late.cursor();
    assert!(
        u.site
            .changes_for(&websim::FeedCursor::new(missed))
            .is_err(),
        "the feed must have been trimmed past the late view"
    );

    u.site.server.reset_stats();
    let rep = late.sync(&u.site).unwrap();
    assert_eq!(rep.changes_seen, 0, "no feed entry was read");
    assert_eq!(rep.view_rebuilds, 3);
    assert_eq!(rep.pages_fetched as usize, u.site.total_pages());
    assert_eq!(u.site.server.stats().gets as usize, u.site.total_pages());
    assert_eq!(fingerprint(late.store()), fingerprint(ahead.store()));
    assert_eq!(late.cursor(), u.site.change_cursor());
    for key in ["depts", "profs", "courses"] {
        assert_eq!(
            late.answer(key).unwrap().rows(),
            ahead.answer(key).unwrap().rows(),
            "{key}"
        );
    }

    // from here on both follow the feed, and stay together
    plan.apply_round(&mut u.site, 4).unwrap();
    let (a, b) = (ahead.sync(&u.site).unwrap(), late.sync(&u.site).unwrap());
    assert!(a.changes_seen > 0);
    assert_eq!(a.changes_seen, b.changes_seen);
    assert_eq!(a.pages_fetched, b.pages_fetched);
    for key in ["depts", "profs", "courses"] {
        assert_eq!(
            late.answer(key).unwrap().rows(),
            ahead.answer(key).unwrap().rows(),
            "{key} after rejoining"
        );
    }
}

/// Multiset equality through the one row order both sides can take.
fn same_multiset(got: &Relation, want: &Relation) -> bool {
    got.columns() == want.columns() && sorted(got) == sorted(want)
}

/// A view is built by the delta rules run on *rebuild* from a fresh tree,
/// and this holds it against the independent interpreter, `nalg`'s
/// evaluator over the live site, on a store that starts with most payloads
/// evicted (so every rebuild read is a store read, many of them
/// upqueries). The two views stress the operators whose rebuild differs
/// most from their delta step: π over a ⋈ whose two sides start from the
/// same entry page (that page is read once per side), and a bare ⋈ whose
/// rows carry whole pages. The upquery count is the one the former
/// separate build interpreter made on this store: same reads, same order.
#[test]
fn a_rebuilt_view_equals_live_evaluation_with_the_same_upqueries() {
    let u = university(5);
    let ws = u.site.scheme.clone();
    let budget = 2048usize;
    let mut iv = IncrementalView::new(&ws).with_byte_budget(budget);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    assert!(iv.store().stats().skeleton_pages > 0, "the budget evicts");
    let upq_before = iv.store().stats().upqueries;

    let profs = || {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
    };
    let same_rank_courses = profs()
        .join(
            NalgExpr::entry_as("ProfListPage", "L2")
                .unnest("ProfList")
                .follow_as("ToProf", "ProfPage", "P2")
                .unnest("CourseList")
                .follow("ToCourse", "CoursePage"),
            vec![("ProfPage.Rank", "P2.Rank")],
        )
        .project(vec!["ProfPage.PName", "CoursePage.CName"]);
    let dept_profs = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .join(profs(), vec![("DeptPage.DName", "ProfPage.DName")]);
    for (key, expr) in [("pi-join", &same_rank_courses), ("join", &dept_profs)] {
        iv.register(key, key, expr, &u.site.server).unwrap();
    }
    // 42: what the separate build interpreter counted here, and what the
    // delta rules count on rebuild
    assert_eq!(iv.store().stats().upqueries - upq_before, 42);
    assert!(iv.store().stats().resident_bytes <= budget as u64);

    let src = LiveSource::new(&ws, &u.site.server);
    for (key, expr) in [("pi-join", &same_rank_courses), ("join", &dept_profs)] {
        let want = Evaluator::new(&ws, &src).eval(expr).unwrap().relation;
        let got = iv.answer(key).unwrap();
        assert!(!want.is_empty(), "{key}: the view has rows to compare");
        assert!(same_multiset(&got, &want), "{key}: {got:?} vs {want:?}");
    }
}
