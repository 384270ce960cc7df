//! Materialized views over a *drifted* site.
//!
//! Constraint drift rewrites replicated attributes on live pages. A
//! materialized view must never keep serving those values as if they were
//! fresh: the URL-check protocol re-downloads changed pages while
//! answering, the off-line audit flags the rest, and when a re-download
//! fails the affected tuple is retained **marked stale** rather than
//! silently passed off as current.
//!
//! The store also remembers the plans it answered with. The second half
//! of this file pins that memory as invisible where a drawn history does
//! not reach: a plan is never handed to a session that would not have
//! chosen it, and recollected statistics or a second catalog plan for
//! themselves. (That a store that remembers answers exactly like one that
//! does not, over drawn sites and mutation rounds, is the seeded
//! simulation's: the facade's `tests/sim.rs`.)
//!
//! The last part pins the sharing of pages and answers as invisible too:
//! whoever holds a page hands out a reference to its own copy, what a
//! reader keeps stays what it was handed whatever the store, the cache and
//! the views do next, and only an attested page reaches the shared cache.

use adm::{Relation, Tuple, Url, Value};
use matview::maintain::{audit, full_refresh};
use matview::urlcheck::{url_check, CheckCounters};
use matview::{IncrementalView, MatSession, MatStore};
use nalg::{EvalPolicy, Evaluator, NalgExpr, SharedPageCache};
use std::sync::Arc;
use websim::mutation::{MutationPlan, MutationRule};
use websim::sitegen::{University, UniversityConfig};
use websim::Site;
use wvcore::views::university_catalog;
use wvcore::{
    ConjunctiveQuery, ExecPolicy, ExternalRelation, LiveSource, PlanCache, QuerySession, RuleMask,
    SiteStatistics, ViewCatalog,
};

fn setup() -> (University, MatStore, SiteStatistics, ViewCatalog) {
    let u = University::generate(UniversityConfig {
        departments: 4,
        professors: 8,
        courses: 10,
        seed: 21,
        ..UniversityConfig::default()
    })
    .unwrap();
    let mut store = MatStore::new();
    store.materialize(&u.site.scheme, &u.site.server).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    u.site.server.reset_stats();
    (u, store, stats, university_catalog())
}

/// Projects Address too, so every DeptPage must actually be consulted —
/// DName alone could be answered from its replicated copy on the list page.
fn dept_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("depts")
        .atom("Dept")
        .project((0, "DName"))
        .project((0, "Address"))
}

/// Drift is one mutation round at `u64::MAX`.
fn dept_drift(u: &mut University) -> websim::MutationReport {
    MutationPlan::new(3)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", 0.5))
        .apply_round(&mut u.site, u64::MAX)
        .unwrap()
}

#[test]
fn queries_refetch_drifted_pages_and_answer_fresh() {
    let (mut u, mut store, stats, catalog) = setup();
    let report = dept_drift(&mut u);
    assert!(report.edited_pages >= 1, "seed 3 must drift something");
    u.site.server.reset_stats();

    let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
    let out = session.run(&mut store, &dept_query()).unwrap();
    // exactly the drifted pages are re-downloaded, nothing else
    assert_eq!(out.counters.downloads, report.edited_pages);
    // the answer carries the drifted values, not the materialized ones
    let drifted_rows = out
        .relation
        .rows()
        .iter()
        .filter(|r| r[0].as_text().is_some_and(|s| s.contains("[edit")))
        .count() as u64;
    assert_eq!(drifted_rows, report.edited_pages);
    // and agrees exactly with the drifted site's ground truth
    let mut expected: Vec<String> = u
        .site
        .instance("DeptPage")
        .iter()
        .map(|(_, t)| t.get("DName").unwrap().as_text().unwrap().to_string())
        .collect();
    let mut got: Vec<String> = out
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    expected.sort();
    got.sort();
    assert_eq!(got, expected);
    // the store was maintained as a side effect: nothing is stale now
    assert_eq!(store.stale_count(), 0);
}

#[test]
fn audit_flags_drift_until_full_refresh() {
    let (mut u, mut store, _stats, _catalog) = setup();
    let report = dept_drift(&mut u);
    let diffs = audit(&store, u.site.all_pages());
    assert_eq!(diffs.len() as u64, report.edited_pages);
    assert!(diffs.iter().all(|d| d.starts_with("stale:")));
    full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
    assert!(audit(&store, u.site.all_pages()).is_empty());
    // the refreshed store holds the drifted values
    let marked = u
        .site
        .instance("DeptPage")
        .iter()
        .filter(|(url, _)| {
            store
                .get(url)
                .and_then(|p| p.tuple.get("DName"))
                .and_then(|v| v.as_text())
                .is_some_and(|s| s.contains("[edit"))
        })
        .count() as u64;
    assert_eq!(marked, report.edited_pages);
}

#[test]
fn outage_serves_old_values_but_marks_them_stale() {
    let (mut u, mut store, stats, catalog) = setup();
    let report = dept_drift(&mut u);
    // total outage: the drifted pages cannot be re-downloaded
    u.site.server.set_fault_plan(
        websim::FaultPlan::new(4)
            .with_rule(websim::FaultRule::unavailable(1.0).with_max_per_url(None)),
    );
    let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
    let out = session.run(&mut store, &dept_query()).unwrap();
    // the old values are served — but flagged, never passed off as fresh
    assert!(out
        .relation
        .rows()
        .iter()
        .all(|r| !r[0].as_text().unwrap().contains("[edit")));
    assert!(out.counters.stale_served > 0);
    assert_eq!(out.counters.downloads, 0);
    assert!(store.stale_count() > 0, "served tuples are marked stale");
    // once the outage clears, the next query repairs the drifted pages
    u.site.server.clear_fault_plan();
    store.reset_status();
    let out = session.run(&mut store, &dept_query()).unwrap();
    assert_eq!(out.counters.downloads, report.edited_pages);
    let drifted_rows = out
        .relation
        .rows()
        .iter()
        .filter(|r| r[0].as_text().is_some_and(|s| s.contains("[edit")))
        .count() as u64;
    assert_eq!(drifted_rows, report.edited_pages);
}

#[test]
fn failed_redownload_is_marked_stale_not_kept_wrong() {
    let (mut u, mut store, _stats, _catalog) = setup();
    // drift every course's replicated CName
    let report = MutationPlan::new(7)
        .with_rule(MutationRule::edit_attr("CoursePage", "CName", 1.0))
        .apply_round(&mut u.site, u64::MAX)
        .unwrap();
    assert_eq!(report.edited_pages, 10);
    // one drifted page is unreachable during the refresh
    let victim = University::course_url(2);
    u.site.server.set_fault_plan(
        websim::FaultPlan::new(6).with_rule(
            websim::FaultRule::timeouts(1.0)
                .for_url_prefix(victim.as_str())
                .with_max_per_url(None),
        ),
    );
    let n = full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
    assert_eq!(n, u.site.total_pages() - 1);
    // the victim still holds the pre-drift value — but is flagged stale
    let kept = store.get(&victim).expect("retained through the outage");
    assert!(!kept
        .tuple
        .get("CName")
        .unwrap()
        .as_text()
        .unwrap()
        .contains("[edit"));
    assert!(store.is_stale(&victim));
    // the audit agrees: exactly the victim is inconsistent
    let diffs = audit(&store, u.site.all_pages());
    assert_eq!(diffs.len(), 1);
    assert!(diffs[0].contains(victim.as_str()));
    // a clean refresh completes the repair
    u.site.server.clear_fault_plan();
    full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
    assert!(!store.is_stale(&victim));
    assert!(store
        .get(&victim)
        .unwrap()
        .tuple
        .get("CName")
        .unwrap()
        .as_text()
        .unwrap()
        .contains("[edit"));
    assert!(audit(&store, u.site.all_pages()).is_empty());
}

// ---------------------------------------------------------------------
// A store that remembers its plans ≡ a store that does not over drawn
// sites, queries and mutation rounds is the facade's `tests/sim.rs`.
// ---------------------------------------------------------------------

fn grad_courses() -> ConjunctiveQuery {
    ConjunctiveQuery::new("graduate courses")
        .atom("Course")
        .select((0, "Type"), "Graduate")
        .project((0, "CName"))
}

/// Rule 6 pushes this selection below the link to the department page, so
/// the full rule mask and the empty one choose different plans for it.
fn cs_address() -> ConjunctiveQuery {
    ConjunctiveQuery::new("cs-dept")
        .atom("Dept")
        .select((0, "DName"), "Computer Science")
        .project((0, "Address"))
}

#[test]
fn a_plan_is_never_handed_to_a_session_with_another_rule_mask() {
    let (u, mut store, stats, catalog) = setup();
    let session = |mask| {
        MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server).with_policy(&ExecPolicy {
            mask,
            ..Default::default()
        })
    };
    let planned = |mask| {
        session(mask)
            .run(&mut store.clone(), &cs_address())
            .unwrap()
            .explain
            .best()
            .expr
            .clone()
    };
    let (optimized, naive) = (planned(RuleMask::all()), planned(RuleMask::none()));
    assert_ne!(
        optimized, naive,
        "the masks must disagree for this to pin anything"
    );
    for (mask, want) in [
        (RuleMask::all(), &optimized),
        (RuleMask::none(), &naive),
        (RuleMask::all(), &optimized),
    ] {
        let out = session(mask).run(&mut store, &cs_address()).unwrap();
        assert_eq!(&out.explain.best().expr, want);
    }
    let cache = store.plan_cache().stats();
    assert_eq!(
        (cache.hits, cache.misses),
        (0, 3),
        "each mask change re-plans"
    );
    // The same mask again is a hit.
    session(RuleMask::all())
        .run(&mut store, &cs_address())
        .unwrap();
    assert_eq!(store.plan_cache().stats().hits, 1);
}

#[test]
fn recollected_statistics_hit_when_equal_and_replan_when_not() {
    let (u, mut store, stats, catalog) = setup();
    let run = |store: &mut MatStore, stats: &SiteStatistics| {
        MatSession::new(&u.site.scheme, &catalog, stats, &u.site.server)
            .run(store, &grad_courses())
            .unwrap()
    };
    run(&mut store, &stats);
    // Collected again from the unchanged site: another value at another
    // address, equal content — the plan stands.
    let again = SiteStatistics::from_site(&u.site);
    assert_eq!(again, stats);
    run(&mut store, &again);
    let cache = store.plan_cache().stats();
    assert_eq!((cache.hits, cache.misses, cache.invalidations), (1, 1, 0));
    // Statistics that say something else: the ranking they produced is not
    // this session's, so it plans for itself and the old plan is dropped.
    let mut other = stats.clone();
    *other.scheme_card.get_mut("CoursePage").unwrap() *= 10.0;
    let want = run(&mut store.clone(), &other);
    let got = run(&mut store, &other);
    assert_eq!(got.explain.best().expr, want.explain.best().expr);
    let cache = store.plan_cache().stats();
    assert_eq!((cache.hits, cache.misses, cache.invalidations), (1, 2, 1));
    assert_eq!(cache.entries, 1);
}

#[test]
fn a_second_catalog_over_the_same_store_plans_for_itself() {
    let (u, mut store, stats, catalog) = setup();
    let run = |store: &mut MatStore, catalog: &ViewCatalog| {
        MatSession::new(&u.site.scheme, catalog, &stats, &u.site.server)
            .run(store, &dept_query())
            .unwrap()
    };
    let first = run(&mut store, &catalog);
    // An equal catalog built elsewhere is the same catalog.
    run(&mut store, &university_catalog());
    assert_eq!(store.plan_cache().stats().hits, 1);
    // One whose `Dept` is navigated differently is not — even though the
    // query's shape is the same text.
    let other = university_catalog().with(ExternalRelation::new(
        "Dept",
        vec!["DName", "Address"],
        vec![wvcore::DefaultNavigation::new(
            nalg::NalgExpr::entry("ProfListPage")
                .unnest("ProfList")
                .follow("ToProf", "ProfPage")
                .follow("ToDept", "DeptPage"),
            vec![("DName", "DeptPage.DName"), ("Address", "DeptPage.Address")],
        )],
    ));
    other.validate(&u.site.scheme).unwrap();
    let second = run(&mut store, &other);
    assert_ne!(second.explain.best().expr, first.explain.best().expr);
    assert_eq!(second.relation.sorted(), first.relation.sorted());
    let cache = store.plan_cache().stats();
    assert_eq!((cache.hits, cache.misses), (1, 2));
}

// The protocol a store's sessions run is `QuerySession::run`'s, so this is
// pinned where it lives: a cached plan whose own audit falsifies it leaves
// the cache with the fallback that answered instead.
#[test]
fn a_plan_whose_audit_falls_back_is_removed() {
    let (mut u, _store, stats, catalog) = setup();
    let cache = PlanCache::new(8);
    let q = cs_address();
    let run = |site: &Site| {
        let live = LiveSource::for_site(site);
        QuerySession::new(&site.scheme, &catalog, &stats, &live)
            .with_policy(&ExecPolicy {
                audit: Some((1.0, 7)),
                ..Default::default()
            })
            .with_plan_cache(&cache, 0)
            .run(&q)
            .unwrap()
    };
    assert!(!run(&u.site).fell_back());
    assert_eq!(cache.len(), 1);
    // The anchor-replication constraint that licensed the cached plan's
    // pushed selection stops holding.
    MutationPlan::new(3)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
        .apply_round(&mut u.site, u64::MAX)
        .unwrap();
    let caught = run(&u.site);
    assert!(caught.fell_back() && caught.plan.is_cached());
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.entries, stats.invalidations), (1, 0, 1));
    // No health registry is attached, so nothing is quarantined and the
    // shape is planned — and falsified, and not stored — again.
    assert!(run(&u.site).fell_back());
    assert!(cache.is_empty());
}

// ---------------------------------------------------------------------
// A read is a reference, and nobody can tell.
// ---------------------------------------------------------------------

#[test]
fn a_copy_served_stale_is_not_written_through_to_the_shared_cache() {
    let (u, mut store, stats, catalog) = setup();
    let cache = SharedPageCache::default();
    let victim = University::dept_url(0);
    let outage = || {
        websim::FaultPlan::new(4).with_rule(
            websim::FaultRule::unavailable(1.0)
                .for_url_prefix(victim.as_str())
                .with_max_per_url(None),
        )
    };
    let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
    // a light connection vouches for every department page: written through
    let caching = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server).with_policy(
        &ExecPolicy {
            eval: EvalPolicy {
                shared_cache: Some(&cache),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    caching.run(&mut store, &dept_query()).unwrap();
    assert!(cache.get(&victim).is_some());
    // the cache lets the page go; then its check fails transiently and the
    // stored copy is served stale — answered with, vouched for by nobody
    cache.invalidate(&victim);
    let mut plain_store = store.clone();
    u.site.server.set_fault_plan(outage());
    let out = caching.run(&mut store, &dept_query()).unwrap();
    assert_eq!(out.counters.stale_served, 1);
    assert!(store.is_stale(&victim));
    assert!(
        cache.get(&victim).is_none(),
        "an unverified copy reappeared in the shared cache"
    );
    assert!(cache.get(&University::dept_url(1)).is_some());
    // the cache is written to, never read: same traffic as without one
    u.site.server.set_fault_plan(outage());
    let plain = session.run(&mut plain_store, &dept_query()).unwrap();
    assert_eq!(out.counters, plain.counters);
    assert_eq!(out.relation, plain.relation);
}

#[test]
fn whoever_holds_a_page_hands_out_a_reference_to_its_own_copy() {
    let (u, mut store, stats, catalog) = setup();
    let (ws, server) = (&u.site.scheme, &u.site.server);
    let url = University::prof_url(0);
    let kept = |store: &MatStore| Arc::clone(&store.get(&url).unwrap().tuple);
    // the store: "use the stored tuple" and a plain read
    let mut counters = CheckCounters::default();
    let checked = url_check(&mut store, &mut counters, ws, server, &url, "ProfPage")
        .unwrap()
        .unwrap();
    assert_eq!((counters.light_connections, counters.from_store), (1, 1));
    assert!(Arc::ptr_eq(&checked, &kept(&store)));
    let (read, _) = store.read(ws, server, &url).unwrap().unwrap();
    assert!(Arc::ptr_eq(&read, &kept(&store)));
    // a download: what is returned is what was stored, and the version it
    // replaced is still the caller's to read
    store.evict(ws, &url);
    store.reset_status();
    let fresh = url_check(&mut store, &mut counters, ws, server, &url, "ProfPage")
        .unwrap()
        .unwrap();
    assert_eq!(counters.downloads, 1);
    assert!(Arc::ptr_eq(&fresh, &kept(&store)));
    assert!(!Arc::ptr_eq(&fresh, &checked));
    assert_eq!(fresh, checked);
    // the shared cache: the URL check writes the store's page through, and
    // a hit is a copy of it, equal to it and the caller's own
    let cache = SharedPageCache::default();
    let dept = University::dept_url(0);
    MatSession::new(ws, &catalog, &stats, server)
        .with_policy(&ExecPolicy {
            eval: EvalPolicy {
                shared_cache: Some(&cache),
                ..Default::default()
            },
            ..Default::default()
        })
        .run(&mut store, &dept_query())
        .unwrap();
    let hit = cache.get(&dept).unwrap();
    assert_eq!(hit, store.get(&dept).unwrap().tuple);
    assert_eq!(hit, cache.get(&dept).unwrap());
}

fn view_exprs() -> [(&'static str, NalgExpr); 3] {
    let depts = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage");
    [
        (
            "depts",
            depts
                .clone()
                .project(vec!["DeptPage.DName", "DeptPage.Address"]),
        ),
        (
            "profs",
            depts
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

/// Everything a reader was handed and kept, each beside a deep copy taken
/// at that moment.
#[derive(Default)]
struct Kept {
    pages: Vec<(Arc<Tuple>, Tuple)>,
    answers: Vec<(Relation, Vec<String>, Vec<Vec<Value>>)>,
}

impl Kept {
    fn page(&mut self, page: Arc<Tuple>) {
        let copy = Tuple::clone(&page);
        self.pages.push((page, copy));
    }

    fn answer(&mut self, answer: Relation) {
        let (columns, rows) = (answer.columns().to_vec(), answer.rows().to_vec());
        self.answers.push((answer, columns, rows));
    }

    fn assert_untouched(&self, step: &str) {
        for (page, copy) in &self.pages {
            assert_eq!(&**page, copy, "a kept page changed after {step}");
        }
        for (answer, columns, rows) in &self.answers {
            assert_eq!(
                answer.columns(),
                columns,
                "a kept header changed after {step}"
            );
            assert_eq!(answer.rows(), rows, "a kept answer changed after {step}");
        }
    }
}

#[test]
fn what_a_reader_keeps_stays_what_it_was_handed() {
    let (mut u, mut store, stats, catalog) = setup();
    let ws = u.site.scheme.clone();
    let cache = SharedPageCache::default();
    let mut views = IncrementalView::new(&ws);
    views.materialize(&u.site.server).unwrap();
    views.set_cursor(u.site.change_cursor());
    for (key, expr) in view_exprs() {
        views.register(key, key, &expr, &u.site.server).unwrap();
    }
    let plan = MutationPlan::new(41)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.6))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.5))
        .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.4))
        .with_rule(MutationRule::delete("CoursePage", 0.15));
    let queries = [dept_query(), grad_courses(), cs_address()];
    let urls: Vec<Url> = (u.site.instance("DeptPage").into_iter())
        .chain(u.site.instance("ProfPage"))
        .chain(u.site.instance("CoursePage"))
        .map(|(url, _)| url)
        .collect();
    let mut kept = Kept::default();
    let mut edits = 0;
    for round in 0..6 {
        edits += plan.apply_round(&mut u.site, round).unwrap().total();
        kept.assert_untouched("a mutation round");

        views.sync(&u.site).unwrap();
        kept.assert_untouched("a sync");

        // view reads: each is the view's row set in order, and is kept
        // across every sync that follows
        let live = LiveSource::for_site(&u.site);
        for (key, expr) in view_exprs() {
            let rows = Evaluator::new(&ws, &live).eval(&expr).unwrap().relation;
            let answer = views.answer(key).unwrap();
            assert_eq!(answer, rows.sorted(), "{key} after round {round}");
            kept.answer(answer.clone());
            // a reader that writes to its copy reaches nobody else's
            let mut scribbled = answer;
            let width = scribbled.columns().len();
            scribbled.push_row(vec![Value::Null; width]).unwrap();
            assert_eq!(views.answer(key).unwrap().len() + 1, scribbled.len());
        }
        kept.assert_untouched("view reads");

        // a URL-checked query: answers, the pages it re-downloaded replaced
        // in the store and in the cache under whoever still reads the old
        let session =
            MatSession::new(&ws, &catalog, &stats, &u.site.server).with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    shared_cache: Some(&cache),
                    ..Default::default()
                },
                ..Default::default()
            });
        let out = session
            .run(&mut store, &queries[round as usize % 3])
            .unwrap();
        kept.answer(out.relation);
        kept.assert_untouched("a materialized-view query");

        for url in urls.iter().skip(round as usize % 3).step_by(3) {
            if let Some(page) = store.get(url) {
                kept.page(Arc::clone(&page.tuple));
            }
            if let Some(page) = cache.get(url) {
                kept.page(page);
            }
            if let Some((page, _)) = views.store_mut().read(&ws, &u.site.server, url).unwrap() {
                kept.page(page);
            }
        }
        kept.assert_untouched("page reads");
    }
    assert!(edits > 20, "the history must edit pages: {edits}");
    let replaced = (kept.pages.iter())
        .filter(|(page, _)| Arc::strong_count(page) == 1)
        .count();
    assert!(
        replaced > 5,
        "pages were replaced under their readers: {replaced}"
    );
    assert!(kept.pages.len() > 100 && kept.answers.len() == 24);
}
