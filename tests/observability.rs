//! Observability invariants: tracing and EXPLAIN ANALYZE must be pure
//! observers. Attaching a sink — or running the fully-instrumented
//! `run_analyzed` path — may never change a query's answer, its page
//! accounting, or the plan the optimizer picks, sequentially or under a
//! concurrent fetch pool. Traces themselves must be deterministic: the
//! same seed over the same site yields the same span ids in the same
//! order, so CI can diff exported traces across runs.

use proptest::prelude::*;
use webviews::prelude::*;

// ── fixture workload ───────────────────────────────────────────────────
// The university queries mirror the E4/E6 harness workload; the
// bibliography queries mirror the E1 fixtures.

fn university_queries() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName")),
        ConjunctiveQuery::new("fall graduate courses")
            .atom("Course")
            .select((0, "Session"), "Fall")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"))
            .project((0, "Description")),
        ConjunctiveQuery::new("who teaches what")
            .atom("CourseInstructor")
            .project((0, "PName"))
            .project((0, "CName")),
        ConjunctiveQuery::new("departments")
            .atom("Dept")
            .project((0, "DName"))
            .project((0, "Address")),
    ]
}

fn bibliography_queries() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::new("all conferences")
            .atom("Conference")
            .project((0, "ConfName")),
        ConjunctiveQuery::new("editors of VLDB 1996")
            .atom("ConfEdition")
            .select((0, "ConfName"), "VLDB")
            .select((0, "Year"), "1996")
            .project((0, "Editors")),
    ]
}

fn university(seed: u64, departments: usize, professors: usize, courses: usize) -> University {
    University::generate(UniversityConfig {
        departments,
        professors,
        courses,
        seed,
        ..UniversityConfig::default()
    })
    .expect("site generation")
}

/// Asserts that an analyzed (traced) outcome is byte-identical to a plain
/// untraced one: same rows, same counters, same per-operator accounting.
fn assert_counter_identical(plain: &QueryOutcome, analyzed: &AnalyzedOutcome) {
    let (p, a) = (&plain.report, &analyzed.outcome.report);
    assert_eq!(p.relation.clone().sorted(), a.relation.clone().sorted());
    assert_eq!(p.page_accesses, a.page_accesses);
    assert_eq!(p.cache_hits, a.cache_hits);
    assert_eq!(p.shared_cache_hits, a.shared_cache_hits);
    assert_eq!(p.broken_links, a.broken_links);
    assert_eq!(p.accesses_by_operator, a.accesses_by_operator);
    // and the join is total: observed pages re-derive the cost-model count
    assert_eq!(analyzed.analysis.observed_pages, a.cost_model_accesses());
    assert_eq!(
        analyzed.analysis.ops.len(),
        analyzed.outcome.explain.best().estimate.nodes.len()
    );
}

// ── traced ≡ untraced (property) ───────────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Over arbitrary sites and workload queries, `run_analyzed` returns
    // the same relation and the same counters as `run` — sequentially
    // and under a 3-worker fetch pool.
    #[test]
    fn traced_equals_untraced_sequential_and_pooled(
        seed in 0u64..10_000,
        departments in 1usize..=3,
        professors in 3usize..=9,
        courses in 5usize..=15,
        qi in 0usize..4,
    ) {
        let u = university(seed, departments, professors, courses);
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let q = &university_queries()[qi];

        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let plain = session.run(q).unwrap();
        let analyzed = session.run_analyzed(q).unwrap();
        assert_counter_identical(&plain, &analyzed);

        let pooled = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    fetch: Fetch::pool(3),
                    ..Default::default()
                },
                ..Default::default()
            });
        let plain_pooled = pooled.run(q).unwrap();
        let analyzed_pooled = pooled.run_analyzed(q).unwrap();
        assert_counter_identical(&plain_pooled, &analyzed_pooled);

        // pooling itself is also answer- and accounting-preserving
        prop_assert_eq!(
            plain.report.relation.clone().sorted(),
            plain_pooled.report.relation.clone().sorted()
        );
        prop_assert_eq!(plain.report.page_accesses, plain_pooled.report.page_accesses);
    }
}

// ── trace determinism ──────────────────────────────────────────────────

#[test]
fn same_seed_traces_are_byte_identical_sequential() {
    for q in &university_queries() {
        let exports: Vec<String> = (0..2)
            .map(|_| {
                let u = university(11, 2, 6, 10);
                let stats = SiteStatistics::from_site(&u.site);
                let catalog = university_catalog();
                let source = LiveSource::for_site(&u.site);
                let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
                session.run_analyzed(q).unwrap().trace.export_jsonl()
            })
            .collect();
        assert!(!exports[0].is_empty());
        assert_eq!(exports[0], exports[1], "trace drift for {:?}", q.name);
    }
}

#[test]
fn same_seed_traces_are_deterministic_pooled() {
    // Under a pool, which worker lands each job is a scheduling race, so
    // the per-worker `jobs` split may differ run to run — but nothing
    // else may: span ids, ordering, operator counters, worker terminal
    // reasons, and the *total* job count are all pinned.
    let blank_jobs = |export: &str| -> (String, u64) {
        let mut total = 0;
        let blanked = export
            .lines()
            .map(|line| match line.find("\"jobs\":") {
                None => line.to_string(),
                Some(i) => {
                    let rest = &line[i + 7..];
                    let end = rest.find(',').unwrap_or(rest.len());
                    total += rest[..end].parse::<u64>().unwrap();
                    format!("{}\"jobs\":_{}", &line[..i], &rest[end..])
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        (blanked, total)
    };
    let q = &university_queries()[2]; // the join query exercises the pool most
    let exports: Vec<(String, u64)> = (0..2)
        .map(|_| {
            let u = university(11, 2, 6, 10);
            let stats = SiteStatistics::from_site(&u.site);
            let catalog = university_catalog();
            let source = LiveSource::for_site(&u.site);
            let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(
                &ExecPolicy {
                    eval: EvalPolicy {
                        fetch: Fetch::pool(3),
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            blank_jobs(&session.run_analyzed(q).unwrap().trace.export_jsonl())
        })
        .collect();
    assert!(!exports[0].0.is_empty());
    assert_eq!(exports[0].0, exports[1].0);
    assert_eq!(exports[0].1, exports[1].1, "total pooled jobs drifted");
}

// ── EXPLAIN ANALYZE over the fixture workloads ─────────────────────────

#[test]
fn explain_analyze_matches_untraced_runs_on_both_fixture_sites() {
    // university fixtures (E2–E6 shapes)
    let u = university(7, 3, 9, 15);
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    for q in &university_queries() {
        let plain = session.run(q).unwrap();
        let analyzed = session.run_analyzed(q).unwrap();
        assert_counter_identical(&plain, &analyzed);
        let render = analyzed.analysis.render();
        assert!(render.contains("operator"), "header missing:\n{render}");
        assert!(render.contains("total"), "total line missing:\n{render}");
        assert!(analyzed.analysis.worst_pages_ratio() >= 1.0);
    }

    // bibliography fixtures (E1 shapes)
    let b = Bibliography::generate(BibConfig {
        authors: 40,
        seed: 5,
        ..BibConfig::default()
    })
    .expect("bibliography site");
    let stats = SiteStatistics::from_site(&b.site);
    let catalog = bibliography_catalog();
    let source = LiveSource::for_site(&b.site);
    let session = QuerySession::new(&b.site.scheme, &catalog, &stats, &source);
    for q in &bibliography_queries() {
        let plain = session.run(q).unwrap();
        let analyzed = session.run_analyzed(q).unwrap();
        assert_counter_identical(&plain, &analyzed);
        assert!(!plain.report.relation.is_empty(), "{:?} empty", q.name);
    }
}

// ── incremental maintenance tracing ────────────────────────────────────

// Dataflow syncs are observer-pure too: attaching a trace sink to an
// `IncrementalView` changes neither the delta accounting nor the
// maintained answer, and two traced twins with the same sink seed export
// byte-identical `dataflow.sync` traces.
#[test]
fn dataflow_sync_traced_equals_untraced_with_byte_identical_exports() {
    let run = |trace_seed: Option<u64>| {
        let mut site = University::generate(UniversityConfig::default()).unwrap();
        let ws = site.site.scheme.clone();
        let sink = trace_seed.map(TraceSink::with_seed);
        let mut views = IncrementalView::new(&ws);
        if let Some(s) = &sink {
            views = views.with_trace(s.clone());
        }
        views.materialize(&site.site.server).unwrap();
        views.set_cursor(site.site.change_cursor());
        let profs = NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .follow("ToDept", "DeptPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
            .project(vec!["ProfPage.PName", "ProfPage.Rank"]);
        views
            .register("profs", "profs", &profs, &site.site.server)
            .unwrap();
        let plan = MutationPlan::new(5).with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.4));
        plan.apply_round(&mut site.site, 0).unwrap();
        let report = views.sync(&site.site).unwrap();
        (
            format!("{report:?}"),
            views.answer("profs").unwrap().sorted(),
            sink.map(|s| s.export_jsonl()),
        )
    };

    let plain = run(None);
    let traced = run(Some(31));
    let again = run(Some(31));
    assert_eq!(plain.0, traced.0, "tracing changed the delta accounting");
    assert_eq!(plain.1, traced.1, "tracing changed the maintained answer");
    let (e1, e2) = (traced.2.unwrap(), again.2.unwrap());
    assert!(e1.contains("dataflow.sync"), "sync span missing:\n{e1}");
    assert_eq!(e1, e2, "same-seed dataflow trace exports drifted");
}

// ── materialized sessions ──────────────────────────────────────────────

#[test]
fn matview_run_analyzed_is_counter_identical() {
    let u = university(13, 2, 6, 10);
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let mut store = MatStore::new();
    store.materialize(&u.site.scheme, &u.site.server).unwrap();
    let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
    let q = &university_queries()[0];
    let plain = session.run(&mut store, q).unwrap();
    let analyzed = session.run_analyzed(&mut store, q).unwrap();
    assert_eq!(
        plain.relation.clone().sorted(),
        analyzed.outcome.relation.clone().sorted()
    );
    assert_eq!(plain.counters, analyzed.outcome.counters);
    assert!(!analyzed.analysis.ops.is_empty());
}

// ── served fallbacks ───────────────────────────────────────────────────

// A served request whose audit falls back plans twice — the optimized plan
// and the default navigation it re-answers from — and its trace shows both
// plannings under the request's root, beside the operator spans of both
// evaluations: the fallback re-plans under the request's own policy.
#[test]
fn a_fallback_request_traces_both_plannings_under_its_root() {
    let mut u = University::generate(UniversityConfig::default()).unwrap();
    DriftPlan::new(3)
        .with_rule(DriftRule::perturb_attr("DeptPage", "DName", 1.0))
        .apply(&mut u.site)
        .unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let recorder = FlightRecorder::new();
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
        .with_policy(&ExecPolicy {
            audit: Some((1.0, 7)),
            ..Default::default()
        })
        .with_trace(7)
        .with_flight_recorder(&recorder);
    let q = ConjunctiveQuery::new("cs-dept")
        .atom("Dept")
        .select((0, "DName"), "Computer Science")
        .project((0, "Address"));
    let served = server.serve(&q).unwrap();
    assert!(served.outcome.as_ref().unwrap().fell_back());

    let trace = &recorder.recent()[0];
    let root = trace
        .events
        .iter()
        .find(|e| e.name == "serve.request")
        .expect("root span")
        .id;
    let summaries: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "optimizer.summary")
        .collect();
    assert_eq!(summaries.len(), 2, "the optimized plan and the fallback");
    assert!(summaries.iter().all(|e| e.parent == Some(root)));
}
