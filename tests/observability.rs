//! Observability invariants: tracing and EXPLAIN ANALYZE must be pure
//! observers. EXPLAIN ANALYZE is an ordinary run with a trace sink in its
//! policy, so attaching a sink may never change a query's answer, its
//! page accounting, its audit fallback, its deadline, or the plan the
//! optimizer picks, sequentially or under a concurrent fetch pool; and
//! the analysis read off the trace explains the plan that answered — a
//! session's, a store session's, or a served request's. Traces
//! themselves must be deterministic: the same seed over the same site
//! yields the same span ids in the same order, so CI can diff exported
//! traces across runs.

use proptest::prelude::*;
use webviews::obs::trace::TraceEvent;
use webviews::prelude::*;
use webviews::wvcore::OptError;

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

fn cs_dept() -> ConjunctiveQuery {
    ConjunctiveQuery::new("cs-dept")
        .atom("Dept")
        .select((0, "DName"), "Computer Science")
        .project((0, "Address"))
}

/// Drifts every `DeptPage.DName`: the anchor-replication constraint that
/// licenses pushing `cs_dept`'s selection across the follow is false.
fn drift_dept_names(u: &mut University) {
    MutationPlan::new(3)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
        .apply_round(&mut u.site, u64::MAX)
        .expect("drift");
}

/// `policy` plus a fresh seed-0 trace sink: a run under it is EXPLAIN
/// ANALYZE as it ships.
fn traced<'a>(policy: &ExecPolicy<'a>) -> (ExecPolicy<'a>, TraceSink) {
    let sink = TraceSink::with_seed(0);
    let mut traced = policy.clone();
    traced.eval.trace = Some((sink.clone(), None));
    (traced, sink)
}

/// The EXPLAIN ANALYZE table of a traced run: the plan that answered,
/// joined onto the run's operator spans.
fn analysis_of(outcome: &QueryOutcome, events: &[TraceEvent]) -> ExplainAnalyze {
    ExplainAnalyze::from_parts(&outcome.explain.best().estimate, events)
}

/// `q` on `site` under `policy`, run twice in fresh sessions: untraced,
/// and traced. Returns both results and the traced run's sink.
fn run_with_and_without_trace(
    site: &Site,
    stats: &SiteStatistics,
    catalog: &ViewCatalog,
    policy: &ExecPolicy<'_>,
    q: &ConjunctiveQuery,
) -> (
    Result<QueryOutcome, OptError>,
    Result<QueryOutcome, OptError>,
    TraceSink,
) {
    let source = LiveSource::for_site(site);
    let plain = QuerySession::new(&site.scheme, catalog, stats, &source)
        .with_policy(policy)
        .run(q);
    let (traced_policy, sink) = traced(policy);
    let traced = QuerySession::new(&site.scheme, catalog, stats, &source)
        .with_policy(&traced_policy)
        .run(q);
    (plain, traced, sink)
}

/// Asserts that a traced outcome is byte-identical to a plain untraced
/// one — same rows, same counters, same per-operator accounting, same
/// fallback — and that its trace explains the plan that answered.
fn assert_counter_identical(
    plain: &QueryOutcome,
    traced: &QueryOutcome,
    sink: &TraceSink,
) -> ExplainAnalyze {
    let (p, a) = (&plain.report, &traced.report);
    assert_eq!(p.relation.clone().sorted(), a.relation.clone().sorted());
    assert_eq!(p.page_accesses, a.page_accesses);
    assert_eq!(p.cache_hits, a.cache_hits);
    assert_eq!(p.shared_cache_hits, a.shared_cache_hits);
    assert_eq!(p.broken_links, a.broken_links);
    assert_eq!(p.accesses_by_operator, a.accesses_by_operator);
    assert_eq!(plain.explain.best().expr, traced.explain.best().expr);
    assert_eq!(plain.total_downloads(), traced.total_downloads());
    let fallback = |o: &QueryOutcome| {
        o.fallback.as_ref().map(|f| {
            (
                f.violated.clone(),
                f.diverged,
                f.suspect_report.cost_model_accesses(),
            )
        })
    };
    assert_eq!(fallback(plain), fallback(traced));
    // and the join is total: observed pages re-derive the cost-model count
    let analysis = analysis_of(traced, &sink.events());
    assert_eq!(analysis.observed_pages, a.cost_model_accesses());
    assert_eq!(
        analysis.ops.len(),
        traced.explain.best().estimate.nodes.len()
    );
    analysis
}

// ── traced ≡ untraced (property) ───────────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Over arbitrary sites and workload queries, a traced `run` returns
    // the same relation and the same counters as an untraced one —
    // sequentially and under a 3-worker fetch pool, on a pristine site and
    // on one whose drifted department names the audit catches.
    #[test]
    fn traced_equals_untraced_sequential_and_pooled(
        seed in 0u64..10_000,
        departments in 1usize..=3,
        professors in 3usize..=9,
        courses in 5usize..=15,
        qi in 0usize..5,
        drifted in any::<bool>(),
    ) {
        let mut u = university(seed, departments, professors, courses);
        let stats = SiteStatistics::from_site(&u.site);
        if drifted {
            drift_dept_names(&mut u);
        }
        let catalog = university_catalog();
        let q = university_queries().into_iter().chain([cs_dept()]).nth(qi).unwrap();
        let audit = drifted.then_some((1.0, 7));

        let sequential = ExecPolicy { audit, ..Default::default() };
        let (plain, traced, sink) =
            run_with_and_without_trace(&u.site, &stats, &catalog, &sequential, &q);
        let plain = plain.unwrap();
        assert_counter_identical(&plain, &traced.unwrap(), &sink);

        let pooled = ExecPolicy {
            audit,
            eval: EvalPolicy {
                fetch: Fetch::pool(3),
                ..Default::default()
            },
            ..Default::default()
        };
        let (plain_pooled, traced_pooled, sink) =
            run_with_and_without_trace(&u.site, &stats, &catalog, &pooled, &q);
        let plain_pooled = plain_pooled.unwrap();
        assert_counter_identical(&plain_pooled, &traced_pooled.unwrap(), &sink);

        // pooling itself is also answer- and accounting-preserving
        prop_assert_eq!(
            plain.report.relation.clone().sorted(),
            plain_pooled.report.relation.clone().sorted()
        );
        prop_assert_eq!(plain.report.page_accesses, plain_pooled.report.page_accesses);
    }
}

// ── traced ≡ untraced (the runs an analysis must not skip) ─────────────

// An audit that catches drift falls back, traced or not, and the analysis
// explains the fallback plan that answered — not the suspect one.
#[test]
fn traced_equals_untraced_when_the_audit_falls_back() {
    let mut u = University::generate(UniversityConfig::default()).unwrap();
    drift_dept_names(&mut u);
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let policy = ExecPolicy {
        audit: Some((1.0, 7)),
        ..Default::default()
    };
    let (plain, traced, sink) =
        run_with_and_without_trace(&u.site, &stats, &catalog, &policy, &cs_dept());
    let (plain, traced) = (plain.unwrap(), traced.unwrap());
    assert!(plain.fell_back() && traced.fell_back());
    let analysis = assert_counter_identical(&plain, &traced, &sink);
    assert_eq!(analysis.observed_pages, plain.measured_pages());
    let suspect = &traced.fallback.as_ref().unwrap().suspect_explain;
    assert_ne!(suspect.best().expr, traced.explain.best().expr);
}

// A deadline that has passed refuses to plan, traced or not.
#[test]
fn traced_equals_untraced_past_the_deadline() {
    let u = university(7, 3, 9, 15);
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let policy = ExecPolicy {
        eval: EvalPolicy {
            deadline: Deadline::after_us(0),
            ..Default::default()
        },
        ..Default::default()
    };
    u.site.server.reset_stats();
    let (plain, traced, sink) =
        run_with_and_without_trace(&u.site, &stats, &catalog, &policy, &university_queries()[0]);
    assert!(matches!(plain, Err(OptError::DeadlineExceeded)));
    assert!(matches!(traced, Err(OptError::DeadlineExceeded)));
    assert_eq!(u.site.server.stats().gets, 0);
    assert!(sink.events().is_empty(), "nothing planned, nothing ran");
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
                let (policy, sink) = traced(&ExecPolicy::default());
                QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
                    .with_policy(&policy)
                    .run(q)
                    .unwrap();
                sink.export_jsonl()
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
            let (policy, sink) = traced(&ExecPolicy {
                eval: EvalPolicy {
                    fetch: Fetch::pool(3),
                    ..Default::default()
                },
                ..Default::default()
            });
            QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
                .with_policy(&policy)
                .run(q)
                .unwrap();
            blank_jobs(&sink.export_jsonl())
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
    for q in &university_queries() {
        let (plain, traced, sink) =
            run_with_and_without_trace(&u.site, &stats, &catalog, &ExecPolicy::default(), q);
        let analysis = assert_counter_identical(&plain.unwrap(), &traced.unwrap(), &sink);
        let render = analysis.render();
        assert!(render.contains("operator"), "header missing:\n{render}");
        assert!(render.contains("total"), "total line missing:\n{render}");
        assert!(analysis.worst_pages_ratio() >= 1.0);
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
    for q in &bibliography_queries() {
        let (plain, traced, sink) =
            run_with_and_without_trace(&b.site, &stats, &catalog, &ExecPolicy::default(), q);
        let plain = plain.unwrap();
        assert_counter_identical(&plain, &traced.unwrap(), &sink);
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

// A store session's traced run is an ordinary run: on a store plan-cache
// hit it books exactly the URL checks an untraced hit books.
#[test]
fn matview_traced_run_on_a_store_plan_hit_is_counter_identical() {
    let u = university(13, 2, 6, 10);
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let mut store = MatStore::new();
    store.materialize(&u.site.scheme, &u.site.server).unwrap();
    let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
    let q = &university_queries()[0];
    session.run(&mut store, q).unwrap(); // plans, and fills the store's cache
    let plain = session.run(&mut store, q).unwrap();
    let (policy, sink) = traced(&ExecPolicy::default());
    let traced = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server)
        .with_policy(&policy)
        .run(&mut store, q)
        .unwrap();
    let plans = store.plan_cache().stats();
    assert_eq!((plans.misses, plans.hits), (1, 2), "both later runs hit");
    assert_eq!(
        plain.relation.clone().sorted(),
        traced.relation.clone().sorted()
    );
    assert_eq!(plain.counters, traced.counters);
    let analysis = ExplainAnalyze::from_parts(&traced.explain.best().estimate, &sink.events());
    assert!(!analysis.ops.is_empty());
    assert!(analysis.ops.iter().all(|op| op.rows_out.is_some()));
}

// ── served requests, explained after the fact ──────────────────────────

// A flight recorder's trace of a served request holds its operator spans,
// so the request can be explained later: the same table as a traced
// session run of the same query, on the plan-cache miss and on the hit.
#[test]
fn a_served_request_is_explained_from_its_flight_record() {
    let u = university(7, 3, 9, 15);
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let recorder = FlightRecorder::new();
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
        .with_trace(7)
        .with_flight_recorder(&recorder);
    let q = &university_queries()[2];
    let served: Vec<_> = (0..2).map(|_| server.serve(q).unwrap()).collect();
    assert_eq!(
        served.iter().map(|s| s.cached_plan).collect::<Vec<_>>(),
        [false, true]
    );
    let (_, fresh, sink) =
        run_with_and_without_trace(&u.site, &stats, &catalog, &ExecPolicy::default(), q);
    let fresh = analysis_of(&fresh.unwrap(), &sink.events());
    let table = |a: &ExplainAnalyze| {
        let ops: Vec<_> = a
            .ops
            .iter()
            .map(|op| (op.label.clone(), op.pages, op.downloads, op.rows_out))
            .collect();
        (ops, a.observed_pages)
    };
    let records = recorder.recent();
    assert_eq!(records.len(), 2);
    for (s, record) in served.iter().zip(&records) {
        assert_eq!(s.request_id, Some(record.request_id));
        let outcome = s.outcome.as_ref().unwrap();
        let analysis = analysis_of(outcome, &record.events);
        assert_eq!(table(&analysis), table(&fresh));
        assert_eq!(analysis.observed_pages, outcome.measured_pages());
    }
}

// ── served fallbacks ───────────────────────────────────────────────────

// A served request whose audit falls back plans twice — the optimized plan
// and the default navigation it re-answers from — and its trace shows both
// plannings under the request's root, beside the operator spans of both
// evaluations: the fallback re-plans under the request's own policy.
#[test]
fn a_fallback_request_traces_both_plannings_under_its_root() {
    let mut u = University::generate(UniversityConfig::default()).unwrap();
    MutationPlan::new(3)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
        .apply_round(&mut u.site, u64::MAX)
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
