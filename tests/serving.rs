//! Serving-layer equivalence and regression suite.
//!
//! The serving layer's contract is that it is invisible to the paper's
//! accounting: a Zipf-skewed concurrent run through the plan cache and
//! the single-flight fetch coalescer returns byte-identical rows and
//! identical per-session `page_accesses` to a sequential uncached run of
//! the same schedule. Coalescing may only shrink *server GET* counts —
//! never a session's page-access numbers (E1–E8 are coalescing-blind).
//! The drift regression pins the plan-cache/quarantine interaction: a
//! cached plan must never outlive the quarantine of a constraint it
//! depends on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use webviews::prelude::*;
use webviews::serve::QueryServer;

fn workload() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName")),
        ConjunctiveQuery::new("CS professors")
            .atom("Professor")
            .atom("ProfDept")
            .join((0, "PName"), (1, "PName"))
            .select((1, "DName"), "Computer Science")
            .project((0, "PName"))
            .project((0, "Email")),
        ConjunctiveQuery::new("example 7.1")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((0, "Rank"), "Full")
            .select((2, "Session"), "Fall")
            .project((2, "CName"))
            .project((2, "Description")),
        ConjunctiveQuery::new("departments")
            .atom("Dept")
            .project((0, "DName"))
            .project((0, "Address")),
        ConjunctiveQuery::new("fall graduate courses")
            .atom("Course")
            .select((0, "Session"), "Fall")
            .select((0, "Type"), "Graduate")
            .project((0, "CName")),
    ]
}

/// Further instances of `workload()`'s shapes: other constants, and where
/// there are two selections, listed the other way round. Served through
/// the plan the shape's first instance cached.
fn variants() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::new("associate professors")
            .atom("Professor")
            .select((0, "Rank"), "Associate")
            .project((0, "PName")),
        ConjunctiveQuery::new("mathematics professors")
            .atom("Professor")
            .atom("ProfDept")
            .join((0, "PName"), (1, "PName"))
            .select((1, "DName"), "Mathematics")
            .project((0, "PName"))
            .project((0, "Email")),
        ConjunctiveQuery::new("example 7.1, winter, associates")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((2, "Session"), "Winter")
            .select((0, "Rank"), "Associate")
            .project((2, "CName"))
            .project((2, "Description")),
        ConjunctiveQuery::new("winter undergraduate courses")
            .atom("Course")
            .select((0, "Type"), "Undergraduate")
            .select((0, "Session"), "Winter")
            .project((0, "CName")),
        ConjunctiveQuery::new("courses of a session no page carries")
            .atom("Course")
            .select((0, "Session"), "Monsoon")
            .select((0, "Type"), "Graduate")
            .project((0, "CName")),
    ]
}

/// `workload()` followed by `variants()`; the fixture's oracle is indexed
/// like this.
fn mix() -> Vec<ConjunctiveQuery> {
    let mut queries = workload();
    queries.extend(variants());
    queries
}

/// One fixed university site + statistics + per-query oracle, shared by
/// every proptest case (generation is deterministic, so sharing is safe).
struct Fixture {
    site: University,
    stats: SiteStatistics,
    catalog: ViewCatalog,
    oracle: Vec<(Relation, u64)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let site = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&site.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&site.site);
        let oracle = mix()
            .iter()
            .map(|q| {
                let out = QuerySession::new(&site.site.scheme, &catalog, &stats, &source)
                    .run(q)
                    .unwrap();
                (out.report.relation.sorted(), out.report.page_accesses)
            })
            .collect();
        Fixture {
            site,
            stats,
            catalog,
            oracle,
        }
    })
}

/// A seeded Zipf-skewed schedule of query indices (rank r weighted 1/r).
fn zipf_schedule(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let x = rng.gen_range(0.0..total);
            cdf.iter().position(|&c| x < c).unwrap_or(n - 1)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Satellite pin: a concurrent, coalesced, plan-cached Zipf run is
    // byte-identical (rows and per-session page accesses) to the
    // sequential uncached oracle, for every schedule seed.
    #[test]
    fn concurrent_coalesced_serving_equals_sequential_uncached(seed in 0u64..500) {
        let f = fixture();
        let queries = mix();
        let shape_of = |qi: usize| queries[qi].shape().0;
        let schedule = zipf_schedule(seed, queries.len(), 24);
        let live = LiveSource::for_site(&f.site.site);
        let coalesced = nalg::CoalescingSource::new(&live);
        let server = QueryServer::new(&f.site.site.scheme, &f.catalog, &f.stats, &coalesced)
            .with_admission_capacity(4);
        let check = |qi: usize, out: webviews::serve::ServeOutcome| {
            let out = out.outcome.unwrap();
            assert_eq!(
                out.report.relation.sorted(),
                f.oracle[qi].0,
                "rows diverged for {:?} (seed {seed})",
                queries[qi].name
            );
            assert_eq!(
                out.report.page_accesses,
                f.oracle[qi].1,
                "page accesses diverged for {:?} (seed {seed})",
                queries[qi].name
            );
        };
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let (server, schedule, queries, check) = (&server, &schedule, &queries, &check);
                scope.spawn(move || {
                    let mut i = w;
                    while i < schedule.len() {
                        let qi = schedule[i];
                        check(qi, server.serve(&queries[qi]).unwrap());
                        i += 4;
                    }
                });
            }
        });
        let s = server.stats();
        prop_assert_eq!(s.requests, 24);
        prop_assert_eq!(s.shed, 0);
        // 24 requests over 5 distinct shapes: the cache must be hitting.
        // (Concurrent cold lookups of one shape may each miss, so the
        // floor is requests − shapes×workers, not requests − shapes.)
        let shapes: std::collections::HashSet<String> =
            (0..queries.len()).map(shape_of).collect();
        prop_assert_eq!(shapes.len(), workload().len());
        prop_assert!(s.plan_cache.hits >= 24 - (shapes.len() * 4) as u64);
        prop_assert_eq!(s.plan_cache.hits + s.plan_cache.misses, 24);
        // Then every instance once more, one at a time: whatever is not
        // the first of its shape on this server is a plan-cache hit —
        // listed the other way round, about other constants — and
        // answers exactly like its own sequential uncached run.
        let mut planned: std::collections::HashSet<String> =
            schedule.iter().map(|&qi| shape_of(qi)).collect();
        for (qi, q) in queries.iter().enumerate() {
            let out = server.serve(q).unwrap();
            prop_assert_eq!(
                out.cached_plan,
                !planned.insert(shape_of(qi)),
                "{:?} (seed {})", &q.name, seed
            );
            check(qi, out);
        }
        let s = server.stats();
        prop_assert_eq!(s.plan_cache.hits + s.plan_cache.misses, 24 + queries.len() as u64);
        prop_assert_eq!(s.plan_cache.entries, shapes.len());
        // Four shapes have more than one instance; sweeping all of them
        // binds the stored plan to other constants at least once each.
        prop_assert!((4..=s.plan_cache.hits).contains(&s.plan_cache.rebinds));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Tentpole pin: request-scoped tracing plus the flight recorder are
    // invisible to the paper's accounting. The same concurrent, coalesced,
    // plan-cached run — now fully observed — still matches the sequential
    // uncached oracle row for row and page for page, every request gets a
    // request id and a phase breakdown, the ids are unique, and every
    // request lands in the recorder's ring.
    #[test]
    fn traced_concurrent_serving_is_oracle_identical(seed in 0u64..500) {
        let f = fixture();
        let queries = workload();
        let schedule = zipf_schedule(seed, queries.len(), 24);
        let live = LiveSource::for_site(&f.site.site);
        let coalesced = nalg::CoalescingSource::new(&live);
        let recorder = FlightRecorder::with_capacity(32, 4);
        let server = QueryServer::new(&f.site.site.scheme, &f.catalog, &f.stats, &coalesced)
            .with_admission_capacity(4)
            .with_trace(seed)
            .with_flight_recorder(&recorder);
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let (server, schedule, queries, f) = (&server, &schedule, &queries, &f);
                scope.spawn(move || {
                    let mut i = w;
                    while i < schedule.len() {
                        let qi = schedule[i];
                        let out = server.serve(&queries[qi]).unwrap();
                        assert!(out.request_id.is_some(), "traced serve lost its id");
                        assert!(out.phases.is_some(), "traced serve lost its phases");
                        let o = out.outcome.unwrap();
                        assert_eq!(
                            o.report.relation.sorted(),
                            f.oracle[qi].0,
                            "rows diverged under tracing for {:?} (seed {seed})",
                            queries[qi].name
                        );
                        assert_eq!(
                            o.report.page_accesses,
                            f.oracle[qi].1,
                            "page accesses diverged under tracing for {:?} (seed {seed})",
                            queries[qi].name
                        );
                        i += 4;
                    }
                });
            }
        });
        let recorded = recorder.recent();
        prop_assert_eq!(recorded.len(), 24);
        let ids: std::collections::HashSet<u64> =
            recorded.iter().map(|t| t.request_id).collect();
        prop_assert_eq!(ids.len(), 24, "request ids must be unique");
    }
}

// Tracing is GET-invisible: the same sequential schedule issues exactly
// the same server GETs traced and untraced, returns the same answers —
// and two traced runs with the same seed export byte-identical causal
// traces (the CI diffable artifact).
#[test]
fn tracing_is_get_invisible_and_same_seed_exports_are_byte_identical() {
    // A private site: this test reads the server's GET counters.
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let queries = workload();
    let schedule = zipf_schedule(9, queries.len(), 12);

    let run = |trace: bool| {
        let live = LiveSource::for_site(&u.site);
        let coalesced = CoalescingSource::new(&live);
        let recorder = FlightRecorder::with_capacity(16, 4);
        let mut server = QueryServer::new(&u.site.scheme, &catalog, &stats, &coalesced);
        if trace {
            server = server.with_trace(77).with_flight_recorder(&recorder);
        }
        u.site.server.reset_stats();
        let answers: Vec<(Relation, u64)> = schedule
            .iter()
            .map(|&qi| {
                let o = server.serve(&queries[qi]).unwrap().outcome.unwrap();
                (o.report.relation.sorted(), o.report.page_accesses)
            })
            .collect();
        let causal: String = recorder.recent().iter().map(|t| t.causal_jsonl()).collect();
        (answers, u.site.server.stats().gets, causal)
    };

    let plain = run(false);
    let traced = run(true);
    let again = run(true);
    assert_eq!(plain.0, traced.0, "tracing changed an answer");
    assert_eq!(plain.1, traced.1, "tracing changed the server GET count");
    assert!(!traced.2.is_empty());
    assert_eq!(traced.2, again.2, "same-seed causal exports drifted");
}

// Concurrent determinism: with the plan cache warmed (so hit/miss is not
// a scheduling race), two same-seed concurrent runs export byte-identical
// causal traces once sorted by request id — the ids are seeded from
// (query, occurrence), not from thread interleaving, and the racy fetch
// attribution lives in the separate `fetch_events` stream.
#[test]
fn concurrent_same_seed_causal_traces_are_byte_identical() {
    let f = fixture();
    let queries = workload();
    let schedule = zipf_schedule(21, queries.len(), 24);

    let export = || {
        let live = LiveSource::for_site(&f.site.site);
        let coalesced = nalg::CoalescingSource::new(&live);
        let recorder = FlightRecorder::with_capacity(64, 4);
        let server = QueryServer::new(&f.site.site.scheme, &f.catalog, &f.stats, &coalesced)
            .with_admission_capacity(4)
            .with_trace(5)
            .with_flight_recorder(&recorder);
        for q in &queries {
            server.serve(q).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let (server, schedule, queries) = (&server, &schedule, &queries);
                scope.spawn(move || {
                    let mut i = w;
                    while i < schedule.len() {
                        server.serve(&queries[schedule[i]]).unwrap();
                        i += 4;
                    }
                });
            }
        });
        let mut traces = recorder.recent();
        traces.sort_by_key(|t| t.request_id);
        traces.iter().map(|t| t.causal_jsonl()).collect::<String>()
    };

    let a = export();
    let b = export();
    assert!(a.contains("serve.request"));
    assert_eq!(a, b, "concurrent same-seed causal exports drifted");
}

// Coalescing-blind pin on one hot query: many concurrent sessions, every
// session's page accesses equal the oracle's, while the server sees at
// most the sequential GET count (single-flight can only remove GETs).
#[test]
fn coalescing_never_changes_page_accesses_and_only_removes_gets() {
    // A private site: this test reads the server's GET counters, which
    // the shared fixture's concurrent tests would pollute.
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let q = &workload()[1]; // CS professors: a multi-page navigation

    let live = LiveSource::for_site(&u.site);
    let oracle = {
        let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
            .run(q)
            .unwrap();
        (out.report.relation.sorted(), out.report.page_accesses)
    };
    u.site.server.reset_stats();
    QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
        .run(q)
        .unwrap();
    let sequential_gets = u.site.server.stats().gets;

    u.site
        .server
        .set_latency(std::time::Duration::from_millis(1));
    u.site.server.reset_stats();
    let coalesced = nalg::CoalescingSource::new(&live);
    let server =
        QueryServer::new(&u.site.scheme, &catalog, &stats, &coalesced).with_admission_capacity(6);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let (server, oracle) = (&server, &oracle);
            scope.spawn(move || {
                let out = server.serve(q).unwrap().outcome.unwrap();
                assert_eq!(out.report.relation.sorted(), oracle.0);
                assert_eq!(out.report.page_accesses, oracle.1);
            });
        }
    });
    u.site.server.set_latency(std::time::Duration::ZERO);
    let served_gets = u.site.server.stats().gets;
    assert!(
        served_gets <= 6 * sequential_gets,
        "coalescing can only remove GETs: {served_gets} > 6×{sequential_gets}"
    );
    let c = coalesced.stats();
    assert_eq!(
        served_gets,
        6 * sequential_gets - c.saved_gets(),
        "every saved GET is an accounted follower"
    );
}

// Drift regression: quarantining a constraint must invalidate every
// cached plan that depended on it — a re-query after drift is detected
// never answers from the stale plan.
#[test]
fn quarantine_invalidates_dependent_cached_plans() {
    let mut site = University::generate(UniversityConfig::default()).unwrap();
    // The optimizer's knowledge predates the drift.
    let stats = SiteStatistics::from_site(&site.site);
    let catalog = university_catalog();
    let q = ConjunctiveQuery::new("cs-dept")
        .atom("Dept")
        .select((0, "DName"), "Computer Science")
        .project((0, "Address"));
    let q2 = ConjunctiveQuery::new("math-dept")
        .atom("Dept")
        .select((0, "DName"), "Mathematics")
        .project((0, "Address"));

    // Pristine phase: the constraint-licensed plan answers and is cached.
    let health = ConstraintHealth::new();
    {
        let source = LiveSource::for_site(&site.site);
        let server = QueryServer::new(&site.site.scheme, &catalog, &stats, &source).with_policy(
            &ExecPolicy {
                audit: Some((1.0, 7)),
                health: Some(&health),
                ..Default::default()
            },
        );
        let cold = server.serve(&q).unwrap();
        assert!(!cold.cached_plan && !cold.outcome.as_ref().unwrap().fell_back());
        assert!(
            server.serve(&q).unwrap().cached_plan,
            "plan cached while healthy"
        );
        // Another department: the same shape, served by binding that plan.
        let other = server.serve(&q2).unwrap();
        assert!(other.cached_plan && !other.outcome.as_ref().unwrap().fell_back());
        assert_eq!(server.stats().plan_cache.rebinds, 1);
    }

    // The site drifts under the cached plan's feet.
    MutationPlan::new(3)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
        .apply_round(&mut site.site, u64::MAX)
        .unwrap();
    let source = LiveSource::for_site(&site.site);
    let server =
        QueryServer::new(&site.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
            audit: Some((1.0, 7)),
            health: Some(&health),
            ..Default::default()
        });

    // Ground truth on the drifted site: the default navigation.
    let naive = QuerySession::new(&site.site.scheme, &catalog, &stats, &source)
        .with_policy(&ExecPolicy {
            mask: RuleMask::none(),
            ..Default::default()
        })
        .run(&q)
        .unwrap();

    // Post-drift serve 1: the audit catches the violation, the answer
    // falls back (correct), and the poisoned plan is dropped — it is
    // NOT left in the cache.
    let caught = server.serve(&q).unwrap();
    let out = caught.outcome.as_ref().unwrap();
    assert!(out.fell_back(), "full audit must catch the drifted anchor");
    assert_eq!(
        out.report.relation.sorted(),
        naive.report.relation.sorted(),
        "fallback answers like the default navigation"
    );
    assert!(!health.quarantined().is_empty(), "violation quarantines");

    // Post-drift serve 2: the quarantine changed the cache key space and
    // bars the constraint, so this is a fresh optimization (never the
    // stale plan) to a constraint-free plan that answers correctly
    // without falling back.
    let clean = server.serve(&q).unwrap();
    assert!(
        !clean.cached_plan,
        "stale pre-quarantine plan must not serve"
    );
    let out = clean.outcome.as_ref().unwrap();
    assert!(
        !out.fell_back(),
        "quarantine steers around the bad constraint"
    );
    assert_eq!(out.report.relation.sorted(), naive.report.relation.sorted());

    // ...and the constraint-free plan is cacheable like any other.
    assert!(server.serve(&q).unwrap().cached_plan);

    // The quarantine judges the shape, so its other instance fares the
    // same: bound to the constraint-free plan, it answers like its own
    // default navigation without falling back.
    let naive2 = QuerySession::new(&site.site.scheme, &catalog, &stats, &source)
        .with_policy(&ExecPolicy {
            mask: RuleMask::none(),
            ..Default::default()
        })
        .run(&q2)
        .unwrap();
    let quarantined = health.quarantined();
    let trusts_nothing_quarantined = |out: &QueryOutcome| {
        let deps = &out.explain.best().dependencies;
        !deps.iter().any(|d| quarantined.contains(&d.key()))
    };
    let bound = server.serve(&q2).unwrap();
    let out = bound.outcome.as_ref().unwrap();
    assert!(bound.cached_plan && !out.fell_back() && trusts_nothing_quarantined(out));
    assert_eq!(
        out.report.relation.sorted(),
        naive2.report.relation.sorted()
    );

    // And were the stale plan set still cached under the current key (a
    // colliding fingerprint), the hit-time dependency check refuses it to
    // this instance exactly as to the one it was planned for.
    let stale = caught.outcome.as_ref().unwrap().fallback.as_ref().unwrap();
    let (shape, params) = q.shape();
    let key = webviews::serve::PlanKey {
        shape,
        stats_epoch: server.stats_epoch(),
        quarantine_fp: webviews::serve::quarantine_fingerprint(&quarantined),
    };
    assert!(server.plan_cache().remove(&key));
    server
        .plan_cache()
        .insert(key, params, stale.suspect_explain.clone());
    let refused = server.serve(&q2).unwrap();
    let out = refused.outcome.as_ref().unwrap();
    assert!(
        !refused.cached_plan,
        "a tainted plan must not be bound either"
    );
    assert_eq!(server.stats().plan_cache.quarantine_rejections, 1);
    assert!(!out.fell_back() && trusts_nothing_quarantined(out));
    assert_eq!(
        out.report.relation.sorted(),
        naive2.report.relation.sorted()
    );
}

// Plans are cached per shape; maintained views are not. A view answers
// the one exact query it was registered for, constants included.
#[test]
fn a_view_answers_its_exact_query_not_its_shape() {
    use webviews::matview::IncrementalView;
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let dept = |name: &str| {
        ConjunctiveQuery::new(name)
            .atom("Dept")
            .select((0, "DName"), name)
            .project((0, "Address"))
    };
    let (cs, maths) = (dept("Computer Science"), dept("Mathematics"));
    assert_eq!(cs.shape().0, maths.shape().0);

    let mut iv = IncrementalView::new(&u.site.scheme);
    iv.materialize(&u.site.server).unwrap();
    iv.set_cursor(u.site.change_cursor());
    let plan = Optimizer::new(&u.site.scheme, &catalog, &stats)
        .optimize(&cs)
        .unwrap();
    iv.register("cs", cs.cache_key(), &plan.best().expr, &u.site.server)
        .unwrap();
    let views = parking_lot::RwLock::new(iv);

    let source = LiveSource::for_site(&u.site);
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source).with_views(&views);
    let live = |q| {
        let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .run(q)
            .unwrap();
        out.report.relation.sorted()
    };
    let from_view = server.serve(&cs).unwrap();
    assert!(from_view.from_view());
    assert_eq!(from_view.relation().unwrap().sorted(), live(&cs));
    let navigated = server.serve(&maths).unwrap();
    assert!(
        !navigated.from_view(),
        "the view is about another department"
    );
    assert_eq!(navigated.relation().unwrap().sorted(), live(&maths));
    assert_ne!(live(&cs), live(&maths));
    assert_eq!(server.stats().view_hits, 1);
}

// `A='x' AND A='y'` needs no special case: it is a two-class shape like
// any other, planned once, and empty for every instance.
#[test]
fn contradictory_selections_are_an_ordinary_shape_with_an_empty_answer() {
    let f = fixture();
    let live = LiveSource::for_site(&f.site.site);
    let server = QueryServer::new(&f.site.site.scheme, &f.catalog, &f.stats, &live);
    let ranks = |a: &str, b: &str| {
        ConjunctiveQuery::new("two ranks at once")
            .atom("Professor")
            .select((0, "Rank"), a)
            .select((0, "Rank"), b)
            .project((0, "PName"))
    };
    for (i, q) in [ranks("Full", "Associate"), ranks("Assistant", "Full")]
        .iter()
        .enumerate()
    {
        let oracle = QuerySession::new(&f.site.site.scheme, &f.catalog, &f.stats, &live)
            .run(q)
            .unwrap();
        let out = server.serve(q).unwrap();
        assert_eq!(out.cached_plan, i == 1, "cold, then a bound hit");
        let o = out.outcome.unwrap();
        assert!(o.report.relation.is_empty());
        assert_eq!(o.report.relation.sorted(), oracle.report.relation.sorted());
        assert_eq!(o.report.page_accesses, oracle.report.page_accesses);
    }
    // One constant twice is another shape (one class), and not empty.
    let out = server.serve(&ranks("Full", "Full")).unwrap();
    assert!(!out.cached_plan);
    assert!(!out.relation().unwrap().is_empty());
    assert_eq!(server.stats().plan_cache.rebinds, 1);
}

// Statistics recollection on a live server: the epoch bump invalidates
// every cached plan exactly once, and serving continues correctly.
#[test]
fn recollection_is_a_single_epoch_invalidation() {
    let f = fixture();
    let fresh = SiteStatistics::from_site(&f.site.site);
    let live = LiveSource::for_site(&f.site.site);
    let server = QueryServer::new(&f.site.site.scheme, &f.catalog, &f.stats, &live);
    let queries = workload();
    for q in &queries {
        server.serve(q).unwrap();
    }
    assert_eq!(server.stats().plan_cache.entries, queries.len());
    assert_eq!(server.recollect_statistics(&fresh), 1);
    let s = server.stats();
    assert_eq!(s.plan_cache.entries, 0, "every plan belonged to epoch 0");
    assert_eq!(s.plan_cache.invalidations, queries.len() as u64);
    for (i, q) in queries.iter().enumerate() {
        let out = server.serve(q).unwrap();
        assert!(!out.cached_plan);
        let o = out.outcome.unwrap();
        assert_eq!(o.report.relation.sorted(), f.oracle[i].0);
        assert_eq!(o.report.page_accesses, f.oracle[i].1);
    }
}

// `Explain::bind` rewrites every constant equal to a stored parameter; it
// cannot tell a query's constant from one a default navigation selects on.
// Both shipped catalogs keep σ out of their navigations; a catalog that
// does not must still be answered correctly, so plans over such a relation
// are never cached.
#[test]
fn a_navigation_that_selects_on_a_constant_is_planned_every_time() {
    use webviews::wvcore::{DefaultNavigation, ExternalRelation};
    let f = fixture();
    let courses = NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse", "CoursePage");
    let catalog = ViewCatalog::new()
        .with(ExternalRelation::new(
            "GraduateCourse",
            vec!["CName", "Session"],
            vec![DefaultNavigation::new(
                courses.select(Pred::eq("CoursePage.Type", "Graduate")),
                vec![
                    ("CName", "CoursePage.CName"),
                    ("Session", "CoursePage.Session"),
                ],
            )],
        ))
        .with(ExternalRelation::new(
            "Dept",
            vec!["DName"],
            vec![DefaultNavigation::new(
                NalgExpr::entry("DeptListPage").unnest("DeptList"),
                vec![("DName", "DeptListPage.DeptList.DName")],
            )],
        ));
    catalog.validate(&f.site.site.scheme).unwrap();
    let in_session = |session: &str| {
        ConjunctiveQuery::new("graduate courses of a session")
            .atom("GraduateCourse")
            .select((0, "Session"), session)
            .project((0, "CName"))
    };
    let expected = |session: &str| {
        let mut names: Vec<String> = f
            .site
            .expected_course()
            .into_iter()
            .filter(|(_, s, _, t)| s == session && t == "Graduate")
            .map(|(name, ..)| name)
            .collect();
        names.sort();
        names
    };
    let live = LiveSource::for_site(&f.site.site);
    let server = QueryServer::new(&f.site.site.scheme, &catalog, &f.stats, &live);
    // The first instance's constant happens to be the navigation's own.
    for session in ["Graduate", "Fall", "Winter"] {
        let out = server.serve(&in_session(session)).unwrap();
        let mut got: Vec<String> = out
            .relation()
            .unwrap()
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        got.sort();
        assert_eq!(got, expected(session), "{session}");
        assert!(!out.cached_plan, "{session}: planned, not bound");
    }
    assert!(expected("Graduate").is_empty() && !expected("Fall").is_empty());
    let cache = server.stats().plan_cache;
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 3, 0));
    // A relation whose navigation carries no constant is cached as ever.
    let depts = ConjunctiveQuery::new("departments")
        .atom("Dept")
        .project((0, "DName"));
    assert!(!server.serve(&depts).unwrap().cached_plan);
    assert!(server.serve(&depts).unwrap().cached_plan);
}

// The policy is declared once and handed down, so a field set on an owner
// must reach the evaluation it owns. One row per field: each sets the
// field on a server — and on a materialized-view session where the field
// applies — and checks the field's mark on what was served.
#[test]
fn every_policy_field_reaches_evaluation_from_every_owner() {
    use webviews::nalg::SharedPageCache;
    use webviews::wvcore::{DefaultNavigation, ExternalRelation};
    let query = |name: &str, rel: &str, attr: &str, value: &str, out: &str| {
        ConjunctiveQuery::new(name)
            .atom(rel)
            .select((0, attr), value)
            .project((0, out))
    };
    let cs_dept = query("cs-dept", "Dept", "DName", "Computer Science", "Address");
    let graduate = query("graduate", "Course", "Type", "Graduate", "CName");
    // A navigation whose selection sits above a follow when the rules are
    // off: the relevance monitor's case.
    let dept_profs = ViewCatalog::new().with(ExternalRelation::new(
        "DeptProf",
        vec!["DName", "PName"],
        vec![DefaultNavigation::new(
            NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .follow("ToDept", "DeptPage")
                .unnest("DeptPage.ProfList")
                .follow("DeptPage.ProfList.ToProf", "ProfPage"),
            vec![("DName", "DeptPage.DName"), ("PName", "ProfPage.PName")],
        )],
    ));
    let cs_profs = query("cs profs", "DeptProf", "DName", "Computer Science", "PName");
    fn exec(eval: EvalPolicy<'_>) -> ExecPolicy<'_> {
        ExecPolicy {
            eval,
            ..Default::default()
        }
    }
    fn unmasked(eval: EvalPolicy<'_>) -> ExecPolicy<'_> {
        ExecPolicy {
            mask: RuleMask::none(),
            ..exec(eval)
        }
    }

    for field in [
        "degradation",
        "fetch",
        "shared_cache",
        "relevance",
        "mask",
        "audit",
        "health",
    ] {
        let mut u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let shared = SharedPageCache::default();
        let health = ConstraintHealth::new();
        let hedge = HedgeConfig::new(500);
        let (catalog, q, policy) = match field {
            "degradation" => {
                u.site.server.set_fault_plan(
                    FaultPlan::new(4).with_rule(
                        FaultRule::timeouts(1.0)
                            .for_url_prefix("/univ/course/")
                            .with_max_per_url(None),
                    ),
                );
                let eval = EvalPolicy {
                    degradation: DegradationMode::Partial,
                    ..Default::default()
                };
                (university_catalog(), graduate.clone(), exec(eval))
            }
            "fetch" => {
                u.site.server.set_latency_profile(LatencyProfile {
                    floor_us: 100,
                    tail_us: 5_000,
                    tail_rate: 0.2,
                    seed: 7,
                });
                let fetch = Fetch::hedged(3, hedge.clone());
                let eval = EvalPolicy {
                    fetch,
                    ..Default::default()
                };
                (university_catalog(), graduate.clone(), exec(eval))
            }
            "shared_cache" => {
                let eval = EvalPolicy {
                    shared_cache: Some(&shared),
                    ..Default::default()
                };
                (university_catalog(), graduate.clone(), exec(eval))
            }
            "relevance" => {
                let eval = EvalPolicy {
                    relevance: true,
                    ..Default::default()
                };
                (dept_profs.clone(), cs_profs.clone(), unmasked(eval))
            }
            "mask" => (
                university_catalog(),
                cs_dept.clone(),
                unmasked(EvalPolicy::default()),
            ),
            "audit" => {
                let policy = ExecPolicy {
                    audit: Some((1.0, 7)),
                    ..Default::default()
                };
                (university_catalog(), cs_dept.clone(), policy)
            }
            "health" => {
                MutationPlan::new(3)
                    .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
                    .apply_round(&mut u.site, u64::MAX)
                    .unwrap();
                let policy = ExecPolicy {
                    audit: Some((1.0, 7)),
                    health: Some(&health),
                    ..Default::default()
                };
                (university_catalog(), cs_dept.clone(), policy)
            }
            other => unreachable!("{other}"),
        };
        // What the same owner serves under the default policy.
        let baseline = ExecPolicy {
            mask: policy.mask,
            ..Default::default()
        };
        let live = LiveSource::for_site(&u.site);
        let serve = |policy: &ExecPolicy<'_>| {
            let server =
                QueryServer::new(&u.site.scheme, &catalog, &stats, &live).with_policy(policy);
            let first = server.serve(&q).map(|s| s.outcome.unwrap());
            let second = server.serve(&q).map(|s| s.outcome.unwrap());
            (first, second)
        };
        let mut store = MatStore::new();
        if field != "degradation" {
            store.materialize(&u.site.scheme, &u.site.server).unwrap();
        }
        let mut answer = |policy: &ExecPolicy<'_>| {
            MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server)
                .with_policy(policy)
                .run(&mut store, &q)
        };

        let (first, second) = serve(&policy);
        let (first, second) = (first.unwrap(), second.unwrap());
        let report = &first.report;
        match field {
            "degradation" => {
                assert!(serve(&baseline).0.is_err(), "fail-fast aborts");
                assert!(!report.unreachable.is_empty(), "{field}: skipped pages");
                let out = answer(&policy).unwrap();
                assert!(!out.unreachable.is_empty(), "{field}: store session");
            }
            "fetch" => {
                assert!(hedge.hedges.get() > 0, "{field}: the pool hedged");
                // A URL check is a light connection, not a GET to race: a
                // store session runs the pool without hedging.
                let hedges = hedge.hedges.get();
                let pooled = answer(&policy).unwrap();
                assert_eq!(hedge.hedges.get(), hedges, "{field}: store session");
                let inline = answer(&baseline).unwrap();
                assert_eq!(pooled.relation.sorted(), inline.relation.sorted());
                assert_eq!(pooled.counters, inline.counters);
            }
            "shared_cache" => {
                assert_eq!(report.shared_cache_hits, 0);
                assert_eq!(second.report.shared_cache_hits, report.page_accesses);
                shared.clear();
                answer(&policy).unwrap();
                assert!(
                    !shared.is_empty(),
                    "{field}: the store session writes through"
                );
            }
            "relevance" => {
                assert!(!report.cancelled.is_empty(), "{field}: dead pages skipped");
                let pruned = answer(&policy).unwrap();
                let full = answer(&baseline).unwrap();
                assert_eq!(pruned.relation.sorted(), full.relation.sorted());
                assert!(
                    pruned.counters.light_connections < full.counters.light_connections,
                    "{field}: store session"
                );
            }
            "mask" => {
                let optimized = serve(&ExecPolicy::default()).0.unwrap().report;
                assert!(report.cost_model_accesses() > optimized.cost_model_accesses());
                assert!(first.explain.best().dependencies.is_empty());
                let out = answer(&policy).unwrap();
                assert!(out.explain.best().dependencies.is_empty(), "{field}: store");
            }
            "audit" => assert!(report.audit.is_some(), "{field}: the plan was audited"),
            "health" => {
                assert!(first.fell_back());
                assert!(
                    !second.explain.quarantined.is_empty(),
                    "{field}: quarantine"
                );
                let out = answer(&policy).unwrap();
                assert!(
                    !out.explain.quarantined.is_empty(),
                    "{field}: store session"
                );
            }
            _ => unreachable!(),
        }
    }
}

/// The seven hot queries of E4/E6 in popularity order, as the perf
/// ledger's `hot_navigate` / `net_overlap` workloads ask them.
const HOT_QUERIES: [&str; 7] = [
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

/// The ledger's hot schedule, restated: every 100-request cycle holds
/// query `q` its Zipf(1.1) share of the cycle (largest remainder), in an
/// order shuffled per cycle by splitmix64 seeded from `seed`.
fn hot_schedule(seed: u64, cycles: usize) -> Vec<usize> {
    let (n, cycle) = (HOT_QUERIES.len(), 100);
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * cycle as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    let short = cycle - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let base: Vec<usize> = (0..n)
        .flat_map(|q| std::iter::repeat_n(q, counts[q]))
        .collect();
    let mut state = seed ^ 0xa076_1d64_78bd_642f;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    next();
    let mut out = Vec::with_capacity(cycle * cycles);
    for _ in 0..cycles {
        let mut c = base.clone();
        for i in (1..c.len()).rev() {
            c.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        out.extend(c);
    }
    out
}

// The shared cache's eviction policy, pinned on the workload it is tuned
// for: the hot schedule served one request at a time over the medium site.
// The cache is invisible to the paper's accounting: every answer's rows,
// and its downloads plus shared-cache hits, equal the cache-less oracle's.
//
// At 256 KiB the encoded working set (≈ 147 KB) fits, and nothing is
// evicted. The one page that does not fit is the 15.9 KB Fall session
// page, which q2 and q4 read: it is more than a 16 KiB shard's main queue
// may hold, so the cache refuses it rather than flush the shard for it.
// Fetching it is most of the replay's 0.19 GETs a request. At 128 KiB the
// working set does not fit and the scans (q4's 354 pages, q2's 310) evict
// thousands of pages, yet the professor pages that q0 and q5, 47 % of the
// requests, read again survive them: each of the two sends under 2 % of
// its pages to the network, where q4 sends a fifth of its own.
#[test]
fn a_small_shared_cache_keeps_the_hot_pages_through_the_scans() {
    let u = University::generate(UniversityConfig {
        departments: 10,
        professors: 200,
        courses: 1_000,
        ..UniversityConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let live = LiveSource::for_site(&u.site);
    let queries: Vec<ConjunctiveQuery> = HOT_QUERIES
        .iter()
        .map(|sql| parse_query(sql, &catalog).unwrap())
        .collect();
    let oracle: Vec<(Relation, u64)> = queries
        .iter()
        .map(|q| {
            let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
                .run(q)
                .unwrap();
            (out.report.relation.sorted(), out.report.page_accesses)
        })
        .collect();
    // GETs a request of each query, and the cache's counters, after a
    // warm-up pass and 600 scheduled requests
    let replay = |budget: usize| {
        let cache = nalg::SharedPageCache::with_byte_budget(budget);
        let server =
            QueryServer::new(&u.site.scheme, &catalog, &stats, &live).with_shared_cache(&cache);
        let serve = |qi: usize| {
            let out = server.serve(&queries[qi]).unwrap().outcome.unwrap();
            assert_eq!(
                out.report.relation.sorted(),
                oracle[qi].0,
                "{}",
                HOT_QUERIES[qi]
            );
            assert_eq!(
                out.report.page_accesses + out.report.shared_cache_hits,
                oracle[qi].1,
                "{}",
                HOT_QUERIES[qi]
            );
        };
        for qi in 0..queries.len() {
            serve(qi);
        }
        let schedule = hot_schedule(7, 6);
        let mut gets = [(0u64, 0u64); HOT_QUERIES.len()];
        for &qi in &schedule {
            let before = u.site.server.stats().gets;
            serve(qi);
            gets[qi].0 += u.site.server.stats().gets - before;
            gets[qi].1 += 1;
        }
        let total: u64 = gets.iter().map(|g| g.0).sum();
        let per_req = total as f64 / schedule.len() as f64;
        let per_query: Vec<f64> = gets.iter().map(|&(g, n)| g as f64 / n as f64).collect();
        eprintln!(
            "{} KiB: GETs/request {per_req:.2}; per query {per_query:.1?}; {:?}",
            budget >> 10,
            cache.stats()
        );
        (per_req, per_query, cache.stats())
    };

    let (per_req, per_query, cache) = replay(256 * 1024);
    assert!(
        per_req <= 0.25,
        "GETs/request {per_req:.2} ({per_query:.1?})"
    );
    assert_eq!(cache.evictions, 0, "{cache:?}");
    assert!(cache.rejected_oversize > 0, "the session page: {cache:?}");

    let (_, per_query, cache) = replay(128 * 1024);
    assert!(cache.evictions >= 2_000, "the scans evict: {cache:?}");
    let sent = |qi: usize| per_query[qi] / oracle[qi].1 as f64;
    for popular in [0, 5] {
        assert!(sent(popular) < 0.02, "q{popular}: {per_query:.1?}");
    }
    assert!(sent(4) > 0.1, "q4 is not the scan it was: {per_query:.1?}");
}
