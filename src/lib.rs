//! # webviews — Efficient Queries over Web Views
//!
//! A full reproduction of *Efficient Queries over Web Views*
//! (G. Mecca, A. Mendelzon, P. Merialdo — EDBT 1998) as a Rust workspace:
//! relational views over structured web sites, translated by a
//! constraint-driven optimizer into navigation plans that minimize network
//! page accesses.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`adm`] | the Araneus data model: page-schemes, nested relations, link & inclusion constraints |
//! | [`websim`] | the simulated web: virtual server (GET/HEAD + counters), HTML generation, site generators |
//! | [`wrapper`] | HTML tokenizer, mini-DOM, scheme-driven extraction into nested tuples |
//! | [`nalg`] | the navigational algebra: expressions, plan display, evaluation, and the page-source wrappers (coalescing; retries behind circuit breakers) |
//! | [`wvcore`] | the optimizer: rewrite rules 2–9, statistics, cost model, Algorithm 1, constraint health |
//! | [`wvquery`] | the SQL-subset front end |
//! | [`matview`] | the materialized view and its one maintenance engine: URLCheck + Algorithm 3 (pull mode), change-feed ± deltas with byte-budgeted partial state and upqueries (push mode) |
//! | [`obs`] | observability: structured tracing, metrics registry, EXPLAIN ANALYZE plumbing |
//! | [`serve`] | multi-tenant serving: plan cache keyed on the query's constant-free shape, admission control |
//!
//! ## Quickstart
//!
//! ```
//! use webviews::prelude::*;
//!
//! // 1. generate the paper's university site (Figure 1)
//! let site = University::generate(UniversityConfig::default()).unwrap();
//!
//! // 2. collect statistics and set up a query session over the live site
//! let stats = SiteStatistics::from_site(&site.site);
//! let catalog = university_catalog();
//! let source = LiveSource::for_site(&site.site);
//! let session = QuerySession::new(&site.site.scheme, &catalog, &stats, &source);
//!
//! // 3. pose an SQL query against the relational view
//! let q = parse_query(
//!     "SELECT PName FROM Professor WHERE Rank = 'Full'",
//!     &catalog,
//! ).unwrap();
//!
//! // 4. the optimizer picks a navigation plan; the evaluator runs it
//! let outcome = session.run(&q).unwrap();
//! assert!(!outcome.report.relation.is_empty());
//! println!("{}", outcome.explain.report());
//! ```

pub use adm;
pub use matview;
/// The former crate name of the push mode, kept because
/// `benchmark/src/api.rs` names `webviews::dataflow::IncrementalView`.
pub use matview as dataflow;
pub use nalg;
pub use obs;
pub use serve;
pub use websim;
pub use wrapper;
pub use wvcore;
pub use wvquery;

/// Everything needed for typical use, importable in one line.
pub mod prelude {
    pub use adm::{
        AttrRef, Field, InclusionConstraint, LinkConstraint, PageScheme, Relation, Tuple, Url,
        Value, WebScheme, WebType,
    };
    pub use matview::{DeltaReport, IncrementalView, MatOutcome, MatSession, MatStore};
    pub use nalg::{
        CoalescingSource, DegradationMode, EvalPolicy, EvalReport, Evaluator, Fetch, HedgeConfig,
        NalgExpr, PageSource, Pred, ResilienceSnapshot, ResilientSource,
    };
    pub use obs::{
        CancelToken, Deadline, EventKind, FixedHistogram, FlightDump, FlightRecorder,
        LatencyObjective, MetricsRegistry, PhaseBreakdown, RequestTrace, SloSnapshot, SloTracker,
        TraceSink, TriggerKind,
    };
    pub use serve::{PlanCache, QueryServer, ServeOutcome, ServerStats};
    pub use websim::mutation::{MutationPlan, MutationRule};
    pub use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
    pub use websim::{FaultPlan, FaultRule, LatencyProfile, Site, VirtualServer};
    pub use wrapper::wrap_page;
    pub use wvcore::views::{bibliography_catalog, university_catalog};
    pub use wvcore::{
        ConjunctiveQuery, ConstraintDependency, ConstraintHealth, Cost, ExecPolicy, Explain,
        ExplainAnalyze, FallbackOutcome, LiveSource, Optimizer, QueryOutcome, QuerySession,
        RuleMask, SiteStatistics, ViewCatalog,
    };
    pub use wvquery::parse_query;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links() {
        let ws = websim::sitegen::university::university_scheme().unwrap();
        assert!(ws.is_entry_point("HomePage"));
        let q = ConjunctiveQuery::new("t")
            .atom("Professor")
            .project((0, "PName"));
        assert_eq!(q.atoms.len(), 1);
    }

    // The README's "Surviving site drift" walkthrough, verbatim in spirit:
    // drift breaks a constraint, the audit catches it, the fallback answers,
    // and the next run routes around the quarantined constraint.
    #[test]
    fn readme_drift_walkthrough() {
        let mut site = University::generate(UniversityConfig::default()).unwrap();
        MutationPlan::new(3)
            .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
            .apply_round(&mut site.site, u64::MAX)
            .unwrap();

        let stats = SiteStatistics::from_site(&site.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&site.site);
        let health = ConstraintHealth::new();
        let policy = ExecPolicy {
            audit: Some((1.0, 7)),
            health: Some(&health),
            ..Default::default()
        };
        let session =
            QuerySession::new(&site.site.scheme, &catalog, &stats, &source).with_policy(&policy);

        let q = ConjunctiveQuery::new("cs-dept")
            .atom("Dept")
            .select((0, "DName"), "Computer Science")
            .project((0, "Address"));
        let outcome = session.run(&q).unwrap();
        assert!(outcome.fell_back());
        let fb = outcome.fallback.as_ref().unwrap();
        assert!(!fb.violated.is_empty());
        assert!(fb.diverged);

        let again = session.run(&q).unwrap();
        assert!(!again.fell_back());
        assert!(again.explain.report().contains("quarantined (excluded"));
    }

    // The README's "Operating the server" walkthrough: a fully observed
    // server hands every request a deterministic id, a phase breakdown,
    // a causal trace in the flight recorder, and an SLO score — without
    // touching the answer.
    #[test]
    fn readme_operating_walkthrough() {
        let site = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&site.site);
        let catalog = university_catalog();
        let live = LiveSource::for_site(&site.site);
        let coalesced = CoalescingSource::new(&live);

        let slo = SloTracker::new(LatencyObjective::new("serve", 250_000, 0.99));
        let recorder = FlightRecorder::new();
        let server = QueryServer::new(&site.site.scheme, &catalog, &stats, &coalesced)
            .with_admission_capacity(4)
            .with_trace(42)
            .with_slo(&slo)
            .with_flight_recorder(&recorder);

        let q = ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        let out = server.serve(&q).unwrap();

        let rid = out.request_id.unwrap();
        let _phases = out.phases.unwrap();

        let trace = &recorder.recent()[0];
        assert_eq!(trace.request_id, rid);
        assert!(trace.causal_jsonl().contains("serve.request"));

        let snap = slo.snapshot();
        assert_eq!(snap.total, 1);
        assert!(snap.to_json().contains("p99_us"));
    }

    // The README's "Keeping a view fresh incrementally" walkthrough: a
    // registered view tracks a mutating site through ± delta propagation,
    // fetching only changed pages, and the answer always matches live
    // evaluation.
    #[test]
    fn readme_incremental_walkthrough() {
        let mut site = University::generate(UniversityConfig::default()).unwrap();
        let ws = site.site.scheme.clone();

        // Materialize the site once, then register a view over it.
        let mut views = IncrementalView::new(&ws);
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

        // The site drifts: some professors change rank.
        let plan = MutationPlan::new(5).with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.4));
        let mutated = plan.apply_round(&mut site.site, 0).unwrap();
        assert!(mutated.edited_pages > 0);

        // One sync drains the change feed — fetching only what changed.
        let report = views.sync(&site.site).unwrap();
        assert_eq!(report.changes_seen, mutated.total());
        assert!(report.pages_fetched <= report.changes_seen);

        // The maintained answer matches a from-scratch live evaluation.
        let source = LiveSource::new(&ws, &site.site.server);
        let live = Evaluator::new(&ws, &source)
            .eval(&profs)
            .unwrap()
            .relation
            .sorted();
        assert_eq!(views.answer("profs").unwrap().sorted(), live);
    }

    // The README's "Running the server workload" walkthrough: a shared
    // QueryServer over a coalescing source serves concurrent sessions,
    // repeated queries hit the plan cache, and the answers stay
    // byte-identical to a plain sequential session.
    #[test]
    fn readme_serving_walkthrough() {
        let site = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&site.site);
        let catalog = university_catalog();
        let live = LiveSource::for_site(&site.site);
        let coalesced = CoalescingSource::new(&live);
        let server = QueryServer::new(&site.site.scheme, &catalog, &stats, &coalesced)
            .with_admission_capacity(4);

        let q = ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        let baseline = QuerySession::new(&site.site.scheme, &catalog, &stats, &live)
            .run(&q)
            .unwrap();

        // First request optimizes and fills the plan cache...
        assert!(!server.serve(&q).unwrap().cached_plan);
        // ...then concurrent sessions reuse the plan and share fetches.
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (server, q, baseline) = (&server, &q, &baseline);
                scope.spawn(move || {
                    let out = server.serve(q).unwrap();
                    assert!(out.cached_plan);
                    let out = out.outcome.unwrap();
                    assert_eq!(
                        out.report.relation.sorted(),
                        baseline.report.relation.sorted()
                    );
                    assert_eq!(out.report.page_accesses, baseline.report.page_accesses);
                });
            }
        });
        // ...and so does the same question about another rank: one
        // shape, one plan, bound to this request's constant.
        let associates = ConjunctiveQuery::new("associate professors")
            .atom("Professor")
            .select((0, "Rank"), "Associate")
            .project((0, "PName"));
        let bound = server.serve(&associates).unwrap();
        assert!(bound.cached_plan);
        let expected = QuerySession::new(&site.site.scheme, &catalog, &stats, &live)
            .run(&associates)
            .unwrap();
        assert_eq!(
            bound.relation().unwrap().sorted(),
            expected.report.relation.sorted()
        );
        let s = server.stats();
        assert_eq!(s.requests, 5);
        assert_eq!(s.plan_cache.hits, 4, "one miss fills, the rest hit");
        assert_eq!(s.plan_cache.rebinds, 1);
        let prom = server.metrics().render_prometheus();
        assert!(prom.contains("serve_requests 5") && prom.contains("serve_plan_rebinds 1"));
    }

    // The README's "Bounding tail latency" walkthrough: under seeded
    // latency-only chaos a budgeted, hedged, relevance-cancelling server
    // still answers byte-exactly within a generous budget, and an
    // already-expired request browns out honestly as an empty partial.
    #[test]
    fn readme_tail_latency_walkthrough() {
        let site = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&site.site);
        let catalog = university_catalog();
        let live = LiveSource::for_site(&site.site);
        let coalesced = CoalescingSource::new(&live);

        site.site.server.set_latency_profile(LatencyProfile {
            floor_us: 100,
            tail_us: 5_000,
            tail_rate: 0.2,
            seed: 7,
        });

        let hedge = HedgeConfig::new(500);
        let policy = ExecPolicy {
            eval: EvalPolicy {
                fetch: Fetch::hedged(3, hedge.clone()),
                relevance: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = QueryServer::new(&site.site.scheme, &catalog, &stats, &coalesced)
            .with_policy(&policy)
            .with_deadline_budget(250_000);

        let q = ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));

        let out = server.serve(&q).unwrap();
        assert!(!out.brown_out);
        let report = out.outcome.unwrap().report;
        assert!(report.is_complete() && !report.deadline_exceeded);

        assert!(hedge.hedge_wins.get() <= hedge.hedges.get());

        let expired = server
            .serve_with_deadline(&q, Deadline::after_us(0))
            .unwrap();
        assert!(expired.brown_out && expired.outcome.is_none());
        site.site.server.clear_latency_profile();
    }
}
