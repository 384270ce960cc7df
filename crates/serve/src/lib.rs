//! # serve — the multi-tenant query-serving layer
//!
//! The paper optimizes one query at a time; production is a long-lived
//! server fielding many concurrent sessions over one site — interactive,
//! read-heavy, and heavily skewed toward a few popular queries. This
//! crate supplies the layer that exploits exactly that shape:
//!
//! * [`PlanCache`] (defined in `wvcore`, beside the session that consults
//!   it) — one rule 1–9 enumeration per query *shape*: plans are cached
//!   under `(the query with its constants taken out, statistics epoch,
//!   quarantine fingerprint)`, bound to a request's own constants on a
//!   hit, and explicitly invalidated when statistics are recollected or
//!   [`wvcore::ConstraintHealth`] quarantines/readmits a constraint,
//!   with hit/miss/rebind/evict counters under the `serve` metrics prefix;
//! * [`QueryServer`] — owns that cache and the statistics epoch, and adds
//!   admission control (bounded concurrent sessions, shed-with-partial
//!   beyond the limit, via [`AdmissionControl`]) around a
//!   cheap borrowed [`wvcore::QuerySession`] per request, whose `run`
//!   does the lookup, the planning on a miss and the cache fill;
//! * pairs with [`nalg::CoalescingSource`] so concurrent sessions
//!   chasing the same hot URL share one in-flight GET.
//!
//! Everything stays **paper-blind**: plan caching and coalescing change
//! server CPU and GET counts only — every session's answer rows and
//! `page_accesses` are byte-identical to an unserved sequential run
//! (pinned by the seeded simulation, `tests/sim.rs` at the workspace
//! root).
//!
//! ```
//! use serve::QueryServer;
//! use websim::sitegen::{University, UniversityConfig};
//! use wvcore::views::university_catalog;
//! use wvcore::{ConjunctiveQuery, LiveSource, SiteStatistics};
//!
//! let site = University::generate(UniversityConfig::default()).unwrap();
//! let stats = SiteStatistics::from_site(&site.site);
//! let catalog = university_catalog();
//! let live = LiveSource::for_site(&site.site);
//! let coalesced = nalg::CoalescingSource::new(&live);
//! let server = QueryServer::new(&site.site.scheme, &catalog, &stats, &coalesced);
//!
//! let q = ConjunctiveQuery::new("full professors")
//!     .atom("Professor")
//!     .select((0, "Rank"), "Full")
//!     .project((0, "PName"));
//! let first = server.serve(&q).unwrap();
//! let second = server.serve(&q).unwrap();
//! assert!(!first.cached_plan && second.cached_plan);
//! // Another rank is the same shape: planned already, bound on the hit.
//! let associates = ConjunctiveQuery::new("associate professors")
//!     .atom("Professor")
//!     .select((0, "Rank"), "Associate")
//!     .project((0, "PName"));
//! assert!(server.serve(&associates).unwrap().cached_plan);
//! let cache = server.stats().plan_cache;
//! assert_eq!((cache.hits, cache.misses, cache.rebinds), (2, 1, 1));
//! ```

// Shipping code reports failures as errors; only tests may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod admission;
pub mod server;

// The plan cache lives in `wvcore`, beside the session that consults it;
// the names this crate used to define stay importable from here.
pub use admission::{AdmissionControl, AdmissionPermit, AdmissionStats};
pub use server::{QueryServer, ServeOutcome, ServerStats};
pub use wvcore::plan_cache::{quarantine_fingerprint, PlanCache, PlanCacheStats, PlanKey};

#[cfg(test)]
mod tests {
    use super::*;
    use nalg::EvalPolicy;
    use websim::sitegen::{University, UniversityConfig};
    use wvcore::views::university_catalog;
    use wvcore::{ConjunctiveQuery, ExecPolicy, LiveSource, SiteStatistics};

    fn query(name: &str) -> ConjunctiveQuery {
        match name {
            "profs" => ConjunctiveQuery::new("profs")
                .atom("Professor")
                .select((0, "Rank"), "Full")
                .project((0, "PName")),
            "depts" => ConjunctiveQuery::new("depts")
                .atom("Dept")
                .project((0, "DName"))
                .project((0, "Address")),
            other => panic!("unknown query {other}"),
        }
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache_with_identical_answers() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source);
        let q = query("profs");
        let cold = server.serve(&q).unwrap();
        let warm = server.serve(&q).unwrap();
        assert!(!cold.cached_plan);
        assert!(warm.cached_plan);
        let (cold, warm) = (cold.outcome.unwrap(), warm.outcome.unwrap());
        assert_eq!(cold.report.relation.sorted(), warm.report.relation.sorted());
        assert_eq!(cold.report.page_accesses, warm.report.page_accesses);
        // A differently *named* but identical query still hits.
        let renamed = query("profs");
        let mut renamed = renamed;
        renamed.name = "another label".to_string();
        assert!(server.serve(&renamed).unwrap().cached_plan);
        let s = server.stats();
        assert_eq!((s.plan_cache.hits, s.plan_cache.misses), (2, 1));
        assert_eq!(s.requests, 3);
    }

    #[test]
    fn recollecting_statistics_invalidates_cached_plans() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let stats2 = stats.clone();
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source);
        let q = query("depts");
        server.serve(&q).unwrap();
        assert!(server.serve(&q).unwrap().cached_plan);
        assert_eq!(server.recollect_statistics(&stats2), 1);
        assert_eq!(server.stats_epoch(), 1);
        let refreshed = server.serve(&q).unwrap();
        assert!(!refreshed.cached_plan, "old-epoch plan must not serve");
        let s = server.stats();
        assert!(s.plan_cache.invalidations >= 1);
        // …and the re-optimized plan caches under the new epoch.
        assert!(server.serve(&q).unwrap().cached_plan);
    }

    #[test]
    fn admission_sheds_beyond_capacity_with_partial_outcome() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let server =
            QueryServer::new(&u.site.scheme, &catalog, &stats, &source).with_admission_capacity(1);
        // Hold the only slot, then serve: the request is shed, not run.
        let permit = server.admission().try_admit().expect("slot");
        let shed = server.serve(&query("profs")).unwrap();
        assert!(shed.shed && !shed.is_complete());
        assert!(shed.outcome.is_none(), "no rows: an empty partial answer");
        drop(permit);
        let ok = server.serve(&query("profs")).unwrap();
        assert!(ok.is_complete() && ok.outcome.is_some());
        let s = server.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.requests, 2);
    }

    #[test]
    fn serve_metrics_register_under_serve_prefix() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source);
        server.serve(&query("profs")).unwrap();
        server.serve(&query("profs")).unwrap();
        let prom = server.metrics().render_prometheus();
        assert!(prom.contains("serve_requests 2"));
        assert!(prom.contains("serve_plan_hits 1"));
        assert!(prom.contains("serve_plan_misses 1"));
        assert!(prom.contains("serve_plan_rebinds 0"));
        assert!(prom.contains("serve_shed 0"));
    }

    #[test]
    fn maintained_views_answer_without_navigation_and_degrade_to_live() {
        use matview::IncrementalView;
        use nalg::NalgExpr;
        use parking_lot::RwLock;
        use websim::{FaultPlan, FaultRule};

        let mut u = University::generate(UniversityConfig::default()).unwrap();
        let ws = u.site.scheme.clone();
        let q = query("depts");
        let expr = NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .follow("ToDept", "DeptPage")
            .project(vec!["DeptPage.DName", "DeptPage.Address"]);

        let mut iv = IncrementalView::new(&ws);
        iv.materialize(&u.site.server).unwrap();
        iv.set_cursor(u.site.change_cursor());
        iv.register("depts", q.cache_key(), &expr, &u.site.server)
            .unwrap();

        // Degrade the view before the server exists: evict the dept pages,
        // time them out, and change the entry page so the follow must
        // upquery them.
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
        let (list_url, list) = u.site.instance("DeptListPage")[0].clone();
        let mut depts = list
            .get("DeptList")
            .and_then(adm::Value::as_list)
            .unwrap()
            .to_vec();
        depts.reverse();
        u.site
            .republish(
                "DeptListPage",
                list_url,
                adm::Tuple::new().with_list("DeptList", depts),
                "Depts",
            )
            .unwrap();
        iv.sync(&u.site).unwrap();
        assert!(iv.is_degraded(&q.cache_key()));
        u.site.server.clear_fault_plan();
        let views = RwLock::new(iv);

        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source).with_views(&views);

        // Degraded view → live evaluation, with real page accesses.
        let live = server.serve(&q).unwrap();
        assert!(!live.from_view());
        let oracle = live.relation().unwrap().sorted();
        assert!(live.outcome.as_ref().unwrap().report.page_accesses > 0);

        // One change-free sync rebuilds the view; the server now answers
        // from maintained state with zero page accesses.
        views.write().sync(&u.site).unwrap();
        u.site.server.reset_stats();
        let hit = server.serve(&q).unwrap();
        assert!(hit.from_view() && hit.outcome.is_none());
        assert_eq!(u.site.server.stats().gets, 0, "view answers fetch nothing");
        assert_eq!(hit.relation().unwrap().sorted(), oracle);

        let s = server.stats();
        assert_eq!((s.view_hits, s.view_fallbacks), (1, 1));
        assert_eq!(s.requests, 2);
        let prom = server.metrics().render_prometheus();
        assert!(prom.contains("serve_views_answered 1"));
        assert!(prom.contains("serve_views_fallback 1"));
    }

    #[test]
    fn traced_serving_is_paper_blind_and_causally_deterministic() {
        use obs::{EventKind, FlightRecorder};

        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);

        let plain = QueryServer::new(&u.site.scheme, &catalog, &stats, &source);
        let serve_all = |server: &QueryServer<'_, _>| {
            ["profs", "depts", "profs"]
                .iter()
                .map(|n| server.serve(&query(n)).unwrap())
                .collect::<Vec<_>>()
        };
        let oracle = serve_all(&plain);

        let runs: Vec<(Vec<ServeOutcome>, Vec<String>)> = (0..2)
            .map(|_| {
                let rec = FlightRecorder::new();
                let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
                    .with_trace(42)
                    .with_flight_recorder(&rec);
                let outs = serve_all(&server);
                let causal: Vec<String> = rec.recent().iter().map(|t| t.causal_jsonl()).collect();
                (outs, causal)
            })
            .collect();

        for (outs, _) in &runs {
            for (o, base) in outs.iter().zip(&oracle) {
                // Tracing on/off is byte-identical in rows and accesses.
                assert_eq!(
                    o.relation().unwrap().sorted(),
                    base.relation().unwrap().sorted()
                );
                assert_eq!(
                    o.outcome.as_ref().unwrap().report.page_accesses,
                    base.outcome.as_ref().unwrap().report.page_accesses
                );
                assert!(o.request_id.is_some() && o.phases.is_some());
            }
            // Repeats of the same query get distinct request ids.
            assert_ne!(outs[0].request_id, outs[2].request_id);
        }
        // Same seed, same sequence → byte-identical causal exports.
        assert_eq!(runs[0].1, runs[1].1);

        // The trace is a tree under one serve.request root: admission,
        // plan-cache, planner, and operator activity all parent into it.
        let trace = &runs[0].1[0];
        assert!(trace.contains("serve.request"));
        assert!(trace.contains("serve.admission"));
        assert!(trace.contains("serve.plan_cache"));
        let rec = FlightRecorder::new();
        let traced = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
            .with_trace(42)
            .with_flight_recorder(&rec);
        traced.serve(&query("profs")).unwrap();
        let t = &rec.recent()[0];
        let root = t
            .events
            .iter()
            .find(|e| e.name == "serve.request")
            .expect("root span recorded");
        assert!(t
            .events
            .iter()
            .any(|e| e.kind == EventKind::Optimizer && e.parent == Some(root.id)));
        assert!(t.events.iter().any(|e| e.kind == EventKind::Serve
            && e.name == "serve.plan_cache"
            && e.parent == Some(root.id)));
    }

    #[test]
    fn slo_breaches_and_sheds_fire_the_flight_recorder() {
        use obs::{FlightRecorder, LatencyObjective, SloTracker, TriggerKind};

        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let rec = FlightRecorder::new();
        // threshold 0µs: every real request breaches the objective.
        let slo = SloTracker::new(LatencyObjective::new("serve", 0, 0.999));
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
            .with_admission_capacity(1)
            .with_trace(7)
            .with_slo(&slo)
            .with_flight_recorder(&rec);

        let permit = server.admission().try_admit().expect("slot");
        let shed = server.serve(&query("profs")).unwrap();
        assert!(shed.shed);
        drop(permit);
        server.serve(&query("profs")).unwrap();

        let fired = server.stats().requests; // 2 requests in
        assert_eq!(fired, 2);
        let counts: std::collections::HashMap<_, _> = rec.fired().into_iter().collect();
        assert!(counts[&TriggerKind::Shed] >= 1);
        assert!(counts[&TriggerKind::SloBreach] >= 1, "0µs SLO must breach");
        assert!(rec.dumps().len() >= 2);
        let snap = slo.snapshot();
        assert_eq!(snap.total, 2);
        assert!(snap.breaches >= 1 && snap.burning());
        // The shed request's trace is in the ring, flagged as such.
        assert!(rec.recent().iter().any(|t| t.shed));
    }

    #[test]
    fn expired_deadline_is_shed_as_partial_without_consuming_a_permit() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let server =
            QueryServer::new(&u.site.scheme, &catalog, &stats, &source).with_admission_capacity(1);
        let out = server
            .serve_with_deadline(&query("profs"), obs::Deadline::after_us(0))
            .unwrap();
        assert!(out.brown_out && out.shed && !out.is_complete());
        assert!(out.outcome.is_none(), "an empty partial answer");
        let s = server.stats();
        assert_eq!(s.brown_outs, 1);
        assert_eq!(s.shed, 0, "capacity shedding is a separate counter");
        // The gate never saw the request: no permit was consumed, so a
        // live request arriving at the same instant still gets the slot.
        assert_eq!(s.admission.admitted, 0);
        assert!(server.serve(&query("profs")).unwrap().is_complete());
        assert_eq!(server.stats().admission.admitted, 1);
    }

    #[test]
    fn generous_deadline_serves_identically_and_tight_deadline_browns_out() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let plain = QueryServer::new(&u.site.scheme, &catalog, &stats, &source);
        let oracle = plain.serve(&query("profs")).unwrap();

        // A generous budget changes nothing observable.
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
            .with_deadline_budget(60_000_000);
        let out = server.serve(&query("profs")).unwrap();
        assert!(!out.brown_out && out.is_complete());
        let (a, b) = (out.outcome.unwrap(), oracle.outcome.unwrap());
        assert_eq!(a.report.relation.sorted(), b.report.relation.sorted());
        assert_eq!(a.report.page_accesses, b.report.page_accesses);

        // Slow every page: the same budget now expires mid-evaluation
        // and the brown-out reports the exact not-yet-fetched URL set.
        u.site
            .server
            .set_latency(std::time::Duration::from_millis(5));
        let slow = QueryServer::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    degradation: nalg::DegradationMode::Partial,
                    ..Default::default()
                },
                ..Default::default()
            })
            .with_deadline_budget(8_000);
        let browned = slow.serve(&query("profs")).unwrap();
        assert!(browned.brown_out && !browned.is_complete());
        let report = &browned.outcome.as_ref().unwrap().report;
        assert!(report.deadline_exceeded);
        assert!(!report.unreachable.is_empty());
        u.site.server.set_latency(std::time::Duration::ZERO);
        // The browned answer is a sound partial: every row it did return
        // also appears in the full oracle answer.
        let full = b.report.relation.sorted();
        for row in report.relation.rows() {
            assert!(full.rows().contains(row));
        }
        assert_eq!(slow.stats().brown_outs, 1);
    }

    #[test]
    fn concurrent_serving_matches_sequential_answers() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let live = LiveSource::for_site(&u.site);
        let coalesced = nalg::CoalescingSource::new(&live);
        let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &coalesced)
            .with_admission_capacity(16);
        let oracle_profs = server.serve(&query("profs")).unwrap().outcome.unwrap();
        let oracle_depts = server.serve(&query("depts")).unwrap().outcome.unwrap();
        std::thread::scope(|scope| {
            for i in 0..8 {
                let (server, oracle_profs, oracle_depts) = (&server, &oracle_profs, &oracle_depts);
                scope.spawn(move || {
                    let (q, oracle) = if i % 2 == 0 {
                        (query("profs"), oracle_profs)
                    } else {
                        (query("depts"), oracle_depts)
                    };
                    let out = server.serve(&q).unwrap().outcome.unwrap();
                    assert_eq!(
                        out.report.relation.sorted(),
                        oracle.report.relation.sorted()
                    );
                    assert_eq!(out.report.page_accesses, oracle.report.page_accesses);
                });
            }
        });
        let s = server.stats();
        assert_eq!(s.requests, 10);
        assert_eq!(s.shed, 0);
        assert_eq!(s.plan_cache.hits, 8, "both plans cached after the oracles");
    }
}
