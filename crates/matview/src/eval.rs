//! Algorithm 3 — query evaluation for materialized views.
//!
//! A plan is selected with Algorithm 1 (the same optimizer as for virtual
//! views), then evaluated against the *local* relations: navigations become
//! joins over URLs, but before any tuple is used its URL is checked with
//! [`crate::urlcheck::url_check`]. URLs flagged `missing` are not used;
//! they are deferred to the `CheckMissing` queue (purged off-line by
//! [`crate::maintain::purge_missing`]). Answering a query thus costs
//! 𝒞(E) light connections plus one download per actually-updated page —
//! and maintains the view as a side effect.
//!
//! The paper prices the URL checks and never the plan selection; here the
//! plan is selected once per query *shape*: the store keeps the plan sets
//! it answered with ([`MatStore::plan_cache`]) and [`MatSession::run`]
//! hands that cache to the [`QuerySession`] it evaluates with.

use crate::store::{MatStore, UrlStatus};
use crate::urlcheck::{url_check, CheckCounters};
use crate::Result;
use adm::{Relation, Tuple, Url, WebScheme};
use nalg::{Fetch, NalgExpr, PageServer, PageSource, SharedPageCache, SourceError};
use obs::trace::{EventKind, TraceSink};
use parking_lot::Mutex;
use std::sync::Arc;
use wvcore::{ConjunctiveQuery, ExecPolicy, Explain, QuerySession, SiteStatistics, ViewCatalog};

/// The outcome of a materialized-view query.
#[derive(Debug, Clone)]
pub struct MatOutcome {
    /// The plan set the query was answered with (`.explain.best()` is the
    /// plan that ran). Shared, never copied: a freshly planned set is the
    /// optimizer's, every candidate in it; one served by the store's plan
    /// cache is the cache's own `Arc` — the winning candidate only — or,
    /// for other constants of the shape, that plan bound to them.
    pub explain: Arc<Explain>,
    /// The answer.
    pub relation: Relation,
    /// Maintenance traffic incurred while answering.
    pub counters: CheckCounters,
    /// Links that turned out to point at deleted pages.
    pub broken_links: u64,
    /// Pages skipped because they were unreachable (sorted, deduplicated;
    /// non-empty only under [`nalg::DegradationMode::Partial`] with
    /// faults).
    pub unreachable: Vec<Url>,
}

impl MatOutcome {
    /// `true` when no page had to be skipped: the answer is complete.
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }
}

/// A page source that consults the materialized store, checking freshness
/// through light connections (Algorithm 3's per-URL protocol).
///
/// The store, the counters and the protocol error each sit behind a lock
/// — always taken store first — so a pooled evaluation may call it
/// from several workers: the store lock serialises the URL checks, and
/// every check books exactly what it would book inline.
struct CheckingSource<'a, P> {
    ws: &'a WebScheme,
    server: &'a P,
    store: Mutex<&'a mut MatStore>,
    counters: Mutex<CheckCounters>,
    error: Mutex<Option<crate::MatError>>,
    /// Shared cross-query cache, kept in sync as a side effect of URL
    /// checking: freshly verified tuples — a light connection or a
    /// download vouched for them — are written through with their
    /// Last-Modified stamp, deleted pages are invalidated. A copy served
    /// stale (its check failed transiently) is *not* written through:
    /// nothing attested it. The cache is never *read* here — every access
    /// still goes through the paper's URL-check protocol, so
    /// `CheckCounters` are unaffected.
    shared: Option<&'a SharedPageCache>,
    /// Records one [`EventKind::Maintenance`] event per URL check,
    /// carrying what the protocol decided (downloaded / from_store /
    /// stale_served / deferred_missing / deleted). Never affects
    /// [`CheckCounters`].
    trace: Option<TraceSink>,
}

impl<P> CheckingSource<'_, P> {
    /// Ends the query: the first protocol error it hit, else its counters.
    fn finish(self) -> Result<CheckCounters> {
        match self.error.into_inner() {
            Some(e) => Err(e),
            None => Ok(self.counters.into_inner()),
        }
    }

    fn trace_check(&self, url: &Url, outcome: &str, light: u64) {
        if let Some(sink) = &self.trace {
            sink.event(
                EventKind::Maintenance,
                "matview.urlcheck",
                None,
                vec![
                    ("url".to_string(), url.as_str().into()),
                    ("outcome".to_string(), outcome.into()),
                    ("light_connections".to_string(), light.into()),
                ],
            );
        }
    }
}

/// The store holds the pages, so `fetch_shared` is the method that does the
/// work — the evaluator's only call — and returns the store's own `Arc`.
impl<P: PageServer + Sync> PageSource for CheckingSource<'_, P> {
    fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
        self.fetch_shared(url, scheme)
            .map(|(t, _)| Tuple::clone(&t))
    }

    fn fetch_shared(
        &self,
        url: &Url,
        scheme: &str,
    ) -> std::result::Result<(Arc<Tuple>, Option<u64>), SourceError> {
        let mut store = self.store.lock();
        // "URLs whose flag equals missing … will not be used in the query
        // evaluation phase; we defer this check and do it periodically
        // off-line."
        if store.status(url) == UrlStatus::Missing {
            store.check_missing.push_back(url.clone());
            if let Some(cache) = self.shared {
                cache.invalidate(url);
            }
            self.trace_check(url, "deferred_missing", 0);
            return Err(SourceError::NotFound(url.clone()));
        }
        let mut counters = self.counters.lock();
        let before = *counters;
        let outcome_of = |after: &CheckCounters| {
            if after.downloads > before.downloads {
                "downloaded"
            } else if after.stale_served > before.stale_served {
                "stale_served"
            } else {
                "from_store"
            }
        };
        match url_check(&mut store, &mut counters, self.ws, self.server, url, scheme) {
            Ok(Some(t)) => {
                self.trace_check(
                    url,
                    outcome_of(&counters),
                    counters.light_connections - before.light_connections,
                );
                // Only what a light connection or a download vouched for is
                // written through; a copy served stale stays out of the cache.
                let attested = counters.stale_served == before.stale_served;
                if let Some(cache) = self.shared.filter(|_| attested) {
                    // The store's access date is the freshest stamp we can
                    // attest for this tuple: drop any older cached copy
                    // and write the verified one through.
                    let lm = store.get(url).map(|p| p.access_date);
                    if let Some(lm) = lm {
                        cache.invalidate_older_than(url, lm);
                    }
                    cache.insert(url, &t, lm);
                }
                Ok((t, None))
            }
            Ok(None) => {
                if let Some(cache) = self.shared {
                    cache.invalidate(url);
                }
                self.trace_check(
                    url,
                    "deleted",
                    counters.light_connections - before.light_connections,
                );
                Err(SourceError::NotFound(url.clone()))
            }
            Err(crate::MatError::Unreachable { url, reason }) => {
                // A transient outage with no stored fallback: surface it as
                // a transient source error (NOT via the error cell) so the
                // evaluator's degradation mode decides — `Partial` skips the
                // page and reports it, `FailFast` aborts the query.
                Err(SourceError::Unavailable { url, reason })
            }
            Err(e) => {
                *self.error.lock() = Some(e.clone());
                Err(SourceError::Other(e.to_string()))
            }
        }
    }
}

/// A query session over a materialized view of a site.
///
/// Generic over the [`PageServer`] its light connections and downloads go
/// to: the site's own server, or a wrapper that traces or retries around
/// it.
pub struct MatSession<'a, P> {
    ws: &'a WebScheme,
    catalog: &'a ViewCatalog,
    stats: &'a SiteStatistics,
    server: &'a P,
    policy: ExecPolicy<'a>,
}

impl<'a, P: PageServer + Sync> MatSession<'a, P> {
    /// Creates a session under the default [`ExecPolicy`].
    pub fn new(
        ws: &'a WebScheme,
        catalog: &'a ViewCatalog,
        stats: &'a SiteStatistics,
        server: &'a P,
    ) -> Self {
        MatSession {
            ws,
            catalog,
            stats,
            server,
            policy: ExecPolicy::default(),
        }
    }

    /// Plans and evaluates under `policy`, as a [`QuerySession`] would,
    /// with one difference: `policy.eval.shared_cache` is kept in sync
    /// while answering — URL-checked tuples are written through with their
    /// freshness stamp, pages found deleted are invalidated — and never
    /// read in place of the URL-check protocol, so [`CheckCounters`] are
    /// those of a session without it. Under
    /// [`nalg::DegradationMode::Partial`] a page that is transiently
    /// unreachable *and* has no stored copy to serve stale is skipped and
    /// reported instead of aborting the query. Under [`Fetch::Pool`] the
    /// checks run on the pool's workers, one at a time through the store's
    /// lock, and unhedged: a URL check is a light connection booked in
    /// [`CheckCounters`], and a backup check would book a second one.
    pub fn with_policy(mut self, policy: &ExecPolicy<'a>) -> Self {
        self.policy = policy.clone();
        self
    }

    /// Runs a conjunctive query against the materialized view,
    /// lazily maintaining it (Algorithm 3).
    ///
    /// The plan is chosen once per query shape: the store's plan cache is
    /// consulted under a context that stands for this session's rule mask,
    /// scheme, catalog and statistics *by value*, so a plan is reused only
    /// by a session that would have chosen it. Every URL check, download
    /// and counter is what a freshly planned run would have made.
    ///
    /// A trace sink in the policy receives the operator spans and one
    /// `matview.urlcheck` event per URL check; EXPLAIN ANALYZE is
    /// [`ExplainAnalyze::from_parts`](wvcore::ExplainAnalyze::from_parts)
    /// over `explain.best().estimate` and that sink's events. Its predicted
    /// pages are what a *virtual*-view evaluation would download; its
    /// observed downloads are the re-downloads the URL-check protocol
    /// decided on — the gap between the two is what materialization saves.
    pub fn run(&self, store: &mut MatStore, q: &ConjunctiveQuery) -> Result<MatOutcome> {
        let plans = store.plans();
        let context = plans.context(&self.policy, self.ws, self.catalog, self.stats);
        let source = self.source(store);
        let outcome = self
            .session(&source)
            .with_plan_cache(plans.cache(), context)
            .run(q)?;
        let counters = source.finish()?;
        Ok(MatOutcome {
            explain: outcome.explain,
            relation: outcome.report.relation,
            counters,
            broken_links: outcome.report.broken_links,
            unreachable: outcome.report.unreachable,
        })
    }

    /// Evaluates one plan against the store with URL checking; returns the
    /// answer, the maintenance counters, the broken-link count, and the
    /// unreachable pages skipped (empty unless degradation is `Partial`).
    pub fn execute(
        &self,
        store: &mut MatStore,
        plan: &NalgExpr,
    ) -> Result<(Relation, CheckCounters, u64, Vec<Url>)> {
        let source = self.source(store);
        let report = self.session(&source).execute(plan)?;
        let counters = source.finish()?;
        Ok((
            report.relation,
            counters,
            report.broken_links,
            report.unreachable,
        ))
    }

    /// A fresh query's URL-checking view of `store`.
    fn source<'s>(&'s self, store: &'s mut MatStore) -> CheckingSource<'s, P> {
        store.reset_status();
        CheckingSource {
            ws: self.ws,
            server: self.server,
            store: Mutex::new(store),
            counters: Mutex::new(CheckCounters::default()),
            error: Mutex::new(None),
            shared: self.policy.eval.shared_cache,
            trace: self.policy.eval.sink().cloned(),
        }
    }

    /// The [`QuerySession`] that plans and evaluates over `source` under
    /// this session's policy. The shared cache is the source's to keep in
    /// sync, not the evaluator's to read, and a URL check is never hedged.
    fn session<'s, 'c>(
        &'s self,
        source: &'s CheckingSource<'c, P>,
    ) -> QuerySession<'s, CheckingSource<'c, P>> {
        let mut policy = self.policy.clone();
        policy.eval.shared_cache = None;
        if let Fetch::Pool { hedge, .. } = &mut policy.eval.fetch {
            *hedge = None;
        }
        QuerySession::new(self.ws, self.catalog, self.stats, source).with_policy(&policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalg::{DegradationMode, EvalPolicy};
    use websim::sitegen::{University, UniversityConfig};
    use wvcore::views::university_catalog;

    fn setup() -> (University, MatStore, SiteStatistics, ViewCatalog) {
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 9,
            courses: 18,
            seed: 44,
            ..UniversityConfig::default()
        })
        .unwrap();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        u.site.server.reset_stats();
        (u, store, stats, university_catalog())
    }

    fn grad_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("grad")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"))
    }

    #[test]
    fn unchanged_site_costs_zero_downloads() {
        let (u, mut store, stats, catalog) = setup();
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &grad_query()).unwrap();
        assert_eq!(out.counters.downloads, 0);
        assert!(out.counters.light_connections > 0);
        // server agrees: only HEADs
        assert_eq!(u.site.server.stats().gets, 0);
        assert_eq!(u.site.server.stats().heads, out.counters.light_connections);
        // answer matches the oracle
        let expected: std::collections::HashSet<String> = u
            .expected_course()
            .into_iter()
            .filter(|(_, _, _, t)| t == "Graduate")
            .map(|(c, _, _, _)| c)
            .collect();
        let got: std::collections::HashSet<String> = out
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn updated_pages_are_redownloaded_and_answer_is_fresh() {
        let (mut u, mut store, stats, catalog) = setup();
        // flip one course to Graduate by republishing it with a new type —
        // simplest path: change its description then verify re-download;
        // for answer freshness, change a description the query projects.
        let q = ConjunctiveQuery::new("descr")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"))
            .project((0, "Description"));
        let grad_id = u
            .course_ids()
            .into_iter()
            .find(|&id| {
                u.site
                    .ground_truth("CoursePage", &University::course_url(id))
                    .unwrap()
                    .get("Type")
                    .unwrap()
                    .as_text()
                    == Some("Graduate")
            })
            .unwrap();
        u.update_course_description(grad_id, "BRAND NEW CONTENT")
            .unwrap();
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &q).unwrap();
        assert_eq!(out.counters.downloads, 1, "only the changed page");
        assert!(out
            .relation
            .rows()
            .iter()
            .any(|r| r[1].as_text() == Some("BRAND NEW CONTENT")));
    }

    #[test]
    fn deleted_course_disappears_from_answers() {
        let (mut u, mut store, stats, catalog) = setup();
        let victim = u.course_ids()[0];
        let victim_name = u
            .site
            .ground_truth("CoursePage", &University::course_url(victim))
            .unwrap()
            .get("CName")
            .unwrap()
            .as_text()
            .unwrap()
            .to_string();
        u.remove_course(victim).unwrap();
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let q = ConjunctiveQuery::new("all-courses")
            .atom("Course")
            .select((0, "Session"), "Fall")
            .project((0, "CName"));
        let out = session.run(&mut store, &q).unwrap();
        assert!(!out
            .relation
            .rows()
            .iter()
            .any(|r| r[0].as_text() == Some(victim_name.as_str())));
    }

    #[test]
    fn added_course_appears_in_answers() {
        let (mut u, mut store, stats, catalog) = setup();
        let id = u.add_course(2, "Fall", "Graduate").unwrap();
        let name = u
            .site
            .ground_truth("CoursePage", &University::course_url(id))
            .unwrap()
            .get("CName")
            .unwrap()
            .as_text()
            .unwrap()
            .to_string();
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &grad_query()).unwrap();
        assert!(
            out.relation
                .rows()
                .iter()
                .any(|r| r[0].as_text() == Some(name.as_str())),
            "new course {name} missing from answer"
        );
        // the store learned the new page while answering
        assert!(store.get(&University::course_url(id)).is_some());
    }

    #[test]
    fn rule_mask_controls_plan_and_traffic() {
        let (u, mut store, stats, catalog) = setup();
        // naive mask must still answer correctly, just touch more pages
        let naive = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server).with_policy(
            &ExecPolicy {
                mask: wvcore::RuleMask::none(),
                ..Default::default()
            },
        );
        let out_naive = naive.run(&mut store, &grad_query()).unwrap();
        store.reset_status();
        let smart = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out_smart = smart.run(&mut store, &grad_query()).unwrap();
        assert_eq!(
            out_naive.relation.sorted().rows().len(),
            out_smart.relation.sorted().rows().len()
        );
        assert!(out_smart.counters.light_connections <= out_naive.counters.light_connections);
    }

    #[test]
    fn shared_cache_is_warmed_and_invalidated_without_extra_traffic() {
        let (u, mut store, stats, catalog) = setup();
        let cache = SharedPageCache::default();
        let victim = u.course_ids()[0];
        {
            let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server)
                .with_policy(&ExecPolicy {
                    eval: EvalPolicy {
                        shared_cache: Some(&cache),
                        ..Default::default()
                    },
                    ..Default::default()
                });
            let out = session.run(&mut store, &grad_query()).unwrap();
            // Traffic is exactly what the plain session pays: the cache is
            // write-through only, never consulted instead of the URL check.
            assert_eq!(out.counters.downloads, 0);
            assert_eq!(u.site.server.stats().gets, 0);
            assert_eq!(u.site.server.stats().heads, out.counters.light_connections);
            // ...but every URL-checked tuple was written through.
            assert!(!cache.is_empty());
            assert!(cache.get(&University::course_url(victim)).is_some());
        }
        // Delete the page server-side only (a dangling link, the case
        // URL-check exists to detect): answering again evicts it.
        u.site.server.remove(&University::course_url(victim));
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server)
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    shared_cache: Some(&cache),
                    ..Default::default()
                },
                ..Default::default()
            });
        session.run(&mut store, &grad_query()).unwrap();
        assert!(cache.get(&University::course_url(victim)).is_none());
    }

    #[test]
    fn transient_chaos_answers_from_stale_copies() {
        let (u, mut store, stats, catalog) = setup();
        // baseline answer on a clean site
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let clean = session.run(&mut store, &grad_query()).unwrap();
        store.reset_status();
        // total outage: every light connection fails — but the store holds
        // a copy of everything, so the view still answers (stale-served)
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(4)
                .with_rule(websim::FaultRule::unavailable(1.0).with_max_per_url(None)),
        );
        let out = session.run(&mut store, &grad_query()).unwrap();
        assert_eq!(
            out.relation.sorted().rows(),
            clean.relation.sorted().rows(),
            "the stored copies were fresh, so the stale answer is right"
        );
        assert!(out.counters.stale_served > 0);
        assert_eq!(out.counters.downloads, 0);
        assert!(store.stale_count() > 0, "served pages are flagged");
        assert!(out.is_complete(), "nothing was skipped, only served stale");
        assert_eq!(u.site.server.stats().gets, 0);
    }

    #[test]
    fn unreachable_new_page_fails_fast_by_default_but_degrades_in_partial() {
        let (mut u, mut store, stats, catalog) = setup();
        let id = u.add_course(1, "Fall", "Graduate").unwrap();
        let new_url = University::course_url(id);
        // the brand-new page (never materialized) is behind an outage
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(4).with_rule(
                websim::FaultRule::timeouts(1.0)
                    .for_url_prefix(new_url.as_str())
                    .with_max_per_url(None),
            ),
        );
        let strict = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        assert!(
            strict.run(&mut store, &grad_query()).is_err(),
            "FailFast: an unreachable page with no stored copy aborts"
        );
        store.reset_status();
        let lenient = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server)
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    degradation: DegradationMode::Partial,
                    ..Default::default()
                },
                ..Default::default()
            });
        let out = lenient.run(&mut store, &grad_query()).unwrap();
        assert_eq!(out.unreachable, vec![new_url], "the exact skipped set");
        assert!(!out.is_complete());
        // every materialized course is still in the answer
        let expected: std::collections::HashSet<String> = u
            .expected_course()
            .into_iter()
            .filter(|(_, _, _, t)| t == "Graduate")
            .map(|(c, _, _, _)| c)
            .collect();
        let got: std::collections::HashSet<String> = out
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(
            got.len(),
            expected.len() - 1,
            "only the new course is missing"
        );
        assert!(got.is_subset(&expected));
    }

    #[test]
    fn a_traced_hit_is_counter_identical_and_joins_urlchecks() {
        let (u, mut store, stats, catalog) = setup();
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let plain = session.run(&mut store, &grad_query()).unwrap();
        // the traced run is a store plan-cache hit: the plan that answered
        let sink = TraceSink::with_seed(0);
        let traced = session
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    trace: Some((sink.clone(), None)),
                    ..Default::default()
                },
                ..Default::default()
            })
            .run(&mut store, &grad_query())
            .unwrap();
        // tracing changes nothing the paper reports
        assert_eq!(
            traced.relation.sorted().rows(),
            plain.relation.sorted().rows()
        );
        assert_eq!(traced.counters, plain.counters);
        // the join renders, and maintenance events carry the protocol's
        // per-URL decisions
        let events = sink.events();
        let analysis = wvcore::ExplainAnalyze::from_parts(&traced.explain.best().estimate, &events);
        assert!(analysis.render().contains("total:"));
        let checks: Vec<_> = events
            .iter()
            .filter(|e| e.name == "matview.urlcheck")
            .collect();
        // one event per URL check: every successful check lands in
        // exactly one of the three counters
        let c = &traced.counters;
        assert_eq!(
            checks.len() as u64,
            c.from_store + c.downloads + c.stale_served
        );
        assert!(!checks.is_empty());
        assert!(checks
            .iter()
            .all(|e| e.field_str("outcome") == Some("from_store")
                || e.field_str("outcome") == Some("downloaded")));
        assert!(events.iter().any(|e| e.kind == EventKind::Operator));
    }

    #[test]
    fn maintenance_is_scoped_to_the_query() {
        let (mut u, mut store, stats, catalog) = setup();
        // update a professor page — a course-only query must not touch it
        u.update_prof_email(0, Some("new@uni.example".into()))
            .unwrap();
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &grad_query()).unwrap();
        assert_eq!(out.counters.downloads, 0);
        // the professor page is still stale locally (lazy maintenance)
        let stale = store.get(&University::prof_url(0)).unwrap();
        assert_ne!(
            stale.tuple.get("Email").unwrap().as_text(),
            Some("new@uni.example")
        );
    }
}
