//! End-to-end query sessions: optimize, navigate, wrap, answer.
//!
//! A [`QuerySession`] bundles a scheme, a view catalog, statistics, and a
//! page source. [`QuerySession::run`] performs the paper's full query
//! pipeline and reports both the optimizer's estimate and the measured
//! page accesses, so experiments can validate the cost model (estimated
//! vs. actual) with one call.
//!
//! **Constraint-drift defense.** With [`ExecPolicy::audit`] set,
//! each run samples the pages it fetched and re-checks exactly the
//! constraints the winning plan assumed (its
//! [`CandidatePlan::dependencies`]). A clean audit changes nothing —
//! results and every counter stay byte-identical. A violated audit means
//! the plan's licensing assumption is false on today's site, so the run
//! **falls back**: the query is re-executed via its default navigation
//! (rule mask off — a plan that assumes no constraints), the fallback's
//! answer becomes the authoritative one, and the abandoned run is kept in
//! [`FallbackOutcome`] for inspection. With a health registry in
//! [`ExecPolicy::health`], audit results also feed it, so violated
//! constraints are quarantined and stop licensing rewrites on subsequent
//! queries.
//!
//! **Plan once per shape.** A session built
//! [`QuerySession::with_plan_cache`] asks its owner's [`PlanCache`] before
//! planning and fills it afterwards; [`QuerySession::run`] is the only
//! place that protocol is written down.

use crate::optimizer::{CandidatePlan, Explain, Optimizer, RuleMask};
use crate::plan_cache::{quarantine_fingerprint, PlanCache, PlanKey, PlanOrigin};
use crate::policy::ExecPolicy;
use crate::query::ConjunctiveQuery;
use crate::stats::SiteStatistics;
use crate::views::ViewCatalog;
use crate::Result;
use adm::WebScheme;
use nalg::{AuditConfig, EvalPolicy, EvalReport, Evaluator, PageSource};
use std::sync::Arc;
use std::time::Instant;

/// What happened when a run's audit caught the plan's own constraint
/// assumptions being violated and the session re-answered the query from
/// its default navigation.
#[derive(Debug, Clone)]
pub struct FallbackOutcome {
    /// Constraint keys whose audit found violations this run.
    pub violated: Vec<String>,
    /// Keys this run's audit pushed into quarantine (empty without an
    /// attached [`ExecPolicy::health`] registry).
    pub newly_quarantined: Vec<String>,
    /// The abandoned optimized plan's explanation.
    pub suspect_explain: Arc<Explain>,
    /// The abandoned optimized plan's evaluation report (its audit field
    /// carries the detected violations).
    pub suspect_report: EvalReport,
    /// True when the abandoned run's answer differs from the fallback's —
    /// the drift was not just detectable but result-changing.
    pub diverged: bool,
}

/// The outcome of an executed query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The optimizer's explanation (all candidate plans, costed). When a
    /// fallback fired this is the *fallback* plan's explanation; the
    /// abandoned one is in [`FallbackOutcome::suspect_explain`]. Shared,
    /// not copied. A plan set served by a [`PlanCache::winners_only`] cache
    /// (a materialized store's) lists the winning candidate only.
    pub explain: Arc<Explain>,
    /// The evaluation report of the authoritative plan.
    pub report: EvalReport,
    /// Present when auditing triggered the default-navigation fallback.
    pub fallback: Option<FallbackOutcome>,
    /// How the executed plan was come by: planned for this run, or served
    /// by the session's plan cache (as stored, or bound to this query's
    /// constants). Always [`PlanOrigin::Planned`] without a cache.
    pub plan: PlanOrigin,
    /// Wall-clock µs [`QuerySession::run`] spent obtaining the plan —
    /// cache lookup and binding, or rule 1–9 enumeration.
    pub plan_us: u64,
}

impl QueryOutcome {
    fn planned(
        explain: Arc<Explain>,
        report: EvalReport,
        fallback: Option<FallbackOutcome>,
    ) -> Self {
        QueryOutcome {
            explain,
            report,
            fallback,
            plan: PlanOrigin::Planned,
            plan_us: 0,
        }
    }

    /// Estimated page accesses of the chosen plan (cost-model 𝒞).
    pub fn estimated_pages(&self) -> f64 {
        self.explain.best().estimate.cost.pages
    }

    /// Measured page accesses under the paper's cost accounting (distinct
    /// links per navigation operator).
    pub fn measured_pages(&self) -> u64 {
        self.report.cost_model_accesses()
    }

    /// Actual downloads performed (with the per-query cache).
    pub fn downloads(&self) -> u64 {
        self.report.page_accesses
    }

    /// True when auditing caught a violated plan assumption and the
    /// answer came from the default-navigation fallback.
    pub fn fell_back(&self) -> bool {
        self.fallback.is_some()
    }

    /// Downloads including the abandoned suspect run, when one exists —
    /// the real price of answering this query.
    pub fn total_downloads(&self) -> u64 {
        self.report.page_accesses
            + self
                .fallback
                .as_ref()
                .map_or(0, |f| f.suspect_report.page_accesses)
    }
}

/// A query session over a site.
pub struct QuerySession<'a, S: PageSource> {
    ws: &'a WebScheme,
    catalog: &'a ViewCatalog,
    stats: &'a SiteStatistics,
    source: &'a S,
    policy: ExecPolicy<'a>,
    /// The owner's plan cache and the owner's planning-context epoch.
    plan_cache: Option<(&'a PlanCache, u64)>,
}

impl<'a, S: PageSource> QuerySession<'a, S> {
    /// Creates a session under the default [`ExecPolicy`].
    pub fn new(
        ws: &'a WebScheme,
        catalog: &'a ViewCatalog,
        stats: &'a SiteStatistics,
        source: &'a S,
    ) -> Self {
        QuerySession {
            ws,
            catalog,
            stats,
            source,
            policy: ExecPolicy::default(),
            plan_cache: None,
        }
    }

    /// Plans and evaluates under `policy`: the optimizer is handed
    /// `policy`, the evaluator `policy.eval`. Results and every counter
    /// are identical under every trace setting; see [`ExecPolicy`] for
    /// what each field changes.
    pub fn with_policy(mut self, policy: &ExecPolicy<'a>) -> Self {
        self.policy = policy.clone();
        self
    }

    /// Makes [`QuerySession::run`] plan once per query shape: it looks the
    /// shape up in `cache` first and plans (and fills the cache) only on a
    /// miss.
    ///
    /// `cache` belongs to something that outlives this session — a
    /// server, a materialized store — and `context` is that owner's word
    /// for everything a plan depends on besides the query's shape and the
    /// quarantine set (which the session reads off its policy's health
    /// registry): the scheme, the catalog, the statistics, the rule mask
    /// and whether incomplete navigations are allowed. Plans are
    /// keyed on it, so the owner must hand the same number only to
    /// sessions that plan alike and a new one whenever any of those
    /// inputs changes; an owner that cannot know compares them by value.
    pub fn with_plan_cache(mut self, cache: &'a PlanCache, context: u64) -> Self {
        self.plan_cache = Some((cache, context));
        self
    }

    fn optimizer(&self, policy: &ExecPolicy<'a>) -> Optimizer<'a> {
        Optimizer::new(self.ws, self.catalog, self.stats).with_policy(policy)
    }

    fn evaluator(&self, policy: &EvalPolicy<'a>) -> Evaluator<'a, S> {
        Evaluator::new(self.ws, self.source).with_policy(policy)
    }

    /// The audit configuration for a chosen plan: the policy's rate/seed
    /// over exactly the constraints the plan assumed. `None` when auditing
    /// is off or the plan is constraint-free (nothing to check).
    fn audit_config(&self, best: &CandidatePlan) -> Option<AuditConfig> {
        let (rate, seed) = self.policy.audit?;
        let cfg = AuditConfig {
            rate: rate.min(1.0),
            seed,
            constraints: best.dependencies.to_vec(),
        };
        cfg.is_active().then_some(cfg)
    }

    /// Optimizes without executing.
    pub fn explain(&self, q: &ConjunctiveQuery) -> Result<Explain> {
        self.optimizer(&self.policy).optimize(q)
    }

    /// Obtains a plan and executes it. With auditing on, the fetched
    /// pages are sampled against the plan's assumed constraints; a
    /// violation books into the policy's health registry (quarantine) and
    /// re-answers the query from its default navigation (see
    /// [`FallbackOutcome`]).
    ///
    /// One flow for every session, with or without a plan cache
    /// ([`QuerySession::with_plan_cache`]):
    ///
    /// 1. advance the health clock; with a cache, read the quarantine set
    ///    and purge the cache if the owner's context or the set moved
    ///    ([`PlanCache::sync`]), then look the query's shape up — a hit, as
    ///    stored or bound to this query's constants, skips rule 1–9
    ///    enumeration;
    /// 2. otherwise plan — unless the policy's deadline has already passed
    ///    ([`crate::OptError::DeadlineExceeded`]: enumeration is the most
    ///    expensive thing before the first fetch, and nothing plans past
    ///    the deadline);
    /// 3. execute the plan, auditing it when the policy asks, and settle
    ///    the audit: a violation re-answers from the default navigation;
    /// 4. with a cache, a plan its own audit falsified leaves it (the
    ///    constraint was assumed for every instance of the shape); a
    ///    freshly planned one enters it — unless a default navigation of
    ///    the query's relations selects on a constant of its own, in which
    ///    case binding the plan to other constants could rewrite that
    ///    constant too, so it is refused and the shape is planned every
    ///    time.
    ///
    /// [`QueryOutcome::plan`] says which way the plan came.
    ///
    /// EXPLAIN ANALYZE is this run with a trace sink in the policy:
    /// [`crate::ExplainAnalyze::from_parts`] over the outcome's
    /// `explain.best().estimate` and the sink's events explains the plan
    /// that answered — planned, served by the cache, or the fallback,
    /// whose operator spans come last and so win the join.
    pub fn run(&self, q: &ConjunctiveQuery) -> Result<QueryOutcome> {
        if let Some(h) = self.policy.health {
            h.tick();
        }
        let started = Instant::now();
        let mut cached = self.plan_cache.map(|(cache, context)| {
            let quarantined = self
                .policy
                .health
                .map(|h| h.quarantined())
                .unwrap_or_default();
            let quarantine_fp = quarantine_fingerprint(&quarantined);
            cache.sync(context, quarantine_fp);
            let (shape, params) = q.shape();
            let key = PlanKey {
                shape,
                stats_epoch: context,
                quarantine_fp,
            };
            let hit = cache.lookup(&key, q, &params, &quarantined);
            (cache, key, params, hit)
        });
        let (explain, origin) = match cached.as_mut().and_then(|(.., hit)| hit.take()) {
            Some(hit) => hit,
            None if self.policy.eval.deadline.expired() => {
                return Err(crate::OptError::DeadlineExceeded)
            }
            None => (Arc::new(self.explain(q)?), PlanOrigin::Planned),
        };
        let plan_us = started.elapsed().as_micros() as u64;
        let mut ev = self.evaluator(&self.policy.eval);
        if let Some(cfg) = self.audit_config(explain.best()) {
            ev = ev.with_audit(cfg);
        }
        let report = ev.eval(&explain.best().expr)?;
        let mut outcome = self.settle(q, explain, report)?;
        outcome.plan = origin;
        outcome.plan_us = plan_us;
        if let Some((cache, key, params, _)) = cached {
            if outcome.fell_back() {
                cache.remove(&key);
            } else if origin == PlanOrigin::Planned {
                if self.navigations_carry_constants(q) {
                    cache.note_refused();
                } else {
                    cache.insert(key, params, Arc::clone(&outcome.explain));
                }
            }
        }
        Ok(outcome)
    }

    /// True when a default navigation of one of `q`'s relations selects on
    /// a constant: a plan over it holds constants that are not `q`'s, the
    /// one thing [`Explain::bind`] cannot tell apart.
    fn navigations_carry_constants(&self, q: &ConjunctiveQuery) -> bool {
        q.atoms.iter().any(|name| {
            self.catalog
                .relation(name)
                .is_ok_and(|rel| rel.navigations.iter().any(|nav| nav.expr.has_constants()))
        })
    }

    /// Books a run's audit findings into the health registry and, when the
    /// audit caught the plan's own assumptions being violated, re-plans the
    /// query constraint-free — the same policy with the rule mask off, so
    /// the re-plan is traced and parented like the first — and promotes
    /// that answer.
    fn settle(
        &self,
        q: &ConjunctiveQuery,
        explain: Arc<Explain>,
        report: EvalReport,
    ) -> Result<QueryOutcome> {
        let health = self.policy.health;
        let (violated, newly_quarantined) = {
            let Some(audit) = report.audit.as_ref() else {
                return Ok(QueryOutcome::planned(explain, report, None));
            };
            let mut violated = Vec::new();
            let mut newly_quarantined = Vec::new();
            for row in &audit.constraints {
                if let Some(h) = health {
                    if h.record(&row.key, row.checks, row.violations.len() as u64) {
                        newly_quarantined.push(row.key.clone());
                    }
                }
                if !row.violations.is_empty() {
                    violated.push(row.key.clone());
                }
            }
            (violated, newly_quarantined)
        };
        if violated.is_empty() {
            return Ok(QueryOutcome::planned(explain, report, None));
        }
        // Every audited constraint was load-bearing for this plan, so a
        // violation invalidates the rewrite chain that produced it. Answer
        // instead from the default navigation (rule mask off), which
        // assumes nothing about the drifted site.
        if let Some(h) = health {
            h.note_fallback();
        }
        let fallback = ExecPolicy {
            mask: RuleMask::none(),
            ..self.policy.clone()
        };
        let fb_explain = Arc::new(self.optimizer(&fallback).optimize(q)?);
        let fb_report = self
            .evaluator(&fallback.eval)
            .eval(&fb_explain.best().expr)?;
        let diverged = report.relation.sorted() != fb_report.relation.sorted();
        Ok(QueryOutcome::planned(
            fb_explain,
            fb_report,
            Some(FallbackOutcome {
                violated,
                newly_quarantined,
                suspect_explain: explain,
                suspect_report: report,
                diverged,
            }),
        ))
    }

    /// Executes a specific plan (used by experiments to run non-optimal
    /// candidates for comparison).
    pub fn execute(&self, expr: &nalg::NalgExpr) -> Result<EvalReport> {
        Ok(self.evaluator(&self.policy.eval).eval(expr)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::LiveSource;
    use crate::views::university_catalog;
    use nalg::Fetch;
    use websim::sitegen::{University, UniversityConfig};

    #[test]
    fn end_to_end_query_matches_oracle() {
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 10,
            courses: 20,
            seed: 21,
            ..UniversityConfig::default()
        })
        .unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let q = ConjunctiveQuery::new("graduate-courses")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"));
        let outcome = session.run(&q).unwrap();
        let expected: std::collections::HashSet<String> = u
            .expected_course()
            .into_iter()
            .filter(|(_, _, _, t)| t == "Graduate")
            .map(|(n, _, _, _)| n)
            .collect();
        let got: std::collections::HashSet<String> = outcome
            .report
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn concurrent_session_with_shared_cache_matches_plain_run() {
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 10,
            courses: 20,
            seed: 21,
            ..UniversityConfig::default()
        })
        .unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let q = ConjunctiveQuery::new("graduate-courses")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"));
        let plain = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .run(&q)
            .unwrap();
        let cache = nalg::SharedPageCache::default();
        let session =
            QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    shared_cache: Some(&cache),
                    fetch: Fetch::pool(8),
                    ..Default::default()
                },
                ..Default::default()
            });
        let cold = session.run(&q).unwrap();
        assert_eq!(
            cold.report.relation.sorted(),
            plain.report.relation.sorted()
        );
        assert_eq!(cold.report.page_accesses, plain.report.page_accesses);
        assert_eq!(
            cold.report.accesses_by_operator,
            plain.report.accesses_by_operator
        );
        // Second run: every page comes from the shared cache.
        let warm = session.run(&q).unwrap();
        assert_eq!(
            warm.report.relation.sorted(),
            plain.report.relation.sorted()
        );
        assert_eq!(warm.downloads(), 0);
        assert_eq!(warm.report.shared_cache_hits, cold.report.page_accesses);
        // The cost model is blind to the shared cache.
        assert_eq!(warm.measured_pages(), plain.measured_pages());
    }

    #[test]
    fn a_traced_run_matches_plain_run_and_explains_it() {
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 10,
            courses: 20,
            seed: 21,
            ..UniversityConfig::default()
        })
        .unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let q = ConjunctiveQuery::new("graduate-courses")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"));
        let plain = session.run(&q).unwrap();
        let sink = obs::trace::TraceSink::with_seed(0);
        let traced = session
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    trace: Some((sink.clone(), None)),
                    ..Default::default()
                },
                ..Default::default()
            })
            .run(&q)
            .unwrap();
        let events = sink.events();
        let analysis = crate::ExplainAnalyze::from_parts(&traced.explain.best().estimate, &events);
        // tracing must not perturb results or any counter
        assert_eq!(traced.report.relation, plain.report.relation);
        assert_eq!(traced.report.page_accesses, plain.report.page_accesses);
        assert_eq!(
            traced.report.accesses_by_operator,
            plain.report.accesses_by_operator
        );
        // the joined table's observed total is the cost-model total
        assert_eq!(analysis.observed_pages, plain.report.cost_model_accesses());
        // every executed operator appears, with the plan's estimate joined
        assert_eq!(
            analysis.ops.len(),
            plain.explain.best().estimate.nodes.len()
        );
        assert!(analysis.render().contains("total:"));
        // the trace carries both optimizer events and operator spans
        assert!(events
            .iter()
            .any(|e| e.kind == obs::trace::EventKind::Optimizer));
        assert!(events
            .iter()
            .any(|e| e.kind == obs::trace::EventKind::Operator));
    }

    #[test]
    fn audited_clean_run_is_byte_identical_and_feeds_health() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let q = ConjunctiveQuery::new("cs-dept")
            .atom("Dept")
            .select((0, "DName"), "Computer Science")
            .project((0, "Address"));
        let plain = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .run(&q)
            .unwrap();
        let health = crate::ConstraintHealth::new();
        let audited = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&ExecPolicy {
                audit: Some((1.0, 7)),
                health: Some(&health),
                ..Default::default()
            })
            .run(&q)
            .unwrap();
        // On a pristine site auditing observes, quarantines nothing, and
        // changes nothing.
        assert!(!audited.fell_back());
        assert_eq!(audited.report.relation, plain.report.relation);
        assert_eq!(audited.report.page_accesses, plain.report.page_accesses);
        assert_eq!(
            audited.report.accesses_by_operator,
            plain.report.accesses_by_operator
        );
        assert_eq!(audited.explain.best().expr, plain.explain.best().expr);
        // … but the health registry saw the checks.
        let audit = audited.report.audit.as_ref().expect("audit ran");
        assert!(audit.checks() > 0);
        assert_eq!(audit.violation_count(), 0);
        let snap = health.snapshot();
        assert_eq!(snap.checks, audit.checks());
        assert!(snap.is_quiet());
    }

    #[test]
    fn drift_triggers_quarantine_and_fallback() {
        use websim::{MutationPlan, MutationRule};
        let mut u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let q = ConjunctiveQuery::new("cs-dept")
            .atom("Dept")
            .select((0, "DName"), "Computer Science")
            .project((0, "Address"));
        // Drift every DeptPage's DName: the anchor-replication constraint
        // DeptListPage.DeptList.DName = DeptPage.DName — which licensed
        // pushing the selection across the follow — is now false.
        let report = MutationPlan::new(3)
            .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
            .apply_round(&mut u.site, u64::MAX)
            .unwrap();
        assert!(report.edited_pages > 0);
        let source = LiveSource::for_site(&u.site);
        let health = crate::ConstraintHealth::new();
        let session =
            QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
                audit: Some((1.0, 7)),
                health: Some(&health),
                ..Default::default()
            });
        let outcome = session.run(&q).unwrap();
        // The audit caught the violation and the answer fell back.
        assert!(outcome.fell_back());
        let fb = outcome.fallback.as_ref().unwrap();
        assert!(!fb.violated.is_empty());
        assert_eq!(fb.newly_quarantined, fb.violated);
        assert!(fb.diverged, "drifted DName changes the answer");
        assert!(fb.suspect_report.audit.as_ref().unwrap().violation_count() > 0);
        // The authoritative answer equals a constraint-free run.
        let naive = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&ExecPolicy {
                mask: RuleMask::none(),
                ..Default::default()
            })
            .run(&q)
            .unwrap();
        assert_eq!(
            outcome.report.relation.sorted(),
            naive.report.relation.sorted()
        );
        // The registry shows the quarantine; the next run's EXPLAIN
        // surfaces it and stops trusting the constraint.
        let snap = health.snapshot();
        assert!(snap.quarantines >= 1);
        assert_eq!(snap.fallbacks, 1);
        assert!(snap.quarantined_now >= 1);
        let second = session.run(&q).unwrap();
        assert!(
            !second.fell_back(),
            "quarantine removed the bad rewrite, so nothing to audit-fail"
        );
        assert!(!second.explain.quarantined.is_empty());
        assert!(second
            .explain
            .report()
            .contains("quarantined (excluded from rewrites):"));
        for d in second.explain.best().dependencies.iter() {
            assert!(!fb.violated.contains(&d.key()));
        }
        assert_eq!(
            second.report.relation.sorted(),
            naive.report.relation.sorted()
        );
    }

    #[test]
    fn estimated_tracks_measured() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let q = ConjunctiveQuery::new("profs-by-dept")
            .atom("ProfDept")
            .select((0, "DName"), "Computer Science")
            .project((0, "PName"));
        let outcome = session.run(&q).unwrap();
        let est = outcome.estimated_pages();
        let meas = outcome.measured_pages() as f64;
        // within 2× either way (uniformity assumption)
        assert!(
            est <= meas * 2.0 + 2.0 && meas <= est * 2.0 + 2.0,
            "estimate {est} vs measured {meas}"
        );
    }

    /// "Never plan past the deadline" holds for every session, not only
    /// for one that owns a plan cache.
    #[test]
    fn a_session_without_a_cache_never_plans_past_its_deadline() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let expired = ExecPolicy {
            eval: EvalPolicy {
                deadline: obs::Deadline::after_us(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let session =
            QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(&expired);
        let q = ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        u.site.server.reset_stats();
        assert!(matches!(
            session.run(&q),
            Err(crate::OptError::DeadlineExceeded)
        ));
        assert_eq!(u.site.server.stats().gets, 0);
    }
}
