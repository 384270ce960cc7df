//! The long-lived query server: admission → plan cache → session.
//!
//! A [`QueryServer`] owns what is shared between concurrent sessions over
//! one site — the plan cache, the admission gate, the statistics epoch,
//! and one [`ExecPolicy`] (shared page cache, constraint health, pool, …)
//! — and builds a cheap borrowed [`QuerySession`] per request under a
//! per-request clone of that policy. `serve` is `&self` and
//! thread-safe: N serving threads call it concurrently over one server.
//!
//! Per request:
//! 1. **admission** — beyond the concurrency limit the request is shed
//!    immediately: an empty, explicitly incomplete answer in the spirit
//!    of [`nalg::DegradationMode::Partial`], never an error or a queue;
//! 2. **maintained views** — a registered, healthy view answers with zero
//!    page accesses;
//! 3. **the session** — everything else is [`QuerySession::run`] on a
//!    session handed the server's plan cache and statistics epoch: the
//!    health tick, the lookup under `(query shape, statistics epoch,
//!    quarantine fingerprint)`, planning on a miss (never past the
//!    deadline), the audit settlement, and the cache fill — or the
//!    poisoned plan's removal — are written down there, once, for every
//!    owner of a cache. The server reads [`QueryOutcome::plan`] for its
//!    `cached_plan` flag and its `serve.plan_cache` event.

use crate::admission::{AdmissionControl, AdmissionStats};
use adm::{Relation, WebScheme};
use matview::IncrementalView;
use nalg::{Fetch, PageSource, SharedPageCache};
use obs::reqctx::{Attribution, FetchClock, RequestCtx};
use obs::{
    Counter, EventKind, FlightRecorder, MetricsRegistry, PhaseBreakdown, RequestTrace, SloTracker,
    TraceSink, TriggerKind,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wvcore::{
    quarantine_fingerprint, ConjunctiveQuery, ExecPolicy, OptError, PlanCache, PlanCacheStats,
    QueryOutcome, QuerySession, Result, SiteStatistics, ViewCatalog, PLAN_CACHE_CAPACITY,
};

/// One splitmix64 step — the golden-ratio increment, then the finaliser:
/// a cheap, well-mixed 64-bit permutation used to derive request ids.
fn mix64(z: u64) -> u64 {
    adm::mix64(z.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Seed salt separating a request's attribution sink from its causal
/// sink (same request id, disjoint event-id streams).
const ATTR_SALT: u64 = 0x5eed_a77e_f17c_9b3d;

/// Per-server tracing state: the base seed and a per-query occurrence
/// counter, so the k-th serve of a given query gets the same request id
/// on every same-seed run — regardless of which thread serves it.
struct ServeTracing {
    base_seed: u64,
    per_query: Mutex<HashMap<String, u64>>,
}

impl ServeTracing {
    fn new(base_seed: u64) -> Self {
        ServeTracing {
            base_seed,
            per_query: Mutex::new(HashMap::new()),
        }
    }

    /// Deterministic request id for the next serve of `key`: a mix of
    /// the base seed, the query key's hash, and how many times this
    /// query has been served before.
    fn request_id(&self, key: &str) -> u64 {
        let occurrence = {
            let mut m = self.per_query.lock();
            let n = m.entry(key.to_string()).or_insert(0);
            let k = *n;
            *n += 1;
            k
        };
        let h = adm::fnv1a(key.bytes());
        mix64(self.base_seed ^ mix64(h) ^ mix64(occurrence))
    }
}

/// Everything one observed request carries through the pipeline: its
/// identity, sinks, fetch clock, and the phase timings measured so far.
struct RequestObs {
    rid: u64,
    /// Deterministic causal sink (root span, planner, operators).
    sink: TraceSink,
    /// Side sink for scheduling-dependent fetch attribution events.
    attr: TraceSink,
    /// The root `serve.request` span's id.
    root: u64,
    clock: FetchClock,
    /// Set when a registered view was degraded and the request fell
    /// through to live evaluation.
    view_fallback: bool,
    phases: PhaseBreakdown,
}

/// What the server answered for one request.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The executed query's outcome; `None` when the request was shed at
    /// admission (an empty partial answer: no rows, not complete).
    pub outcome: Option<QueryOutcome>,
    /// True when the plan came from the cache (rule 1–9 enumeration was
    /// skipped) — shared as stored, or bound to this request's constants.
    pub cached_plan: bool,
    /// True when admission control shed this request.
    pub shed: bool,
    /// The answer read from an incrementally maintained view — no
    /// navigation, no optimizer, zero page accesses. `Some` exactly when
    /// the request was answered by [`QueryServer::with_views`] state;
    /// `outcome` is `None` in that case.
    pub view_answer: Option<Relation>,
    /// The request's seeded-deterministic id; `Some` exactly when the
    /// server was built [`QueryServer::with_trace`].
    pub request_id: Option<u64>,
    /// Wall-clock phase breakdown (queue is left 0 — the caller knows
    /// scheduling delay, the server does not); `Some` exactly when
    /// tracing is on.
    pub phases: Option<PhaseBreakdown>,
    /// True when the request's deadline budget expired: before admission
    /// or planning (an empty partial answer, `outcome` is `None`) or
    /// mid-evaluation (`outcome` present, its report carrying the exact
    /// not-yet-fetched URL set in `unreachable`).
    pub brown_out: bool,
}

impl ServeOutcome {
    /// True when the answer covers the whole query — i.e. the request was
    /// neither shed nor browned out (both degrade to `Partial`-style
    /// results: shed is empty, a brown-out covers the pages fetched
    /// within budget).
    pub fn is_complete(&self) -> bool {
        !self.shed && !self.brown_out
    }

    /// True when a maintained view answered (no live navigation ran).
    pub fn from_view(&self) -> bool {
        self.view_answer.is_some()
    }

    /// The answer relation, wherever it came from: the maintained view or
    /// the executed session. `None` only for shed requests.
    pub fn relation(&self) -> Option<&Relation> {
        self.view_answer
            .as_ref()
            .or_else(|| self.outcome.as_ref().map(|o| &o.report.relation))
    }
}

/// A multi-tenant serving layer over one site: concurrent sessions share
/// one source (typically a [`nalg::CoalescingSource`] stacked on the
/// live/resilient source).
pub struct QueryServer<'a, S: PageSource> {
    ws: &'a WebScheme,
    catalog: &'a ViewCatalog,
    stats: RwLock<&'a SiteStatistics>,
    source: &'a S,
    stats_epoch: AtomicU64,
    plan_cache: PlanCache,
    admission: AdmissionControl,
    /// What every served session runs under; each request clones it once
    /// to set its own deadline, cancel token and trace.
    policy: ExecPolicy<'a>,
    views: Option<&'a RwLock<IncrementalView<'a>>>,
    tracing: Option<ServeTracing>,
    slo: Option<SloTracker>,
    recorder: Option<FlightRecorder>,
    /// Default per-request deadline budget in µs.
    deadline_budget_us: Option<u64>,
    registry: MetricsRegistry,
    requests: Counter,
    shed: Counter,
    brown_outs: Counter,
    view_hits: Counter,
    view_fallbacks: Counter,
}

impl<'a, S: PageSource> QueryServer<'a, S> {
    /// A server with the default [`ExecPolicy`], 64 cached plans and 8
    /// concurrent sessions.
    pub fn new(
        ws: &'a WebScheme,
        catalog: &'a ViewCatalog,
        stats: &'a SiteStatistics,
        source: &'a S,
    ) -> Self {
        let registry = MetricsRegistry::with_prefix("serve");
        QueryServer {
            ws,
            catalog,
            stats: RwLock::new(stats),
            source,
            stats_epoch: AtomicU64::new(0),
            plan_cache: PlanCache::with_registry(PLAN_CACHE_CAPACITY, &registry, "plan"),
            admission: AdmissionControl::new(8),
            policy: ExecPolicy::default(),
            views: None,
            tracing: None,
            slo: None,
            recorder: None,
            deadline_budget_us: None,
            requests: registry.counter("requests"),
            shed: registry.counter("shed"),
            brown_outs: registry.counter("brown_outs"),
            view_hits: registry.counter("views_answered"),
            view_fallbacks: registry.counter("views_fallback"),
            registry,
        }
    }

    /// Serves every session under `policy` (see [`ExecPolicy`]); a
    /// [`ConstraintHealth`](wvcore::ConstraintHealth) in it also keys
    /// the plan cache, so quarantines invalidate the plans they licensed.
    /// Per request the server sets the deadline (see
    /// [`QueryServer::serve_with_deadline`]) and the trace; a cancel token
    /// set here is shared by every request, else each gets its own when
    /// something will use it ([`nalg::EvalPolicy::cancel_token`]).
    pub fn with_policy(mut self, policy: &ExecPolicy<'a>) -> Self {
        self.policy = policy.clone();
        self
    }

    /// Sets the admission limit: at most `capacity` concurrent sessions,
    /// the rest shed (builder style).
    pub fn with_admission_capacity(mut self, capacity: usize) -> Self {
        self.admission = AdmissionControl::new(capacity);
        self
    }

    /// Shares a cross-query page cache between every served session (the
    /// policy's `eval.shared_cache`).
    pub fn with_shared_cache(mut self, cache: &'a SharedPageCache) -> Self {
        self.policy.eval.shared_cache = Some(cache);
        self
    }

    /// Served sessions evaluate with a pool of `workers` fetch threads,
    /// keeping the policy's hedging (the policy's `eval.fetch`).
    pub fn with_concurrent_fetch(mut self, workers: usize) -> Self {
        self.policy.eval.fetch = match self.policy.eval.fetch.hedge() {
            Some(hedge) => Fetch::hedged(workers, hedge.clone()),
            None => Fetch::pool(workers),
        };
        self
    }

    /// Attaches incrementally maintained views (keyed by
    /// [`ConjunctiveQuery::cache_key`]): a request whose key has a live
    /// maintained answer is served from it directly — no optimizer, no
    /// navigation, zero page accesses. A degraded view (its maintenance
    /// hit a transient failure) falls back to ordinary live evaluation
    /// until a later sync rebuilds it.
    pub fn with_views(mut self, views: &'a RwLock<IncrementalView<'a>>) -> Self {
        self.views = Some(views);
        self
    }

    /// Enables request-scoped causal tracing. Every [`QueryServer::serve`]
    /// call gets a deterministic request id (a mix of `seed`, the
    /// query's cache key, and its per-query occurrence count) and a root
    /// `serve.request` span; admission, plan-cache, view, planner, and
    /// evaluator activity parent under it, and fetch-layer attribution
    /// (pool workers, coalescing leader/follower links, dataflow
    /// upqueries) is routed to a per-request side sink via
    /// [`obs::reqctx`]. Same seed, same request sequence → byte-identical
    /// causal exports; answers and page accesses are untouched.
    pub fn with_trace(mut self, seed: u64) -> Self {
        self.tracing = Some(ServeTracing::new(seed));
        self
    }

    /// Attaches a latency SLO: every request's end-to-end latency is
    /// recorded into the (shared) tracker's fixed-precision histogram
    /// and burn windows. A breach fires the flight recorder's
    /// [`TriggerKind::SloBreach`] when one is attached.
    pub fn with_slo(mut self, slo: &SloTracker) -> Self {
        self.slo = Some(slo.clone());
        self
    }

    /// Attaches a (shared) flight recorder: with tracing on, every
    /// completed request's [`RequestTrace`] is recorded into the ring,
    /// and shed / constraint-fallback / degraded-view / SLO-breach
    /// requests freeze it into a dump.
    pub fn with_flight_recorder(mut self, recorder: &FlightRecorder) -> Self {
        self.recorder = Some(recorder.clone());
        self
    }

    /// Gives every request a default deadline budget of `us`
    /// microseconds, measured from the moment [`QueryServer::serve`] is
    /// entered. Past the budget a request browns out: not-yet-fetched
    /// pages are reported exactly (never fetched past the SLO), and a
    /// request arriving already expired is answered as an empty partial
    /// without consuming an admission permit. Overridable per call via
    /// [`QueryServer::serve_with_deadline`].
    pub fn with_deadline_budget(mut self, us: u64) -> Self {
        self.deadline_budget_us = Some(us);
        self
    }

    /// The `serve`-prefixed registry (requests, shed, plan-cache
    /// counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The plan cache (inspection/reporting).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The admission gate (inspection/reporting).
    pub fn admission(&self) -> &AdmissionControl {
        &self.admission
    }

    /// The current statistics epoch (starts at 0, bumped by
    /// [`QueryServer::recollect_statistics`]).
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::SeqCst)
    }

    /// Swaps in freshly collected statistics: bumps the epoch and
    /// explicitly invalidates every cached plan (their cost ranking was
    /// computed against the old statistics). Returns the new epoch.
    pub fn recollect_statistics(&self, stats: &'a SiteStatistics) -> u64 {
        let epoch = {
            let mut slot = self.stats.write();
            *slot = stats;
            self.stats_epoch.fetch_add(1, Ordering::SeqCst) + 1
        };
        let quarantined = self
            .policy
            .health
            .map(|h| h.quarantined())
            .unwrap_or_default();
        self.plan_cache
            .sync(epoch, quarantine_fingerprint(&quarantined));
        epoch
    }

    /// Builds the per-request session over the current statistics, under
    /// `policy`, with the plan cache keyed on the epoch those statistics
    /// belong to (read under one lock: a recollection swaps both under its
    /// write lock).
    fn session<'s>(&'s self, policy: &ExecPolicy<'s>) -> QuerySession<'s, S> {
        let (stats, epoch): (&'a SiteStatistics, u64) = {
            let slot = self.stats.read();
            (*slot, self.stats_epoch())
        };
        QuerySession::new(self.ws, self.catalog, stats, self.source)
            .with_policy(policy)
            .with_plan_cache(&self.plan_cache, epoch)
    }

    /// Serves one query (thread-safe). See the module docs for the
    /// admission → tick → plan-cache → settle pipeline.
    ///
    /// With tracing/SLO/flight-recorder attached the same pipeline runs
    /// under a root `serve.request` span with per-phase timing; the
    /// answer (rows, completeness, page accesses) never depends on
    /// whether observation is on.
    pub fn serve(&self, q: &ConjunctiveQuery) -> Result<ServeOutcome> {
        let deadline = self
            .deadline_budget_us
            .map_or_else(obs::Deadline::infinite, obs::Deadline::after_us);
        self.serve_with_deadline(q, deadline)
    }

    /// [`QueryServer::serve`] with an explicit per-request deadline,
    /// overriding the configured default budget. The deadline threads
    /// down through planning, evaluation, and the fetch pool: every
    /// blocking point checks the remaining budget and fails over to a
    /// partial answer (a *brown-out*) instead of blocking past it.
    pub fn serve_with_deadline(
        &self,
        q: &ConjunctiveQuery,
        deadline: obs::Deadline,
    ) -> Result<ServeOutcome> {
        self.requests.inc();
        if self.tracing.is_none() && self.slo.is_none() && self.recorder.is_none() {
            return self.serve_pipeline(q, deadline, None);
        }
        let key = q.cache_key();
        let mut obs = self.tracing.as_ref().map(|t| {
            let rid = t.request_id(&key);
            let sink = TraceSink::with_seed(rid);
            let attr = TraceSink::with_seed(rid ^ ATTR_SALT);
            let mut root = sink.begin(EventKind::Serve, "serve.request", None);
            root.set("request", rid);
            root.set("query", key.as_str());
            (
                root,
                RequestObs {
                    rid,
                    sink,
                    attr,
                    root: 0,
                    clock: FetchClock::new(),
                    view_fallback: false,
                    phases: PhaseBreakdown::default(),
                },
            )
        });
        if let Some((root, o)) = obs.as_mut() {
            o.root = root.id();
        }
        let t0 = Instant::now();
        let res = self.serve_pipeline(q, deadline, obs.as_mut().map(|(_, o)| o));
        let latency_us = t0.elapsed().as_micros() as u64;
        let out = res?;
        let fell_back = out.outcome.as_ref().map(|o| o.fell_back()).unwrap_or(false);
        let rid = out.request_id.unwrap_or(0);
        let view_degraded = obs.as_ref().map(|(_, o)| o.view_fallback).unwrap_or(false);
        if let Some((mut root, o)) = obs {
            root.set("shed", u64::from(out.shed));
            root.set("brown_out", u64::from(out.brown_out));
            root.set("cached_plan", u64::from(out.cached_plan));
            root.set("from_view", u64::from(out.from_view()));
            o.sink.finish(root);
            if let Some(rec) = &self.recorder {
                rec.record(RequestTrace {
                    request_id: o.rid,
                    query: key.clone(),
                    latency_us,
                    shed: out.shed,
                    cached_plan: out.cached_plan,
                    from_view: out.from_view(),
                    fell_back,
                    phases: out.phases.unwrap_or_default(),
                    events: o.sink.events(),
                    fetch_events: o.attr.events(),
                });
            }
        }
        let breached = self
            .slo
            .as_ref()
            .map(|s| s.record(latency_us))
            .unwrap_or(false);
        if let Some(rec) = &self.recorder {
            if out.shed {
                rec.trigger(TriggerKind::Shed, rid);
            }
            if fell_back {
                rec.trigger(TriggerKind::ConstraintFallback, rid);
            }
            if view_degraded {
                rec.trigger(TriggerKind::ViewDegraded, rid);
            }
            if breached {
                rec.trigger(TriggerKind::SloBreach, rid);
            }
            if out.brown_out {
                rec.trigger(TriggerKind::BudgetExhausted, rid);
            }
        }
        Ok(out)
    }

    /// The untimed pipeline shared by observed and unobserved requests.
    /// `obs`, when present, receives phase timings and causal events;
    /// control flow is identical either way.
    fn serve_pipeline(
        &self,
        q: &ConjunctiveQuery,
        deadline: obs::Deadline,
        mut obs: Option<&mut RequestObs>,
    ) -> Result<ServeOutcome> {
        let outcome_of = |obs: &Option<&mut RequestObs>,
                          outcome: Option<QueryOutcome>,
                          cached_plan: bool,
                          shed: bool,
                          brown_out: bool,
                          view_answer: Option<Relation>| {
            ServeOutcome {
                outcome,
                cached_plan,
                shed,
                brown_out,
                view_answer,
                request_id: obs.as_ref().map(|o| o.rid),
                phases: obs.as_ref().map(|o| o.phases),
            }
        };
        // A request arriving with its budget already gone (e.g. it aged
        // out in the caller's queue) is answered immediately as an empty
        // partial — crucially *without* consuming an admission permit a
        // live request could use.
        if deadline.expired() {
            self.brown_outs.inc();
            if let Some(o) = obs.as_deref_mut() {
                o.sink.event(
                    EventKind::Serve,
                    "serve.deadline",
                    Some(o.root),
                    vec![("pre_admission".to_string(), 1u64.into())],
                );
            }
            return Ok(outcome_of(&obs, None, false, true, true, None));
        }
        let admitted = self.admission.try_admit();
        if let Some(o) = obs.as_deref_mut() {
            o.sink.event(
                EventKind::Serve,
                "serve.admission",
                Some(o.root),
                vec![("admitted".to_string(), u64::from(admitted.is_some()).into())],
            );
        }
        let Some(_permit) = admitted else {
            self.shed.inc();
            return Ok(outcome_of(&obs, None, false, true, false, None));
        };
        // Maintained views first: a registered, healthy view answers with
        // zero page accesses. A degraded one falls through to the full
        // optimize-and-navigate pipeline below.
        if let Some(views) = self.views {
            let guard = views.read();
            let key = q.cache_key();
            if guard.is_registered(&key) {
                let t_view = Instant::now();
                let answer = guard.answer(&key);
                if let Some(o) = obs.as_deref_mut() {
                    o.phases.view_us = t_view.elapsed().as_micros() as u64;
                    o.sink.event(
                        EventKind::Serve,
                        "serve.view",
                        Some(o.root),
                        vec![("answered".to_string(), u64::from(answer.is_some()).into())],
                    );
                }
                match answer {
                    Some(rel) => {
                        self.view_hits.inc();
                        return Ok(outcome_of(&obs, None, false, false, false, Some(rel)));
                    }
                    None => {
                        self.view_fallbacks.inc();
                        if let Some(o) = obs.as_deref_mut() {
                            o.view_fallback = true;
                        }
                    }
                }
            }
        }
        let mut policy = self.policy.clone();
        policy.eval.deadline = deadline;
        policy.eval.trace = obs.as_deref().map(|o| (o.sink.clone(), Some(o.root)));
        let session = self.session(&policy);
        let t_run = Instant::now();
        // An observed request's attribution goes to the layers that only
        // see the thread; its deadline and token reach them from the
        // evaluator, which installs them over it.
        let ran = match obs.as_deref() {
            Some(o) => {
                let ctx = RequestCtx::traced(Attribution {
                    sink: o.attr.clone(),
                    parent: o.root,
                    request_id: o.rid,
                    clock: o.clock.clone(),
                });
                obs::reqctx::with_ctx(Some(ctx), || session.run(q))
            }
            None => session.run(q),
        };
        let outcome = match ran {
            Ok(outcome) => outcome,
            // The plan cache missed with the budget already gone: rule
            // 1–9 enumeration was never started.
            Err(OptError::DeadlineExceeded) => {
                self.brown_outs.inc();
                if let Some(o) = obs.as_deref_mut() {
                    o.sink.event(
                        EventKind::Serve,
                        "serve.deadline",
                        Some(o.root),
                        vec![("pre_plan".to_string(), 1u64.into())],
                    );
                }
                return Ok(outcome_of(&obs, None, false, true, true, None));
            }
            Err(e) => return Err(e),
        };
        let cached_plan = outcome.plan.is_cached();
        let brown_out = outcome.report.deadline_exceeded;
        if brown_out {
            self.brown_outs.inc();
        }
        if let Some(o) = obs.as_deref_mut() {
            let total = t_run.elapsed().as_micros() as u64;
            o.phases.plan_us = outcome.plan_us;
            o.phases.fetch_us = o.clock.total_us();
            o.phases.eval_us = total.saturating_sub(o.phases.plan_us + o.phases.fetch_us);
            o.sink.event(
                EventKind::Serve,
                "serve.plan_cache",
                Some(o.root),
                vec![("hit".to_string(), u64::from(cached_plan).into())],
            );
        }
        Ok(outcome_of(
            &obs,
            Some(outcome),
            cached_plan,
            false,
            brown_out,
            None,
        ))
    }

    /// A point-in-time copy of every serving counter.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.get(),
            shed: self.shed.get(),
            brown_outs: self.brown_outs.get(),
            view_hits: self.view_hits.get(),
            view_fallbacks: self.view_fallbacks.get(),
            stats_epoch: self.stats_epoch(),
            plan_cache: self.plan_cache.stats(),
            admission: self.admission.snapshot(),
        }
    }
}

/// A point-in-time copy of a server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Requests received (served + shed).
    pub requests: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests whose deadline budget expired (before admission,
    /// before planning, or mid-evaluation).
    pub brown_outs: u64,
    /// Requests answered directly from a maintained incremental view.
    pub view_hits: u64,
    /// Requests whose registered view was degraded, served live instead.
    pub view_fallbacks: u64,
    /// The statistics epoch at snapshot time.
    pub stats_epoch: u64,
    /// Plan-cache counters.
    pub plan_cache: PlanCacheStats,
    /// Admission counters.
    pub admission: AdmissionStats,
}
