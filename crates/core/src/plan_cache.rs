//! The plan cache: one rule 1–9 enumeration per query *shape*.
//!
//! Algorithm 1 re-derives the same winning plan every time a popular
//! query arrives, and — because it never looks at a selection constant —
//! the same plan up to constants for every query of one shape; on a
//! serving or maintenance workload that CPU is pure waste. The cache maps
//! a [`PlanKey`] — the query's constant-free shape
//! ([`ConjunctiveQuery::shape`]), the owner's planning-context epoch, and
//! a fingerprint of the current quarantine set — to the full [`Explain`]
//! the optimizer produced for the first instance of the shape, together
//! with that instance's constants. A hit by the same constants shares the
//! stored plan set; a hit by other constants gets it re-addressed
//! ([`Explain::bind`], counted as `rebinds`).
//!
//! **Who consults it.** Nobody but [`crate::QuerySession::run`], for a
//! session built [`crate::QuerySession::with_plan_cache`]: lookup, plan on
//! a miss, execute, then insert — or remove, when the plan's own audit
//! falsified it. A cache has an *owner* that outlives sessions and says
//! what else, besides shape and quarantine set, a plan was planned under
//! (the `context` it hands each session): a `serve::QueryServer` borrows
//! scheme, catalog and statistics for its whole life, so its context is
//! its statistics epoch; a `matview::MatStore` outlives the sessions that
//! borrow those inputs, so its context counts the distinct (rule mask,
//! scheme, catalog, statistics) — compared by value — it has planned under.
//!
//! **Invalidation.** All three key components exist to invalidate: a new
//! context epoch (statistics recollected, other planning inputs) and any
//! [`ConstraintHealth`](crate::ConstraintHealth) quarantine or TTL
//! re-admission (a new fingerprint) stop cached plans from matching, and
//! [`PlanCache::sync`] purges them (counted as `invalidations`). On top of that,
//! [`PlanCache::lookup`] re-checks the served plan's own
//! [`crate::rules::ConstraintDependency`] set against the quarantine list
//! at hit time: a cached plan licensed by a since-quarantined constraint
//! is **never served**, even if a stale fingerprint were to collide
//! (counted as `quarantine_rejections`).
//!
//! **What is never stored.** [`Explain::bind`] rewrites every constant
//! equal to a stored parameter, which is sound only while the plan's
//! constants are the query's. A catalog whose default navigations select
//! on constants of their own breaks that premise, so the plan set of a
//! query over such a relation is refused (counted as `refused`) and the
//! shape is planned every time.
//!
//! **What an entry keeps** is the owner's choice: whole plan sets (the
//! serving layer, whose hits list every candidate as its misses do), or
//! each set's winning candidate alone ([`PlanCache::winners_only`] — a
//! store, which bounds what it retains).
//!
//! Counters register on an [`obs::MetricsRegistry`] under a caller-chosen
//! stem: `serve_plan_*` for the serving layer, `…_store_plan_*` for a
//! materialized store.

use crate::{ConjunctiveQuery, Explain};
use adm::Value;
use obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Plans either owner of a cache keeps: the serving layer's and a
/// materialized store's.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// What a cached plan is keyed on. Any component changing is a miss.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The key half of [`ConjunctiveQuery::shape`] — the normalized query
    /// AST with its constants taken out.
    pub shape: String,
    /// The owner's planning-context epoch: the serving layer's statistics
    /// epoch (bumped on recollection), or a store's count of the planning
    /// inputs it has seen change.
    pub stats_epoch: u64,
    /// [`quarantine_fingerprint`] of the quarantined constraint keys.
    pub quarantine_fp: u64,
}

/// A stable order-sensitive fingerprint of the (sorted) quarantine set,
/// FNV-1a over the keys with a splitmix64 finisher. The empty set is 0.
pub fn quarantine_fingerprint(quarantined: &[String]) -> u64 {
    if quarantined.is_empty() {
        return 0;
    }
    // Each key ends in a 0xff separator byte.
    let h = adm::fnv1a(quarantined.iter().flat_map(|k| k.bytes().chain([0xff])));
    adm::mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// How a run came by its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOrigin {
    /// Rule 1–9 enumeration ran: no cache was attached, or it missed.
    Planned,
    /// The cached plan set of the query's shape, planned for these very
    /// constants and shared as stored.
    ShapeHit,
    /// The cached plan set of the query's shape, planned for other
    /// constants and bound to this query's ([`Explain::bind`]).
    Rebound,
}

impl PlanOrigin {
    /// True when rule 1–9 enumeration was skipped.
    pub fn is_cached(self) -> bool {
        self != PlanOrigin::Planned
    }
}

#[derive(Debug)]
struct Entry {
    /// The plan set as planned for the shape's first instance…
    explain: Arc<Explain>,
    /// …and that instance's constants (the parameter half of its shape).
    params: Arc<[Value]>,
    last_used: u64,
}

#[derive(Debug)]
struct CacheState {
    map: HashMap<PlanKey, Entry>,
    clock: u64,
    /// The `(stats_epoch, quarantine_fp)` of the last [`PlanCache::sync`].
    synced: Option<(u64, u64)>,
}

/// A bounded LRU cache of plan sets, one per query shape. See the module
/// docs for who owns one, what its key contains and what a hit skips.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// Keep each plan set's winning candidate only
    /// ([`PlanCache::winners_only`]).
    winners_only: bool,
    state: Mutex<CacheState>,
    registry: MetricsRegistry,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    quarantine_rejections: Counter,
    rebinds: Counter,
    refused: Counter,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1), counting as
    /// `serve_plan_*` on a fresh registry of its own.
    pub fn new(capacity: usize) -> Self {
        Self::with_registry(capacity, &MetricsRegistry::with_prefix("serve"), "plan")
    }

    /// [`PlanCache::new`] registering its counters on an existing registry
    /// as `<stem>_hits`, `<stem>_misses`, … (the serving layer shares one
    /// `serve` registry across subsystems; a store registers under the
    /// prefix of whoever maintains it).
    pub fn with_registry(capacity: usize, registry: &MetricsRegistry, stem: &str) -> Self {
        let counter = |name: &str| registry.counter(&format!("{stem}_{name}"));
        PlanCache {
            capacity: capacity.max(1),
            winners_only: false,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                clock: 0,
                synced: None,
            }),
            hits: counter("hits"),
            rebinds: counter("rebinds"),
            misses: counter("misses"),
            evictions: counter("evictions"),
            invalidations: counter("invalidations"),
            quarantine_rejections: counter("quarantine_rejections"),
            refused: counter("refused"),
            registry: registry.clone(),
        }
    }

    /// Keeps only the winning candidate of every plan set inserted from now
    /// on: a hit serves the plan that runs, and the candidates it beat
    /// belong to an enumeration a hit does not repeat. (The 79 candidates
    /// of one four-way join are 350 KB of trees and per-node estimates;
    /// its winner is 4 KB.) A hit's [`Explain::candidates`] then has one
    /// entry. For an owner that bounds what it retains — a materialized
    /// store; the serving layer keeps serving whole plan sets, as it
    /// always has.
    pub fn winners_only(mut self) -> Self {
        self.winners_only = true;
        self
    }

    /// The registry carrying this cache's counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Purges every entry whose epoch or quarantine fingerprint disagrees
    /// with the current `(stats_epoch, quarantine_fp)` — the explicit
    /// invalidation on a new planning context and on quarantine /
    /// re-admission. Returns how many entries were dropped.
    ///
    /// A session calls this on every run, and the pair moves
    /// only on recollection or a quarantine transition: a call repeating
    /// the last synced pair returns 0 without scanning. (An entry a racing
    /// request inserts under the *old* pair just after the change can
    /// never match a lookup again; it leaves at the next change or by
    /// LRU rather than at the next request.)
    pub fn sync(&self, stats_epoch: u64, quarantine_fp: u64) -> u64 {
        let mut state = self.state();
        if state.synced.replace((stats_epoch, quarantine_fp)) == Some((stats_epoch, quarantine_fp))
        {
            return 0;
        }
        let before = state.map.len();
        state
            .map
            .retain(|k, _| k.stats_epoch == stats_epoch && k.quarantine_fp == quarantine_fp);
        let dropped = (before - state.map.len()) as u64;
        self.invalidations.add(dropped);
        dropped
    }

    /// Looks up the plan set for `q`, whose shape is `key.shape` with
    /// parameters `params`. Counted as a hit only when the key matches
    /// **and** the served (best) plan's constraint-dependency set is
    /// disjoint from `quarantined` — a cached plan licensed by a
    /// quarantined constraint is removed and reported as a miss (the
    /// correctness guard; dependencies belong to the shape, so this judges
    /// every instance of it alike).
    ///
    /// A hit whose `params` are the stored ones shares the stored
    /// [`Explain`] ([`PlanOrigin::ShapeHit`]); any other hit is bound to
    /// `q` ([`Explain::bind`], outside the cache lock), counted in
    /// `rebinds` as well, and [`PlanOrigin::Rebound`].
    pub fn lookup(
        &self,
        key: &PlanKey,
        q: &ConjunctiveQuery,
        params: &[Value],
        quarantined: &[String],
    ) -> Option<(Arc<Explain>, PlanOrigin)> {
        let (plan, stored) = {
            let mut state = self.state();
            state.clock += 1;
            let clock = state.clock;
            let Some(entry) = state.map.get_mut(key) else {
                self.misses.inc();
                return None;
            };
            let tainted = entry
                .explain
                .best()
                .dependencies
                .iter()
                .any(|d| quarantined.iter().any(|k| *k == d.key()));
            if tainted {
                state.map.remove(key);
                self.quarantine_rejections.inc();
                self.misses.inc();
                return None;
            }
            entry.last_used = clock;
            (Arc::clone(&entry.explain), Arc::clone(&entry.params))
        };
        self.hits.inc();
        if *stored == *params {
            return Some((plan, PlanOrigin::ShapeHit));
        }
        self.rebinds.inc();
        Some((Arc::new(plan.bind(q, &stored, params)), PlanOrigin::Rebound))
    }

    /// Inserts the plan set planned for the instance of `key.shape` whose
    /// parameters are `params`, evicting the least-recently-used entry
    /// when full. A [`PlanCache::winners_only`] cache keeps a copy holding
    /// the winning candidate alone.
    pub fn insert(&self, key: PlanKey, params: Vec<Value>, explain: Arc<Explain>) {
        let explain = if self.winners_only && explain.candidates.len() > 1 {
            Arc::new(Explain {
                query: explain.query.clone(),
                candidates: vec![explain.best().clone()],
                quarantined: explain.quarantined.clone(),
            })
        } else {
            explain
        };
        let mut state = self.state();
        state.clock += 1;
        let clock = state.clock;
        if !state.map.contains_key(&key) && state.map.len() >= self.capacity {
            if let Some(victim) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                state.map.remove(&victim);
                self.evictions.inc();
            }
        }
        state.map.insert(
            key,
            Entry {
                explain,
                params: params.into(),
                last_used: clock,
            },
        );
    }

    /// Drops one entry (e.g. a shape whose plan just failed its audit —
    /// the falsified constraint was assumed for every instance of it).
    pub fn remove(&self, key: &PlanKey) -> bool {
        let removed = self.state().map.remove(key).is_some();
        if removed {
            self.invalidations.inc();
        }
        removed
    }

    /// Counts a freshly planned plan set its owner's session declined to
    /// store (see the module docs: the catalog's navigations carry
    /// constants, so binding it to other constants would be unsound).
    pub fn note_refused(&self) {
        self.refused.inc();
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.state().map.len()
    }

    /// True when the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            quarantine_rejections: self.quarantine_rejections.get(),
            rebinds: self.rebinds.get(),
            refused: self.refused.get(),
            entries: self.len(),
        }
    }
}

/// A point-in-time copy of the plan-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to optimize (absent, invalidated, or rejected).
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Entries purged by epoch/fingerprint sync or explicit removal.
    pub invalidations: u64,
    /// Hits refused because the plan depended on a quarantined constraint.
    pub quarantine_rejections: u64,
    /// Hits (a subset of `hits`) whose constants differed from the cached
    /// instance's, so the plan set had to be bound to the request.
    pub rebinds: u64,
    /// Freshly planned plan sets that were not stored because the
    /// catalog's navigations carry constants of their own.
    pub refused: u64,
    /// Entries resident right now (a gauge).
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hit rate over all lookups, in `[0, 1]`; 0 when nothing was looked
    /// up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CandidatePlan, ConstraintDependency};

    fn key(q: &str, epoch: u64, fp: u64) -> PlanKey {
        PlanKey {
            shape: q.to_string(),
            stats_epoch: epoch,
            quarantine_fp: fp,
        }
    }

    // A minimal Explain whose best plan depends on the given constraints.
    fn explain_with(deps: Vec<ConstraintDependency>) -> Arc<Explain> {
        let expr = nalg::NalgExpr::entry("HomePage");
        let estimate = crate::cost::estimate(
            &expr,
            &websim::sitegen::university::university_scheme().unwrap(),
            &crate::SiteStatistics::default(),
        )
        .expect("entry estimates");
        Arc::new(Explain {
            query: "q".to_string(),
            candidates: vec![CandidatePlan {
                expr,
                estimate: estimate.into(),
                dependencies: deps.into(),
            }],
            quarantined: Vec::new(),
        })
    }

    // The request every lookup below is made for; its constants are the
    // ones every insert below stores, so hits share the stored plan set.
    fn q() -> ConjunctiveQuery {
        ConjunctiveQuery::new("q")
            .atom("Dept")
            .project((0, "DName"))
    }

    fn link_dep() -> ConstraintDependency {
        let ws = websim::sitegen::university::university_scheme().unwrap();
        ConstraintDependency::Link(ws.link_constraints()[0].clone())
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(quarantine_fingerprint(&[]), 0);
        let a = vec!["c1".to_string(), "c2".to_string()];
        assert_eq!(quarantine_fingerprint(&a), quarantine_fingerprint(&a));
        assert_ne!(
            quarantine_fingerprint(&a),
            quarantine_fingerprint(&["c1".to_string()])
        );
        // Not concatenation-confusable: ["ab"] vs ["a","b"].
        assert_ne!(
            quarantine_fingerprint(&["ab".to_string()]),
            quarantine_fingerprint(&["a".to_string(), "b".to_string()])
        );
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let cache = PlanCache::new(2);
        assert!(cache.lookup(&key("q1", 0, 0), &q(), &[], &[]).is_none());
        cache.insert(key("q1", 0, 0), vec![], explain_with(vec![]));
        cache.insert(key("q2", 0, 0), vec![], explain_with(vec![]));
        assert!(cache.lookup(&key("q1", 0, 0), &q(), &[], &[]).is_some());
        // q2 is now least recently used; inserting q3 evicts it.
        cache.insert(key("q3", 0, 0), vec![], explain_with(vec![]));
        assert!(cache.lookup(&key("q2", 0, 0), &q(), &[], &[]).is_none());
        assert!(cache.lookup(&key("q1", 0, 0), &q(), &[], &[]).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn sync_purges_stale_epochs_and_fingerprints() {
        let cache = PlanCache::new(8);
        cache.insert(key("q1", 0, 0), vec![], explain_with(vec![]));
        cache.insert(key("q2", 0, 7), vec![], explain_with(vec![]));
        cache.insert(key("q3", 1, 0), vec![], explain_with(vec![]));
        assert_eq!(cache.sync(1, 0), 2, "old epoch and old fingerprint go");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key("q3", 1, 0), &q(), &[], &[]).is_some());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn sync_scans_only_when_the_pair_moves() {
        let cache = PlanCache::new(8);
        assert_eq!(cache.sync(0, 0), 0);
        // A request that raced a change inserts under the pair it read.
        cache.insert(key("late", 0, 9), vec![], explain_with(vec![]));
        assert_eq!(cache.sync(0, 0), 0, "same pair: nothing is looked at");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key("late", 0, 0), &q(), &[], &[]).is_none());
        assert_eq!(cache.sync(1, 0), 1, "the next change takes it along");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn a_hit_by_other_constants_is_bound_to_the_request() {
        use nalg::{NalgExpr, Pred};
        let cache = PlanCache::new(8);
        let dept = |name: &str| {
            ConjunctiveQuery::new("dept")
                .atom("Dept")
                .select((0, "DName"), name)
                .project((0, "DName"))
        };
        let plan_for = |name: &str| {
            NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .select(Pred::eq("DeptList.DName", name))
        };
        let (cs, maths) = (dept("Computer Science"), dept("Mathematics"));
        let ((shape, cs_params), (maths_shape, maths_params)) = (cs.shape(), maths.shape());
        assert_eq!(shape, maths_shape);
        let mut planned = Explain::clone(&explain_with(vec![]));
        planned.query = cs.to_string();
        planned.candidates[0].expr = plan_for("Computer Science");
        let planned = Arc::new(planned);
        cache.insert(key(&shape, 0, 0), cs_params.clone(), Arc::clone(&planned));

        let (same, origin) = cache
            .lookup(&key(&shape, 0, 0), &cs, &cs_params, &[])
            .expect("hit");
        assert!(Arc::ptr_eq(&same, &planned), "shared as stored");
        assert_eq!(origin, PlanOrigin::ShapeHit);
        assert_eq!(cache.stats().rebinds, 0);

        let (bound, origin) = cache
            .lookup(&key(&shape, 0, 0), &maths, &maths_params, &[])
            .expect("hit");
        assert_eq!(origin, PlanOrigin::Rebound);
        assert_eq!(bound.best().expr, plan_for("Mathematics"));
        assert_eq!(bound.query, maths.to_string());
        assert!(
            !bound.report().contains("Computer Science"),
            "{}",
            bound.report()
        );
        assert!(Arc::ptr_eq(
            &bound.best().estimate,
            &planned.best().estimate
        ));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.rebinds, s.entries), (2, 0, 1, 1));
    }

    #[test]
    fn a_winners_only_cache_keeps_the_winning_candidate() {
        let cache = PlanCache::new(8).winners_only();
        let mut planned = Explain::clone(&explain_with(vec![]));
        let mut loser = planned.candidates[0].clone();
        loser.expr = nalg::NalgExpr::entry("HomePage").unnest("Links");
        planned.candidates.push(loser);
        let planned = Arc::new(planned);
        cache.insert(key("q", 0, 0), vec![], Arc::clone(&planned));
        let (hit, origin) = cache.lookup(&key("q", 0, 0), &q(), &[], &[]).expect("hit");
        assert_eq!(origin, PlanOrigin::ShapeHit);
        assert!(origin.is_cached() && !PlanOrigin::Planned.is_cached());
        assert_eq!(hit.candidates.len(), 1);
        assert_eq!(hit.best().expr, planned.best().expr);
        assert_eq!(
            (&hit.query, &hit.quarantined),
            (&planned.query, &planned.quarantined)
        );
        // Without the policy the plan set is shared as planned.
        let whole = PlanCache::new(8);
        whole.insert(key("q", 0, 0), vec![], Arc::clone(&planned));
        let (hit, _) = whole.lookup(&key("q", 0, 0), &q(), &[], &[]).expect("hit");
        assert!(Arc::ptr_eq(&hit, &planned));
    }

    #[test]
    fn refusals_are_counted_under_the_stem() {
        let registry = MetricsRegistry::with_prefix("dataflow");
        let cache = PlanCache::with_registry(2, &registry, "store_plan");
        cache.note_refused();
        assert_eq!(cache.stats().refused, 1);
        assert!(cache.is_empty());
        let prom = cache.metrics().render_prometheus();
        assert!(prom.contains("dataflow_store_plan_refused 1"), "{prom}");
        assert!(prom.contains("dataflow_store_plan_hits 0"), "{prom}");
    }

    #[test]
    fn quarantined_dependency_is_never_served() {
        let cache = PlanCache::new(8);
        let dep = link_dep();
        cache.insert(key("q", 0, 0), vec![], explain_with(vec![dep.clone()]));
        // Clean quarantine set: served.
        assert!(cache.lookup(&key("q", 0, 0), &q(), &[], &[]).is_some());
        // The plan's own constraint is quarantined: refused AND removed,
        // even though the key (with its stale fingerprint) still matches.
        assert!(cache
            .lookup(&key("q", 0, 0), &q(), &[], &[dep.key()])
            .is_none());
        assert!(
            cache.lookup(&key("q", 0, 0), &q(), &[], &[]).is_none(),
            "entry gone"
        );
        let s = cache.stats();
        assert_eq!(s.quarantine_rejections, 1);
    }

    #[test]
    fn registers_under_serve_prefix() {
        let cache = PlanCache::new(2);
        let _ = cache.lookup(&key("q", 0, 0), &q(), &[], &[]);
        cache.insert(key("q", 0, 0), vec![], explain_with(vec![]));
        let _ = cache.lookup(&key("q", 0, 0), &q(), &[], &[]);
        let prom = cache.metrics().render_prometheus();
        assert!(prom.contains("serve_plan_hits 1"));
        assert!(prom.contains("serve_plan_misses 1"));
        assert!(prom.contains("serve_plan_evictions 0"));
        assert!(prom.contains("serve_plan_rebinds 0"));
    }
}
