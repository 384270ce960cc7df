//! Algorithm 1: navigation plan selection (Section 6.3).
//!
//! ```text
//! Step 1   translate the conjunctive query into algebra over externals
//! Step 2   replace externals by default navigations in all ways  (rule 1)
//! Step 3   eliminate repeated navigations                        (rule 4)
//! Step 4   push and prune joins                                  (rules 8, 9)
//! Step 5   push selections                                       (rule 6)
//! Step 6   push projections                                      (rule 7)
//! Step 7   eliminate unnecessary navigations                     (rules 3, 5)
//! Step 8   cost every candidate, return the cheapest
//! ```
//!
//! Steps 2 and 4 branch (several candidates); steps 3 and 5–7 are
//! normalizations applied to every candidate. A [`RuleMask`] can disable
//! individual stages — this powers the ablation experiments.

use crate::arena::{APred, Col, Node, NodeId};
use crate::cost::Estimate;
use crate::policy::ExecPolicy;
use crate::query::ConjunctiveQuery;
use crate::registry::{rules_for_phase, RewritePhase, RewriteRule, RuleOutcome, CANDIDATE_PHASES};
use crate::rules::{ConstraintDependency, DepId, Rewriter};
use crate::stats::SiteStatistics;
use crate::views::ViewCatalog;
use crate::{OptError, Result};
use adm::intern::Symbol;
use adm::{Value, WebScheme};
use nalg::NalgExpr;
use obs::trace::{EventKind, FieldValue, TraceSink};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// Enables/disables individual rewrite stages (for ablation studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMask {
    /// Rule 4 — repeated-navigation elimination.
    pub merge_repeated: bool,
    /// Rule 8 — pointer join.
    pub pointer_join: bool,
    /// Rule 9 — pointer chase.
    pub pointer_chase: bool,
    /// Rule 6 — selection pushing.
    pub push_selections: bool,
    /// Rules 3, 5, 7 — projection pushing and navigation pruning.
    pub prune_navigations: bool,
}

impl Default for RuleMask {
    fn default() -> Self {
        RuleMask::all()
    }
}

impl RuleMask {
    /// Everything on (the full Algorithm 1).
    pub fn all() -> Self {
        RuleMask {
            merge_repeated: true,
            pointer_join: true,
            pointer_chase: true,
            push_selections: true,
            prune_navigations: true,
        }
    }

    /// Everything off: plans are naive default-navigation joins.
    pub fn none() -> Self {
        RuleMask {
            merge_repeated: false,
            pointer_join: false,
            pointer_chase: false,
            push_selections: false,
            prune_navigations: false,
        }
    }

    /// Disables rule 8.
    pub fn without_pointer_join(mut self) -> Self {
        self.pointer_join = false;
        self
    }

    /// Disables rule 9.
    pub fn without_pointer_chase(mut self) -> Self {
        self.pointer_chase = false;
        self
    }

    /// Disables rule 6.
    pub fn without_selection_pushing(mut self) -> Self {
        self.push_selections = false;
        self
    }

    /// Disables rules 3/5/7.
    pub fn without_pruning(mut self) -> Self {
        self.prune_navigations = false;
        self
    }
}

/// A costed candidate plan.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The (validated, computable) plan.
    pub expr: NalgExpr,
    /// Its cost estimate. Shared: an estimate belongs to the plan's shape,
    /// so binding the plan to other constants ([`Explain::bind`]) keeps it.
    pub estimate: Arc<Estimate>,
    /// Provenance: every link/inclusion constraint some rewrite along the
    /// way assumed. A plan with an empty set is constraint-free — its
    /// correctness does not depend on the site honouring the scheme's
    /// declared constraints. Sorted and deduplicated; shared like the
    /// estimate.
    pub dependencies: Arc<[ConstraintDependency]>,
}

/// The optimizer's full output: every surviving candidate, cheapest first.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query's display form.
    pub query: String,
    /// Candidates, cheapest first. Never empty.
    pub candidates: Vec<CandidatePlan>,
    /// Constraint keys that were quarantined (and thus barred from
    /// licensing rewrites) when this plan set was produced.
    pub quarantined: Vec<String>,
}

impl Explain {
    /// The selected (cheapest) plan.
    pub fn best(&self) -> &CandidatePlan {
        &self.candidates[0]
    }

    /// This plan set, planned for one instance of a query shape, as the
    /// plan set of another instance `q`: `stored` and `params` are the two
    /// instances' parameter vectors ([`ConjunctiveQuery::shape`], equal
    /// keys, hence equal lengths and the same equality partition), and
    /// every selection constant `stored[k]` in every candidate becomes
    /// `params[k]`. Estimates, dependency sets and candidate order are
    /// those of the shape and are shared; [`Explain::query`] is rendered
    /// from `q`, so the result never shows the other instance's constants.
    ///
    /// *Every* constant equal to `stored[k]` is rewritten, whoever put it
    /// in the plan: binding is sound only for plan sets whose constants
    /// are all the query's. [`crate::QuerySession::run`] therefore never
    /// caches — and so never binds — a plan over a relation whose default
    /// navigation selects on a constant of its own.
    pub fn bind(&self, q: &ConjunctiveQuery, stored: &[Value], params: &[Value]) -> Explain {
        debug_assert_eq!(stored.len(), params.len(), "one shape, one arity");
        let rebind = |v: &Value| match stored.iter().position(|s| s == v) {
            Some(k) => params[k].clone(),
            None => v.clone(),
        };
        Explain {
            query: q.to_string(),
            candidates: self
                .candidates
                .iter()
                .map(|c| CandidatePlan {
                    expr: c.expr.map_constants(&rebind),
                    estimate: Arc::clone(&c.estimate),
                    dependencies: Arc::clone(&c.dependencies),
                })
                .collect(),
            quarantined: self.quarantined.clone(),
        }
    }

    /// A multi-line report: the query, then each candidate with its
    /// estimated cost and plan tree (paper Figures 3–4 style).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query);
        let _ = writeln!(out, "{} candidate plan(s):", self.candidates.len());
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if i == 0 { "★" } else { " " };
            let _ = writeln!(
                out,
                "{marker} plan {i}: est. cost {} (card {:.1})",
                c.estimate.cost, c.estimate.card
            );
            for d in c.dependencies.iter() {
                let _ = writeln!(out, "    assumes {d}");
            }
            for line in nalg::display::tree(&c.expr).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "quarantined (excluded from rewrites):");
            for k in &self.quarantined {
                let _ = writeln!(out, "  ✗ {k}");
            }
        }
        out
    }
}

/// The plan selector.
pub struct Optimizer<'a> {
    ws: &'a WebScheme,
    catalog: &'a ViewCatalog,
    stats: &'a SiteStatistics,
    /// Cap on the candidate pool during rule-8/9 closure.
    pub max_candidates: usize,
    policy: ExecPolicy<'a>,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over a scheme, view catalog, and statistics,
    /// under the default [`ExecPolicy`]: every rule, complete navigations
    /// only, no health registry, untraced.
    pub fn new(ws: &'a WebScheme, catalog: &'a ViewCatalog, stats: &'a SiteStatistics) -> Self {
        Optimizer {
            ws,
            catalog,
            stats,
            max_candidates: 128,
            policy: ExecPolicy::default(),
        }
    }

    /// Plans under `policy`. The optimizer reads its planning half:
    /// - `mask` — which rewrite stages may fire (ablations);
    /// - `incomplete_navigations` — whether designer-declared incomplete
    ///   navigations may seed plans;
    /// - `health` — a quarantined constraint may not license rules 6–9, so
    ///   the plans a drifted site has falsified are never generated (with
    ///   a healthy or absent registry the output is unchanged);
    /// - `eval.trace` — every rule application (rules 1–9) is recorded as
    ///   an [`EventKind::Optimizer`] event with the estimated cost before
    ///   and after the rewrite, parented under the trace's span, and each
    ///   `optimize` ends with an `optimizer.summary` event counting what
    ///   each pruning stage dropped. Tracing never changes which plans are
    ///   generated or how they are ranked.
    pub fn with_policy(mut self, policy: &ExecPolicy<'a>) -> Self {
        self.policy = policy.clone();
        self
    }

    /// Records one rule application: the rule's name plus the cost
    /// estimate of the plan before (when there is one — rule 1 conjures
    /// plans out of the query) and after the rewrite. Intermediate plans
    /// that the estimator rejects simply omit the corresponding fields.
    fn rule_event(
        &self,
        rewriter: &mut Rewriter<'_>,
        sink: &TraceSink,
        rule: RewriteRule,
        before: Option<NodeId>,
        after: NodeId,
    ) {
        let mut fields: Vec<(String, FieldValue)> = Vec::new();
        let mut cost_fields = |plan: NodeId, pages: &str, bytes: &str| {
            if let Some(cost) = rewriter.arena.cost_of(plan) {
                fields.push((pages.to_string(), cost.pages.into()));
                fields.push((bytes.to_string(), cost.bytes.into()));
            }
        };
        if let Some(b) = before {
            cost_fields(b, "pages_before", "bytes_before");
        }
        cost_fields(after, "pages_after", "bytes_after");
        sink.event(
            EventKind::Optimizer,
            rule.trace_name(),
            self.policy.eval.trace_parent(),
            fields,
        );
    }

    /// Runs Algorithm 1 on a conjunctive query.
    pub fn optimize(&self, q: &ConjunctiveQuery) -> Result<Explain> {
        q.validate(self.catalog)?;
        let sink = self.policy.eval.sink();
        // The constraint gate: a quarantined constraint may not license a
        // rewrite. Without a health registry the gate is always open.
        let health = self.policy.health;
        let gate =
            move |d: &ConstraintDependency| health.is_none_or(|h| !h.is_quarantined(&d.key()));
        // Every plan of this call lives in the rewriter's arena; only the
        // surviving candidates leave it, as trees.
        let mut rw = Rewriter::new(self.ws, self.stats, &gate);
        // Steps 1–2: seeds (rule 1, all combinations).
        let mut seeds = self.build_seeds(q, &mut rw)?;
        if let Some(sink) = sink {
            for &s in &seeds {
                self.rule_event(&mut rw, sink, RewriteRule::DefaultNavigation, None, s);
            }
        }
        let seed_count = seeds.len();
        // Step 3: normalization (rule 4, via the phase registry).
        for seed in &mut seeds {
            for &rule in rules_for_phase(RewritePhase::Normalize) {
                if !rule.enabled(&self.policy.mask) {
                    continue;
                }
                if let RuleOutcome::Applied { expr, .. } = rule.apply(&mut rw, *seed) {
                    if let Some(sink) = sink {
                        self.rule_event(&mut rw, sink, rule, Some(*seed), expr);
                    }
                    *seed = expr;
                }
            }
        }
        // Step 4: closure under rules 8/9. Each pool entry carries the set
        // of constraints its rewrite chain has assumed so far (provenance).
        // Candidate order comes from the worklist, never from the ids.
        let mut pool: Vec<(NodeId, Vec<DepId>)> = Vec::new();
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut worklist: Vec<usize> = Vec::new();
        let mut cap_hit = false;
        for s in seeds {
            if seen.insert(s) {
                worklist.push(pool.len());
                pool.push((s, Vec::new()));
            }
        }
        while let Some(at) = worklist.pop() {
            if pool.len() >= self.max_candidates {
                cap_hit = true;
                break;
            }
            let e = pool[at].0;
            let fires =
                |rule: RewriteRule| rule.enabled(&self.policy.mask) && rule.matches(&rw.arena, e);
            let (join, chase) = (
                fires(RewriteRule::PointerJoin),
                fires(RewriteRule::PointerChase),
            );
            if !(join || chase) {
                continue;
            }
            for cand in rw.join_rewrite_candidates(e, join, chase) {
                if seen.insert(cand.expr) {
                    if let Some(sink) = sink {
                        self.rule_event(&mut rw, sink, cand.rule, Some(e), cand.expr);
                    }
                    let mut deps = pool[at].1.clone();
                    add_dependencies(&mut deps, &cand.used);
                    worklist.push(pool.len());
                    pool.push((cand.expr, deps));
                }
            }
        }
        let pool_count = pool.len();
        // Steps 5–7: per-candidate normalization, then validation.
        let mut finals: Vec<(NodeId, Vec<DepId>)> = Vec::new();
        let mut seen_final: HashSet<NodeId> = HashSet::new();
        let (mut pruned_unpushable, mut pruned_invalid, mut pruned_duplicate) = (0u64, 0u64, 0u64);
        'pool: for (e, mut deps) in pool {
            let mut cur = e;
            // The registry stages each surviving candidate through
            // normalize → push → prune. (A pointer-chase rewrite can leave
            // a duplicated navigation behind — the same link followed
            // twice — which is why rule 4 runs again here.)
            for &phase in CANDIDATE_PHASES {
                for &rule in rules_for_phase(phase) {
                    if !rule.enabled(&self.policy.mask) {
                        continue;
                    }
                    match rule.apply(&mut rw, cur) {
                        RuleOutcome::NotApplicable | RuleOutcome::NoChange => {}
                        RuleOutcome::Applied { expr, used } => {
                            if let Some(sink) = sink {
                                self.rule_event(&mut rw, sink, rule, Some(cur), expr);
                            }
                            add_dependencies(&mut deps, &used);
                            cur = expr;
                        }
                        RuleOutcome::Rejected => {
                            pruned_unpushable += 1;
                            continue 'pool;
                        }
                    }
                }
            }
            if !rw.arena.is_valid(cur) {
                pruned_invalid += 1;
            } else if seen_final.insert(cur) {
                finals.push((cur, deps));
            } else {
                pruned_duplicate += 1;
            }
        }
        // Step 8: cost and sort.
        let mut candidates: Vec<CandidatePlan> = Vec::new();
        let mut pruned_uncostable = 0u64;
        for (plan, deps) in finals {
            let Ok(est) = rw.arena.estimate(plan) else {
                pruned_uncostable += 1;
                continue;
            };
            candidates.push(CandidatePlan {
                expr: rw.arena.export(plan),
                estimate: Arc::new(est),
                dependencies: rw.dependencies(&deps).into(),
            });
        }
        if let Some(sink) = sink {
            sink.event(
                EventKind::Optimizer,
                "optimizer.summary",
                self.policy.eval.trace_parent(),
                vec![
                    ("seeds".to_string(), (seed_count as u64).into()),
                    ("pool".to_string(), (pool_count as u64).into()),
                    ("candidates".to_string(), (candidates.len() as u64).into()),
                    ("pruned_unpushable".to_string(), pruned_unpushable.into()),
                    ("pruned_invalid".to_string(), pruned_invalid.into()),
                    ("pruned_duplicate".to_string(), pruned_duplicate.into()),
                    ("pruned_uncostable".to_string(), pruned_uncostable.into()),
                    ("cap_hit".to_string(), cap_hit.into()),
                ],
            );
        }
        if candidates.is_empty() {
            return Err(OptError::NoPlan(format!(
                "no candidate survived rewriting for {q}"
            )));
        }
        candidates.sort_by(|a, b| {
            if a.estimate.cost.better_than(&b.estimate.cost) {
                std::cmp::Ordering::Less
            } else if b.estimate.cost.better_than(&a.estimate.cost) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        Ok(Explain {
            query: q.to_string(),
            candidates,
            quarantined: health.map(|h| h.quarantined()).unwrap_or_default(),
        })
    }

    /// Rule 1: replaces every atom by each of its default navigations, in
    /// all combinations, producing fully-qualified seed plans. Each
    /// navigation is imported and qualified once, however many seeds use it.
    fn build_seeds(&self, q: &ConjunctiveQuery, rw: &mut Rewriter<'_>) -> Result<Vec<NodeId>> {
        let mut options: Vec<Vec<SeedNavigation<'_>>> = Vec::new();
        for rel_name in &q.atoms {
            let rel = self.catalog.relation(rel_name)?;
            let mut navs = Vec::new();
            for nav in &rel.navigations {
                if !(nav.complete || self.policy.incomplete_navigations) {
                    continue;
                }
                let raw = rw.arena.import(&nav.expr);
                let expr = rw.qualify(raw)?;
                let bound = rw.arena.aliases_or_err(expr)?;
                let mut aliases: Vec<Symbol> = bound.iter().map(|&(alias, _)| alias).collect();
                aliases.sort_by_key(|a| a.as_str());
                navs.push(SeedNavigation {
                    expr,
                    aliases,
                    bindings: nav
                        .bindings
                        .iter()
                        .map(|(attr, col)| (attr.as_str(), Col::parse(col)))
                        .collect(),
                });
            }
            if navs.is_empty() {
                return Err(OptError::NoPlan(format!(
                    "no usable default navigation for {rel_name}"
                )));
            }
            options.push(navs);
        }
        // cartesian product, capped
        let mut combos: Vec<Vec<&SeedNavigation<'_>>> = vec![vec![]];
        for opts in &options {
            let mut next = Vec::new();
            for combo in &combos {
                for o in opts {
                    if next.len() >= self.max_candidates {
                        break;
                    }
                    let mut c = combo.clone();
                    c.push(o);
                    next.push(c);
                }
            }
            combos = next;
        }
        let orders = connected_orders(q, self.max_candidates);
        let mut seeds = Vec::new();
        for combo in &combos {
            for order in &orders {
                if seeds.len() >= self.max_candidates {
                    return Ok(seeds);
                }
                seeds.push(self.build_seed(q, rw, combo, order)?);
            }
        }
        Ok(seeds)
    }

    fn build_seed(
        &self,
        q: &ConjunctiveQuery,
        rw: &mut Rewriter<'_>,
        navs: &[&SeedNavigation<'_>],
        order: &[usize],
    ) -> Result<NodeId> {
        // Aliases must be unique across the seed: a navigation that would
        // reuse one gets it renamed after its atom's position.
        let mut used: Vec<Symbol> = Vec::new();
        let mut exprs: Vec<Option<NodeId>> = Vec::new();
        let mut binds: Vec<Vec<(&str, Col)>> = Vec::new();
        for (i, nav) in navs.iter().enumerate() {
            let mut e = nav.expr;
            let mut bmap = nav.bindings.clone();
            for &alias in &nav.aliases {
                if used.contains(&alias) {
                    let mut new = Symbol::intern(&format!("{alias}_{i}"));
                    let mut n = 1;
                    while used.contains(&new) {
                        new = Symbol::intern(&format!("{alias}_{i}_{n}"));
                        n += 1;
                    }
                    e = rw.arena.rename_alias(e, alias, new);
                    for (_, col) in bmap.iter_mut() {
                        if col.is_under_alias(alias) {
                            *col = col.with_alias(new);
                        }
                    }
                    used.push(new);
                } else {
                    used.push(alias);
                }
            }
            exprs.push(Some(e));
            binds.push(bmap);
        }
        let bind = |i: usize, attr: &str| -> Result<Col> {
            binds[i]
                .iter()
                .find_map(|&(a, c)| (a == attr).then_some(c))
                .ok_or_else(|| OptError::UnknownViewAttribute {
                    relation: q.atoms[i].clone(),
                    attr: attr.to_string(),
                })
        };
        // left-deep join tree over the given atom order; a join predicate
        // attaches when the later (in order) of its two atoms enters
        let mut in_tree: Vec<usize> = Vec::new();
        let mut tree: Option<NodeId> = None;
        for &k in order {
            let e = exprs
                .get_mut(k)
                .and_then(Option::take)
                .ok_or_else(|| OptError::BadQuery(format!("bad atom order index {k}")))?;
            tree = Some(match tree {
                None => e,
                Some(t) => {
                    let mut on: Vec<(Col, Col)> = Vec::new();
                    for ((ai, aattr), (bi, battr)) in &q.joins {
                        if *ai == k && in_tree.contains(bi) {
                            on.push((bind(*bi, battr)?, bind(*ai, aattr)?));
                        } else if *bi == k && in_tree.contains(ai) {
                            on.push((bind(*ai, aattr)?, bind(*bi, battr)?));
                        }
                    }
                    rw.arena.mk(Node::Join {
                        left: t,
                        right: e,
                        on: Rc::from(on),
                    })
                }
            });
            in_tree.push(k);
        }
        let mut tree = tree.ok_or_else(|| OptError::BadQuery("no atoms".into()))?;
        // selections: constant selections plus same-atom attribute
        // equalities (which the join loop above cannot attach)
        let mut atoms: Vec<Rc<APred>> = q
            .selections
            .iter()
            .map(|((i, attr), v)| Ok(Rc::new(APred::Eq(bind(*i, attr)?, v.clone()))))
            .collect::<Result<Vec<_>>>()?;
        for ((ai, aattr), (bi, battr)) in &q.joins {
            if ai == bi {
                atoms.push(Rc::new(APred::EqAttr(bind(*ai, aattr)?, bind(*bi, battr)?)));
            }
        }
        if !atoms.is_empty() {
            let pred = if atoms.len() == 1 {
                atoms.remove(0)
            } else {
                Rc::new(APred::And(atoms))
            };
            tree = rw.arena.select(tree, pred);
        }
        // projection (deduplicated, order-preserving)
        let mut cols: Vec<Col> = Vec::new();
        for (i, attr) in &q.projection {
            let c = bind(*i, attr)?;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        Ok(rw.arena.mk(Node::Project {
            input: tree,
            cols: Rc::from(cols),
        }))
    }
}

/// A default navigation ready for seed construction: imported into the
/// arena and qualified, with its aliases in name order and its bindings
/// parsed.
struct SeedNavigation<'c> {
    expr: NodeId,
    aliases: Vec<Symbol>,
    bindings: Vec<(&'c str, Col)>,
}

/// Adds `new` to a candidate's provenance, once each.
fn add_dependencies(deps: &mut Vec<DepId>, new: &[DepId]) {
    for d in new {
        if !deps.contains(d) {
            deps.push(*d);
        }
    }
}

/// Enumerates left-deep atom orders in which every atom (after the first)
/// is connected by a join predicate to an earlier atom, falling back to
/// arbitrary extension when the join graph is disconnected. Capped.
fn connected_orders(q: &ConjunctiveQuery, cap: usize) -> Vec<Vec<usize>> {
    const MAX_ORDERS: usize = 24;
    let cap = cap.min(MAX_ORDERS);
    let n = q.atoms.len();
    if n <= 1 {
        return vec![(0..n).collect()];
    }
    let connected = |k: usize, in_tree: &[usize]| {
        q.joins.iter().any(|((ai, _), (bi, _))| {
            (*ai == k && in_tree.contains(bi)) || (*bi == k && in_tree.contains(ai))
        })
    };
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut used = vec![false; n];
    fn rec(
        n: usize,
        cap: usize,
        connected: &impl Fn(usize, &[usize]) -> bool,
        order: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if out.len() >= cap {
            return;
        }
        if order.len() == n {
            out.push(order.clone());
            return;
        }
        let candidates: Vec<usize> = (0..n)
            .filter(|&k| !used[k] && (order.is_empty() || connected(k, order)))
            .collect();
        let candidates = if candidates.is_empty() {
            // disconnected join graph: allow any unused atom
            (0..n).filter(|&k| !used[k]).collect()
        } else {
            candidates
        };
        for k in candidates {
            used[k] = true;
            order.push(k);
            rec(n, cap, connected, order, used, out);
            order.pop();
            used[k] = false;
        }
    }
    rec(n, cap, &connected, &mut order, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::ConstraintHealth;
    use crate::views::university_catalog;
    use nalg::EvalPolicy;
    use websim::sitegen::{University, UniversityConfig};

    fn fixtures() -> (WebScheme, ViewCatalog, SiteStatistics) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        (u.site.scheme.clone(), university_catalog(), stats)
    }

    fn single_relation_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new("cs-profs")
            .atom("ProfDept")
            .atom("Professor")
            .join((0, "PName"), (1, "PName"))
            .select((0, "DName"), "Computer Science")
            .project((1, "PName"))
            .project((1, "Email"))
    }

    #[test]
    fn optimizes_simple_selection_query() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let q = ConjunctiveQuery::new("full-profs")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        let explain = opt.optimize(&q).unwrap();
        let best = explain.best();
        // cost: entry + all professor pages (Rank isn't replicated)
        assert!((best.estimate.cost.pages - 21.0).abs() < 1e-6);
    }

    #[test]
    fn merges_shared_spines_across_atoms() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        let best = explain.best();
        // Professor and ProfDept (professor-path variant) merge into one
        // navigation; the dept-path variant competes. The best plan should
        // not navigate professors twice.
        assert!(
            best.estimate.cost.pages <= 21.0 + 1e-6,
            "{}",
            explain.report()
        );
    }

    #[test]
    fn candidates_are_sorted_and_validated() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        for w in explain.candidates.windows(2) {
            assert!(!w[1].estimate.cost.better_than(&w[0].estimate.cost));
        }
        for c in &explain.candidates {
            assert!(c.expr.is_computable());
        }
    }

    #[test]
    fn mask_none_still_produces_plans() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats).with_policy(&ExecPolicy {
            mask: RuleMask::none(),
            ..Default::default()
        });
        let explain = opt.optimize(&single_relation_query()).unwrap();
        assert!(!explain.candidates.is_empty());
        // naive plans cost at least as much as optimized ones
        let opt_full = Optimizer::new(&ws, &cat, &stats);
        let explain_full = opt_full.optimize(&single_relation_query()).unwrap();
        assert!(
            explain_full.best().estimate.cost.pages <= explain.best().estimate.cost.pages + 1e-6
        );
    }

    #[test]
    fn report_mentions_costs_and_plans() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        let r = explain.report();
        assert!(r.contains("candidate plan"));
        assert!(r.contains("★ plan 0"));
        assert!(r.contains("est. cost"));
    }

    #[test]
    fn incomplete_only_relation_needs_opt_in() {
        let (ws, _, stats) = fixtures();
        // a catalog whose single navigation is incomplete
        let cat = crate::views::ViewCatalog::new().with(crate::views::ExternalRelation::new(
            "OnlyPartial",
            vec!["PName"],
            vec![crate::views::DefaultNavigation::new(
                nalg::NalgExpr::entry("ProfListPage")
                    .unnest("ProfList")
                    .follow("ToProf", "ProfPage"),
                vec![("PName", "ProfPage.PName")],
            )
            .incomplete()],
        ));
        let q = ConjunctiveQuery::new("q")
            .atom("OnlyPartial")
            .project((0, "PName"));
        let strict = Optimizer::new(&ws, &cat, &stats);
        assert!(matches!(
            strict.optimize(&q),
            Err(crate::OptError::NoPlan(_))
        ));
        let lax = Optimizer::new(&ws, &cat, &stats).with_policy(&ExecPolicy {
            incomplete_navigations: true,
            ..Default::default()
        });
        assert!(lax.optimize(&q).is_ok());
    }

    #[test]
    fn candidate_cap_is_respected() {
        let (ws, cat, stats) = fixtures();
        let mut opt = Optimizer::new(&ws, &cat, &stats);
        opt.max_candidates = 2;
        let explain = opt.optimize(&single_relation_query()).unwrap();
        assert!(!explain.candidates.is_empty());
    }

    #[test]
    fn same_atom_equalities_become_selections() {
        // WHERE ci.CName = ci.PName (nonsensical but legal) must not be
        // silently dropped — it reaches the plan as an EqAttr selection.
        let (ws, cat, stats) = fixtures();
        let q = ConjunctiveQuery::new("self-eq")
            .atom("CourseInstructor")
            .join((0, "CName"), (0, "PName"))
            .project((0, "CName"));
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&q).unwrap();
        for c in &explain.candidates {
            let shown = nalg::display::tree(&c.expr);
            assert!(shown.contains('σ'), "predicate dropped:\n{shown}");
        }
    }

    #[test]
    fn tracing_records_rule_applications_and_summary() {
        let (ws, cat, stats) = fixtures();
        let sink = TraceSink::with_seed(7);
        let opt = Optimizer::new(&ws, &cat, &stats).with_policy(&ExecPolicy {
            eval: EvalPolicy {
                trace: Some((sink.clone(), None)),
                ..Default::default()
            },
            ..Default::default()
        });
        let traced = opt.optimize(&single_relation_query()).unwrap();
        let events = sink.events();
        let rule1 = events
            .iter()
            .filter(|e| e.name == "rule1.default_navigation")
            .count();
        assert!(rule1 >= 1, "rule 1 fires at least once per seed");
        // rule-1 events carry the seed's estimated cost
        assert!(events
            .iter()
            .filter(|e| e.name == "rule1.default_navigation")
            .all(|e| e.field("pages_after").is_some()));
        let summary = events
            .iter()
            .find(|e| e.name == "optimizer.summary")
            .expect("summary event");
        assert_eq!(summary.field_u64("seeds"), Some(rule1 as u64));
        assert_eq!(
            summary.field_u64("candidates"),
            Some(traced.candidates.len() as u64)
        );
        // tracing must not change the outcome
        let plain = Optimizer::new(&ws, &cat, &stats)
            .optimize(&single_relation_query())
            .unwrap();
        assert_eq!(plain.candidates.len(), traced.candidates.len());
        for (a, b) in plain.candidates.iter().zip(&traced.candidates) {
            assert_eq!(a.expr, b.expr);
            assert_eq!(a.estimate.cost, b.estimate.cost);
        }
    }

    #[test]
    fn rejects_invalid_query() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let q = ConjunctiveQuery::new("bad").atom("Nope").project((0, "X"));
        assert!(opt.optimize(&q).is_err());
    }

    #[test]
    fn best_plan_records_constraint_provenance() {
        let (ws, cat, stats) = fixtures();
        let opt = Optimizer::new(&ws, &cat, &stats);
        let explain = opt.optimize(&single_relation_query()).unwrap();
        let best = explain.best();
        assert!(
            !best.dependencies.is_empty(),
            "the winning plan pushes σ[DName=…] across a follow — that \
             rewrite is licensed by a link constraint and must be recorded:\n{}",
            explain.report()
        );
        let r = explain.report();
        for d in best.dependencies.iter() {
            assert!(
                r.contains(&format!("assumes {d}")),
                "missing in report:\n{r}"
            );
        }
        assert!(explain.quarantined.is_empty());
        assert!(!r.contains("quarantined"));
    }

    #[test]
    fn healthy_registry_changes_nothing() {
        let (ws, cat, stats) = fixtures();
        let health = ConstraintHealth::new();
        let plain = Optimizer::new(&ws, &cat, &stats)
            .optimize(&single_relation_query())
            .unwrap();
        let gated = Optimizer::new(&ws, &cat, &stats)
            .with_policy(&ExecPolicy {
                health: Some(&health),
                ..Default::default()
            })
            .optimize(&single_relation_query())
            .unwrap();
        assert_eq!(plain.candidates.len(), gated.candidates.len());
        for (a, b) in plain.candidates.iter().zip(&gated.candidates) {
            assert_eq!(a.expr, b.expr);
            assert_eq!(a.estimate.cost, b.estimate.cost);
            assert_eq!(a.dependencies, b.dependencies);
        }
        assert!(gated.quarantined.is_empty());
    }

    #[test]
    fn quarantine_bars_constraints_from_licensing_rewrites() {
        let (ws, cat, stats) = fixtures();
        let q = single_relation_query();
        let trusted = Optimizer::new(&ws, &cat, &stats).optimize(&q).unwrap();
        let deps = trusted.best().dependencies.clone();
        assert!(!deps.is_empty());
        // Quarantine every constraint the winning plan leaned on.
        let health = ConstraintHealth::new();
        for d in deps.iter() {
            health.record(&d.key(), 1, 1);
        }
        let guarded = Optimizer::new(&ws, &cat, &stats)
            .with_policy(&ExecPolicy {
                health: Some(&health),
                ..Default::default()
            })
            .optimize(&q)
            .unwrap();
        let quarantined: Vec<String> = deps.iter().map(|d| d.key()).collect();
        for c in &guarded.candidates {
            for d in c.dependencies.iter() {
                assert!(
                    !quarantined.contains(&d.key()),
                    "quarantined constraint still licensed a rewrite: {d}"
                );
            }
        }
        // The defensive plan cannot beat the trusting one.
        assert!(trusted.best().estimate.cost.pages <= guarded.best().estimate.cost.pages + 1e-6);
        // EXPLAIN surfaces the quarantine.
        assert_eq!(guarded.quarantined.len(), deps.len());
        let r = guarded.report();
        assert!(r.contains("quarantined (excluded from rewrites):"), "{r}");
        for k in &quarantined {
            assert!(r.contains(k), "missing {k} in report:\n{r}");
        }
    }
}
