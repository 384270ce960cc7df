//! Evaluation of NALG expressions over a page source.
//!
//! The evaluator realizes the paper's execution model: entry points are
//! fetched by their known URL; `follow link` downloads the page behind each
//! *distinct* outgoing link (the quantity the cost function charges);
//! everything else is local and free. A per-query page cache ensures a page
//! fetched by two operators is downloaded once — the report exposes both
//! the per-operator distinct-link counts (the paper's 𝒞) and the actual
//! number of downloads.
//!
//! There is one engine — operators run chunk-at-a-time on columnar
//! [`ColumnRel`] batches, whose text and link cells are codes in one value
//! dictionary ([`adm::Dict`]) the evaluation owns and frees — and one way
//! a page is obtained:
//! `Entry` and `Follow` both hand their distinct links to
//! `Evaluator::acquire`, which owns the cache → shared cache → network
//! ladder, the single drain loop and every access counter.
//!
//! Everything besides the paper's model is an [`EvalPolicy`] field, each
//! strictly accounted so the paper numbers stay reproducible. The two that
//! change the drain loop itself:
//!
//! * **Pipelined concurrent fetch** ([`Fetch::Pool`]): one worker pool
//!   per evaluation serves every operator in the plan. Its threads start
//!   on demand — one per queued fetch, up to the pool's size — and live
//!   until the evaluation ends, so an evaluation whose pages all come from
//!   the caches starts none (an idle 4-worker scope cost ≈ 120–150 µs wall on
//!   a 2-vCPU box). Distinct links stream into the pool and wrapped tuples
//!   are consumed as they arrive, overlapping network latency with row
//!   assembly. [`Fetch::Inline`] runs the same drain loop over an inline
//!   executor — one fetch at a time on the calling thread. Results and all
//!   access counts are identical either way.
//! * **Shared cross-query cache** ([`EvalPolicy::shared_cache`]): hits
//!   against a [`crate::SharedPageCache`] avoid the network entirely, are
//!   read in place from the cache's encoded buffer, and are reported
//!   separately (`shared_cache_hits`), never as `page_accesses`, so
//!   cost-model comparisons are unaffected.

use crate::error::EvalError;
use crate::expr::{field_of_column, NalgExpr, Pred};
use crate::fetch::{Done, FetchPool, Job};
use crate::policy::{EvalPolicy, Fetch};
use crate::reads::Reads;
use crate::source::{PageSource, SourceError};
use crate::Result;
use adm::name::{binding, position};
use adm::{
    ColumnRel, ColumnRelBuilder, Constraint, Dict, EncodedTuple, PageScheme, Relation, Symbol,
    Tuple, Url, Value, WebScheme,
};
use obs::trace::EventKind;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// What evaluation does when a fetch ultimately fails (after whatever
/// retrying the page source performs internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationMode {
    /// Abort the query on the first non-404 fetch failure (the paper's
    /// implicit model: every navigation succeeds). The default.
    #[default]
    FailFast,
    /// Complete the plan over the reachable pages, skipping failed fetches
    /// and reporting the exact unreachable-URL set in
    /// [`EvalReport::unreachable`].
    Partial,
}

/// Configuration for runtime constraint auditing: sample a fraction of
/// the pages a query fetches anyway and check the optimizer's assumed
/// constraints against them with [`Constraint::audit`].
///
/// Auditing is **pure observation**: it never fetches a page, so the
/// answer relation and every access counter are byte-identical with
/// auditing on or off — only [`EvalReport::audit`] differs.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Fraction of fetched pages sampled into the audit instance, in
    /// `[0, 1]`. Zero disables auditing entirely.
    pub rate: f64,
    /// Seed for the deterministic per-URL sampling decision.
    pub seed: u64,
    /// The constraints to check over the sampled pages.
    pub constraints: Vec<Constraint>,
}

impl AuditConfig {
    /// True when auditing will record pages and run checks: a positive
    /// rate and at least one constraint to audit.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && !self.constraints.is_empty()
    }
}

/// The audit row of one constraint: how many sampled checks ran and what
/// each detected violation looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintAudit {
    /// The constraint's canonical display form (its health-registry key).
    pub key: String,
    /// Checks performed over the sampled instance.
    pub checks: u64,
    /// Human-readable violation details, one per violation.
    pub violations: Vec<String>,
}

/// What constraint auditing observed during one evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Distinct pages sampled into the audit instance.
    pub sampled_pages: u64,
    /// One row per configured constraint, in configuration order.
    pub constraints: Vec<ConstraintAudit>,
}

impl AuditReport {
    /// Total checks across all audited constraints.
    pub fn checks(&self) -> u64 {
        self.constraints.iter().map(|c| c.checks).sum()
    }

    /// Total violations across all audited constraints.
    pub fn violation_count(&self) -> u64 {
        self.constraints
            .iter()
            .map(|c| c.violations.len() as u64)
            .sum()
    }
}

/// Deterministic per-URL sample decision in `[0, 1)`: FNV-1a over the URL
/// bytes mixed with the seed through a splitmix64 finisher. Independent of
/// fetch order, shared-cache state, and worker count.
fn sample_fraction(seed: u64, url: &Url) -> f64 {
    let h = adm::fnv1a(url.as_str().bytes());
    let z = adm::mix64((seed ^ h).wrapping_add(0x9E37_79B9_7F4A_7C15));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The result of evaluating an expression.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// The answer relation.
    pub relation: Relation,
    /// Actual downloads performed (cache misses).
    pub page_accesses: u64,
    /// Fetches answered by the per-query cache.
    pub cache_hits: u64,
    /// Fetches answered by the shared cross-query cache (zero unless the
    /// policy names a [`EvalPolicy::shared_cache`]). These are
    /// *not* page accesses: no connection was opened.
    pub shared_cache_hits: u64,
    /// Links that pointed to missing pages (skipped).
    pub broken_links: u64,
    /// Per-operator distinct-link counts — the quantity the paper's cost
    /// function 𝒞 estimates, one entry per entry-point/navigation operator
    /// in evaluation order.
    pub accesses_by_operator: Vec<(String, u64)>,
    /// The exact set of URLs whose fetch ultimately failed (sorted,
    /// deduplicated): broken links in every mode, plus — under
    /// [`DegradationMode::Partial`] — pages skipped because of non-404
    /// failures. Empty iff the answer is complete.
    pub unreachable: Vec<Url>,
    /// What constraint auditing observed, when an active [`AuditConfig`]
    /// was attached with [`Evaluator::with_audit`]; `None` otherwise.
    pub audit: Option<AuditReport>,
    /// True iff a finite deadline expired during evaluation: the answer
    /// is the partial result over pages fetched in budget, and every
    /// skipped URL is in [`EvalReport::unreachable`].
    pub deadline_exceeded: bool,
    /// URLs whose fetches the relevance monitor cancelled (sorted,
    /// deduplicated). Unlike `unreachable`, these never affect answer
    /// completeness: the monitor proved no output tuple could involve
    /// them. Their cost-model charge in `accesses_by_operator` is still
    /// counted, so cancellation is invisible to the paper's 𝒞 numbers.
    pub cancelled: Vec<Url>,
}

impl EvalReport {
    /// The paper's cost measure: sum of per-operator distinct accesses
    /// (counts a page once per operator that requests it).
    pub fn cost_model_accesses(&self) -> u64 {
        self.accesses_by_operator.iter().map(|(_, n)| n).sum()
    }

    /// True when every page the plan asked for was fetched — the answer
    /// relation is the complete answer, not a partial one.
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }
}

/// The expression evaluator.
pub struct Evaluator<'a, S: PageSource> {
    ws: &'a WebScheme,
    source: &'a S,
    policy: EvalPolicy<'a>,
    /// Set by [`Evaluator::with_audit`] when the config is active.
    audit: Option<AuditConfig>,
}

#[derive(Default)]
struct Ctx {
    /// The evaluation's value dictionary: every relation it builds codes
    /// its text and links here, a URL included, and it is freed with the
    /// last of them.
    dict: Arc<Dict>,
    /// Per-query page cache, keyed by the URL's code. A hit delivers the
    /// page in the form it was acquired in. It holds only pages of the
    /// schemes in `reacquired`: any other page is dropped once appended.
    cache: HashMap<u32, Page>,
    /// The page-schemes two or more `Entry`/`Follow` operators of the plan
    /// acquire ([`reacquired_schemes`]).
    reacquired: Vec<String>,
    /// Pre-order index of the next operator node (tracing only); matches
    /// the node numbering of `cost::Estimate::nodes` for the same plan.
    node_seq: usize,
    page_accesses: u64,
    cache_hits: u64,
    shared_hits: u64,
    broken_links: u64,
    per_op: Vec<(String, u64)>,
    unreachable: BTreeSet<Url>,
    /// Audit bookkeeping (populated only when an audit is attached):
    /// every acquired page by scheme, the dedup set (URL codes), and the
    /// sampled URLs.
    audit_pages: BTreeMap<String, Vec<(Url, Tuple)>>,
    audit_seen: HashSet<u32>,
    audit_sampled: BTreeSet<Url>,
    /// URLs the relevance monitor cancelled (answer-complete skips).
    cancelled: BTreeSet<Url>,
    /// Set when a finite deadline fired at any blocking point.
    deadline_exceeded: bool,
    /// The evaluation's token ([`EvalPolicy::cancel_token`]), shared with
    /// the pool's workers.
    cancel: Option<obs::CancelToken>,
    /// Monotonic tag for drains: a deadline-aborted drain leaves stale
    /// completions in the pool; later drains skip them by epoch.
    fetch_epoch: u64,
    /// σ/⋈ residuals on the path from the root to the node being
    /// evaluated (innermost last); only maintained in relevance mode.
    residual: Vec<ResidualFilter>,
}

/// A filter known (from the operators above the current node) to discard
/// rows: a σ predicate, or the join-key values of an already-computed
/// ⋈ side. A Follow output row that provably fails one can never reach
/// the query's answer — the Benedikt/Gottlob/Senellart relevance
/// criterion specialized to rules 6–9 plan shapes (σ/⋈ over
/// Follow/Unnest chains; π and µ never filter on page content).
enum ResidualFilter {
    /// A selection predicate above the Follow.
    Pred(Pred),
    /// `col` must join one of `keys`: the distinct values, as a one-column
    /// relation, of the other join side's key column.
    InSet { col: String, keys: ColumnRel },
}

/// The rows of a Follow's input `rel` that can survive `filters`, or
/// `None` when no filter applies. Each atom is resolved against the
/// Follow's output header (input columns ++ `page_cols`) by [`adm::name`],
/// as σ and ⋈ resolve, and is applied — through the same kernels σ and ⋈
/// run on, so the semantics cannot drift apart — only when it binds
/// wholly to the *input* side: a page-side or unresolvable binding cannot
/// be judged before the page is fetched. `Pred` has no disjunction, so
/// each atom is independently necessary and any applicable subset is
/// sound.
fn survivors(
    filters: &[ResidualFilter],
    rel: &ColumnRel,
    page_cols: &[String],
) -> Option<ColumnRel> {
    let n = rel.names().len();
    let input = |attr: &str| {
        let names = rel.names().iter().map(|c| c.as_str());
        let header = names.chain(page_cols.iter().map(String::as_str));
        position(header.map(|c| binding(&[c], &[attr]))).filter(|&i| i < n)
    };
    let mut cur: Option<ColumnRel> = None;
    for f in filters {
        match f {
            // A semijoin: `keys` is distinct, so no row multiplies, and
            // the key column it appends lands past every input index.
            ResidualFilter::InSet { col, keys } => {
                if let Some(i) = input(col) {
                    cur = Some(cur.as_ref().unwrap_or(rel).join_on(keys, &[(i, 0)]));
                }
            }
            ResidualFilter::Pred(p) => {
                let mut atoms = vec![p];
                while let Some(p) = atoms.pop() {
                    let rows = cur.as_ref().unwrap_or(rel);
                    let keep = match p {
                        Pred::Eq(a, v) => input(a).map(|i| rows.select_eq_const(i, v)),
                        Pred::EqAttr(a, b) => input(a)
                            .zip(input(b))
                            .map(|(i, j)| rows.select_eq_cols(i, j)),
                        Pred::And(ps) => {
                            atoms.extend(ps);
                            None
                        }
                    };
                    if let Some(keep) = keep {
                        cur = Some(rows.take(&keep));
                    }
                }
            }
        }
    }
    cur
}

impl<'a, S: PageSource> Evaluator<'a, S> {
    /// An evaluator under the default [`EvalPolicy`]: the paper's engine
    /// with its per-query page cache.
    pub fn new(ws: &'a WebScheme, source: &'a S) -> Self {
        Evaluator {
            ws,
            source,
            policy: EvalPolicy::default(),
            audit: None,
        }
    }

    /// Evaluates under `policy` (see [`EvalPolicy`] for what each field
    /// does). Whatever the policy, the answer's rows and the cost-model
    /// charges `accesses_by_operator` are those of the default one.
    pub fn with_policy(mut self, policy: &EvalPolicy<'a>) -> Self {
        self.policy = policy.clone();
        self
    }

    /// Attaches a constraint audit: a deterministic sample of the pages
    /// the query fetches anyway is checked against `cfg`'s constraints and
    /// reported in [`EvalReport::audit`]. An inactive config (zero rate or
    /// no constraints) is dropped. Auditing never fetches a page.
    pub fn with_audit(mut self, cfg: AuditConfig) -> Self {
        self.audit = cfg.is_active().then_some(cfg);
        self
    }

    /// Evaluates a computable expression.
    ///
    /// For the evaluation's duration the policy's deadline and token
    /// ([`EvalPolicy::cancel_token`]) are this request's budget in
    /// [`obs::reqctx`], installed over the attribution a caller already
    /// installed, if any: the layers below the access boundary — pool
    /// workers, coalescing followers, simulated network waits — honour
    /// them whoever runs the evaluator.
    pub fn eval(&self, expr: &NalgExpr) -> Result<EvalReport> {
        if !expr.is_computable() {
            return Err(EvalError::NotComputable(format!(
                "leaves must be entry points: {expr}"
            )));
        }
        let cancel = self.policy.cancel_token();
        obs::reqctx::with_budget(self.policy.deadline, cancel.clone(), || {
            match &self.policy.fetch {
                Fetch::Inline => self.eval_with(expr, &FetchPool::inline(self.source), cancel),
                Fetch::Pool { workers, .. } => crate::fetch::with_pool(
                    self.source,
                    workers.get(),
                    self.policy.sink(),
                    self.policy.trace_parent(),
                    |pool| self.eval_with(expr, pool, cancel.clone()),
                ),
            }
        })
    }

    fn eval_with(
        &self,
        expr: &NalgExpr,
        pool: &FetchPool<'_>,
        cancel: Option<obs::CancelToken>,
    ) -> Result<EvalReport> {
        // A fresh `Ctx` is a fresh value dictionary.
        let mut ctx = Ctx {
            cancel,
            reacquired: reacquired_schemes(expr),
            ..Ctx::default()
        };
        let relation = self
            .eval_expr(
                expr,
                &mut ctx,
                pool,
                self.policy.trace_parent(),
                &Reads::root(),
            )?
            .to_relation();
        let audit = self.run_audit(&mut ctx);
        Ok(EvalReport {
            relation,
            page_accesses: ctx.page_accesses,
            cache_hits: ctx.cache_hits,
            shared_cache_hits: ctx.shared_hits,
            broken_links: ctx.broken_links,
            accesses_by_operator: ctx.per_op,
            unreachable: ctx.unreachable.into_iter().collect(),
            audit,
            deadline_exceeded: ctx.deadline_exceeded,
            cancelled: ctx.cancelled.into_iter().collect(),
        })
    }

    /// Records a page acquisition for auditing. A no-op unless an audit is
    /// attached; never fetches or counts anything. Dedup is by URL code so
    /// repeat sightings of a page cost no allocation at all.
    fn audit_record(&self, ctx: &mut Ctx, code: u32, scheme: &str, page: &Page) {
        let Some(cfg) = &self.audit else { return };
        if !ctx.audit_seen.insert(code) {
            return;
        }
        let tuple = match page {
            Page::Wrapped(t) => Tuple::clone(t),
            Page::Encoded(page) => page.to_tuple(),
        };
        let url = Url::new(ctx.dict.string(code));
        if sample_fraction(cfg.seed, &url) < cfg.rate {
            ctx.audit_sampled.insert(url.clone());
        }
        ctx.audit_pages
            .entry(scheme.to_string())
            .or_default()
            .push((url, tuple));
    }

    /// Checks the configured constraints against the recorded pages:
    /// sampled pages of a constraint's sampled scheme against every
    /// acquired page of its reference scheme. Pages are sorted by URL
    /// first so pooled completion order cannot affect the report.
    fn run_audit(&self, ctx: &mut Ctx) -> Option<AuditReport> {
        let cfg = self.audit.as_ref()?;
        for pages in ctx.audit_pages.values_mut() {
            pages.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let pages = |scheme: &str| ctx.audit_pages.get(scheme).into_iter().flatten();
        let mut constraints = Vec::new();
        for c in &cfg.constraints {
            let sampled = pages(c.sampled_scheme()).filter(|(u, _)| ctx.audit_sampled.contains(u));
            let (checks, violations) = c.audit(sampled, pages(c.reference_scheme()));
            constraints.push(ConstraintAudit {
                key: c.key(),
                checks,
                violations: violations.into_iter().map(|v| v.detail).collect(),
            });
        }
        let report = AuditReport {
            sampled_pages: ctx.audit_sampled.len() as u64,
            constraints,
        };
        if let Some(sink) = self.policy.sink() {
            for row in &report.constraints {
                if row.checks == 0 && row.violations.is_empty() {
                    continue;
                }
                sink.event(
                    EventKind::Constraint,
                    "audit",
                    self.policy.trace_parent(),
                    vec![
                        ("constraint".to_string(), row.key.as_str().into()),
                        ("checks".to_string(), row.checks.into()),
                        (
                            "violations".to_string(),
                            (row.violations.len() as u64).into(),
                        ),
                    ],
                );
                for detail in &row.violations {
                    sink.event(
                        EventKind::Constraint,
                        "violation",
                        self.policy.trace_parent(),
                        vec![
                            ("constraint".to_string(), row.key.as_str().into()),
                            ("detail".to_string(), detail.as_str().into()),
                        ],
                    );
                }
            }
        }
        Some(report)
    }

    /// Traced entry to operator evaluation. Without a sink this is a
    /// plain passthrough to [`Evaluator::eval_node`]; with one it opens
    /// a span (pre-order id assignment), evaluates the node, and closes
    /// the span with the node's observations. The `links` field is the
    /// cost-model measure of *this* operator (distinct links charged),
    /// while `downloads`/`*_hits`/`broken_links` are subtree-cumulative
    /// deltas — per-operator exclusive numbers fall out by subtracting
    /// the children's spans.
    fn eval_expr(
        &self,
        expr: &NalgExpr,
        ctx: &mut Ctx,
        pool: &FetchPool<'_>,
        parent: Option<u64>,
        reads: &Reads,
    ) -> Result<ColumnRel> {
        let Some(sink) = self.policy.sink() else {
            return self.eval_node(expr, ctx, pool, parent, reads);
        };
        let node = ctx.node_seq;
        ctx.node_seq += 1;
        let mut span = sink.begin(EventKind::Operator, op_label(expr), parent);
        let before = (
            ctx.page_accesses,
            ctx.cache_hits,
            ctx.shared_hits,
            ctx.broken_links,
            ctx.per_op.len(),
        );
        let result = self.eval_node(expr, ctx, pool, Some(span.id()), reads);
        span.set("node", node);
        match &result {
            Ok(rel) => span.set("rows_out", rel.len() as u64),
            Err(e) => span.set("error", e.to_string()),
        }
        span.set("downloads", ctx.page_accesses - before.0);
        span.set("cache_hits", ctx.cache_hits - before.1);
        span.set("shared_cache_hits", ctx.shared_hits - before.2);
        span.set("broken_links", ctx.broken_links - before.3);
        if matches!(expr, NalgExpr::Entry { .. } | NalgExpr::Follow { .. })
            && ctx.per_op.len() > before.4
        {
            // The cost-model charge this operator pushed — always the
            // last entry, since it is recorded after the input subtree.
            span.set("links", ctx.per_op[ctx.per_op.len() - 1].1);
        }
        sink.finish(span);
        result
    }

    /// Evaluates one operator. `reads` is what the operators above can read
    /// of its output ([`Reads`]): a page-relation builds only the columns
    /// it keeps, and µ emits only the inner fields it names.
    fn eval_node(
        &self,
        expr: &NalgExpr,
        ctx: &mut Ctx,
        pool: &FetchPool<'_>,
        parent: Option<u64>,
        reads: &Reads,
    ) -> Result<ColumnRel> {
        let below = &reads.below(expr);
        match expr {
            NalgExpr::External { name } => Err(EvalError::NotComputable(format!(
                "external relation {name}"
            ))),
            NalgExpr::Entry { scheme, alias } => {
                let ep = self.ws.entry_point(scheme).ok_or_else(|| {
                    EvalError::NotComputable(format!("{scheme} is not an entry point"))
                })?;
                let (_, mut page) =
                    PageBatch::new(self.ws.scheme(scheme)?, alias, reads, &ctx.dict);
                let order = [ctx.dict.code(ep.url.as_str())];
                self.acquire(ctx, pool, scheme, &order, None, |url, p| {
                    page.push(url, p).map(|_| ())
                })?;
                // `acquire` already recorded a skipped URL as unreachable;
                // in Partial mode (or past the deadline) an unreachable
                // entry point degrades to an empty relation with the right
                // header instead of aborting the query.
                if page.is_empty()
                    && self.policy.degradation != DegradationMode::Partial
                    && !ctx.deadline_exceeded
                {
                    return Err(EvalError::Source(format!("entry point {} missing", ep.url)));
                }
                ctx.per_op.push((format!("entry {scheme}"), 1));
                page.finish()
            }
            NalgExpr::Select { input, pred } => {
                // Relevance: this predicate filters everything the input
                // subtree produces; Follows inside it can use it to prove
                // pending URLs irrelevant before fetching them.
                if self.policy.relevance {
                    ctx.residual.push(ResidualFilter::Pred(pred.clone()));
                }
                let rel = self.eval_expr(input, ctx, pool, parent, below);
                if self.policy.relevance {
                    ctx.residual.pop();
                }
                apply_pred_col(&rel?, pred)
            }
            NalgExpr::Project { input, cols } => {
                let rel = self.eval_expr(input, ctx, pool, parent, below)?;
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                Ok(rel.project(&refs)?)
            }
            NalgExpr::Join { left, right, on } => {
                let l = self.eval_expr(left, ctx, pool, parent, below)?;
                // Relevance: the left side is computed, so its join-key
                // values bound what the right side can contribute — a
                // right-side Follow row whose key joins none of them can
                // never reach an output tuple. A key column that does not
                // resolve pushes nothing, which is conservative.
                let mut pushed = 0usize;
                if self.policy.relevance {
                    for (a, b) in on {
                        if let Ok(i) = l.resolve(a) {
                            ctx.residual.push(ResidualFilter::InSet {
                                col: b.clone(),
                                keys: l.project_cols(&[i]),
                            });
                            pushed += 1;
                        }
                    }
                }
                let r = self.eval_expr(right, ctx, pool, parent, below);
                for _ in 0..pushed {
                    ctx.residual.pop();
                }
                let pairs: Vec<(&str, &str)> =
                    on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                Ok(l.join(&r?, &pairs)?)
            }
            NalgExpr::Unnest { input, attr } => {
                let rel = self.eval_expr(input, ctx, pool, parent, below)?;
                let qualified = rel.names()[rel.resolve(attr)?].as_str().to_string();
                let aliases = expr.alias_map()?;
                let field = field_of_column(self.ws, &aliases, &qualified)?;
                let inner: Vec<String> = field
                    .ty
                    .list_fields()
                    .ok_or_else(|| {
                        EvalError::Adm(adm::AdmError::TypeMismatch {
                            attr: qualified.clone(),
                            expected: "list",
                            found: field.ty.kind().to_string(),
                        })
                    })?
                    .iter()
                    .filter(|f| reads.unnests(&qualified, f))
                    .map(|f| f.name.clone())
                    .collect();
                Ok(rel.unnest(attr, &inner)?)
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let rel = self.eval_expr(input, ctx, pool, parent, below)?;
                let pages = PageBatch::new(self.ws.scheme(target)?, alias, reads, &ctx.dict);
                self.follow(&rel, link, target, pages, ctx, pool)
            }
        }
    }

    /// The one page-acquisition path: every page an `Entry` or a `Follow`
    /// obtains comes through here. `order` holds the codes of the
    /// operator's distinct links in first-appearance order; each is served
    /// from the per-query cache, else from the shared cache, and only the
    /// remaining misses — minus those the relevance monitor proves dead
    /// from `carrier`, the Follow's input relation and link column —
    /// touch the network. Each acquired page is handed to `deliver`
    /// once, as it arrives; a page that could not be acquired is recorded
    /// in `ctx` (broken / unreachable / cancelled) and never delivered.
    /// The per-query cache keeps an acquired page only when another
    /// operator acquires the same scheme; otherwise nothing can ask for it
    /// again, and it is dropped once delivered.
    fn acquire(
        &self,
        ctx: &mut Ctx,
        pool: &FetchPool<'_>,
        scheme: &str,
        order: &[u32],
        carrier: Option<(&ColumnRel, usize, &[String])>,
        mut deliver: impl FnMut(u32, &Page) -> Result<()>,
    ) -> Result<()> {
        let hold = ctx.reacquired.iter().any(|r| r == scheme);
        let mut misses: Vec<u32> = Vec::new();
        for &s in order {
            if let Some(page) = ctx.cache.get(&s) {
                ctx.cache_hits += 1;
                deliver(s, page)?;
                continue;
            }
            if let Some(shared) = self.policy.shared_cache {
                if let Some(page) = ctx.dict.with_str(s, |url| shared.get_encoded(url)) {
                    let page = Page::Encoded(page);
                    ctx.shared_hits += 1;
                    self.audit_record(ctx, s, scheme, &page);
                    deliver(s, &page)?;
                    if hold {
                        ctx.cache.insert(s, page);
                    }
                    continue;
                }
            }
            misses.push(s);
        }
        if let Some((rel, li, page_cols)) = carrier {
            self.prune_dead(ctx, rel, li, page_cols, &mut misses);
        }
        self.drain(ctx, pool, (scheme, hold), &misses, &mut deliver)
    }

    /// Relevance: a missed URL none of whose carrying rows can survive
    /// the residual σ/⋈ filters (see [`survivors`]) can never join into
    /// an output tuple — drop it from `misses` and cancel it through the
    /// token. The operator's `per_op` charge already counted the full
    /// distinct set, so the cost-model numbers stay exact.
    fn prune_dead(
        &self,
        ctx: &mut Ctx,
        rel: &ColumnRel,
        li: usize,
        page_cols: &[String],
        misses: &mut Vec<u32>,
    ) {
        if ctx.residual.is_empty() || misses.is_empty() {
            return;
        }
        let Some(alive) = survivors(&ctx.residual, rel, page_cols) else {
            return;
        };
        let live: HashSet<u32> = (0..alive.len())
            .filter_map(|row| alive.link_at(row, li).ok().flatten())
            .collect();
        misses.retain(|s| {
            let keep = live.contains(s);
            if !keep {
                let url = Url::new(ctx.dict.string(*s));
                if let Some(t) = &ctx.cancel {
                    t.cancel_url(url.as_str());
                }
                ctx.cancelled.insert(url);
            }
            keep
        });
    }

    /// The one drain loop: streams `misses` into the pool, then consumes
    /// completions in arrival order until none is pending. The wait for
    /// each completion is bounded by the remaining budget and by the
    /// earliest hedge coming due, so the loop can (a) abort the moment the
    /// budget is gone — cancelling still-queued jobs and reporting the
    /// exact pending set as unreachable — and (b) launch one backup fetch
    /// per laggard after the hedge delay, first response winning. With an
    /// infinite deadline and no hedging neither ever happens and the loop
    /// simply blocks on each completion; over the inline pool "waiting"
    /// runs the next job, which is sequential fetching. Completions are
    /// tagged with a per-drain epoch so a later drain never consumes a
    /// stale completion from an aborted one. `hold` is whether the
    /// per-query cache keeps `scheme`'s pages.
    fn drain(
        &self,
        ctx: &mut Ctx,
        pool: &FetchPool<'_>,
        (scheme, hold): (&str, bool),
        misses: &[u32],
        deliver: &mut impl FnMut(u32, &Page) -> Result<()>,
    ) -> Result<()> {
        use std::time::{Duration, Instant};
        if misses.is_empty() {
            return Ok(());
        }
        let shutdown = || EvalError::Source("fetch worker pool shut down".to_string());
        // A backup fetch needs someone to race: over the inline executor
        // nothing runs concurrently with this loop, so hedging is inert.
        let hedge = self.policy.fetch.hedge();
        let deadline = &self.policy.deadline;
        ctx.fetch_epoch += 1;
        let (scheme, epoch) = (Symbol::intern(scheme), ctx.fetch_epoch);
        let dict = Arc::clone(&ctx.dict);
        let url = |code| Url::new(dict.string(code));
        let job = |code, hedge| Job {
            url: url(code),
            code,
            scheme,
            epoch,
            hedge,
        };
        struct Pending {
            /// Submission time; taken only when a hedge could come due.
            since: Option<Instant>,
            hedged: bool,
        }
        let mut pending: HashMap<u32, Pending> = HashMap::with_capacity(misses.len());
        for &s in misses {
            if deadline.expired() {
                ctx.deadline_exceeded = true;
                ctx.unreachable.insert(url(s));
                continue;
            }
            let job = job(s, false);
            // A URL cancelled for an earlier navigation may be needed
            // now; clear its mark before a worker can see the job.
            if let Some(t) = &ctx.cancel {
                t.uncancel_url(job.url.as_str());
            }
            if !pool.submit_tagged(job) {
                return Err(shutdown());
            }
            pending.insert(
                s,
                Pending {
                    since: hedge.map(|_| Instant::now()),
                    hedged: false,
                },
            );
        }
        while !pending.is_empty() {
            if deadline.expired() {
                // Budget gone: the pending set IS the exact not-yet-
                // fetched URL set. Cancel the queued jobs cooperatively
                // (workers skip them pre-dispatch) and brown out.
                ctx.deadline_exceeded = true;
                pool.discard_queued();
                for (s, _) in pending.drain() {
                    let url = url(s);
                    if let Some(t) = &ctx.cancel {
                        t.cancel_url(url.as_str());
                    }
                    ctx.unreachable.insert(url);
                }
                break;
            }
            // Sleep until the next actionable instant: budget expiry or
            // the earliest hedge coming due.
            let mut wait = deadline.remaining().unwrap_or(Duration::from_secs(60));
            if let Some(h) = hedge {
                let delay = Duration::from_micros(h.delay_us);
                for (&s, p) in pending.iter_mut().filter(|(_, p)| !p.hedged) {
                    let waited = p.since.map_or(Duration::ZERO, |t| t.elapsed());
                    if waited < delay {
                        wait = wait.min(delay - waited);
                    } else if pool.submit_tagged(job(s, true)) {
                        h.hedges.inc();
                        p.hedged = true;
                    } else {
                        return Err(shutdown());
                    }
                }
            }
            let wait = wait.clamp(Duration::from_micros(50), Duration::from_secs(60));
            let done = match pool.recv_timeout(wait) {
                Ok(d) => d,
                Err(true) => continue, // quantum elapsed: re-check budget/hedges
                Err(false) => return Err(shutdown()),
            };
            let current = done.job.epoch == epoch;
            let Some(p) = current.then(|| pending.remove(&done.job.code)).flatten() else {
                // Not a URL this drain still waits for. In this epoch it is
                // the losing twin of an already-settled URL: a loser
                // cancelled before dispatch, or woken by that cancel while
                // it followed a coalesced flight, cost the server nothing;
                // one that reached the server (completed, or cut off
                // there) is dropped here — the server counted its GET, but
                // only the first completion was settled, keeping the
                // paper's counters hedge-invisible. From an earlier epoch
                // it is stale, and counts only if it is a backup twin that
                // cost nothing: this is the last place that can account
                // for it.
                if !done.dispatched && (current || done.job.hedge) {
                    if let Some(h) = hedge {
                        h.hedge_cancelled.inc();
                    }
                }
                continue;
            };
            if p.hedged {
                // First response wins; cancel the losing twin before a
                // worker dispatches it.
                if let Some(t) = &ctx.cancel {
                    t.cancel_url(done.job.url.as_str());
                }
                if done.job.hedge {
                    if let Some(h) = hedge {
                        h.hedge_wins.inc();
                    }
                }
            }
            self.settle(ctx, (scheme.as_str(), hold), done, deliver)?;
        }
        Ok(())
    }

    /// Settles one completed network fetch — the only place a download is
    /// counted, shared, cached and audited, and the only place a failed
    /// one is classified: a 404 is a broken link in every mode; any other
    /// failure is skipped under [`DegradationMode::Partial`] and aborts
    /// the query otherwise, except that a cancelled fetch under a finite
    /// deadline is the budget machinery working as designed, not a query
    /// failure. A page is kept in the per-query cache only when `hold`.
    fn settle(
        &self,
        ctx: &mut Ctx,
        (scheme, hold): (&str, bool),
        done: Done,
        deliver: &mut impl FnMut(u32, &Page) -> Result<()>,
    ) -> Result<()> {
        let code = done.job.code;
        match done.outcome {
            Ok((t, lm)) => {
                ctx.page_accesses += 1;
                if let Some(shared) = self.policy.shared_cache {
                    shared.insert(&done.job.url, &t, lm);
                }
                let page = Page::Wrapped(t);
                self.audit_record(ctx, code, scheme, &page);
                deliver(code, &page)?;
                if hold {
                    ctx.cache.insert(code, page);
                }
                return Ok(());
            }
            Err(SourceError::NotFound(_)) => ctx.broken_links += 1,
            Err(SourceError::Cancelled(_))
                if self.policy.deadline.is_finite()
                    || self.policy.degradation == DegradationMode::Partial =>
            {
                if self.policy.deadline.expired() {
                    ctx.deadline_exceeded = true;
                }
            }
            Err(_) if self.policy.degradation == DegradationMode::Partial => {}
            Err(e) => return Err(EvalError::Source(e.to_string())),
        }
        ctx.unreachable.insert(done.job.url);
        Ok(())
    }

    /// `follow link`: acquire the distinct link codes of the input in
    /// first-appearance order — so `per_op` charges and every access
    /// counter follow the paper's rules — then gather. The *local* side is
    /// batch: acquired pages land in one [`PageBatch`], keyed by URL code
    /// so completion order cannot affect the result, and the output is
    /// one gather ([`ColumnRel::take_pairs`]) of input rows beside page
    /// rows. `pages` is the target's empty batch beside its header.
    fn follow(
        &self,
        rel: &ColumnRel,
        link: &str,
        target: &str,
        (header, mut pages): (Vec<String>, PageBatch),
        ctx: &mut Ctx,
        pool: &FetchPool<'_>,
    ) -> Result<ColumnRel> {
        let li = rel.resolve(link)?;
        // Non-link cells are skipped, not an error.
        let link_of = |row: usize| rel.link_at(row, li).ok().flatten();
        let mut page_row: HashMap<u32, Option<u32>> = HashMap::new();
        let mut order: Vec<u32> = Vec::new();
        for row in 0..rel.len() {
            if let Some(s) = link_of(row) {
                if let std::collections::hash_map::Entry::Vacant(e) = page_row.entry(s) {
                    e.insert(None);
                    order.push(s);
                }
            }
        }
        ctx.per_op
            .push((format!("–{link}→ {target}"), order.len() as u64));
        self.acquire(
            ctx,
            pool,
            target,
            &order,
            Some((rel, li, &header[..])),
            |s, page| {
                page_row.insert(s, Some(pages.push(s, page)?));
                Ok(())
            },
        )?;
        // Output assembly: one gather, input-row order.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for row in 0..rel.len() {
            if let Some(Some(pr)) = link_of(row).and_then(|s| page_row.get(&s)) {
                pairs.push((row as u32, *pr));
            }
        }
        Ok(rel.take_pairs(&pages.finish()?, &pairs))
    }
}

/// A page as the evaluation acquired it: wrapped, from the network, or
/// encoded, as the shared cache keeps it and checked, to be read in place.
enum Page {
    Wrapped(Arc<Tuple>),
    Encoded(EncodedTuple<Arc<[u8]>>),
}

/// The page-relation an `Entry` or a `Follow` is acquiring: one row per
/// delivered page, appended *by reference*, in the evaluation's
/// dictionary. The URL column is the codes the operator already holds;
/// each other column is a field of the page-scheme that the operators
/// above can read ([`Reads::keeps`]), taken from the page where it lies
/// (found by the field's interned name, null when the source left it out):
/// from a wrapped page's tuple, or from an encoded page's bytes without
/// decoding them. No cell is cloned on its way into a column and no field
/// nobody reads is coded.
struct PageBatch {
    url_column: Symbol,
    urls: Vec<u32>,
    /// The kept fields' names, one a column of `attrs`.
    fields: Vec<Symbol>,
    attrs: ColumnRelBuilder,
}

impl PageBatch {
    /// The batch for `alias`'s pages of `scheme`, beside its header:
    /// `alias.URL`, then `alias.F` for each kept field `F`.
    fn new(
        scheme: &PageScheme,
        alias: &str,
        reads: &Reads,
        dict: &Arc<Dict>,
    ) -> (Vec<String>, Self) {
        let mut header = vec![format!("{alias}.URL")];
        let mut fields = Vec::new();
        let mut cols = Vec::new();
        for f in &scheme.fields {
            if let Some(keep) = reads.keeps(alias, f) {
                let column = format!("{alias}.{}", f.name);
                cols.push((Symbol::intern(&column), keep));
                header.push(column);
                fields.push(f.sym());
            }
        }
        let batch = PageBatch {
            url_column: Symbol::intern(&header[0]),
            urls: Vec::new(),
            fields,
            attrs: ColumnRelBuilder::in_dict(dict, cols),
        };
        (header, batch)
    }

    fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    /// Appends one page, returning its row index.
    fn push(&mut self, url: u32, page: &Page) -> Result<u32> {
        static NULL: Value = Value::Null;
        match page {
            Page::Wrapped(tuple) => {
                let cell = |f: &Symbol| tuple.get_sym(*f).unwrap_or(&NULL);
                self.attrs.push_row(self.fields.iter().map(cell))?;
            }
            Page::Encoded(page) => self.attrs.push_encoded(&self.fields, page)?,
        }
        self.urls.push(url);
        Ok(self.urls.len() as u32 - 1)
    }

    fn finish(self) -> Result<ColumnRel> {
        let attrs = self.attrs.finish();
        let urls = ColumnRel::of_links(self.url_column, attrs.dict(), self.urls);
        Ok(urls.hstack(attrs)?)
    }
}

/// The page-schemes that two or more `Entry`/`Follow` operators of `expr`
/// acquire. An operator acquires each of its distinct links once, so a
/// page of any other scheme is asked for once in the evaluation — as long
/// as a URL is a page of one scheme only — and holding it after it is
/// appended would serve no later access (Benedikt/Gottlob/Senellart's
/// runtime relevance, applied to the per-query cache).
fn reacquired_schemes(expr: &NalgExpr) -> Vec<String> {
    fn walk<'e>(e: &'e NalgExpr, out: &mut Vec<&'e str>) {
        match e {
            NalgExpr::Entry { scheme, .. } => out.push(scheme),
            NalgExpr::External { .. } => {}
            NalgExpr::Follow { input, target, .. } => {
                out.push(target);
                walk(input, out);
            }
            NalgExpr::Select { input, .. }
            | NalgExpr::Project { input, .. }
            | NalgExpr::Unnest { input, .. } => walk(input, out),
            NalgExpr::Join { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut acquired = Vec::new();
    walk(expr, &mut acquired);
    acquired.sort_unstable();
    let mut twice: Vec<String> = (acquired.windows(2))
        .filter(|w| w[0] == w[1])
        .map(|w| w[0].to_string())
        .collect();
    twice.dedup();
    twice
}

/// Display label of one operator node, shared (by convention) with the
/// per-node labels of `cost::Estimate` so EXPLAIN ANALYZE rows read the
/// same on both sides of the predicted/observed join.
fn op_label(expr: &NalgExpr) -> String {
    match expr {
        NalgExpr::External { name } => format!("external {name}"),
        NalgExpr::Entry { scheme, .. } => format!("entry {scheme}"),
        NalgExpr::Select { .. } => "σ".to_string(),
        NalgExpr::Project { .. } => "π".to_string(),
        NalgExpr::Join { .. } => "⋈".to_string(),
        NalgExpr::Unnest { attr, .. } => format!("µ {attr}"),
        NalgExpr::Follow { link, target, .. } => format!("–{link}→ {target}"),
    }
}

/// Applies a predicate to a columnar relation: each atom produces an index
/// vector over the current batch, gathered with one `take` per conjunct.
/// Constant equality treats `Null = Null` as true; attribute equality
/// never matches nulls.
fn apply_pred_col(rel: &ColumnRel, pred: &Pred) -> Result<ColumnRel> {
    match pred {
        Pred::Eq(attr, value) => {
            let i = rel.resolve(attr)?;
            Ok(rel.take(&rel.select_eq_const(i, value)))
        }
        Pred::EqAttr(a, b) => {
            let i = rel.resolve(a)?;
            let j = rel.resolve(b)?;
            Ok(rel.take(&rel.select_eq_cols(i, j)))
        }
        Pred::And(ps) => {
            let mut cur = rel.clone();
            for p in ps {
                cur = apply_pred_col(&cur, p)?;
            }
            Ok(cur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use adm::{Field, PageScheme};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::SeqCst};

    /// An in-memory page source over explicit tuples.
    struct MapSource {
        pages: HashMap<Url, Tuple>,
    }

    impl PageSource for MapSource {
        fn fetch(&self, url: &Url, _scheme: &str) -> std::result::Result<Tuple, SourceError> {
            self.pages
                .get(url)
                .cloned()
                .ok_or_else(|| SourceError::NotFound(url.clone()))
        }
    }

    /// A list of named links to item pages, under page-scheme `name`.
    fn list_scheme(name: &str) -> PageScheme {
        PageScheme::new(
            name,
            vec![Field::list(
                "Items",
                vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
            )],
        )
        .unwrap()
    }

    fn scheme() -> WebScheme {
        let item =
            PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Kind")]).unwrap();
        WebScheme::builder()
            .scheme(list_scheme("ListPage"))
            .scheme(item)
            .entry_point("ListPage", "/list.html")
            .build()
            .unwrap()
    }

    fn source() -> MapSource {
        let mut pages = HashMap::new();
        pages.insert(
            Url::new("/list.html"),
            Tuple::new().with_list(
                "Items",
                vec![
                    Tuple::new()
                        .with("Name", "a")
                        .with("ToItem", Value::link("/i/a")),
                    Tuple::new()
                        .with("Name", "b")
                        .with("ToItem", Value::link("/i/b")),
                    Tuple::new()
                        .with("Name", "c")
                        .with("ToItem", Value::link("/i/c")),
                ],
            ),
        );
        for (n, k) in [("a", "x"), ("b", "y"), ("c", "x")] {
            pages.insert(
                Url::new(format!("/i/{n}")),
                Tuple::new().with("Name", n).with("Kind", k),
            );
        }
        MapSource { pages }
    }

    fn nav() -> NalgExpr {
        NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage")
    }

    #[test]
    fn full_navigation() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!(report.relation.len(), 3);
        assert_eq!(report.page_accesses, 4); // entry + 3 items
        assert_eq!(report.cost_model_accesses(), 4);
        assert_eq!(report.broken_links, 0);
    }

    #[test]
    fn selection_and_projection() {
        let ws = scheme();
        let src = source();
        let e = nav()
            .select(Pred::eq("Kind", "x"))
            .project(vec!["ItemPage.Name"]);
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 2);
        let names: Vec<String> = report
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"c".to_string()));
    }

    #[test]
    fn selection_before_follow_reduces_accesses() {
        let ws = scheme();
        let src = source();
        let e = NalgExpr::entry("ListPage")
            .unnest("Items")
            .select(Pred::eq("Name", "b"))
            .follow("ToItem", "ItemPage");
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 1);
        assert_eq!(report.page_accesses, 2); // entry + 1 item
    }

    #[test]
    fn join_on_pointer_sets() {
        let ws = scheme();
        let src = source();
        // Join the unnested list with itself through two aliases via a
        // second entry alias, on the link column.
        let left = NalgExpr::entry("ListPage").unnest("Items");
        let right = NalgExpr::entry_as("ListPage", "L2").unnest("Items");
        let e = left
            .join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")])
            .follow("ListPage.Items.ToItem", "ItemPage");
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 3);
        // entry fetched once thanks to the cache (two aliases, same URL)
        assert_eq!(report.page_accesses, 4);
        assert_eq!(report.cache_hits, 1);
        // the cost model counts both entry accesses
        assert_eq!(report.cost_model_accesses(), 5);
    }

    /// A source that holds its pages behind `Arc`s, hands out references,
    /// and notes how many holders the entry page has whenever a page is
    /// asked for — and the most holders of any page it handed out before.
    struct HeldSource {
        pages: HashMap<Url, Arc<Tuple>>,
        entry_holders: std::sync::Mutex<Vec<usize>>,
        handed_out: std::sync::Mutex<Vec<Url>>,
        peak_holders: std::sync::Mutex<Vec<usize>>,
    }

    impl HeldSource {
        fn new() -> Self {
            HeldSource {
                pages: (source().pages.into_iter())
                    .map(|(url, t)| (url, Arc::new(t)))
                    .collect(),
                entry_holders: Default::default(),
                handed_out: Default::default(),
                peak_holders: Default::default(),
            }
        }
    }

    impl PageSource for HeldSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            self.fetch_shared(url, scheme)
                .map(|(t, _)| Tuple::clone(&t))
        }

        fn fetch_shared(
            &self,
            url: &Url,
            _scheme: &str,
        ) -> std::result::Result<(Arc<Tuple>, Option<u64>), SourceError> {
            let entry = &self.pages[&Url::new("/list.html")];
            self.entry_holders
                .lock()
                .unwrap()
                .push(Arc::strong_count(entry));
            let mut handed_out = self.handed_out.lock().unwrap();
            let peak = handed_out.iter().map(|u| Arc::strong_count(&self.pages[u]));
            self.peak_holders
                .lock()
                .unwrap()
                .push(peak.max().unwrap_or(0));
            handed_out.push(url.clone());
            let page = self.pages.get(url).map(|t| (Arc::clone(t), None));
            page.ok_or_else(|| SourceError::NotFound(url.clone()))
        }
    }

    #[test]
    fn the_caches_keep_the_reference_they_were_handed() {
        let ws = scheme();
        let src = HeldSource::new();
        let holders = || std::mem::take(&mut *src.entry_holders.lock().unwrap());
        let left = NalgExpr::entry("ListPage").unnest("Items");
        let right = NalgExpr::entry_as("ListPage", "L2").unnest("Items");
        let e = left
            .join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")])
            .follow("ListPage.Items.ToItem", "ItemPage");
        // The entry page is fetched once and hit once in the per-query
        // cache; while the items are fetched the cache still holds it — the
        // source's own `Arc`, not a copy — and lets go with the query. The
        // shared cache keeps an encoding of each page, not its `Arc`.
        let shared = crate::cache::SharedPageCache::default();
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&shared),
                ..Default::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!((report.page_accesses, report.cache_hits), (4, 1));
        assert_eq!(holders(), vec![1, 2, 2, 2], "source, query cache");
        // a shared-cache hit is a copy equal to the page the source handed out
        for (url, page) in &src.pages {
            assert_eq!(page, &shared.get(url).unwrap(), "{url}");
            assert_eq!(Arc::strong_count(page), 1, "{url}");
        }
        // Five single-page queries fetch the entry page five times: each
        // time nobody but the source holds it, so neither a finished
        // query's cache nor the shared cache kept the reference.
        let entry = NalgExpr::entry("ListPage");
        let (mut accesses, mut hits) = (0, 0);
        for _ in 0..5 {
            let report = Evaluator::new(&ws, &src).eval(&entry).unwrap();
            accesses += report.page_accesses;
            hits += report.cache_hits;
        }
        assert_eq!((accesses, hits), (5, 0));
        assert_eq!(holders(), vec![1; 5], "nobody but the source");
    }

    #[test]
    fn broken_links_are_skipped_and_counted() {
        let ws = scheme();
        let mut src = source();
        src.pages.remove(&Url::new("/i/b"));
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.broken_links, 1);
    }

    #[test]
    fn external_leaf_not_computable() {
        let ws = scheme();
        let src = source();
        let e = NalgExpr::external("R");
        assert!(matches!(
            Evaluator::new(&ws, &src).eval(&e),
            Err(EvalError::NotComputable(_))
        ));
    }

    #[test]
    fn entry_must_be_declared() {
        let ws = scheme();
        let src = source();
        let e = NalgExpr::entry("ItemPage"); // not an entry point
        assert!(matches!(
            Evaluator::new(&ws, &src).eval(&e),
            Err(EvalError::NotComputable(_))
        ));
    }

    #[test]
    fn eq_attr_predicate() {
        let ws = scheme();
        let src = source();
        // Items whose anchor equals the item page's name (all of them).
        let e = nav().select(Pred::EqAttr(
            "ListPage.Items.Name".into(),
            "ItemPage.Name".into(),
        ));
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!(report.relation.len(), 3);
    }

    #[test]
    fn per_operator_accounting() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!(
            report.accesses_by_operator,
            vec![
                ("entry ListPage".to_string(), 1),
                ("–ToItem→ ItemPage".to_string(), 3),
            ]
        );
    }

    #[test]
    fn concurrent_fetch_equals_sequential() {
        let ws = scheme();
        let src = source();
        let seq = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        for workers in [1, 2, 8] {
            let par = Evaluator::new(&ws, &src)
                .with_policy(&EvalPolicy {
                    fetch: Fetch::pool(workers),
                    ..Default::default()
                })
                .eval(&nav())
                .unwrap();
            assert_eq!(par.relation.sorted(), seq.relation.sorted());
            assert_eq!(par.page_accesses, seq.page_accesses);
            assert_eq!(par.accesses_by_operator, seq.accesses_by_operator);
        }
    }

    #[test]
    fn concurrent_fetch_skips_broken_links() {
        let ws = scheme();
        let mut src = source();
        src.pages.remove(&Url::new("/i/b"));
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch: Fetch::pool(4),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.broken_links, 1);
    }

    #[test]
    fn shared_cache_serves_second_query_without_accesses() {
        let ws = scheme();
        let src = source();
        let shared = crate::cache::SharedPageCache::default();
        let cold = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&shared),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(cold.page_accesses, 4);
        assert_eq!(cold.shared_cache_hits, 0);
        let warm = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&shared),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(warm.page_accesses, 0);
        assert_eq!(warm.shared_cache_hits, 4);
        assert_eq!(warm.relation.sorted(), cold.relation.sorted());
        // The paper's cost measure is unaffected by the shared cache.
        assert_eq!(warm.cost_model_accesses(), cold.cost_model_accesses());
    }

    // The per-query cache holds a page only while another operator of the
    // plan acquires its scheme: in a one-navigation plan each page is the
    // source's alone again before the next one is asked for, and in a plan
    // with two aliases of the entry scheme the entry page stays held.
    #[test]
    fn a_page_no_other_operator_acquires_is_dropped_once_appended() {
        let ws = scheme();
        let src = HeldSource::new();
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert_eq!((report.page_accesses, report.cache_hits), (4, 0));
        assert_eq!(report.relation.len(), 3);
        let peaks = std::mem::take(&mut *src.peak_holders.lock().unwrap());
        assert_eq!(peaks, vec![0, 1, 1, 1], "held by the source alone");

        src.handed_out.lock().unwrap().clear();
        let left = NalgExpr::entry("ListPage").unnest("Items");
        let right = NalgExpr::entry_as("ListPage", "L2").unnest("Items");
        let e = left
            .join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")])
            .follow("ListPage.Items.ToItem", "ItemPage");
        let report = Evaluator::new(&ws, &src).eval(&e).unwrap();
        assert_eq!((report.page_accesses, report.cache_hits), (4, 1));
        let peaks = std::mem::take(&mut *src.peak_holders.lock().unwrap());
        assert_eq!(
            peaks,
            vec![0, 2, 2, 2],
            "the entry page, in the query cache"
        );
        for page in src.pages.values() {
            assert_eq!(Arc::strong_count(page), 1);
        }
    }

    #[test]
    fn the_schemes_held_are_those_two_operators_acquire() {
        assert!(reacquired_schemes(&nav()).is_empty());
        let twice = NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage")
            .join(
                NalgExpr::entry_as("ListPage", "L2")
                    .unnest("Items")
                    .follow_as("ToItem", "ItemPage", "I2"),
                vec![("ItemPage.Name", "I2.Name")],
            );
        assert_eq!(reacquired_schemes(&twice), ["ItemPage", "ListPage"]);
    }

    // A page two operators reach is read from the shared cache once and
    // appended twice: the second time from the buffer the per-query cache
    // kept.
    #[test]
    fn a_buffered_page_is_appended_again_from_the_query_cache() {
        let ws = scheme();
        let src = source();
        let left = NalgExpr::entry("ListPage").unnest("Items");
        let right = NalgExpr::entry_as("ListPage", "L2").unnest("Items");
        let e = left
            .join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")])
            .follow("ListPage.Items.ToItem", "ItemPage");
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        let shared = crate::cache::SharedPageCache::default();
        let policy = EvalPolicy {
            shared_cache: Some(&shared),
            ..Default::default()
        };
        let cold = Evaluator::new(&ws, &src)
            .with_policy(&policy)
            .eval(&e)
            .unwrap();
        let before = shared.stats();
        let warm = Evaluator::new(&ws, &src)
            .with_policy(&policy)
            .eval(&e)
            .unwrap();
        for r in [&cold, &warm] {
            assert_eq!(r.relation, plain.relation);
            assert_eq!(r.page_accesses + r.shared_cache_hits, plain.page_accesses);
            assert_eq!(r.cache_hits, 1, "the entry page, again");
            assert_eq!(r.accesses_by_operator, plain.accesses_by_operator);
        }
        assert_eq!((warm.page_accesses, warm.shared_cache_hits), (0, 4));
        let after = shared.stats();
        assert_eq!((after.hits - before.hits, after.misses), (4, before.misses));
    }

    #[test]
    fn a_buffer_that_does_not_parse_is_fetched_again() {
        let ws = scheme();
        let src = source();
        let shared = crate::cache::SharedPageCache::default();
        let policy = EvalPolicy {
            shared_cache: Some(&shared),
            ..Default::default()
        };
        let cold = Evaluator::new(&ws, &src)
            .with_policy(&policy)
            .eval(&nav())
            .unwrap();
        // "/i/b" offered again cut one byte short: the cached copy goes,
        // and the buffer, which does not parse, is not cached instead.
        let bytes = shared.get("/i/b").unwrap().encode();
        let before = shared.stats();
        shared.insert_raw(&Url::new("/i/b"), &bytes[..bytes.len() - 1]);
        let warm = Evaluator::new(&ws, &src)
            .with_policy(&policy)
            .eval(&nav())
            .unwrap();
        assert_eq!(warm.relation, cold.relation);
        assert_eq!((warm.page_accesses, warm.shared_cache_hits), (1, 3));
        let after = shared.stats();
        let moved = |f: fn(&crate::CacheStats) -> u64| f(&after) - f(&before);
        assert_eq!(moved(|s| s.misses), 1);
        assert_eq!(moved(|s| s.invalidations), 1);
        assert_eq!(
            moved(|s| s.insertions),
            1,
            "the page fetched again is cached again"
        );
        let again = Evaluator::new(&ws, &src)
            .with_policy(&policy)
            .eval(&nav())
            .unwrap();
        assert_eq!((again.page_accesses, again.shared_cache_hits), (0, 4));
    }

    /// Evaluates `nav()` traced under `fetch` and `shared`, returning the
    /// report and how many pool workers started (their `fetch.worker`
    /// terminal events).
    fn workers_started(
        fetch: Fetch,
        shared: Option<&crate::SharedPageCache>,
    ) -> (EvalReport, usize) {
        let (ws, src) = (scheme(), source());
        let sink = obs::TraceSink::with_seed(1);
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch,
                shared_cache: shared,
                trace: Some((sink.clone(), None)),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        let started = (sink.events().iter())
            .filter(|e| e.name == "fetch.worker")
            .count();
        (report, started)
    }

    #[test]
    fn a_pool_whose_pages_all_hit_the_shared_cache_starts_no_worker() {
        crate::fetch::tests::under_watchdog("a warm pooled evaluation hung", || {
            let shared = crate::SharedPageCache::default();
            let (cold, _) = workers_started(Fetch::pool(4), Some(&shared));
            assert_eq!(cold.page_accesses, 4);
            let (warm, started) = workers_started(Fetch::pool(4), Some(&shared));
            assert_eq!((warm.page_accesses, warm.shared_cache_hits), (0, 4));
            assert_eq!(warm.relation.sorted(), cold.relation.sorted());
            assert_eq!(started, 0, "an all-hit evaluation starts no fetch thread");
        });
    }

    #[test]
    fn a_pool_starts_one_worker_per_miss_up_to_its_size() {
        crate::fetch::tests::under_watchdog("a cold pooled evaluation hung", || {
            for workers in [1, 2, 4, 8] {
                let (cold, started) = workers_started(Fetch::pool(workers), None);
                assert_eq!(cold.page_accesses, 4);
                assert_eq!(started, workers.min(4), "{workers} workers, 4 misses");
            }
            // Three misses once the entry page is in the shared cache.
            let (ws, src) = (scheme(), source());
            let shared = crate::SharedPageCache::default();
            let policy = EvalPolicy {
                shared_cache: Some(&shared),
                ..Default::default()
            };
            let entry = NalgExpr::entry("ListPage");
            Evaluator::new(&ws, &src)
                .with_policy(&policy)
                .eval(&entry)
                .unwrap();
            let (partial, started) = workers_started(Fetch::pool(8), Some(&shared));
            assert_eq!((partial.page_accesses, partial.shared_cache_hits), (3, 1));
            assert_eq!(started, 3);
        });
    }

    #[test]
    fn shared_cache_with_concurrent_fetch_equals_sequential() {
        let ws = scheme();
        let src = source();
        let baseline = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        let shared = crate::cache::SharedPageCache::default();
        let cold = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&shared),
                fetch: Fetch::pool(8),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(cold.relation.sorted(), baseline.relation.sorted());
        assert_eq!(cold.page_accesses, baseline.page_accesses);
        let warm = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&shared),
                fetch: Fetch::pool(8),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(warm.relation.sorted(), baseline.relation.sorted());
        assert_eq!(warm.page_accesses, 0);
        assert_eq!(warm.shared_cache_hits, 4);
        assert_eq!(warm.accesses_by_operator, baseline.accesses_by_operator);
    }

    #[test]
    fn follow_with_no_links_yields_empty_relation_with_header() {
        let ws = scheme();
        let mut pages = HashMap::new();
        pages.insert(
            Url::new("/list.html"),
            Tuple::new().with_list("Items", vec![]),
        );
        let src = MapSource { pages };
        let report = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        assert!(report.relation.is_empty());
        assert!(report
            .relation
            .columns()
            .contains(&"ItemPage.Kind".to_string()));
    }

    /// A source where named URLs fail with a given error.
    struct FailingSource {
        inner: MapSource,
        fail: HashMap<Url, SourceError>,
    }

    impl PageSource for FailingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if let Some(e) = self.fail.get(url) {
                return Err(e.clone());
            }
            self.inner.fetch(url, scheme)
        }
    }

    fn failing(urls: &[(&str, SourceError)]) -> FailingSource {
        FailingSource {
            inner: source(),
            fail: urls
                .iter()
                .map(|(u, e)| (Url::new(*u), e.clone()))
                .collect(),
        }
    }

    #[test]
    fn fail_fast_aborts_on_transient_error() {
        let ws = scheme();
        let src = failing(&[("/i/b", SourceError::Timeout(Url::new("/i/b")))]);
        let err = Evaluator::new(&ws, &src).eval(&nav()).unwrap_err();
        assert!(matches!(err, EvalError::Source(_)));
    }

    #[test]
    fn partial_mode_skips_failed_pages_and_reports_them() {
        let ws = scheme();
        let src = failing(&[
            ("/i/b", SourceError::Timeout(Url::new("/i/b"))),
            (
                "/i/c",
                SourceError::Unavailable {
                    url: Url::new("/i/c"),
                    reason: "503".into(),
                },
            ),
        ]);
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 1);
        assert!(!report.is_complete());
        assert_eq!(report.unreachable, vec![Url::new("/i/b"), Url::new("/i/c")]);
        // Failed fetches are not downloads.
        assert_eq!(report.page_accesses, 2); // entry + /i/a
                                             // The cost model still charges the *attempted* distinct links.
        assert_eq!(report.cost_model_accesses(), 4);
    }

    #[test]
    fn partial_mode_records_broken_links_as_unreachable() {
        let ws = scheme();
        let mut src = source();
        src.pages.remove(&Url::new("/i/b"));
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.broken_links, 1);
        assert_eq!(report.unreachable, vec![Url::new("/i/b")]);
    }

    #[test]
    fn partial_mode_degrades_missing_entry_point_to_empty_relation() {
        let ws = scheme();
        let src = failing(&[(
            "/list.html",
            SourceError::Unavailable {
                url: Url::new("/list.html"),
                reason: "503".into(),
            },
        )]);
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.relation.is_empty());
        assert!(!report.is_complete());
        assert_eq!(report.unreachable, vec![Url::new("/list.html")]);
        assert_eq!(report.page_accesses, 0);
    }

    #[test]
    fn complete_run_reports_no_unreachable() {
        let ws = scheme();
        let src = source();
        for mode in [DegradationMode::FailFast, DegradationMode::Partial] {
            let report = Evaluator::new(&ws, &src)
                .with_policy(&EvalPolicy {
                    degradation: mode,
                    ..Default::default()
                })
                .eval(&nav())
                .unwrap();
            assert!(report.is_complete());
            assert!(report.unreachable.is_empty());
        }
    }

    #[test]
    fn partial_mode_with_pool_matches_sequential() {
        let ws = scheme();
        let src = failing(&[("/i/b", SourceError::Timeout(Url::new("/i/b")))]);
        let seq = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        let par = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                fetch: Fetch::pool(4),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(par.relation.sorted(), seq.relation.sorted());
        assert_eq!(par.unreachable, seq.unreachable);
        assert_eq!(par.page_accesses, seq.page_accesses);
    }

    fn audit_cfg(rate: f64) -> AuditConfig {
        use adm::{AttrRef, LinkConstraint};
        AuditConfig {
            rate,
            seed: 7,
            constraints: vec![Constraint::Link(LinkConstraint::new(
                AttrRef::new("ListPage", vec!["Items", "ToItem"]),
                AttrRef::new("ListPage", vec!["Items", "Name"]),
                AttrRef::new("ItemPage", vec!["Name"]),
            ))],
        }
    }

    #[test]
    fn audit_is_pure_observation() {
        let ws = scheme();
        let src = source();
        let plain = Evaluator::new(&ws, &src).eval(&nav()).unwrap();
        let audited = Evaluator::new(&ws, &src)
            .with_audit(audit_cfg(1.0))
            .eval(&nav())
            .unwrap();
        // Everything the paper measures is byte-identical; only the audit
        // field differs.
        assert_eq!(audited.relation, plain.relation);
        assert_eq!(audited.page_accesses, plain.page_accesses);
        assert_eq!(audited.cache_hits, plain.cache_hits);
        assert_eq!(audited.accesses_by_operator, plain.accesses_by_operator);
        let audit = audited.audit.unwrap();
        assert_eq!(audit.checks(), 3, "all three anchors checked at rate 1");
        assert_eq!(audit.violation_count(), 0);
        assert_eq!(audit.sampled_pages, 4);
    }

    #[test]
    fn audit_detects_replica_drift_without_fetching() {
        let ws = scheme();
        let mut src = source();
        // The item page's Name drifts away from the anchors pointing at it.
        src.pages.insert(
            Url::new("/i/b"),
            Tuple::new().with("Name", "b [drift]").with("Kind", "y"),
        );
        let report = Evaluator::new(&ws, &src)
            .with_audit(audit_cfg(1.0))
            .eval(&nav())
            .unwrap();
        assert_eq!(report.page_accesses, 4, "auditing never fetches");
        let audit = report.audit.unwrap();
        assert_eq!(audit.violation_count(), 1);
        assert!(audit.constraints[0].violations[0].contains("/i/b"));
    }

    // An audited shared-cache hit is decoded for the audit alone: it
    // sees the page the cache keeps, and finds the same drift.
    #[test]
    fn an_audit_reads_shared_cache_hits_as_the_pages_they_encode() {
        let ws = scheme();
        let mut src = source();
        src.pages.insert(
            Url::new("/i/b"),
            Tuple::new().with("Name", "b [drift]").with("Kind", "y"),
        );
        let shared = crate::cache::SharedPageCache::default();
        let policy = EvalPolicy {
            shared_cache: Some(&shared),
            ..Default::default()
        };
        let audited = || {
            let evaluator = Evaluator::new(&ws, &src).with_policy(&policy);
            evaluator.with_audit(audit_cfg(1.0)).eval(&nav()).unwrap()
        };
        let (cold, warm) = (audited(), audited());
        assert_eq!((warm.page_accesses, warm.shared_cache_hits), (0, 4));
        assert_eq!(warm.relation, cold.relation);
        let (cold, warm) = (cold.audit.unwrap(), warm.audit.unwrap());
        assert_eq!(warm.sampled_pages, 4);
        assert_eq!(
            warm.constraints[0].violations,
            cold.constraints[0].violations
        );
        assert_eq!(warm.violation_count(), 1);
    }

    #[test]
    fn zero_rate_audit_is_disabled() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src)
            .with_audit(audit_cfg(0.0))
            .eval(&nav())
            .unwrap();
        assert!(report.audit.is_none());
    }

    #[test]
    fn pooled_audit_matches_sequential() {
        let ws = scheme();
        let src = source();
        let seq = Evaluator::new(&ws, &src)
            .with_audit(audit_cfg(0.6))
            .eval(&nav())
            .unwrap();
        for workers in [2, 8] {
            let par = Evaluator::new(&ws, &src)
                .with_policy(&EvalPolicy {
                    fetch: Fetch::pool(workers),
                    ..Default::default()
                })
                .with_audit(audit_cfg(0.6))
                .eval(&nav())
                .unwrap();
            assert_eq!(par.audit, seq.audit, "sampling is order-independent");
        }
    }

    /// A source that panics on one URL.
    struct PanickingSource {
        inner: MapSource,
    }

    impl PageSource for PanickingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if url.as_str() == "/i/b" {
                panic!("source blew up");
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn pooled_eval_survives_panicking_source() {
        let ws = scheme();
        let src = PanickingSource { inner: source() };
        // FailFast: the panic surfaces as a source error, not a process
        // abort (the scope join would otherwise re-raise it).
        let err = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch: Fetch::pool(3),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap_err();
        match err {
            EvalError::Source(m) => assert!(m.contains("fetch worker panicked"), "got: {m}"),
            other => panic!("unexpected error: {other:?}"),
        }
        // Partial: the poisoned page is skipped like any other failure.
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                fetch: Fetch::pool(3),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.unreachable, vec![Url::new("/i/b")]);
    }

    /// The inline executor has no worker to keep alive: there the panic
    /// unwinds through `eval` to the caller.
    #[test]
    #[should_panic(expected = "source blew up")]
    fn sequential_eval_lets_a_source_panic_unwind() {
        let ws = scheme();
        let src = PanickingSource { inner: source() };
        let _ = Evaluator::new(&ws, &src).eval(&nav());
    }

    /// A source that, serving `/i/a`, cancels `/i/b` on the evaluation's
    /// token — while `/i/b`'s job is already queued behind it — and logs
    /// every URL that reaches it.
    struct CancellingSource {
        inner: MapSource,
        token: obs::CancelToken,
        fetched: std::sync::Mutex<Vec<Url>>,
    }

    impl PageSource for CancellingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if url.as_str() == "/i/a" {
                self.token.cancel_url("/i/b");
            }
            self.fetched.lock().unwrap().push(url.clone());
            self.inner.fetch(url, scheme)
        }
    }

    /// The inline executor consults the cancel token like a pool worker
    /// does: a URL cancelled before its job runs never reaches the source.
    #[test]
    fn sequential_eval_honours_a_cancelled_token() {
        let ws = scheme();
        let token = obs::CancelToken::new();
        let src = CancellingSource {
            inner: source(),
            token: token.clone(),
            fetched: Default::default(),
        };
        let ev = |degradation| {
            Evaluator::new(&ws, &src).with_policy(&EvalPolicy {
                degradation,
                cancel: Some(token.clone()),
                ..Default::default()
            })
        };
        let report = ev(DegradationMode::Partial).eval(&nav()).unwrap();
        assert_eq!(report.unreachable, vec![Url::new("/i/b")]);
        assert_eq!((report.page_accesses, report.relation.len()), (3, 2));
        let fetched = std::mem::take(&mut *src.fetched.lock().unwrap());
        assert_eq!(fetched, ["/list.html", "/i/a", "/i/c"].map(Url::new));
        assert!(matches!(
            ev(DegradationMode::FailFast).eval(&nav()),
            Err(EvalError::Source(_))
        ));
        assert!(!src.fetched.lock().unwrap().contains(&Url::new("/i/b")));
    }

    /// A source that sleeps before serving named URLs. With `slow_once`
    /// only the first attempt per URL sleeps, so a hedged backup fetch
    /// can win deterministically.
    struct SlowSource {
        inner: MapSource,
        slow: HashMap<Url, std::time::Duration>,
        slow_once: bool,
        attempts: std::sync::Mutex<HashMap<Url, u32>>,
    }

    fn slow(urls: &[&str], ms: u64, slow_once: bool) -> SlowSource {
        SlowSource {
            inner: source(),
            slow: urls
                .iter()
                .map(|u| (Url::new(*u), std::time::Duration::from_millis(ms)))
                .collect(),
            slow_once,
            attempts: std::sync::Mutex::new(HashMap::new()),
        }
    }

    impl PageSource for SlowSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            if let Some(d) = self.slow.get(url) {
                let n = {
                    let mut a = self.attempts.lock().unwrap();
                    let e = a.entry(url.clone()).or_insert(0);
                    *e += 1;
                    *e
                };
                if !self.slow_once || n == 1 {
                    // Quantized, abandonable sleep — mirrors websim's
                    // simulated waits: a requester whose ambient deadline
                    // fired stops waiting out the tail.
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < *d {
                        if obs::reqctx::current().is_some_and(|c| c.deadline.expired()) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn expired_deadline_fails_over_to_partial_even_under_fail_fast() {
        let ws = scheme();
        let src = source();
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                deadline: obs::Deadline::after_us(0),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert!(report.relation.is_empty());
        assert_eq!(report.unreachable, vec![Url::new("/list.html")]);
        assert_eq!(report.page_accesses, 0, "nothing fetched past the budget");
    }

    #[test]
    fn deadline_mid_query_browns_out_with_exact_pending_set() {
        let ws = scheme();
        let src = slow(&["/i/a", "/i/b", "/i/c"], 20, false);
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                deadline: obs::Deadline::after_us(10_000),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert!(!report.is_complete());
        // Every link is either delivered or reported — never silently lost.
        assert_eq!(report.relation.len() + report.unreachable.len(), 3);
        assert!(!report.unreachable.is_empty());
        // The cost model still charges the attempted distinct links.
        assert_eq!(report.cost_model_accesses(), 4);
    }

    #[test]
    fn pooled_deadline_abort_cancels_pending_and_reports_them() {
        let ws = scheme();
        let src = slow(&["/i/a", "/i/b", "/i/c"], 50, false);
        let token = obs::CancelToken::new();
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                deadline: obs::Deadline::after_us(10_000),
                cancel: Some(token.clone()),
                fetch: Fetch::pool(1),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert_eq!(report.relation.len() + report.unreachable.len(), 3);
        assert!(report.unreachable.len() >= 2);
        // Still-queued jobs were cancelled through the token so pool
        // workers skip them pre-dispatch.
        let unreachable = report.unreachable.iter();
        let cancelled = unreachable.filter(|u| token.is_url_cancelled(u.as_str()));
        assert!(cancelled.count() >= 2);
    }

    #[test]
    fn relevance_cancels_provably_dead_urls() {
        let ws = scheme();
        let src = source();
        let e = nav().select(Pred::eq("Items.Name", "b"));
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        for fetch in [Fetch::Inline, Fetch::pool(2)] {
            let policy = EvalPolicy {
                relevance: true,
                fetch,
                ..Default::default()
            };
            let report = Evaluator::new(&ws, &src)
                .with_policy(&policy)
                .eval(&e)
                .unwrap();
            // Same rows, fewer downloads: /i/a and /i/c can never join
            // into an output tuple once σ[Items.Name='b'] is residual.
            assert_eq!(report.relation.sorted(), plain.relation.sorted());
            assert_eq!(report.page_accesses, 2, "entry + /i/b only");
            assert_eq!(report.cancelled, vec![Url::new("/i/a"), Url::new("/i/c")]);
            // Cancelled-as-irrelevant is not missing data.
            assert!(report.unreachable.is_empty());
            assert!(report.is_complete());
            // The cost model is untouched by relevance pruning.
            assert_eq!(report.cost_model_accesses(), plain.cost_model_accesses());
        }
    }

    #[test]
    fn relevance_never_prunes_on_page_side_predicates() {
        let ws = scheme();
        let src = source();
        // σ binds to a *page-side* column: nothing is provably dead
        // before the fetch, so every page is still downloaded.
        let e = nav().select(Pred::eq("ItemPage.Kind", "x"));
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                relevance: true,
                ..Default::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!(report.relation.len(), 2);
        assert_eq!(report.page_accesses, 4);
        assert!(report.cancelled.is_empty());
    }

    #[test]
    fn relevance_prunes_join_keys_via_semijoin_residual() {
        let ws = scheme();
        let src = source();
        // Left side keeps only row "b"; joining on the link column makes
        // the right-side follow relevant for /i/b alone.
        let left = NalgExpr::entry("ListPage")
            .unnest("Items")
            .select(Pred::eq("Name", "b"));
        let right = NalgExpr::entry_as("ListPage", "L2")
            .unnest("Items")
            .follow("ToItem", "ItemPage");
        let e = left.join(right, vec![("ListPage.Items.ToItem", "L2.Items.ToItem")]);
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                relevance: true,
                ..Default::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!(report.relation.sorted(), plain.relation.sorted());
        assert_eq!(plain.page_accesses, 4, "entry + all three items");
        assert_eq!(report.page_accesses, 2, "entry + /i/b only");
        assert_eq!(report.cancelled, vec![Url::new("/i/a"), Url::new("/i/c")]);
    }

    /// A source whose first fetch of `held` waits until the drain gives
    /// that URL up on `gate` (capped at 5 s); every other fetch answers at
    /// once.
    struct HeldOnce {
        inner: MapSource,
        held: Url,
        gate: obs::CancelToken,
        attempts: std::sync::atomic::AtomicUsize,
    }

    impl PageSource for HeldOnce {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            use std::sync::atomic::Ordering;
            if *url == self.held && self.attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                let t0 = std::time::Instant::now();
                while !self.gate.is_url_cancelled(url.as_str())
                    && t0.elapsed() < std::time::Duration::from_secs(5)
                {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn hedged_fetch_wins_without_touching_page_accesses() {
        let ws = scheme();
        // The primary fetch of /i/b is held until the drain cancels it,
        // which it does only once the hedge has won, so the hedge always
        // wins. The 250 ms delay sits far above scheduling noise, so no
        // other fetch (each answers at once) lives long enough to be
        // hedged.
        let gate = obs::CancelToken::new();
        let src = HeldOnce {
            inner: source(),
            held: Url::new("/i/b"),
            gate: gate.clone(),
            attempts: std::sync::atomic::AtomicUsize::new(0),
        };
        let cfg = crate::fetch::HedgeConfig::new(250_000);
        let (hedges, wins) = (cfg.hedges.clone(), cfg.hedge_wins.clone());
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch: Fetch::hedged(2, cfg),
                cancel: Some(gate),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 3);
        assert!(report.is_complete());
        assert_eq!(hedges.get(), 1);
        assert_eq!(wins.get(), 1);
        // The paper's counters never see the backup fetch.
        assert_eq!(report.page_accesses, 4);
        assert_eq!(report.cost_model_accesses(), 4);
    }

    #[test]
    fn infinite_deadline_and_token_change_nothing() {
        let ws = scheme();
        let src = source();
        let e = nav().select(Pred::eq("Kind", "x"));
        let plain = Evaluator::new(&ws, &src).eval(&e).unwrap();
        for fetch in [Fetch::Inline, Fetch::pool(3)] {
            let policy = EvalPolicy {
                deadline: obs::Deadline::infinite(),
                cancel: Some(obs::CancelToken::new()),
                fetch,
                ..Default::default()
            };
            let report = Evaluator::new(&ws, &src)
                .with_policy(&policy)
                .eval(&e)
                .unwrap();
            assert_eq!(report.relation.sorted(), plain.relation.sorted());
            assert_eq!(report.page_accesses, plain.page_accesses);
            assert_eq!(report.cache_hits, plain.cache_hits);
            assert_eq!(report.accesses_by_operator, plain.accesses_by_operator);
            assert!(!report.deadline_exceeded);
            assert!(report.cancelled.is_empty());
        }
    }

    /// A source gated on the evaluator itself: a fetch completes only once
    /// the drain has given its URL up (cancelled it on the shared token),
    /// so the completion can never race the drain's budget check. The cap
    /// keeps a drain that never gives up from hanging the suite.
    struct GatedSource {
        inner: MapSource,
        gate: obs::CancelToken,
    }

    impl PageSource for GatedSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            let t0 = std::time::Instant::now();
            while !self.gate.is_url_cancelled(url.as_str())
                && t0.elapsed() < std::time::Duration::from_secs(5)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn pooled_entry_fetch_respects_the_deadline() {
        let ws = scheme();
        // The entry GET itself is the laggard: it outlasts the 5ms budget,
        // however long the drain takes to notice the budget is gone.
        let gate = obs::CancelToken::new();
        let src = GatedSource {
            inner: source(),
            gate: gate.clone(),
        };
        let t0 = std::time::Instant::now();
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                deadline: obs::Deadline::after_us(5_000),
                cancel: Some(gate),
                fetch: Fetch::pool(2),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert!(report.deadline_exceeded);
        assert_eq!(report.relation.len(), 0);
        assert!(report.unreachable.contains(&Url::new("/list.html")));
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(45),
            "an in-flight entry tail must not block the session past the budget"
        );
    }

    #[test]
    fn entry_fetch_is_hedged_too() {
        let ws = scheme();
        // First attempt on the entry page hangs 50ms; the backup launched
        // after 1ms is served immediately and wins.
        let src = slow(&["/list.html"], 50, true);
        let cfg = crate::fetch::HedgeConfig::new(1_000);
        let (hedges, wins) = (cfg.hedges.clone(), cfg.hedge_wins.clone());
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch: Fetch::hedged(2, cfg),
                ..Default::default()
            })
            .eval(&nav())
            .unwrap();
        assert_eq!(report.relation.len(), 3);
        assert!(report.is_complete());
        assert!(hedges.get() >= 1);
        assert!(wins.get() >= 1);
        assert_eq!(report.page_accesses, 4, "the backup GET is never charged");
    }

    #[test]
    fn every_hedge_is_accounted_for_when_its_twin_outlives_the_drain() {
        // A second entry point onto the same list, at its own URL: its GET
        // is a second drain after the Follow's.
        let mut b = WebScheme::builder();
        for (name, url) in [("ListPage", "/list.html"), ("ListCopy", "/copy.html")] {
            b = b.scheme(list_scheme(name)).entry_point(name, url);
        }
        let item =
            PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Kind")]).unwrap();
        let ws = b.scheme(item).build().unwrap();
        // One worker, every item hedged after 50ms while /i/a is still in
        // flight: the backups queue behind the primaries, lose, and their
        // completions surface only after the Follow's drain has settled
        // all three URLs — during the drain of the second entry GET,
        // which itself is answered long before a hedge could come due.
        // While /i/b's primary dawdles, /i/a is settled and its backup
        // cancelled before the worker gets to it.
        let mut src = slow(&["/i/a", "/i/b", "/i/c"], 0, true);
        let list = src.inner.pages[&Url::new("/list.html")].clone();
        src.inner.pages.insert(Url::new("/copy.html"), list);
        src.slow
            .insert(Url::new("/i/a"), std::time::Duration::from_millis(120));
        src.slow
            .insert(Url::new("/i/b"), std::time::Duration::from_millis(40));
        let cfg = crate::fetch::HedgeConfig::new(50_000);
        let counters = cfg.clone();
        let e = nav().join(
            NalgExpr::entry("ListCopy").unnest("Items"),
            vec![("ListPage.Items.ToItem", "ListCopy.Items.ToItem")],
        );
        let report = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch: Fetch::hedged(1, cfg),
                ..Default::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!(report.relation.len(), 3);
        assert_eq!(report.page_accesses, 5, "backup GETs are never charged");
        assert_eq!(report.cost_model_accesses(), 5);
        // A backup either won, was cancelled before dispatch, or reached
        // the source as a second attempt — nothing else, none uncounted.
        let completed_losers: u64 = src
            .attempts
            .lock()
            .unwrap()
            .values()
            .map(|n| u64::from(*n) - 1)
            .sum();
        assert!(counters.hedges.get() >= 1);
        assert_eq!(
            counters.hedges.get(),
            counters.hedge_wins.get() + counters.hedge_cancelled.get() + completed_losers
        );
        a_backup_woken_on_another_flight_is_a_hedge_that_made_no_get();
    }

    /// Waits until `done` holds, for at most 5 s, so a test whose staging
    /// goes wrong fails instead of hanging.
    fn wait_until(done: impl Fn() -> bool) {
        let t0 = std::time::Instant::now();
        while !done() && t0.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// What the staged sources of the test below wait on.
    #[derive(Default)]
    struct Stage {
        /// Calls for the entry page below the coalescer.
        list_calls: AtomicU32,
        /// Calls for the entry page above it (the primary, then its backup).
        list_asks: AtomicU32,
        backup_sent: AtomicBool,
        primary_back: AtomicBool,
        backup_back: AtomicBool,
    }

    /// Below the coalescer: the primary's flight lasts until its backup is
    /// dispatched, the other request's until the backup has given up, and
    /// an item page until then too, so the backup's completion surfaces
    /// while the items' drain is open.
    struct Below<'a> {
        inner: MapSource,
        stage: &'a Stage,
    }

    impl PageSource for Below<'_> {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            let stage = self.stage;
            if url.as_str() == "/list.html" {
                let first = stage.list_calls.fetch_add(1, SeqCst) == 0;
                let flag = if first {
                    &stage.backup_sent
                } else {
                    &stage.backup_back
                };
                wait_until(|| flag.load(SeqCst));
            } else {
                wait_until(|| stage.backup_back.load(SeqCst));
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            self.inner.fetch(url, scheme)
        }
    }

    /// Above the coalescer, where the evaluator's jobs arrive: the entry
    /// page's backup joins the flight another request leads once its
    /// primary's flight has retired.
    struct Above<'a> {
        coalescer: &'a crate::fetch::CoalescingSource<'a, Below<'a>>,
        stage: &'a Stage,
    }

    impl PageSource for Above<'_> {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            self.fetch_shared(url, scheme)
                .map(|(t, _)| Tuple::clone(&t))
        }

        fn fetch_shared(&self, url: &Url, scheme: &str) -> crate::fetch::FetchOutcome {
            let stage = self.stage;
            if url.as_str() != "/list.html" {
                return self.coalescer.fetch_shared(url, scheme);
            }
            if stage.list_asks.fetch_add(1, SeqCst) == 0 {
                let out = self.coalescer.fetch_shared(url, scheme);
                stage.primary_back.store(true, SeqCst);
                return out;
            }
            stage.backup_sent.store(true, SeqCst);
            wait_until(|| stage.list_calls.load(SeqCst) >= 2);
            let out = self.coalescer.fetch_shared(url, scheme);
            stage.backup_back.store(true, SeqCst);
            out
        }
    }

    /// A losing backup that followed another request's coalesced flight
    /// and was woken by the cancel of the primary that won sent no GET:
    /// it is counted with the twins cancelled before dispatch, and the
    /// identity holds against the calls that reached the source.
    fn a_backup_woken_on_another_flight_is_a_hedge_that_made_no_get() {
        let ws = scheme();
        let stage = Stage::default();
        let below = Below {
            inner: source(),
            stage: &stage,
        };
        let coalescer = crate::fetch::CoalescingSource::new(&below);
        let above = Above {
            coalescer: &coalescer,
            stage: &stage,
        };
        let cfg = crate::fetch::HedgeConfig::new(50_000);
        let report = std::thread::scope(|s| {
            // The other request: it leads the entry page's second flight
            // once the primary's has retired.
            s.spawn(|| {
                wait_until(|| stage.primary_back.load(SeqCst));
                coalescer.fetch_shared(&Url::new("/list.html"), "ListPage")
            });
            Evaluator::new(&ws, &above)
                .with_policy(&EvalPolicy {
                    fetch: Fetch::hedged(2, cfg.clone()),
                    ..Default::default()
                })
                .eval(&nav())
                .unwrap()
        });
        assert_eq!(report.relation.len(), 3);
        assert_eq!(report.page_accesses, 4);
        let stats = coalescer.stats();
        assert_eq!((stats.followers, stats.cancel_wakes), (1, 1));
        // Of the entry page's two calls below the coalescer, the second
        // was the other request's: the evaluation's own calls are its
        // accesses, and no loser reached the source.
        let calls = u64::from(stage.list_calls.load(SeqCst)) - 1 + 3;
        let completed_losers = calls - report.page_accesses;
        assert_eq!(
            (
                cfg.hedges.get(),
                cfg.hedge_wins.get(),
                cfg.hedge_cancelled.get()
            ),
            (1, 0, 1)
        );
        assert_eq!(
            cfg.hedges.get(),
            cfg.hedge_wins.get() + cfg.hedge_cancelled.get() + completed_losers
        );
    }

    /// A source that logs its calls through a lock, as matview's
    /// `CheckingSource` keeps its store behind one.
    struct LoggingSource {
        inner: MapSource,
        fetched: std::sync::Mutex<Vec<Url>>,
    }

    impl PageSource for LoggingSource {
        fn fetch(&self, url: &Url, scheme: &str) -> std::result::Result<Tuple, SourceError> {
            self.fetched.lock().unwrap().push(url.clone());
            self.inner.fetch(url, scheme)
        }
    }

    #[test]
    fn inline_fetch_has_the_counters_of_a_one_worker_pool() {
        let ws = scheme();
        let mut pages = source().pages;
        pages.remove(&Url::new("/i/b"));
        let twin = MapSource {
            pages: pages.clone(),
        };
        let logged = LoggingSource {
            inner: MapSource { pages },
            fetched: Default::default(),
        };
        let e = nav().join(
            NalgExpr::entry_as("ListPage", "L2").unnest("Items"),
            vec![("ListPage.Items.ToItem", "L2.Items.ToItem")],
        );
        let inline = Evaluator::new(&ws, &logged).eval(&e).unwrap();
        let pooled = Evaluator::new(&ws, &twin)
            .with_policy(&EvalPolicy {
                fetch: Fetch::pool(1),
                ..Default::default()
            })
            .eval(&e)
            .unwrap();
        assert_eq!(inline.relation.sorted(), pooled.relation.sorted());
        assert_eq!(inline.page_accesses, pooled.page_accesses);
        assert_eq!(inline.cache_hits, pooled.cache_hits);
        assert_eq!(inline.broken_links, pooled.broken_links);
        assert_eq!(inline.accesses_by_operator, pooled.accesses_by_operator);
        assert_eq!(inline.unreachable, pooled.unreachable);
        assert_eq!((inline.page_accesses, inline.cache_hits), (3, 1));
        // Inline is sequential: one GET at a time, in first-appearance order.
        let order: Vec<String> = logged
            .fetched
            .lock()
            .unwrap()
            .iter()
            .map(Url::to_string)
            .collect();
        assert_eq!(order, ["/list.html", "/i/a", "/i/b", "/i/c"]);
    }
}
