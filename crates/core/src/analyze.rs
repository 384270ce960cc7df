//! EXPLAIN ANALYZE — joining predicted onto observed operator behaviour.
//!
//! The optimizer's [`Estimate`] records a [`NodeEstimate`] per plan node
//! in **pre-order**; the evaluator's operator spans carry the same
//! pre-order index in their `node` field (both sides number nodes at
//! entry, before recursing into inputs, over the same tree in the same
//! child order). [`ExplainAnalyze::from_parts`] joins the two by that
//! index, giving a per-operator table of predicted vs. observed
//! cardinalities and page accesses — the paper's "estimated vs. actual"
//! validation, but per operator instead of per plan.
//!
//! Observed **pages** are the cost-model charge of the operator (the
//! distinct links a navigation followed), taken from the span's `links`
//! field. Observed **downloads** are physical fetches; they can be lower
//! than pages when the per-query cache absorbs refetches and they stay
//! zero when a shared cache serves everything — traced hits are *never*
//! page accesses. Span counters are subtree-cumulative, so exclusive
//! per-operator values are recovered by subtracting the operator's
//! direct children.
//!
//! EXPLAIN ANALYZE is an ordinary [`crate::QuerySession::run`] whose
//! policy carries a trace sink, joined with the estimate of the plan that
//! answered (`outcome.explain.best()` — freshly planned, served by a plan
//! cache, or the audit fallback). A store session's run and a served
//! request read the same way; the latter's spans are its flight
//! recorder's `RequestTrace::events`.
//!
//! ```
//! use nalg::EvalPolicy;
//! use obs::trace::TraceSink;
//! use websim::sitegen::{University, UniversityConfig};
//! use wvcore::views::university_catalog;
//! use wvcore::{ConjunctiveQuery, ExecPolicy, ExplainAnalyze, LiveSource};
//! use wvcore::{QuerySession, SiteStatistics};
//!
//! let site = University::generate(UniversityConfig::default()).unwrap();
//! let stats = SiteStatistics::from_site(&site.site);
//! let catalog = university_catalog();
//! let source = LiveSource::for_site(&site.site);
//! let sink = TraceSink::with_seed(0);
//! let traced = ExecPolicy {
//!     eval: EvalPolicy {
//!         trace: Some((sink.clone(), None)),
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let session =
//!     QuerySession::new(&site.site.scheme, &catalog, &stats, &source).with_policy(&traced);
//!
//! let q = ConjunctiveQuery::new("full professors")
//!     .atom("Professor")
//!     .select((0, "Rank"), "Full")
//!     .project((0, "PName"));
//! let outcome = session.run(&q).unwrap(); // the answer, as untraced
//! let a = ExplainAnalyze::from_parts(&outcome.explain.best().estimate, &sink.events());
//! assert_eq!(a.observed_pages, outcome.measured_pages());
//! assert_eq!(
//!     a.render(),
//!     "\
//! operator                                 est.card     rows  est.pages   pages downloads  cached
//! π                                             6.7        4        0.0       0         0       0
//!   σ                                           6.7        4        0.0       0         0       0
//!     –ProfListPage.ProfList.ToProf→ ProfPage       20.0       20       20.0      20        20       0
//!       µ ProfListPage.ProfList                20.0       20        0.0       0         0       0
//!         entry ProfListPage                    1.0        1        1.0       1         1       0
//! total: 21.0 pages predicted, 21 observed (worst per-operator ratio 1.00)
//! "
//! );
//! let jsonl = sink.export_jsonl(); // the whole trace, one JSON event a line
//! assert!(jsonl.lines().count() > a.ops.len());
//! ```

use crate::cost::{Estimate, NodeEstimate};
use obs::trace::{EventKind, TraceEvent};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One operator's predicted-vs-observed row.
#[derive(Debug, Clone)]
pub struct OpAnalysis {
    /// Pre-order node index in the executed plan.
    pub node: usize,
    /// Depth in the plan tree (root = 0), for display indentation.
    pub depth: usize,
    /// Operator label (shared convention between estimator and evaluator).
    pub label: String,
    /// Predicted output cardinality.
    pub est_card: f64,
    /// Predicted page accesses charged by this operator alone.
    pub est_pages: f64,
    /// Observed output rows (`None` when the operator errored).
    pub rows_out: Option<u64>,
    /// Observed cost-model page accesses charged by this operator alone.
    pub pages: u64,
    /// Physical downloads performed by this operator alone (exclusive of
    /// its inputs).
    pub downloads: u64,
    /// Per-query cache hits in this operator alone.
    pub cache_hits: u64,
    /// Shared-cache hits in this operator alone (never page accesses).
    pub shared_cache_hits: u64,
    /// Broken links tolerated by this operator alone.
    pub broken_links: u64,
    /// The error that aborted this operator, if any.
    pub error: Option<String>,
}

impl OpAnalysis {
    /// Smoothed predicted/observed page-access ratio, always ≥ 1:
    /// `max(r, 1/r)` with `r = (est_pages + 1) / (pages + 1)`. The +1
    /// keeps free operators (both sides 0 → ratio 1) and genuinely
    /// mispredicted zeroes finite, so a CI gate can bound the worst
    /// ratio without special-casing σ/π/⋈ rows.
    pub fn pages_ratio(&self) -> f64 {
        let r = (self.est_pages + 1.0) / (self.pages as f64 + 1.0);
        r.max(1.0 / r)
    }
}

/// The joined predicted-vs-observed table for one executed plan.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// Per-operator rows in pre-order (execution plan order).
    pub ops: Vec<OpAnalysis>,
    /// The optimizer's total page estimate for the plan.
    pub predicted_pages: f64,
    /// The measured total under the paper's cost accounting — identical
    /// to [`nalg::EvalReport::cost_model_accesses`] for the same run.
    pub observed_pages: u64,
}

impl ExplainAnalyze {
    /// Joins an optimizer estimate onto the operator spans of one
    /// evaluation. `events` is a trace as exported by the sink the
    /// evaluator ran with; non-operator events (optimizer, fetch, cache,
    /// resilience) are ignored. If the trace holds several evaluations
    /// of the same plan, the latest span per node index wins.
    pub fn from_parts(estimate: &Estimate, events: &[TraceEvent]) -> ExplainAnalyze {
        let ops: Vec<(usize, &TraceEvent)> = events
            .iter()
            .filter(|e| e.kind == EventKind::Operator)
            .filter_map(|e| Some((e.field_u64("node")? as usize, e)))
            .collect();
        // span id → event, and node index → latest event for that node
        let by_id: HashMap<u64, &TraceEvent> = ops.iter().map(|&(_, e)| (e.id, e)).collect();
        let by_node: HashMap<usize, &TraceEvent> = ops.iter().copied().collect();
        // children by parent id, for exclusive-counter subtraction
        let mut children: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
        for &(_, e) in &ops {
            if let Some(p) = e.parent {
                if by_id.contains_key(&p) {
                    children.entry(p).or_default().push(e);
                }
            }
        }
        let depth_of = |e: &TraceEvent| {
            let mut d = 0;
            let mut cur = e.parent;
            while let Some(p) = cur {
                match by_id.get(&p) {
                    Some(pe) => {
                        d += 1;
                        cur = pe.parent;
                    }
                    None => break,
                }
            }
            d
        };
        let exclusive = |e: &TraceEvent, field: &str| {
            let own = e.field_u64(field).unwrap_or(0);
            let kids: u64 = children
                .get(&e.id)
                .map(|ks| ks.iter().map(|k| k.field_u64(field).unwrap_or(0)).sum())
                .unwrap_or(0);
            own.saturating_sub(kids)
        };
        let mut rows: Vec<OpAnalysis> = Vec::new();
        for (node, est) in estimate.nodes.iter().enumerate() {
            let NodeEstimate { label, card, pages } = est;
            let Some(e) = by_node.get(&node) else {
                // never executed (e.g. evaluation aborted upstream)
                rows.push(OpAnalysis {
                    node,
                    depth: 0,
                    label: label.clone(),
                    est_card: *card,
                    est_pages: *pages,
                    rows_out: None,
                    pages: 0,
                    downloads: 0,
                    cache_hits: 0,
                    shared_cache_hits: 0,
                    broken_links: 0,
                    error: None,
                });
                continue;
            };
            rows.push(OpAnalysis {
                node,
                depth: depth_of(e),
                label: e.name.clone(),
                est_card: *card,
                est_pages: *pages,
                rows_out: e.field_u64("rows_out"),
                pages: e.field_u64("links").unwrap_or(0),
                downloads: exclusive(e, "downloads"),
                cache_hits: exclusive(e, "cache_hits"),
                shared_cache_hits: exclusive(e, "shared_cache_hits"),
                broken_links: exclusive(e, "broken_links"),
                error: e.field_str("error").map(str::to_string),
            });
        }
        let observed_pages = rows.iter().map(|r| r.pages).sum();
        ExplainAnalyze {
            ops: rows,
            predicted_pages: estimate.cost.pages,
            observed_pages,
        }
    }

    /// The worst per-operator [`OpAnalysis::pages_ratio`] in the plan
    /// (1.0 for an empty plan). This is the number the CI smoke gate
    /// bounds: it drifts above the pinned tolerance when the cost model
    /// and the evaluator disagree about what a navigation costs.
    pub fn worst_pages_ratio(&self) -> f64 {
        self.ops
            .iter()
            .map(OpAnalysis::pages_ratio)
            .fold(1.0, f64::max)
    }

    /// Renders the predicted-vs-observed table, one row per operator in
    /// plan pre-order, indented by tree depth.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>8} {:>10} {:>7} {:>9} {:>7}",
            "operator", "est.card", "rows", "est.pages", "pages", "downloads", "cached"
        );
        for op in &self.ops {
            let label = format!("{}{}", "  ".repeat(op.depth), op.label);
            let rows = match (&op.error, op.rows_out) {
                (Some(_), _) => "ERR".to_string(),
                (None, Some(n)) => n.to_string(),
                (None, None) => "-".to_string(),
            };
            let cached = op.cache_hits + op.shared_cache_hits;
            let _ = writeln!(
                out,
                "{:<38} {:>10.1} {:>8} {:>10.1} {:>7} {:>9} {:>7}",
                label, op.est_card, rows, op.est_pages, op.pages, op.downloads, cached
            );
        }
        let _ = writeln!(
            out,
            "total: {:.1} pages predicted, {} observed (worst per-operator ratio {:.2})",
            self.predicted_pages,
            self.observed_pages,
            self.worst_pages_ratio()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::LiveSource;
    use crate::stats::SiteStatistics;
    use crate::views::university_catalog;
    use crate::ConjunctiveQuery;
    use nalg::{EvalPolicy, Evaluator};
    use obs::trace::TraceSink;
    use websim::sitegen::{University, UniversityConfig};

    fn analyzed() -> (ExplainAnalyze, u64) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let source = LiveSource::for_site(&u.site);
        let q = ConjunctiveQuery::new("full-profs")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        let opt = crate::Optimizer::new(&u.site.scheme, &catalog, &stats);
        let explain = opt.optimize(&q).unwrap();
        let sink = TraceSink::with_seed(0);
        let report = Evaluator::new(&u.site.scheme, &source)
            .with_policy(&EvalPolicy {
                trace: Some((sink.clone(), None)),
                ..Default::default()
            })
            .eval(&explain.best().expr)
            .unwrap();
        let analysis = ExplainAnalyze::from_parts(&explain.best().estimate, &sink.events());
        (analysis, report.cost_model_accesses())
    }

    #[test]
    fn joins_every_node_and_sums_to_cost_model() {
        let (a, cost_model) = analyzed();
        assert!(!a.ops.is_empty());
        assert_eq!(a.observed_pages, cost_model);
        // every executed node matched a span
        for op in &a.ops {
            assert!(
                op.rows_out.is_some(),
                "unjoined node {}: {}",
                op.node,
                op.label
            );
        }
        // labels agree between estimator and evaluator by construction
        assert!(a.ops.iter().any(|o| o.label.starts_with("entry ")));
    }

    #[test]
    fn render_mentions_each_operator() {
        let (a, _) = analyzed();
        let table = a.render();
        assert!(table.contains("est.pages"));
        assert!(table.contains("total:"));
        for op in &a.ops {
            assert!(table.contains(&op.label));
        }
    }

    #[test]
    fn ratio_is_symmetric_and_at_least_one() {
        let (a, _) = analyzed();
        assert!(a.worst_pages_ratio() >= 1.0);
        for op in &a.ops {
            assert!(op.pages_ratio() >= 1.0);
        }
        // a perfect prediction has ratio exactly 1
        let perfect = OpAnalysis {
            node: 0,
            depth: 0,
            label: "σ".into(),
            est_card: 1.0,
            est_pages: 0.0,
            rows_out: Some(1),
            pages: 0,
            downloads: 0,
            cache_hits: 0,
            shared_cache_hits: 0,
            broken_links: 0,
            error: None,
        };
        assert!((perfect.pages_ratio() - 1.0).abs() < 1e-12);
    }
}
