//! The cost model of Section 6.2.
//!
//! **Step 1** estimates the cardinality of every intermediate result:
//!
//! ```text
//! |P ∘ L|        = |P| · |L|                (fan-out)
//! |σ_{A=v}(R)|   = |R| · s_A,  s_A = 1/c_A  (uniformity assumption)
//! |R1 ⋈_A R2|    = |R1| · |R2| · jsel
//! |π_X(R)|       = min(|R|, Π c_X)          (set projection)
//! |R –L→ P|      = |R|                      (L is a key join on URL)
//! ```
//!
//! **Step 2** sums operator costs: only network access costs anything —
//! an entry point costs 1 page, a navigation `R –L→ P` costs the number of
//! *distinct* outgoing links `|π_L(R)|`, estimated as
//! `min(|R|, c_L)`; σ, π, ⋈ are local and free.
//!
//! Costs carry a secondary **bytes** component (page count × average page
//! size) used only to break page-count ties, reproducing the paper's
//! preference for strategy 2 (the smaller database-conference list page)
//! over strategy 1.

use crate::arena::{scheme_of, APred, Col, Node, NodeId, PlanArena};
use crate::stats::SiteStatistics;
use crate::{OptError, Result};
use adm::intern::Symbol;
use nalg::NalgExpr;
use std::collections::HashMap;
use std::fmt;
use std::ops::Add;
use std::rc::Rc;

/// An estimated plan cost: pages downloaded, with a bytes tiebreaker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Estimated number of page downloads (the paper's 𝒞).
    pub pages: f64,
    /// Estimated bytes transferred (secondary, tie-breaking component).
    pub bytes: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        pages: 0.0,
        bytes: 0.0,
    };

    /// Lexicographic comparison with a small tolerance on pages.
    pub fn better_than(&self, other: &Cost) -> bool {
        const EPS: f64 = 1e-6;
        if self.pages + EPS < other.pages {
            return true;
        }
        if (self.pages - other.pages).abs() <= EPS {
            return self.bytes < other.bytes;
        }
        false
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            pages: self.pages + rhs.pages,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} pages ({:.1} KB)", self.pages, self.bytes / 1024.0)
    }
}

/// A full cost estimate for an expression.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Estimated output cardinality.
    pub card: f64,
    /// Estimated total cost.
    pub cost: Cost,
    /// Per-navigation breakdown (operator label, estimated page accesses),
    /// mirroring [`nalg::EvalReport::accesses_by_operator`].
    pub per_operator: Vec<(String, f64)>,
    /// Per-node estimates in pre-order (index = pre-order node index).
    /// The evaluator's operator spans number nodes the same way for the
    /// same expression, which is what lets EXPLAIN ANALYZE join
    /// predicted and observed values per operator.
    pub nodes: Vec<NodeEstimate>,
}

/// Estimated cardinality and page cost of one operator node.
#[derive(Debug, Clone)]
pub struct NodeEstimate {
    /// Display label (same convention as the evaluator's span names).
    pub label: String,
    /// Estimated output cardinality of this node.
    pub card: f64,
    /// Pages charged by *this* node alone (1 for an entry point, the
    /// estimated distinct links for a navigation, 0 otherwise).
    pub pages: f64,
}

/// Estimates the cardinality and cost of a computable expression.
pub fn estimate(expr: &NalgExpr, ws: &adm::WebScheme, stats: &SiteStatistics) -> Result<Estimate> {
    let mut arena = PlanArena::new(ws, stats);
    let id = arena.import(expr);
    arena.estimate(id)
}

/// What one subtree costs: its cardinality, the accumulated cost of
/// everything below and including it, and the pages its root alone charges.
#[derive(Debug, Clone, Copy)]
struct Subtotal {
    card: f64,
    cost: Cost,
    pages: f64,
}

/// The arena's cost side tables: one [`Subtotal`] (or the reason there is
/// none) per distinct subtree, and the statistics key of each column.
#[derive(Default)]
pub(crate) struct EstimateMemo {
    subtotals: Vec<Option<Result<Subtotal>>>,
    stats_keys: HashMap<(Symbol, Option<Symbol>), Rc<str>>,
}

impl PlanArena<'_> {
    /// Estimates the cardinality and cost of a plan. Subtrees are costed
    /// once per arena; the result is bit-equal to [`estimate`] on the
    /// exported tree.
    pub fn estimate(&mut self, id: NodeId) -> Result<Estimate> {
        let total = self.subtotal(id)?;
        let mut est = Estimate {
            card: total.card,
            cost: total.cost,
            per_operator: Vec::new(),
            nodes: Vec::new(),
        };
        self.itemize(id, &mut est);
        Ok(est)
    }

    /// The total cost alone (what a trace event reports).
    pub(crate) fn cost_of(&mut self, id: NodeId) -> Option<Cost> {
        self.subtotal(id).ok().map(|t| t.cost)
    }

    fn subtotal(&mut self, id: NodeId) -> Result<Subtotal> {
        self.aliases_or_err(id)?;
        if let Some(Some(known)) = self.estimates.subtotals.get(id.index()) {
            return known.clone();
        }
        let computed = self.compute_subtotal(id);
        let memo = &mut self.estimates.subtotals;
        if memo.len() <= id.index() {
            memo.resize(id.index() + 1, None);
        }
        memo[id.index()] = Some(computed.clone());
        computed
    }

    /// One node of the cost walk of Section 6.2; the inputs' subtotals
    /// come from the memo.
    fn compute_subtotal(&mut self, id: NodeId) -> Result<Subtotal> {
        let stats = self.stats;
        match self.node(id).clone() {
            Node::External { name } => Err(OptError::NoPlan(format!(
                "cannot cost unresolved external relation {name}"
            ))),
            Node::Entry { scheme, .. } => {
                let scheme = scheme.as_str();
                Ok(Subtotal {
                    card: if self.ws.is_entry_point(scheme) {
                        1.0
                    } else {
                        stats.card(scheme)
                    },
                    cost: Cost {
                        pages: 1.0,
                        bytes: stats.bytes_of(scheme),
                    },
                    pages: 1.0,
                })
            }
            Node::Select { input, pred } => {
                let below = self.subtotal(input)?;
                self.header_or_err(input)?;
                let mut sel = 1.0;
                self.pred_selectivity(id, input, &pred, &mut sel)?;
                Ok(Subtotal {
                    card: below.card * sel,
                    cost: below.cost,
                    pages: 0.0,
                })
            }
            Node::Project { input, cols } => {
                let below = self.subtotal(input)?;
                self.header_or_err(input)?;
                let mut distinct = 1.0;
                for &c in cols.iter() {
                    let key = self.key_for(id, input, c)?;
                    distinct *= stats.distinct_of(&key).max(1.0);
                }
                Ok(Subtotal {
                    card: below.card.min(distinct),
                    cost: below.cost,
                    pages: 0.0,
                })
            }
            Node::Join { left, right, on } => {
                let l = self.subtotal(left)?;
                let r = self.subtotal(right)?;
                self.header_or_err(left)?;
                self.header_or_err(right)?;
                let mut sel = 1.0;
                for &(a, b) in on.iter() {
                    let ka = self.key_for(id, left, a)?;
                    let kb = self.key_for(id, right, b)?;
                    sel *= stats.selectivity(&ka, &kb);
                }
                Ok(Subtotal {
                    card: l.card * r.card * sel,
                    cost: l.cost + r.cost,
                    pages: 0.0,
                })
            }
            Node::Unnest { input, attr } => {
                let below = self.subtotal(input)?;
                let key = self.key_for(id, input, attr)?;
                Ok(Subtotal {
                    card: below.card * stats.fanout_of(&key),
                    cost: below.cost,
                    pages: 0.0,
                })
            }
            Node::Follow {
                input,
                link,
                target,
                ..
            } => {
                let below = self.subtotal(input)?;
                let key = self.key_for(id, input, link)?;
                let distinct_links = below.card.min(stats.distinct_of(&key)).max(0.0);
                let nav_cost = Cost {
                    pages: distinct_links,
                    bytes: distinct_links * stats.bytes_of(target.as_str()),
                };
                Ok(Subtotal {
                    card: below.card,
                    cost: below.cost + nav_cost,
                    pages: distinct_links,
                })
            }
        }
    }

    /// Multiplies `sel` by the selectivity of each atom of `pred`, in
    /// conjunct order.
    fn pred_selectivity(
        &mut self,
        at: NodeId,
        input: NodeId,
        pred: &APred,
        sel: &mut f64,
    ) -> Result<()> {
        let stats = self.stats;
        match pred {
            APred::Eq(a, _) => {
                let key = self.key_for(at, input, *a)?;
                *sel *= 1.0 / stats.distinct_of(&key).max(1.0);
            }
            APred::EqAttr(a, b) => {
                let ka = self.key_for(at, input, *a)?;
                let kb = self.key_for(at, input, *b)?;
                *sel *= stats.selectivity(&ka, &kb);
            }
            APred::And(ps) => {
                for p in ps {
                    self.pred_selectivity(at, input, p, sel)?;
                }
            }
        }
        Ok(())
    }

    /// The statistics key (`Scheme.path`) of the column `attr` resolves to
    /// in `input`'s header, under the aliases in scope at `at`.
    fn key_for(&mut self, at: NodeId, input: NodeId, attr: Col) -> Result<Rc<str>> {
        let col = self.resolve_or_err(input, attr)?;
        let scheme = self
            .info(at)
            .aliases
            .as_ref()
            .and_then(|a| scheme_of(a, col.alias))
            .unwrap_or(col.alias);
        let key = self
            .estimates
            .stats_keys
            .entry((scheme, col.rest))
            .or_insert_with(|| match col.rest {
                Some(rest) => Rc::from(format!("{scheme}.{rest}")),
                None => Rc::from(scheme.as_str()),
            });
        Ok(Rc::clone(key))
    }

    /// Fills the per-node and per-navigation breakdown of a costed plan:
    /// nodes in pre-order, navigation charges in the order the walk meets
    /// them (an operator's after its input's).
    fn itemize(&self, id: NodeId, est: &mut Estimate) {
        let Some(Some(Ok(t))) = self.estimates.subtotals.get(id.index()) else {
            return;
        };
        // Display labels mirror the evaluator's span naming, so predicted
        // and observed rows read identically.
        let label = match self.node(id) {
            Node::External { name } => format!("external {name}"),
            Node::Entry { scheme, .. } => format!("entry {scheme}"),
            Node::Select { .. } => "σ".to_string(),
            Node::Project { .. } => "π".to_string(),
            Node::Join { .. } => "⋈".to_string(),
            Node::Unnest { attr, .. } => format!("µ {attr}"),
            Node::Follow { link, target, .. } => format!("–{link}→ {target}"),
        };
        let charges = matches!(self.node(id), Node::Entry { .. } | Node::Follow { .. });
        est.nodes.push(NodeEstimate {
            label: label.clone(),
            card: t.card,
            pages: t.pages,
        });
        for &c in self.children(id).iter() {
            self.itemize(c, est);
        }
        if charges {
            est.per_operator.push((label, t.pages));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SiteStatistics;
    use nalg::Pred;
    use websim::sitegen::university::university_scheme;
    use websim::sitegen::{University, UniversityConfig};

    fn fixtures() -> (adm::WebScheme, SiteStatistics) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        (university_scheme().unwrap(), stats)
    }

    #[test]
    fn entry_costs_one_page() {
        let (ws, stats) = fixtures();
        let e = NalgExpr::entry("ProfListPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        assert_eq!(est.cost.pages, 1.0);
        assert_eq!(est.card, 1.0);
    }

    #[test]
    fn full_professor_navigation_cost() {
        let (ws, stats) = fixtures();
        // ProfListPage ∘ ProfList –ToProf→ ProfPage: 1 + |ProfPage| pages.
        let e = NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        assert!((est.cost.pages - 21.0).abs() < 1e-6);
        assert!((est.card - 20.0).abs() < 1e-6);
    }

    #[test]
    fn pushed_selection_reduces_navigation_cost() {
        let (ws, stats) = fixtures();
        // σ DName='CS' before following: only one department page fetched.
        let e = NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .select(Pred::eq("DName", "Computer Science"))
            .follow("ToDept", "DeptPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        assert!((est.cost.pages - 2.0).abs() < 1e-6);
        assert!((est.card - 1.0).abs() < 1e-6);
    }

    #[test]
    fn paper_example_72_pointer_chase_cost() {
        let (ws, stats) = fixtures();
        // Plan (2) of Example 7.2:
        // 1 + 1 + |Prof|/|Dept| + |Course|/|Dept| ≈ 25.3 at (50, 20, 3)
        let e = NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .select(Pred::eq("DName", "Computer Science"))
            .follow("ToDept", "DeptPage")
            .unnest("DeptPage.ProfList")
            .follow("DeptPage.ProfList.ToProf", "ProfPage")
            .unnest("ProfPage.CourseList")
            .follow("ProfPage.CourseList.ToCourse", "CoursePage")
            .select(Pred::eq("Type", "Graduate"));
        let est = estimate(&e, &ws, &stats).unwrap();
        let expected = 1.0 + 1.0 + 20.0 / 3.0 + 50.0 / 3.0;
        assert!(
            (est.cost.pages - expected).abs() < 1.5,
            "estimated {} vs paper-formula {expected}",
            est.cost.pages
        );
        assert!(est.cost.pages > 20.0 && est.cost.pages < 30.0);
    }

    #[test]
    fn follow_distinct_links_capped_by_target_card() {
        let (ws, stats) = fixtures();
        // Navigating from all course pages to professors: at most |Prof|
        // distinct professor pages, even though there are 50 courses.
        let e = NalgExpr::entry("SessionListPage")
            .unnest("SesList")
            .follow("ToSes", "SessionPage")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse", "CoursePage")
            .follow("CoursePage.ToProf", "ProfPage");
        let est = estimate(&e, &ws, &stats).unwrap();
        let last = est.per_operator.last().unwrap();
        assert!(last.0.contains("ProfPage"));
        assert!(last.1 <= 20.0 + 1e-9);
    }

    #[test]
    fn bytes_break_ties() {
        let a = Cost {
            pages: 5.0,
            bytes: 100.0,
        };
        let b = Cost {
            pages: 5.0,
            bytes: 200.0,
        };
        let c = Cost {
            pages: 4.0,
            bytes: 9999.0,
        };
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert!(c.better_than(&a));
    }

    #[test]
    fn join_uses_selectivity() {
        let (ws, stats) = fixtures();
        let left = NalgExpr::entry("ProfListPage").unnest("ProfList");
        let right = NalgExpr::entry_as("SessionListPage", "S2").unnest("SesList");
        // Cartesian-ish join on unrelated attrs; card = 20 × 3 × jsel.
        let e = left.join(
            right,
            vec![("ProfListPage.ProfList.PName", "S2.SesList.Session")],
        );
        let est = estimate(&e, &ws, &stats).unwrap();
        // jsel = 1/max(20, 3) = 1/20 → card = 3
        assert!((est.card - 3.0).abs() < 1e-6);
        assert_eq!(est.cost.pages, 2.0);
    }

    #[test]
    fn projection_caps_cardinality() {
        let (ws, stats) = fixtures();
        // Project 50 courses onto Session: at most 3 distinct values.
        let e = NalgExpr::entry("SessionListPage")
            .unnest("SesList")
            .follow("ToSes", "SessionPage")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse", "CoursePage")
            .project(vec!["CoursePage.Session"]);
        let est = estimate(&e, &ws, &stats).unwrap();
        assert!((est.card - 3.0).abs() < 1e-6);
    }

    #[test]
    fn external_cannot_be_costed() {
        let (ws, stats) = fixtures();
        let e = NalgExpr::external("Professor");
        assert!(estimate(&e, &ws, &stats).is_err());
    }
}
