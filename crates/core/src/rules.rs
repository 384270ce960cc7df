//! The NALG rewrite rules (Section 6.1).
//!
//! | Paper rule | Here |
//! |---|---|
//! | 1 — default navigation | applied by the optimizer during seed construction ([`crate::optimizer`]) |
//! | 2 — join on a link constraint ≡ follow | a semantic lemma underlying rules 8/9; exercised by tests |
//! | 3 — π through unnest | part of [`Rewriter::prune_navigations`] |
//! | 4 — repeated-navigation elimination | [`Rewriter::merge_repeated_navigations`] |
//! | 5 — unnecessary-navigation elimination | part of [`Rewriter::prune_navigations`] |
//! | 6 — selection pushing via link constraints | [`Rewriter::push_selections`] |
//! | 7 — projection pushing via link constraints | part of [`Rewriter::prune_navigations`] |
//! | 8 — **pointer join** | [`Rewriter::join_rewrite_candidates`] |
//! | 9 — **pointer chase** | [`Rewriter::join_rewrite_candidates`] |
//!
//! The rules rewrite plans inside a [`PlanArena`]: a rewrite names the node
//! it changes and rebuilds only the spine above it, an unchanged plan comes
//! back as the same [`NodeId`], and every header, alias map and validity
//! check a rule consults is the arena's memo for that subtree. All rules
//! operate on plans whose attribute references are fully qualified
//! (`alias.path…`); [`Rewriter::qualify`] normalizes a plan into that form
//! once, before rewriting starts.

use crate::arena::{resolve, scheme_of, APred, Col, Node, NodeId, PlanArena};
use crate::registry::RewriteRule;
use crate::stats::SiteStatistics;
use crate::Result;
use adm::intern::Symbol;
use adm::{AttrRef, InclusionConstraint, WebScheme};
use std::collections::HashMap;
use std::rc::Rc;

// --------------------------------------------------------------------------
// constraint provenance
// --------------------------------------------------------------------------

/// A constraint a rewrite relied on: an [`adm::Constraint`]. The optimizer
/// collects these on every candidate plan (its *constraint provenance*),
/// so runtime auditing knows exactly which site assumptions the winning
/// plan is betting on.
pub use adm::Constraint as ConstraintDependency;

/// Decides whether a constraint may license a rewrite. The optimizer
/// passes a closure rejecting quarantined constraints; a rejected
/// constraint simply leaves the expression unrewritten (the plan stays
/// correct, just less optimized).
pub type ConstraintGate<'g> = &'g dyn Fn(&ConstraintDependency) -> bool;

/// A [`ConstraintDependency`] a [`Rewriter`] has met, by position in its
/// table. Like every id here it stands for equality only; provenance is
/// ordered by the constraints themselves ([`Rewriter::dependencies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepId(u32);

/// The rule could not place a selection anywhere computable; the candidate
/// does not survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unrewritable;

/// A rewritten plan with the constraints the rewrite relied on.
pub type Rewritten = std::result::Result<(NodeId, Vec<DepId>), Unrewritable>;

/// One rule-8 or rule-9 rewriting of a whole plan.
#[derive(Debug, Clone)]
pub struct JoinRewrite {
    /// The rewritten plan.
    pub expr: NodeId,
    /// Which of the two rules produced it.
    pub rule: RewriteRule,
    /// The constraints that licensed it (rule 8: one link constraint per
    /// join pair; rule 9: additionally the inclusion it chased through).
    pub used: Vec<DepId>,
}

/// A scheme-qualified attribute path, `(scheme, path)` — an [`AttrRef`]
/// in symbols.
type AttrKey = (Symbol, Symbol);

fn attr_key_of(r: &AttrRef) -> AttrKey {
    (Symbol::intern(&r.scheme), Symbol::intern(&r.path.join(".")))
}

/// A declared link constraint in symbols.
struct LinkKeys {
    link: AttrKey,
    source: AttrKey,
    target: AttrKey,
}

/// Whether `sub ⊆ sup` follows from the declared inclusions, and what a
/// rewrite through it must assume.
#[derive(Clone, Copy)]
enum Inclusion {
    NotImplied,
    /// The same link attribute on both sides: assumes nothing.
    Trivial,
    Implied(DepId),
}

/// The rules' working state for one `optimize`: the plan arena, the
/// declared constraints in symbols, and the table of constraints met so
/// far, each with the gate's verdict (asked once per constraint).
pub struct Rewriter<'a> {
    pub(crate) arena: PlanArena<'a>,
    gate: ConstraintGate<'a>,
    /// `ws.link_constraints()`, in declaration order.
    links: Vec<LinkKeys>,
    link_deps: Vec<Option<DepId>>,
    inclusions: HashMap<(AttrKey, AttrKey), Inclusion>,
    deps: Vec<(ConstraintDependency, bool)>,
}

impl<'a> Rewriter<'a> {
    /// A rewriter over an empty arena.
    pub fn new(ws: &'a WebScheme, stats: &'a SiteStatistics, gate: ConstraintGate<'a>) -> Self {
        let links: Vec<LinkKeys> = ws
            .link_constraints()
            .iter()
            .map(|c| LinkKeys {
                link: attr_key_of(&c.link),
                source: attr_key_of(&c.source_attr),
                target: attr_key_of(&c.target_attr),
            })
            .collect();
        Rewriter {
            arena: PlanArena::new(ws, stats),
            gate,
            link_deps: vec![None; links.len()],
            links,
            inclusions: HashMap::new(),
            deps: Vec::new(),
        }
    }

    /// The constraints behind a set of ids: sorted, deduplicated.
    pub fn dependencies(&self, ids: &[DepId]) -> Vec<ConstraintDependency> {
        let mut out: Vec<ConstraintDependency> = ids
            .iter()
            .map(|d| self.deps[d.0 as usize].0.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn admit(&mut self, dep: ConstraintDependency) -> DepId {
        let admitted = (self.gate)(&dep);
        self.deps.push((dep, admitted));
        DepId(self.deps.len() as u32 - 1)
    }

    fn admitted(&self, dep: DepId) -> bool {
        self.deps[dep.0 as usize].1
    }

    /// The dependency id of the `i`-th declared link constraint.
    fn link_dep(&mut self, i: usize) -> DepId {
        if let Some(dep) = self.link_deps[i] {
            return dep;
        }
        let dep = self.admit(ConstraintDependency::Link(
            self.arena.ws.link_constraints()[i].clone(),
        ));
        self.link_deps[i] = Some(dep);
        dep
    }

    // ----------------------------------------------------------------------
    // qualification
    // ----------------------------------------------------------------------

    /// Rewrites every attribute reference into its fully qualified form by
    /// resolving it against the referencing operator's input columns.
    pub fn qualify(&mut self, id: NodeId) -> Result<NodeId> {
        let node = match self.arena.node(id).clone() {
            Node::Entry { .. } | Node::External { .. } => return Ok(id),
            Node::Select { input, pred } => {
                let input = self.qualify(input)?;
                Node::Select {
                    input,
                    pred: Rc::new(self.qualify_pred(input, &pred)?),
                }
            }
            Node::Project { input, cols } => {
                let input = self.qualify(input)?;
                self.arena.header_or_err(input)?;
                Node::Project {
                    input,
                    cols: cols
                        .iter()
                        .map(|&c| self.arena.resolve_or_err(input, c))
                        .collect::<Result<_>>()?,
                }
            }
            Node::Join { left, right, on } => {
                let left = self.qualify(left)?;
                let right = self.qualify(right)?;
                self.arena.header_or_err(left)?;
                self.arena.header_or_err(right)?;
                Node::Join {
                    left,
                    right,
                    on: on
                        .iter()
                        .map(|&(a, b)| {
                            Ok((
                                self.arena.resolve_or_err(left, a)?,
                                self.arena.resolve_or_err(right, b)?,
                            ))
                        })
                        .collect::<Result<_>>()?,
                }
            }
            Node::Unnest { input, attr } => {
                let input = self.qualify(input)?;
                Node::Unnest {
                    input,
                    attr: self.arena.resolve_or_err(input, attr)?,
                }
            }
            Node::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let input = self.qualify(input)?;
                Node::Follow {
                    input,
                    link: self.arena.resolve_or_err(input, link)?,
                    target,
                    alias,
                }
            }
        };
        Ok(self.arena.mk(node))
    }

    fn qualify_pred(&self, input: NodeId, p: &APred) -> Result<APred> {
        Ok(match p {
            APred::Eq(a, v) => APred::Eq(self.arena.resolve_or_err(input, *a)?, v.clone()),
            APred::EqAttr(a, b) => APred::EqAttr(
                self.arena.resolve_or_err(input, *a)?,
                self.arena.resolve_or_err(input, *b)?,
            ),
            APred::And(ps) => {
                self.arena.header_or_err(input)?;
                APred::And(
                    ps.iter()
                        .map(|q| self.qualify_pred(input, q).map(Rc::new))
                        .collect::<Result<_>>()?,
                )
            }
        })
    }

    // ----------------------------------------------------------------------
    // helpers shared by the constraint-driven rules
    // ----------------------------------------------------------------------

    /// Converts a qualified column (`alias.path…`) to a scheme-qualified
    /// attribute using the plan's alias map.
    fn attr_key(aliases: &[(Symbol, Symbol)], qualified: Col) -> Option<AttrKey> {
        Some((scheme_of(aliases, qualified.alias)?, qualified.rest?))
    }

    /// The declared link constraint on `link` with the given source and
    /// target attributes, if one exists and the gate admits it.
    fn find_link_constraint(
        &mut self,
        link: AttrKey,
        source: AttrKey,
        target: AttrKey,
    ) -> Option<DepId> {
        let i = self
            .links
            .iter()
            .position(|c| c.link == link && c.source == source && c.target == target)?;
        let dep = self.link_dep(i);
        self.admitted(dep).then_some(dep)
    }

    /// Finds, for a reference `alias.B` on the target side of `link`, the
    /// qualified source column licensed by a link constraint the gate
    /// admits, together with the constraint relied on.
    fn constraint_source_col(
        &mut self,
        aliases: &[(Symbol, Symbol)],
        link_col: Col,
        target_ref_col: Col,
    ) -> Option<(Col, DepId)> {
        let link = Self::attr_key(aliases, link_col)?;
        let target = Self::attr_key(aliases, target_ref_col)?;
        for i in 0..self.links.len() {
            if self.links[i].link == link && self.links[i].target == target {
                let dep = self.link_dep(i);
                if !self.admitted(dep) {
                    continue;
                }
                let source = Col {
                    alias: link_col.alias,
                    rest: Some(self.links[i].source.1),
                };
                return Some((source, dep));
            }
        }
        None
    }

    /// Whether `sub ⊆ sup` is implied, and the dependency a rewrite
    /// through it records.
    fn inclusion(&mut self, sub: AttrKey, sup: AttrKey) -> Inclusion {
        if let Some(&known) = self.inclusions.get(&(sub, sup)) {
            return known;
        }
        let attr_ref = |(scheme, path): AttrKey| AttrRef {
            scheme: scheme.to_string(),
            path: path.as_str().split('.').map(str::to_string).collect(),
        };
        let (sub_ref, sup_ref) = (attr_ref(sub), attr_ref(sup));
        let found = if !self.arena.ws.inclusion_implied(&sub_ref, &sup_ref) {
            Inclusion::NotImplied
        } else if sub == sup {
            Inclusion::Trivial
        } else {
            Inclusion::Implied(self.admit(ConstraintDependency::Inclusion(
                InclusionConstraint::new(sub_ref, sup_ref),
            )))
        };
        self.inclusions.insert((sub, sup), found);
        found
    }

    // ----------------------------------------------------------------------
    // rule 4 — repeated-navigation elimination
    // ----------------------------------------------------------------------

    /// Rule 4: replaces `R ⋈_Y R` (and `(R ∘ A) ⋈_Y R`) by the longer
    /// navigation, when both join sides are navigations one of which is a
    /// prefix of the other, the join attributes coincide under the alias
    /// correspondence, and at least one join attribute identifies the page
    /// (URL or a key-like attribute per the statistics). Column references
    /// to the dropped side are renamed to the kept side's aliases.
    pub fn merge_repeated_navigations(&mut self, root: NodeId) -> NodeId {
        let mut expr = root;
        loop {
            let step = match self.find_duplicate_follow(expr) {
                Some(step) => Some(step),
                None => self.find_merge(expr),
            };
            let Some((path, kept, renames)) = step else {
                return expr;
            };
            expr = self.arena.replace_at(expr, &path, kept);
            for (from, to) in renames {
                expr = self.arena.rename_alias(expr, from, to);
            }
        }
    }

    /// Rule 4 on navigations themselves: following the *same* qualified
    /// link column a second time re-fetches the same pages, so the outer
    /// follow can be dropped with its alias renamed onto the first
    /// follow's alias.
    fn find_duplicate_follow(&self, root: NodeId) -> Option<MergeAction> {
        if self.arena.info(root).follows < 2 {
            return None;
        }
        let follows = self
            .arena
            .positions(root, |n| matches!(n, Node::Follow { .. }));
        for (outer, path) in follows {
            let Node::Follow {
                input, link, alias, ..
            } = self.arena.node(outer)
            else {
                continue;
            };
            // scan the input spine for a follow of the identical link column
            let mut cur = *input;
            loop {
                match self.arena.node(cur) {
                    Node::Follow {
                        input: deeper,
                        link: l1,
                        alias: a1,
                        ..
                    } => {
                        if l1 == link && a1 != alias {
                            return Some((path, *input, vec![(*alias, *a1)]));
                        }
                        cur = *deeper;
                    }
                    Node::Unnest { input: deeper, .. } | Node::Select { input: deeper, .. } => {
                        cur = *deeper
                    }
                    _ => break,
                }
            }
        }
        None
    }

    /// The operators of a pure navigation from its entry point upwards.
    fn spine(&self, top: NodeId) -> Vec<NodeId> {
        let mut steps = vec![top];
        while let Some(&input) = self.arena.children(steps[steps.len() - 1]).first() {
            steps.push(input);
        }
        steps.reverse();
        steps
    }

    /// Alias-insensitive equality of two navigation steps.
    fn same_step(&self, a: NodeId, b: NodeId) -> bool {
        match (self.arena.node(a), self.arena.node(b)) {
            (Node::Entry { scheme: s1, .. }, Node::Entry { scheme: s2, .. }) => s1 == s2,
            (Node::Unnest { attr: a1, .. }, Node::Unnest { attr: a2, .. }) => {
                a1.leaf() == a2.leaf()
            }
            (
                Node::Follow {
                    link: l1,
                    target: t1,
                    ..
                },
                Node::Follow {
                    link: l2,
                    target: t2,
                    ..
                },
            ) => t1 == t2 && l1.leaf() == l2.leaf(),
            _ => false,
        }
    }

    /// The aliases a navigation introduces, in order of introduction.
    fn spine_aliases(&self, steps: &[NodeId]) -> Vec<Symbol> {
        steps
            .iter()
            .filter_map(|&s| match self.arena.node(s) {
                Node::Entry { alias, .. } | Node::Follow { alias, .. } => Some(*alias),
                _ => None,
            })
            .collect()
    }

    fn find_merge(&mut self, root: NodeId) -> Option<MergeAction> {
        if !self.arena.info(root).has_spine_join {
            return None;
        }
        let aliases = self.arena.info(root).aliases.clone()?;
        let joins = self.arena.positions(
            root,
            |n| matches!(n, Node::Join { on, .. } if !on.is_empty()),
        );
        for (join, path) in joins {
            let Node::Join { left, right, on } = self.arena.node(join).clone() else {
                continue;
            };
            if !(self.arena.info(left).spine && self.arena.info(right).spine) {
                continue;
            }
            let (sl, sr) = (self.spine(left), self.spine(right));
            let is_prefix = |short: &[NodeId], long: &[NodeId]| {
                short.len() <= long.len()
                    && short.iter().zip(long).all(|(&a, &b)| self.same_step(a, b))
            };
            let (kept_side, kept, dropped) = if is_prefix(&sr, &sl) {
                (left, &sl, &sr)
            } else if is_prefix(&sl, &sr) {
                (right, &sr, &sl)
            } else {
                continue;
            };
            let renames: Vec<(Symbol, Symbol)> = self
                .spine_aliases(dropped)
                .into_iter()
                .zip(self.spine_aliases(kept))
                .filter(|(d, k)| d != k)
                .collect();
            let renamed = |c: Col| {
                renames
                    .iter()
                    .find(|(from, _)| c.is_under_alias(*from))
                    .map_or(c, |&(_, to)| c.with_alias(to))
            };
            // Join keys must coincide under the alias correspondence, and
            // at least one must be page-identifying.
            let mut any_key_like = false;
            let mut ok = true;
            for &(a, b) in on.iter() {
                let (a, b) = (renamed(a), renamed(b));
                if a != b {
                    ok = false;
                    break;
                }
                if a.is_url() {
                    any_key_like = true;
                    continue;
                }
                // a join on a nullable attribute also filters null rows —
                // merging would wrongly keep them (SQL null semantics), so
                // only non-optional attributes license a merge
                match self.arena.field_of(&aliases, a) {
                    Some(f) if !f.optional => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
                if let Some((scheme, rest)) = Self::attr_key(&aliases, a) {
                    // key-like only meaningful for top-level attributes
                    if !rest.as_str().contains('.')
                        && self
                            .arena
                            .stats
                            .is_key_like(scheme.as_str(), &format!("{scheme}.{rest}"))
                    {
                        any_key_like = true;
                    }
                }
            }
            if ok && any_key_like {
                return Some((path, kept_side, renames));
            }
        }
        None
    }

    // ----------------------------------------------------------------------
    // rules 8 & 9 — pointer join / pointer chase
    // ----------------------------------------------------------------------

    /// One-step applications of rule 8 (pointer join) and rule 9 (pointer
    /// chase) anywhere in the tree. Returns all rewritten whole plans, each
    /// tagged with the rule that produced it and the constraints that
    /// licensed it; callers validate and cost them. Candidates that drop a
    /// branch whose columns are still referenced fail validation and are
    /// discarded there. Constraints the gate rejects license nothing.
    pub fn join_rewrite_candidates(
        &mut self,
        root: NodeId,
        pointer_join: bool,
        pointer_chase: bool,
    ) -> Vec<JoinRewrite> {
        let mut out = Vec::new();
        let Some(aliases) = self.arena.info(root).aliases.clone() else {
            return out;
        };
        let joins = self.arena.positions(
            root,
            |n| matches!(n, Node::Join { on, .. } if !on.is_empty()),
        );
        for (join, path) in joins {
            let Node::Join { left, right, on } = self.arena.node(join).clone() else {
                continue;
            };
            for follow_on_left in [true, false] {
                let (fside, oside) = if follow_on_left {
                    (left, right)
                } else {
                    (right, left)
                };
                // strip trailing unnests off the followed side (outermost
                // first); they are re-applied on top of the rewriting
                let mut core = fside;
                let mut stripped: Vec<Col> = Vec::new();
                while let Node::Unnest { input, attr } = *self.arena.node(core) {
                    stripped.push(attr);
                    core = input;
                }
                let Node::Follow {
                    input: r1,
                    link: l1,
                    target,
                    alias: a3,
                } = *self.arena.node(core)
                else {
                    continue;
                };
                // orient pairs as (followed-side attr, other-side attr);
                // every followed-side join attr must be a top-level
                // attribute of the followed page (alias a3)
                let pairs: Vec<(Col, Col)> = on
                    .iter()
                    .map(|&(a, b)| if follow_on_left { (a, b) } else { (b, a) })
                    .collect();
                if !pairs.iter().all(|(f, _)| f.alias == a3) {
                    continue;
                }
                let Some(ocols) = self.arena.info(oside).header.clone() else {
                    continue;
                };
                // candidate links L2 in the other side pointing to the target
                for &l2col in ocols.iter() {
                    let Some(l2field) = self.arena.field_of(&aliases, l2col) else {
                        continue;
                    };
                    if l2field.ty.link_target() != Some(target.as_str()) {
                        continue;
                    }
                    let Some(l2ref) = Self::attr_key(&aliases, l2col) else {
                        continue;
                    };
                    // every pair must be licensed by a link constraint on
                    // L2 the gate admits; the constraints used become the
                    // candidate's provenance
                    let Some(pair_deps) = self.license_pairs(&aliases, &pairs, &ocols, l2ref)
                    else {
                        continue;
                    };
                    let reattach = |arena: &mut PlanArena<'_>, core: NodeId| {
                        // `stripped` is outermost-first; re-apply innermost-first
                        stripped
                            .iter()
                            .rev()
                            .fold(core, |input, &attr| arena.mk(Node::Unnest { input, attr }))
                    };
                    if pointer_join {
                        // Rule 8: (R1 –L→ R3) ⋈_{R3.B=R2.A} R2
                        //       = (R1 ⋈_{R1.L=R2.L} R2) –L→ R3
                        let joined = self.arena.mk(Node::Join {
                            left: r1,
                            right: oside,
                            on: Rc::from([(l1, l2col)]),
                        });
                        let followed = self.arena.mk(Node::Follow {
                            input: joined,
                            link: l1,
                            target,
                            alias: a3,
                        });
                        let rewritten = reattach(&mut self.arena, followed);
                        out.push(JoinRewrite {
                            expr: self.arena.replace_at(root, &path, rewritten),
                            rule: RewriteRule::PointerJoin,
                            used: pair_deps.clone(),
                        });
                    }
                    if pointer_chase {
                        // Rule 9 additionally needs R2.L ⊆ R1.L.
                        let Some(l1ref) = Self::attr_key(&aliases, l1) else {
                            continue;
                        };
                        let mut used = pair_deps;
                        match self.inclusion(l2ref, l1ref) {
                            Inclusion::NotImplied => continue,
                            Inclusion::Trivial => {}
                            Inclusion::Implied(dep) => {
                                if !self.admitted(dep) {
                                    continue;
                                }
                                used.push(dep);
                            }
                        }
                        let followed = self.arena.mk(Node::Follow {
                            input: oside,
                            link: l2col,
                            target,
                            alias: a3,
                        });
                        let rewritten = reattach(&mut self.arena, followed);
                        out.push(JoinRewrite {
                            expr: self.arena.replace_at(root, &path, rewritten),
                            rule: RewriteRule::PointerChase,
                            used,
                        });
                    }
                }
            }
        }
        out
    }

    /// The link constraints on `l2` that license replacing every join pair
    /// `(followed-side attr, other-side attr)` by a join on the link;
    /// `None` when some pair has none.
    fn license_pairs(
        &mut self,
        aliases: &[(Symbol, Symbol)],
        pairs: &[(Col, Col)],
        ocols: &[Col],
        l2: AttrKey,
    ) -> Option<Vec<DepId>> {
        let mut deps = Vec::new();
        for &(f, o) in pairs {
            let fref = Self::attr_key(aliases, f)?;
            let oref = Self::attr_key(aliases, o)?;
            // nullable join attributes filter rows the rewritten plan
            // would keep — refuse the rewrite (cf. rule 4)
            let mut non_nullable =
                |col: Col| matches!(self.arena.field_of(aliases, col), Some(fld) if !fld.optional);
            if !(resolve(ocols, o).is_some() && non_nullable(f) && non_nullable(o)) {
                return None;
            }
            deps.push(self.find_link_constraint(l2, oref, fref)?);
        }
        Some(deps)
    }

    // ----------------------------------------------------------------------
    // rule 6 — selection pushing
    // ----------------------------------------------------------------------

    /// Pushes every selection atom as deep as it can go: through π, ⋈, ∘,
    /// and — via link constraints (rule 6) — through follow-link operators,
    /// rewriting target-side attributes into their replicated source-side
    /// anchors. Returns the rewritten plan with the link constraints relied
    /// on. Constraints the gate rejects are not pushed through — the
    /// selection simply stays above the navigation.
    pub fn push_selections(&mut self, root: NodeId) -> Rewritten {
        let mut used = Vec::new();
        let out = self.push_sel(root, &mut used)?;
        Ok((out, used))
    }

    fn push_sel(
        &mut self,
        e: NodeId,
        used: &mut Vec<DepId>,
    ) -> std::result::Result<NodeId, Unrewritable> {
        if !self.arena.info(e).has_select {
            return Ok(e);
        }
        if let Node::Select { input, pred } = self.arena.node(e).clone() {
            let mut cur = self.push_sel(input, used)?;
            for atom in pred.conjuncts() {
                cur = match self.sink(cur, &atom, used)? {
                    Some(pushed) => pushed,
                    None => self.arena.select(cur, atom),
                };
            }
            return Ok(cur);
        }
        let mut children = self.arena.children(e).to_vec();
        for c in &mut children {
            *c = self.push_sel(*c, used)?;
        }
        Ok(self.arena.with_children(e, &children))
    }

    /// True when every attribute of `atom` resolves in `node`'s header.
    fn resolves_at(&self, node: NodeId, atom: &APred) -> bool {
        self.arena.info(node).header.as_ref().is_some_and(|cols| {
            let mut all = true;
            atom.for_each_col(&mut |a| all &= resolve(cols, a).is_some());
            all
        })
    }

    /// Tries to apply `atom` as deep as possible inside `e`. Returns the
    /// rewritten plan, or `None` if the atom's attributes do not resolve
    /// anywhere in `e`. Rule-6 pushes record the link constraint used.
    fn sink(
        &mut self,
        e: NodeId,
        atom: &Rc<APred>,
        used: &mut Vec<DepId>,
    ) -> std::result::Result<Option<NodeId>, Unrewritable> {
        let children = self.arena.children(e);
        // σ and π pass the atom down or not at all; every other operator
        // takes it on top when no input could.
        for (i, &child) in children.iter().enumerate() {
            if let Some(pushed) = self.sink(child, atom, used)? {
                let mut new = children.to_vec();
                new[i] = pushed;
                return Ok(Some(self.arena.with_children(e, &new)));
            }
        }
        match *self.arena.node(e) {
            Node::Select { .. } | Node::Project { .. } => return Ok(None),
            Node::Follow {
                input,
                link,
                target,
                alias,
            } => {
                // Rule 6: a constant selection on a replicated target
                // attribute moves below the navigation, rewritten onto the
                // source anchor.
                if let APred::Eq(a, v) = &**atom {
                    if a.alias == alias {
                        let aliases = self.arena.info(e).aliases.clone().ok_or(Unrewritable)?;
                        if let Some((src_col, dep)) = self.constraint_source_col(&aliases, link, *a)
                        {
                            used.push(dep);
                            let anchored = Rc::new(APred::Eq(src_col, v.clone()));
                            let new_input = match self.sink(input, &anchored, used)? {
                                Some(pushed) => pushed,
                                None => self.arena.select(input, anchored),
                            };
                            return Ok(Some(self.arena.mk(Node::Follow {
                                input: new_input,
                                link,
                                target,
                                alias,
                            })));
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(self
            .resolves_at(e, atom)
            .then(|| self.arena.select(e, Rc::clone(atom))))
    }

    // ----------------------------------------------------------------------
    // rules 5, 7 — navigation pruning under projections (the trace still
    // names the step `rule357`)
    // ----------------------------------------------------------------------

    /// Removes navigations whose results the query never uses:
    ///
    /// * rule 5 — `π_X(R1 –L→ R2) = π_X(R1)` when `X ⊆ attrs(R1)` and `L`
    ///   is non-optional;
    /// * rule 7 — references to replicated target attributes are first
    ///   rewritten onto their source anchors (link constraints), which can
    ///   turn a used navigation into an unused one.
    ///
    /// Only applies when the plan root is a projection (the rules hold
    /// under set-projection semantics). Returns the pruned plan and the
    /// link constraints rule 7 rewrote references through; rule 5 assumes
    /// nothing about the site. Constraints the gate rejects block the
    /// rule-7 substitution, leaving the navigation in place.
    ///
    /// An unused unnest stays: `π_X(R ∘ A) = π_X(R)` (rule 3) holds only
    /// where no tuple's `A` is empty, since `∘` drops a tuple with an
    /// empty list, and no declared constraint says a list is never empty.
    /// Pruned, it answered every author on a bibliography's author list
    /// for `π AName (AuthorPub)`, those without a paper included.
    pub fn prune_navigations(&mut self, root: NodeId) -> Rewritten {
        let mut used = Vec::new();
        if !matches!(self.arena.node(root), Node::Project { .. }) {
            return Ok((root, used));
        }
        let mut expr = root;
        while let Some((path, substitutions, relied_on)) = self.find_prune(expr)? {
            used.extend(relied_on);
            for (from, to) in substitutions {
                expr = self
                    .arena
                    .map_names(expr, &|c| if c == from { to } else { c }, &|a| a);
            }
            let Node::Follow { input, .. } = *self.arena.node(self.arena.node_at(expr, &path))
            else {
                break;
            };
            expr = self.arena.replace_at(expr, &path, input);
        }
        Ok((expr, used))
    }

    fn find_prune(
        &mut self,
        root: NodeId,
    ) -> std::result::Result<Option<PruneAction>, Unrewritable> {
        let aliases = self.arena.info(root).aliases.clone().ok_or(Unrewritable)?;
        let navigations = self
            .arena
            .positions(root, |n| matches!(n, Node::Follow { .. }));
        for (id, path) in navigations {
            let Node::Follow {
                input, link, alias, ..
            } = *self.arena.node(id)
            else {
                continue;
            };
            // the link must be non-optional for rule 5 to hold
            let Some(field) = self.arena.field_of(&aliases, link) else {
                continue;
            };
            if field.optional {
                continue;
            }
            let mut outside: Vec<Col> = Vec::new();
            self.arena.for_each_ref_outside(root, &path, &mut |r| {
                if r.is_under_alias(alias) {
                    outside.push(r);
                }
            });
            if outside.is_empty() {
                return Ok(Some((path, vec![], vec![])));
            }
            // rule 7: try to replace each referenced target
            // attribute with its replicated source anchor
            let Some(input_cols) = self.arena.info(input).header.clone() else {
                continue;
            };
            let mut subs = Vec::new();
            let mut used = Vec::new();
            let all_replaceable =
                outside
                    .iter()
                    .all(|&r| match self.constraint_source_col(&aliases, link, r) {
                        Some((src, dep)) if resolve(&input_cols, src).is_some() => {
                            subs.push((r, src));
                            used.push(dep);
                            true
                        }
                        _ => false,
                    });
            if all_replaceable {
                return Ok(Some((path, subs, used)));
            }
        }
        Ok(None)
    }
}

/// One rule-4 step: `(path of the node to replace, its replacement, alias
/// renames dropped → kept)`.
type MergeAction = (Vec<u8>, NodeId, Vec<(Symbol, Symbol)>);

/// `(path of the navigation to drop, reference substitutions, constraints
/// the substitutions rely on)` describing one rule-5/7 step.
type PruneAction = (Vec<u8>, Vec<(Col, Col)>, Vec<DepId>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptError;
    use nalg::{NalgExpr, Pred};
    use websim::sitegen::bibliography::bibliography_scheme;
    use websim::sitegen::university::university_scheme;
    use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};

    /// The gate that admits every constraint (no quarantine in effect).
    fn open_gate(_: &ConstraintDependency) -> bool {
        true
    }

    fn uni_fixtures() -> (WebScheme, SiteStatistics) {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        (university_scheme().unwrap(), stats)
    }

    /// Imports and qualifies a tree.
    fn plan(rw: &mut Rewriter<'_>, e: &NalgExpr) -> NodeId {
        let raw = rw.arena.import(e);
        rw.qualify(raw).unwrap()
    }

    fn prof_spine() -> NalgExpr {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
    }

    /// The professor navigation again, under aliases `L2` and `P2`.
    fn prof_spine_2() -> NalgExpr {
        NalgExpr::entry_as("ProfListPage", "L2")
            .unnest("ProfList")
            .follow_as("ToProf", "ProfPage", "P2")
    }

    fn course_spine() -> NalgExpr {
        NalgExpr::entry("SessionListPage")
            .unnest("SesList")
            .follow("ToSes", "SessionPage")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse", "CoursePage")
    }

    #[test]
    fn qualify_rewrites_leaf_references() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let e = prof_spine()
            .select(Pred::eq("Rank", "Full"))
            .project(vec!["ProfPage.PName"]);
        let q = plan(&mut rw, &e);
        let NalgExpr::Project { cols, input } = rw.arena.export(q) else {
            panic!()
        };
        assert_eq!(cols, vec!["ProfPage.PName".to_string()]);
        let NalgExpr::Select { pred, .. } = *input else {
            panic!()
        };
        assert_eq!(pred.attrs(), vec!["ProfPage.Rank"]);
        // qualifying a qualified plan changes nothing
        assert_eq!(rw.qualify(q).unwrap(), q);
    }

    #[test]
    fn qualification_reports_the_tree_error() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let bogus = prof_spine().select(Pred::eq("Bogus", "x"));
        let id = rw.arena.import(&bogus);
        let cols = prof_spine().output_columns(&ws).unwrap();
        assert_eq!(
            rw.qualify(id),
            Err(OptError::Eval(
                adm::name::resolve_name(&cols, "Bogus")
                    .expect_err("unknown")
                    .into()
            ))
        );
        let not_a_link = prof_spine().follow("PName", "ProfPage").project(vec!["x"]);
        let id = rw.arena.import(&not_a_link);
        assert!(matches!(rw.qualify(id), Err(OptError::Eval(_))));
    }

    #[test]
    fn rule4_merges_identical_spines() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // Professor ⋈ ProfDept (nav 1) — both the same professor spine.
        let joined = prof_spine()
            .join(prof_spine_2(), vec![("ProfPage.PName", "P2.PName")])
            .project(vec!["ProfPage.Rank", "P2.DName"]);
        let joined = plan(&mut rw, &joined);
        assert!(RewriteRule::MergeRepeated.matches(&rw.arena, joined));
        let merged = rw.merge_repeated_navigations(joined);
        assert!(rw.arena.is_valid(merged));
        let merged = rw.arena.export(merged);
        assert_eq!(merged.follow_count(), 1);
        // the dropped alias was renamed in the projection
        let NalgExpr::Project { cols, .. } = &merged else {
            panic!()
        };
        assert!(cols.contains(&"ProfPage.DName".to_string()));
    }

    #[test]
    fn rule4_merges_prefix_spines() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // (ProfSpine ∘ CourseList) ⋈_{PName} ProfSpine: prefix case.
        let joined = prof_spine()
            .unnest("ProfPage.CourseList")
            .join(prof_spine_2(), vec![("ProfPage.PName", "P2.PName")])
            .project(vec!["ProfPage.CourseList.CName", "P2.Rank"]);
        let joined = plan(&mut rw, &joined);
        let merged = rw.merge_repeated_navigations(joined);
        assert!(rw.arena.is_valid(merged));
        assert_eq!(rw.arena.export(merged).follow_count(), 1);
    }

    #[test]
    fn rule4_refuses_nullable_join_attributes() {
        // Regression (found by the randomized soundness test): a self-join
        // on the optional Email attribute filters null-email professors;
        // merging the navigations would wrongly keep them.
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let joined = prof_spine()
            .join(
                prof_spine_2(),
                vec![
                    ("ProfPage.PName", "P2.PName"),
                    ("ProfPage.Email", "P2.Email"),
                ],
            )
            .project(vec!["ProfPage.PName", "P2.PName"]);
        let joined = plan(&mut rw, &joined);
        assert_eq!(
            rw.merge_repeated_navigations(joined),
            joined,
            "nullable Email must block the merge"
        );
    }

    #[test]
    fn rule4_requires_key_like_join() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // joining two professor spines on Rank (non-key) must NOT merge
        let joined = prof_spine()
            .join(prof_spine_2(), vec![("ProfPage.Rank", "P2.Rank")])
            .project(vec!["ProfPage.PName", "P2.PName"]);
        let joined = plan(&mut rw, &joined);
        assert_eq!(rw.merge_repeated_navigations(joined), joined);
    }

    #[test]
    fn rule4_drops_a_link_followed_twice() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let twice = prof_spine()
            .follow_as("ProfListPage.ProfList.ToProf", "ProfPage", "P2")
            .project(vec!["P2.PName", "ProfPage.Rank"]);
        let twice = plan(&mut rw, &twice);
        let once = rw.merge_repeated_navigations(twice);
        assert!(rw.arena.is_valid(once));
        let once = rw.arena.export(once);
        assert_eq!(once.follow_count(), 1);
        let NalgExpr::Project { cols, .. } = &once else {
            panic!()
        };
        assert_eq!(cols, &vec!["ProfPage.PName", "ProfPage.Rank"]);
    }

    fn dept_address_query() -> NalgExpr {
        NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .follow("ToDept", "DeptPage")
            .select(Pred::eq("DeptPage.DName", "Computer Science"))
            .project(vec!["Address"])
    }

    #[test]
    fn rule6_pushes_selection_through_navigation() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let e = plan(&mut rw, &dept_address_query());
        let (pushed, used) = rw.push_selections(e).unwrap();
        assert!(rw.arena.is_valid(pushed));
        assert_eq!(rw.dependencies(&used).len(), 1);
        // the selection must now sit below the follow, on the anchor
        let rendered = nalg::display::tree(&rw.arena.export(pushed));
        assert!(rendered.contains("DeptListPage.DeptList.DName='Computer Science'"));
        let sel_line = rendered.lines().position(|l| l.contains("σ[")).unwrap();
        let follow_line = rendered
            .lines()
            .position(|l| l.contains("ToDept→"))
            .unwrap();
        assert!(sel_line > follow_line, "{rendered}");
        // pushed as far as it goes: a second application changes nothing
        assert_eq!(rw.push_selections(pushed).unwrap().0, pushed);
    }

    fn editors_query(mut atoms: Vec<Pred>) -> NalgExpr {
        let pred = match atoms.len() {
            1 => atoms.remove(0),
            _ => Pred::And(atoms),
        };
        NalgExpr::entry("BibHomePage")
            .follow("ToConfList", "ConfListPage")
            .unnest("ConfList")
            .follow("ToConf", "ConfPage")
            .unnest("EditionList")
            .follow("ToEdition", "EditionPage")
            .select(pred)
            .project(vec!["EditionPage.Editors"])
    }

    #[test]
    fn rule6_pushes_through_two_hops() {
        let ws = bibliography_scheme().unwrap();
        let stats = SiteStatistics::default();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let e = editors_query(vec![Pred::eq("EditionPage.ConfName", "VLDB")]);
        let e = plan(&mut rw, &e);
        let (pushed, _) = rw.push_selections(e).unwrap();
        assert!(rw.arena.is_valid(pushed));
        let rendered = nalg::display::inline(&rw.arena.export(pushed));
        // pushed all the way to the conference-list anchor
        assert!(rendered.contains("ConfListPage.ConfList.ConfName='VLDB'"));
    }

    #[test]
    fn rule5_7_prune_unused_navigation() {
        let ws = bibliography_scheme().unwrap();
        let stats = SiteStatistics::default();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // editors of VLDB '96: the edition page need not be fetched — the
        // conference page replicates Year and Editors.
        let e = editors_query(vec![
            Pred::eq("EditionPage.ConfName", "VLDB"),
            Pred::eq("EditionPage.Year", "1996"),
        ]);
        let e = plan(&mut rw, &e);
        let (pushed, _) = rw.push_selections(e).unwrap();
        assert!(RewriteRule::PruneNavigations.matches(&rw.arena, pushed));
        let (pruned, _) = rw.prune_navigations(pushed).unwrap();
        assert!(rw.arena.is_valid(pruned));
        // the ToEdition navigation is gone
        let pruned = rw.arena.export(pruned);
        assert_eq!(pruned.follow_count(), 2); // home→conflist, conflist→conf
        let rendered = nalg::display::inline(&pruned);
        assert!(!rendered.contains("–ToEdition→"));
        assert!(rendered.contains("ConfPage.EditionList.Editors"));
    }

    #[test]
    fn prune_respects_used_navigations() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // Description only exists on the course page — cannot prune.
        let e = plan(
            &mut rw,
            &course_spine().project(vec!["CoursePage.Description"]),
        );
        assert_eq!(rw.prune_navigations(e).unwrap().0, e);
        // and without a projection on top the rules do not apply at all
        let bare = plan(&mut rw, &course_spine());
        assert!(!RewriteRule::PruneNavigations.matches(&rw.arena, bare));
        assert_eq!(rw.prune_navigations(bare).unwrap().0, bare);
    }

    #[test]
    fn prune_replaces_anchor_only_navigation() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // π[CName] over the full course navigation: CName is replicated in
        // the session page's course list, so the course pages need not be
        // fetched.
        let e = plan(&mut rw, &course_spine().project(vec!["CoursePage.CName"]));
        let (pruned, used) = rw.prune_navigations(e).unwrap();
        assert!(rw.arena.is_valid(pruned));
        assert_eq!(rw.dependencies(&used).len(), 1);
        let pruned = rw.arena.export(pruned);
        assert_eq!(pruned.follow_count(), 1); // only ToSes remains
        let NalgExpr::Project { cols, .. } = &pruned else {
            panic!()
        };
        assert_eq!(cols, &vec!["SessionPage.CourseList.CName".to_string()]);
    }

    /// Example 7.1's join: professors' course lists against the course
    /// navigation, on the replicated course name.
    fn example_71_join(project: &str) -> NalgExpr {
        prof_spine()
            .unnest("ProfPage.CourseList")
            .join(
                course_spine(),
                vec![("ProfPage.CourseList.CName", "CoursePage.CName")],
            )
            .project(vec![project])
    }

    #[test]
    fn rule8_pointer_join_on_example_71_shape() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let joined = plan(&mut rw, &example_71_join("CoursePage.Description"));
        let candidates = rw.join_rewrite_candidates(joined, true, false);
        assert!(!candidates.is_empty());
        assert!(candidates
            .iter()
            .all(|c| c.rule == RewriteRule::PointerJoin));
        let valid: Vec<_> = candidates
            .iter()
            .filter(|c| rw.arena.is_valid(c.expr))
            .collect();
        assert!(!valid.is_empty());
        // pointer-join shape: join now on the two ToCourse link columns
        let rendered = nalg::display::tree(&rw.arena.export(valid[0].expr));
        assert!(
            rendered.contains("SessionPage.CourseList.ToCourse = ProfPage.CourseList.ToCourse"),
            "{rendered}"
        );
    }

    #[test]
    fn rule9_pointer_chase_requires_inclusion() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let joined = plan(&mut rw, &example_71_join("CoursePage.Description"));
        let candidates = rw.join_rewrite_candidates(joined, false, true);
        // Inclusion ProfPage.CourseList.ToCourse ⊆ SessionPage.CourseList.ToCourse
        // holds, so chasing from the professor side is licensed.
        let valid: Vec<_> = candidates
            .into_iter()
            .filter(|c| rw.arena.is_valid(c.expr))
            .collect();
        assert!(!valid.is_empty());
        assert_eq!(valid[0].rule, RewriteRule::PointerChase);
        // the session branch is gone: entry SessionListPage disappears
        let rendered = nalg::display::tree(&rw.arena.export(valid[0].expr));
        assert!(!rendered.contains("SessionListPage"), "{rendered}");
        assert!(
            rendered.contains("ProfPage.CourseList.ToCourse"),
            "{rendered}"
        );
    }

    #[test]
    fn rule9_candidates_referencing_dropped_branch_fail_validation() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        // projection references SessionPage.Session — the chase that drops
        // the session branch must fail validation.
        let joined = plan(&mut rw, &example_71_join("SessionPage.Session"));
        let candidates = rw.join_rewrite_candidates(joined, false, true);
        assert!(!candidates.is_empty());
        for c in candidates {
            let rendered = nalg::display::tree(&rw.arena.export(c.expr));
            if !rendered.contains("SessionListPage") {
                assert!(!rw.arena.is_valid(c.expr));
            }
        }
    }

    #[test]
    fn rule2_semantics_join_on_constraint_equals_follow() {
        // Rule 2 lemma, checked semantically on a real site: joining the
        // professor list with professor pages on the replicated PName
        // equals following the ToProf links.
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 8,
            seed: 9,
            ..UniversityConfig::default()
        })
        .unwrap();
        let ws = u.site.scheme.clone();
        let stats = SiteStatistics::from_site(&u.site);
        let src = crate::source::LiveSource::for_site(&u.site);
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let follow = plan(
            &mut rw,
            &prof_spine().project(vec!["ProfListPage.ProfList.PName", "ProfPage.Rank"]),
        );
        let report = nalg::Evaluator::new(&ws, &src)
            .eval(&rw.arena.export(follow))
            .unwrap();
        // manual "join" via the anchors: same rows
        assert_eq!(report.relation.len(), 6);
        for i in 0..report.relation.len() {
            let anchor = report
                .relation
                .value(i, "ProfListPage.ProfList.PName")
                .unwrap();
            assert!(!anchor.is_null());
        }
    }

    #[test]
    fn bibliography_rule9_home_featured_chase() {
        let ws = bibliography_scheme().unwrap();
        let bib = Bibliography::generate(BibConfig {
            authors: 20,
            conferences: 5,
            db_conferences: 2,
            featured: 1,
            editions_per_conf: 2,
            papers_per_edition: 3,
            seed: 5,
            ..BibConfig::default()
        })
        .unwrap();
        let stats = SiteStatistics::from_site(&bib.site);
        // Featured ⊆ DBConfList ⊆ ConfList: the transitive inclusion holds,
        // and a rewrite through it records the implied constraint itself.
        let sub = AttrRef::parse("BibHomePage.Featured.ToConf").unwrap();
        let sup = AttrRef::parse("ConfListPage.ConfList.ToConf").unwrap();
        assert!(ws.inclusion_implied(&sub, &sup));
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let Inclusion::Implied(dep) = rw.inclusion(attr_key_of(&sub), attr_key_of(&sup)) else {
            panic!("implied, and not trivially")
        };
        assert_eq!(
            rw.dependencies(&[dep, dep]),
            vec![ConstraintDependency::Inclusion(InclusionConstraint::new(
                sub.clone(),
                sup
            ))]
        );
        assert!(matches!(
            rw.inclusion(attr_key_of(&sub), attr_key_of(&sub)),
            Inclusion::Trivial
        ));
    }

    #[test]
    fn rewrites_record_their_constraints() {
        let (ws, stats) = uni_fixtures();
        let mut rw = Rewriter::new(&ws, &stats, &open_gate);
        let joined = plan(&mut rw, &example_71_join("CoursePage.Description"));
        // Rule 8 records the licensing link constraint.
        let joins = rw.join_rewrite_candidates(joined, true, false);
        assert!(!joins.is_empty());
        for c in &joins {
            let deps = rw.dependencies(&c.used);
            assert!(!deps.is_empty());
            assert!(deps
                .iter()
                .all(|d| matches!(d, ConstraintDependency::Link(_))));
        }
        // Rule 9 additionally records the inclusion it chases through.
        let chases = rw.join_rewrite_candidates(joined, false, true);
        assert!(chases.iter().any(|c| rw
            .dependencies(&c.used)
            .iter()
            .any(|d| matches!(d, ConstraintDependency::Inclusion(_)))));
        // One combined call yields both, each tagged with its rule.
        let both = rw.join_rewrite_candidates(joined, true, true);
        let of_rule = |rule| -> Vec<NodeId> {
            both.iter()
                .filter(|c| c.rule == rule)
                .map(|c| c.expr)
                .collect()
        };
        assert_eq!(
            of_rule(RewriteRule::PointerJoin),
            joins.iter().map(|c| c.expr).collect::<Vec<_>>()
        );
        assert_eq!(
            of_rule(RewriteRule::PointerChase),
            chases.iter().map(|c| c.expr).collect::<Vec<_>>()
        );
    }

    #[test]
    fn closed_gate_blocks_constraint_rewrites() {
        let (ws, stats) = uni_fixtures();
        let closed = |_: &ConstraintDependency| false;
        let mut rw = Rewriter::new(&ws, &stats, &closed);
        // Rules 8/9: no candidate may be generated.
        let joined = plan(&mut rw, &example_71_join("CoursePage.Description"));
        assert!(rw.join_rewrite_candidates(joined, true, true).is_empty());
        // Rule 6: the selection stays above the navigation.
        let e = plan(&mut rw, &dept_address_query());
        let (pushed, used) = rw.push_selections(e).unwrap();
        assert!(used.is_empty());
        assert!(
            !nalg::display::inline(&rw.arena.export(pushed))
                .contains("DeptList.DName='Computer Science'"),
            "selection must not cross the follow under a closed gate"
        );
        // Rule 7: the replicated-attribute navigation is kept.
        let e = plan(&mut rw, &course_spine().project(vec!["CoursePage.CName"]));
        let (kept, used) = rw.prune_navigations(e).unwrap();
        assert_eq!(rw.arena.export(kept).follow_count(), 2);
        assert!(used.is_empty());
    }
}
