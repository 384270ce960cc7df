//! Phase-staged rewrite-rule registry.
//!
//! Algorithm 1 (Section 6.3) applies the paper's rules 1–9 in a fixed
//! staging: seed generation (rule 1), normalization (rule 4), branching
//! closure (rules 8/9), selection pushing (rule 6), and navigation pruning
//! (rules 3/5/7). This module names those stages and rules explicitly —
//! each [`RewritePhase`] owns a `const` slice of [`RewriteRule`]s — so the
//! [`crate::Optimizer`] drives "for each phase, for each registered rule"
//! instead of hard-coding the sequence inline, and ablation masks, trace
//! labels, and stage ordering all live in one place.
//!
//! The trace label of every rule ([`RewriteRule::trace_name`]) is part of
//! the repo's observability contract (`analyze`, the flight recorder, and
//! the EXPLAIN tooling all match on them) and must never change.

use crate::arena::{Node, NodeId, PlanArena};
use crate::optimizer::RuleMask;
use crate::rules::{DepId, Rewriter};

/// One stage of Algorithm 1, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewritePhase {
    /// Step 2 — translate atoms into default navigations (rule 1).
    Seed,
    /// Steps 3 and 5 — repeated-navigation elimination (rule 4).
    Normalize,
    /// Step 4 — branching closure under pointer join/chase (rules 8/9).
    Branch,
    /// Step 5 — selection pushing (rule 6).
    Push,
    /// Steps 6–7 — projection pushing and navigation pruning (rules 3/5/7).
    Prune,
}

/// A named rewrite rule of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteRule {
    /// Rule 1 — replace an external relation by a default navigation.
    DefaultNavigation,
    /// Rule 4 — merge repeated navigations.
    MergeRepeated,
    /// Rule 8 — pointer join.
    PointerJoin,
    /// Rule 9 — pointer chase.
    PointerChase,
    /// Rule 6 — push selections through navigations.
    PushSelections,
    /// Rules 3/5/7 — push projections, prune unnecessary navigations.
    PruneNavigations,
}

/// What applying one rule to one candidate did.
#[derive(Debug, Clone)]
pub enum RuleOutcome {
    /// The rule does not run in this mode (generative rules — seeds and
    /// branching — are driven by their own dedicated machinery).
    NotApplicable,
    /// The rule had nothing to do: either its cheap pre-check found no
    /// node it could fire on, or it ran and left the plan as it was.
    NoChange,
    /// The rule rewrote the plan; `used` are the link/inclusion
    /// constraints the rewrite leaned on.
    Applied {
        /// The rewritten plan (never the input's id).
        expr: NodeId,
        /// Constraint provenance accumulated by this application.
        used: Vec<DepId>,
    },
    /// The rule determined the candidate cannot survive (e.g. a selection
    /// that cannot be pushed into any computable position).
    Rejected,
}

const SEED_RULES: &[RewriteRule] = &[RewriteRule::DefaultNavigation];

const NORMALIZE_RULES: &[RewriteRule] = &[RewriteRule::MergeRepeated];

const BRANCH_RULES: &[RewriteRule] = &[RewriteRule::PointerJoin, RewriteRule::PointerChase];

const PUSH_RULES: &[RewriteRule] = &[RewriteRule::PushSelections];

const PRUNE_RULES: &[RewriteRule] = &[RewriteRule::PruneNavigations];

/// The phases in the order Algorithm 1 runs them per candidate after the
/// branching closure (step 5 repeats normalization because a pointer chase
/// can leave a duplicated navigation behind).
pub const CANDIDATE_PHASES: &[RewritePhase] = &[
    RewritePhase::Normalize,
    RewritePhase::Push,
    RewritePhase::Prune,
];

/// The rules registered for a phase, in application order.
pub fn rules_for_phase(phase: RewritePhase) -> &'static [RewriteRule] {
    match phase {
        RewritePhase::Seed => SEED_RULES,
        RewritePhase::Normalize => NORMALIZE_RULES,
        RewritePhase::Branch => BRANCH_RULES,
        RewritePhase::Push => PUSH_RULES,
        RewritePhase::Prune => PRUNE_RULES,
    }
}

impl RewriteRule {
    /// The rule's trace label — matched by `analyze`, the flight recorder,
    /// and EXPLAIN tooling; byte-stable across releases.
    pub fn trace_name(self) -> &'static str {
        match self {
            RewriteRule::DefaultNavigation => "rule1.default_navigation",
            RewriteRule::MergeRepeated => "rule4.merge_repeated",
            RewriteRule::PointerJoin => "rule8.pointer_join",
            RewriteRule::PointerChase => "rule9.pointer_chase",
            RewriteRule::PushSelections => "rule6.push_selections",
            RewriteRule::PruneNavigations => "rule357.prune_navigations",
        }
    }

    /// Whether the ablation mask enables this rule. Rule 1 cannot be
    /// disabled — without seeds there are no plans at all.
    pub fn enabled(self, mask: &RuleMask) -> bool {
        match self {
            RewriteRule::DefaultNavigation => true,
            RewriteRule::MergeRepeated => mask.merge_repeated,
            RewriteRule::PointerJoin => mask.pointer_join,
            RewriteRule::PointerChase => mask.pointer_chase,
            RewriteRule::PushSelections => mask.push_selections,
            RewriteRule::PruneNavigations => mask.prune_navigations,
        }
    }

    /// The cheap pre-check: false when the plan has no node this rule
    /// could fire on (no join of two navigations and no second follow for
    /// rule 4, no σ for rule 6, a root other than π for rules 3/5/7, no ⋈
    /// for rules 8/9). Read off the arena's memo; never walks the tree.
    pub(crate) fn matches(self, arena: &PlanArena<'_>, plan: NodeId) -> bool {
        let info = arena.info(plan);
        match self {
            RewriteRule::DefaultNavigation => false,
            RewriteRule::MergeRepeated => info.has_spine_join || info.follows >= 2,
            RewriteRule::PointerJoin | RewriteRule::PointerChase => info.has_join,
            RewriteRule::PushSelections => info.has_select,
            RewriteRule::PruneNavigations => matches!(arena.node(plan), Node::Project { .. }),
        }
    }

    /// Applies a normalization rule to one candidate. Generative rules
    /// (seeds, branching) return [`RuleOutcome::NotApplicable`]; they are
    /// driven by [`crate::Optimizer`]'s dedicated seed/closure machinery.
    pub(crate) fn apply(self, rewriter: &mut Rewriter<'_>, plan: NodeId) -> RuleOutcome {
        let rewritten = match self {
            RewriteRule::DefaultNavigation
            | RewriteRule::PointerJoin
            | RewriteRule::PointerChase => return RuleOutcome::NotApplicable,
            _ if !self.matches(&rewriter.arena, plan) => return RuleOutcome::NoChange,
            RewriteRule::MergeRepeated => {
                Ok((rewriter.merge_repeated_navigations(plan), Vec::new()))
            }
            RewriteRule::PushSelections => rewriter.push_selections(plan),
            RewriteRule::PruneNavigations => rewriter.prune_navigations(plan),
        };
        match rewritten {
            Err(_) => RuleOutcome::Rejected,
            Ok((expr, _)) if expr == plan => RuleOutcome::NoChange,
            Ok((expr, used)) => RuleOutcome::Applied { expr, used },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_register_every_rule_once() {
        let all: Vec<RewriteRule> = [
            RewritePhase::Seed,
            RewritePhase::Normalize,
            RewritePhase::Branch,
            RewritePhase::Push,
            RewritePhase::Prune,
        ]
        .iter()
        .flat_map(|&p| rules_for_phase(p).iter().copied())
        .collect();
        assert_eq!(all.len(), 6);
        for r in [
            RewriteRule::DefaultNavigation,
            RewriteRule::MergeRepeated,
            RewriteRule::PointerJoin,
            RewriteRule::PointerChase,
            RewriteRule::PushSelections,
            RewriteRule::PruneNavigations,
        ] {
            assert_eq!(all.iter().filter(|&&x| x == r).count(), 1, "{r:?}");
        }
    }

    #[test]
    fn trace_names_are_byte_stable() {
        // These strings are an observability contract; see module docs.
        assert_eq!(
            RewriteRule::DefaultNavigation.trace_name(),
            "rule1.default_navigation"
        );
        assert_eq!(
            RewriteRule::MergeRepeated.trace_name(),
            "rule4.merge_repeated"
        );
        assert_eq!(RewriteRule::PointerJoin.trace_name(), "rule8.pointer_join");
        assert_eq!(
            RewriteRule::PointerChase.trace_name(),
            "rule9.pointer_chase"
        );
        assert_eq!(
            RewriteRule::PushSelections.trace_name(),
            "rule6.push_selections"
        );
        assert_eq!(
            RewriteRule::PruneNavigations.trace_name(),
            "rule357.prune_navigations"
        );
    }

    #[test]
    fn mask_gates_each_rule() {
        let none = RuleMask::none();
        assert!(RewriteRule::DefaultNavigation.enabled(&none));
        for r in [
            RewriteRule::MergeRepeated,
            RewriteRule::PointerJoin,
            RewriteRule::PointerChase,
            RewriteRule::PushSelections,
            RewriteRule::PruneNavigations,
        ] {
            assert!(!r.enabled(&none), "{r:?}");
            assert!(r.enabled(&RuleMask::all()), "{r:?}");
        }
    }

    #[test]
    fn candidate_phases_run_normalize_push_prune() {
        assert_eq!(
            CANDIDATE_PHASES,
            &[
                RewritePhase::Normalize,
                RewritePhase::Push,
                RewritePhase::Prune
            ]
        );
    }
}
