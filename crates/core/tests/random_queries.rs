//! Randomized soundness: for arbitrary conjunctive queries over the
//! university view, the fully optimized plan computes the same answer as
//! the naive (rule-1-only) plan. The naive plan is correct by
//! construction — it just evaluates the default navigations — so this
//! pins the whole rewrite stack. The same queries' plans also pin the
//! optimizer's plan arena to the tree it stands for, and the premise of the
//! shape-keyed plan cache: Algorithm 1 never looks at a selection constant.

#[path = "../../../tests/support/arb_query.rs"]
mod arb_query;

use arb_query::{arb_query, DrawnQuery, QuerySpace};
use proptest::prelude::*;
use std::sync::OnceLock;
use websim::sitegen::{University, UniversityConfig};
use wvcore::views::university_catalog;
use wvcore::{
    ConjunctiveQuery, ExecPolicy, LiveSource, Optimizer, PlanArena, QuerySession, RuleMask,
    SiteStatistics, ViewCatalog,
};

struct Fixture {
    u: University,
    stats: SiteStatistics,
    catalog: ViewCatalog,
    space: QuerySpace,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 10,
            courses: 18,
            seed: 123,
            ..UniversityConfig::default()
        })
        .unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = university_catalog();
        let space = QuerySpace::new(&catalog, &u.site);
        Fixture {
            u,
            stats,
            catalog,
            space,
        }
    })
}

/// The query `picks` draws over the fixture.
fn build(picks: &arb_query::QueryPicks) -> ConjunctiveQuery {
    let space = &fixture().space;
    space.build(&space.draw(picks, 0))
}

fn answer_of(
    session: &QuerySession<'_, LiveSource<'_>>,
    q: &ConjunctiveQuery,
) -> std::collections::BTreeSet<Vec<String>> {
    let outcome = session.run(q).expect("query runs");
    outcome
        .report
        .relation
        .rows()
        .iter()
        .map(|row| row.iter().map(|v| v.to_string()).collect())
        .collect()
}

/// `rq` with its selection constants replaced: selection `j` takes
/// `picks[j]` from its attribute's constants widened by constants that
/// occur under *other* attributes and one no page carries, so vectors
/// repeat a value across attributes and leave the site.
fn with_constants(rq: &DrawnQuery, picks: &[prop::sample::Index]) -> DrawnQuery {
    let mut out = rq.clone();
    for ((_, attr, value), pick) in out.selections.iter_mut().zip(picks) {
        let pool = fixture().space.widened(attr);
        *value = pool[pick.index(pool.len())].clone();
    }
    out
}

/// `e` and every subtree of it.
fn subtrees(e: &nalg::NalgExpr, out: &mut Vec<nalg::NalgExpr>) {
    out.push(e.clone());
    for c in e.children() {
        subtrees(c, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn optimized_equals_naive(picks in arb_query()) {
        let fx = fixture();
        let q = build(&picks);
        q.validate(&fx.catalog).expect("generated query is valid");
        let source = LiveSource::for_site(&fx.u.site);
        let optimized = QuerySession::new(&fx.u.site.scheme, &fx.catalog, &fx.stats, &source);
        let naive = QuerySession::new(&fx.u.site.scheme, &fx.catalog, &fx.stats, &source)
            .with_policy(&ExecPolicy {
                mask: RuleMask::none(),
                ..Default::default()
            });
        let a = answer_of(&optimized, &q);
        let b = answer_of(&naive, &q);
        prop_assert_eq!(a, b, "query: {}", q);
    }

    #[test]
    fn optimized_never_costs_more_than_naive(picks in arb_query()) {
        let fx = fixture();
        let q = build(&picks);
        let source = LiveSource::for_site(&fx.u.site);
        let optimized = QuerySession::new(&fx.u.site.scheme, &fx.catalog, &fx.stats, &source);
        let naive = QuerySession::new(&fx.u.site.scheme, &fx.catalog, &fx.stats, &source)
            .with_policy(&ExecPolicy {
                mask: RuleMask::none(),
                ..Default::default()
            });
        let oe = optimized.explain(&q).expect("optimizes");
        let ne = naive.explain(&q).expect("optimizes");
        prop_assert!(
            oe.best().estimate.cost.pages <= ne.best().estimate.cost.pages + 1e-6,
            "optimized {} vs naive {} for {}",
            oe.best().estimate.cost,
            ne.best().estimate.cost,
            q
        );
    }

    // The plan cache's premise: the candidate set, its order, every
    // estimate and every dependency set are functions of the query's
    // shape. Two instances whose constants are equal in the same places
    // have one shape key, and the plan set of one, bound to the other, is
    // the plan set the optimizer makes for the other; two instances whose
    // constants are equal in different places have different keys.
    #[test]
    fn plans_depend_on_the_shape_not_on_the_constants(
        drawn in arb_query(),
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 4),
    ) {
        let fx = fixture();
        let rq = fx.space.draw(&drawn, 0);
        let (a, b) = (with_constants(&rq, &picks[..2]), with_constants(&rq, &picks[2..]));
        let (qa, qb) = (fx.space.build(&a), fx.space.build(&b));
        let ((key_a, params_a), (key_b, params_b)) = (qa.shape(), qb.shape());
        // arb_query draws at most two selections, so "equal in the same
        // places" is one comparison.
        let same_partition = match (&a.selections[..], &b.selections[..]) {
            ([x0, x1], [y0, y1]) => (x0.2 == x1.2) == (y0.2 == y1.2),
            _ => true,
        };
        prop_assert_eq!(key_a == key_b, same_partition, "{} vs {}", qa, qb);
        if same_partition {
            // `b` with its selections listed the way `a` lists them (two
            // selections on one attribute sort by value in the key, so the
            // class-by-class renaming may swap them): the same query.
            let mut b_listed = a.clone();
            for (_, _, value) in &mut b_listed.selections {
                let class = params_a.iter().position(|p| p.as_text() == Some(value));
                *value = params_b[class.expect("a constant of a")].to_string();
            }
            let qb_listed = fx.space.build(&b_listed);
            prop_assert_eq!(qb_listed.cache_key(), qb.cache_key());
            let opt = Optimizer::new(&fx.u.site.scheme, &fx.catalog, &fx.stats);
            let planned_a = opt.optimize(&qa).expect("optimizes");
            let planned_b = opt.optimize(&qb_listed).expect("optimizes");
            let bound = planned_a.bind(&qb_listed, &params_a, &params_b);
            prop_assert_eq!(&bound.query, &planned_b.query);
            prop_assert_eq!(bound.candidates.len(), planned_b.candidates.len(), "{} vs {}", qa, qb);
            for (x, y) in bound.candidates.iter().zip(&planned_b.candidates) {
                prop_assert_eq!(&x.expr, &y.expr, "{} vs {}", qa, qb);
                prop_assert_eq!(format!("{:?}", x.estimate), format!("{:?}", y.estimate));
                prop_assert_eq!(&x.dependencies, &y.dependencies);
            }
        }
    }

    // Arena ≡ tree: every candidate plan of a random query (optimized and
    // naive), every subtree of one, and a few deliberately broken plans
    // survive the round trip through one shared arena, get one id per
    // structure, and have the header and the estimate the tree has.
    #[test]
    fn arena_agrees_with_the_tree(picks in arb_query()) {
        let fx = fixture();
        let q = build(&picks);
        let ws = &fx.u.site.scheme;
        let mut plans = Vec::new();
        for mask in [RuleMask::all(), RuleMask::none()] {
            let explain = Optimizer::new(ws, &fx.catalog, &fx.stats)
                .with_policy(&ExecPolicy {
                    mask,
                    ..Default::default()
                })
                .optimize(&q)
                .expect("optimizes");
            for c in &explain.candidates {
                // what the optimizer reported is what the plan costs alone
                let alone = wvcore::cost::estimate(&c.expr, ws, &fx.stats).expect("costs");
                prop_assert_eq!(format!("{:?}", c.estimate), format!("{alone:?}"));
                subtrees(&c.expr, &mut plans);
            }
        }
        let best = plans[0].clone();
        plans.push(best.clone().project(vec!["NoSuch.Column"]));
        plans.push(best.clone().select(nalg::Pred::eq("URL", "/")));
        plans.push(best.clone().join(best.clone(), vec![("URL", "URL")]));
        plans.push(best.clone().follow("PName", "ProfPage"));
        plans.push(nalg::NalgExpr::external("Professor").join(best, vec![("a", "b")]));
        let mut arena = PlanArena::new(ws, &fx.stats);
        for e in &plans {
            let id = arena.import(e);
            prop_assert_eq!(&arena.export(id), e);
            prop_assert_eq!(arena.import(&e.clone()), id);
            prop_assert_eq!(arena.output_columns(id), e.output_columns(ws).ok(), "{:?}", e);
            // memoised across every plan of this arena vs. costed alone
            let shared = arena.estimate(id);
            let alone = wvcore::cost::estimate(e, ws, &fx.stats);
            prop_assert_eq!(format!("{shared:?}"), format!("{alone:?}"), "{:?}", e);
        }
    }
}
