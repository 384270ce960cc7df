//! Default-navigation inference.
//!
//! The paper (end of Section 5): "We may think that the human designer
//! examines the ADM scheme and defines all default navigations
//! corresponding to external relations. As an alternative, **by inference
//! over inclusion constraints, the system might be able to select default
//! navigations among all possible navigations in the scheme.**"
//!
//! This module implements that alternative. A navigation path *covers* its
//! final page-scheme (reaches every instance) when, inductively:
//!
//! * an entry point covers its singleton page-scheme;
//! * a follow step covers its target if the prefix covers its source and
//!   the followed link is **⊇-maximal** among all links to the target —
//!   i.e. every other link attribute pointing at the target is contained
//!   in it under the declared (or discovered) inclusion constraints.
//!
//! Combined with [`crate::discover`], this closes the loop the paper
//! sketches: crawl a site, mine its constraints, extend the scheme, infer
//! complete navigations, and offer a relational view with *no hand-written
//! catalog at all* (see [`auto_catalog`]).

use crate::views::{DefaultNavigation, ExternalRelation, ViewCatalog};
use crate::{OptError, Result};
use adm::paths::{enumerate_paths, NavPath, PathStep};
use adm::{AttrRef, WebScheme};
use nalg::NalgExpr;

/// A navigation inferred for a target page-scheme.
#[derive(Debug, Clone)]
pub struct InferredNavigation {
    /// The path through the scheme.
    pub path: NavPath,
    /// The corresponding NALG expression.
    pub expr: NalgExpr,
    /// Whether inclusion-constraint reasoning proves the path reaches the
    /// whole extent of the target scheme.
    pub complete: bool,
}

/// Is `link` a ⊇-maximal link to `target` (every other link to the target
/// is included in it)?
fn is_maximal_link(ws: &WebScheme, link: &AttrRef, target: &str) -> bool {
    ws.links_to(target)
        .iter()
        .all(|other| ws.inclusion_implied(other, link))
}

/// Does this path provably cover its final page-scheme?
fn path_covers(ws: &WebScheme, path: &NavPath) -> bool {
    // walk the path, tracking the current scheme and the current
    // unnest-prefix inside it (links live at nested levels)
    let mut current_scheme = path.entry.clone();
    let mut prefix: Vec<String> = Vec::new();
    if ws.entry_point(&current_scheme).is_none() {
        return false;
    }
    for step in &path.steps {
        match step {
            PathStep::Unnest(a) => prefix.push(a.clone()),
            PathStep::Follow { link, target } => {
                let mut link_path = prefix.clone();
                link_path.push(link.clone());
                let link_ref = AttrRef {
                    scheme: current_scheme.clone(),
                    path: link_path,
                };
                if !is_maximal_link(ws, &link_ref, target) {
                    return false;
                }
                current_scheme = target.clone();
                prefix.clear();
            }
        }
    }
    true
}

/// Infers navigations from entry points to `target`, marking each as
/// complete or not. Paths are shortest-first; `max_hops` bounds the
/// search.
pub fn infer_navigations(ws: &WebScheme, target: &str, max_hops: usize) -> Vec<InferredNavigation> {
    enumerate_paths(ws, target, max_hops)
        .into_iter()
        .map(|path| InferredNavigation {
            expr: NalgExpr::from_path(&path),
            complete: path_covers(ws, &path),
            path,
        })
        .collect()
}

/// Builds an external relation for a page-scheme automatically: one
/// attribute per top-level mono-valued non-link attribute, bound to the
/// target page's columns, with every *complete* inferred navigation as a
/// default navigation. Errors if no complete navigation exists.
pub fn auto_relation(ws: &WebScheme, target: &str, max_hops: usize) -> Result<ExternalRelation> {
    let scheme = ws.scheme(target)?;
    let attrs: Vec<String> = scheme
        .fields
        .iter()
        .filter(|f| f.ty.is_mono_valued() && !f.ty.is_link())
        .map(|f| f.name.clone())
        .collect();
    let navigations: Vec<DefaultNavigation> = infer_navigations(ws, target, max_hops)
        .into_iter()
        .filter(|n| n.complete)
        .map(|n| {
            DefaultNavigation::new(
                n.expr,
                attrs
                    .iter()
                    .map(|a| (a.clone(), format!("{target}.{a}")))
                    .collect(),
            )
        })
        .collect();
    if navigations.is_empty() {
        return Err(OptError::NoPlan(format!(
            "no provably complete navigation to {target} (missing inclusion constraints?)"
        )));
    }
    Ok(ExternalRelation::new(target, attrs, navigations))
}

/// Builds a whole view catalog automatically: one external relation per
/// page-scheme that has at least one provably complete navigation and at
/// least one non-link attribute.
pub fn auto_catalog(ws: &WebScheme, max_hops: usize) -> ViewCatalog {
    let mut catalog = ViewCatalog::new();
    for scheme in ws.schemes() {
        if let Ok(rel) = auto_relation(ws, &scheme.name, max_hops) {
            if !rel.attrs.is_empty() {
                catalog = catalog.with(rel);
            }
        }
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::crawl_instance;
    use crate::discover::discover_constraints;
    use crate::source::LiveSource;
    use crate::{ConjunctiveQuery, QuerySession, SiteStatistics};
    use websim::sitegen::university::university_scheme;
    use websim::sitegen::{University, UniversityConfig};

    #[test]
    fn professor_navigation_is_inferred_complete() {
        let ws = university_scheme().unwrap();
        let navs = infer_navigations(&ws, "ProfPage", 3);
        // the ProfListPage path is complete; dept/course paths are not
        let complete: Vec<&InferredNavigation> = navs.iter().filter(|n| n.complete).collect();
        assert!(!complete.is_empty());
        for n in &complete {
            assert!(
                n.path.to_string().contains("ProfListPage"),
                "unexpected complete path {}",
                n.path
            );
        }
        let incomplete = navs
            .iter()
            .find(|n| n.path.to_string().contains("DeptListPage"));
        assert!(incomplete.is_some_and(|n| !n.complete));
    }

    #[test]
    fn course_navigation_requires_session_path() {
        let ws = university_scheme().unwrap();
        let navs = infer_navigations(&ws, "CoursePage", 3);
        let complete: Vec<String> = navs
            .iter()
            .filter(|n| n.complete)
            .map(|n| n.path.to_string())
            .collect();
        assert!(!complete.is_empty());
        for p in &complete {
            assert!(p.contains("SessionListPage"), "{p}");
        }
    }

    #[test]
    fn dept_page_incomplete_until_inclusion_discovered() {
        let ws = university_scheme().unwrap();
        // the declared scheme has no inclusion among links to DeptPage, so
        // nothing is provably complete…
        assert!(auto_relation(&ws, "DeptPage", 3).is_err());
        // …but discovery closes the gap
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 9,
            courses: 15,
            seed: 5,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        let inst = crawl_instance(&u.site.scheme, &src);
        let mined = discover_constraints(&u.site.scheme, &inst);
        let enriched = u
            .site
            .scheme
            .extended_with(vec![], mined.inclusion_constraints)
            .unwrap();
        let rel = auto_relation(&enriched, "DeptPage", 3).unwrap();
        assert!(rel.attrs.contains(&"DName".to_string()));
    }

    #[test]
    fn auto_catalog_answers_match_hand_catalog() {
        let u = University::generate(UniversityConfig::default()).unwrap();
        let stats = SiteStatistics::from_site(&u.site);
        let source = LiveSource::for_site(&u.site);
        // fully automatic pipeline: crawl → discover → extend → infer
        let inst = crawl_instance(&u.site.scheme, &source);
        let mined = discover_constraints(&u.site.scheme, &inst);
        let enriched = u
            .site
            .scheme
            .extended_with(mined.link_constraints, mined.inclusion_constraints)
            .unwrap();
        let auto = auto_catalog(&enriched, 4);
        auto.validate(&enriched).unwrap();
        assert!(auto.relation("ProfPage").is_ok());

        let q = ConjunctiveQuery::new("full profs")
            .atom("ProfPage")
            .select((0, "Rank"), "Full")
            .project((0, "PName"));
        let session = QuerySession::new(&enriched, &auto, &stats, &source);
        let outcome = session.run(&q).unwrap();
        let expected: std::collections::HashSet<String> = u
            .expected_professor()
            .into_iter()
            .filter(|(_, r, _)| r == "Full")
            .map(|(n, _, _)| n)
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
    fn inferred_complete_navigations_really_are_complete() {
        // runtime check: evaluating a complete navigation yields exactly
        // the page-scheme cardinality
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 7,
            courses: 12,
            seed: 31,
            ..UniversityConfig::default()
        })
        .unwrap();
        let source = LiveSource::for_site(&u.site);
        for target in ["ProfPage", "CoursePage", "SessionPage"] {
            for nav in infer_navigations(&u.site.scheme, target, 3) {
                if !nav.complete {
                    continue;
                }
                let report = nalg::Evaluator::new(&u.site.scheme, &source)
                    .eval(&nav.expr.clone().project(vec![format!("{target}.URL")]))
                    .unwrap();
                assert_eq!(
                    report.relation.len(),
                    u.site.cardinality(target),
                    "{}",
                    nav.path
                );
            }
        }
    }
}
