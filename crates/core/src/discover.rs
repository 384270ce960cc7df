//! Constraint discovery by site exploration.
//!
//! The paper (Section 3.3, footnote 7): "To derive inclusion constraints
//! for a site, one may think of using a tool like WebSQL in order to
//! verify different paths leading to the same page-scheme and check
//! inclusions between sets of links." The same reverse-engineering idea
//! applies to link constraints (anchor replication). This module mines
//! both from a crawled instance:
//!
//! * **link constraints** — every `(source attribute, target attribute)`
//!   pair co-located with a link that satisfies the iff-condition on the
//!   whole instance (checked with the same verifier the generators'
//!   self-tests use), restricted to non-vacuous evidence;
//! * **inclusion constraints** — every ordered pair of link attributes
//!   with the same target whose URL sets are in non-trivial containment.
//!
//! Mined constraints are *candidates*: they hold on the current instance
//! and a human designer (or a refresh policy) decides whether they are
//! intended invariants. On the generated sites, everything the schemes
//! declare is rediscovered.

use crate::crawl::SiteInstance;
use adm::{AttrRef, Constraint, Field, InclusionConstraint, LinkConstraint, WebScheme, WebType};

/// Constraints mined from an instance.
#[derive(Debug, Clone, Default)]
pub struct Discovered {
    /// Link constraints that hold (with at least one witnessing pair).
    pub link_constraints: Vec<LinkConstraint>,
    /// Inclusion constraints that hold (with a non-empty subset side).
    pub inclusion_constraints: Vec<InclusionConstraint>,
}

/// All mono-valued attribute paths of a scheme (recursively).
fn mono_paths(fields: &[Field]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    fn walk(fields: &[Field], prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        for f in fields {
            prefix.push(f.name.clone());
            match &f.ty {
                WebType::List(inner) => walk(inner, prefix, out),
                _ => out.push(prefix.clone()),
            }
            prefix.pop();
        }
    }
    walk(fields, &mut Vec::new(), &mut out);
    out
}

/// Mines link and inclusion constraints from a crawled instance.
pub fn discover_constraints(ws: &WebScheme, instance: &SiteInstance) -> Discovered {
    let mut found = Discovered::default();
    let empty: Vec<(adm::Url, adm::Tuple)> = Vec::new();
    let pages = |scheme: &str| instance.get(scheme).unwrap_or(&empty);

    // ── link constraints ────────────────────────────────────────────────
    for scheme in ws.schemes() {
        let source_pages = pages(&scheme.name);
        if source_pages.is_empty() {
            continue;
        }
        for (link_path, target) in scheme.link_paths() {
            let link_ref = AttrRef {
                scheme: scheme.name.clone(),
                path: link_path.clone(),
            };
            let Ok(link_lists) = scheme.list_ancestors(&link_path) else {
                continue;
            };
            let target_pages = pages(&target);
            let Ok(target_scheme) = ws.scheme(&target) else {
                continue;
            };
            for attr_path in mono_paths(&scheme.fields) {
                if attr_path == link_path {
                    continue;
                }
                // the source attribute must be visible at the link's level
                let Ok(attr_lists) = scheme.list_ancestors(&attr_path) else {
                    continue;
                };
                if !link_lists.starts_with(&attr_lists) {
                    continue;
                }
                // evidence: at least one (attr, link) pair with a real URL
                let has_witness = source_pages.iter().any(|(_, t)| {
                    adm::constraints::collect_pairs(t, &attr_path, &link_path)
                        .iter()
                        .any(|(a, l)| !a.is_null() && l.as_link().is_some())
                });
                if !has_witness {
                    continue;
                }
                for tf in &target_scheme.fields {
                    if !tf.ty.is_mono_valued() || tf.ty.is_link() {
                        continue;
                    }
                    let candidate = LinkConstraint::new(
                        link_ref.clone(),
                        AttrRef {
                            scheme: scheme.name.clone(),
                            path: attr_path.clone(),
                        },
                        AttrRef {
                            scheme: target.clone(),
                            path: vec![tf.name.clone()],
                        },
                    );
                    let check = Constraint::Link(candidate.clone());
                    if check.verify(source_pages, target_pages).is_empty() {
                        found.link_constraints.push(candidate);
                    }
                }
            }
        }
    }

    // ── inclusion constraints ───────────────────────────────────────────
    // group link attributes by target scheme
    let mut by_target: std::collections::BTreeMap<String, Vec<AttrRef>> = Default::default();
    for scheme in ws.schemes() {
        for (path, target) in scheme.link_paths() {
            by_target.entry(target).or_default().push(AttrRef {
                scheme: scheme.name.clone(),
                path,
            });
        }
    }
    for links in by_target.values() {
        for sub in links {
            for sup in links {
                if sub == sup {
                    continue;
                }
                let candidate = InclusionConstraint::new(sub.clone(), sup.clone());
                let sub_pages = pages(&sub.scheme);
                let sup_pages = pages(&sup.scheme);
                // require a non-empty subset side — vacuous containments
                // are noise
                let has_sub_links = sub_pages.iter().any(|(_, t)| {
                    adm::constraints::collect_values(t, &sub.path)
                        .iter()
                        .any(|v| v.as_link().is_some())
                });
                if !has_sub_links {
                    continue;
                }
                let check = Constraint::Inclusion(candidate.clone());
                if check.verify(sub_pages, sup_pages).is_empty() {
                    found.inclusion_constraints.push(candidate);
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::crawl_instance;
    use crate::source::LiveSource;
    use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};

    fn discovered_university() -> (WebScheme, Discovered) {
        let u = University::generate(UniversityConfig {
            departments: 3,
            professors: 10,
            courses: 20,
            seed: 17,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        let inst = crawl_instance(&u.site.scheme, &src);
        let found = discover_constraints(&u.site.scheme, &inst);
        (u.site.scheme.clone(), found)
    }

    #[test]
    fn rediscovers_every_declared_link_constraint() {
        let (ws, found) = discovered_university();
        for declared in ws.link_constraints() {
            assert!(
                found.link_constraints.contains(declared),
                "not rediscovered: {declared}"
            );
        }
    }

    #[test]
    fn rediscovers_every_declared_inclusion() {
        let (ws, found) = discovered_university();
        for declared in ws.inclusion_constraints() {
            assert!(
                found.inclusion_constraints.contains(declared),
                "not rediscovered: {declared}"
            );
        }
    }

    #[test]
    fn discovers_true_but_undeclared_facts() {
        let (_, found) = discovered_university();
        // every professor's department appears in the department list, so
        // the converse inclusion holds on the instance even though the
        // scheme never declared it
        let extra =
            InclusionConstraint::parse("ProfPage.ToDept", "DeptListPage.DeptList.ToDept").unwrap();
        assert!(found.inclusion_constraints.contains(&extra));
    }

    #[test]
    fn discovered_constraints_all_verify() {
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 10,
            seed: 3,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        let inst = crawl_instance(&u.site.scheme, &src);
        let found = discover_constraints(&u.site.scheme, &inst);
        assert!(!found.link_constraints.is_empty());
        assert!(!found.inclusion_constraints.is_empty());
        for c in &found.link_constraints {
            let c = Constraint::Link(c.clone());
            let pages = |scheme| inst.get(scheme).into_iter().flatten();
            assert!(c
                .verify(pages(c.sampled_scheme()), pages(c.reference_scheme()))
                .is_empty());
        }
    }

    #[test]
    fn bibliography_editors_replication_is_discovered() {
        let b = Bibliography::generate(BibConfig {
            authors: 30,
            conferences: 4,
            db_conferences: 2,
            featured: 1,
            editions_per_conf: 3,
            papers_per_edition: 5,
            seed: 8,
            ..BibConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&b.site);
        let inst = crawl_instance(&b.site.scheme, &src);
        let found = discover_constraints(&b.site.scheme, &inst);
        let editors = LinkConstraint::parse(
            "ConfPage.EditionList.ToEdition",
            "ConfPage.EditionList.Editors",
            "EditionPage.Editors",
        )
        .unwrap();
        assert!(found.link_constraints.contains(&editors));
    }

    #[test]
    fn does_not_invent_false_link_constraints() {
        let (ws, found) = discovered_university();
        // Rank is not replicated anywhere; no constraint may claim it is.
        for c in &found.link_constraints {
            assert_ne!(
                c.target_attr.qualified(),
                "ProfPage.Rank",
                "bogus constraint {c}"
            );
        }
        let _ = ws;
    }
}
