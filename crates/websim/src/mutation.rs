//! Generic site-mutation helpers.
//!
//! The paper's Section 1 stresses that "the site manager inserts, deletes
//! and modifies pages without notifying remote users of the updates". The
//! structural mutations (add/remove course, …) live on the site generators,
//! which know how to keep all affected pages consistent; this module adds
//! two *inconsistency-aware* mutation tools:
//!
//! * [`perturb_text_attr`] — content-only perturbation for the
//!   materialized-view experiments: rewrites one mono-valued text attribute
//!   on a fraction of a scheme's pages, changing Last-Modified without
//!   changing the link structure (and without breaking any constraint);
//! * [`MutationPlan`] — seeded, round-based edits, link drops and
//!   deletions. Every decision is a pure function of (seed, rule, URL,
//!   round), so a mutated site is byte-identically reproducible, and a
//!   round with all-zero rates leaves the site pristine. The same plan
//!   models both kinds of site life the experiments need: ordinary
//!   maintenance rounds that the change feed carries to incremental
//!   views, and **constraint drift** — one round at `u64::MAX` that
//!   rewrites replicated attributes ([`MutationRule::edit_attr`]) and
//!   drops links from link collections ([`MutationRule::drop_links`]) so
//!   that the site's declared [`adm::LinkConstraint`]s /
//!   [`adm::InclusionConstraint`]s no longer hold, the failure mode the
//!   optimizer's constraint-auditing defense is built against.

use crate::fault::decision_fraction;
use crate::site::Site;
use crate::Result;
use adm::constraints::collect_values;
use adm::{Tuple, Url, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::fmt;

/// Rewrites attribute `attr` (a top-level text attribute) on a randomly
/// chosen `fraction` (0.0..=1.0) of the pages of `scheme_name`, appending a
/// revision marker. Returns the number of pages touched.
pub fn perturb_text_attr(
    site: &mut Site,
    scheme_name: &str,
    attr: &str,
    fraction: f64,
    revision: u64,
    rng: &mut StdRng,
) -> Result<usize> {
    let mut urls: Vec<Url> = site.pages(scheme_name).map(|(u, _)| u.clone()).collect();
    urls.shuffle(rng);
    let n = ((urls.len() as f64) * fraction).round() as usize;
    let mut touched = 0;
    for url in urls.into_iter().take(n) {
        let Some(t) = site.ground_truth(scheme_name, &url).cloned() else {
            continue;
        };
        let new_tuple = mark_attr(&t, attr, " [rev ", revision);
        site.republish(scheme_name, url, new_tuple, &format!("{scheme_name} (rev)"))?;
        touched += 1;
    }
    Ok(touched)
}

/// What one mutation rule does to the pages of its scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationKind {
    /// Rewrites the named top-level text attribute on chosen pages (a
    /// content-only edit: link structure is untouched).
    EditAttr {
        /// The mono-valued text attribute to rewrite.
        attr: String,
    },
    /// Drops individual links at `path` (rows of a link collection, or a
    /// top-level link set to null) — a link-removal edit. The decision is
    /// made on the link's target URL, so the same link is dropped from
    /// every collection that carries it.
    DropLinks {
        /// Path to the link attribute, e.g. `["CourseList", "ToCourse"]`.
        path: Vec<String>,
    },
    /// Unpublishes chosen pages (a deletion; referencing pages are *not*
    /// rewritten — the site manager "deletes pages without notifying
    /// remote users").
    Delete,
}

/// One mutation rule: a scheme, a kind, and a per-page (per-link for
/// [`MutationKind::DropLinks`]) probability.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRule {
    /// The page-scheme whose pages mutate.
    pub scheme: String,
    /// What happens to a chosen page.
    pub kind: MutationKind,
    /// Mutation probability per round.
    pub rate: f64,
}

impl MutationRule {
    /// Rewrites `attr` on `rate` of the pages of `scheme` each round.
    pub fn edit_attr(scheme: impl Into<String>, attr: impl Into<String>, rate: f64) -> Self {
        MutationRule {
            scheme: scheme.into(),
            kind: MutationKind::EditAttr { attr: attr.into() },
            rate,
        }
    }

    /// Drops `rate` of the links at `path` on pages of `scheme` each round.
    pub fn drop_links(scheme: impl Into<String>, path: &[&str], rate: f64) -> Self {
        MutationRule {
            scheme: scheme.into(),
            kind: MutationKind::DropLinks {
                path: path.iter().map(|s| s.to_string()).collect(),
            },
            rate,
        }
    }

    /// Deletes `rate` of the pages of `scheme` each round.
    pub fn delete(scheme: impl Into<String>, rate: f64) -> Self {
        MutationRule {
            scheme: scheme.into(),
            kind: MutationKind::Delete,
            rate,
        }
    }
}

/// What one applied mutation round changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MutationReport {
    /// Pages whose attribute was rewritten.
    pub edited_pages: u64,
    /// Links removed from link collections.
    pub dropped_links: u64,
    /// Pages unpublished.
    pub deleted_pages: u64,
}

impl MutationReport {
    /// Total mutation events of any kind.
    pub fn total(&self) -> u64 {
        self.edited_pages + self.dropped_links + self.deleted_pages
    }
}

/// A seeded, round-based site mutator feeding the change feed.
///
/// Its edits, link removals and deletions land in the site's
/// [`crate::SiteChange`] feed for incremental maintenance to consume.
/// Every decision is a pure function of (seed, rule, URL, round) — same
/// plan, same round, same site ⇒ byte-identical mutations — and different
/// rounds pick different pages, so a multi-round experiment exercises a
/// changing working set deterministically.
#[derive(Debug, Clone, Default)]
pub struct MutationPlan {
    /// Seed of every mutation decision.
    pub seed: u64,
    rules: Vec<MutationRule>,
}

impl MutationPlan {
    /// An empty plan with a seed.
    pub fn new(seed: u64) -> Self {
        MutationPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: MutationRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// True if rule `i` mutates the page at `url` in `round` — exposed so
    /// tests can compute the exact expected mutation set without applying
    /// the plan.
    pub fn mutates_page(&self, i: usize, url: &Url, round: u64) -> bool {
        self.rules
            .get(i)
            .is_some_and(|r| decision_fraction(self.seed, i as u64, url, round) < r.rate)
    }

    /// Applies one round of every rule to `site`. Edits republish (which
    /// bumps Last-Modified and records `Edited`), deletions unpublish
    /// (recording `Removed`); a round that chooses nothing leaves the
    /// site byte-identical — no republish, no clock tick, no feed entry.
    pub fn apply_round(&self, site: &mut Site, round: u64) -> Result<MutationReport> {
        let mut report = MutationReport::default();
        for (i, rule) in self.rules.iter().enumerate() {
            // A borrowed walk decides per URL; only a chosen page is
            // copied, with what to republish (`None`: unpublish). A rule
            // touches no page but the chosen one, so deciding first and
            // applying after, in the same URL order, is the same round.
            let mut chosen: Vec<(Url, Option<Tuple>)> = Vec::new();
            for (url, tuple) in site.pages(&rule.scheme) {
                match &rule.kind {
                    MutationKind::EditAttr { attr } => {
                        if self.mutates_page(i, url, round) {
                            report.edited_pages += 1;
                            let stamp = format_args!("{}.{i}.{round}", self.seed);
                            let edited = mark_attr(tuple, attr, " [edit ", stamp);
                            chosen.push((url.clone(), Some(edited)));
                        }
                    }
                    MutationKind::DropLinks { path } => {
                        let dropped = drop_links(tuple, path, &|u: &Url| {
                            decision_fraction(self.seed, i as u64, u, round) < rule.rate
                        });
                        if let Some((t, dropped)) = dropped {
                            report.dropped_links += dropped;
                            chosen.push((url.clone(), Some(t)));
                        }
                    }
                    MutationKind::Delete => {
                        if self.mutates_page(i, url, round) {
                            chosen.push((url.clone(), None));
                        }
                    }
                }
            }
            let title = format!("{} (edit)", rule.scheme);
            for (url, edited) in chosen {
                match edited {
                    Some(tuple) => site.republish(&rule.scheme, url, tuple, &title)?,
                    None => {
                        report.deleted_pages += u64::from(site.unpublish(&rule.scheme, &url));
                    }
                }
            }
        }
        Ok(report)
    }
}

/// Removes links chosen by `decide` at `path`: rows of a link collection
/// are dropped whole; a top-level link is set to null. Returns the new
/// tuple and the number of links removed, or `None` — without copying
/// anything — when `decide` chooses no link of this tuple.
fn drop_links(t: &Tuple, path: &[String], decide: &dyn Fn(&Url) -> bool) -> Option<(Tuple, u64)> {
    collect_values(t, path)
        .into_iter()
        .any(|v| matches!(v, Value::Link(u) if decide(u)))
        .then(|| rebuild_without(t, path, decide))
}

fn rebuild_without(t: &Tuple, path: &[String], decide: &dyn Fn(&Url) -> bool) -> (Tuple, u64) {
    let Some((first, rest)) = path.split_first() else {
        return (t.clone(), 0);
    };
    let mut dropped = 0u64;
    let mut pairs = Vec::new();
    for (n, v) in t.clone().into_pairs() {
        if n != *first {
            pairs.push((n, v));
            continue;
        }
        if rest.is_empty() {
            if let Value::Link(u) = &v {
                if decide(u) {
                    dropped += 1;
                    pairs.push((n, Value::Null));
                    continue;
                }
            }
            pairs.push((n, v));
        } else if let Value::List(rows) = v {
            let mut kept = Vec::new();
            for row in rows {
                if rest.len() == 1 {
                    if let Some(Value::Link(u)) = row.get(&rest[0]) {
                        if decide(u) {
                            dropped += 1;
                            continue;
                        }
                    }
                    kept.push(row);
                } else {
                    let (nr, d) = rebuild_without(&row, rest, decide);
                    dropped += d;
                    kept.push(nr);
                }
            }
            pairs.push((n, Value::List(kept)));
        } else {
            pairs.push((n, v));
        }
    }
    (Tuple::from_pairs(pairs), dropped)
}

/// Rewrites the text attribute `attr` to its text followed by
/// `{open}{stamp}]` — `open` is ` [rev ` or ` [edit `, one per
/// kind of rewrite — replacing any marker an earlier rewrite of the same
/// kind left, so markers of one kind never stack. A non-text value becomes
/// the bare marker.
fn mark_attr(t: &Tuple, attr: &str, open: &str, stamp: impl fmt::Display) -> Tuple {
    let pairs = t
        .clone()
        .into_pairs()
        .into_iter()
        .map(|(n, v)| {
            if n == attr {
                let base = match &v {
                    Value::Text(s) => s.split(open).next().unwrap_or_default(),
                    _ => "",
                };
                (n, Value::Text(format!("{base}{open}{stamp}]")))
            } else {
                (n, v)
            }
        })
        .collect();
    Tuple::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sitegen::university::{University, UniversityConfig};
    use rand::SeedableRng;

    fn uni() -> University {
        University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 10,
            seed: 5,
            ..UniversityConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn perturb_touches_requested_fraction() {
        let mut u = uni();
        let mut rng = StdRng::seed_from_u64(9);
        let touched =
            perturb_text_attr(&mut u.site, "CoursePage", "Description", 0.5, 1, &mut rng).unwrap();
        assert_eq!(touched, 5);
        // touched pages carry the revision marker in ground truth
        let marked = u
            .site
            .instance("CoursePage")
            .iter()
            .filter(|(_, t)| {
                t.get("Description")
                    .and_then(|v| v.as_text())
                    .is_some_and(|s| s.contains("[rev 1]"))
            })
            .count();
        assert_eq!(marked, 5);
    }

    #[test]
    fn perturb_preserves_constraints() {
        let mut u = uni();
        let mut rng = StdRng::seed_from_u64(9);
        perturb_text_attr(&mut u.site, "CoursePage", "Description", 1.0, 1, &mut rng).unwrap();
        assert!(u.site.verify_constraints().is_empty());
    }

    #[test]
    fn repeated_perturbation_does_not_stack_markers() {
        let mut u = uni();
        let mut rng = StdRng::seed_from_u64(9);
        perturb_text_attr(&mut u.site, "CoursePage", "Description", 1.0, 1, &mut rng).unwrap();
        perturb_text_attr(&mut u.site, "CoursePage", "Description", 1.0, 2, &mut rng).unwrap();
        for (_, t) in u.site.instance("CoursePage") {
            let d = t.get("Description").unwrap().as_text().unwrap().to_string();
            assert_eq!(d.matches("[rev").count(), 1, "{d}");
            assert!(d.contains("[rev 2]"));
        }
    }

    /// Constraint drift is one mutation round at `u64::MAX`.
    #[test]
    fn drift_perturb_breaks_link_constraints_deterministically() {
        let plan =
            MutationPlan::new(17).with_rule(MutationRule::edit_attr("CoursePage", "CName", 0.5));
        let mut a = uni();
        let ra = plan.apply_round(&mut a.site, u64::MAX).unwrap();
        assert!(
            ra.edited_pages > 0,
            "rate 0.5 over 10 pages must drift some"
        );
        assert!(
            !a.site.verify_constraints().is_empty(),
            "perturbing a replicated attribute must violate a link constraint"
        );
        // Same plan on an identically generated site: identical drift.
        let mut b = uni();
        let rb = plan.apply_round(&mut b.site, u64::MAX).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.site.instance("CoursePage"), b.site.instance("CoursePage"));
        // Publishing is not a request.
        assert_eq!(a.site.server.stats().gets, 0);
    }

    #[test]
    fn drift_drop_links_breaks_inclusion_deterministically() {
        let plan = MutationPlan::new(23).with_rule(MutationRule::drop_links(
            "SessionPage",
            &["CourseList", "ToCourse"],
            0.4,
        ));
        let mut a = uni();
        let ra = plan.apply_round(&mut a.site, u64::MAX).unwrap();
        assert!(ra.dropped_links > 0);
        assert!(
            !a.site.verify_constraints().is_empty(),
            "dropping sup-side links must violate an inclusion constraint"
        );
        let mut b = uni();
        assert_eq!(plan.apply_round(&mut b.site, u64::MAX).unwrap(), ra);
        assert_eq!(
            a.site.instance("SessionPage"),
            b.site.instance("SessionPage")
        );
    }

    #[test]
    fn mutation_rounds_are_deterministic_and_feed_the_change_log() {
        let plan = MutationPlan::new(41)
            .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.4))
            .with_rule(MutationRule::delete("CoursePage", 0.1));
        let mut a = uni();
        let cursor = a.site.change_cursor();
        let ra = plan.apply_round(&mut a.site, 0).unwrap();
        assert!(ra.total() > 0, "rates must choose something over 10 pages");
        let since = || crate::FeedCursor::new(cursor);
        let feed: Vec<_> = a.site.changes_for(&since()).unwrap().to_vec();
        assert_eq!(
            feed.len() as u64,
            ra.edited_pages + ra.deleted_pages,
            "every edit/delete lands in the feed"
        );
        // Identical plan on an identically generated site: identical feed.
        let mut b = uni();
        let rb = plan.apply_round(&mut b.site, 0).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(b.site.changes_for(&since()).unwrap(), &feed[..]);
        // A later round picks a different (still deterministic) page set.
        let r1 = plan.apply_round(&mut a.site, 1).unwrap();
        let r1b = plan.apply_round(&mut b.site, 1).unwrap();
        assert_eq!(r1, r1b);
    }

    #[test]
    fn zero_rate_mutation_round_is_pristine() {
        let plan = MutationPlan::new(7)
            .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.0))
            .with_rule(MutationRule::drop_links(
                "SessionPage",
                &["CourseList", "ToCourse"],
                0.0,
            ))
            .with_rule(MutationRule::delete("CoursePage", 0.0));
        let mut u = uni();
        let clock = u.site.server.now();
        let cursor = u.site.change_cursor();
        let report = plan.apply_round(&mut u.site, 0).unwrap();
        assert_eq!(report, MutationReport::default());
        assert_eq!(u.site.server.now(), clock, "no republish, no tick");
        let feed = u.site.changes_for(&crate::FeedCursor::new(cursor));
        assert!(feed.unwrap().is_empty());
    }

    #[test]
    fn repeated_edits_do_not_stack_markers() {
        let plan = MutationPlan::new(3).with_rule(MutationRule::edit_attr(
            "CoursePage",
            "Description",
            1.0,
        ));
        let mut u = uni();
        plan.apply_round(&mut u.site, 0).unwrap();
        plan.apply_round(&mut u.site, 1).unwrap();
        for (_, t) in u.site.instance("CoursePage") {
            let d = t.get("Description").unwrap().as_text().unwrap().to_string();
            assert_eq!(d.matches("[edit").count(), 1, "{d}");
            assert!(d.contains(".1]"), "round 1 marker wins: {d}");
        }
    }

    #[test]
    fn zero_fraction_is_noop() {
        let mut u = uni();
        let mut rng = StdRng::seed_from_u64(9);
        let before = u.site.server.head(&University::course_url(0)).unwrap();
        let touched =
            perturb_text_attr(&mut u.site, "CoursePage", "Description", 0.0, 1, &mut rng).unwrap();
        assert_eq!(touched, 0);
        assert_eq!(
            u.site.server.head(&University::course_url(0)).unwrap(),
            before
        );
    }
}
