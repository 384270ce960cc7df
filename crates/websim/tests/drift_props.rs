//! Property tests: site drift is a pure function of its seed.
//!
//! The constraint-auditing experiments drift a site with one
//! [`websim::MutationPlan`] round at `u64::MAX` and lean on two promises
//! made by [`websim::mutation`]: the same seed produces a byte-identical
//! drifted site (so harness runs are reproducible), and an all-zero-rate
//! plan is a complete no-op (so "audit on, drift off" can be compared
//! byte-for-byte against a pristine run). These properties hold for *every* seed and
//! rate, which is what the proptests below pin down.
//!
//! On a drifted site the audit's check and the whole-instance check of
//! [`adm::Constraint`] must agree: an audit sees a sample, so it may miss
//! a violation, but it never reports one the whole instance does not have.

use adm::constraints::collect_pairs;
use adm::{Constraint, Url};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use websim::mutation::{perturb_text_attr, MutationPlan, MutationReport, MutationRule};
use websim::site::Site;
use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};

fn uni() -> University {
    University::generate(UniversityConfig {
        departments: 2,
        professors: 5,
        courses: 8,
        seed: 11,
        ..UniversityConfig::default()
    })
    .unwrap()
}

/// A small University (`bib` false) or Bibliography site.
fn drawn_site(seed: u64, bib: bool) -> Site {
    if bib {
        let config = BibConfig {
            authors: 30,
            conferences: 4,
            db_conferences: 2,
            featured: 1,
            editions_per_conf: 2,
            papers_per_edition: 3,
            seed,
            ..BibConfig::default()
        };
        return Bibliography::generate(config).unwrap().site;
    }
    let config = UniversityConfig {
        departments: 2,
        professors: 6,
        courses: 10,
        seed,
        ..UniversityConfig::default()
    };
    University::generate(config).unwrap().site
}

/// Drift aimed at the declared constraints: every link constraint's
/// target attribute is edited, and links are dropped from every
/// inclusion's containing link set.
fn declared_drift(site: &Site, seed: u64, edit_rate: f64, drop_rate: f64) -> MutationPlan {
    let mut plan = MutationPlan::new(seed);
    for c in site.scheme.link_constraints() {
        let attr = c.target_attr.leaf().unwrap();
        plan = plan.with_rule(MutationRule::edit_attr(
            &c.target_attr.scheme,
            attr,
            edit_rate,
        ));
    }
    for c in site.scheme.inclusion_constraints() {
        let path: Vec<&str> = c.sup.path.iter().map(String::as_str).collect();
        plan = plan.with_rule(MutationRule::drop_links(&c.sup.scheme, &path, drop_rate));
    }
    plan
}

/// A seeded per-URL coin: whether `url` is among `pct` percent of pages.
fn kept(url: &Url, salt: u64, pct: u64) -> bool {
    adm::mix64(adm::fnv1a(url.as_str().bytes()) ^ salt) % 100 < pct
}

/// Every page of the site, as (url, body, last-modified), in a canonical
/// order — two sites with equal snapshots serve byte-identical content.
fn snapshot(site: &Site) -> Vec<(String, String, u64)> {
    let mut names: Vec<String> = site.scheme.schemes().map(|s| s.name.clone()).collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let mut urls = site.server.urls_of_scheme(&name);
        urls.sort();
        for u in urls {
            let r = site.server.get(&u).unwrap();
            out.push((
                u.to_string(),
                String::from_utf8_lossy(&r.body).into_owned(),
                r.last_modified,
            ));
        }
    }
    out
}

fn plan(seed: u64, perturb_rate: f64, drop_rate: f64) -> MutationPlan {
    MutationPlan::new(seed)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", perturb_rate))
        .with_rule(MutationRule::edit_attr("CoursePage", "CName", perturb_rate))
        .with_rule(MutationRule::drop_links(
            "SessionPage",
            &["CourseList", "ToCourse"],
            drop_rate,
        ))
}

/// Drifts `site` with `plan`: its one round at `u64::MAX`.
fn drift(plan: &MutationPlan, site: &mut Site) -> MutationReport {
    plan.apply_round(site, u64::MAX).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Same seed, same rates ⇒ byte-identical drifted site and identical
    // drift report, independently of when or where the plan is applied.
    #[test]
    fn drift_is_seed_deterministic(
        seed in 0u64..=u64::MAX,
        perturb_pct in 0u32..=100,
        drop_pct in 0u32..=100,
    ) {
        let p = plan(seed, f64::from(perturb_pct) / 100.0, f64::from(drop_pct) / 100.0);
        let mut a = uni();
        let mut b = uni();
        let ra = drift(&p, &mut a.site);
        let rb = drift(&p, &mut b.site);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(snapshot(&a.site), snapshot(&b.site));
    }

    // Zero rates ⇒ the drifted site is byte-identical to a pristine one,
    // whatever the seed: no republish, no clock movement, nothing counted.
    #[test]
    fn zero_rate_drift_equals_pristine(seed in 0u64..=u64::MAX) {
        let pristine = uni();
        let mut drifted = uni();
        let report = drift(&plan(seed, 0.0, 0.0), &mut drifted.site);
        prop_assert_eq!(report.total(), 0);
        prop_assert_eq!(snapshot(&pristine.site), snapshot(&drifted.site));
    }

    // Drift is idempotent under re-application: markers replace rather
    // than stack, so applying the same plan twice is the same as once
    // (modulo the republish clock, which moves on the second pass).
    #[test]
    fn reapplied_drift_does_not_stack(seed in 0u64..=u64::MAX) {
        let p = plan(seed, 0.6, 0.0);
        let mut once = uni();
        let mut twice = uni();
        drift(&p, &mut once.site);
        drift(&p, &mut twice.site);
        drift(&p, &mut twice.site);
        let strip = |s: Vec<(String, String, u64)>| -> Vec<(String, String)> {
            s.into_iter().map(|(u, b, _)| (u, b)).collect()
        };
        prop_assert_eq!(strip(snapshot(&once.site)), strip(snapshot(&twice.site)));
    }

    // `perturb_text_attr` is deterministic in its RNG seed, and a zero
    // fraction is a no-op for every seed.
    #[test]
    fn perturb_text_attr_is_rng_deterministic(
        rng_seed in 0u64..=u64::MAX,
        fraction_pct in 0u32..=100,
    ) {
        let fraction = f64::from(fraction_pct) / 100.0;
        let mut a = uni();
        let mut b = uni();
        let ta = perturb_text_attr(
            &mut a.site, "CoursePage", "Description", fraction, 1,
            &mut StdRng::seed_from_u64(rng_seed),
        ).unwrap();
        let tb = perturb_text_attr(
            &mut b.site, "CoursePage", "Description", fraction, 1,
            &mut StdRng::seed_from_u64(rng_seed),
        ).unwrap();
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(snapshot(&a.site), snapshot(&b.site));
        if fraction_pct == 0 {
            prop_assert_eq!(ta, 0);
            prop_assert_eq!(snapshot(&a.site), snapshot(&uni().site));
        }
    }

    // An audit of a link constraint on drifted pages reports only what the
    // whole-instance check reports on the full site, and checks exactly
    // the sampled pairs whose target page was fetched.
    #[test]
    fn an_audit_reports_only_what_the_whole_instance_check_reports(
        seed in 0u64..=u64::MAX,
        bib in 0u32..2,
        edit_pct in 0u32..=100,
        drop_pct in 0u32..=100,
        sample_pct in 0u64..=100,
        fetch_pct in 0u64..=100,
    ) {
        let mut site = drawn_site(seed, bib == 1);
        let (edit, drop) = (f64::from(edit_pct) / 100.0, f64::from(drop_pct) / 100.0);
        drift(&declared_drift(&site, seed, edit, drop), &mut site);
        for link in site.scheme.link_constraints() {
            let c = Constraint::Link(link.clone());
            let sampled: Vec<_> = site
                .pages(c.sampled_scheme())
                .filter(|(u, _)| kept(u, seed, sample_pct))
                .collect();
            let fetched: Vec<_> = site
                .pages(c.reference_scheme())
                .filter(|(u, _)| kept(u, !seed, fetch_pct))
                .collect();
            let (checks, found) = c.audit(sampled.iter().copied(), fetched.iter().copied());
            let whole: HashSet<String> = c
                .verify(site.pages(c.sampled_scheme()), site.pages(c.reference_scheme()))
                .into_iter()
                .map(|v| v.detail)
                .collect();
            for v in &found {
                prop_assert!(whole.contains(&v.detail), "{c}: {} not in {whole:?}", v.detail);
            }
            let fetched_urls: HashSet<&str> = fetched.iter().map(|(u, _)| u.as_str()).collect();
            let pairs = sampled
                .iter()
                .flat_map(|(_, t)| collect_pairs(t, &link.source_attr.path, &link.link.path))
                .filter(|(_, l)| l.as_link().is_some_and(|u| fetched_urls.contains(u.as_str())))
                .count();
            prop_assert_eq!(checks, pairs as u64, "{}", c);
        }
    }
}
