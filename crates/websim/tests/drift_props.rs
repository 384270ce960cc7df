//! Property tests: site drift is a pure function of its seed.
//!
//! The constraint-auditing experiments drift a site with one
//! [`websim::MutationPlan`] round at `u64::MAX` and lean on two promises
//! made by [`websim::mutation`]: the same seed produces a byte-identical
//! drifted site (so harness runs are reproducible), and an all-zero-rate
//! plan is a complete no-op (so "audit on, drift off" can be compared
//! byte-for-byte against a pristine run). These properties hold for *every* seed and
//! rate, which is what the proptests below pin down.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use websim::mutation::{perturb_text_attr, MutationPlan, MutationReport, MutationRule};
use websim::site::Site;
use websim::sitegen::{University, UniversityConfig};

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
}
