//! Fuzz: drawn mutation and fault schedules never panic a site.
//!
//! [`MutationPlan`] and [`FaultPlan`] take their rules from callers, and a
//! rule can name a scheme or attribute the site does not have, a path
//! that is empty or deeper than the page, a rate that is NaN, negative or
//! above one, and any round. Whatever is drawn, applying a round answers
//! `Ok` or a typed `Err`, every GET and HEAD under an installed fault plan
//! answers a page or a typed error, and a round whose rates choose nothing
//! leaves the site byte-identical: same bodies, stamps, clock and feed.

use proptest::prelude::*;
use websim::site::Site;
use websim::sitegen::{University, UniversityConfig};
use websim::{FaultPlan, FaultRule, MutationPlan, MutationRule};

fn uni() -> University {
    University::generate(UniversityConfig {
        departments: 2,
        professors: 4,
        courses: 6,
        seed: 13,
        ..UniversityConfig::default()
    })
    .unwrap()
}

const SCHEMES: &[&str] = &[
    "DeptPage",
    "CoursePage",
    "SessionPage",
    "ProfPage",
    "DeptListPage",
    "HomePage",
    "NoSuchPage",
    "",
];

const ATTRS: &[&str] = &[
    "DName",
    "CName",
    "Description",
    "Rank",
    "CourseList",
    "ToDept",
    "NoSuchAttr",
    "",
];

const PATHS: &[&[&str]] = &[
    &[],
    &["CourseList", "ToCourse"],
    &["DeptList", "ToDept"],
    &["ProfList", "ToProf"],
    &["ToDept"],
    &["CourseList"],
    &["CourseList", "CName"],
    &["CourseList", "ToCourse", "Deeper", "Still"],
    &["NoSuch", "Path"],
];

const RATES: &[f64] = &[
    0.0,
    1.0,
    0.5,
    f64::NAN,
    -1.0,
    2.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
];

/// One drawn rule: (kind, scheme, attribute or path, rate), each an index
/// into the tables above.
type RawRule = (u8, u8, u8, u8);

fn mutation_rule((kind, scheme, arg, rate): RawRule, zero: bool) -> MutationRule {
    let scheme = SCHEMES[scheme as usize % SCHEMES.len()];
    let rate = if zero {
        0.0
    } else {
        RATES[rate as usize % RATES.len()]
    };
    match kind % 3 {
        0 => MutationRule::edit_attr(scheme, ATTRS[arg as usize % ATTRS.len()], rate),
        1 => MutationRule::drop_links(scheme, PATHS[arg as usize % PATHS.len()], rate),
        _ => MutationRule::delete(scheme, rate),
    }
}

fn fault_rule((kind, scheme, arg, rate): RawRule) -> FaultRule {
    let rate = RATES[rate as usize % RATES.len()];
    let rule = match kind % 5 {
        0 => FaultRule::unavailable(rate),
        1 => FaultRule::timeouts(rate),
        2 => FaultRule::link_rot(rate),
        3 => FaultRule::slow(rate, u64::from(arg % 20)),
        _ => FaultRule::truncation(rate, arg.wrapping_mul(37)),
    };
    match scheme % 4 {
        0 => rule.for_scheme(SCHEMES[arg as usize % SCHEMES.len()]),
        1 => rule.for_url_prefix(["/", "/univ/", "/nowhere/", ""][arg as usize % 4]),
        2 => rule.with_max_per_url(None),
        _ => rule,
    }
}

fn plan(seed: u64, rules: &[RawRule], zero: bool) -> MutationPlan {
    rules.iter().fold(MutationPlan::new(seed), |p, r| {
        p.with_rule(mutation_rule(*r, zero))
    })
}

/// Every page's (URL, body, stamp), the clock, and the feed's length.
type Snapshot = (Vec<(String, Vec<u8>, u64)>, u64, u64);

/// Everything a reader of the site can observe.
fn snapshot(site: &Site) -> Snapshot {
    let mut names: Vec<String> = site.scheme.schemes().map(|s| s.name.clone()).collect();
    names.sort();
    let mut pages = Vec::new();
    for name in names {
        for u in site.server.urls_of_scheme(&name) {
            let r = site.server.get(&u).unwrap();
            pages.push((u.to_string(), r.body.to_vec(), r.last_modified));
        }
    }
    (pages, site.server.now(), site.change_cursor())
}

fn raw_rule() -> impl Strategy<Value = RawRule> {
    (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255)
}

fn round() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=8,
        Just(u64::MAX),
        Just(u64::MAX - 1),
        0u64..=u64::MAX,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn drawn_mutation_and_fault_schedules_never_panic(
        seed in 0u64..=u64::MAX,
        rules in prop::collection::vec(raw_rule(), 0..6),
        rounds in prop::collection::vec(round(), 1..4),
        faults in prop::collection::vec(raw_rule(), 0..4),
        fault_seed in 0u64..=u64::MAX,
    ) {
        let mut u = uni();
        let p = plan(seed, &rules, false);
        for &r in &rounds {
            // `Ok` or a typed `Err`: the return type is the whole contract,
            // so reaching the next statement is the check
            let _ = p.apply_round(&mut u.site, r);
        }

        // the same schedule with every rate zeroed chooses nothing
        let pristine = uni();
        let mut zeroed = uni();
        let before = snapshot(&zeroed.site);
        for &r in &rounds {
            let report = plan(seed, &rules, true).apply_round(&mut zeroed.site, r).unwrap();
            prop_assert_eq!(report.total(), 0);
        }
        prop_assert_eq!(snapshot(&zeroed.site), before);
        prop_assert_eq!(snapshot(&pristine.site), snapshot(&zeroed.site));

        // GET and HEAD of every page, and of URLs the site never had,
        // under a drawn fault plan on the mutated site
        let fp = faults.iter().fold(FaultPlan::new(fault_seed), |p, r| p.with_rule(fault_rule(*r)));
        u.site.server.set_fault_plan(fp);
        let mut urls: Vec<adm::Url> = u
            .site
            .scheme
            .schemes()
            .flat_map(|s| u.site.server.urls_of_scheme(&s.name))
            .collect();
        urls.extend(["/nowhere.html", "/", ""].map(adm::Url::new));
        for url in &urls {
            for _ in 0..3 {
                let _ = u.site.server.get(url);
                let _ = u.site.server.head(url);
            }
        }
        u.site.server.clear_fault_plan();
    }
}
