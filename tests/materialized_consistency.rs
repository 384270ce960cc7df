//! Soak test for lazy materialized-view maintenance: after an arbitrary
//! interleaving of site mutations and queries, answers always match the
//! live-site oracle, and a final full refresh converges the store.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webviews::matview::maintain;
use webviews::prelude::*;

fn grad_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("grad")
        .atom("Course")
        .select((0, "Type"), "Graduate")
        .project((0, "CName"))
}

fn oracle(u: &University) -> std::collections::BTreeSet<String> {
    u.expected_course()
        .into_iter()
        .filter(|(_, _, _, t)| t == "Graduate")
        .map(|(c, _, _, _)| c)
        .collect()
}

#[test]
fn interleaved_mutations_and_queries_stay_correct() {
    let mut u = University::generate(UniversityConfig {
        departments: 3,
        professors: 9,
        courses: 15,
        seed: 777,
        ..UniversityConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let mut store = MatStore::new();
    store.materialize(&u.site.scheme, &u.site.server).unwrap();

    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..25 {
        // one random mutation
        match rng.gen_range(0..4) {
            0 => {
                let ids = u.course_ids();
                let id = ids[rng.gen_range(0..ids.len())];
                u.update_course_description(id, format!("round {round}"))
                    .unwrap();
            }
            1 => {
                let prof = rng.gen_range(0..u.prof_count());
                let session = ["Fall", "Winter", "Summer"][rng.gen_range(0..3)];
                let ty = if rng.gen_bool(0.5) {
                    "Graduate"
                } else {
                    "Undergraduate"
                };
                u.add_course(prof, session, ty).unwrap();
            }
            2 => {
                let ids = u.course_ids();
                if ids.len() > 3 {
                    let id = ids[rng.gen_range(0..ids.len())];
                    u.remove_course(id).unwrap();
                }
            }
            _ => {
                let prof = rng.gen_range(0..u.prof_count());
                u.update_prof_email(prof, Some(format!("r{round}@uni.example")))
                    .unwrap();
            }
        }
        // query through the materialized view; answer must match the live
        // oracle (Algorithm 3 guarantees correct answers)
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &grad_query()).unwrap();
        let got: std::collections::BTreeSet<String> = out
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(got, oracle(&u), "divergence at round {round}");
    }

    // the off-line sweep plus a periodic full refresh converge the store
    maintain::purge_missing(&mut store, &u.site.server);
    maintain::full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
    assert!(maintain::audit(&store, u.site.all_pages()).is_empty());
}

#[test]
fn lazy_traffic_is_proportional_to_change() {
    let mut u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let mut store = MatStore::new();
    store.materialize(&u.site.scheme, &u.site.server).unwrap();

    // k updated course pages → exactly k downloads on the next
    // course-touching query
    for k in [0usize, 2, 5] {
        let mut changed = 0;
        for id in u.course_ids().into_iter().take(k) {
            u.update_course_description(id, format!("k={k}")).unwrap();
            changed += 1;
        }
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &grad_query()).unwrap();
        assert_eq!(out.counters.downloads as usize, changed, "k={k}");
    }
}

#[test]
fn queries_against_untouched_schemes_cost_nothing_extra() {
    let mut u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let mut store = MatStore::new();
    store.materialize(&u.site.scheme, &u.site.server).unwrap();

    // mutate professor pages only
    for i in 0..5 {
        u.update_prof_email(i, Some(format!("x{i}@uni.example")))
            .unwrap();
    }
    // a department query never visits professor pages
    let q = ConjunctiveQuery::new("depts")
        .atom("Dept")
        .project((0, "DName"))
        .project((0, "Address"));
    let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
    let out = session.run(&mut store, &q).unwrap();
    assert_eq!(out.counters.downloads, 0);
}
