//! Property pin for the byte-budgeted store: whatever the budget and the
//! mutation seed, residency never exceeds the budget, and upqueries
//! restore evicted pages byte-identically. That the delta path lands on
//! exactly the store a full refresh produces and the answers live
//! evaluation produces is held by the seeded simulation (the facade's
//! `tests/sim.rs`).

use matview::IncrementalView;
use proptest::prelude::*;
use websim::sitegen::{University, UniversityConfig};
use websim::{MutationPlan, MutationRule};

fn university(seed: u64) -> University {
    University::generate(UniversityConfig {
        departments: 3,
        professors: 6,
        courses: 8,
        seed,
        ..UniversityConfig::default()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A byte budget is an invariant, not a hint: whatever the budget and
    // mutation seed, residency never exceeds it, and every evicted page
    // an upquery brings back is byte-identical to the server's truth.
    #[test]
    fn budgeted_eviction_round_trips_through_upqueries(
        budget in 512usize..8192,
        plan_seed in 0u64..=u64::MAX,
    ) {
        let mut u = university(7);
        let ws = u.site.scheme.clone();
        let mut iv = IncrementalView::new(&ws).with_byte_budget(budget);
        iv.materialize(&u.site.server).unwrap();
        iv.set_cursor(u.site.change_cursor());
        prop_assert!(iv.store().stats().resident_bytes <= budget as u64);

        let plan = MutationPlan::new(plan_seed)
            .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.5))
            .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.4));
        for round in 0..2u64 {
            plan.apply_round(&mut u.site, round).unwrap();
            iv.sync(&u.site).unwrap();
            prop_assert!(
                iv.store().stats().resident_bytes <= budget as u64,
                "over budget after sync round {}", round,
            );
        }

        // Read back every live page: evicted ones upquery, and all of
        // them come back exactly as the server holds them.
        for scheme in ["DeptPage", "ProfPage", "CoursePage"] {
            for (url, truth) in u.site.instance(scheme) {
                let (tuple, got_scheme) = iv
                    .store_mut()
                    .read(&ws, &u.site.server, &url)
                    .unwrap()
                    .expect("published page");
                prop_assert_eq!(&*tuple, &truth, "upquery must restore {} exactly", url);
                prop_assert_eq!(got_scheme.as_str(), scheme);
                prop_assert!(iv.store().stats().resident_bytes <= budget as u64);
            }
        }
        prop_assert!(iv.store().stats().upqueries > 0, "a small budget must upquery");
    }
}
