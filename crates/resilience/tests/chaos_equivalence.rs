//! The subsystem's headline invariants, pinned by property tests:
//!
//! 1. **Transient equivalence** — a fault plan made only of capped
//!    transient faults, evaluated through a retry policy with enough
//!    attempts, is observationally identical to a fault-free run: same
//!    relation, same `page_accesses`, same per-operator accounting, no
//!    unreachable pages. Retries land in separate counters.
//! 2. **Partial subset** — permanent link rot under
//!    [`DegradationMode::Partial`] yields exactly the fault-free answer
//!    minus the rows behind rotted URLs, and reports exactly the rotted
//!    URL set — computable up front from [`FaultPlan::is_rotted`].
//!
//! A fixed-seed smoke variant reads `CHAOS_SEED` / `CHAOS_RATE_PCT` from
//! the environment so CI can pin one reproducible chaos configuration.

use adm::{Field, PageScheme, Url, WebScheme};
use nalg::{DegradationMode, EvalPolicy, Evaluator, Fetch, NalgExpr};
use proptest::prelude::*;
use resilience::ResilientSource;
use websim::{FaultPlan, FaultRule, VirtualServer};
use wvcore::LiveSource;

fn scheme() -> WebScheme {
    let list = PageScheme::new(
        "ListPage",
        vec![Field::list(
            "Items",
            vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
        )],
    )
    .unwrap();
    let item = PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Kind")]).unwrap();
    WebScheme::builder()
        .scheme(list)
        .scheme(item)
        .entry_point("ListPage", "/list.html")
        .build()
        .unwrap()
}

/// Publishes a list page linking `n` item pages on a live server.
fn publish_site(server: &VirtualServer, n: usize) {
    let mut rows = String::new();
    for i in 0..n {
        rows.push_str(&format!(
            r#"<li class="adm-row"><span class="adm-attr" data-attr="Name">n{i}</span><a class="adm-attr" data-attr="ToItem" href="/i/{i}">x</a></li>"#
        ));
    }
    server.put(
        Url::new("/list.html"),
        "ListPage",
        format!(
            r#"<div class="adm-page"><ul class="adm-list" data-attr="Items">{rows}</ul></div>"#
        ),
    );
    for i in 0..n {
        server.put(
            Url::new(format!("/i/{i}")),
            "ItemPage",
            format!(
                r#"<div class="adm-page"><span class="adm-attr" data-attr="Name">n{i}</span><span class="adm-attr" data-attr="Kind">k{}</span></div>"#,
                i % 3
            ),
        );
    }
}

fn navigation() -> NalgExpr {
    NalgExpr::entry("ListPage")
        .unnest("Items")
        .follow("ToItem", "ItemPage")
        .project(vec!["ListPage.Items.Name", "ItemPage.Kind"])
}

/// A transient-only plan: 5xx and timeouts, each capped per URL so a
/// 4-attempt retry policy is guaranteed to get through.
fn transient_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rule(FaultRule::unavailable(rate).with_max_per_url(Some(2)))
        .with_rule(FaultRule::timeouts(rate).with_max_per_url(Some(1)))
}

fn check_transient_equivalence(n_items: usize, seed: u64, rate: f64, workers: usize) {
    let ws = scheme();
    let server = VirtualServer::new();
    publish_site(&server, n_items);
    let live = LiveSource::new(&ws, &server);
    let plan = navigation();

    // fault-free baseline
    let baseline = Evaluator::new(&ws, &live).eval(&plan).unwrap();
    let clean_stats = server.stats();
    server.reset_stats();

    // chaos run through the retry layer
    server.set_fault_plan(transient_plan(seed, rate));
    let resilient = ResilientSource::new(&live, 4);
    let chaos = Evaluator::new(&ws, &resilient)
        .with_policy(&EvalPolicy {
            degradation: DegradationMode::Partial,
            ..Default::default()
        })
        .eval(&plan)
        .unwrap();

    prop_assert_eq!(chaos.relation.sorted(), baseline.relation.sorted());
    prop_assert_eq!(chaos.page_accesses, baseline.page_accesses);
    prop_assert_eq!(chaos.broken_links, baseline.broken_links);
    prop_assert_eq!(chaos.cost_model_accesses(), baseline.cost_model_accesses());
    prop_assert_eq!(&chaos.accesses_by_operator, &baseline.accesses_by_operator);
    prop_assert!(
        chaos.unreachable.is_empty(),
        "transient faults never lose pages"
    );

    // the paper's access accounting is untouched by the chaos…
    let chaos_stats = server.stats();
    prop_assert_eq!(chaos_stats.gets, clean_stats.gets);
    prop_assert_eq!(chaos_stats.heads, clean_stats.heads);
    // …every injected fault shows up as exactly one retry, in counters of
    // its own
    let injected = chaos_stats.faults.unavailable + chaos_stats.faults.timeout;
    prop_assert_eq!(resilient.stats().retries, injected);
    prop_assert_eq!(resilient.stats().giveups, 0);
    prop_assert_eq!(resilient.stats().breaker_trips, 0);

    // and the same holds through the concurrent fetch pool
    server.reset_stats();
    let pooled = Evaluator::new(&ws, &resilient)
        .with_policy(&EvalPolicy {
            fetch: Fetch::pool(workers),
            ..Default::default()
        })
        .eval(&plan)
        .unwrap();
    prop_assert_eq!(pooled.relation.sorted(), baseline.relation.sorted());
    prop_assert_eq!(pooled.page_accesses, baseline.page_accesses);
    prop_assert_eq!(&pooled.accesses_by_operator, &baseline.accesses_by_operator);
    prop_assert_eq!(server.stats().gets, clean_stats.gets);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transient_only_chaos_is_equivalent_to_fault_free(
        n_items in 1usize..25,
        seed in 0u64..1_000_000,
        rate_pct in 0u8..=90,
        workers in 1usize..=8,
    ) {
        check_transient_equivalence(n_items, seed, f64::from(rate_pct) / 100.0, workers);
    }

    #[test]
    fn permanent_rot_in_partial_mode_reports_the_exact_missing_set(
        n_items in 1usize..25,
        seed in 0u64..1_000_000,
        rot_pct in 0u8..=100,
    ) {
        let ws = scheme();
        let server = VirtualServer::new();
        publish_site(&server, n_items);
        let live = LiveSource::new(&ws, &server);
        let plan = navigation();

        let baseline = Evaluator::new(&ws, &live).eval(&plan).unwrap();

        // rot item pages only (the entry stays up) and predict the damage
        // without touching the server
        let fault_plan = FaultPlan::new(seed).with_rule(
            FaultRule::link_rot(f64::from(rot_pct) / 100.0).for_url_prefix("/i/"),
        );
        let mut expected_missing: Vec<Url> = (0..n_items)
            .map(|i| Url::new(format!("/i/{i}")))
            .filter(|u| fault_plan.is_rotted(u, Some("ItemPage")))
            .collect();
        expected_missing.sort();
        server.set_fault_plan(fault_plan);

        let partial = Evaluator::new(&ws, &live)
            .with_policy(&EvalPolicy {
                degradation: DegradationMode::Partial,
                ..Default::default()
            })
            .eval(&plan)
            .unwrap();

        // exact missing-URL set, sorted, deduplicated
        prop_assert_eq!(&partial.unreachable, &expected_missing);
        prop_assert_eq!(partial.is_complete(), expected_missing.is_empty());
        // the answer is exactly the baseline minus rows behind rotted URLs
        let missing: std::collections::HashSet<&Url> = expected_missing.iter().collect();
        prop_assert_eq!(
            partial.relation.len() + missing.len(),
            baseline.relation.len()
        );
        let baseline_rows: Vec<_> = baseline.relation.sorted().rows().to_vec();
        for row in partial.relation.rows() {
            prop_assert!(baseline_rows.contains(row), "row not in the baseline answer");
        }
    }
}

/// CI smoke hook: one reproducible chaos configuration, overridable via
/// `CHAOS_SEED` and `CHAOS_RATE_PCT`.
#[test]
fn chaos_smoke_fixed_seed() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let rate_pct: u8 = std::env::var("CHAOS_RATE_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(35);
    check_transient_equivalence(12, seed, f64::from(rate_pct.min(95)) / 100.0, 4);
}
