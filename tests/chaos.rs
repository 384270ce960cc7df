//! Chaos: the retry wrapper ([`ResilientSource`]) and partial answers
//! against a server injecting faults. The headline invariants are pinned
//! by property tests:
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
//! The crawler and statistics collection go through the wrapper too:
//! under capped transient chaos, a retrying crawl discovers exactly the
//! instance a fault-free crawl does, and the statistics derived from it
//! are identical — while the server's GET accounting stays untouched and
//! the retries land in the wrapper's counters.
//!
//! A fixed-seed smoke test runs two pinned chaos configurations; it reads
//! `CHAOS_SEED` / `CHAOS_RATE_PCT` from the environment to probe another.
//! The README's chaos example is `readme_chaos_example`.

use proptest::prelude::*;
use webviews::prelude::*;
use webviews::wvcore::crawl_instance;

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

/// Two pinned chaos configurations, `0xC0FFEE` at 35 % and `0xDEADBEEF`
/// at 45 %. `CHAOS_SEED` / `CHAOS_RATE_PCT` replace them with one
/// configuration of your own (an unset one keeps the first pin's value).
#[test]
fn chaos_smoke_fixed_seed() {
    let seed: Option<u64> = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let rate_pct: Option<u8> = std::env::var("CHAOS_RATE_PCT")
        .ok()
        .and_then(|s| s.parse().ok());
    let configs = match (seed, rate_pct) {
        (None, None) => vec![(0xC0FFEE, 35), (0xDEAD_BEEF, 45)],
        (seed, rate_pct) => vec![(seed.unwrap_or(0xC0FFEE), rate_pct.unwrap_or(35))],
    };
    for (seed, rate_pct) in configs {
        check_transient_equivalence(12, seed, f64::from(rate_pct.min(95)) / 100.0, 4);
    }
}

fn university() -> University {
    University::generate(UniversityConfig {
        departments: 2,
        professors: 5,
        courses: 9,
        seed: 77,
        ..UniversityConfig::default()
    })
    .unwrap()
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(0xBAD5EED)
        .with_rule(FaultRule::unavailable(0.4).with_max_per_url(Some(2)))
        .with_rule(FaultRule::timeouts(0.4).with_max_per_url(Some(1)))
}

#[test]
fn retrying_crawl_discovers_the_same_instance_under_chaos() {
    let u = university();
    let live = LiveSource::for_site(&u.site);

    let clean = crawl_instance(&u.site.scheme, &live);
    let clean_gets = u.site.server.stats().gets;
    u.site.server.reset_stats();

    u.site.server.set_fault_plan(chaos_plan());
    let resilient = ResilientSource::new(&live, 4);
    let chaotic = crawl_instance(&u.site.scheme, &resilient);

    assert_eq!(chaotic, clean, "same pages, same tuples");
    let stats = u.site.server.stats();
    assert_eq!(stats.gets, clean_gets, "failed GETs are not GETs");
    let injected = stats.faults.unavailable + stats.faults.timeout;
    assert!(injected > 0, "the chaos plan actually fired");
    assert_eq!(resilient.stats().retries, injected);
    assert_eq!(resilient.stats().giveups, 0);
}

#[test]
fn statistics_collected_under_chaos_are_identical() {
    let u = university();
    let live = LiveSource::for_site(&u.site);
    let clean = SiteStatistics::crawl(&u.site.scheme, &live);

    u.site.server.set_fault_plan(chaos_plan());
    let resilient = ResilientSource::new(&live, 4);
    let chaotic = SiteStatistics::crawl(&u.site.scheme, &resilient);

    for ps in u.site.scheme.schemes() {
        assert_eq!(
            chaotic.card(&ps.name),
            clean.card(&ps.name),
            "cardinality of {}",
            ps.name
        );
    }
    assert!(resilient.stats().retries > 0, "the crawl rode over faults");
}

/// The README's chaos example: 30% of requests fail transiently and 10% of
/// course pages are gone; the course navigation answers without the rotted
/// pages, names exactly those as unreachable, and rides over every
/// transient fault with one retry.
#[test]
fn readme_chaos_example() {
    let site = University::generate(UniversityConfig::default()).unwrap();
    let server = &site.site.server;

    // 30% of requests fail transiently, and 10% of course pages are gone.
    let faults = FaultPlan::new(42)
        .with_rule(FaultRule::unavailable(0.3).with_max_per_url(Some(2)))
        .with_rule(FaultRule::link_rot(0.1).for_scheme("CoursePage"));
    server.set_fault_plan(faults.clone());

    // Retry through the chaos; answer what's still reachable.
    let plan = NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Type"]);
    let source = LiveSource::for_site(&site.site);
    let resilient = ResilientSource::new(&source, 4);
    let report = Evaluator::new(&site.site.scheme, &resilient)
        .with_policy(&EvalPolicy {
            degradation: DegradationMode::Partial,
            ..Default::default()
        })
        .eval(&plan)
        .unwrap();

    // the rotted course pages, exactly, are unreachable
    let rotted: Vec<_> = site
        .site
        .pages("CoursePage")
        .map(|(url, _)| url.clone())
        .filter(|url| faults.is_rotted(url, Some("CoursePage")))
        .collect();
    assert!(!rotted.is_empty());
    assert_eq!(report.unreachable, rotted);
    // each injected transient fault cost one retry and no page access
    assert_eq!(resilient.stats().retries, server.stats().faults.unavailable);
    assert_eq!(resilient.stats().giveups, 0);
}
