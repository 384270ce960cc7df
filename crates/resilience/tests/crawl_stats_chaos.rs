//! The crawler and statistics collection go through the resilience layer
//! too: under capped transient chaos, a retrying crawl discovers exactly
//! the instance a fault-free crawl does, and the statistics derived from
//! it are identical — while the server's GET accounting stays untouched
//! and the retries land in the resilience counters.

use websim::sitegen::{University, UniversityConfig};
use websim::{FaultPlan, FaultRule};
use wvcore::{crawl_instance, LiveSource, SiteStatistics};

use resilience::ResilientSource;

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
