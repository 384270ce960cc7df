//! Off-line maintenance: the `CheckMissing` sweep, full refresh, and
//! consistency auditing.
//!
//! Lazy maintenance "guarantees correct answers and efficient execution
//! time, but not the overall consistency of the materialized view"; the
//! paper proposes periodically checking the whole view. [`purge_missing`]
//! is the deferred deletion check; [`full_refresh`] is the heavyweight
//! re-crawl used both as the periodic consistency pass and as the eager
//! baseline in the experiments; [`audit`] compares the store against a
//! generated site's ground truth (a test oracle the real system would not
//! have).

use crate::store::{MatStore, MaterializeReport};
use crate::Result;
use adm::{Tuple, Url, WebScheme};
use nalg::{PageServer, SourceError};

/// Outcome of a `CheckMissing` sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// URLs checked (one light connection each).
    pub checked: u64,
    /// Pages confirmed deleted and dropped from the store.
    pub confirmed_deleted: u64,
    /// Pages that turned out to still exist.
    pub still_alive: u64,
    /// Checks that failed transiently: the page is retained and left on
    /// the queue for the next sweep (a 503 is not a deletion).
    pub inconclusive: u64,
    /// Queue entries skipped because the same URL already appeared earlier
    /// in this sweep — each URL is checked (and counted in `checked`)
    /// exactly once per sweep, however many times it was queued.
    pub duplicates_skipped: u64,
}

/// Drains the `CheckMissing` queue, verifying each URL with a light
/// connection and dropping confirmed-deleted pages from the store. Only a
/// definite 404 deletes: any other failure (timeout, 5xx) retains the
/// page and re-queues the URL for the next sweep.
pub fn purge_missing(store: &mut MatStore, server: &impl PageServer) -> PurgeReport {
    let mut report = PurgeReport::default();
    let mut seen = std::collections::HashSet::new();
    let mut requeue = Vec::new();
    while let Some(url) = store.check_missing.pop_front() {
        if !seen.insert(url.clone()) {
            // same URL queued more than once (e.g. discovered missing from
            // several referrers): dedup explicitly so one sweep never
            // double-checks — and never double-counts — a URL
            report.duplicates_skipped += 1;
            continue;
        }
        report.checked += 1;
        match server.head(&url) {
            Ok(_) => report.still_alive += 1,
            Err(SourceError::NotFound(_)) => {
                store.remove(&url);
                report.confirmed_deleted += 1;
            }
            Err(_) => {
                report.inconclusive += 1;
                requeue.push(url);
            }
        }
    }
    store.check_missing.extend(requeue);
    report
}

/// Eager maintenance: re-crawls the whole site in place. Pages whose
/// re-download fails survive as stale-but-retained (see
/// [`MatStore::materialize_report`]); pages no longer reachable from any
/// entry point are dropped. Returns the number of pages downloaded — the
/// cost the lazy strategy avoids.
pub fn full_refresh(
    store: &mut MatStore,
    ws: &WebScheme,
    server: &impl PageServer,
) -> Result<usize> {
    Ok(full_refresh_report(store, ws, server)?.0.downloaded)
}

/// [`full_refresh`] with the crawl's full account and the number of
/// unreachable pages the sweep dropped.
pub fn full_refresh_report(
    store: &mut MatStore,
    ws: &WebScheme,
    server: &impl PageServer,
) -> Result<(MaterializeReport, usize)> {
    store.check_missing.clear(); // the crawl re-derives any suspicions
    store.reset_status();
    let report = store.materialize_report(ws, server)?;
    let dropped = store.sweep_unreachable(ws);
    Ok((report, dropped))
}

/// Compares the store against a site's ground truth — every page the site
/// holds, with the tuple it was rendered from (a generated site's
/// `all_pages`). Returns one line per discrepancy (stale tuple, missing
/// page, phantom page).
pub fn audit<'a>(
    store: &MatStore,
    truth: impl IntoIterator<Item = (&'a Url, &'a Tuple)>,
) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut live_urls = std::collections::HashSet::new();
    for (url, truth) in truth {
        match store.get(url) {
            None => diffs.push(format!("missing locally: {url}")),
            Some(p) if *p.tuple != *truth => diffs.push(format!("stale: {url}")),
            Some(_) => {}
        }
        live_urls.insert(url);
    }
    // phantom pages: materialized but no longer on the site
    for (url, _) in store.pages_sorted() {
        if !live_urls.contains(url) {
            diffs.push(format!("phantom: {url}"));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MatStore;
    use websim::sitegen::{University, UniversityConfig};

    fn setup() -> (University, MatStore) {
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 10,
            seed: 55,
            ..UniversityConfig::default()
        })
        .unwrap();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        u.site.server.reset_stats();
        (u, store)
    }

    #[test]
    fn fresh_store_audits_clean() {
        let (u, store) = setup();
        assert!(audit(&store, u.site.all_pages()).is_empty());
    }

    #[test]
    fn audit_detects_staleness_and_refresh_fixes_it() {
        let (mut u, mut store) = setup();
        u.update_course_description(1, "v2").unwrap();
        let diffs = audit(&store, u.site.all_pages());
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].contains("stale"));
        let n = full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
        assert_eq!(n, u.site.total_pages());
        assert!(audit(&store, u.site.all_pages()).is_empty());
    }

    #[test]
    fn purge_confirms_deletions() {
        let (mut u, mut store) = setup();
        u.remove_course(0).unwrap();
        store.check_missing.push_back(University::course_url(0));
        // also queue a URL that still exists
        store.check_missing.push_back(University::course_url(1));
        let report = purge_missing(&mut store, &u.site.server);
        assert_eq!(report.checked, 2);
        assert_eq!(report.confirmed_deleted, 1);
        assert_eq!(report.still_alive, 1);
        assert!(store.get(&University::course_url(0)).is_none());
        assert!(store.get(&University::course_url(1)).is_some());
        assert!(store.check_missing.is_empty());
    }

    #[test]
    fn purge_dedups_queue() {
        let (u, mut store) = setup();
        for _ in 0..5 {
            store.check_missing.push_back(University::course_url(1));
        }
        let report = purge_missing(&mut store, &u.site.server);
        assert_eq!(report.checked, 1);
        assert_eq!(
            report.duplicates_skipped, 4,
            "dedup is explicit, not silent"
        );
        assert_eq!(report.still_alive, 1);
    }

    #[test]
    fn purge_never_double_counts_a_requeued_url() {
        let (u, mut store) = setup();
        let url = University::course_url(1);
        for _ in 0..3 {
            store.check_missing.push_back(url.clone());
        }
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(2)
                .with_rule(websim::FaultRule::unavailable(1.0).with_max_per_url(None)),
        );
        let report = purge_missing(&mut store, &u.site.server);
        // one check, one transient result, two duplicates — never three
        // checks for one URL in one sweep
        assert_eq!(report.checked, 1);
        assert_eq!(report.inconclusive, 1);
        assert_eq!(report.duplicates_skipped, 2);
        // the requeue holds the URL exactly once for the next sweep
        assert_eq!(store.check_missing.len(), 1);
        u.site.server.clear_fault_plan();
        let next = purge_missing(&mut store, &u.site.server);
        assert_eq!(next.checked, 1);
        assert_eq!(next.duplicates_skipped, 0);
        assert_eq!(next.still_alive, 1);
        assert!(store.check_missing.is_empty());
    }

    #[test]
    fn audit_detects_deleted_pages_after_refresh_only() {
        let (mut u, mut store) = setup();
        u.remove_course(3).unwrap();
        // stale store still holds the deleted page + the two updated pages
        let diffs = audit(&store, u.site.all_pages());
        assert!(!diffs.is_empty());
        // lacking one live page as well, the store is as large as the site
        // again — and the phantom is still named
        store.remove(&University::course_url(1));
        assert_eq!(store.len(), u.site.total_pages());
        let diffs = audit(&store, u.site.all_pages());
        assert!(diffs.contains(&format!("phantom: {}", University::course_url(3))));
        assert!(diffs.contains(&format!("missing locally: {}", University::course_url(1))));
        full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
        assert!(audit(&store, u.site.all_pages()).is_empty());
    }

    #[test]
    fn purge_is_inconclusive_under_transient_failures() {
        let (u, mut store) = setup();
        let url = University::course_url(1);
        store.check_missing.push_back(url.clone());
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(2)
                .with_rule(websim::FaultRule::unavailable(1.0).with_max_per_url(None)),
        );
        let report = purge_missing(&mut store, &u.site.server);
        assert_eq!(report.checked, 1);
        assert_eq!(report.inconclusive, 1);
        assert_eq!(report.confirmed_deleted, 0);
        assert!(store.get(&url).is_some(), "a 503 must not delete the page");
        assert_eq!(
            store.check_missing.front(),
            Some(&url),
            "left queued for the next sweep"
        );
        // the next sweep, with the outage over, resolves it
        u.site.server.clear_fault_plan();
        let report = purge_missing(&mut store, &u.site.server);
        assert_eq!(report.still_alive, 1);
        assert!(store.check_missing.is_empty());
    }

    #[test]
    fn full_refresh_retains_failed_pages_as_stale() {
        let (u, mut store) = setup();
        let victim = University::prof_url(2);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(6).with_rule(
                websim::FaultRule::timeouts(1.0)
                    .for_url_prefix(victim.as_str())
                    .with_max_per_url(None),
            ),
        );
        let n = full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
        assert_eq!(n, u.site.total_pages() - 1);
        assert!(store.get(&victim).is_some(), "retained through the outage");
        assert!(store.is_stale(&victim), "but flagged, not silently fresh");
        assert_eq!(store.len(), u.site.total_pages());
        // a later clean refresh lifts the flag
        u.site.server.clear_fault_plan();
        full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
        assert!(!store.is_stale(&victim));
        assert_eq!(store.stale_count(), 0);
    }

    #[test]
    fn full_refresh_still_drops_unreachable_phantoms() {
        let (mut u, mut store) = setup();
        u.remove_course(5).unwrap();
        let gone = University::course_url(5);
        assert!(store.get(&gone).is_some());
        // even with transient chaos elsewhere, the phantom is dropped
        // (chaos scoped to another course page, whose stale copy cannot
        // re-reach the removed one)
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(8).with_rule(
                websim::FaultRule::timeouts(1.0)
                    .for_url_prefix(University::course_url(6).as_str())
                    .with_max_per_url(None),
            ),
        );
        full_refresh(&mut store, &u.site.scheme, &u.site.server).unwrap();
        assert!(store.get(&gone).is_none(), "no longer reachable: dropped");
    }

    /// Only a 404 deletes: an error the simulated server never produces
    /// (a cancelled or refused request) leaves the page where the sweep
    /// and URLCheck found it.
    #[test]
    fn a_failure_that_is_not_a_404_never_deletes() {
        use crate::store::tests::Refusing;
        use crate::urlcheck::{url_check, CheckCounters};
        let (u, mut store) = setup();
        let url = University::course_url(1);
        for error in [
            SourceError::Cancelled(url.clone()),
            SourceError::Other("connection reset".into()),
        ] {
            let server = Refusing {
                inner: &u.site.server,
                url: url.clone(),
                error: Some(error.clone()),
            };
            store.check_missing.push_back(url.clone());
            let report = purge_missing(&mut store, &server);
            assert_eq!((report.inconclusive, report.confirmed_deleted), (1, 0));
            assert_eq!(store.check_missing.pop_front(), Some(url.clone()));
            store.reset_status();
            let mut counters = CheckCounters::default();
            let got = url_check(
                &mut store,
                &mut counters,
                &u.site.scheme,
                &server,
                &url,
                "CoursePage",
            )
            .unwrap();
            assert!(got.is_some(), "{error}: served stale, not dropped");
            assert_eq!(counters.stale_served, 1);
            assert!(store.is_stale(&url) && store.check_missing.is_empty());
        }
    }
}
