//! Function 2 — URLCheck.
//!
//! ```text
//! IF status(U) = new THEN download, wrap, store
//! ELSE open a light connection to U
//!      IF AccessDate < ModificationDate THEN
//!          download, wrap, store
//!          mark outlinks present only in the new version as `new`
//!          mark outlinks present only in the old version as `missing`
//!      ELSE use the stored tuple
//! status(U) := checked
//! ```
//!
//! "Use the stored tuple" costs nothing in the paper's model, and here it
//! is a reference: the check returns the store's own `Arc`, and a download
//! returns the `Arc` it just stored.
//!
//! A 404 on the light connection (exactly [`nalg::SourceError::NotFound`])
//! means the page itself was deleted: it is removed from the store and
//! pushed onto `CheckMissing` for the off-line sweep. Any other failure (a
//! timeout, a 5xx) means nothing of the sort: the stored tuple is served as
//! stale-but-retained — flagged in the store and counted in
//! [`CheckCounters::stale_served`] — rather than deleting a page that is
//! probably still alive.

use crate::store::{Download, MatStore, UrlStatus};
use crate::{MatError, Result};
use adm::{Tuple, Url, WebScheme};
use nalg::{PageServer, SourceError};
use std::sync::Arc;

/// Access counters of the maintenance protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Light connections opened (HEAD analogues).
    pub light_connections: u64,
    /// Full downloads performed (pages that had actually changed or were
    /// new).
    pub downloads: u64,
    /// Tuples served straight from the local store.
    pub from_store: u64,
    /// Tuples served stale because their check failed transiently (the
    /// freshness of the answer could not be verified).
    pub stale_served: u64,
}

/// Serves the stored copy of a page whose check failed transiently,
/// flagging it stale.
fn serve_stale(
    store: &mut MatStore,
    counters: &mut CheckCounters,
    url: &Url,
) -> Option<Arc<Tuple>> {
    let tuple = stored(store, url)?;
    store.mark_stale(url);
    store.set_status(url.clone(), UrlStatus::Checked);
    counters.stale_served += 1;
    Some(tuple)
}

/// The store's copy of a resident page, by reference.
fn stored(store: &MatStore, url: &Url) -> Option<Arc<Tuple>> {
    store.get(url).map(|p| Arc::clone(&p.tuple))
}

/// Checks one URL, returning the (fresh) tuple, or `None` if the page no
/// longer exists on the site.
pub fn url_check(
    store: &mut MatStore,
    counters: &mut CheckCounters,
    ws: &WebScheme,
    server: &impl PageServer,
    url: &Url,
    scheme: &str,
) -> Result<Option<Arc<Tuple>>> {
    // (A checked page whose payload a budgeted store has since evicted
    // falls through to the download below, like any evicted page.)
    if store.status(url) == UrlStatus::Checked && (store.get(url).is_some() || !store.knows(url)) {
        counters.from_store += 1;
        return Ok(stored(store, url));
    }
    // Capture the stored access date up front: the freshness comparison
    // below must not assume the entry is still there after the light
    // connection (no `expect` — a missing entry means "download").
    let stored_date = store.get(url).map(|p| p.access_date);
    let must_download = match stored_date {
        // a brand-new page, one we never materialized, or one whose
        // payload was evicted: no point in a light connection, we need
        // the content anyway
        None => true,
        Some(_) if store.status(url) == UrlStatus::New => true,
        Some(access_date) => {
            counters.light_connections += 1;
            match server.head(url) {
                Ok(head) => access_date < head.last_modified,
                Err(SourceError::NotFound(_)) => {
                    store.drop_missing(url);
                    return Ok(None);
                }
                Err(_) => {
                    // can't verify freshness right now: serve the stored
                    // copy stale-but-retained instead of deleting a live
                    // page
                    return Ok(serve_stale(store, counters, url));
                }
            }
        }
    };
    if !must_download {
        counters.from_store += 1;
        // a successful light connection just attested freshness: lift any
        // staleness flag left by an earlier failed check
        store.clear_stale(url);
        store.set_status(url.clone(), UrlStatus::Checked);
        return Ok(stored(store, url));
    }
    match store.download(ws, server, url, scheme)? {
        Download::Fresh(fresh) => {
            counters.downloads += 1;
            // outlink diffing against the previous version
            for added in fresh.added() {
                if store.status(added) == UrlStatus::None {
                    store.set_status(added.clone(), UrlStatus::New);
                }
            }
            for removed in fresh.removed() {
                if store.status(removed) == UrlStatus::None {
                    store.set_status(removed.clone(), UrlStatus::Missing);
                }
            }
            store.set_status(url.clone(), UrlStatus::Checked);
            Ok(Some(fresh.new))
        }
        // The page changed (or is new) but the download failed. An old
        // copy is better than aborting: serve it stale. With nothing
        // stored the page is genuinely unreachable.
        Download::Transient(reason) => match serve_stale(store, counters, url) {
            Some(t) => Ok(Some(t)),
            None => Err(MatError::Unreachable {
                url: url.clone(),
                reason,
            }),
        },
        Download::Gone => {
            store.drop_missing(url);
            Ok(None)
        }
    }
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
            seed: 33,
            ..UniversityConfig::default()
        })
        .unwrap();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        u.site.server.reset_stats();
        (u, store)
    }

    #[test]
    fn fresh_page_served_from_store_after_light_connection() {
        let (u, mut store) = setup();
        let mut c = CheckCounters::default();
        let url = University::prof_url(0);
        let t = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "ProfPage",
        )
        .unwrap()
        .unwrap();
        assert_eq!(&*t, u.site.ground_truth("ProfPage", &url).unwrap());
        assert_eq!(c.light_connections, 1);
        assert_eq!(c.downloads, 0);
        assert_eq!(c.from_store, 1);
        // the server saw only a HEAD
        assert_eq!(u.site.server.stats().gets, 0);
        assert_eq!(u.site.server.stats().heads, 1);
        // once the payload is evicted there is no copy a Last-Modified could
        // vouch for: no light connection, one download
        assert!(store.evict(&u.site.scheme, &url));
        store.reset_status();
        u.site.server.reset_stats();
        let mut c = CheckCounters::default();
        let t = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "ProfPage",
        )
        .unwrap()
        .unwrap();
        assert_eq!(&*t, u.site.ground_truth("ProfPage", &url).unwrap());
        assert_eq!((c.light_connections, c.downloads, c.from_store), (0, 1, 0));
        assert_eq!(u.site.server.stats().gets, 1);
        assert_eq!(u.site.server.stats().heads, 0);
        assert_eq!(store.get(&url).map(|p| &p.tuple), Some(&t));
        // evicted again within the same query: `checked` or not, the content
        // has to come from the server — never "the page is gone"
        assert!(store.evict(&u.site.scheme, &url));
        let again = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "ProfPage",
        )
        .unwrap();
        assert_eq!(again, Some(t));
        assert_eq!((c.light_connections, c.downloads, c.from_store), (0, 2, 0));
    }

    #[test]
    fn updated_page_is_redownloaded() {
        let (mut u, mut store) = setup();
        u.update_course_description(3, "changed!").unwrap();
        let mut c = CheckCounters::default();
        let url = University::course_url(3);
        let t = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "CoursePage",
        )
        .unwrap()
        .unwrap();
        assert_eq!(t.get("Description").unwrap().as_text(), Some("changed!"));
        assert_eq!(c.downloads, 1);
        // the store now holds the fresh version
        assert_eq!(
            store
                .get(&url)
                .unwrap()
                .tuple
                .get("Description")
                .unwrap()
                .as_text(),
            Some("changed!")
        );
    }

    #[test]
    fn second_check_in_same_query_is_free() {
        let (u, mut store) = setup();
        let mut c = CheckCounters::default();
        let url = University::prof_url(1);
        for _ in 0..3 {
            url_check(
                &mut store,
                &mut c,
                &u.site.scheme,
                &u.site.server,
                &url,
                "ProfPage",
            )
            .unwrap();
        }
        assert_eq!(c.light_connections, 1);
        assert_eq!(c.from_store, 3);
    }

    #[test]
    fn deleted_page_detected_and_queued() {
        let (mut u, mut store) = setup();
        u.remove_course(2).unwrap();
        let mut c = CheckCounters::default();
        let url = University::course_url(2);
        let t = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "CoursePage",
        )
        .unwrap();
        assert!(t.is_none());
        assert!(store.get(&url).is_none());
        assert!(store.check_missing.contains(&url));
    }

    #[test]
    fn new_outlinks_marked_new() {
        let (mut u, mut store) = setup();
        // adding a course updates the professor page with a new outlink
        let id = u.add_course(1, "Fall", "Graduate").unwrap();
        let mut c = CheckCounters::default();
        let prof = University::prof_url(1);
        url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &prof,
            "ProfPage",
        )
        .unwrap()
        .unwrap();
        let new_course = University::course_url(id);
        assert_eq!(store.status(&new_course), UrlStatus::New);
        // and checking the new course downloads it without a light
        // connection
        let before = c;
        url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &new_course,
            "CoursePage",
        )
        .unwrap()
        .unwrap();
        assert_eq!(c.light_connections, before.light_connections);
        assert_eq!(c.downloads, before.downloads + 1);
    }

    #[test]
    fn removed_outlinks_marked_missing() {
        let (mut u, mut store) = setup();
        // find the professor of course 4, then remove the course
        let prof_idx = {
            let t = u
                .site
                .ground_truth("CoursePage", &University::course_url(4))
                .unwrap();
            let prof_url = t.get("ToProf").unwrap().as_link().unwrap().clone();
            (0..u.prof_count())
                .find(|&i| University::prof_url(i) == prof_url)
                .unwrap()
        };
        u.remove_course(4).unwrap();
        let mut c = CheckCounters::default();
        let prof = University::prof_url(prof_idx);
        url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &prof,
            "ProfPage",
        )
        .unwrap()
        .unwrap();
        assert_eq!(store.status(&University::course_url(4)), UrlStatus::Missing);
    }

    #[test]
    fn transient_head_failure_serves_stale_and_retains() {
        let (u, mut store) = setup();
        let url = University::prof_url(0);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(7).with_rule(
                websim::FaultRule::unavailable(1.0)
                    .for_url_prefix(url.as_str())
                    .with_max_per_url(None),
            ),
        );
        let mut c = CheckCounters::default();
        let t = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "ProfPage",
        )
        .unwrap()
        .expect("stored copy must be served stale");
        assert_eq!(&t, &store.get(&url).unwrap().tuple);
        assert_eq!(c.stale_served, 1);
        assert!(store.is_stale(&url), "flag records unverified freshness");
        assert!(
            !store.check_missing.contains(&url),
            "a 503 is not a deletion"
        );
        // once the outage clears, a successful light connection lifts the flag
        u.site.server.clear_fault_plan();
        store.reset_status();
        let mut c2 = CheckCounters::default();
        url_check(
            &mut store,
            &mut c2,
            &u.site.scheme,
            &u.site.server,
            &url,
            "ProfPage",
        )
        .unwrap()
        .unwrap();
        assert!(!store.is_stale(&url));
        assert_eq!(c2.stale_served, 0);
    }

    #[test]
    fn transient_failure_without_stored_copy_is_unreachable() {
        let (u, mut store) = setup();
        let url = University::course_url(5);
        store.remove(&url); // never materialized this page
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(7).with_rule(
                websim::FaultRule::timeouts(1.0)
                    .for_url_prefix(url.as_str())
                    .with_max_per_url(None),
            ),
        );
        let mut c = CheckCounters::default();
        let err = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "CoursePage",
        )
        .unwrap_err();
        assert!(
            matches!(err, MatError::Unreachable { url: ref u, .. } if *u == url),
            "got {err}"
        );
        assert_eq!(c.stale_served, 0);
    }

    #[test]
    fn every_status_and_storage_combination_is_panic_free() {
        // Regression for the `expect("checked above")` that used to sit on
        // the freshness comparison: drive the check through every
        // (status, stored copy) combination and assert it answers — never
        // panics — in each.
        let (u, mut store) = setup();
        let url = University::course_url(2);
        let combos: [(Option<UrlStatus>, bool); 6] = [
            (None, true),                     // no status, stored → HEAD path
            (None, false),                    // no status, nothing stored → download
            (Some(UrlStatus::New), true),     // flagged new with a stored copy
            (Some(UrlStatus::New), false),    // flagged new, nothing stored
            (Some(UrlStatus::Missing), true), // suspected missing, still stored
            (Some(UrlStatus::Missing), false),
        ];
        for (status, keep_copy) in combos {
            let mut s = store.clone();
            s.reset_status();
            if let Some(st) = status {
                s.set_status(url.clone(), st);
            }
            if !keep_copy {
                s.remove(&url);
            }
            let mut c = CheckCounters::default();
            let t = url_check(
                &mut s,
                &mut c,
                &u.site.scheme,
                &u.site.server,
                &url,
                "CoursePage",
            )
            .unwrap();
            assert_eq!(
                t.as_deref(),
                u.site.ground_truth("CoursePage", &url),
                "status {status:?}, stored {keep_copy}"
            );
            assert_eq!(s.status(&url), UrlStatus::Checked);
        }
        let _ = &mut store;
    }

    #[test]
    fn permanent_rot_still_removes_and_queues() {
        let (u, mut store) = setup();
        let url = University::course_url(1);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(7)
                .with_rule(websim::FaultRule::link_rot(1.0).for_url_prefix(url.as_str())),
        );
        let mut c = CheckCounters::default();
        let t = url_check(
            &mut store,
            &mut c,
            &u.site.scheme,
            &u.site.server,
            &url,
            "CoursePage",
        )
        .unwrap();
        assert!(t.is_none(), "permanent 404 keeps the seed deletion path");
        assert!(store.get(&url).is_none());
        assert!(store.check_missing.contains(&url));
    }
}
