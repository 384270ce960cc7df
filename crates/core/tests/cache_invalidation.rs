//! Integration tests for [`nalg::SharedPageCache`] Last-Modified
//! invalidation when the server's `put_updated` races concurrent reads.
//!
//! The cache is read the way it ships: an [`Evaluator`] under
//! [`EvalPolicy::shared_cache`] consults it before the network and writes
//! every download through. It is write-through and never authoritative: a page updated on
//! the server keeps being served from cache until a URL check (HEAD)
//! observes the newer Last-Modified stamp and calls
//! `invalidate_older_than`. These tests pin the three read paths — cold,
//! warm, invalidated — on exact hit/miss counters, and show that the
//! protocol converges even when a slow reader re-inserts a stale tuple
//! *after* the invalidation ran.

use adm::{Field, PageScheme, Tuple, Url, WebScheme};
use nalg::{EvalPolicy, Evaluator, NalgExpr, PageSource, SharedPageCache};
use websim::VirtualServer;
use wvcore::LiveSource;

fn one_page_site() -> (WebScheme, VirtualServer, Url) {
    let scheme = WebScheme::builder()
        .scheme(PageScheme::new("P", vec![Field::text("A")]).unwrap())
        .entry_point("P", "/p.html")
        .build()
        .unwrap();
    let server = VirtualServer::new();
    let url = Url::new("/p.html");
    server.put(url.clone(), "P", body("v1"));
    (scheme, server, url)
}

fn body(v: &str) -> String {
    format!(r#"<div class="adm-page"><span data-attr="A">{v}</span></div>"#)
}

fn text_of(t: &Tuple) -> String {
    t.get("A").unwrap().as_text().unwrap().to_string()
}

/// One query reading the page through `cache`: a hit costs no connection,
/// a miss is downloaded and written through with its Last-Modified stamp.
fn read(ws: &WebScheme, live: &LiveSource<'_>, cache: &SharedPageCache) -> String {
    let report = Evaluator::new(ws, live)
        .with_policy(&EvalPolicy {
            shared_cache: Some(cache),
            ..Default::default()
        })
        .eval(&NalgExpr::entry("P").project(vec!["P.A"]))
        .unwrap();
    report.relation.rows()[0][0].as_text().unwrap().to_string()
}

#[test]
fn cold_warm_invalidated_paths_on_hit_miss_counters() {
    let (ws, server, url) = one_page_site();
    let live = LiveSource::new(&ws, &server);
    let cache = SharedPageCache::default();

    // cold: miss, forwarded to the server, written through
    assert_eq!(read(&ws, &live, &cache), "v1");
    assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
    assert_eq!(server.stats().gets, 1);

    // warm: hit, no connection
    assert_eq!(read(&ws, &live, &cache), "v1");
    assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    assert_eq!(server.stats().gets, 1);

    // the server publishes v2; the cache keeps answering v1 until a HEAD
    // observes the newer stamp and invalidates
    server.put_updated(url.clone(), "P", body("v2"));
    assert_eq!(read(&ws, &live, &cache), "v1");
    assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));

    let lm = server.head(&url).unwrap().last_modified;
    assert!(cache.invalidate_older_than(&url, lm), "older entry dropped");
    assert_eq!(cache.stats().invalidations, 1);

    // invalidated: miss again, the fresh tuple comes from the server
    assert_eq!(read(&ws, &live, &cache), "v2");
    assert_eq!((cache.stats().hits, cache.stats().misses), (2, 2));
    assert_eq!(server.stats().gets, 2);

    // a current entry survives the same check
    assert!(!cache.invalidate_older_than(&url, lm), "entry is current");
    assert_eq!(read(&ws, &live, &cache), "v2");
    assert_eq!((cache.stats().hits, cache.stats().misses), (3, 2));
}

#[test]
fn stale_reinsert_after_invalidation_is_caught_by_the_next_check() {
    // The race in slow motion: reader R misses, downloads v1, stalls;
    // writer publishes v2 and the URL check invalidates; R finally inserts
    // its v1 tuple (stamped with v1's Last-Modified). The cache is stale
    // again — but the *next* URL check sees lm(v1) < lm(v2) and drops it,
    // so staleness never survives a check.
    let (ws, server, url) = one_page_site();
    let live = LiveSource::new(&ws, &server);
    let cache = SharedPageCache::default();

    // reader R's download of v1, not yet inserted
    let (stale_tuple, stale_lm) = live.fetch_stamped(&url, "P").unwrap();

    // writer publishes v2; the URL check finds nothing cached to drop
    server.put_updated(url.clone(), "P", body("v2"));
    let lm2 = server.head(&url).unwrap().last_modified;
    assert!(!cache.invalidate_older_than(&url, lm2));

    // R wakes up and inserts its stale download
    cache.insert(&url, &std::sync::Arc::new(stale_tuple), stale_lm);
    assert_eq!(text_of(&cache.get(&url).unwrap()), "v1", "stale again");

    // the next check catches it
    assert!(cache.invalidate_older_than(&url, lm2));
    assert!(cache.get(&url).is_none());
    assert_eq!(read(&ws, &live, &cache), "v2");
    // counters saw exactly: one hit (the stale read), two misses (the
    // post-invalidation get + the refetch), one invalidation
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
}

#[test]
fn put_updated_racing_concurrent_reads_converges() {
    let (ws, server, url) = one_page_site();
    let live = LiveSource::new(&ws, &server);
    let cache = SharedPageCache::default();
    const VERSIONS: usize = 20;
    const READERS: usize = 4;

    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..200 {
                    // every answer must be a version that existed at some
                    // point — never a torn or phantom page
                    let v = read(&ws, &live, &cache);
                    let n: usize = v.strip_prefix('v').unwrap().parse().unwrap();
                    assert!((1..=VERSIONS).contains(&n), "phantom version {v}");
                }
            });
        }
        s.spawn(|| {
            for i in 2..=VERSIONS {
                server.put_updated(url.clone(), "P", body(&format!("v{i}")));
                let lm = server.head(&url).unwrap().last_modified;
                cache.invalidate_older_than(&url, lm);
            }
        });
    });

    // convergence: readers may have re-inserted any stale version, but one
    // final URL check flushes it and the cache settles on the last one
    let lm = server.head(&url).unwrap().last_modified;
    cache.invalidate_older_than(&url, lm);
    assert_eq!(read(&ws, &live, &cache), format!("v{VERSIONS}"));
    assert_eq!(
        text_of(&cache.get(&url).unwrap()),
        format!("v{VERSIONS}"),
        "the settled cache entry is the newest version"
    );
    // accounting stayed exact under the race
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, READERS as u64 * 200 + 2);
    assert_eq!(s.entries, 1);
}
