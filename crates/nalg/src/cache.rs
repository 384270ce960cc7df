//! Shared, sharded, size-bounded cross-query page cache.
//!
//! The per-query cache inside the evaluator reproduces the paper's cost
//! model (a page is charged once per query). This cache is the layer the
//! paper does *not* model: a production engine serving many queries over
//! the same site keeps wrapped pages around across queries, so the second
//! query over a site pays almost no network cost. It is:
//!
//! * **shared** — one instance can back many [`crate::Evaluator`]s, the
//!   crawler, and statistics collection concurrently (`&self` API, `Sync`);
//! * **sharded** — entries are spread over [`SHARDS`] independently locked
//!   shards by URL hash, so concurrent fetch workers do not serialize on a
//!   single lock;
//! * **size-bounded** — a byte budget (estimated via
//!   [`adm::Tuple::approx_bytes`]) is enforced per shard with LRU
//!   eviction;
//! * **freshness-aware** — entries carry an optional Last-Modified stamp;
//!   [`SharedPageCache::invalidate_older_than`] lets a URL-check protocol
//!   (matview) drop entries superseded by a newer server copy.
//!
//! Accounting matters more than raw speed here: hits served from this
//! cache are **not** page accesses. The evaluator reports them separately
//! (`EvalReport::shared_cache_hits`) so every paper experiment can still
//! run with the shared cache disabled and reproduce the original numbers.

use adm::{Tuple, Url};
use obs::trace::{EventKind, TraceSink};
use obs::{Counter, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked shards. A power of two; sized so that a
/// 16-worker fetch pool rarely contends on a shard lock.
pub const SHARDS: usize = 16;

/// Default total byte budget (16 MiB) — plenty for the paper's simulated
/// sites while still exercising eviction in stress tests.
pub const DEFAULT_BYTE_BUDGET: usize = 16 << 20;

/// One cached wrapped page. The cache owns a reference to the page, never
/// a copy of it: the `Arc` came in through [`SharedPageCache::insert`] and
/// goes out, cloned, through [`SharedPageCache::get`]. A cached page is
/// never written to — a newer version replaces the entry.
struct Entry {
    tuple: Arc<Tuple>,
    /// What the entry is charged against the shard's budget: the URL plus
    /// [`adm::Tuple::approx_bytes`] of the page, however many readers hold it.
    bytes: usize,
    /// Server Last-Modified stamp, when the inserting layer knows it.
    last_modified: Option<u64>,
    /// LRU stamp: value of the global clock at last touch.
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Url, Entry>,
    /// stamp → URL index for O(log n) LRU eviction. Stamps are unique
    /// (global atomic counter), so this is a faithful recency order.
    by_stamp: BTreeMap<u64, Url>,
    bytes: usize,
}

/// Point-in-time counters of cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Inserts refused because the page alone exceeds one shard's budget
    /// (total budget / [`SHARDS`]): such a page is never cached, and every
    /// request for it goes to the network.
    pub rejected_oversize: u64,
    /// Current number of cached pages.
    pub entries: usize,
    /// Current estimated resident bytes.
    pub bytes: usize,
}

/// See module docs.
///
/// Counters live in an [`obs::MetricsRegistry`] (prefix `cache`);
/// [`CacheStats`] is a point-in-time view over those registry cells, so
/// the numbers are identical to the pre-registry ad-hoc atomics.
pub struct SharedPageCache {
    shards: Vec<RwLock<Shard>>,
    /// Byte budget per shard (total budget / [`SHARDS`]).
    shard_budget: usize,
    clock: AtomicU64,
    registry: MetricsRegistry,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    invalidations: Counter,
    rejected_oversize: Counter,
    trace: Option<TraceSink>,
}

impl Default for SharedPageCache {
    fn default() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }
}

impl SharedPageCache {
    /// A cache bounded by `budget` estimated bytes in total.
    pub fn with_byte_budget(budget: usize) -> Self {
        let registry = MetricsRegistry::with_prefix("cache");
        SharedPageCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            shard_budget: (budget / SHARDS).max(1),
            clock: AtomicU64::new(0),
            hits: registry.counter("hits"),
            misses: registry.counter("misses"),
            insertions: registry.counter("insertions"),
            evictions: registry.counter("evictions"),
            invalidations: registry.counter("invalidations"),
            rejected_oversize: registry.counter("rejected_oversize"),
            registry,
            trace: None,
        }
    }

    /// Attaches a trace sink: evictions and invalidations are recorded
    /// as [`EventKind::Cache`] events. No effect on accounting.
    pub fn with_trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }

    /// The registry backing this cache's counters (prefix `cache`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn shard_of(&self, url: &Url) -> &RwLock<Shard> {
        let mut h = DefaultHasher::new();
        url.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up a page, refreshing its recency on hit. A hit hands out a
    /// reference to the cached page — `Arc::ptr_eq` to what
    /// [`SharedPageCache::insert`] was given — so the shard's write lock is
    /// held for a count bump, not for a deep copy, and the page stays
    /// readable after the entry is evicted or replaced.
    pub fn get(&self, url: &Url) -> Option<Arc<Tuple>> {
        let mut shard = self.shard_of(url).write();
        let stamp = self.tick();
        match shard.map.get_mut(url) {
            Some(e) => {
                let old = std::mem::replace(&mut e.stamp, stamp);
                let t = Arc::clone(&e.tuple);
                shard.by_stamp.remove(&old);
                shard.by_stamp.insert(stamp, url.clone());
                self.hits.inc();
                Some(t)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts (or refreshes) a page, evicting least-recently-used entries
    /// if the shard exceeds its byte budget. The cache keeps a clone of the
    /// `Arc`, not of the page: the caller and the cache share one copy. A
    /// page larger than a whole shard budget is not cached, and counted in
    /// [`CacheStats::rejected_oversize`].
    pub fn insert(&self, url: &Url, tuple: &Arc<Tuple>, last_modified: Option<u64>) {
        let bytes = url.as_str().len() + tuple.approx_bytes();
        if bytes > self.shard_budget {
            self.rejected_oversize.inc();
            return;
        }
        let mut shard = self.shard_of(url).write();
        let stamp = self.tick();
        if let Some(old) = shard.map.remove(url) {
            shard.bytes -= old.bytes;
            shard.by_stamp.remove(&old.stamp);
        }
        shard.map.insert(
            url.clone(),
            Entry {
                tuple: Arc::clone(tuple),
                bytes,
                last_modified,
                stamp,
            },
        );
        shard.by_stamp.insert(stamp, url.clone());
        shard.bytes += bytes;
        self.insertions.inc();
        while shard.bytes > self.shard_budget {
            // Over budget implies an entry, and every stamp indexes one.
            let Some((_, victim)) = shard.by_stamp.pop_first() else {
                break;
            };
            let Some(e) = shard.map.remove(&victim) else {
                continue;
            };
            shard.bytes -= e.bytes;
            self.evictions.inc();
            if let Some(sink) = &self.trace {
                sink.event(
                    EventKind::Cache,
                    "cache.evict",
                    None,
                    vec![("url".to_string(), victim.as_str().into())],
                );
            }
        }
    }

    /// Drops a page (e.g. the server now returns 404 for it).
    pub fn invalidate(&self, url: &Url) {
        let mut shard = self.shard_of(url).write();
        if let Some(e) = shard.map.remove(url) {
            shard.bytes -= e.bytes;
            shard.by_stamp.remove(&e.stamp);
            self.invalidations.inc();
            self.trace_invalidate(url);
        }
    }

    /// Drops the cached copy of `url` if it predates `last_modified` (or
    /// has no stamp at all). This is the URL-check hook: a HEAD request
    /// revealing a newer server copy invalidates the stale cached page.
    /// Returns true if an entry was dropped.
    pub fn invalidate_older_than(&self, url: &Url, last_modified: u64) -> bool {
        let mut shard = self.shard_of(url).write();
        let stale = shard
            .map
            .get(url)
            .is_some_and(|e| e.last_modified.is_none_or(|lm| lm < last_modified));
        if !stale {
            return false;
        }
        if let Some(e) = shard.map.remove(url) {
            shard.bytes -= e.bytes;
            shard.by_stamp.remove(&e.stamp);
            self.invalidations.inc();
            self.trace_invalidate(url);
        }
        true
    }

    fn trace_invalidate(&self, url: &Url) {
        if let Some(sink) = &self.trace {
            sink.event(
                EventKind::Cache,
                "cache.invalidate",
                None,
                vec![("url".to_string(), url.as_str().into())],
            );
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.write();
            let n = s.map.len() as u64;
            s.map.clear();
            s.by_stamp.clear();
            s.bytes = 0;
            self.invalidations.add(n);
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let s = shard.read();
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            rejected_oversize: self.rejected_oversize.get(),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(name: &str) -> Arc<Tuple> {
        Arc::new(Tuple::new().with("Name", name))
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = SharedPageCache::default();
        let url = Url::new("/a");
        assert_eq!(cache.get(&url), None);
        cache.insert(&url, &page("a"), None);
        assert_eq!(cache.get(&url), Some(page("a")));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Budget small enough that a few pages overflow one shard.
        let cache = SharedPageCache::with_byte_budget(SHARDS * 400);
        let urls: Vec<Url> = (0..64).map(|i| Url::new(format!("/p/{i}"))).collect();
        for (i, u) in urls.iter().enumerate() {
            cache.insert(u, &page(&format!("page-{i}-{}", "x".repeat(64))), None);
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "no evictions at {} bytes", s.bytes);
        assert!(s.bytes <= SHARDS * 400);
        // most-recently inserted page should still be resident
        assert!(cache.get(urls.last().unwrap()).is_some());
    }

    #[test]
    fn a_hit_is_the_inserted_page_and_outlives_its_entry() {
        let cache = SharedPageCache::default();
        let (url, v1, v2) = (Url::new("/a"), page("v1"), page("v2"));
        cache.insert(&url, &v1, Some(1));
        let hit = cache.get(&url).unwrap();
        assert!(Arc::ptr_eq(&hit, &v1) && Arc::ptr_eq(&hit, &cache.get(&url).unwrap()));
        // a newer version replaces the entry; the reader keeps the old page
        cache.insert(&url, &v2, Some(2));
        assert!(Arc::ptr_eq(&cache.get(&url).unwrap(), &v2));
        cache.invalidate(&url);
        assert_eq!((hit, Arc::strong_count(&v1)), (page("v1"), 2));
    }

    #[test]
    fn a_page_larger_than_a_shard_is_refused_and_counted() {
        let cache = SharedPageCache::with_byte_budget(SHARDS * 400);
        let big = page(&"x".repeat(400));
        cache.insert(&Url::new("/big"), &big, None);
        cache.insert(&Url::new("/small"), &page("s"), None);
        let s = cache.stats();
        assert_eq!((s.rejected_oversize, s.insertions, s.entries), (1, 1, 1));
        assert_eq!(cache.get(&Url::new("/big")), None);
        assert_eq!(cache.metrics().counter("rejected_oversize").get(), 1);
        assert_eq!(Arc::strong_count(&big), 1, "a refused page is not held");
    }

    #[test]
    fn lru_prefers_recently_used() {
        // Single-page budget per shard: inserting a second page into the
        // same shard evicts the first.
        let cache = SharedPageCache::with_byte_budget(SHARDS * 120);
        let a = Url::new("/a");
        cache.insert(&a, &page("a"), None);
        assert!(cache.get(&a).is_some());
        // Touch /a, then insert colliding pages until /a's shard overflows.
        for i in 0..64 {
            cache.insert(&Url::new(format!("/spill/{i}")), &page("s"), None);
        }
        let s = cache.stats();
        assert!(s.evictions > 0);
    }

    #[test]
    fn invalidate_older_than_is_last_modified_aware() {
        let cache = SharedPageCache::default();
        let url = Url::new("/p");
        cache.insert(&url, &page("v1"), Some(10));
        // Same-age server copy: keep.
        assert!(!cache.invalidate_older_than(&url, 10));
        assert!(cache.get(&url).is_some());
        // Newer server copy: drop.
        assert!(cache.invalidate_older_than(&url, 11));
        assert_eq!(cache.get(&url), None);
        // Unstamped entries are conservatively dropped.
        cache.insert(&url, &page("v?"), None);
        assert!(cache.invalidate_older_than(&url, 1));
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = SharedPageCache::default();
        for i in 0..10 {
            cache.insert(&Url::new(format!("/{i}")), &page("x"), None);
        }
        cache.invalidate(&Url::new("/3"));
        assert_eq!(cache.get(&Url::new("/3")), None);
        assert_eq!(cache.len(), 9);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn concurrent_mixed_use_is_safe() {
        let cache = SharedPageCache::with_byte_budget(SHARDS * 4096);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..200 {
                        let url = Url::new(format!("/t/{}", (t * 7 + i) % 50));
                        if i % 3 == 0 {
                            cache.insert(&url, &page("c"), Some(i as u64));
                        } else {
                            let _ = cache.get(&url);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.insertions > 0 && s.hits > 0);
        assert!(s.bytes <= SHARDS * 4096);
    }
}
