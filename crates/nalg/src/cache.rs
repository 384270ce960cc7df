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
//!   single lock, and a hit takes only its shard's *read* lock;
//! * **compact** — a page is kept as one immutable buffer, its
//!   [`adm::Tuple::encode`]d form, and charged the bytes it holds: the
//!   URL plus the buffer's length. Encoded, a page takes about a third of
//!   its [`adm::Tuple::approx_bytes`]. The buffer is checked
//!   ([`adm::EncodedTuple`]) once, when it is inserted; a hit hands it out
//!   as it is, and the evaluator reads the page in place from it, as far
//!   as the fields it keeps; [`SharedPageCache::get`] decodes a copy for a
//!   caller that wants a [`Tuple`];
//! * **size-bounded** — the byte budget is enforced per shard with S3-FIFO
//!   eviction (Yang et al., SOSP 2023): a page enters a small probationary
//!   queue, is promoted to the main queue only if it is read again before
//!   it reaches that queue's head, and a page read again soon after being
//!   dropped from it goes straight to main. A one-shot scan passes through
//!   the small queue without displacing the pages that are re-read. A page
//!   too large for the main queue's share of its shard is not cached;
//! * **freshness-aware** — entries carry an optional Last-Modified stamp;
//!   [`SharedPageCache::invalidate_older_than`] lets a URL-check protocol
//!   (matview) drop entries superseded by a newer server copy.
//!
//! Accounting matters more than raw speed here: hits served from this
//! cache are **not** page accesses. The evaluator reports them separately
//! (`EvalReport::shared_cache_hits`) so every paper experiment can still
//! run with the shared cache disabled and reproduce the original numbers.

use adm::{EncodedTuple, Tuple, Url};
use obs::{Counter, MetricsRegistry};
use parking_lot::RwLock;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Number of independently locked shards. A power of two; sized so that a
/// 16-worker fetch pool rarely contends on a shard lock.
pub const SHARDS: usize = 16;

/// Default total byte budget (16 MiB) — plenty for the paper's simulated
/// sites while still exercising eviction in stress tests.
pub const DEFAULT_BYTE_BUDGET: usize = 16 << 20;

/// Share of a shard's budget, in percent, the small queue may hold before
/// eviction takes from it first.
const SMALL_PERCENT: usize = 10;

/// Cap of an entry's read count: a main-queue page survives at most this
/// many passes of the queue's head without being read again.
const FREQ_CAP: u8 = 3;

/// Queue slots a shard may carry beyond two per entry before the slots
/// left behind by invalidations are compacted away.
const SLOT_SLACK: usize = 16;

/// One cached wrapped page, encoded and checked by
/// [`SharedPageCache::insert`], and handed out as it is by each
/// [`SharedPageCache::get_encoded`]. The buffer is never written to — a
/// newer version replaces the entry.
struct Entry {
    page: EncodedTuple<Arc<[u8]>>,
    /// What the entry is charged against the shard's budget: the bytes it
    /// holds, the URL's and the buffer's.
    bytes: usize,
    /// Server Last-Modified stamp, when the inserting layer knows it.
    last_modified: Option<u64>,
    /// Reads since the entry last passed a queue head, capped at
    /// [`FREQ_CAP`]. Bumped under the shard's read lock with a relaxed
    /// load and store: two racing hits may count as one, which only makes
    /// the policy see a page as slightly colder than it is.
    freq: AtomicU8,
    /// Whether the entry's slot is in the main queue (else the small one).
    main: bool,
    /// The entry's live queue slot. A slot whose id differs was left
    /// behind by an invalidated entry of the same URL and is skipped.
    slot: u64,
}

/// URL hashes recently evicted from the small queue, at most as many as
/// the shard holds entries. A miss on one of them enters the main queue.
#[derive(Default)]
struct Ghosts {
    /// Hash → sequence number of its live slot in `order`.
    live: HashMap<u64, u64>,
    order: VecDeque<(u64, u64)>,
    seq: u64,
}

impl Ghosts {
    fn remember(&mut self, hash: u64, cap: usize) {
        self.seq += 1;
        self.live.insert(hash, self.seq);
        self.order.push_back((hash, self.seq));
        while self.order.len() > cap {
            let Some((h, seq)) = self.order.pop_front() else {
                break;
            };
            if self.live.get(&h) == Some(&seq) {
                self.live.remove(&h);
            }
        }
    }

    /// True (and forgotten) if `hash` is a ghost.
    fn take(&mut self, hash: u64) -> bool {
        self.live.remove(&hash).is_some()
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<Url, Entry>,
    small: VecDeque<(Url, u64)>,
    main: VecDeque<(Url, u64)>,
    ghosts: Ghosts,
    /// Bytes of all entries, and of the small queue's.
    bytes: usize,
    small_bytes: usize,
    next_slot: u64,
}

impl Shard {
    /// Evicts one entry: the small queue's head while that queue is over
    /// its share (or main is empty), else main's. A small-queue page read
    /// since it entered moves to main instead; a main page read since it
    /// last passed the head goes round again with one read fewer. False if
    /// the shard is empty.
    fn evict_one(&mut self, small_budget: usize) -> bool {
        while self.bytes > 0 {
            let from_small = self.small_bytes > small_budget || self.small_bytes == self.bytes;
            let queue = if from_small {
                &mut self.small
            } else {
                &mut self.main
            };
            let Some(head) = queue.pop_front() else {
                return false;
            };
            let Some(e) = self.map.get_mut(&head.0).filter(|e| e.slot == head.1) else {
                continue; // left behind by an invalidated entry
            };
            let freq = e.freq.get_mut();
            if *freq > 0 {
                if from_small {
                    e.main = true;
                    self.small_bytes -= e.bytes;
                } else {
                    *freq -= 1;
                }
                self.main.push_back(head);
                continue;
            }
            let (url, _) = head;
            if let Some(e) = self.map.remove(&url) {
                self.bytes -= e.bytes;
                if from_small {
                    self.small_bytes -= e.bytes;
                    self.ghosts.remember(hash_of(&url), self.map.len());
                }
            }
            return true;
        }
        false
    }

    /// Drops `url`'s entry. Its slot stays behind until compaction.
    fn remove<Q>(&mut self, url: &Q) -> bool
    where
        Url: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(e) = self.map.remove(url) else {
            return false;
        };
        self.bytes -= e.bytes;
        if !e.main {
            self.small_bytes -= e.bytes;
        }
        self.compact();
        true
    }

    /// Drops stale slots once they outnumber the entries: without this,
    /// invalidate / re-insert churn at a budget that never evicts would
    /// grow the queues forever.
    fn compact(&mut self) {
        if self.small.len() + self.main.len() > 2 * self.map.len() + SLOT_SLACK {
            let map = &self.map;
            let live = |(u, s): &(Url, u64)| map.get(u).is_some_and(|e| e.slot == *s);
            self.small.retain(live);
            self.main.retain(live);
        }
    }
}

fn hash_of<Q: Hash + ?Sized>(url: &Q) -> u64 {
    let mut h = DefaultHasher::new();
    url.hash(&mut h);
    h.finish()
}

/// Point-in-time counters of cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Inserts refused because the page alone exceeds the main queue's
    /// share of one shard's budget (total budget / [`SHARDS`], less the
    /// small queue's share): such a page could only be kept by flushing
    /// its shard, so it is never cached, and every request for it goes to
    /// the network.
    pub rejected_oversize: u64,
    /// Current number of cached pages.
    pub entries: usize,
    /// Current resident bytes: URLs plus encoded pages.
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
    registry: MetricsRegistry,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    invalidations: Counter,
    rejected_oversize: Counter,
}

impl Default for SharedPageCache {
    fn default() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }
}

impl SharedPageCache {
    /// A cache bounded by `budget` bytes in total, of URLs and encoded
    /// pages.
    pub fn with_byte_budget(budget: usize) -> Self {
        let registry = MetricsRegistry::with_prefix("cache");
        SharedPageCache {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            shard_budget: (budget / SHARDS).max(1),
            hits: registry.counter("hits"),
            misses: registry.counter("misses"),
            insertions: registry.counter("insertions"),
            evictions: registry.counter("evictions"),
            invalidations: registry.counter("invalidations"),
            rejected_oversize: registry.counter("rejected_oversize"),
            registry,
        }
    }

    /// The registry backing this cache's counters (prefix `cache`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn shard_of<Q: Hash + ?Sized>(&self, url: &Q) -> &RwLock<Shard> {
        &self.shards[(hash_of(url) as usize) % SHARDS]
    }

    /// Looks up a page by URL (a `&Url` or its `&str`, so a caller holding
    /// a link symbol need not build a `Url`): the one lookup, which counts
    /// every hit and miss. A hit takes the shard's read lock only to bump
    /// the entry's read count and clone its buffer, which was
    /// [checked](EncodedTuple::parse) when it was inserted: what it hands
    /// out is the caller's to keep and to read in place, with no second
    /// check.
    pub fn get_encoded<Q>(&self, url: &Q) -> Option<EncodedTuple<Arc<[u8]>>>
    where
        Url: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard = self.shard_of(url).read();
        let Some(e) = shard.map.get(url) else {
            self.misses.inc();
            return None;
        };
        let freq = e.freq.load(Ordering::Relaxed);
        if freq < FREQ_CAP {
            e.freq.store(freq + 1, Ordering::Relaxed);
        }
        self.hits.inc();
        Some(e.page.clone())
    }

    /// [`SharedPageCache::get_encoded`], decoded: a new page equal to the
    /// one [`SharedPageCache::insert`] was given. The evaluator reads its
    /// hits in place instead; this copy is for callers that want a
    /// [`Tuple`].
    pub fn get<Q>(&self, url: &Q) -> Option<Arc<Tuple>>
    where
        Url: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_encoded(url).map(|page| Arc::new(page.to_tuple()))
    }

    /// Inserts (or refreshes) a page, evicting if the shard exceeds its
    /// byte budget. A new URL enters the small queue, or the main queue if
    /// it was recently evicted from the small one; a refreshed URL keeps
    /// its place. The page is encoded and checked before the shard is
    /// locked, and the cache keeps only the encoding. A page whose URL and
    /// encoding exceed the main queue's share of a shard, which it could
    /// only enter by evicting everything else there, is not cached, and
    /// counted in [`CacheStats::rejected_oversize`].
    pub fn insert(&self, url: &Url, tuple: &Arc<Tuple>, last_modified: Option<u64>) {
        self.insert_encoded(url, tuple.encode().into(), last_modified);
    }

    /// [`SharedPageCache::insert`] from the encoding: the gate every page
    /// passes. The buffer is [checked](EncodedTuple::parse) here, once, so
    /// that no hit checks it again; one that does not parse is not cached.
    /// A refused buffer, too large or not parsing, drops the older copy it
    /// supersedes.
    fn insert_encoded(&self, url: &Url, page: Arc<[u8]>, last_modified: Option<u64>) {
        let bytes = url.as_str().len() + page.len();
        let small_budget = self.shard_budget * SMALL_PERCENT / 100;
        let checked = if bytes > self.shard_budget - small_budget {
            self.rejected_oversize.inc();
            None
        } else {
            EncodedTuple::parse(page)
        };
        let Some(page) = checked else {
            if self.shard_of(url).write().remove(url) {
                self.invalidations.inc();
            }
            return;
        };
        let hash = hash_of(url);
        let mut guard = self.shards[(hash as usize) % SHARDS].write();
        let shard = &mut *guard;
        if let Some(e) = shard.map.get_mut(url) {
            shard.bytes = shard.bytes - e.bytes + bytes;
            if !e.main {
                shard.small_bytes = shard.small_bytes - e.bytes + bytes;
            }
            e.page = page;
            e.bytes = bytes;
            e.last_modified = last_modified;
        } else {
            let main = shard.ghosts.take(hash);
            let slot = shard.next_slot;
            shard.next_slot += 1;
            let entry = Entry {
                page,
                bytes,
                last_modified,
                freq: AtomicU8::new(0),
                main,
                slot,
            };
            shard.map.insert(url.clone(), entry);
            if main {
                shard.main.push_back((url.clone(), slot));
            } else {
                shard.small.push_back((url.clone(), slot));
                shard.small_bytes += bytes;
            }
            shard.bytes += bytes;
        }
        self.insertions.inc();
        while shard.bytes > self.shard_budget && shard.evict_one(small_budget) {
            self.evictions.inc();
        }
        shard.compact();
    }

    /// Drops a page (e.g. the server now returns 404 for it).
    pub fn invalidate(&self, url: &Url) {
        if self.shard_of(url).write().remove(url) {
            self.invalidations.inc();
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
        if stale && shard.remove(url) {
            self.invalidations.inc();
        }
        stale
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.write();
            self.invalidations.add(s.map.len() as u64);
            *s = Shard::default();
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
    use proptest::prelude::*;

    impl SharedPageCache {
        /// Inserts `bytes` as they are, through the gate
        /// [`SharedPageCache::insert`] takes: a buffer that no page encodes
        /// to can be offered.
        pub(crate) fn insert_raw(&self, url: &Url, bytes: &[u8]) {
            self.insert_encoded(url, bytes.into(), None);
        }
    }

    fn page(name: &str) -> Arc<Tuple> {
        Arc::new(Tuple::new().with("Name", name))
    }

    /// Every shard's books against its entries: each entry is charged the
    /// bytes it holds, resident bytes are the sum of those charges, within
    /// the budget, and the queues carry at most two slots an entry plus
    /// [`SLOT_SLACK`].
    fn audit(cache: &SharedPageCache) {
        for shard in &cache.shards {
            let s = shard.read();
            let mut small = 0;
            for (url, e) in &s.map {
                let page = e.page.to_tuple().encode();
                assert_eq!(e.bytes, url.as_str().len() + page.len());
                small += if e.main { 0 } else { e.bytes };
            }
            let bytes: usize = s.map.values().map(|e| e.bytes).sum();
            assert_eq!((s.bytes, s.small_bytes), (bytes, small));
            assert!(s.bytes <= cache.shard_budget);
            assert!(s.small.len() + s.main.len() <= 2 * s.map.len() + SLOT_SLACK);
        }
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = SharedPageCache::default();
        let url = Url::new("/a");
        assert_eq!(cache.get(&url), None);
        cache.insert(&url, &page("a"), None);
        assert_eq!(cache.get(&url), Some(page("a")));
        assert_eq!(
            cache.get("/a"),
            Some(page("a")),
            "a &str probe finds the entry"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn byte_budget_evicts() {
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
        audit(&cache);
    }

    #[test]
    fn a_hit_is_the_inserted_page_and_outlives_its_entry() {
        let cache = SharedPageCache::default();
        let (url, v1, v2) = (Url::new("/a"), page("v1"), page("v2"));
        cache.insert(&url, &v1, Some(1));
        let hit = cache.get(&url).unwrap();
        assert_eq!(hit, v1);
        assert_eq!(Arc::strong_count(&v1), 1, "the cache holds the encoding");
        assert!(
            !Arc::ptr_eq(&hit, &cache.get(&url).unwrap()),
            "a hit is a copy"
        );
        // a newer version replaces the entry; the reader keeps the old page
        cache.insert(&url, &v2, Some(2));
        assert_eq!(cache.get(&url).unwrap(), v2);
        cache.invalidate(&url);
        assert_eq!((hit, cache.get(&url)), (page("v1"), None));
    }

    #[test]
    fn a_buffer_that_does_not_decode_is_a_miss_and_dropped() {
        let cache = SharedPageCache::default();
        let url = Url::new("/a");
        cache.insert(&url, &page("a"), None);
        // The copy it supersedes is dropped, and it is not cached itself.
        let bytes = page("b").encode();
        cache.insert_raw(&url, &bytes[..bytes.len() - 1]);
        assert_eq!(cache.get(&url), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.entries), (0, 1, 1, 0));
        assert_eq!(s.insertions, 1);
        cache.insert_raw(&url, &bytes);
        assert_eq!(cache.get(&url), Some(page("b")), "the same gate admits it");
        audit(&cache);
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
        // A refused newer version does not leave the older one served,
        // and the older one is counted as dropped.
        cache.insert(&Url::new("/small"), &big, None);
        assert_eq!(cache.get(&Url::new("/small")), None);
        let s = cache.stats();
        assert_eq!((s.rejected_oversize, s.invalidations, s.entries), (2, 1, 0));
        audit(&cache);
    }

    #[test]
    fn a_page_that_would_flush_its_shard_is_refused() {
        // 400 B a shard, of which the main queue may hold 360.
        let cache = SharedPageCache::with_byte_budget(SHARDS * 400);
        let main = 400 - 400 * SMALL_PERCENT / 100;
        let charge = |url: &str, n: usize| url.len() + page(&"m".repeat(n)).encode().len();
        let at = (0..400).find(|&n| charge("/at", n) == main).unwrap();
        assert!((main + 1..=400).contains(&charge("/over", at)));
        cache.insert(&Url::new("/s"), &page("s"), None);
        cache.insert(&Url::new("/at"), &page(&"m".repeat(at)), None);
        cache.insert(&Url::new("/over"), &page(&"m".repeat(at)), None);
        let s = cache.stats();
        assert_eq!((s.rejected_oversize, s.insertions, s.evictions), (1, 2, 0));
        assert!(cache.get(&Url::new("/s")).is_some());
        assert!(cache.get(&Url::new("/at")).is_some());
        assert_eq!(cache.get(&Url::new("/over")), None);
        audit(&cache);
    }

    // A hot set read between passes of a one-shot scan many times larger
    // than the cache stays resident: scanned pages are never read again,
    // so they leave through the small queue, while the hot pages, read
    // while there, were promoted to main. Per-shard LRU evicts the whole
    // hot set on every pass.
    #[test]
    fn a_hot_set_survives_a_scan() {
        let cache = SharedPageCache::with_byte_budget(SHARDS * 4096);
        let hot: Vec<Url> = (0..24).map(|i| Url::new(format!("/hot/{i}"))).collect();
        for u in &hot {
            cache.insert(u, &page(&"h".repeat(100)), None);
        }
        for pass in 0..3 {
            for u in &hot {
                assert!(cache.get(u).is_some(), "{u} lost before scan pass {pass}");
            }
            for i in 0..3_000 {
                let u = Url::new(format!("/scan/{pass}/{i}"));
                assert!(cache.get(&u).is_none());
                cache.insert(&u, &page(&"s".repeat(100)), None);
            }
        }
        let survivors = hot.iter().filter(|u| cache.get(*u).is_some()).count();
        assert_eq!(survivors, hot.len());
        assert!(cache.stats().evictions >= 8_000);
        audit(&cache);
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

    // The default budget never evicts, so only compaction bounds the slots
    // that invalidate / re-insert churn leaves behind (a matview store
    // writes its refreshed pages through every round).
    #[test]
    fn invalidation_churn_leaves_bounded_queues() {
        let cache = SharedPageCache::default();
        let urls: Vec<Url> = (0..40).map(|i| Url::new(format!("/c/{i}"))).collect();
        for round in 0..2_000u64 {
            for (i, u) in urls.iter().enumerate() {
                cache.insert(u, &page("c"), Some(round));
                if (i as u64 + round).is_multiple_of(3) {
                    cache.invalidate_older_than(u, round + 1);
                }
            }
            audit(&cache);
        }
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn concurrent_mixed_use_is_safe() {
        // Room for four pages a shard, of the seven or eight URLs each
        // shard is given: hits race promotions and evictions.
        let budget = SHARDS * 4 * ("/t/100".len() + page("c").encode().len());
        let cache = SharedPageCache::with_byte_budget(budget);
        let (gets, inserts) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|t| {
                    let cache = &cache;
                    s.spawn(move || {
                        let (mut gets, mut inserts) = (0, 0);
                        for i in 0..2_000 {
                            let url = Url::new(format!("/t/{}", (t * 7 + i) % 120));
                            match i % 7 {
                                0 | 3 => {
                                    cache.insert(&url, &page("c"), Some(i as u64));
                                    inserts += 1;
                                }
                                5 => cache.invalidate(&url),
                                _ => {
                                    let _ = cache.get(url.as_str());
                                    gets += 1;
                                }
                            }
                        }
                        (gets, inserts)
                    })
                })
                .collect();
            let counts = workers.into_iter().map(|w| w.join().unwrap());
            counts.fold((0, 0), |(g, n), (dg, dn)| (g + dg, n + dn))
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, gets);
        assert_eq!(s.insertions, inserts);
        assert!(s.hits > 0 && s.evictions > 0);
        assert!(s.bytes <= budget);
        audit(&cache);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(usize),
        Insert(usize, usize, Option<u64>),
        Invalidate(usize),
        InvalidateOlderThan(usize, u64),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        let url = 0usize..24;
        prop_oneof![
            (url.clone()).prop_map(Op::Get),
            (url.clone()).prop_map(Op::Get),
            (url.clone(), 0usize..300, 0u64..8).prop_map(|(u, n, lm)| Op::Insert(
                u,
                n,
                (lm > 0).then_some(lm)
            )),
            (url.clone()).prop_map(Op::Invalidate),
            (url, 0u64..8).prop_map(|(u, lm)| Op::InvalidateOlderThan(u, lm)),
            (0usize..40).prop_map(|n| if n == 0 { Op::Clear } else { Op::Get(n % 24) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random operation sequences against a model holding the last page
        // inserted per URL and not dropped since. The cache may forget a
        // page (eviction) but never serves one the model does not hold, and
        // at a budget that cannot fill it forgets nothing.
        #[test]
        fn the_cache_agrees_with_its_model(
            ops in prop::collection::vec(op(), 1..400),
            roomy in any::<bool>(),
        ) {
            let budget = if roomy { DEFAULT_BYTE_BUDGET } else { SHARDS * 700 };
            let cache = SharedPageCache::with_byte_budget(budget);
            let urls: Vec<Url> = (0..24).map(|i| Url::new(format!("/m/{i}"))).collect();
            let mut model: HashMap<usize, (Arc<Tuple>, Option<u64>)> = HashMap::new();
            let mut gets = 0;
            for op in ops {
                match op {
                    Op::Get(u) => {
                        gets += 1;
                        let hit = cache.get(urls[u].as_str());
                        match (&hit, model.get(&u)) {
                            (Some(h), Some((p, _))) => prop_assert_eq!(h, p),
                            (Some(_), None) => prop_assert!(false, "served a dropped page"),
                            (None, held) => prop_assert!(!roomy || held.is_none()),
                        }
                    }
                    Op::Insert(u, n, lm) => {
                        let p = page(&"p".repeat(n));
                        cache.insert(&urls[u], &p, lm);
                        let main = cache.shard_budget - cache.shard_budget * SMALL_PERCENT / 100;
                        if urls[u].as_str().len() + p.encode().len() <= main {
                            model.insert(u, (p, lm));
                        } else {
                            model.remove(&u);
                        }
                    }
                    Op::Invalidate(u) => {
                        cache.invalidate(&urls[u]);
                        model.remove(&u);
                    }
                    Op::InvalidateOlderThan(u, lm) => {
                        let dropped = cache.invalidate_older_than(&urls[u], lm);
                        let stale = model
                            .get(&u)
                            .is_some_and(|(_, at)| at.is_none_or(|at| at < lm));
                        prop_assert!(!dropped || stale);
                        prop_assert!(!roomy || dropped == stale);
                        if stale {
                            model.remove(&u);
                        }
                    }
                    Op::Clear => {
                        cache.clear();
                        model.clear();
                    }
                }
                let s = cache.stats();
                prop_assert_eq!(s.hits + s.misses, gets);
                prop_assert!(s.bytes <= budget);
                prop_assert!(!roomy || s.entries == model.len());
                audit(&cache);
            }
        }
    }
}
