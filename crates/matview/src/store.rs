//! The local ADM database.
//!
//! One nested page-relation per page-scheme; each tuple carries the URL key
//! and an `AccessDate` — "besides ordinary attributes, we also store, for
//! each page, the date we accessed it". A per-query status flag
//! (`none | checked | new | missing`) drives URLCheck, and a persistent
//! `CheckMissing` queue collects URLs whose pages may have been deleted.
//!
//! State is **partial**: under a byte budget ([`MatStore::set_budget`]) the
//! coldest payloads are evicted (LRU over one logical clock), leaving the
//! scheme, the stale flag and the outlinks behind so reachability sweeps
//! stay free while the bytes go away. Reading an evicted page
//! ([`MatStore::read`]) issues a targeted **upquery** — one ordinary `GET`,
//! counted by the server like any other fetch. An unbudgeted store never
//! evicts and keeps no LRU stamps.
//!
//! Every page that enters the store comes through one routine,
//! [`MatStore::download`]; the crawl, URLCheck, the upquery and the
//! change-feed sync differ only in what they do when it reports the page
//! *gone* or the server *transiently* failing.
//!
//! The store also keeps **the plans it answered with**
//! ([`MatStore::plan_cache`]): Algorithm 3 opens by choosing a plan with
//! Algorithm 1, a [`crate::MatSession`] lives for one round, and the store
//! is the only value of a materialized-view query that lives longer.

use crate::{MatError, Result};
use adm::{Tuple, Url, WebScheme};
use nalg::{PageServer, SourceError};
use obs::{Counter, Gauge, MetricsRegistry};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use wvcore::{ExecPolicy, PlanCache, RuleMask, SiteStatistics, ViewCatalog, PLAN_CACHE_CAPACITY};

/// A materialized page: its wrapped tuple plus the logical date it was
/// last downloaded.
///
/// The store owns the page and lends it: `tuple` is the one copy, and
/// everything that reads a stored page — a URL check answering "use the
/// stored tuple", [`MatStore::read`], the delta a sync pushes through the
/// views — receives a clone of this `Arc`, never of the page. A stored page
/// is immutable; [`MatStore::download`] and [`MatStore::put`] *replace* it,
/// and a reader still holding the previous version keeps reading that
/// version. Bytes are charged once per stored page (URL +
/// [`adm::Tuple::approx_bytes`]), however many readers hold it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPage {
    /// The page-scheme the page belongs to.
    pub scheme: String,
    /// The wrapped nested tuple, shared with every reader.
    pub tuple: Arc<Tuple>,
    /// Logical time of the last download.
    pub access_date: u64,
    /// True when the last refresh attempt failed and the page was
    /// retained as-is: the tuple may no longer match the live page.
    /// Cleared by the next successful download ([`MatStore::put`]).
    pub stale: bool,
}

/// What the store holds for a URL.
#[derive(Debug, Clone)]
enum Entry {
    /// The payload is resident.
    Resident(StoredPage),
    /// The payload was evicted; what reachability and the next upquery
    /// need stays behind.
    Evicted {
        scheme: String,
        stale: bool,
        outlinks: Vec<(String, Url)>,
    },
}

impl Entry {
    fn stale(&self) -> bool {
        match self {
            Entry::Resident(p) => p.stale,
            Entry::Evicted { stale, .. } => *stale,
        }
    }

    fn stale_mut(&mut self) -> &mut bool {
        match self {
            Entry::Resident(p) => &mut p.stale,
            Entry::Evicted { stale, .. } => stale,
        }
    }

    /// The entry's outlinks: computed from the resident payload, or
    /// remembered from before the eviction.
    fn outlinks(&self, ws: &WebScheme) -> Vec<(String, Url)> {
        match self {
            Entry::Resident(p) => match ws.scheme(&p.scheme) {
                Ok(ps) => ps.outlinks(&p.tuple),
                Err(_) => Vec::new(),
            },
            Entry::Evicted { outlinks, .. } => outlinks.clone(),
        }
    }
}

/// Per-query URL status (the paper's `status(U)` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UrlStatus {
    /// Not seen in this query yet.
    #[default]
    None,
    /// Already checked during this query.
    Checked,
    /// Appeared as a new outlink of a re-downloaded page.
    New,
    /// Disappeared from a re-downloaded page's outlinks.
    Missing,
}

/// Least-recently-used order over one logical clock (the single-threaded
/// sibling of the `nalg::cache` sharded shape): the page store's eviction
/// order.
#[derive(Debug, Default, Clone)]
struct Lru {
    clock: u64,
    stamps: HashMap<Url, u64>,
    by_stamp: BTreeMap<u64, Url>,
}

impl Lru {
    /// Stamps `url` most-recently-used.
    fn touch(&mut self, url: &Url) {
        self.forget(url);
        self.clock += 1;
        self.stamps.insert(url.clone(), self.clock);
        self.by_stamp.insert(self.clock, url.clone());
    }

    fn forget(&mut self, url: &Url) {
        if let Some(stamp) = self.stamps.remove(url) {
            self.by_stamp.remove(&stamp);
        }
    }

    fn coldest(&self) -> Option<&Url> {
        self.by_stamp.values().next()
    }

    fn clear(&mut self) {
        *self = Lru::default();
    }
}

/// Point-in-time counters of a [`MatStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Pages with their payload resident.
    pub resident_pages: u64,
    /// Pages evicted down to scheme + outlinks.
    pub skeleton_pages: u64,
    /// Bytes held by resident payloads (URL + tuple estimate).
    pub resident_bytes: u64,
    /// Payload evictions performed.
    pub evictions: u64,
    /// Targeted upqueries issued (each one server `GET`).
    pub upqueries: u64,
    /// Reachability walks performed: calls of
    /// [`MatStore::sweep_unreachable`] that found the link graph moved.
    pub sweeps: u64,
}

/// The store's counters and gauges. Detached by default; an
/// [`crate::IncrementalView`] registers them under its `dataflow` prefix.
/// (They are shared handles: a cloned store reports into the same ones.)
#[derive(Debug, Default, Clone)]
struct StoreMetrics {
    evictions: Counter,
    upqueries: Counter,
    sweeps: Counter,
    resident_bytes: Gauge,
    resident_pages: Gauge,
    skeleton_pages: Gauge,
}

/// Everything besides the query's shape that a plan over the store depends
/// on. Sessions come and go between the store's queries, each borrowing
/// inputs of its own, so the store keeps a copy and compares by value.
#[derive(Debug)]
struct PlanInputs {
    mask: RuleMask,
    incomplete_navigations: bool,
    ws: WebScheme,
    catalog: ViewCatalog,
    stats: SiteStatistics,
}

/// The plan cache a store owns, and the context its plans are keyed on.
#[derive(Debug)]
pub(crate) struct StorePlans {
    cache: PlanCache,
    /// The inputs the cached plans were planned under, and how many
    /// different ones have been seen — the epoch sessions key plans on.
    planned_under: Mutex<(u64, Option<PlanInputs>)>,
}

impl StorePlans {
    fn registered(registry: &MetricsRegistry) -> Self {
        StorePlans {
            cache: PlanCache::with_registry(PLAN_CACHE_CAPACITY, registry, "store_plan")
                .winners_only(),
            planned_under: Mutex::new((0, None)),
        }
    }

    pub(crate) fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The context epoch for a session planning under these inputs — the
    /// planning half of its policy, the scheme, the catalog and the
    /// statistics: the current one when they equal — by value, never by
    /// address — the inputs the cached plans were planned under, else a
    /// new one (which makes every cached plan a miss, and the next sync
    /// drops them).
    pub(crate) fn context(
        &self,
        policy: &ExecPolicy<'_>,
        ws: &WebScheme,
        catalog: &ViewCatalog,
        stats: &SiteStatistics,
    ) -> u64 {
        let mut guard = self
            .planned_under
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (epoch, inputs) = &mut *guard;
        let (mask, incomplete_navigations) = (policy.mask, policy.incomplete_navigations);
        let same = inputs.as_ref().is_some_and(|i| {
            i.mask == mask
                && i.incomplete_navigations == incomplete_navigations
                && i.stats == *stats
                && i.ws == *ws
                && i.catalog == *catalog
        });
        if !same {
            *epoch += 1;
            *inputs = Some(PlanInputs {
                mask,
                incomplete_navigations,
                ws: ws.clone(),
                catalog: catalog.clone(),
                stats: stats.clone(),
            });
        }
        *epoch
    }
}

/// A store's handle on its plans. A cloned store copies the pages, not the
/// plans: it starts with an empty cache and counters of its own.
#[derive(Debug)]
struct Plans(Arc<StorePlans>);

impl Default for Plans {
    fn default() -> Self {
        Plans(Arc::new(StorePlans::registered(&MetricsRegistry::new())))
    }
}

impl Clone for Plans {
    fn clone(&self) -> Self {
        Plans::default()
    }
}

/// The local materialized store: the pages, and the plans queries over
/// them were answered with.
///
/// **Plans.** A store owns a [`PlanCache`] because it is the only value of
/// a materialized-view query that outlives a round — a
/// [`crate::MatSession`] is rebuilt whenever the site handle is
/// re-borrowed. [`crate::MatSession::run`] plans once per query shape
/// through it. The store cannot know that the next session borrows the
/// scheme, catalog, statistics and rule mask the last one did, so it keeps
/// a copy of the ones its plans were planned under and compares by value
/// on every query; any difference starts a new context and the old plans
/// are dropped. Cloning a store copies its pages and starts the clone with
/// no plans.
#[derive(Debug, Default, Clone)]
pub struct MatStore {
    pages: HashMap<Url, Entry>,
    /// How many of `pages` are evicted.
    evicted: usize,
    status: HashMap<Url, UrlStatus>,
    /// URLs suspected deleted, to be verified off-line
    /// (the paper's `CheckMissing` structure).
    pub check_missing: VecDeque<Url>,
    budget: Option<usize>,
    /// Bytes held by resident payloads.
    bytes: usize,
    /// Recency of the resident pages; kept only while a budget is set.
    lru: Lru,
    /// True when the link graph over `pages` may have changed since the
    /// last reachability walk: an entry came, went, or was replaced by a
    /// version with other outlinks. While false, every known page is
    /// reachable from an entry point and a sweep has nothing to drop.
    links_moved: bool,
    metrics: StoreMetrics,
    plans: Plans,
}

/// What one [`MatStore::download`] found.
#[derive(Debug)]
pub enum Download {
    /// The page was downloaded, wrapped, stamped and stored.
    Fresh(Fresh),
    /// The request failed without saying the page is gone (a timeout, a
    /// 5xx, any error but a 404); the store is untouched. Carries the
    /// failure's description.
    Transient(String),
    /// A definite 404 ([`SourceError::NotFound`]); the store is untouched.
    Gone,
}

/// A successful download: the page before and after.
#[derive(Debug)]
pub struct Fresh {
    /// The payload the download replaced (`None` when the page was
    /// unknown or evicted): the store's former copy, moved out.
    pub old: Option<Arc<Tuple>>,
    /// The payload now stored, shared with the store.
    pub new: Arc<Tuple>,
    /// Outlinks of the previous version (remembered ones if it was
    /// evicted).
    pub old_links: Vec<(String, Url)>,
    /// Outlinks of the new version.
    pub links: Vec<(String, Url)>,
}

fn only_in<'a>(a: &'a [(String, Url)], b: &'a [(String, Url)]) -> impl Iterator<Item = &'a Url> {
    let other: HashSet<&Url> = b.iter().map(|(_, u)| u).collect();
    a.iter().map(|(_, u)| u).filter(move |u| !other.contains(u))
}

impl Fresh {
    /// Outlinks present only in the new version.
    pub fn added(&self) -> impl Iterator<Item = &Url> {
        only_in(&self.links, &self.old_links)
    }

    /// Outlinks present only in the old version.
    pub fn removed(&self) -> impl Iterator<Item = &Url> {
        only_in(&self.old_links, &self.links)
    }
}

fn page_bytes(url: &Url, tuple: &Tuple) -> usize {
    url.as_str().len() + tuple.approx_bytes()
}

impl MatStore {
    /// An empty, unbudgeted store.
    pub fn new() -> Self {
        MatStore::default()
    }

    /// Registers the store's counters and gauges under `registry`,
    /// those of its plan cache (`store_plan_hits`, `_rebinds`, `_misses`,
    /// `_evictions`, `_invalidations`, `_refused`, …) included. Called on a
    /// new store: what was counted or cached before is left behind.
    pub(crate) fn register_metrics(&mut self, registry: &MetricsRegistry) {
        self.plans = Plans(Arc::new(StorePlans::registered(registry)));
        self.metrics = StoreMetrics {
            evictions: registry.counter("store_evictions"),
            upqueries: registry.counter("store_upqueries"),
            sweeps: registry.counter("store_sweeps"),
            resident_bytes: registry.gauge("store.resident_bytes"),
            resident_pages: registry.gauge("store.resident_pages"),
            skeleton_pages: registry.gauge("store.skeleton_pages"),
        };
    }

    /// Sets the payload byte budget, restarts the LRU order from the
    /// resident pages in URL order, and evicts down to the budget.
    pub fn set_budget(&mut self, ws: &WebScheme, budget: Option<usize>) {
        self.budget = budget;
        self.lru.clear();
        if budget.is_some() {
            let urls: Vec<Url> = self
                .pages_sorted()
                .into_iter()
                .map(|(u, _)| u.clone())
                .collect();
            for url in &urls {
                self.lru.touch(url);
            }
            self.evict_to_budget(ws);
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The plans this store answered with (counters, entries, retained
    /// bytes). Filled and consulted by [`crate::MatSession::run`] only.
    pub fn plan_cache(&self) -> &PlanCache {
        self.plans.0.cache()
    }

    /// A handle on the plans that does not borrow the store, for the
    /// session that is about to borrow it mutably.
    pub(crate) fn plans(&self) -> Arc<StorePlans> {
        Arc::clone(&self.plans.0)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            resident_pages: self.len() as u64,
            skeleton_pages: self.evicted as u64,
            resident_bytes: self.bytes as u64,
            evictions: self.metrics.evictions.get(),
            upqueries: self.metrics.upqueries.get(),
            sweeps: self.metrics.sweeps.get(),
        }
    }

    fn publish_gauges(&self) {
        self.metrics.resident_bytes.set(self.bytes as i64);
        self.metrics.resident_pages.set(self.len() as i64);
        self.metrics.skeleton_pages.set(self.evicted as i64);
    }

    /// The stored page at a URL, if its payload is resident (does not
    /// touch the LRU).
    pub fn get(&self, url: &Url) -> Option<&StoredPage> {
        match self.pages.get(url) {
            Some(Entry::Resident(p)) => Some(p),
            _ => None,
        }
    }

    /// True when the store knows the URL, resident or evicted.
    pub fn knows(&self, url: &Url) -> bool {
        self.pages.contains_key(url)
    }

    /// The outlinks of a known page: computed from the resident payload,
    /// or remembered from before its eviction.
    pub fn outlinks_of(&self, ws: &WebScheme, url: &Url) -> Vec<(String, Url)> {
        self.pages
            .get(url)
            .map(|e| e.outlinks(ws))
            .unwrap_or_default()
    }

    /// Every resident page, URL-ordered — the deterministic inventory the
    /// incremental-maintenance layer and the equivalence proptests compare
    /// against (queries still go through URLCheck; this is maintenance
    /// plumbing, not a query path).
    pub fn pages_sorted(&self) -> Vec<(&Url, &StoredPage)> {
        let mut out: Vec<_> = self
            .pages
            .iter()
            .filter_map(|(u, e)| match e {
                Entry::Resident(p) => Some((u, p)),
                Entry::Evicted { .. } => None,
            })
            .collect();
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Inserts or replaces a page, stamping it most-recently-used when a
    /// budget is set. A fresh download is never stale. The budget itself
    /// is applied by [`MatStore::download`], which knows the scheme an
    /// eviction needs — and the outlinks: a bare `put` cannot tell whether
    /// the page's links changed, so it counts as a link-graph move.
    pub fn put(
        &mut self,
        url: Url,
        scheme: impl Into<String>,
        tuple: Arc<Tuple>,
        access_date: u64,
    ) {
        self.replace(url, scheme.into(), tuple, access_date);
        self.links_moved = true;
    }

    /// Stores a page with its byte and LRU accounting, returning the entry
    /// it replaced. The caller answers for `links_moved`.
    fn replace(
        &mut self,
        url: Url,
        scheme: String,
        tuple: Arc<Tuple>,
        access_date: u64,
    ) -> Option<Entry> {
        let old = self.take(&url);
        self.bytes += page_bytes(&url, &tuple);
        if self.budget.is_some() {
            self.lru.touch(&url);
        }
        let page = StoredPage {
            scheme,
            tuple,
            access_date,
            stale: false,
        };
        self.pages.insert(url, Entry::Resident(page));
        self.publish_gauges();
        old
    }

    /// Takes an entry out, with its byte, LRU and eviction accounting.
    fn take(&mut self, url: &Url) -> Option<Entry> {
        let old = self.pages.remove(url)?;
        match &old {
            Entry::Resident(p) => {
                self.bytes = self.bytes.saturating_sub(page_bytes(url, &p.tuple));
                self.lru.forget(url);
            }
            Entry::Evicted { .. } => self.evicted -= 1,
        }
        Some(old)
    }

    /// Drops a page entirely (a confirmed deletion, not an eviction).
    pub fn remove(&mut self, url: &Url) -> bool {
        let dropped = self.take(url).is_some();
        self.links_moved |= dropped;
        self.publish_gauges();
        dropped
    }

    /// The page is definitely gone from the site: drops it, flags the URL
    /// `missing` and queues it for the off-line sweep.
    pub fn drop_missing(&mut self, url: &Url) {
        self.remove(url);
        self.set_status(url.clone(), UrlStatus::Missing);
        self.check_missing.push_back(url.clone());
    }

    /// Flags a known page as stale-but-retained (its refresh failed, so
    /// the tuple may not match the live page). Returns `false` when the
    /// URL is not materialized.
    pub fn mark_stale(&mut self, url: &Url) -> bool {
        self.set_stale(url, true)
    }

    /// Clears the staleness flag (a later check verified the copy is
    /// current again). Returns `false` when the URL is not materialized.
    pub fn clear_stale(&mut self, url: &Url) -> bool {
        self.set_stale(url, false)
    }

    fn set_stale(&mut self, url: &Url, stale: bool) -> bool {
        match self.pages.get_mut(url) {
            Some(e) => {
                *e.stale_mut() = stale;
                true
            }
            None => false,
        }
    }

    /// True when the URL is materialized and flagged stale.
    pub fn is_stale(&self, url: &Url) -> bool {
        self.pages.get(url).is_some_and(Entry::stale)
    }

    /// Number of stale-but-retained pages.
    pub fn stale_count(&self) -> usize {
        self.pages.values().filter(|e| e.stale()).count()
    }

    /// Number of pages whose payload is resident.
    pub fn len(&self) -> usize {
        self.pages.len() - self.evicted
    }

    /// True if nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The status flag of a URL.
    pub fn status(&self, url: &Url) -> UrlStatus {
        self.status.get(url).copied().unwrap_or_default()
    }

    /// Sets the status flag of a URL.
    pub fn set_status(&mut self, url: Url, s: UrlStatus) {
        self.status.insert(url, s);
    }

    /// Resets all status flags (done at the start of every query).
    pub fn reset_status(&mut self) {
        self.status.clear();
    }

    /// The one page-download routine: take the page from
    /// [`wvcore::download_page`] (`GET`, wrap under `scheme`), stamp it
    /// with the access date, store it (evicting colder payloads if over
    /// budget), and report the page before and after so the caller can
    /// diff outlinks. On a failed `GET` the store is left untouched and
    /// the caller decides what *gone* and *transient* mean for it; a body
    /// the wrapper refuses is the hard [`MatError::Wrap`].
    pub fn download(
        &mut self,
        ws: &WebScheme,
        server: &impl PageServer,
        url: &Url,
        scheme: &str,
    ) -> Result<Download> {
        let ps = ws.scheme(scheme)?;
        let (new, last_modified) = match wvcore::download_page(server, ps, url) {
            Ok(page) => page,
            Err(SourceError::NotFound(_)) => return Ok(Download::Gone),
            Err(SourceError::Malformed { url, reason }) => {
                return Err(MatError::Wrap(format!("{url}: {reason}")))
            }
            Err(e) => return Ok(Download::Transient(e.to_string())),
        };
        let new = Arc::new(new);
        let links = ps.outlinks(&new);
        let date = last_modified.max(server.now());
        let old = self.replace(url.clone(), scheme.to_string(), Arc::clone(&new), date);
        self.evict_to_budget(ws);
        let old_links = old.as_ref().map(|e| e.outlinks(ws)).unwrap_or_default();
        // a new page, or a version that links elsewhere, moves the graph;
        // an edit that leaves every outlink where it was cannot
        self.links_moved |= old.is_none() || old_links != links;
        let old = match old {
            Some(Entry::Resident(p)) => Some(p.tuple),
            _ => None,
        };
        Ok(Download::Fresh(Fresh {
            old,
            new,
            old_links,
            links,
        }))
    }

    /// Reads a page, upquerying if its payload was evicted. Returns the
    /// stored tuple (the store's `Arc`, not a copy) and scheme, or `None` if
    /// the page is gone (unknown, or the upquery got a definite 404 — in
    /// which case the page is dropped and the URL queued on `CheckMissing`). A transient upquery failure is
    /// an error: the caller cannot know the page's content.
    pub fn read(
        &mut self,
        ws: &WebScheme,
        server: &impl PageServer,
        url: &Url,
    ) -> Result<Option<(Arc<Tuple>, String)>> {
        let scheme = match self.pages.get(url) {
            None => return Ok(None),
            Some(Entry::Resident(p)) => {
                let out = (Arc::clone(&p.tuple), p.scheme.clone());
                if self.budget.is_some() {
                    self.lru.touch(url);
                }
                return Ok(Some(out));
            }
            Some(Entry::Evicted { scheme, .. }) => scheme.clone(),
        };
        // Upquery: one ordinary GET, counted by the server like any fetch.
        self.metrics.upqueries.inc();
        if let Some(ctx) = obs::reqctx::current().and_then(|c| c.trace) {
            ctx.sink.event(
                obs::EventKind::Dataflow,
                "dataflow.upquery",
                Some(ctx.parent),
                vec![
                    ("url".to_string(), url.as_str().into()),
                    ("request".to_string(), ctx.request_id.into()),
                ],
            );
        }
        match self.download(ws, server, url, &scheme)? {
            Download::Fresh(f) => Ok(Some((f.new, scheme))),
            Download::Transient(reason) => Err(MatError::Upquery {
                url: url.clone(),
                reason,
            }),
            Download::Gone => {
                self.drop_missing(url);
                Ok(None)
            }
        }
    }

    /// Evicts one page's payload, keeping its scheme, stale flag and
    /// outlinks (no-op when not resident). Public so tests and
    /// experiments can force a miss.
    pub fn evict(&mut self, ws: &WebScheme, url: &Url) -> bool {
        let Some(entry @ Entry::Resident(p)) = self.pages.get(url) else {
            return false;
        };
        let skeleton = Entry::Evicted {
            scheme: p.scheme.clone(),
            stale: p.stale,
            outlinks: entry.outlinks(ws),
        };
        self.take(url);
        self.pages.insert(url.clone(), skeleton);
        self.evicted += 1;
        self.metrics.evictions.inc();
        self.publish_gauges();
        true
    }

    fn evict_to_budget(&mut self, ws: &WebScheme) {
        let Some(budget) = self.budget else {
            return;
        };
        while self.bytes > budget {
            let Some(url) = self.lru.coldest().cloned() else {
                break;
            };
            self.evict(ws, &url);
        }
    }

    /// Drops every known page no longer reachable from an entry point
    /// over the stored outlinks (resident or remembered) — zero fetches.
    /// Returns the number of pages dropped. Shared by the full refresh
    /// and the change-feed sync.
    ///
    /// The store owns the invariant, so callers sweep whenever their
    /// protocol says "after this batch" and pay for a walk only when one
    /// can drop something: every way an entry enters, leaves or changes
    /// its outlinks ([`MatStore::put`], [`MatStore::remove`],
    /// [`MatStore::drop_missing`], [`MatStore::download`] — so the crawl,
    /// URLCheck, upqueries and the sync alike) notes that the link graph
    /// moved, and while none has since the last walk the answer is 0
    /// without looking: nothing was unreachable then and no edge or node
    /// has changed. Evicting a payload keeps its outlinks and moves
    /// nothing. [`StoreStats::sweeps`] counts the walks.
    pub fn sweep_unreachable(&mut self, ws: &WebScheme) -> usize {
        if !self.links_moved {
            return 0;
        }
        self.metrics.sweeps.inc();
        let mut reached = HashSet::new();
        let mut queue: VecDeque<Url> = ws.entry_points().iter().map(|e| e.url.clone()).collect();
        while let Some(url) = queue.pop_front() {
            if !self.knows(&url) || !reached.insert(url.clone()) {
                continue;
            }
            for (_, next) in self.outlinks_of(ws, &url) {
                if !reached.contains(&next) {
                    queue.push_back(next);
                }
            }
        }
        let doomed: Vec<Url> = self
            .pages
            .keys()
            .filter(|u| !reached.contains(*u))
            .cloned()
            .collect();
        for url in &doomed {
            self.remove(url);
        }
        // what is left is exactly what the walk reached
        self.links_moved = false;
        doomed.len()
    }

    /// Materializes the whole site by crawling it from its entry points
    /// through the live server, wrapping every page. Returns the number of
    /// pages downloaded.
    pub fn materialize(&mut self, ws: &WebScheme, server: &impl PageServer) -> Result<usize> {
        Ok(self.materialize_report(ws, server)?.downloaded)
    }

    /// Like [`MatStore::materialize`], with a full account of the crawl.
    ///
    /// A page whose `GET` fails is **not** silently skipped: if an older
    /// copy is known it is marked stale-but-retained (so nothing pretends
    /// the failed refresh succeeded) and the crawl continues through the
    /// *old* outlinks so the subtree behind it is not orphaned. Pages that
    /// 404 are additionally queued on [`MatStore::check_missing`] for the
    /// off-line sweep.
    ///
    /// The crawl itself runs unbudgeted; afterwards the budget is
    /// re-applied over the resident pages in URL order.
    pub fn materialize_report(
        &mut self,
        ws: &WebScheme,
        server: &impl PageServer,
    ) -> Result<MaterializeReport> {
        let budget = self.budget.take();
        let report = self.crawl(ws, server);
        self.set_budget(ws, budget);
        report
    }

    fn crawl(&mut self, ws: &WebScheme, server: &impl PageServer) -> Result<MaterializeReport> {
        let mut queue: VecDeque<(Url, String)> = ws
            .entry_points()
            .iter()
            .map(|e| (e.url.clone(), e.scheme.clone()))
            .collect();
        let mut seen: HashSet<Url> = queue.iter().map(|(u, _)| u.clone()).collect();
        let mut report = MaterializeReport::default();
        while let Some((url, scheme)) = queue.pop_front() {
            let links = match self.download(ws, server, &url, &scheme)? {
                Download::Fresh(f) => {
                    report.downloaded += 1;
                    f.links
                }
                failure => {
                    report.failed.push(url.clone());
                    if matches!(failure, Download::Gone) {
                        self.check_missing.push_back(url.clone());
                    }
                    // Keep crawling through the stale copy's outlinks.
                    self.mark_stale(&url);
                    self.outlinks_of(ws, &url)
                }
            };
            for (target, link) in links {
                if seen.insert(link.clone()) {
                    queue.push_back((link, target));
                }
            }
        }
        report.failed.sort();
        report.reached = seen;
        Ok(report)
    }
}

/// What a crawl ([`MatStore::materialize_report`]) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaterializeReport {
    /// Pages downloaded and stored fresh.
    pub downloaded: usize,
    /// URLs whose `GET` failed (sorted). Stored copies, if any, were
    /// marked stale-but-retained.
    pub failed: Vec<Url>,
    /// Every URL the crawl reached — fetched or failed.
    pub reached: HashSet<Url>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nalg::{HeadResponse, PageResponse};
    use websim::sitegen::{University, UniversityConfig};
    use websim::{FaultPlan, FaultRule, VirtualServer};

    /// A server that answers one URL with a fixed error (when it has one)
    /// and passes every other request to the site's server: a failure the
    /// simulated server never produces.
    pub(crate) struct Refusing<'a> {
        pub(crate) inner: &'a VirtualServer,
        pub(crate) url: Url,
        pub(crate) error: Option<SourceError>,
    }

    impl Refusing<'_> {
        fn refuses(&self, url: &Url) -> Option<SourceError> {
            self.error.clone().filter(|_| *url == self.url)
        }
    }

    impl PageServer for Refusing<'_> {
        fn get(&self, url: &Url) -> std::result::Result<PageResponse, SourceError> {
            self.refuses(url).map_or_else(|| self.inner.get(url), Err)
        }

        fn head(&self, url: &Url) -> std::result::Result<HeadResponse, SourceError> {
            self.refuses(url).map_or_else(|| self.inner.head(url), Err)
        }

        fn now(&self) -> u64 {
            self.inner.now()
        }
    }

    fn uni() -> University {
        University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 10,
            seed: 12,
            ..UniversityConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn materialize_downloads_whole_site() {
        let u = uni();
        let mut store = MatStore::new();
        let n = store.materialize(&u.site.scheme, &u.site.server).unwrap();
        assert_eq!(n, u.site.total_pages());
        assert_eq!(store.len(), u.site.total_pages());
        let pages = store.pages_sorted();
        assert_eq!(
            pages
                .iter()
                .filter(|(_, p)| p.scheme == "CoursePage")
                .count(),
            10
        );
        // stored tuples equal ground truth
        for (url, truth) in u.site.instance("ProfPage") {
            assert_eq!(*store.get(&url).unwrap().tuple, truth);
        }
    }

    #[test]
    fn the_plan_cache_registers_beside_the_store_counters() {
        let registry = MetricsRegistry::with_prefix("dataflow");
        let mut store = MatStore::new();
        store.register_metrics(&registry);
        let names = registry.names();
        for counter in [
            "hits",
            "rebinds",
            "misses",
            "evictions",
            "invalidations",
            "refused",
        ] {
            let name = format!("dataflow_store_plan_{counter}");
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
        assert!(names.contains(&"dataflow_store_evictions".to_string()));
        // A clone keeps the pages and starts without plans or counters.
        store.plan_cache().note_refused();
        assert_eq!(registry.counter("store_plan_refused").get(), 1);
        assert_eq!(store.clone().plan_cache().stats().refused, 0);
    }

    #[test]
    fn status_lifecycle() {
        let mut store = MatStore::new();
        let url = Url::new("/x.html");
        assert_eq!(store.status(&url), UrlStatus::None);
        store.set_status(url.clone(), UrlStatus::New);
        assert_eq!(store.status(&url), UrlStatus::New);
        store.reset_status();
        assert_eq!(store.status(&url), UrlStatus::None);
    }

    #[test]
    fn outlinks_found_recursively() {
        let u = uni();
        let ps = u.site.scheme.scheme("ProfPage").unwrap();
        let (url, tuple) = &u.site.instance("ProfPage")[0];
        let links = ps.outlinks(tuple);
        // at least the department link
        assert!(links.iter().any(|(s, _)| s == "DeptPage"), "{url}");
    }

    #[test]
    fn put_remove_roundtrip() {
        let mut store = MatStore::new();
        let url = Url::new("/p.html");
        store.put(url.clone(), "P", Arc::new(Tuple::new().with("A", "x")), 3);
        assert_eq!(store.get(&url).unwrap().access_date, 3);
        assert!(store.remove(&url));
        assert!(!store.remove(&url));
        assert!(store.is_empty());
    }

    #[test]
    fn stale_flag_lifecycle() {
        let mut store = MatStore::new();
        let url = Url::new("/p.html");
        assert!(!store.mark_stale(&url), "nothing stored yet");
        store.put(url.clone(), "P", Arc::new(Tuple::new().with("A", "x")), 3);
        assert!(!store.is_stale(&url), "fresh download is never stale");
        assert!(store.mark_stale(&url));
        assert!(store.is_stale(&url));
        assert_eq!(store.stale_count(), 1);
        assert!(store.clear_stale(&url));
        assert!(!store.is_stale(&url));
        store.mark_stale(&url);
        // re-downloading resets the flag
        store.put(url.clone(), "P", Arc::new(Tuple::new().with("A", "y")), 4);
        assert!(!store.is_stale(&url));
        assert_eq!(store.stale_count(), 0);
    }

    #[test]
    fn crawl_with_failing_page_marks_stale_and_keeps_subtree() {
        // make one page unreachable: a professor page, its courses hanging
        // below it — then the sessions list with its payload evicted, the
        // only way to the session pages being the outlinks it left behind
        let sessions = Url::new("/univ/sessions.html");
        for (victim, evicted) in [(University::prof_url(0), false), (sessions, true)] {
            let u = uni();
            let mut store = MatStore::new();
            store.materialize(&u.site.scheme, &u.site.server).unwrap();
            if evicted {
                assert!(store.evict(&u.site.scheme, &victim));
            }
            u.site.server.set_fault_plan(
                websim::FaultPlan::new(3).with_rule(
                    websim::FaultRule::unavailable(1.0)
                        .for_url_prefix(victim.as_str())
                        .with_max_per_url(None),
                ),
            );
            let report = store
                .materialize_report(&u.site.scheme, &u.site.server)
                .unwrap();
            assert_eq!(report.failed, vec![victim.clone()]);
            assert_eq!(report.downloaded, u.site.total_pages() - 1);
            // the victim survives, flagged; a 5xx is not queued as missing
            assert!(store.is_stale(&victim));
            assert!(!store.check_missing.contains(&victim));
            // the crawl continued through the stale copy: the pages below it
            // were re-fetched, so every page of the site is in `reached`
            assert_eq!(report.reached.len(), u.site.total_pages());
            assert_eq!(store.len(), u.site.total_pages() - usize::from(evicted));
        }
    }

    #[test]
    fn crawl_queues_rotted_pages_for_the_offline_sweep() {
        let u = uni();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        let victim = University::course_url(4);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(3)
                .with_rule(websim::FaultRule::link_rot(1.0).for_url_prefix(victim.as_str())),
        );
        let report = store
            .materialize_report(&u.site.scheme, &u.site.server)
            .unwrap();
        assert_eq!(report.failed, vec![victim.clone()]);
        assert!(store.is_stale(&victim), "retained, not silently fresh");
        assert!(store.check_missing.contains(&victim));
    }

    /// Every outcome of one page access on the store path, and what the
    /// crawl does with it: only a 404 is *gone* (queued for the sweep),
    /// every other failed request keeps the stored copy as stale, and a
    /// body the wrapper refuses aborts with the hard `MatError::Wrap`.
    #[test]
    fn every_outcome_of_a_page_access_means_what_it_meant() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Want {
            Fresh,
            Gone,
            Transient,
            Wrap,
        }
        let refused = SourceError::Other("connection reset".into());
        let rows = [
            ("no fault", None, None, Want::Fresh),
            ("link rot", Some(FaultRule::link_rot(1.0)), None, Want::Gone),
            (
                "503",
                Some(FaultRule::unavailable(1.0)),
                None,
                Want::Transient,
            ),
            (
                "timeout",
                Some(FaultRule::timeouts(1.0)),
                None,
                Want::Transient,
            ),
            (
                "truncated",
                Some(FaultRule::truncation(1.0, 10)),
                None,
                Want::Wrap,
            ),
            ("not a 404", None, Some(refused), Want::Transient),
        ];
        for (name, rule, error, want) in rows {
            let u = uni();
            let ws = &u.site.scheme;
            let mut store = MatStore::new();
            store.materialize(ws, &u.site.server).unwrap();
            let victim = University::course_url(4);
            if let Some(rule) = rule {
                let rule = rule.for_url_prefix(victim.as_str()).with_max_per_url(None);
                u.site
                    .server
                    .set_fault_plan(FaultPlan::new(3).with_rule(rule));
            }
            let server = Refusing {
                inner: &u.site.server,
                url: victim.clone(),
                error,
            };
            let got = store.download(ws, &server, &victim, "CoursePage");
            match (want, &got) {
                (Want::Fresh, Ok(Download::Fresh(f))) => {
                    assert_eq!(Some(&*f.new), u.site.ground_truth("CoursePage", &victim));
                }
                (Want::Gone, Ok(Download::Gone))
                | (Want::Transient, Ok(Download::Transient(_))) => {}
                (Want::Wrap, Err(MatError::Wrap(m))) => {
                    assert!(m.starts_with(&format!("{victim}: ")), "{name}: {m}");
                }
                _ => panic!("{name}: wanted {want:?}, got {got:?}"),
            }
            let report = store.materialize_report(ws, &server);
            if want == Want::Wrap {
                assert!(matches!(report, Err(MatError::Wrap(_))), "{name}");
                continue;
            }
            let report = report.unwrap();
            let failed = want != Want::Fresh;
            assert_eq!(report.failed.contains(&victim), failed, "{name}");
            assert!(store.get(&victim).is_some(), "{name}: the copy is kept");
            assert_eq!(store.is_stale(&victim), failed, "{name}");
            let queued = store.check_missing.contains(&victim);
            assert_eq!(queued, want == Want::Gone, "{name}: only a 404 is queued");
        }
    }
}
