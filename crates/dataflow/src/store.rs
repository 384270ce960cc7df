//! The partially-stateful page store: a [`MatStore`] whose payloads are
//! evictable under a byte budget.
//!
//! Eviction is LRU over a single logical clock (the single-threaded
//! sibling of the `nalg::cache` sharded shape): each resident page keeps a
//! last-touch stamp, and when the budget is exceeded the coldest payloads
//! are dropped down to a **skeleton** — scheme, outlinks, stale flag — so
//! reachability sweeps stay free while the bytes go away. A read that
//! lands on a skeleton issues a targeted **upquery**: one ordinary `GET`
//! against the [`websim::PageServer`] (counted in the server's
//! page-access statistics like any other fetch) re-materializes exactly
//! that page. A budget-less store never evicts and behaves like a plain
//! `MatStore` with bookkeeping.

use crate::{DataflowError, Result};
use adm::{Tuple, Url, WebScheme};
use matview::{MatStore, StoredPage, UrlStatus};
use obs::{Counter, Gauge, MetricsRegistry};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use websim::PageServer;

/// What a page leaves behind when its payload is evicted.
#[derive(Debug, Clone)]
struct Skeleton {
    scheme: String,
    outlinks: Vec<(String, Url)>,
    stale: bool,
}

/// Point-in-time counters of a [`PartialStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Pages with their payload resident.
    pub resident_pages: u64,
    /// Pages evicted down to a skeleton.
    pub skeleton_pages: u64,
    /// Bytes held by resident payloads (URL + tuple estimate).
    pub resident_bytes: u64,
    /// Payload evictions performed.
    pub evictions: u64,
    /// Targeted upqueries issued (each one server `GET`).
    pub upqueries: u64,
}

/// A byte-budgeted page store with skeleton eviction and upqueries.
#[derive(Debug)]
pub struct PartialStore {
    mat: MatStore,
    skeletons: HashMap<Url, Skeleton>,
    budget: Option<usize>,
    bytes: usize,
    clock: u64,
    stamps: HashMap<Url, u64>,
    by_stamp: BTreeMap<u64, Url>,
    evictions: Counter,
    upqueries: Counter,
    resident_bytes_g: Gauge,
    resident_pages_g: Gauge,
    skeleton_pages_g: Gauge,
}

fn page_bytes(url: &Url, tuple: &Tuple) -> usize {
    url.as_str().len() + tuple.approx_bytes()
}

impl PartialStore {
    /// An unbudgeted store, registering its gauges/counters under
    /// `registry` (callers pass the `dataflow`-prefixed one).
    pub fn new(registry: &MetricsRegistry) -> Self {
        PartialStore {
            mat: MatStore::new(),
            skeletons: HashMap::new(),
            budget: None,
            bytes: 0,
            clock: 0,
            stamps: HashMap::new(),
            by_stamp: BTreeMap::new(),
            evictions: registry.counter("store_evictions"),
            upqueries: registry.counter("store_upqueries"),
            resident_bytes_g: registry.gauge("store.resident_bytes"),
            resident_pages_g: registry.gauge("store.resident_pages"),
            skeleton_pages_g: registry.gauge("store.skeleton_pages"),
        }
    }

    /// Sets the payload byte budget and immediately evicts down to it.
    pub fn set_budget(&mut self, ws: &WebScheme, budget: Option<usize>) {
        self.budget = budget;
        self.evict_to_budget(ws);
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The wrapped [`MatStore`] (resident payloads only) — what the
    /// equivalence proptests compare against `full_refresh`.
    pub fn mat(&self) -> &MatStore {
        &self.mat
    }

    /// Direct mutable access for maintenance bookkeeping that bypasses
    /// LRU accounting (status flags, the `CheckMissing` queue).
    pub fn mat_mut(&mut self) -> &mut MatStore {
        &mut self.mat
    }

    fn touch(&mut self, url: &Url) {
        if let Some(old) = self.stamps.get(url).copied() {
            self.by_stamp.remove(&old);
            self.clock += 1;
            self.stamps.insert(url.clone(), self.clock);
            self.by_stamp.insert(self.clock, url.clone());
        }
    }

    fn refresh_gauges(&self) {
        self.resident_bytes_g.set(self.bytes as i64);
        self.resident_pages_g.set(self.mat.len() as i64);
        self.skeleton_pages_g.set(self.skeletons.len() as i64);
    }

    /// Stores a page payload (clearing any skeleton), stamps it
    /// most-recently-used, and evicts colder payloads if over budget.
    pub fn put(&mut self, ws: &WebScheme, url: Url, scheme: &str, tuple: Tuple, access_date: u64) {
        self.skeletons.remove(&url);
        if let Some(p) = self.mat.get(&url) {
            self.bytes = self.bytes.saturating_sub(page_bytes(&url, &p.tuple));
        }
        self.bytes += page_bytes(&url, &tuple);
        self.mat.put(url.clone(), scheme, tuple, access_date);
        if let Some(old) = self.stamps.get(&url).copied() {
            self.by_stamp.remove(&old);
        }
        self.clock += 1;
        self.stamps.insert(url.clone(), self.clock);
        self.by_stamp.insert(self.clock, url);
        self.evict_to_budget(ws);
        self.refresh_gauges();
    }

    /// True when the store knows the URL, resident or skeleton.
    pub fn knows(&self, url: &Url) -> bool {
        self.mat.get(url).is_some() || self.skeletons.contains_key(url)
    }

    /// The resident payload, if any (does not touch the LRU).
    pub fn resident(&self, url: &Url) -> Option<&StoredPage> {
        self.mat.get(url)
    }

    /// The page-scheme of a known page.
    pub fn scheme_of(&self, url: &Url) -> Option<String> {
        self.mat
            .get(url)
            .map(|p| p.scheme.clone())
            .or_else(|| self.skeletons.get(url).map(|s| s.scheme.clone()))
    }

    /// The stale flag of a known page.
    pub fn is_stale(&self, url: &Url) -> bool {
        self.mat.is_stale(url) || self.skeletons.get(url).is_some_and(|s| s.stale)
    }

    /// Flags a known page stale-but-retained.
    pub fn mark_stale(&mut self, url: &Url) -> bool {
        if self.mat.mark_stale(url) {
            return true;
        }
        match self.skeletons.get_mut(url) {
            Some(s) => {
                s.stale = true;
                true
            }
            None => false,
        }
    }

    /// The outlinks of a known page: computed from the resident payload,
    /// or remembered on the skeleton.
    pub fn outlinks_of(&self, ws: &WebScheme, url: &Url) -> Vec<(String, Url)> {
        if let Some(p) = self.mat.get(url) {
            if let Ok(ps) = ws.scheme(&p.scheme) {
                return matview::store::outlinks(&ps.fields, &p.tuple);
            }
        }
        self.skeletons
            .get(url)
            .map(|s| s.outlinks.clone())
            .unwrap_or_default()
    }

    /// Every known URL, sorted (resident and skeleton).
    pub fn urls(&self) -> Vec<Url> {
        let mut out: Vec<Url> = self
            .mat
            .pages_sorted()
            .into_iter()
            .map(|(u, _)| u.clone())
            .collect();
        out.extend(self.skeletons.keys().cloned());
        out.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        out.dedup();
        out
    }

    /// Reads a page, upquerying if its payload was evicted. Returns the
    /// tuple and scheme, or `None` if the page is gone (unknown, or the
    /// upquery got a definite 404 — in which case the skeleton is dropped
    /// and the URL queued on `CheckMissing`). A transient upquery failure
    /// is an error: the caller cannot know the page's content.
    pub fn read(
        &mut self,
        ws: &WebScheme,
        server: &impl PageServer,
        url: &Url,
    ) -> Result<Option<(Tuple, String)>> {
        if let Some(p) = self.mat.get(url) {
            let out = (p.tuple.clone(), p.scheme.clone());
            self.touch(url);
            return Ok(Some(out));
        }
        let Some(skel) = self.skeletons.get(url).cloned() else {
            return Ok(None);
        };
        // Upquery: one ordinary GET, counted by the server like any fetch.
        self.upqueries.inc();
        if let Some(ctx) = obs::reqctx::current() {
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
        match server.get(url) {
            Ok(resp) => {
                let ps = ws.scheme(&skel.scheme)?;
                let tuple = wrapper::wrap_bytes(ps, &resp.body)
                    .map_err(|e| DataflowError::Wrap(format!("{url}: {e}")))?;
                let date = resp.last_modified.max(server.now());
                self.put(ws, url.clone(), &skel.scheme, tuple.clone(), date);
                Ok(Some((tuple, skel.scheme)))
            }
            Err(e) if e.is_transient() => Err(DataflowError::Upquery {
                url: url.clone(),
                reason: e.to_string(),
            }),
            Err(_) => {
                // definitively gone: forget the skeleton, queue the sweep
                self.skeletons.remove(url);
                self.mat.set_status(url.clone(), UrlStatus::Missing);
                self.mat.check_missing.push_back(url.clone());
                self.refresh_gauges();
                Ok(None)
            }
        }
    }

    /// Evicts one page's payload down to a skeleton (no-op when not
    /// resident). Public so tests and experiments can force a miss.
    pub fn evict(&mut self, ws: &WebScheme, url: &Url) -> bool {
        let Some(p) = self.mat.get(url) else {
            return false;
        };
        let outlinks = match ws.scheme(&p.scheme) {
            Ok(ps) => matview::store::outlinks(&ps.fields, &p.tuple),
            Err(_) => Vec::new(),
        };
        let skel = Skeleton {
            scheme: p.scheme.clone(),
            outlinks,
            stale: p.stale,
        };
        self.bytes = self.bytes.saturating_sub(page_bytes(url, &p.tuple));
        self.mat.remove(url);
        self.skeletons.insert(url.clone(), skel);
        if let Some(stamp) = self.stamps.remove(url) {
            self.by_stamp.remove(&stamp);
        }
        self.evictions.inc();
        self.refresh_gauges();
        true
    }

    fn evict_to_budget(&mut self, ws: &WebScheme) {
        let Some(budget) = self.budget else {
            return;
        };
        while self.bytes > budget {
            let Some(url) = self.by_stamp.values().next().cloned() else {
                break;
            };
            if !self.evict(ws, &url) {
                break;
            }
        }
        self.refresh_gauges();
    }

    /// Drops a page entirely — payload, skeleton, stamps (a deletion, not
    /// an eviction).
    pub fn drop_page(&mut self, url: &Url) -> bool {
        if let Some(p) = self.mat.get(url) {
            self.bytes = self.bytes.saturating_sub(page_bytes(url, &p.tuple));
        }
        let mut dropped = self.mat.remove(url);
        dropped |= self.skeletons.remove(url).is_some();
        if let Some(stamp) = self.stamps.remove(url) {
            self.by_stamp.remove(&stamp);
        }
        self.refresh_gauges();
        dropped
    }

    fn recount_bytes(&mut self) {
        self.bytes = self
            .mat
            .pages_sorted()
            .iter()
            .map(|(u, p)| page_bytes(u, &p.tuple))
            .sum();
    }

    /// Crawls the site from its entry points into the store (the same BFS
    /// as [`MatStore::materialize_report`]), then rebuilds the LRU
    /// bookkeeping and applies the budget.
    pub fn materialize(&mut self, ws: &WebScheme, server: &impl PageServer) -> Result<usize> {
        let report = self
            .mat
            .materialize_report(ws, server)
            .map_err(|e| DataflowError::Wrap(e.to_string()))?;
        self.skeletons.clear();
        self.stamps.clear();
        self.by_stamp.clear();
        self.clock = 0;
        for (url, _) in self.mat.pages_sorted() {
            self.clock += 1;
            self.stamps.insert(url.clone(), self.clock);
            self.by_stamp.insert(self.clock, url.clone());
        }
        self.recount_bytes();
        self.evict_to_budget(ws);
        self.refresh_gauges();
        Ok(report.downloaded)
    }

    /// The set of URLs reachable from the scheme's entry points over
    /// known pages (resident payload outlinks or skeleton outlinks) —
    /// zero fetches.
    pub fn reachable(&self, ws: &WebScheme) -> HashSet<Url> {
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
        reached
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            resident_pages: self.mat.len() as u64,
            skeleton_pages: self.skeletons.len() as u64,
            resident_bytes: self.bytes as u64,
            evictions: self.evictions.get(),
            upqueries: self.upqueries.get(),
        }
    }
}
