//! The maintenance loop: registered views, change-feed syncs, rebuilds.
//!
//! An [`IncrementalView`] owns a [`PartialStore`] and a set of compiled
//! views. [`IncrementalView::sync`] drains the site's change feed and
//! applies it in three phases:
//!
//! 1. **adds/edits** — each surviving (last-kind-wins) change becomes one
//!    `GET`; newly linked pages fan out into further fetches exactly like
//!    the crawl would discover them; every fetched page turns into a
//!    [`PageDelta`] pushed through each view's operator
//!    tree. A transiently failing fetch marks the stored copy
//!    stale-but-retained and produces *no* delta — the view keeps serving
//!    the old rows, the same contract as the lazy protocol's
//!    serve-stale-under-faults path.
//! 2. **removals** — the retraction `old → None` flows through the trees
//!    (a follow over a vanished page skips it, matching live evaluation's
//!    broken-link semantics); the store keeps the old copy
//!    stale-but-retained and queues the URL on `CheckMissing`, matching
//!    a full refresh.
//! 3. **reachability** — pages no longer reachable from any entry point
//!    are dropped from the store, matching the full refresh's
//!    retain-reached sweep. Their view rows were already retracted by the
//!    deltas that removed the links, so no further propagation is needed.
//!
//! When needed state is gone — an evicted payload of a page that changed,
//! an evicted follow slice that could not be prewarmed — the affected view
//! **rebuilds** from the post-sync store at the end of the batch. A
//! transient upquery failure instead **degrades** the view: `answer`
//! returns `None` (the serving layer falls back to live evaluation) until
//! a later sync rebuilds it successfully.

use crate::delta::{add_row, sorted_rows, PageDelta, RowSet};
use crate::ops::{compile, OpTree};
use crate::store::PartialStore;
use crate::{DataflowError, Result};
use adm::{Relation, Url, WebScheme};
use nalg::NalgExpr;
use obs::{Counter, EventKind, MetricsRegistry, TraceSink};
use std::collections::{BTreeMap, HashSet, VecDeque};
use websim::{ChangeKind, PageServer, Site, SiteChange};

/// What one [`IncrementalView::apply_changes`] batch did.
#[derive(Debug, Clone, Default)]
pub struct DeltaReport {
    /// Feed entries consumed.
    pub changes_seen: u64,
    /// Pages fetched (`GET`s issued by the delta path itself, excluding
    /// upqueries).
    pub pages_fetched: u64,
    /// Pages dropped as unreachable.
    pub pages_dropped: u64,
    /// Stored copies marked stale-but-retained (removals and transient
    /// fetch failures).
    pub marked_stale: u64,
    /// Targeted store upqueries issued during the batch.
    pub upqueries: u64,
    /// Views rebuilt from the store this batch.
    pub view_rebuilds: u64,
    /// Row insertions applied across all view answers.
    pub rows_added: u64,
    /// Row retractions applied across all view answers.
    pub rows_removed: u64,
    /// URLs whose fetch or upquery failed transiently (sorted, deduped).
    pub failed: Vec<Url>,
}

/// One registered query under maintenance.
#[derive(Debug)]
struct RegisteredView {
    name: String,
    key: String,
    expr: NalgExpr,
    tree: OpTree,
    answer: RowSet,
    /// Serving is suspended (transient failure); `answer` returns `None`.
    degraded: bool,
    /// State was lost mid-batch; rebuild from the store at batch end.
    needs_rebuild: bool,
    rebuilds: u64,
}

/// A set of incrementally maintained views over one web scheme.
#[derive(Debug)]
pub struct IncrementalView<'a> {
    ws: &'a WebScheme,
    store: PartialStore,
    cursor: u64,
    views: Vec<RegisteredView>,
    registry: MetricsRegistry,
    trace: Option<TraceSink>,
    slice_budget: Option<usize>,
    syncs_c: Counter,
    changes_c: Counter,
    fetched_c: Counter,
    dropped_c: Counter,
    stale_c: Counter,
    rebuilds_c: Counter,
    rows_added_c: Counter,
    rows_removed_c: Counter,
}

impl<'a> IncrementalView<'a> {
    /// An unbudgeted maintainer over `ws`. All metrics register under the
    /// `dataflow` prefix.
    pub fn new(ws: &'a WebScheme) -> Self {
        let registry = MetricsRegistry::with_prefix("dataflow");
        let store = PartialStore::new(&registry);
        IncrementalView {
            ws,
            store,
            cursor: 0,
            views: Vec::new(),
            syncs_c: registry.counter("sync_runs"),
            changes_c: registry.counter("sync_changes"),
            fetched_c: registry.counter("sync_pages_fetched"),
            dropped_c: registry.counter("sync_pages_dropped"),
            stale_c: registry.counter("sync_marked_stale"),
            rebuilds_c: registry.counter("sync_view_rebuilds"),
            rows_added_c: registry.counter("sync_rows_added"),
            rows_removed_c: registry.counter("sync_rows_removed"),
            registry,
            trace: None,
            slice_budget: None,
        }
    }

    /// Bounds the page store's resident payload bytes.
    pub fn with_byte_budget(mut self, budget: usize) -> Self {
        self.store.set_budget(self.ws, Some(budget));
        self
    }

    /// Bounds each follow operator's slice bytes (applies to views
    /// registered afterwards).
    pub fn with_state_budget(mut self, budget: usize) -> Self {
        self.slice_budget = Some(budget);
        self
    }

    /// Attaches a trace sink: each sync opens a `dataflow.sync` span with
    /// one `dataflow.δ` event per operator that saw deltas.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The `dataflow`-prefixed metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The underlying partial page store.
    pub fn store(&self) -> &PartialStore {
        &self.store
    }

    /// Mutable access to the store (tests and experiments).
    pub fn store_mut(&mut self) -> &mut PartialStore {
        &mut self.store
    }

    /// The scheme under maintenance.
    pub fn scheme(&self) -> &WebScheme {
        self.ws
    }

    /// Crawls the site into the store; call once before registering views.
    /// Returns the number of pages downloaded.
    pub fn materialize(&mut self, server: &impl PageServer) -> Result<usize> {
        self.store.materialize(self.ws, server)
    }

    /// The feed cursor the next [`IncrementalView::sync`] resumes from.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Positions the feed cursor (typically `site.change_cursor()` taken
    /// right after [`IncrementalView::materialize`], so the crawl itself
    /// is not replayed as changes).
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }

    /// Registers a query for maintenance under a lookup key, evaluating it
    /// once against the store to seed the answer. The expression must be
    /// computable (run the optimizer first — external leaves are not
    /// maintainable).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        key: impl Into<String>,
        expr: &NalgExpr,
        server: &impl PageServer,
    ) -> Result<()> {
        let mut tree = compile(expr, self.ws, self.slice_budget)?;
        let rows = tree.root.init(&mut self.store, self.ws, server)?;
        let mut answer = RowSet::new();
        for (row, w) in rows {
            add_row(&mut answer, row, w);
        }
        self.views.push(RegisteredView {
            name: name.into(),
            key: key.into(),
            expr: expr.clone(),
            tree,
            answer,
            degraded: false,
            needs_rebuild: false,
            rebuilds: 0,
        });
        Ok(())
    }

    /// True when a view is registered under `key`.
    pub fn is_registered(&self, key: &str) -> bool {
        self.views.iter().any(|v| v.key == key)
    }

    /// True when the view under `key` is degraded (serving suspended).
    pub fn is_degraded(&self, key: &str) -> bool {
        self.views.iter().any(|v| v.key == key && v.degraded)
    }

    /// How many times the view under `key` rebuilt from the store.
    pub fn rebuild_count(&self, key: &str) -> u64 {
        self.views
            .iter()
            .find(|v| v.key == key)
            .map(|v| v.rebuilds)
            .unwrap_or(0)
    }

    /// The registered view names, in registration order.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.iter().map(|v| v.name.as_str()).collect()
    }

    /// The maintained answer for `key`: rows in deterministic sorted
    /// order. `None` when no such view is registered or the view is
    /// degraded — the caller should fall back to live evaluation.
    pub fn answer(&self, key: &str) -> Option<Relation> {
        let v = self.views.iter().find(|v| v.key == key)?;
        if v.degraded {
            return None;
        }
        Relation::from_rows(v.tree.columns.clone(), sorted_rows(&v.answer)).ok()
    }

    /// Total (slice evictions, slice upqueries) across every follow
    /// operator of every registered view.
    pub fn slice_stats(&self) -> (u64, u64) {
        let mut evictions = 0;
        let mut upqueries = 0;
        for v in &self.views {
            let (e, u) = v.tree.root.slice_stats();
            evictions += e;
            upqueries += u;
        }
        (evictions, upqueries)
    }

    /// Force-evicts a page payload (tests and experiments).
    pub fn evict_page(&mut self, url: &Url) -> bool {
        self.store.evict(self.ws, url)
    }

    /// Force-evicts every follow slice keyed on `url` across all views.
    pub fn evict_slices(&mut self, url: &Url) -> bool {
        let mut hit = false;
        for v in &mut self.views {
            hit |= v.tree.root.evict_slice(url);
        }
        hit
    }

    /// Drains the site's change feed through the views, advancing the
    /// cursor. Fetches go to the site's own server.
    pub fn sync(&mut self, site: &Site) -> Result<DeltaReport> {
        self.sync_with(site, &site.server)
    }

    /// Like [`IncrementalView::sync`], fetching through `server` — pass a
    /// `resilience`-wrapped server to get retries on the delta path's
    /// fetches and upqueries.
    pub fn sync_with(&mut self, site: &Site, server: &impl PageServer) -> Result<DeltaReport> {
        let changes: Vec<SiteChange> = site.changes_since(self.cursor).to_vec();
        let rep = self.apply_changes(server, &changes)?;
        self.cursor = site.change_cursor();
        Ok(rep)
    }

    /// Applies a batch of feed entries (the three-phase protocol in the
    /// module docs) and rebuilds or retries any view whose state was lost.
    ///
    /// With a trace sink attached the whole batch runs under a
    /// `dataflow.sync` span, and an [`obs::reqctx`] context is installed
    /// for its duration so store upqueries issued on the views' behalf
    /// attribute themselves to the sync (as `dataflow.upquery` events
    /// parented under the span).
    pub fn apply_changes(
        &mut self,
        server: &impl PageServer,
        changes: &[SiteChange],
    ) -> Result<DeltaReport> {
        let Some(trace) = self.trace.clone() else {
            return self.apply_changes_inner(server, changes);
        };
        let mut span = trace.begin(EventKind::Dataflow, "dataflow.sync", None);
        let parent = span.id();
        let ctx = obs::reqctx::RequestCtx {
            sink: trace.clone(),
            parent,
            request_id: 0,
            clock: obs::reqctx::FetchClock::new(),
            deadline: obs::Deadline::infinite(),
            cancel: None,
        };
        let res = obs::reqctx::with_ctx(Some(ctx), || self.apply_changes_inner(server, changes));
        match &res {
            Ok(rep) => {
                span.set("changes", rep.changes_seen);
                span.set("pages_fetched", rep.pages_fetched);
                span.set("pages_dropped", rep.pages_dropped);
                span.set("upqueries", rep.upqueries);
                span.set("rows_added", rep.rows_added);
                span.set("rows_removed", rep.rows_removed);
                span.set("view_rebuilds", rep.view_rebuilds);
                for v in &self.views {
                    let name = v.name.clone();
                    v.tree.root.visit_counters(&mut |label, adds, removes| {
                        if adds > 0 || removes > 0 {
                            trace.event(
                                EventKind::Dataflow,
                                format!("dataflow.δ {label}"),
                                Some(parent),
                                vec![
                                    ("view".to_string(), name.as_str().into()),
                                    ("adds".to_string(), adds.into()),
                                    ("removes".to_string(), removes.into()),
                                ],
                            );
                        }
                    });
                }
            }
            Err(e) => span.set("error", e.to_string()),
        }
        trace.finish(span);
        res
    }

    fn apply_changes_inner(
        &mut self,
        server: &impl PageServer,
        changes: &[SiteChange],
    ) -> Result<DeltaReport> {
        let ws = self.ws;
        let mut rep = DeltaReport {
            changes_seen: changes.len() as u64,
            ..DeltaReport::default()
        };
        let upq_before = self.store.stats().upqueries;
        for v in &mut self.views {
            v.tree.root.reset_counters();
            // a view that degraded in an earlier batch retries its
            // rebuild now, even if this batch is empty
            if v.degraded {
                v.needs_rebuild = true;
            }
        }

        // fold per URL, last kind wins; BTreeMap over the URL string keeps
        // the processing order deterministic
        let mut folded: BTreeMap<String, (Url, String, ChangeKind)> = BTreeMap::new();
        for c in changes {
            folded.insert(
                c.url.as_str().to_string(),
                (c.url.clone(), c.scheme.clone(), c.kind),
            );
        }
        let mut dirty: HashSet<Url> = folded.values().map(|(u, _, _)| u.clone()).collect();

        // ── phase 1: adds and edits, with link fan-out ──────────────────
        let mut worklist: VecDeque<(Url, String)> = folded
            .values()
            .filter(|(u, _, k)| {
                *k != ChangeKind::Removed
                    && (self.store.knows(u) || ws.entry_points().iter().any(|e| e.url == *u))
            })
            .map(|(u, s, _)| (u.clone(), s.clone()))
            .collect();
        let mut processed: HashSet<Url> = HashSet::new();
        while let Some((url, scheme)) = worklist.pop_front() {
            if !processed.insert(url.clone()) {
                continue;
            }
            prewarm_views(
                &mut self.views,
                &url,
                &scheme,
                &mut self.store,
                ws,
                server,
                &dirty,
                &mut rep,
            );
            let old = self.store.resident(&url).map(|p| p.tuple.clone());
            let was_known = self.store.knows(&url);
            match server.get(&url) {
                Ok(resp) => {
                    rep.pages_fetched += 1;
                    let ps = ws.scheme(&scheme)?;
                    let tuple = wrapper::wrap_bytes(ps, &resp.body)
                        .map_err(|e| DataflowError::Wrap(format!("{url}: {e}")))?;
                    let date = resp.last_modified.max(server.now());
                    self.store
                        .put(ws, url.clone(), &scheme, tuple.clone(), date);
                    dirty.remove(&url);
                    for (tscheme, turl) in self.store.outlinks_of(ws, &url) {
                        if !self.store.knows(&turl) && !processed.contains(&turl) {
                            worklist.push_back((turl, tscheme));
                        }
                    }
                    if old.as_ref() == Some(&tuple) {
                        continue; // republish with identical content: no-op
                    }
                    let d = PageDelta {
                        url,
                        scheme,
                        old,
                        new: Some(tuple),
                        was_known,
                    };
                    propagate_delta(
                        &mut self.views,
                        &d,
                        &mut self.store,
                        ws,
                        server,
                        &dirty,
                        &mut rep,
                    );
                }
                Err(e) if e.is_transient() => {
                    // serve stale: keep the old rows, no delta
                    if self.store.mark_stale(&url) {
                        rep.marked_stale += 1;
                    }
                    rep.failed.push(url.clone());
                    dirty.remove(&url);
                    for (tscheme, turl) in self.store.outlinks_of(ws, &url) {
                        if !self.store.knows(&turl) && !processed.contains(&turl) {
                            worklist.push_back((turl, tscheme));
                        }
                    }
                }
                Err(_) => {
                    // definite 404 under an add/edit entry: the page
                    // vanished between mutation and sync — treat as removal
                    dirty.remove(&url);
                    retract_page(
                        &mut self.views,
                        &url,
                        &scheme,
                        &mut self.store,
                        ws,
                        server,
                        &dirty,
                        &mut rep,
                    );
                }
            }
        }

        // ── phase 2: explicit removals ──────────────────────────────────
        for (url, scheme, kind) in folded.values() {
            if *kind != ChangeKind::Removed || processed.contains(url) {
                continue;
            }
            processed.insert(url.clone());
            dirty.remove(url);
            if !self.store.knows(url) {
                continue;
            }
            prewarm_views(
                &mut self.views,
                url,
                scheme,
                &mut self.store,
                ws,
                server,
                &dirty,
                &mut rep,
            );
            retract_page(
                &mut self.views,
                url,
                scheme,
                &mut self.store,
                ws,
                server,
                &dirty,
                &mut rep,
            );
        }

        // ── phase 3: reachability sweep (store only; the link-removal
        // deltas already retracted any affected view rows) ───────────────
        let reached = self.store.reachable(ws);
        for url in self.store.urls() {
            if !reached.contains(&url) && self.store.drop_page(&url) {
                rep.pages_dropped += 1;
            }
        }

        // rebuild any view whose state was lost (or that was degraded)
        for v in &mut self.views {
            if !v.needs_rebuild {
                continue;
            }
            match rebuild(v, &mut self.store, ws, server, self.slice_budget) {
                Ok(()) => rep.view_rebuilds += 1,
                Err(DataflowError::Upquery { url, reason: _ }) => {
                    v.degraded = true;
                    rep.failed.push(url);
                }
                Err(e) => return Err(e),
            }
        }

        rep.upqueries = self.store.stats().upqueries - upq_before;
        rep.failed.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        rep.failed.dedup();

        self.syncs_c.inc();
        self.changes_c.add(rep.changes_seen);
        self.fetched_c.add(rep.pages_fetched);
        self.dropped_c.add(rep.pages_dropped);
        self.stale_c.add(rep.marked_stale);
        self.rebuilds_c.add(rep.view_rebuilds);
        self.rows_added_c.add(rep.rows_added);
        self.rows_removed_c.add(rep.rows_removed);

        Ok(rep)
    }
}

#[allow(clippy::too_many_arguments)]
fn prewarm_views(
    views: &mut [RegisteredView],
    url: &Url,
    scheme: &str,
    store: &mut PartialStore,
    ws: &WebScheme,
    server: &impl PageServer,
    dirty: &HashSet<Url>,
    rep: &mut DeltaReport,
) {
    for v in views.iter_mut() {
        if v.degraded || v.needs_rebuild {
            continue;
        }
        match v.tree.root.prewarm(url, scheme, store, ws, server, dirty) {
            Ok(()) => {}
            Err(DataflowError::Upquery { url, reason: _ }) => {
                v.degraded = true;
                v.needs_rebuild = true;
                rep.failed.push(url);
            }
            Err(_) => v.needs_rebuild = true,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn propagate_delta(
    views: &mut [RegisteredView],
    d: &PageDelta,
    store: &mut PartialStore,
    ws: &WebScheme,
    server: &impl PageServer,
    dirty: &HashSet<Url>,
    rep: &mut DeltaReport,
) {
    for v in views.iter_mut() {
        if v.degraded || v.needs_rebuild {
            continue;
        }
        match v.tree.root.on_delta(d, store, ws, server, dirty) {
            Ok(rows) => {
                for (row, w) in rows {
                    if w > 0 {
                        rep.rows_added += w as u64;
                    } else {
                        rep.rows_removed += (-w) as u64;
                    }
                    add_row(&mut v.answer, row, w);
                }
            }
            Err(DataflowError::Upquery { url, reason: _ }) => {
                v.degraded = true;
                v.needs_rebuild = true;
                rep.failed.push(url);
            }
            Err(_) => v.needs_rebuild = true,
        }
    }
}

/// Retracts a removed page from the views; the store keeps the old copy
/// stale-but-retained and queues the `CheckMissing` sweep, matching the
/// full-refresh crawl's treatment of a 404.
#[allow(clippy::too_many_arguments)]
fn retract_page(
    views: &mut [RegisteredView],
    url: &Url,
    scheme: &str,
    store: &mut PartialStore,
    ws: &WebScheme,
    server: &impl PageServer,
    dirty: &HashSet<Url>,
    rep: &mut DeltaReport,
) {
    let old = store.resident(url).map(|p| p.tuple.clone());
    let d = PageDelta {
        url: url.clone(),
        scheme: scheme.to_string(),
        old,
        new: None,
        was_known: true,
    };
    propagate_delta(views, &d, store, ws, server, dirty, rep);
    if store.mark_stale(url) {
        rep.marked_stale += 1;
    }
    store.mat_mut().check_missing.push_back(url.clone());
}

fn rebuild(
    v: &mut RegisteredView,
    store: &mut PartialStore,
    ws: &WebScheme,
    server: &impl PageServer,
    slice_budget: Option<usize>,
) -> Result<()> {
    let mut tree = compile(&v.expr, ws, slice_budget)?;
    let rows = tree.root.init(store, ws, server)?;
    let mut answer = RowSet::new();
    for (row, w) in rows {
        add_row(&mut answer, row, w);
    }
    v.tree = tree;
    v.answer = answer;
    v.rebuilds += 1;
    v.needs_rebuild = false;
    v.degraded = false;
    Ok(())
}
