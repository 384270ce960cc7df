//! The maintenance loop: registered views, change-feed syncs, rebuilds.
//!
//! An [`IncrementalView`] owns a [`MatStore`] and a set of compiled
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
//!    The store walks only when its link graph moved since the last sweep
//!    ([`MatStore::sweep_unreachable`]); a batch of content edits costs
//!    nothing here.
//!
//! The view's cursor is registered with the site it syncs against, which
//! keeps the feed from the cursor on and nothing before it. A view whose
//! cursor lies below what the site still holds cannot be told what it
//! missed; it refreshes the store in full and rebuilds every view.
//!
//! When needed state is gone — the evicted payload of a page that changed —
//! the affected view **rebuilds** from the post-sync store at the end of
//! the batch. A transient upquery failure instead **degrades** the view:
//! `answer` returns `None` (the serving layer falls back to live
//! evaluation) until a later sync rebuilds it successfully.

use crate::delta::{Answer, PageDelta};
use crate::maintain::full_refresh_report;
use crate::ops::{compile, Ctx, OpTree};
use crate::store::{Download, MatStore};
use crate::{MatError, Result};
use adm::{Relation, Url, WebScheme};
use nalg::{ChangeFeed, ChangeKind, FeedCursor, FeedTrimmed, NalgExpr, PageServer, SiteChange};
use obs::{EventKind, MetricsRegistry, TraceSink};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// What one [`IncrementalView::sync`] batch did.
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
    answer: Answer,
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
    store: MatStore,
    /// Where the next sync resumes; registered with the site it syncs
    /// against, which keeps the feed from here on and drops the rest.
    cursor: FeedCursor,
    views: Vec<RegisteredView>,
    registry: MetricsRegistry,
    trace: Option<TraceSink>,
}

/// Adds `runs` batches and their report to the `sync_*` counters (a zero
/// report registers them).
fn count_sync(registry: &MetricsRegistry, runs: u64, rep: &DeltaReport) {
    for (name, n) in [
        ("sync_runs", runs),
        ("sync_changes", rep.changes_seen),
        ("sync_pages_fetched", rep.pages_fetched),
        ("sync_pages_dropped", rep.pages_dropped),
        ("sync_marked_stale", rep.marked_stale),
        ("sync_view_rebuilds", rep.view_rebuilds),
        ("sync_rows_added", rep.rows_added),
        ("sync_rows_removed", rep.rows_removed),
    ] {
        registry.counter(name).add(n);
    }
}

impl<'a> IncrementalView<'a> {
    /// An unbudgeted maintainer over `ws`. All metrics register under the
    /// `dataflow` prefix.
    pub fn new(ws: &'a WebScheme) -> Self {
        let registry = MetricsRegistry::with_prefix("dataflow");
        let mut store = MatStore::new();
        store.register_metrics(&registry);
        count_sync(&registry, 0, &DeltaReport::default());
        IncrementalView {
            ws,
            store,
            cursor: FeedCursor::new(0),
            views: Vec::new(),
            registry,
            trace: None,
        }
    }

    /// Bounds the page store's resident payload bytes.
    pub fn with_byte_budget(mut self, budget: usize) -> Self {
        self.store.set_budget(self.ws, Some(budget));
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

    /// The underlying page store.
    pub fn store(&self) -> &MatStore {
        &self.store
    }

    /// Mutable access to the store (tests and experiments).
    pub fn store_mut(&mut self) -> &mut MatStore {
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
        self.cursor.get()
    }

    /// Positions the feed cursor (typically `site.change_cursor()` taken
    /// right after [`IncrementalView::materialize`], so the crawl itself
    /// is not replayed as changes).
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor.set(cursor);
    }

    /// Registers a query for maintenance under a lookup key, seeding the
    /// answer from the store by a *rebuild* through its freshly compiled
    /// tree (the same delta rules every sync runs). The expression must be
    /// computable (run the optimizer first — external leaves are not
    /// maintainable).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        key: impl Into<String>,
        expr: &NalgExpr,
        server: &impl PageServer,
    ) -> Result<()> {
        let mut view = RegisteredView {
            name: name.into(),
            key: key.into(),
            expr: expr.clone(),
            tree: compile(expr, self.ws)?,
            answer: Answer::default(),
            degraded: false,
            needs_rebuild: false,
            rebuilds: 0,
        };
        view.populate(&mut self.store, self.ws, server)?;
        self.views.push(view);
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

    /// The maintained answer for `key`: rows in deterministic sorted
    /// order ([`crate::delta::row_cmp`] — the form the answer is kept in,
    /// so a read copies the header and *shares* the rows: it costs the same
    /// for ten rows and for a thousand). The relation stays what it was
    /// when it was read; a sync that finds a reader still holding it copies
    /// the rows once before writing (see [`Answer`]). `None` when no such
    /// view is registered or the view is degraded — the caller should fall
    /// back to live evaluation.
    pub fn answer(&self, key: &str) -> Option<Relation> {
        let v = self.views.iter().find(|v| v.key == key)?;
        if v.degraded {
            return None;
        }
        Relation::from_shared_rows(v.tree.columns.clone(), v.answer.rows()).ok()
    }

    /// Drains the site's change feed through the views, advancing the
    /// cursor. Fetches go to the site itself.
    pub fn sync(&mut self, site: &(impl ChangeFeed + PageServer)) -> Result<DeltaReport> {
        self.sync_with(site, site)
    }

    /// Like [`IncrementalView::sync`], fetching through `server` instead of
    /// the site's own (the perf ledger passes one that times every GET and
    /// HEAD under a span).
    ///
    /// The first sync against a site registers this view's cursor with it
    /// ([`ChangeFeed::changes_for`]); from then on the site keeps the feed from
    /// the cursor on and the view, by advancing it, lets the rest go. A
    /// view whose cursor lies below what the site still holds (it came
    /// late to a feed other readers had consumed) cannot learn what it
    /// missed: it refreshes in full — the store re-crawled and swept,
    /// every view rebuilt from it — and resumes from the end of the feed.
    pub fn sync_with(
        &mut self,
        site: &impl ChangeFeed,
        server: &impl PageServer,
    ) -> Result<DeltaReport> {
        let rep = match site.changes_for(&self.cursor) {
            Ok(changes) => self.apply_changes(server, changes)?,
            Err(FeedTrimmed { .. }) => self.refresh(server)?,
        };
        self.cursor.set(site.change_cursor());
        Ok(rep)
    }

    /// Brings store and views up to date without the feed: a full refresh
    /// of the store, then every view rebuilt from it.
    fn refresh(&mut self, server: &impl PageServer) -> Result<DeltaReport> {
        let upq_before = self.store.stats().upqueries;
        let (crawl, dropped) = full_refresh_report(&mut self.store, self.ws, server)?;
        let rep = DeltaReport {
            pages_fetched: crawl.downloaded as u64,
            pages_dropped: dropped as u64,
            marked_stale: self.store.stale_count() as u64,
            failed: crawl.failed,
            ..DeltaReport::default()
        };
        for v in &mut self.views {
            v.needs_rebuild = true;
        }
        self.finish_batch(server, rep, upq_before)
    }

    /// Applies a batch of feed entries (the three-phase protocol in the
    /// module docs) and rebuilds or retries any view whose state was lost.
    ///
    /// With a trace sink attached the whole batch runs under a
    /// `dataflow.sync` span, and an [`obs::reqctx`] context is installed
    /// for its duration so store upqueries issued on the views' behalf
    /// attribute themselves to the sync (as `dataflow.upquery` events
    /// parented under the span).
    fn apply_changes(
        &mut self,
        server: &impl PageServer,
        changes: &[SiteChange],
    ) -> Result<DeltaReport> {
        let Some(trace) = self.trace.clone() else {
            return self.apply_changes_inner(server, changes);
        };
        let mut span = trace.begin(EventKind::Dataflow, "dataflow.sync", None);
        let parent = span.id();
        let ctx = obs::reqctx::RequestCtx::traced(obs::reqctx::Attribution {
            sink: trace.clone(),
            parent,
            request_id: 0,
            clock: obs::reqctx::FetchClock::new(),
        });
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
            let was_known = self.store.knows(&url);
            let (links, delta) = match self.store.download(ws, server, &url, &scheme)? {
                Download::Fresh(fresh) => {
                    rep.pages_fetched += 1;
                    dirty.remove(&url);
                    // a republish with identical content is no delta
                    let changed = fresh.old.as_ref() != Some(&fresh.new);
                    let delta = changed.then_some(PageDelta {
                        url,
                        scheme,
                        old: fresh.old,
                        new: Some(fresh.new),
                        was_known,
                    });
                    (fresh.links, delta)
                }
                Download::Transient(_) => {
                    // serve stale: keep the old rows, no delta
                    if self.store.mark_stale(&url) {
                        rep.marked_stale += 1;
                    }
                    rep.failed.push(url.clone());
                    dirty.remove(&url);
                    (self.store.outlinks_of(ws, &url), None)
                }
                Download::Gone => {
                    // definite 404 under an add/edit entry: the page
                    // vanished between mutation and sync — treat as removal
                    dirty.remove(&url);
                    self.retract(&url, &scheme, server, &dirty, &mut rep);
                    (Vec::new(), None)
                }
            };
            // newly linked pages fan out exactly like the crawl discovers them
            for (tscheme, turl) in links {
                if !self.store.knows(&turl) && !processed.contains(&turl) {
                    worklist.push_back((turl, tscheme));
                }
            }
            if let Some(d) = delta {
                self.propagate(&d, server, &dirty, &mut rep);
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
            self.retract(url, scheme, server, &dirty, &mut rep);
        }

        // ── phase 3: reachability sweep (store only; the link-removal
        // deltas already retracted any affected view rows). The store
        // walks iff its link graph moved — a batch of content edits is 0
        // without looking ───────────────────────────────────────────────
        rep.pages_dropped = self.store.sweep_unreachable(ws) as u64;

        self.finish_batch(server, rep, upq_before)
    }

    /// The tail every batch shares: rebuild any view whose state was lost
    /// (or that was degraded), close the report and count it.
    fn finish_batch(
        &mut self,
        server: &impl PageServer,
        mut rep: DeltaReport,
        upq_before: u64,
    ) -> Result<DeltaReport> {
        let ws = self.ws;
        for v in self.views.iter_mut().filter(|v| v.needs_rebuild) {
            let old = std::mem::replace(&mut v.tree, compile(&v.expr, ws)?);
            match v.populate(&mut self.store, ws, server) {
                Ok(()) => {
                    v.rebuilds += 1;
                    rep.view_rebuilds += 1;
                }
                Err(MatError::Upquery { url, reason: _ }) => {
                    v.tree = old;
                    v.degraded = true;
                    rep.failed.push(url);
                }
                Err(e) => return Err(e),
            }
        }

        rep.upqueries = self.store.stats().upqueries - upq_before;
        rep.failed.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        rep.failed.dedup();

        count_sync(&self.registry, 1, &rep);
        Ok(rep)
    }

    /// The views a page delta may flow through: those still holding
    /// trustworthy state this batch.
    fn live_views(views: &mut [RegisteredView]) -> impl Iterator<Item = &mut RegisteredView> {
        views.iter_mut().filter(|v| !v.degraded && !v.needs_rebuild)
    }

    fn propagate(
        &mut self,
        d: &PageDelta,
        server: &impl PageServer,
        dirty: &HashSet<Url>,
        rep: &mut DeltaReport,
    ) {
        let mut cx = Ctx {
            store: &mut self.store,
            ws: self.ws,
            server,
            dirty,
        };
        for v in Self::live_views(&mut self.views) {
            match v.tree.root.on_delta(Some(d), &mut cx) {
                Ok(rows) => {
                    for (row, w) in rows {
                        if w > 0 {
                            rep.rows_added += w as u64;
                        } else {
                            rep.rows_removed += (-w) as u64;
                        }
                        v.answer.add(row, w);
                    }
                }
                Err(e) => v.lose_state(e, rep),
            }
        }
    }

    /// Retracts a removed page from the views; the store keeps the old
    /// copy stale-but-retained and queues the `CheckMissing` sweep,
    /// matching the full-refresh crawl's treatment of a 404.
    fn retract(
        &mut self,
        url: &Url,
        scheme: &str,
        server: &impl PageServer,
        dirty: &HashSet<Url>,
        rep: &mut DeltaReport,
    ) {
        let d = PageDelta {
            url: url.clone(),
            scheme: scheme.to_string(),
            old: self.store.get(url).map(|p| Arc::clone(&p.tuple)),
            new: None,
            was_known: true,
        };
        self.propagate(&d, server, dirty, rep);
        if self.store.mark_stale(url) {
            rep.marked_stale += 1;
        }
        self.store.check_missing.push_back(url.clone());
    }
}

impl RegisteredView {
    /// Builds operator state and the answer from the store: the tree's
    /// one delta interpreter run on *rebuild*. The tree must be fresh —
    /// [`IncrementalView::register`] compiles it just before, and the
    /// batch's rebuild compiles a new one in place of the lost state.
    fn populate(
        &mut self,
        store: &mut MatStore,
        ws: &WebScheme,
        server: &impl PageServer,
    ) -> Result<()> {
        let mut cx = Ctx {
            store,
            ws,
            server,
            dirty: &HashSet::new(),
        };
        let mut answer = Answer::default();
        for (row, w) in self.tree.root.on_delta(None, &mut cx)? {
            answer.add(row, w);
        }
        self.answer = answer;
        self.needs_rebuild = false;
        self.degraded = false;
        Ok(())
    }

    /// Operator state was lost mid-batch: rebuild at batch end. A failed
    /// upquery additionally suspends serving until that rebuild succeeds.
    fn lose_state(&mut self, e: MatError, rep: &mut DeltaReport) {
        self.needs_rebuild = true;
        if let MatError::Upquery { url, reason: _ } = e {
            self.degraded = true;
            rep.failed.push(url);
        }
    }
}
