//! The virtual web server.
//!
//! Pages live in an in-memory store keyed by URL. Two request kinds mirror
//! the paper's cost model:
//!
//! * [`VirtualServer::get`] — a full download; this is what the cost
//!   function 𝒞 counts;
//! * [`VirtualServer::head`] — a "light connection" (Section 8) that
//!   exchanges only an error flag and the date of last modification, used
//!   by materialized-view maintenance.
//!
//! A logical clock stamps every stored page with its last-modified time;
//! mutations bump the clock, so freshness checks behave like HTTP
//! `If-Modified-Since` without real time.

use crate::fault::{FaultKind, FaultPlan};
use adm::Url;
use nalg::{HeadResponse, PageResponse, PageServer, SourceError};
use obs::{Counter, FixedHistogram, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A stored page.
#[derive(Debug, Clone)]
struct StoredPage {
    /// Page-scheme name, carried as out-of-band metadata the way a real
    /// deployment would carry a wrapper registry keyed by URL pattern.
    scheme: String,
    body: Arc<[u8]>,
    last_modified: u64,
}

/// A deterministic heavy-tail latency model.
///
/// Most requests pay `floor_us`; a `tail_rate` fraction pay
/// `floor_us + tail_us`. Whether a given request lands in the tail is a
/// pure function of `(seed, url, attempt)` — the per-URL attempt counter
/// makes a *repeat* request to the same URL (a hedge's backup GET, a
/// retry) re-roll the decision, exactly the property hedging exploits —
/// so every seeded run is reproducible end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Latency every request pays, in microseconds.
    pub floor_us: u64,
    /// Extra latency a tail request pays on top of the floor.
    pub tail_us: u64,
    /// Fraction of requests landing in the tail, in `[0, 1]`.
    pub tail_rate: f64,
    /// Seed of the per-(url, attempt) tail decision stream.
    pub seed: u64,
}

impl LatencyProfile {
    /// The deterministic delay for the `attempt`-th request (1-based) to
    /// `url`.
    pub fn delay_us(&self, url: &Url, attempt: u64) -> u64 {
        let tail_ppm = (self.tail_rate.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        if tail_ppm == 0 {
            return self.floor_us;
        }
        // FNV-1a over the URL bytes, mixed with seed and attempt by the
        // splitmix64 finaliser (no increment) — fully deterministic.
        let h = adm::fnv1a(url.as_str().bytes());
        let z = adm::mix64(h ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ attempt);
        if z % 1_000_000 < tail_ppm {
            self.floor_us + self.tail_us
        } else {
            self.floor_us
        }
    }
}

/// Per-kind counts of injected faults (all zero without a fault plan).
/// These are separate from `gets`/`heads`/`not_found` so the paper's
/// access accounting stays fault-blind when no plan is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Injected transient 5xx errors.
    pub unavailable: u64,
    /// Injected transient timeouts.
    pub timeout: u64,
    /// Injected permanent 404s (link rot).
    pub link_rot: u64,
    /// Requests served after an injected delay.
    pub slow: u64,
    /// GETs served with a truncated body.
    pub truncated: u64,
}

impl FaultSnapshot {
    /// Difference of two snapshots (self − earlier).
    /// Saturating per-field subtraction: a field that went backwards
    /// (e.g. counters were reset between snapshots) yields 0, not a
    /// wrapped-around huge delta.
    pub fn since(&self, earlier: &FaultSnapshot) -> FaultSnapshot {
        FaultSnapshot {
            unavailable: self.unavailable.saturating_sub(earlier.unavailable),
            timeout: self.timeout.saturating_sub(earlier.timeout),
            link_rot: self.link_rot.saturating_sub(earlier.link_rot),
            slow: self.slow.saturating_sub(earlier.slow),
            truncated: self.truncated.saturating_sub(earlier.truncated),
        }
    }

    /// Total faults of every kind.
    pub fn total(&self) -> u64 {
        self.unavailable + self.timeout + self.link_rot + self.slow + self.truncated
    }
}

/// A snapshot of the access counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessSnapshot {
    /// Number of full page downloads.
    pub gets: u64,
    /// Number of light connections.
    pub heads: u64,
    /// Total bytes transferred by GETs.
    pub bytes: u64,
    /// Requests (of either kind) answered with 404.
    pub not_found: u64,
    /// Injected faults by kind (zero without a [`FaultPlan`]).
    pub faults: FaultSnapshot,
}

impl AccessSnapshot {
    /// Difference of two snapshots (self − earlier).
    /// Saturating per-field subtraction: a field that went backwards
    /// (e.g. [`VirtualServer::reset_stats`] ran between snapshots)
    /// yields 0, not a wrapped-around huge delta.
    pub fn since(&self, earlier: &AccessSnapshot) -> AccessSnapshot {
        AccessSnapshot {
            gets: self.gets.saturating_sub(earlier.gets),
            heads: self.heads.saturating_sub(earlier.heads),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            not_found: self.not_found.saturating_sub(earlier.not_found),
            faults: self.faults.since(&earlier.faults),
        }
    }
}

/// Mutable bookkeeping of an installed fault plan: the per-URL attempt
/// counter transient decisions re-roll on, and the per-(rule, URL)
/// injection counts that enforce [`crate::fault::FaultRule::max_per_url`].
#[derive(Debug, Default)]
struct FaultState {
    plan: FaultPlan,
    attempts: HashMap<Url, u64>,
    injected: HashMap<(usize, Url), u32>,
}

/// The in-process web server.
///
/// Access counters live in an [`obs::MetricsRegistry`] (prefix
/// `websim`); [`AccessSnapshot`] is a point-in-time view over those
/// registry cells, so the numbers are identical to the pre-registry
/// ad-hoc atomics.
#[derive(Debug)]
pub struct VirtualServer {
    pages: RwLock<HashMap<Url, StoredPage>>,
    clock: AtomicU64,
    registry: MetricsRegistry,
    gets: Counter,
    heads: Counter,
    bytes: Counter,
    not_found: Counter,
    /// Distribution of completed GET body sizes.
    get_bytes: FixedHistogram,
    /// GETs per page-scheme. A scheme's cell is created once, under the
    /// write lock; every later GET of it takes the read lock and bumps an
    /// atomic.
    gets_by_scheme: RwLock<HashMap<String, AtomicU64>>,
    /// Simulated network latency per request, in microseconds (0 = off).
    latency_us: AtomicU64,
    /// Fast-path flag: true only while a latency profile is installed.
    profile_on: AtomicBool,
    /// Heavy-tail latency model plus its per-URL attempt counter.
    latency_profile: Mutex<Option<(LatencyProfile, HashMap<Url, u64>)>>,
    /// Fast-path flag: true only while a fault plan is installed, so the
    /// zero-fault request path never touches the fault lock.
    chaos_enabled: AtomicBool,
    fault: Mutex<FaultState>,
    f_unavailable: Counter,
    f_timeout: Counter,
    f_link_rot: Counter,
    f_slow: Counter,
    f_truncated: Counter,
}

impl Default for VirtualServer {
    fn default() -> Self {
        let registry = MetricsRegistry::with_prefix("websim");
        VirtualServer {
            pages: RwLock::default(),
            clock: AtomicU64::new(0),
            gets: registry.counter("gets"),
            heads: registry.counter("heads"),
            bytes: registry.counter("bytes"),
            not_found: registry.counter("not_found"),
            get_bytes: registry.histogram("get_bytes"),
            gets_by_scheme: RwLock::default(),
            latency_us: AtomicU64::new(0),
            profile_on: AtomicBool::new(false),
            latency_profile: Mutex::new(None),
            chaos_enabled: AtomicBool::new(false),
            fault: Mutex::new(FaultState::default()),
            f_unavailable: registry.counter("fault_unavailable"),
            f_timeout: registry.counter("fault_timeout"),
            f_link_rot: registry.counter("fault_link_rot"),
            f_slow: registry.counter("fault_slow"),
            f_truncated: registry.counter("fault_truncated"),
            registry,
        }
    }
}

/// Sleeps out one simulated network delay, abandoning the wait early when
/// the ambient request's budget (see [`obs::reqctx`], which the evaluator
/// installs) has a fired deadline or has cancelled this URL; returns false
/// when it abandoned. Abandonment models a client closing its connection:
/// the server still does the work and charges its access counters, but
/// the caller is answered [`SourceError::Cancelled`] instead of the page,
/// and its blocked thread is released — so a browned-out evaluation never
/// sits out a tail it will not use. Without a finite deadline or a cancel
/// token in scope this is a plain sleep, byte-identical in effect to the
/// pre-budget server.
fn simulated_wait(total: Duration, url: &Url) -> bool {
    let Some(ctx) = obs::reqctx::current().filter(|c| c.has_budget()) else {
        std::thread::sleep(total);
        return true;
    };
    let t0 = std::time::Instant::now();
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= total {
            return true;
        }
        if ctx.deadline.expired()
            || ctx
                .cancel
                .as_ref()
                .is_some_and(|t| t.is_url_cancelled(url.as_str()))
        {
            return false;
        }
        std::thread::sleep((total - elapsed).min(Duration::from_micros(200)));
    }
}

/// What a request whose simulated wait was abandoned answers: the
/// requester gave up, so it gets [`SourceError::Cancelled`] whatever the
/// server made of the request.
fn answer<T>(waited: bool, url: &Url, served: Result<T, SourceError>) -> Result<T, SourceError> {
    if waited {
        served
    } else {
        Err(SourceError::Cancelled(url.clone()))
    }
}

impl VirtualServer {
    /// An empty server at logical time 0.
    pub fn new() -> Self {
        VirtualServer::default()
    }

    /// The registry backing this server's counters (prefix `websim`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advances the logical clock and returns the new time.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Sets a simulated per-request network latency (applied to both GET
    /// and HEAD). Lets experiments show wall-clock effects — e.g. of
    /// concurrent fetching — that the page-count cost model abstracts away.
    pub fn set_latency(&self, latency: Duration) {
        self.latency_us
            .store(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Installs a heavy-tail latency profile (replacing any previous one
    /// and its attempt bookkeeping). Stacks with [`set_latency`]: both
    /// delays apply, though experiments normally use one or the other.
    ///
    /// [`set_latency`]: VirtualServer::set_latency
    pub fn set_latency_profile(&self, profile: LatencyProfile) {
        let mut g = self.latency_profile.lock();
        self.profile_on.store(true, Ordering::Release);
        *g = Some((profile, HashMap::new()));
    }

    /// Removes the latency profile; only the flat `set_latency` delay
    /// (if any) remains.
    pub fn clear_latency_profile(&self) {
        let mut g = self.latency_profile.lock();
        self.profile_on.store(false, Ordering::Release);
        *g = None;
    }

    /// Waits out the request's simulated latency; false when the wait was
    /// abandoned (see [`simulated_wait`]).
    fn simulate_latency(&self, url: &Url) -> bool {
        let mut waited = true;
        let us = self.latency_us.load(Ordering::Relaxed);
        if us > 0 {
            waited = simulated_wait(Duration::from_micros(us), url);
        }
        if self.profile_on.load(Ordering::Acquire) {
            let delay = {
                let mut g = self.latency_profile.lock();
                g.as_mut().map(|(profile, attempts)| {
                    let n = attempts.entry(url.clone()).or_insert(0);
                    *n += 1;
                    profile.delay_us(url, *n)
                })
            };
            if let Some(us) = delay {
                if us > 0 {
                    waited &= simulated_wait(Duration::from_micros(us), url);
                }
            }
        }
        waited
    }

    /// Installs a fault plan: subsequent requests consult it and may be
    /// failed, delayed, or mangled. Replaces any previous plan (and its
    /// per-URL attempt bookkeeping).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut state = self.fault.lock();
        self.chaos_enabled
            .store(!plan.is_empty(), Ordering::Release);
        *state = FaultState {
            plan,
            ..FaultState::default()
        };
    }

    /// Removes the fault plan; the server serves cleanly again.
    pub fn clear_fault_plan(&self) {
        self.set_fault_plan(FaultPlan::default());
    }

    /// The installed fault plan, if any rules are active.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if !self.chaos_enabled.load(Ordering::Acquire) {
            return None;
        }
        let state = self.fault.lock();
        (!state.plan.is_empty()).then(|| state.plan.clone())
    }

    /// Consults the fault plan for one request, advancing the per-URL
    /// attempt counter and recording the injection. `None` when no rule
    /// fires; [`VirtualServer::meet_fault`] calls it only under a plan.
    fn apply_fault(&self, url: &Url, scheme: Option<&str>, is_head: bool) -> Option<FaultKind> {
        let mut state = self.fault.lock();
        let attempt = {
            let a = state.attempts.entry(url.clone()).or_insert(0);
            let current = *a;
            *a += 1;
            current
        };
        let decision = state.plan.decide(url, scheme, is_head, attempt, |rule| {
            state
                .injected
                .get(&(rule, url.clone()))
                .copied()
                .unwrap_or(0)
        });
        let (rule, kind) = decision?;
        *state.injected.entry((rule, url.clone())).or_insert(0) += 1;
        let counter = match kind {
            FaultKind::Unavailable => &self.f_unavailable,
            FaultKind::Timeout => &self.f_timeout,
            FaultKind::LinkRot => &self.f_link_rot,
            FaultKind::Slow { .. } => &self.f_slow,
            FaultKind::Truncate { .. } => &self.f_truncated,
        };
        counter.inc();
        Some(kind)
    }

    /// Publishes (or replaces) a page; stamps it with the *current* clock.
    pub fn put(&self, url: Url, scheme: impl Into<String>, body: impl Into<Vec<u8>>) {
        let page = StoredPage {
            scheme: scheme.into(),
            body: body.into().into(),
            last_modified: self.now(),
        };
        self.pages.write().insert(url, page);
    }

    /// Publishes a page after bumping the clock — the page is strictly
    /// newer than anything stamped before this call.
    pub fn put_updated(&self, url: Url, scheme: impl Into<String>, body: impl Into<Vec<u8>>) {
        self.tick();
        self.put(url, scheme, body);
    }

    /// Deletes a page. Returns true if it existed.
    pub fn remove(&self, url: &Url) -> bool {
        self.tick();
        self.pages.write().remove(url).is_some()
    }

    /// Full download. Counts one GET and the body bytes. A failed request
    /// (404 or injected fault) counts in `not_found`/`faults`, never as a
    /// GET: the paper's cost measure charges only completed downloads. A
    /// request whose requester gave up during a simulated wait is still
    /// counted, and answered [`SourceError::Cancelled`].
    pub fn get(&self, url: &Url) -> Result<PageResponse, SourceError> {
        let mut waited = self.simulate_latency(url);
        let served = self.serve_get(url, &mut waited);
        answer(waited, url, served)
    }

    /// The fault a GET (or, `head`, a HEAD) of `url` meets, decided
    /// against the page's scheme. An availability fault is the request's
    /// answer. A `Slow` fault's delay is waited out here, holding no lock,
    /// as the latency wait is, so a writer never waits on it; the wait
    /// clears `waited` when it is abandoned. Without a fault plan (the
    /// zero-fault fast path) it reads nothing: the page table is looked up
    /// once a request, by the request itself.
    fn meet_fault(
        &self,
        url: &Url,
        head: bool,
        waited: &mut bool,
    ) -> Result<Option<FaultKind>, SourceError> {
        if !self.chaos_enabled.load(Ordering::Acquire) {
            return Ok(None);
        }
        let kind = {
            let pages = self.pages.read();
            self.apply_fault(url, pages.get(url).map(|p| p.scheme.as_str()), head)
        };
        match kind {
            Some(FaultKind::Unavailable) => Err(SourceError::Unavailable {
                url: url.clone(),
                reason: "http 503".to_string(),
            }),
            Some(FaultKind::Timeout) => Err(SourceError::Timeout(url.clone())),
            Some(FaultKind::LinkRot) => {
                self.not_found.inc();
                Err(SourceError::NotFound(url.clone()))
            }
            Some(FaultKind::Slow { delay_us }) => {
                if delay_us > 0 {
                    *waited &= simulated_wait(Duration::from_micros(delay_us), url);
                }
                Ok(kind)
            }
            Some(FaultKind::Truncate { .. }) | None => Ok(kind),
        }
    }

    /// The server's side of [`VirtualServer::get`].
    fn serve_get(&self, url: &Url, waited: &mut bool) -> Result<PageResponse, SourceError> {
        let fault = self.meet_fault(url, false, waited)?;
        let pages = self.pages.read();
        let Some(p) = pages.get(url) else {
            self.not_found.inc();
            return Err(SourceError::NotFound(url.clone()));
        };
        // A truncated transfer "succeeded" on the wire, and is counted,
        // but the document is mangled: a prefix of the body.
        let body = match fault {
            Some(FaultKind::Truncate { keep_pct }) => {
                let keep = p.body.len() * keep_pct.min(100) as usize / 100;
                Arc::from(&p.body[..keep])
            }
            _ => p.body.clone(),
        };
        self.gets.inc();
        self.bytes.add(body.len() as u64);
        self.get_bytes.observe(body.len() as u64);
        self.count_get(&p.scheme);
        Ok(PageResponse {
            scheme: p.scheme.clone(),
            body,
            last_modified: p.last_modified,
        })
    }

    /// Light connection: only existence and last-modified are exchanged.
    /// Body-mangling faults do not apply; availability faults do. An
    /// abandoned wait is answered as [`VirtualServer::get`] answers it.
    pub fn head(&self, url: &Url) -> Result<HeadResponse, SourceError> {
        let mut waited = self.simulate_latency(url);
        let served = self.serve_head(url, &mut waited);
        answer(waited, url, served)
    }

    /// The server's side of [`VirtualServer::head`]. Body-mangling faults
    /// do not apply.
    fn serve_head(&self, url: &Url, waited: &mut bool) -> Result<HeadResponse, SourceError> {
        self.meet_fault(url, true, waited)?;
        match self.pages.read().get(url) {
            Some(p) => {
                self.heads.inc();
                Ok(HeadResponse {
                    last_modified: p.last_modified,
                })
            }
            None => {
                self.not_found.inc();
                Err(SourceError::NotFound(url.clone()))
            }
        }
    }

    /// True if a page exists, without touching any counter (test helper —
    /// not part of the simulated network protocol).
    pub fn exists(&self, url: &Url) -> bool {
        self.pages.read().contains_key(url)
    }

    /// Number of stored pages.
    pub fn page_count(&self) -> usize {
        self.pages.read().len()
    }

    /// All URLs of pages belonging to a scheme (inspection helper).
    pub fn urls_of_scheme(&self, scheme: &str) -> Vec<Url> {
        let mut v: Vec<Url> = self
            .pages
            .read()
            .iter()
            .filter(|(_, p)| p.scheme == scheme)
            .map(|(u, _)| u.clone())
            .collect();
        v.sort();
        v
    }

    /// Snapshot of the access counters.
    pub fn stats(&self) -> AccessSnapshot {
        AccessSnapshot {
            gets: self.gets.get(),
            heads: self.heads.get(),
            bytes: self.bytes.get(),
            not_found: self.not_found.get(),
            faults: FaultSnapshot {
                unavailable: self.f_unavailable.get(),
                timeout: self.f_timeout.get(),
                link_rot: self.f_link_rot.get(),
                slow: self.f_slow.get(),
                truncated: self.f_truncated.get(),
            },
        }
    }

    fn count_get(&self, scheme: &str) {
        if let Some(n) = self.gets_by_scheme.read().get(scheme) {
            n.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut by = self.gets_by_scheme.write();
        by.entry(scheme.to_string())
            .or_default()
            .fetch_add(1, Ordering::Relaxed);
    }

    /// GET counts broken down by page-scheme.
    pub fn gets_by_scheme(&self) -> HashMap<String, u64> {
        let by = self.gets_by_scheme.read();
        by.iter()
            .map(|(s, n)| (s.clone(), n.load(Ordering::Relaxed)))
            .collect()
    }

    /// Resets all access counters (not the clock, the pages, or the fault
    /// plan's attempt bookkeeping).
    pub fn reset_stats(&self) {
        self.gets.reset();
        self.heads.reset();
        self.bytes.reset();
        self.not_found.reset();
        self.f_unavailable.reset();
        self.f_timeout.reset();
        self.f_link_rot.reset();
        self.f_slow.reset();
        self.f_truncated.reset();
        self.gets_by_scheme.write().clear();
    }
}

impl PageServer for VirtualServer {
    fn get(&self, url: &Url) -> Result<PageResponse, SourceError> {
        VirtualServer::get(self, url)
    }

    fn head(&self, url: &Url) -> Result<HeadResponse, SourceError> {
        VirtualServer::head(self, url)
    }

    fn now(&self) -> u64 {
        VirtualServer::now(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_page() -> VirtualServer {
        let s = VirtualServer::new();
        s.put(Url::new("/a.html"), "APage", "<html>A</html>");
        s
    }

    #[test]
    fn get_counts_and_returns_body() {
        let s = server_with_page();
        let r = s.get(&Url::new("/a.html")).unwrap();
        assert_eq!(r.scheme, "APage");
        assert_eq!(&r.body[..], b"<html>A</html>");
        let st = s.stats();
        assert_eq!(st.gets, 1);
        assert_eq!(st.bytes, 14);
        assert_eq!(st.heads, 0);
    }

    #[test]
    fn head_is_light() {
        let s = server_with_page();
        let h = s.head(&Url::new("/a.html")).unwrap();
        assert_eq!(h.last_modified, 0);
        let st = s.stats();
        assert_eq!(st.gets, 0);
        assert_eq!(st.heads, 1);
        assert_eq!(st.bytes, 0);
    }

    #[test]
    fn missing_pages_404() {
        let s = server_with_page();
        assert!(matches!(
            s.get(&Url::new("/nope.html")),
            Err(SourceError::NotFound(_))
        ));
        assert!(matches!(
            s.head(&Url::new("/nope.html")),
            Err(SourceError::NotFound(_))
        ));
        assert_eq!(s.stats().not_found, 2);
    }

    #[test]
    fn update_bumps_last_modified() {
        let s = server_with_page();
        let before = s.get(&Url::new("/a.html")).unwrap().last_modified;
        s.put_updated(Url::new("/a.html"), "APage", "<html>A2</html>");
        let after = s.head(&Url::new("/a.html")).unwrap().last_modified;
        assert!(after > before);
    }

    #[test]
    fn remove_deletes() {
        let s = server_with_page();
        assert!(s.remove(&Url::new("/a.html")));
        assert!(!s.remove(&Url::new("/a.html")));
        assert!(!s.exists(&Url::new("/a.html")));
    }

    #[test]
    fn per_scheme_counters() {
        let s = server_with_page();
        s.put(Url::new("/b.html"), "BPage", "<html>B</html>");
        s.get(&Url::new("/a.html")).unwrap();
        s.get(&Url::new("/a.html")).unwrap();
        s.get(&Url::new("/b.html")).unwrap();
        let by = s.gets_by_scheme();
        assert_eq!(by["APage"], 2);
        assert_eq!(by["BPage"], 1);
    }

    #[test]
    fn per_scheme_counters_are_exact_under_concurrent_gets() {
        let s = server_with_page();
        s.put(Url::new("/b.html"), "BPage", "<html>B</html>");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..250 {
                        let url = if (t + i) % 5 == 0 {
                            "/b.html"
                        } else {
                            "/a.html"
                        };
                        s.get(&Url::new(url)).unwrap();
                    }
                });
            }
        });
        let by = s.gets_by_scheme();
        assert_eq!((by["APage"], by["BPage"]), (800, 200));
        assert_eq!(s.stats().gets, 1_000);
    }

    #[test]
    fn snapshot_diff() {
        let s = server_with_page();
        s.get(&Url::new("/a.html")).unwrap();
        let t0 = s.stats();
        s.get(&Url::new("/a.html")).unwrap();
        s.head(&Url::new("/a.html")).unwrap();
        let d = s.stats().since(&t0);
        assert_eq!(d.gets, 1);
        assert_eq!(d.heads, 1);
    }

    #[test]
    fn reset_clears_counters_not_pages() {
        let s = server_with_page();
        s.get(&Url::new("/a.html")).unwrap();
        s.reset_stats();
        assert_eq!(s.stats(), AccessSnapshot::default());
        assert_eq!(s.page_count(), 1);
    }

    #[test]
    fn since_saturates_after_reset() {
        // a reset between snapshots makes counters go backwards; the
        // delta must clamp at zero, never wrap to a huge u64
        let s = server_with_page();
        s.get(&Url::new("/a.html")).unwrap();
        s.get(&Url::new("/a.html")).unwrap();
        let before = s.stats();
        s.reset_stats();
        s.get(&Url::new("/a.html")).unwrap();
        let d = s.stats().since(&before);
        assert_eq!(d.gets, 0, "1 - 2 must saturate, not wrap");
        assert_eq!(d.bytes, 0);
        assert_eq!(
            d,
            s.stats().since(&before).since(&before),
            "idempotent at 0"
        );
    }

    #[test]
    fn since_saturates_per_field_independently() {
        let newer = AccessSnapshot {
            gets: 5,
            heads: 1,
            bytes: 100,
            faults: FaultSnapshot {
                timeout: 2,
                ..FaultSnapshot::default()
            },
            ..AccessSnapshot::default()
        };
        let earlier = AccessSnapshot {
            gets: 2,
            heads: 4, // went backwards
            bytes: 300,
            faults: FaultSnapshot {
                timeout: 9, // went backwards
                link_rot: 1,
                ..FaultSnapshot::default()
            },
            ..AccessSnapshot::default()
        };
        let d = newer.since(&earlier);
        assert_eq!(d.gets, 3, "forward fields still subtract exactly");
        assert_eq!(d.heads, 0);
        assert_eq!(d.bytes, 0);
        assert_eq!(d.faults.timeout, 0);
        assert_eq!(d.faults.link_rot, 0);
        assert_eq!(d.faults.total(), 0);
        // the degenerate cases: X.since(X) == 0, X.since(0) == X
        assert_eq!(newer.since(&newer), AccessSnapshot::default());
        assert_eq!(newer.since(&AccessSnapshot::default()), newer);
    }

    #[test]
    fn latency_is_simulated() {
        let s = server_with_page();
        s.set_latency(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        s.get(&Url::new("/a.html")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        s.set_latency(Duration::ZERO);
        let t0 = std::time::Instant::now();
        s.get(&Url::new("/a.html")).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn latency_profile_is_deterministic_per_url_and_attempt() {
        let p = LatencyProfile {
            floor_us: 100,
            tail_us: 9_900,
            tail_rate: 0.25,
            seed: 7,
        };
        // Pure function of (seed, url, attempt).
        let u = Url::new("/a.html");
        assert_eq!(p.delay_us(&u, 1), p.delay_us(&u, 1));
        // Over many URLs, roughly tail_rate of first attempts are slow.
        let slow = (0..1000)
            .filter(|i| p.delay_us(&Url::new(format!("/p/{i}")), 1) > p.floor_us)
            .count();
        assert!((150..350).contains(&slow), "tail fraction off: {slow}/1000");
    }

    #[test]
    fn latency_profile_rerolls_on_repeat_attempts() {
        let p = LatencyProfile {
            floor_us: 0,
            tail_us: 1,
            tail_rate: 0.5,
            seed: 3,
        };
        // Some URL must flip between attempt 1 and attempt 2 — the
        // re-roll a hedged backup GET relies on.
        let flips = (0..64).any(|i| {
            let u = Url::new(format!("/p/{i}"));
            p.delay_us(&u, 1) != p.delay_us(&u, 2)
        });
        assert!(flips);
    }

    #[test]
    fn latency_profile_delays_requests_until_cleared() {
        let s = server_with_page();
        s.set_latency_profile(LatencyProfile {
            floor_us: 5_000,
            tail_us: 0,
            tail_rate: 0.0,
            seed: 0,
        });
        let t0 = std::time::Instant::now();
        s.get(&Url::new("/a.html")).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        s.clear_latency_profile();
        let t0 = std::time::Instant::now();
        s.get(&Url::new("/a.html")).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn simulated_waits_are_severed_when_the_requester_gave_up() {
        use obs::reqctx::with_budget;
        let s = server_with_page();
        s.set_latency(Duration::from_millis(50));
        // An expired deadline in the ambient request context: the client
        // has already browned out, so the wait is abandoned — but the GET
        // was still counted (the server did the work).
        let url = Url::new("/a.html");
        let cancelled = |r: Result<PageResponse, SourceError>| matches!(r, Err(SourceError::Cancelled(u)) if u == url);
        let expired = obs::Deadline::after_us(0);
        let before = s.stats().gets;
        let t0 = std::time::Instant::now();
        let got = with_budget(expired, None, || s.get(&url));
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "an abandoned request must not sit out the full simulated wait"
        );
        assert!(cancelled(got), "the requester gave up: no page");
        assert_eq!(s.stats().gets, before + 1, "the GET is still charged");
        // A cancelled URL severs the wait the same way.
        let token = obs::CancelToken::new();
        token.cancel_url("/a.html");
        let t0 = std::time::Instant::now();
        let got = with_budget(obs::Deadline::infinite(), Some(token.clone()), || {
            s.get(&url)
        });
        assert!(t0.elapsed() < Duration::from_millis(40));
        assert!(cancelled(got));
        assert!(matches!(
            with_budget(expired, None, || s.head(&url)),
            Err(SourceError::Cancelled(_))
        ));
        // Without either signal the full wait is simulated as before.
        let t0 = std::time::Instant::now();
        s.get(&url).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(50));
        s.set_latency(Duration::ZERO);
        // A `Slow` fault's delay is a simulated wait too: a budget severs
        // it, and the slow GET is counted but answered `Cancelled`.
        let slow_rule = crate::fault::FaultRule::slow(1.0, 50_000).with_max_per_url(None);
        s.set_fault_plan(FaultPlan::new(3).with_rule(slow_rule));
        let (gets, slow) = (s.stats().gets, s.stats().faults.slow);
        for (i, (deadline, token)) in [(expired, None), (obs::Deadline::infinite(), Some(token))]
            .into_iter()
            .enumerate()
        {
            let t0 = std::time::Instant::now();
            let got = with_budget(deadline, token, || s.get(&url));
            assert!(t0.elapsed() < Duration::from_millis(40), "budget {i}");
            assert!(cancelled(got), "budget {i}");
        }
        assert_eq!(s.stats().gets, gets + 2);
        assert_eq!(s.stats().faults.slow, slow + 2);
        let t0 = std::time::Instant::now();
        s.get(&url).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(50),
            "unbudgeted: slow"
        );
        s.clear_fault_plan();
    }

    #[test]
    fn a_slow_response_holds_no_lock_a_writer_waits_on() {
        use std::time::Instant;
        let s = server_with_page();
        let slow_rule = crate::fault::FaultRule::slow(1.0, 200_000);
        s.set_fault_plan(FaultPlan::new(3).with_rule(slow_rule));
        let url = Url::new("/a.html");
        let (put, (got, slow)) = std::thread::scope(|scope| {
            let get = scope.spawn(|| {
                let t0 = Instant::now();
                (s.get(&url), t0.elapsed())
            });
            // The fault is counted when it is decided, before its delay.
            while s.stats().faults.slow == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let t0 = Instant::now();
            s.put(Url::new("/b.html"), "BPage", "<html>B</html>");
            (t0.elapsed(), get.join().unwrap())
        });
        assert!(
            put < Duration::from_millis(100),
            "a put waited {put:?} on a slow GET"
        );
        assert!(slow >= Duration::from_millis(200), "the GET was slow");
        assert_eq!(&got.unwrap().body[..], b"<html>A</html>");
        let st = s.stats();
        assert_eq!((st.gets, st.bytes, st.faults.slow), (1, 14, 1));
    }

    #[test]
    fn urls_of_scheme_sorted() {
        let s = VirtualServer::new();
        s.put(Url::new("/b"), "P", "x");
        s.put(Url::new("/a"), "P", "x");
        s.put(Url::new("/c"), "Q", "x");
        let urls = s.urls_of_scheme("P");
        assert_eq!(urls.len(), 2);
        assert!(urls[0] < urls[1]);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let s = server_with_page();
        s.set_fault_plan(FaultPlan::new(7));
        let r = s.get(&Url::new("/a.html")).unwrap();
        assert_eq!(&r.body[..], b"<html>A</html>");
        let st = s.stats();
        assert_eq!(st.gets, 1);
        assert_eq!(st.faults, FaultSnapshot::default());
    }

    #[test]
    fn unavailable_fault_counts_and_does_not_count_get() {
        let s = server_with_page();
        s.set_fault_plan(FaultPlan::new(11).with_rule(crate::fault::FaultRule::unavailable(1.0)));
        let url = Url::new("/a.html");
        // Cap of 2 injections per URL: two failures, then success.
        assert!(matches!(
            s.get(&url),
            Err(SourceError::Unavailable { reason, .. }) if reason == "http 503"
        ));
        assert!(matches!(s.get(&url), Err(SourceError::Unavailable { .. })));
        let r = s.get(&url).unwrap();
        assert_eq!(&r.body[..], b"<html>A</html>");
        let st = s.stats();
        assert_eq!(st.faults.unavailable, 2);
        assert_eq!(st.gets, 1, "failed requests must not count as GETs");
        assert_eq!(st.bytes, 14);
    }

    #[test]
    fn link_rot_is_permanent_404() {
        let s = server_with_page();
        s.set_fault_plan(FaultPlan::new(3).with_rule(crate::fault::FaultRule::link_rot(1.0)));
        let url = Url::new("/a.html");
        for _ in 0..4 {
            assert!(matches!(s.get(&url), Err(SourceError::NotFound(_))));
        }
        assert!(matches!(s.head(&url), Err(SourceError::NotFound(_))));
        let st = s.stats();
        assert_eq!(st.faults.link_rot, 5);
        assert_eq!(st.not_found, 5);
        assert_eq!(st.gets, 0);
        assert_eq!(st.heads, 0);
    }

    #[test]
    fn truncation_serves_short_body_and_counts_get() {
        let s = server_with_page(); // 14-byte body
        s.set_fault_plan(FaultPlan::new(5).with_rule(crate::fault::FaultRule::truncation(1.0, 50)));
        let r = s.get(&Url::new("/a.html")).unwrap();
        assert_eq!(r.body.len(), 7);
        assert_eq!(&r.body[..], b"<html>A");
        let st = s.stats();
        assert_eq!(st.faults.truncated, 1);
        assert_eq!(st.gets, 1, "a truncated response is still a download");
        assert_eq!(st.bytes, 7);
    }

    #[test]
    fn truncation_does_not_affect_head() {
        let s = server_with_page();
        s.set_fault_plan(
            FaultPlan::new(5)
                .with_rule(crate::fault::FaultRule::truncation(1.0, 50))
                .with_rule(crate::fault::FaultRule::slow(1.0, 1)),
        );
        s.head(&Url::new("/a.html")).unwrap();
        assert_eq!(s.stats().heads, 1);
    }

    #[test]
    fn clear_fault_plan_restores_normal_service() {
        let s = server_with_page();
        s.set_fault_plan(
            FaultPlan::new(11)
                .with_rule(crate::fault::FaultRule::unavailable(1.0).with_max_per_url(None)),
        );
        assert!(s.get(&Url::new("/a.html")).is_err());
        s.clear_fault_plan();
        assert!(s.fault_plan().is_none());
        assert!(s.get(&Url::new("/a.html")).is_ok());
    }

    #[test]
    fn scheme_scoped_fault_spares_other_schemes() {
        let s = server_with_page();
        s.put(Url::new("/b.html"), "BPage", "<html>B</html>");
        s.set_fault_plan(
            FaultPlan::new(13).with_rule(
                crate::fault::FaultRule::unavailable(1.0)
                    .for_scheme("APage")
                    .with_max_per_url(None),
            ),
        );
        assert!(s.get(&Url::new("/a.html")).is_err());
        assert!(s.get(&Url::new("/b.html")).is_ok());
    }

    #[test]
    fn reset_stats_clears_fault_counters() {
        let s = server_with_page();
        s.set_fault_plan(FaultPlan::new(3).with_rule(crate::fault::FaultRule::link_rot(1.0)));
        let _ = s.get(&Url::new("/a.html"));
        assert_ne!(s.stats().faults, FaultSnapshot::default());
        s.reset_stats();
        assert_eq!(s.stats().faults, FaultSnapshot::default());
    }

    #[test]
    fn page_server_trait_delegates() {
        let s = server_with_page();
        fn through_trait(p: &dyn PageServer) -> (u64, bool) {
            let got = p.get(&Url::new("/a.html")).is_ok();
            (p.now(), got)
        }
        let (now, got) = through_trait(&s);
        assert!(got);
        assert_eq!(now, s.now());
    }
}
