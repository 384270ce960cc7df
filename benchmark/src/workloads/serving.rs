//! What the three serving workloads share: the site and server stack, the
//! oracle, the closed- and open-loop drivers, and the traced pass.

use super::windows::{overhead_pct, quiet, Mark, Windows};
use super::{Outcome, RunCfg, Stop};
use crate::alloc::AllocCount;
use crate::api::{
    fingerprint, interned_bytes, interned_count, CoalescingSource, ConjunctiveQuery, Fingerprint,
    FlightRecorder, LiveSource, NalgExpr, PageSource, QueryServer, QuerySession, Relation,
    ServeOutcome, ServerStats, SharedPageCache, SiteStatistics, SourceError, TracedSource, Tuple,
    University, UniversityConfig, Url, ViewCatalog,
};
use crate::replay;
use crate::schedule::due_ns;
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, percentile, sorted_in};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a serving workload is built.
pub struct Spec {
    pub site: UniversityConfig,
    /// Closed-loop clients of the end-to-end run (the traced pass uses 1).
    pub clients: usize,
    /// Simulated network time per GET.
    pub get_latency: Duration,
    /// `CoalescingSource` + a fetch pool of this many workers + a shared
    /// page cache of this many bytes; `None` is the plain sequential stack.
    pub overlap: Option<(usize, usize)>,
    /// Open-loop phase of the traced run: (requests per second, senders,
    /// latency limit in ms).
    pub open: Option<(f64, usize, f64)>,
    /// Also price the product's own request tracing (`with_trace`).
    pub price_product_trace: bool,
    /// Repetitions of set-up whose median is `setup_s`.
    pub setup_reps: usize,
    /// Completions per window of the end-to-end run (see `windows`): a
    /// whole number of schedule cycles, about a second of work.
    pub window: usize,
}

/// What is asked: the distinct request texts and the order they come in.
pub struct Mix {
    pub sql: Vec<String>,
    /// Request `i` asks for `sql[at(i)]`.
    pub at: Box<dyn Fn(usize) -> usize + Sync>,
    /// Requests after which the multiset of texts asked is the same for
    /// every seed.
    pub full_cycle: usize,
    /// Texts served once before timing starts.
    pub warm: Vec<usize>,
}

/// The generated site and what is computed from it before serving.
pub struct Env {
    pub uni: University,
    pub stats: SiteStatistics,
    pub catalog: ViewCatalog,
    pub generate_ms: f64,
    pub stats_ms: f64,
}

impl Env {
    pub fn build(site: &UniversityConfig) -> Result<Env, String> {
        let t0 = Instant::now();
        let uni = University::generate(site.clone()).map_err(|e| e.to_string())?;
        let generate_ms = ms_since(t0);
        let t1 = Instant::now();
        let stats = SiteStatistics::from_site(&uni.site);
        let stats_ms = ms_since(t1);
        Ok(Env {
            uni,
            stats,
            catalog: crate::api::university_catalog(),
            generate_ms,
            stats_ms,
        })
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The expected answer of one distinct request.
pub struct Answer {
    pub query: ConjunctiveQuery,
    pub fp: Fingerprint,
    pub page_accesses: u64,
    /// The optimizer's estimate for the chosen plan ÷ the pages the cost
    /// model counts when it runs.
    pub cost_ratio: f64,
    /// Kept for the layer replays.
    pub plan: NalgExpr,
    pub relation: Relation,
}

/// Answers every distinct request once with a sequential, cache-less
/// `QuerySession::run` at zero latency. Everything served later must match
/// these rows and page accesses. Each answer is computed alone on its
/// thread; the texts are dealt to as many threads as there are cores only
/// so that 280 of them do not cost every run six seconds.
pub fn oracle(env: &Env, sql: &[String]) -> Result<Vec<Answer>, String> {
    let answer = |text: &String| -> Result<Answer, String> {
        let live = LiveSource::for_site(&env.uni.site);
        let session = QuerySession::new(&env.uni.site.scheme, &env.catalog, &env.stats, &live);
        let query =
            crate::api::parse_query(text, &env.catalog).map_err(|e| format!("{text}: {e}"))?;
        let out = session.run(&query).map_err(|e| format!("{text}: {e}"))?;
        Ok(Answer {
            fp: fingerprint(&out.report.relation),
            page_accesses: out.report.page_accesses,
            cost_ratio: out.estimated_pages() / (out.measured_pages() as f64).max(1.0),
            plan: out.explain.best().expr.clone(),
            relation: out.report.relation,
            query,
        })
    };
    // Dealt round-robin: neighbouring texts share a template and a cost.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut dealt: Vec<(usize, Result<Answer, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let answer = &answer;
                scope.spawn(move || {
                    (t..sql.len())
                        .step_by(threads)
                        .map(|i| (i, answer(&sql[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    dealt.sort_by_key(|(i, _)| *i);
    let answers = dealt.into_iter().map(|(_, a)| a).collect();
    env.uni.site.server.reset_stats();
    answers
}

/// Page accesses per request over one full cycle of the schedule — the
/// paper's measure, and an exact count: the cycle's multiset is fixed, and
/// every served answer is checked to have cost exactly its oracle's.
pub fn page_accesses_per_req(mix: &Mix, oracle: &[Answer]) -> f64 {
    let total: u64 = (0..mix.full_cycle)
        .map(|i| oracle[(mix.at)(i)].page_accesses)
        .sum();
    total as f64 / mix.full_cycle as f64
}

/// Does a served answer match the oracle? Rows as a multiset, and the
/// pages the plan navigated (downloads plus shared-cache hits: the paper's
/// count is blind to the cache).
pub fn matches(out: &ServeOutcome, expect: &Answer) -> bool {
    let Some(o) = out.outcome.as_ref() else {
        return false;
    };
    !out.shed
        && !out.brown_out
        && fingerprint(&o.report.relation) == expect.fp
        && o.report.page_accesses + o.report.shared_cache_hits == expect.page_accesses
}

/// The part of `QueryServer` the drivers use, with the source type erased.
pub trait Serve: Sync {
    fn serve(&self, q: &ConjunctiveQuery) -> Result<ServeOutcome, String>;
    fn stats(&self) -> ServerStats;
}

impl<S: PageSource + Sync> Serve for QueryServer<'_, S> {
    fn serve(&self, q: &ConjunctiveQuery) -> Result<ServeOutcome, String> {
        QueryServer::serve(self, q).map_err(|e| e.to_string())
    }

    fn stats(&self) -> ServerStats {
        QueryServer::stats(self)
    }
}

/// The bottom of the source stack: the product's `LiveSource`, or the
/// benchmark's span-recording stand-in for it.
enum Base<'a> {
    Live(LiveSource<'a>),
    Traced(TracedSource<'a>),
}

impl PageSource for Base<'_> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        match self {
            Base::Live(s) => s.fetch(url, scheme),
            Base::Traced(s) => s.fetch(url, scheme),
        }
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        match self {
            Base::Live(s) => s.fetch_stamped(url, scheme),
            Base::Traced(s) => s.fetch_stamped(url, scheme),
        }
    }
}

/// Request traces the flight recorder keeps when the product's tracing is
/// priced: enough to average events per request, small enough to hold.
const FLIGHT_RING: usize = 64;

/// A built server and the counters around it.
pub struct Stack<'a> {
    pub server: &'a dyn Serve,
    pub cache: Option<&'a SharedPageCache>,
    /// (followers, saved GETs) of the coalescing source, if any.
    pub coalesce: &'a dyn Fn() -> (u64, u64),
    /// Traces kept by the product's own tracing, if it is on.
    pub flight: Option<&'a FlightRecorder>,
}

/// Builds the workload's server over `env` and hands it to `body`.
/// `rec` swaps `LiveSource` for the span-recording source; `product_trace`
/// turns on the product's own request tracing.
pub fn with_stack<R>(
    spec: &Spec,
    env: &Env,
    clients: usize,
    rec: Option<&Recorder>,
    product_trace: Option<u64>,
    body: impl FnOnce(&Stack<'_>) -> R,
) -> R {
    let site = &env.uni.site;
    let base = match rec {
        Some(rec) => Base::Traced(TracedSource {
            ws: &site.scheme,
            server: &site.server,
            rec,
        }),
        None => Base::Live(LiveSource::for_site(site)),
    };
    let flight = product_trace.map(|_| FlightRecorder::with_capacity(FLIGHT_RING, 1));
    fn configure<'a, S: PageSource + Sync>(
        mut server: QueryServer<'a, S>,
        clients: usize,
        workers: Option<usize>,
        cache: Option<&'a SharedPageCache>,
        trace: Option<(u64, &FlightRecorder)>,
    ) -> QueryServer<'a, S> {
        server = server.with_admission_capacity(clients);
        if let Some(w) = workers {
            server = server.with_concurrent_fetch(w);
        }
        if let Some(c) = cache {
            server = server.with_shared_cache(c);
        }
        if let Some((seed, flight)) = trace {
            server = server.with_trace(seed).with_flight_recorder(flight);
        }
        server
    }
    let trace = product_trace.zip(flight.as_ref());
    match spec.overlap {
        Some((workers, cache_bytes)) => {
            let cache = SharedPageCache::with_byte_budget(cache_bytes);
            let coalescing = CoalescingSource::new(&base);
            let server = configure(
                QueryServer::new(&site.scheme, &env.catalog, &env.stats, &coalescing),
                clients,
                Some(workers),
                Some(&cache),
                trace,
            );
            body(&Stack {
                server: &server,
                cache: Some(&cache),
                coalesce: &|| {
                    let s = coalescing.stats();
                    (s.followers, s.saved_gets())
                },
                flight: flight.as_ref(),
            })
        }
        None => {
            let server = configure(
                QueryServer::new(&site.scheme, &env.catalog, &env.stats, &base),
                clients,
                None,
                None,
                trace,
            );
            body(&Stack {
                server: &server,
                cache: None,
                coalesce: &|| (0, 0),
                flight: flight.as_ref(),
            })
        }
    }
}

/// Serves the warm-up texts once each; an answer that does not match the
/// oracle fails the run before anything is timed.
pub fn warm(stack: &Stack<'_>, env: &Env, mix: &Mix, oracle: &[Answer]) -> Result<(), String> {
    for &k in &mix.warm {
        let q = crate::api::parse_query(&mix.sql[k], &env.catalog).map_err(|e| e.to_string())?;
        let out = stack.server.serve(&q)?;
        if !matches(&out, &oracle[k]) {
            return Err(format!(
                "warm-up answer diverged from the oracle: {}",
                mix.sql[k]
            ));
        }
    }
    Ok(())
}

/// One served request.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Position in the schedule.
    pub i: u32,
    /// Completion order within its phase (closed loop).
    pub rank: u32,
    /// Which distinct text.
    pub key: u32,
    pub ok: bool,
    pub cached_plan: bool,
    pub rows: u32,
    /// Service latency in a closed loop; latency from the due time in an
    /// open loop.
    pub lat_ns: u64,
    /// Open loop only: how long after its due time the request was sent.
    pub late_ns: u64,
}

/// One phase of load.
#[derive(Debug, Default)]
pub struct Load {
    /// In schedule order.
    pub recs: Vec<Rec>,
    pub wall_s: f64,
    /// Window boundaries of a closed-loop phase.
    pub marks: Vec<Mark>,
    /// Why the first few failed requests failed.
    pub errors: Vec<String>,
}

impl Load {
    pub fn failed(&self) -> u64 {
        self.recs.iter().filter(|r| !r.ok).count() as u64
    }

    pub fn ok(&self) -> usize {
        self.recs.iter().filter(|r| r.ok).count()
    }

    /// (request text, latency) of every request.
    pub fn lat_by_key(&self) -> Vec<(u32, u64)> {
        self.recs.iter().map(|r| (r.key, r.lat_ns)).collect()
    }

    pub fn lat_ns(&self) -> Vec<u64> {
        self.recs.iter().map(|r| r.lat_ns).collect()
    }

    /// (completion rank, latency) of every request.
    pub fn lat_by_rank(&self) -> Vec<(usize, u64)> {
        self.recs
            .iter()
            .map(|r| (r.rank as usize, r.lat_ns))
            .collect()
    }

    pub fn absorb(&mut self, other: Load) {
        self.recs.extend(other.recs);
        self.wall_s += other.wall_s;
        self.marks.clear();
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// Drives requests at one server: everything a loop needs besides its
/// shape.
pub struct Drive<'a> {
    server: &'a dyn Serve,
    mix: &'a Mix,
    oracle: &'a [Answer],
    catalog: &'a ViewCatalog,
    rec: Option<&'a Recorder>,
    /// Why the first few failed requests failed, until a phase takes them.
    errors: Mutex<Vec<String>>,
}

/// Runs `body(thread index)` on `n` threads and returns what they served,
/// in schedule order.
fn on_threads(n: usize, body: impl Fn(usize) -> Vec<Rec> + Sync) -> Vec<Rec> {
    let mut recs: Vec<Rec> = std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..n).map(|t| scope.spawn(move || body(t))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    recs.sort_by_key(|r| r.i);
    recs
}

impl<'a> Drive<'a> {
    pub fn new(
        stack: &Stack<'a>,
        env: &'a Env,
        mix: &'a Mix,
        oracle: &'a [Answer],
        rec: Option<&'a Recorder>,
    ) -> Self {
        Drive {
            server: stack.server,
            mix,
            oracle,
            catalog: &env.catalog,
            rec,
            errors: Mutex::new(Vec::new()),
        }
    }

    /// SQL text in → checked rows out, for schedule position `i`. The
    /// returned latency covers parse + serve, not the check.
    fn request(&self, i: usize, t0: Instant) -> Rec {
        let key = (self.mix.at)(i);
        let served = {
            let _req = self.rec.map(|r| r.request("request", i as u32));
            let parsed = {
                let _p = self.rec.map(|r| r.span("wvquery.parse"));
                crate::api::parse_query(&self.mix.sql[key], self.catalog)
            };
            parsed.map_err(|e| e.to_string()).and_then(|q| {
                let _s = self.rec.map(|r| r.span("serve.serve").adopt_orphans());
                self.server.serve(&q)
            })
        };
        let lat_ns = t0.elapsed().as_nanos() as u64;
        let mut rec = Rec {
            i: i as u32,
            rank: 0,
            key: key as u32,
            ok: false,
            cached_plan: false,
            rows: 0,
            lat_ns,
            late_ns: 0,
        };
        match served {
            Ok(out) => {
                rec.ok = matches(&out, &self.oracle[key]);
                rec.cached_plan = out.cached_plan;
                rec.rows = out.relation().map_or(0, |r| r.len()) as u32;
                if !rec.ok {
                    self.complain(format!(
                        "request {i} diverged from the oracle (shed={}, brown_out={}): {}",
                        out.shed, out.brown_out, self.mix.sql[key]
                    ));
                }
            }
            Err(e) => self.complain(format!("request {i} failed: {e}")),
        }
        rec
    }

    fn complain(&self, what: String) {
        let mut errors = self.errors.lock().expect("error list poisoned");
        if errors.len() < 5 {
            errors.push(what);
        }
    }

    fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut self.errors.lock().expect("error list poisoned"))
    }

    /// Closed loop: each of `clients` threads sends its next request the
    /// moment its previous one is answered. Schedule positions start at
    /// `first`.
    pub fn closed(&self, clients: usize, first: usize, stop: Stop, window: usize) -> Load {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let windows = Windows::start(window);
        let recs = on_threads(clients, |_| {
            let mut mine = Vec::new();
            loop {
                let n = next.fetch_add(1, Ordering::Relaxed);
                if stop.reached(n) {
                    return mine;
                }
                let mut rec = self.request(first + n, Instant::now());
                rec.rank = windows.completed() as u32;
                mine.push(rec);
            }
        });
        Load {
            recs,
            wall_s: start.elapsed().as_secs_f64(),
            marks: windows.finish(),
            errors: self.take_errors(),
        }
    }

    /// Open loop: request `n` is due `n / rate` seconds after the start
    /// whatever happened to the requests before it, and is timed from that
    /// due time. Requests are dealt round-robin to `senders` threads.
    pub fn open(&self, senders: usize, first: usize, rate_per_s: f64, stop: Stop) -> Load {
        let start = Instant::now();
        let recs = on_threads(senders, |sender| {
            let mut mine = Vec::new();
            let mut n = sender;
            loop {
                let due = start + Duration::from_nanos(due_ns(n, rate_per_s));
                // A time budget ends the stream at the first request due
                // after it; a count, at the count.
                let over = match stop {
                    Stop::At(t) => due >= t,
                    Stop::After(count) => n >= count,
                };
                if over {
                    return mine;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late_ns = due.elapsed().as_nanos() as u64;
                let mut rec = self.request(first + n, due);
                rec.late_ns = late_ns;
                mine.push(rec);
                n += senders;
            }
        });
        Load {
            recs,
            wall_s: start.elapsed().as_secs_f64(),
            marks: Vec::new(),
            errors: self.take_errors(),
        }
    }
}

/// Runs a serving workload: repeated set-up, oracle, then either the
/// end-to-end phase or the traced pass.
pub fn run(spec: &Spec, mix_of: impl Fn(&Env) -> Mix, cfg: RunCfg) -> Result<Outcome, String> {
    let symbols0 = (interned_count(), interned_bytes());
    // The oracle is needed to check the warm-up but is not part of
    // set-up: it is built first, untimed, on a site of its own.
    let probe = Env::build(&spec.site)?;
    let mix = mix_of(&probe);
    let answers = oracle(&probe, &mix.sql)?;
    drop(probe);
    // Set-up, timed whole: site, statistics, server stack, warm-up.
    let clients = if cfg.trace { 1 } else { spec.clients };
    let reps = if cfg.trace { 1 } else { spec.setup_reps };
    let (env, setup_s) = super::repeated_setup(reps, || -> Result<Env, String> {
        let env = Env::build(&spec.site)?;
        env.uni.site.server.set_latency(spec.get_latency);
        with_stack(spec, &env, clients, None, None, |stack| {
            warm(stack, &env, &mix, &answers)
        })?;
        Ok(env)
    });
    let env = env?;

    let mut out = Outcome::default();
    if cfg.trace {
        traced_pass(spec, &env, &mix, &answers, cfg, symbols0, &mut out)?;
        return Ok(out);
    }

    let load = with_stack(spec, &env, clients, None, None, |stack| {
        warm(stack, &env, &mix, &answers)?;
        let drive = Drive::new(stack, &env, &mix, &answers, None);
        Ok::<_, String>(drive.closed(clients, 0, cfg.budget.start(), spec.window))
    })?;
    report_failures(&load, &mut out);
    let q = quiet(&load.marks, spec.window);
    out.note(format!(
        "closed loop, {clients} client(s): {} requests in {:.2} s; timings over the quietest {} of {} windows of {} requests ({} samples, {} beyond p95)",
        load.recs.len(),
        load.wall_s,
        q.kept.len(),
        q.windows,
        spec.window,
        q.samples(),
        crate::stats::samples_beyond(q.samples().max(1), 0.95),
    ));
    if q.windows == 0 {
        out.note("shorter than one window: totals reported, run longer".into());
    }
    let by_rank = load.lat_by_rank();
    out.attempted = load.recs.len() as u64;
    out.failed = load.failed();
    out.set("setup_s", setup_s);
    out.set(
        "req_per_s",
        q.ops_per_s * load.ok() as f64 / load.recs.len().max(1) as f64,
    );
    out.set("latency_ms_p50", q.percentile(&by_rank, 0.50, 1e6));
    out.set("latency_ms_p95", q.percentile(&by_rank, 0.95, 1e6));
    out.set("cpu_ms_per_req", q.cpu_ms_per_op);
    out.set(
        "page_accesses_per_req",
        page_accesses_per_req(&mix, &answers),
    );
    out.set("peak_rss_mb", super::peak_rss_mb());
    Ok(out)
}

/// The server's own counters, as the `serve` and `resilience` layers.
pub fn report_server(stats: &ServerStats, out: &mut Outcome) {
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.brown_outs", stats.brown_outs as f64);
    out.set("serve.view_hits", stats.view_hits as f64);
    out.set("serve.view_fallbacks", stats.view_fallbacks as f64);
    out.set(
        "resilience.admission.admitted",
        stats.admission.admitted as f64,
    );
    out.set("resilience.admission.shed", stats.admission.shed as f64);
    out.set(
        "resilience.admission.peak_active",
        stats.admission.peak_active as f64,
    );
}

fn report_failures(load: &Load, out: &mut Outcome) {
    for e in &load.errors {
        out.note(format!("FAILED: {e}"));
    }
}

/// Times the traced run switches between its arms, so that drift in the
/// machine lands on every arm equally.
const SLICE_ROUNDS: usize = 6;

/// What the interleaved slices of the traced pass collected.
#[derive(Default)]
struct Slices {
    /// Benchmark spans off / on (one server, `TracedSource` under it).
    plain: Load,
    traced: Load,
    /// Product tracing off / on (two servers over `LiveSource`).
    product_off: Load,
    product_on: Load,
    traced_alloc: AllocCount,
    /// Server GETs and body bytes during the traced slices.
    traced_gets: (u64, u64),
    events_per_req: f64,
    server: ServerStats,
}

/// The traced pass: one client, the benchmark's spans around every layer
/// boundary it can reach from outside, then the layer replays.
fn traced_pass(
    spec: &Spec,
    env: &Env,
    mix: &Mix,
    answers: &[Answer],
    cfg: RunCfg,
    symbols0: (usize, usize),
    out: &mut Outcome,
) -> Result<(), String> {
    let site = &env.uni.site;
    let recorder = Recorder::default();

    // Open-loop phase first: untraced, the product's `LiveSource`, the
    // end-to-end client count, a quarter of the budget.
    let mut budget = cfg.budget;
    if let Some((rate, senders, limit_ms)) = spec.open {
        let open_budget = cfg.budget.part(1, 4);
        budget = cfg.budget.part(3, 4);
        let load = with_stack(spec, env, spec.clients, None, None, |stack| {
            warm(stack, env, mix, answers)?;
            let drive = Drive::new(stack, env, mix, answers, None);
            Ok::<_, String>(drive.open(senders, 0, rate, open_budget.start()))
        })?;
        report_failures(&load, out);
        let lat = sorted_in(&load.lat_ns(), 1e6);
        let late: Vec<u64> = load.recs.iter().map(|r| r.late_ns).collect();
        let missed = load
            .recs
            .iter()
            .filter(|r| !r.ok || r.lat_ns as f64 / 1e6 > limit_ms)
            .count();
        out.note(format!(
            "open loop at {rate} req/s, {senders} senders, limit {limit_ms} ms: {} requests in {:.2} s (p99 has {} samples beyond it)",
            load.recs.len(),
            load.wall_s,
            crate::stats::samples_beyond(load.recs.len().max(1), 0.99),
        ));
        out.attempted += load.recs.len() as u64;
        out.failed += load.failed();
        out.set("bench.open_latency_ms_p50", percentile(&lat, 0.50));
        out.set("bench.open_latency_ms_p99", percentile(&lat, 0.99));
        out.set(
            "bench.open_late_ms_p99",
            percentile(&sorted_in(&late, 1e6), 0.99),
        );
        out.set(
            "bench.slo_miss_ratio",
            missed as f64 / load.recs.len().max(1) as f64,
        );
    }

    // Where the stack shares work between clients — coalescing, the page
    // cache — a quarter of the budget goes to the end-to-end client count,
    // untraced: with one client nothing is ever shared or contended.
    if spec.overlap.is_some() {
        let loaded_budget = cfg.budget.part(1, 4);
        budget = cfg.budget.part(3, 4);
        let (load, cache, coalesce, gets) =
            with_stack(spec, env, spec.clients, None, None, |stack| {
                warm(stack, env, mix, answers)?;
                let before = site.server.stats().gets;
                let load = Drive::new(stack, env, mix, answers, None).closed(
                    spec.clients,
                    0,
                    loaded_budget.start(),
                    usize::MAX,
                );
                Ok::<_, String>((
                    load,
                    stack.cache.map(|c| c.stats()),
                    (stack.coalesce)(),
                    site.server.stats().gets - before,
                ))
            })?;
        report_failures(&load, out);
        out.note(format!(
            "{} clients, untraced: {} requests in {:.2} s for the cache and coalescing counters",
            spec.clients,
            load.recs.len(),
            load.wall_s
        ));
        out.attempted += load.recs.len() as u64;
        out.failed += load.failed();
        let per_req = |count: u64| count as f64 / load.recs.len().max(1) as f64;
        if let Some(c) = cache {
            out.set(
                "nalg.cache.hit_rate",
                c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            );
            out.set("nalg.cache.evictions", per_req(c.evictions));
        }
        out.set("nalg.coalesce.followers", per_req(coalesce.0));
        out.set("nalg.coalesce.saved_gets", per_req(coalesce.1));
        out.set("websim.gets_per_req", per_req(gets));
        // Server time bought per second of request time: above 1, GETs
        // overlapped; below, the cache answered instead.
        let lat_ns: u64 = load.lat_ns().iter().sum();
        out.set(
            "nalg.overlap_factor",
            gets as f64 * spec.get_latency.as_nanos() as f64 / lat_ns.max(1) as f64,
        );
    }

    // Interleaved single-client slices: spans off / spans on (one server,
    // the benchmark's source in `LiveSource`'s place either way), and —
    // where asked — the product's own tracing off / on over `LiveSource`.
    let arms = if spec.price_product_trace { 4 } else { 2 };
    let slice = budget.part(1, arms * SLICE_ROUNDS);
    let mut got = Slices::default();
    crate::alloc::enable();
    with_stack(spec, env, 1, Some(&recorder), None, |bench| {
        with_stack(spec, env, 1, None, None, |off| {
            with_stack(spec, env, 1, None, Some(cfg.seed), |on| {
                warm(bench, env, mix, answers)?;
                if spec.price_product_trace {
                    warm(off, env, mix, answers)?;
                    warm(on, env, mix, answers)?;
                }
                let spans_arm = Drive::new(bench, env, mix, answers, Some(&recorder));
                let off_arm = Drive::new(off, env, mix, answers, None);
                let on_arm = Drive::new(on, env, mix, answers, None);
                // Every slice continues the schedule where the last ended.
                let mut next = 0;
                let mut run = |arm: &Drive<'_>, into: &mut Load| {
                    let l = arm.closed(1, next, slice.start(), usize::MAX);
                    next += l.recs.len();
                    into.absorb(l);
                };
                for _ in 0..SLICE_ROUNDS {
                    run(&spans_arm, &mut got.plain);
                    recorder.set_on(true);
                    let (a0, g0) = (AllocCount::now(), site.server.stats());
                    run(&spans_arm, &mut got.traced);
                    let (spent, g1) = (AllocCount::now().since(&a0), site.server.stats());
                    recorder.set_on(false);
                    got.traced_alloc.calls += spent.calls;
                    got.traced_alloc.bytes += spent.bytes;
                    got.traced_gets.0 += g1.gets - g0.gets;
                    got.traced_gets.1 += g1.bytes - g0.bytes;
                    if spec.price_product_trace {
                        run(&off_arm, &mut got.product_off);
                        run(&on_arm, &mut got.product_on);
                    }
                }
                got.server = bench.server.stats();
                if let Some(f) = on.flight {
                    let kept = f.recent();
                    let events: usize = kept
                        .iter()
                        .map(|t| t.events.len() + t.fetch_events.len())
                        .sum();
                    got.events_per_req = events as f64 / kept.len().max(1) as f64;
                }
                Ok::<_, String>(())
            })
        })
    })?;
    for l in [&got.plain, &got.traced, &got.product_off, &got.product_on] {
        report_failures(l, out);
        out.attempted += l.recs.len() as u64;
        out.failed += l.failed();
    }
    let symbols1 = (interned_count(), interned_bytes());
    let spans = recorder.take();
    let traced = &got.traced;
    let n = traced.recs.len().max(1) as f64;
    out.note(format!(
        "traced pass, 1 client: {} requests with spans ({} spans), {} without",
        traced.recs.len(),
        spans.len(),
        got.plain.recs.len()
    ));

    // Layer replays, over exactly the inputs the workload used.
    site.server.set_latency(Duration::ZERO);
    let corpus = replay::corpus(site);
    let queries: Vec<&ConjunctiveQuery> = answers.iter().map(|a| &a.query).collect();
    let optimized = replay::optimize(&site.scheme, &env.catalog, &env.stats, &queries);
    let evaluated = replay::evaluate(site, answers);
    let from_relation = replay::from_relation_us_per_krow(answers);

    // Planner numbers are weighted by the schedule: over one full cycle,
    // what the optimizer costs the request mix (not the distinct texts).
    let cycle: Vec<usize> = (0..mix.full_cycle).map(|i| (mix.at)(i)).collect();
    let over_cycle =
        |f: &dyn Fn(usize) -> f64| cycle.iter().map(|&k| f(k)).sum::<f64>() / cycle.len() as f64;
    let mut optimize_ms: Vec<f64> = cycle.iter().map(|&k| optimized[k].ns / 1e6).collect();
    crate::stats::sort(&mut optimize_ms);

    // Shares of request time, from self times; per traced request, what
    // is left of `serve.serve` once fetches, the evaluator (replayed) and
    // the planner (replayed, on a plan miss) are taken out.
    let totals = spans::totals_by_name(&spans);
    let request_ns = totals.get("request").map_or(0, |t| t.1).max(1) as f64;
    let self_share = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64 / request_ns);
    let by_request: HashMap<u32, &Rec> = traced.recs.iter().map(|r| (r.i, r)).collect();
    let fetch_cover = spans::child_coverage(&spans, "serve.serve", "source.fetch");
    let mut plan_ns = 0.0;
    let mut serve_self_us = Vec::new();
    let mut eval_ms = Vec::new();
    let mut eval_allocs = 0.0;
    for s in spans.iter().filter(|s| s.name == "serve.serve") {
        let Some(r) = by_request.get(&s.request) else {
            continue;
        };
        let key = r.key as usize;
        let planning = if r.cached_plan {
            0.0
        } else {
            optimized[key].ns
        };
        plan_ns += planning;
        let own = s.dur_ns() as f64 - fetch_cover[&s.id] as f64 - evaluated[key].ns - planning;
        serve_self_us.push(own.max(0.0) / 1e3);
        eval_ms.push(evaluated[key].ns / 1e6);
        eval_allocs += evaluated[key].allocs;
    }
    crate::stats::sort(&mut serve_self_us);
    crate::stats::sort(&mut eval_ms);
    let parse_us = span_durations(&spans, "wvquery.parse", 1e3);
    let fetch_ns: u64 = fetch_cover.values().sum();

    out.set("websim.generate_ms", env.generate_ms);
    // (An overlap stack's GETs were counted above, with every client.)
    out.metrics
        .entry("websim.gets_per_req")
        .or_insert(got.traced_gets.0 as f64 / n);
    out.set("websim.bytes_per_req", got.traced_gets.1 as f64 / n);
    out.set("websim.get_share", self_share("websim.get"));
    corpus.report(out);
    out.set(
        "wrapper.pages_per_req",
        totals.get("wrapper.wrap").map_or(0.0, |t| t.0 as f64 / n),
    );
    out.set("wrapper.wrap_share", self_share("wrapper.wrap"));
    out.set(
        "adm.interned_symbols_delta",
        (symbols1.0 - symbols0.0) as f64,
    );
    out.set("adm.interned_bytes_delta", (symbols1.1 - symbols0.1) as f64);
    out.set("adm.from_relation_us_per_krow", from_relation);
    out.set("nalg.eval_ms_p50", percentile(&eval_ms, 0.50));
    out.set("nalg.eval_allocs_per_req", eval_allocs / n);
    out.set(
        "nalg.rows_per_req",
        traced.recs.iter().map(|r| f64::from(r.rows)).sum::<f64>() / n,
    );
    out.set("nalg.fetch_share", fetch_ns as f64 / request_ns);
    out.set("wvquery.parse_us_p50", percentile(&parse_us, 0.50));
    out.set("wvquery.parse_share", self_share("wvquery.parse"));
    out.set("wvcore.stats_collect_ms", env.stats_ms);
    out.set("wvcore.optimize_ms_p50", percentile(&optimize_ms, 0.50));
    out.set("wvcore.optimize_ms_p99", percentile(&optimize_ms, 0.99));
    out.set(
        "wvcore.candidates_per_query",
        over_cycle(&|k| optimized[k].candidates),
    );
    out.set(
        "wvcore.optimize_allocs_per_query",
        over_cycle(&|k| optimized[k].allocs),
    );
    out.set(
        "wvcore.optimize_alloc_bytes_per_query",
        over_cycle(&|k| optimized[k].alloc_bytes),
    );
    out.set("wvcore.plan_share", plan_ns / request_ns);
    let mut ratios: Vec<f64> = cycle.iter().map(|&k| answers[k].cost_ratio).collect();
    crate::stats::sort(&mut ratios);
    out.set("wvcore.cost_ratio_p50", percentile(&ratios, 0.50));
    let both: Vec<&Rec> = got.plain.recs.iter().chain(&traced.recs).collect();
    out.set(
        "serve.plan_hit_rate",
        both.iter().filter(|r| r.cached_plan).count() as f64 / both.len().max(1) as f64,
    );
    out.set("serve.self_us_p50", percentile(&serve_self_us, 0.50));
    report_server(&got.server, out);
    out.set(
        "obs.bench_span_overhead_pct",
        overhead_pct(&got.plain.lat_by_key(), &traced.lat_by_key()),
    );
    if spec.price_product_trace {
        out.set(
            "obs.trace_overhead_pct",
            overhead_pct(&got.product_off.lat_by_key(), &got.product_on.lat_by_key()),
        );
        out.set("obs.events_per_req", got.events_per_req);
    }
    out.set("alloc.count_per_req", got.traced_alloc.calls as f64 / n);
    out.set("alloc.bytes_per_req", got.traced_alloc.bytes as f64 / n);
    let lat_ms = sorted_in(&got.plain.lat_ns(), 1e6);
    out.set("bench.latency_ms_p99", percentile(&lat_ms, 0.99));
    out.set(
        "bench.failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.note(format!(
        "replays: {} pages in the corpus, {} distinct plans; median traced request {:.3} ms; the untraced slices hold {} latency samples (highest percentile with {} beyond it: {})",
        corpus.pages,
        answers.len(),
        median(&sorted_in(&traced.lat_ns(), 1e6)),
        lat_ms.len(),
        crate::stats::MIN_BEYOND,
        crate::stats::highest_supported_tail(lat_ms.len()).map_or("none".into(), |p| format!("p{}", p * 100.0)),
    ));
    out.spans = spans;
    Ok(())
}

/// Durations of the spans named `name`, sorted, in units of `per_unit` ns.
pub fn span_durations(spans: &[Span], name: &str, per_unit: f64) -> Vec<f64> {
    let ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    sorted_in(&ns, per_unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Budget;

    /// Three cheap single-atom texts over the paper-scale site, asked
    /// round-robin: small enough for a debug build.
    fn small() -> (Spec, impl Fn(&Env) -> Mix) {
        let spec = Spec {
            site: UniversityConfig::default(),
            clients: 2,
            get_latency: Duration::ZERO,
            overlap: None,
            open: Some((400.0, 2, 1_000.0)),
            price_product_trace: true,
            setup_reps: 2,
            window: 6,
        };
        let mix = |_: &Env| Mix {
            sql: vec![
                "SELECT DName, Address FROM Dept".into(),
                "SELECT PName FROM Professor WHERE Rank = 'Full'".into(),
                "SELECT CName FROM Course WHERE Session = 'Fall'".into(),
            ],
            at: Box::new(|i| i % 3),
            full_cycle: 3,
            warm: vec![0, 1, 2],
        };
        (spec, mix)
    }

    #[test]
    fn the_oracle_catches_a_wrong_row_and_a_wrong_page_count() {
        let (spec, mix_of) = small();
        let env = Env::build(&spec.site).unwrap();
        let mix = mix_of(&env);
        let mut answers = oracle(&env, &mix.sql).unwrap();
        assert!(answers.iter().all(|a| a.fp.rows > 0 && a.page_accesses > 0));
        with_stack(&spec, &env, 1, None, None, |stack| {
            let q = crate::api::parse_query(&mix.sql[1], &env.catalog).unwrap();
            let out = stack.server.serve(&q).unwrap();
            assert!(matches(&out, &answers[1]), "the served answer is right");

            let right = answers[1].fp;
            let wrong = crate::api::with_first_cell_replaced(&answers[1].relation, "Nobody");
            answers[1].fp = fingerprint(&wrong);
            assert!(!matches(&out, &answers[1]), "one wrong expected row");
            answers[1].fp = right;

            answers[1].page_accesses += 1;
            assert!(!matches(&out, &answers[1]), "one page too many expected");
            answers[1].page_accesses -= 1;
            assert!(matches(&out, &answers[1]));
            // another query's answer is not this one's
            assert!(!matches(&out, &answers[0]));
        });
    }

    #[test]
    fn a_wrong_expectation_counts_as_failed_in_a_run() {
        let (spec, mix_of) = small();
        let env = Env::build(&spec.site).unwrap();
        let mix = mix_of(&env);
        let mut answers = oracle(&env, &mix.sql).unwrap();
        answers[2].page_accesses += 1;
        let load = with_stack(&spec, &env, 1, None, None, |stack| {
            Drive::new(stack, &env, &mix, &answers, None).closed(1, 0, Stop::After(9), 3)
        });
        assert_eq!((load.recs.len(), load.failed()), (9, 3));
        assert!(load.errors[0].contains("diverged from the oracle"));
        assert_eq!(
            load.marks.iter().map(|m| m.done).collect::<Vec<_>>(),
            [0, 3, 6, 9]
        );
    }

    #[test]
    fn an_end_to_end_run_reports_the_registry_and_no_failures() {
        let (spec, mix_of) = small();
        let cfg = RunCfg {
            seed: 3,
            budget: Budget::Ops(30),
            trace: false,
        };
        let out = run(&spec, mix_of, cfg).unwrap();
        assert_eq!((out.attempted, out.failed), (30, 0), "{:?}", out.notes);
        for m in &crate::metrics::END_TO_END {
            assert!(out.metrics[m.name] > 0.0, "{} must never read 0", m.name);
        }
        assert_eq!(out.metrics.len(), crate::metrics::END_TO_END.len());
        // Dept: 1 list page + 3 departments; Professor: 1 + 20; Course by
        // session: the session list, one session page, its courses.
        assert!(out.metrics["page_accesses_per_req"] > 4.0);
    }

    #[test]
    fn a_traced_run_attributes_request_time_to_layers() {
        let (spec, mix_of) = small();
        let cfg = RunCfg {
            seed: 3,
            budget: Budget::Ops(96),
            trace: true,
        };
        let out = run(&spec, mix_of, cfg).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        assert!(out
            .metrics
            .keys()
            .all(|k| crate::metrics::per_layer(k).is_some()));
        let m = |k: &str| out.metrics[k];
        // Warm plan cache, no page cache: all hits, nothing planned, every
        // request fetches and wraps its pages.
        assert_eq!(m("serve.plan_hit_rate"), 1.0);
        assert_eq!(m("wvcore.plan_share"), 0.0);
        assert!(m("wrapper.pages_per_req") > 4.0);
        assert_eq!(m("wrapper.pages_per_req"), m("websim.gets_per_req"));
        assert!(m("wrapper.wrap_share") > 0.0 && m("nalg.fetch_share") > m("wrapper.wrap_share"));
        assert!(m("nalg.fetch_share") < 1.0 && m("wvquery.parse_share") > 0.0);
        assert!(m("alloc.count_per_req") > m("wrapper.allocs_per_page"));
        assert!(m("obs.events_per_req") > 0.0);
        assert!(m("bench.open_latency_ms_p50") > 0.0);

        // The span tree: fetches under serve, get and wrap under fetch,
        // every span inside its parent's request.
        let by_id: HashMap<u32, &Span> = out.spans.iter().map(|s| (s.id, s)).collect();
        let parent_name = |s: &Span| by_id.get(&s.parent).map(|p| p.name);
        for s in &out.spans {
            let expect = match s.name {
                "request" => None,
                "wvquery.parse" | "serve.serve" => Some("request"),
                "source.fetch" => Some("serve.serve"),
                "websim.get" | "wrapper.wrap" => Some("source.fetch"),
                other => panic!("unexpected span {other}"),
            };
            assert_eq!(parent_name(s), expect, "{s:?}");
            if let Some(p) = by_id.get(&s.parent) {
                assert_eq!(s.request, p.request);
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
    }
}
