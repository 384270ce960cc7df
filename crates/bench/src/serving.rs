//! X5 (extension) — the serving-layer load benchmark.
//!
//! The paper costs one query in isolation; a server fields many concurrent
//! sessions whose popularity is heavily skewed. X5 drives a seeded
//! Zipf-distributed request stream over the E4 university workload through
//! [`serve::QueryServer`] and isolates the two serving-layer levers:
//!
//! * **plan cache** — repeated queries skip rule 1–9 enumeration (the hit
//!   rate is the table's second-to-last column);
//! * **single-flight coalescing** — concurrent sessions chasing the same
//!   hot URL share one server GET ([`nalg::CoalescingSource`]); the GET
//!   delta between the coalesce-off and coalesce-on rows is pure
//!   coalescing, because the plan cache never touches GET counts.
//!
//! Three load shapes run over one identical schedule: a sequential
//! uncached baseline (also the row/page-access oracle), a closed loop
//! (each of W workers fires its next request the moment the previous
//! answer lands), and an open loop (arrivals pinned to a fixed schedule
//! regardless of completions, so latency includes queueing). Every served
//! answer is checked against the oracle — the `diverged` column must stay
//! zero: coalescing and plan caching are invisible to the paper's rows
//! *and* to each session's `page_accesses`.

use crate::fixtures::university_workload;
use crate::table::Table;
use obs::{FixedHistogram, FlightRecorder, LatencyObjective, PhaseBreakdown, SloTracker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::QueryServer;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use websim::sitegen::{University, UniversityConfig};
use wvcore::{ConjunctiveQuery, LiveSource, QuerySession, SiteStatistics};

/// Knobs of the X5 load generator. `Default` is the full benchmark scale;
/// CI's `serve-smoke` runs a reduced copy.
#[derive(Debug, Clone)]
pub struct ServeLoadConfig {
    /// Seed of the Zipf schedule (and nothing else — sites are fixed).
    pub seed: u64,
    /// Total requests per load shape.
    pub requests: usize,
    /// Serving threads; also the admission capacity (nothing is shed).
    pub workers: usize,
    /// Zipf skew exponent `s` (weight of rank `r` is `1/r^s`).
    pub zipf_s: f64,
    /// Simulated server latency per GET — the overlap that coalescing
    /// and latency hiding exploit.
    pub latency: Duration,
    /// Open-loop inter-arrival gap.
    pub open_loop_interval: Duration,
    /// Per-request latency objective for the observed (open-loop) run:
    /// a request over this threshold breaches the SLO and fires the
    /// flight recorder. CI's `obs-smoke` shrinks it to force breaches.
    pub slo: Duration,
    /// Latency-only chaos on the observed run: with probability
    /// `chaos_slow_rate` a GET is delayed by `chaos_slow_delay`
    /// ([`websim::FaultRule::slow`], seeded by `seed`). Slowdowns never
    /// change bytes, so the divergence gate still holds — this is how
    /// `--obs-check` guarantees an SLO breach and a flight dump.
    pub chaos_slow_rate: f64,
    /// Injected delay per slowed GET (see `chaos_slow_rate`).
    pub chaos_slow_delay: Duration,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            seed: 0x5E41E,
            requests: 120,
            workers: 8,
            zipf_s: 1.1,
            latency: Duration::from_millis(2),
            open_loop_interval: Duration::from_millis(5),
            slo: Duration::from_millis(250),
            chaos_slow_rate: 0.0,
            chaos_slow_delay: Duration::from_millis(20),
        }
    }
}

/// Output of the X5 run (see [`x5_serving`]).
pub struct ServeSmoke {
    /// One row per load shape.
    pub table: Table,
    /// Raw-JSON extras for `BENCH_X5.json`: GET counts per shape,
    /// plan-cache counters, coalescing counters, per-phase latency
    /// totals, the SLO snapshot, and flight-recorder trigger counts.
    pub extras: Vec<(String, String)>,
    /// Plan-cache hit rate of the closed-loop coalesce-on run — the CI
    /// smoke gate asserts it is positive.
    pub hit_rate: f64,
    /// Served answers that diverged from the sequential-uncached oracle
    /// (rows or per-session `page_accesses`) — the gate asserts zero.
    pub rows_diverged: u64,
    /// Server GETs saved by coalescing: `(off - on) / off`, in percent,
    /// at identical schedule and worker count.
    pub gets_saved_pct: f64,
    /// Full request traces of the observed open-loop run, one JSON line
    /// per request sorted by request id (`TRACE_X5.jsonl`).
    pub trace_jsonl: String,
    /// Every flight-recorder dump taken during the observed run, as
    /// concatenated JSON-lines exports (`FLIGHT_X5.jsonl`); empty when
    /// nothing triggered.
    pub flight_jsonl: String,
    /// Flight dumps taken during the observed run.
    pub flight_dumps: usize,
    /// True when any SLO burn window ended the run over budget.
    pub slo_burning: bool,
    /// Summed per-phase latency of the observed run's requests.
    pub phase_totals: PhaseBreakdown,
}

/// A seeded Zipf schedule: `count` indices into `0..n`, rank `r`
/// weighted `1/(r+1)^s`. Hand-rolled inverse-CDF sampling — the offline
/// `rand` shim has no distribution zoo.
pub(crate) fn zipf_schedule(seed: u64, n: usize, count: usize, s: f64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(s);
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let x = rng.gen_range(0.0..total);
            cdf.iter().position(|&c| x < c).unwrap_or(n - 1)
        })
        .collect()
}

struct LoadOut {
    /// Fixed-precision latency histogram (µs): the p50/p99/p99.9 columns
    /// read it, so their quantization error is bounded at ~3.1% instead
    /// of the coarse sorted-index estimate older runs reported.
    hist: FixedHistogram,
    diverged: u64,
    wall_ms: f64,
    /// Summed per-phase latency across requests that reported phases
    /// (only the observed run does; zero elsewhere).
    phases: PhaseBreakdown,
}

impl LoadOut {
    fn row(&self, label: &str, requests: usize, gets: u64, hit_rate: Option<f64>) -> Vec<String> {
        let pct_ms = |q: f64| self.hist.value_at_quantile(q) as f64 / 1e3;
        vec![
            label.to_string(),
            requests.to_string(),
            format!("{:.0}", self.wall_ms),
            format!("{:.0}", requests as f64 / (self.wall_ms / 1e3).max(1e-9)),
            format!("{:.1}", pct_ms(0.50)),
            format!("{:.1}", pct_ms(0.99)),
            format!("{:.1}", pct_ms(0.999)),
            gets.to_string(),
            hit_rate.map_or("—".to_string(), |r| format!("{:.0}%", r * 100.0)),
            self.diverged.to_string(),
        ]
    }
}

fn add_phases(acc: &mut PhaseBreakdown, p: &PhaseBreakdown) {
    acc.queue_us += p.queue_us;
    acc.plan_us += p.plan_us;
    acc.fetch_us += p.fetch_us;
    acc.eval_us += p.eval_us;
    acc.view_us += p.view_us;
}

type Oracle = (adm::Relation, u64);

fn check(outcome: Option<&wvcore::QueryOutcome>, oracle: &Oracle, diverged: &AtomicU64) {
    let ok = outcome.is_some_and(|o| {
        o.report.relation.sorted() == oracle.0 && o.report.page_accesses == oracle.1
    });
    if !ok {
        diverged.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drives one schedule through a server with `workers` threads. Closed
/// loop (`open_loop_interval: None`): a shared queue, each worker fires
/// its next request on completion. Open loop: request `i` is due at
/// `start + i·interval` whatever the server's progress, and its latency
/// is measured from that due time (queueing included).
fn drive<S: nalg::PageSource>(
    server: &QueryServer<'_, S>,
    queries: &[(&'static str, ConjunctiveQuery)],
    schedule: &[usize],
    oracle: &[Oracle],
    workers: usize,
    open_loop_interval: Option<Duration>,
) -> LoadOut {
    let next = AtomicUsize::new(0);
    let diverged = AtomicU64::new(0);
    let hist = FixedHistogram::new();
    let phases = Mutex::new(PhaseBreakdown::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, diverged, phases) = (&next, &diverged, &phases);
            let hist = hist.clone();
            scope.spawn(move || {
                let mut local = PhaseBreakdown::default();
                if let Some(interval) = open_loop_interval {
                    let mut i = w;
                    while i < schedule.len() {
                        let due = start + interval * (i as u32);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        // Scheduling delay behind slower requests: how
                        // late this request started past its due time.
                        let queue_us =
                            Instant::now().saturating_duration_since(due).as_micros() as u64;
                        let out = server.serve(&queries[schedule[i]].1).expect("serve");
                        hist.observe(
                            Instant::now().saturating_duration_since(due).as_micros() as u64
                        );
                        if let Some(mut p) = out.phases {
                            p.queue_us = queue_us;
                            add_phases(&mut local, &p);
                        }
                        check(out.outcome.as_ref(), &oracle[schedule[i]], diverged);
                        i += workers;
                    }
                } else {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let out = server.serve(&queries[schedule[i]].1).expect("serve");
                        hist.observe(t0.elapsed().as_micros() as u64);
                        if let Some(p) = out.phases {
                            add_phases(&mut local, &p);
                        }
                        check(out.outcome.as_ref(), &oracle[schedule[i]], diverged);
                    }
                }
                add_phases(&mut phases.lock().unwrap(), &local);
            });
        }
    });
    LoadOut {
        hist,
        diverged: diverged.load(Ordering::Relaxed),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        phases: phases.into_inner().unwrap(),
    }
}

/// X5 — see the module docs. One fixed-seed site, one Zipf schedule,
/// four runs over it: sequential uncached (the oracle and timing
/// baseline), closed loop without and with coalescing, open loop with
/// coalescing. The plan cache is on for every served run.
pub fn x5_serving(cfg: &ServeLoadConfig) -> ServeSmoke {
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let queries = university_workload();
    let schedule = zipf_schedule(cfg.seed, queries.len(), cfg.requests, cfg.zipf_s);
    let live = LiveSource::for_site(&u.site);

    // The oracle: each distinct query once, sequentially, no caches, no
    // latency — the rows and per-session page accesses every served
    // answer must reproduce byte-for-byte.
    let oracle: Vec<Oracle> = queries
        .iter()
        .map(|(_, q)| {
            let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
                .run(q)
                .expect("oracle run");
            (out.report.relation.sorted(), out.report.page_accesses)
        })
        .collect();

    let mut t = Table::new(
        "X5 — serving layer: Zipf load, plan cache + single-flight coalescing",
        vec![
            "config",
            "requests",
            "wall ms",
            "req/s",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "server GETs",
            "plan hit rate",
            "diverged",
        ],
    );
    u.site.server.set_latency(cfg.latency);

    // 1 — sequential uncached: one plain session per request, in
    // schedule order, re-optimizing every time.
    u.site.server.reset_stats();
    let seq = {
        let diverged = AtomicU64::new(0);
        let hist = FixedHistogram::new();
        let start = Instant::now();
        for &qi in &schedule {
            let t0 = Instant::now();
            let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
                .run(&queries[qi].1)
                .expect("sequential run");
            hist.observe(t0.elapsed().as_micros() as u64);
            check(Some(&out), &oracle[qi], &diverged);
        }
        LoadOut {
            hist,
            diverged: diverged.load(Ordering::Relaxed),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            phases: PhaseBreakdown::default(),
        }
    };
    let seq_gets = u.site.server.stats().gets;
    t.row(seq.row("sequential uncached", cfg.requests, seq_gets, None));

    // 2 — closed loop, coalescing OFF (plan cache on).
    u.site.server.reset_stats();
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &live)
        .with_admission_capacity(cfg.workers);
    let off = drive(&server, &queries, &schedule, &oracle, cfg.workers, None);
    let off_hit_rate = server.stats().plan_cache.hit_rate();
    let off_gets = u.site.server.stats().gets;
    t.row(off.row(
        "closed loop, coalesce off",
        cfg.requests,
        off_gets,
        Some(off_hit_rate),
    ));

    // 3 — closed loop, coalescing ON: the GET delta vs row 2 is pure
    // single-flight sharing (identical schedule and workers).
    u.site.server.reset_stats();
    let coalesced = nalg::CoalescingSource::new(&live);
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &coalesced)
        .with_admission_capacity(cfg.workers);
    let on = drive(&server, &queries, &schedule, &oracle, cfg.workers, None);
    let on_stats = server.stats();
    let on_gets = u.site.server.stats().gets;
    let coalesce = coalesced.stats();
    t.row(on.row(
        "closed loop, coalesce on",
        cfg.requests,
        on_gets,
        Some(on_stats.plan_cache.hit_rate()),
    ));

    // 4 — open loop, coalescing ON: fixed arrivals, latency includes
    // queueing behind slower requests. This run is fully observed:
    // request-scoped tracing, the latency SLO, and the flight recorder
    // ride along (the oracle check still pins rows and accesses, so the
    // run itself proves tracing is paper-blind under load).
    u.site.server.reset_stats();
    if cfg.chaos_slow_rate > 0.0 {
        u.site
            .server
            .set_fault_plan(
                websim::FaultPlan::new(cfg.seed).with_rule(websim::FaultRule::slow(
                    cfg.chaos_slow_rate,
                    cfg.chaos_slow_delay.as_micros() as u64,
                )),
            );
    }
    let coalesced_open = nalg::CoalescingSource::new(&live);
    let slo = SloTracker::new(LatencyObjective::new(
        "serve",
        cfg.slo.as_micros() as u64,
        0.99,
    ));
    let recorder = FlightRecorder::with_capacity(cfg.requests.max(16), 8);
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &coalesced_open)
        .with_admission_capacity(cfg.workers)
        .with_trace(cfg.seed)
        .with_slo(&slo)
        .with_flight_recorder(&recorder);
    let open = drive(
        &server,
        &queries,
        &schedule,
        &oracle,
        cfg.workers,
        Some(cfg.open_loop_interval),
    );
    let open_gets = u.site.server.stats().gets;
    t.row(open.row(
        "open loop, coalesce on",
        cfg.requests,
        open_gets,
        Some(server.stats().plan_cache.hit_rate()),
    ));
    u.site.server.clear_fault_plan();
    u.site.server.set_latency(Duration::ZERO);

    let gets_saved_pct = if off_gets > 0 {
        100.0 * (off_gets.saturating_sub(on_gets)) as f64 / off_gets as f64
    } else {
        0.0
    };
    let pc = on_stats.plan_cache;
    let slo_snapshot = slo.snapshot();
    let dumps = recorder.dumps();
    let flight_jsonl: String = dumps.iter().map(|d| d.export_jsonl()).collect();
    let triggers: String = recorder
        .fired()
        .iter()
        .map(|(k, n)| format!("\"{}\": {n}", k.as_str()))
        .collect::<Vec<_>>()
        .join(", ");
    let p = &open.phases;
    let n = cfg.requests.max(1) as u64;
    let extras = vec![
        (
            "histogram".to_string(),
            format!("\"{}\"", obs::hist::RESOLUTION),
        ),
        (
            "phases".to_string(),
            format!(
                "{{\"requests\": {}, \"totals\": {}, \"mean_us\": {{\"queue\": {}, \"plan\": {}, \"fetch\": {}, \"eval\": {}, \"view\": {}}}}}",
                cfg.requests,
                p.to_json(),
                p.queue_us / n,
                p.plan_us / n,
                p.fetch_us / n,
                p.eval_us / n,
                p.view_us / n,
            ),
        ),
        ("slo".to_string(), slo_snapshot.to_json()),
        (
            "trace".to_string(),
            format!(
                "{{\"requests_traced\": {}, \"flight_dumps\": {}, \"triggers\": {{{triggers}}}}}",
                recorder.recent().len(),
                dumps.len(),
            ),
        ),
        (
            "gets".to_string(),
            format!(
                "{{\"sequential\": {seq_gets}, \"coalesce_off\": {off_gets}, \"coalesce_on\": {on_gets}, \"open_loop\": {open_gets}, \"saved_pct\": {gets_saved_pct:.1}}}"
            ),
        ),
        (
            "plan_cache".to_string(),
            format!(
                "{{\"hits\": {}, \"misses\": {}, \"rebinds\": {}, \"evictions\": {}, \"invalidations\": {}, \"quarantine_rejections\": {}, \"hit_rate\": {:.3}}}",
                pc.hits, pc.misses, pc.rebinds, pc.evictions, pc.invalidations,
                pc.quarantine_rejections, pc.hit_rate()
            ),
        ),
        (
            "coalescing".to_string(),
            format!(
                "{{\"leaders\": {}, \"followers\": {}, \"saved_gets\": {}}}",
                coalesce.leaders,
                coalesce.followers,
                coalesce.saved_gets()
            ),
        ),
    ];
    ServeSmoke {
        table: t,
        extras,
        hit_rate: pc.hit_rate(),
        rows_diverged: seq.diverged + off.diverged + on.diverged + open.diverged,
        gets_saved_pct,
        trace_jsonl: recorder.export_recent_jsonl(),
        flight_jsonl,
        flight_dumps: dumps.len(),
        slo_burning: slo_snapshot.burning(),
        phase_totals: open.phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedule_is_seeded_and_skewed() {
        let a = zipf_schedule(7, 7, 200, 1.1);
        assert_eq!(a, zipf_schedule(7, 7, 200, 1.1));
        assert_ne!(a, zipf_schedule(8, 7, 200, 1.1));
        let head = a.iter().filter(|&&q| q == 0).count();
        let tail = a.iter().filter(|&&q| q == 6).count();
        assert!(head > tail, "rank 1 ({head}) must beat rank 7 ({tail})");
        assert!(a.iter().all(|&q| q < 7));
    }

    #[test]
    fn percentile_columns_read_the_fixed_histogram() {
        let h = FixedHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v * 100); // 0.1ms .. 100ms
        }
        let out = LoadOut {
            hist: h,
            diverged: 0,
            wall_ms: 10.0,
            phases: PhaseBreakdown::default(),
        };
        let row = out.row("x", 1000, 0, None);
        let p50: f64 = row[4].parse().unwrap();
        let p99: f64 = row[5].parse().unwrap();
        // Within the histogram's 3.1% resolution of the true 50ms/99ms.
        assert!((p50 - 50.0).abs() <= 50.0 / 30.0, "p50 {p50}");
        assert!((p99 - 99.0).abs() <= 99.0 / 30.0, "p99 {p99}");
    }

    #[test]
    fn x5_small_load_is_divergence_free_and_cache_effective() {
        let cfg = ServeLoadConfig {
            requests: 42,
            workers: 4,
            latency: Duration::from_millis(1),
            open_loop_interval: Duration::from_millis(2),
            ..ServeLoadConfig::default()
        };
        let smoke = x5_serving(&cfg);
        assert_eq!(smoke.table.rows.len(), 4);
        assert_eq!(smoke.rows_diverged, 0, "serving must be paper-blind");
        assert!(
            smoke.hit_rate > 0.5,
            "42 Zipf requests over 7 plans: hit rate {} too low",
            smoke.hit_rate
        );
        assert!(smoke.gets_saved_pct >= 0.0);
        // every row answered: diverged column is "0" everywhere
        assert!(smoke.table.rows.iter().all(|r| r[9] == "0"));
        // The observed open-loop run traced every request…
        assert_eq!(smoke.trace_jsonl.lines().count(), 42);
        assert!(smoke.trace_jsonl.contains("serve.request"));
        // …with phases measured (42 plans were all run or cache-hit).
        assert!(smoke.phase_totals.plan_us > 0);
        assert!(smoke.phase_totals.fetch_us > 0, "2ms GETs must show up");
        // Extras carry the new observability fields.
        let keys: Vec<&str> = smoke.extras.iter().map(|(k, _)| k.as_str()).collect();
        for k in ["histogram", "phases", "slo", "trace", "gets", "plan_cache"] {
            assert!(keys.contains(&k), "missing extra {k}");
        }
        let slo = &smoke.extras.iter().find(|(k, _)| k == "slo").unwrap().1;
        assert!(slo.contains("\"p99_us\":"), "{slo}");
    }

    #[test]
    fn x5_same_seed_runs_export_byte_identical_causal_traces() {
        let cfg = ServeLoadConfig {
            requests: 12,
            workers: 3,
            latency: Duration::from_micros(200),
            open_loop_interval: Duration::from_micros(500),
            ..ServeLoadConfig::default()
        };
        let causal = |smoke: &ServeSmoke| {
            // Strip the wall-clock facets: keep only the request lines'
            // deterministic prefix order (request ids) — full causal
            // byte-identity is pinned at the workspace level.
            smoke
                .trace_jsonl
                .lines()
                .map(|l| {
                    let at = l.find("\"latency_us\"").unwrap();
                    l[..at].to_string()
                })
                .collect::<Vec<_>>()
        };
        let a = x5_serving(&cfg);
        let b = x5_serving(&cfg);
        assert_eq!(causal(&a), causal(&b), "same seed, same request ids");
    }
}
