//! X8 (extension) — tail latency under deadlines, hedging, and
//! relevance-driven cancellation.
//!
//! The paper's cost model 𝒞 prices a query in page accesses; a serving
//! stack is judged in milliseconds at the tail. X8 injects a heavy-tailed
//! per-GET latency profile ([`websim::LatencyProfile`]) into the E4
//! university site and drives one Zipf schedule through four server
//! configurations that differ only in their robustness levers:
//!
//! * **baseline** — no deadline, no hedging: every tail GET is waited
//!   out, so request latency inherits the per-GET tail multiplied by the
//!   pages a session touches;
//! * **deadline** — [`serve::QueryServer::with_deadline_budget`]: past
//!   the budget the request browns out into an exact partial answer
//!   (rows so far + the not-yet-fetched URL set), never blocking the SLO;
//! * **hedge** — [`resilience::HedgePolicy`]: a laggard GET is raced by
//!   one backup request; the winner's bytes are used, the loser is
//!   cancelled, and neither twin is ever double-charged to
//!   `page_accesses`;
//! * **deadline + hedge** — both; hedges recover most tails *within*
//!   the budget, the deadline caps whatever still escapes.
//!
//! Every non-browned answer must match the sequential no-chaos oracle
//! byte-for-byte — rows *and* per-session `page_accesses` — proving the
//! levers are invisible to the paper's numbers. Every browned-out answer
//! must be an honest partial: `deadline_exceeded` set, a non-empty
//! exact unreachable set, and only rows the oracle also has.
//!
//! [`relevance_micro`] prices the third lever alone (same scheme as the
//! nalg unit tests): σ[Items.Name='b'] over a 3-item list must cancel
//! exactly `/i/a` and `/i/c`, halving downloads at identical rows —
//! measured in saved pages rather than milliseconds.

use crate::serving::zipf_schedule;
use crate::table::Table;
use adm::{Field, PageScheme, Tuple, Url, Value, WebScheme};
use nalg::{EvalPolicy, Fetch};
use obs::FixedHistogram;
use resilience::HedgePolicy;
use serve::QueryServer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use websim::sitegen::{University, UniversityConfig};
use websim::LatencyProfile;
use wvcore::{ConjunctiveQuery, ExecPolicy, LiveSource, QuerySession, SiteStatistics};

/// Knobs of the X8 tail-latency benchmark. `Default` is the full scale;
/// the tests run reduced copies.
#[derive(Debug, Clone)]
pub struct DeadlineLoadConfig {
    /// Seed of the Zipf schedule and the latency profile.
    pub seed: u64,
    /// Total requests per arm.
    pub requests: usize,
    /// Serving threads; also the admission capacity.
    pub workers: usize,
    /// Pooled-fetch workers per session (deadline preemption and
    /// hedging both live in the pooled drain).
    pub fetch_workers: usize,
    /// Zipf skew exponent `s`.
    pub zipf_s: f64,
    /// Per-GET latency floor (every request pays it).
    pub floor: Duration,
    /// Tail delay added to a slow GET.
    pub tail: Duration,
    /// Probability a GET draws the tail.
    pub tail_rate: f64,
    /// Per-request deadline budget of the deadline arms.
    pub budget: Duration,
}

impl Default for DeadlineLoadConfig {
    fn default() -> Self {
        DeadlineLoadConfig {
            seed: 0xD34D,
            requests: 120,
            workers: 8,
            fetch_workers: 4,
            zipf_s: 1.1,
            floor: Duration::from_micros(200),
            tail: Duration::from_millis(25),
            tail_rate: 0.06,
            budget: Duration::from_millis(5),
        }
    }
}

/// Output of the X8 run (see [`x8_deadline`]).
pub struct DeadlineSmoke {
    /// One row per arm.
    pub table: Table,
    /// Complete (non-browned) answers that diverged from the oracle;
    /// must be zero: the levers must be paper-blind wherever no deadline
    /// fired.
    pub rows_diverged: u64,
    /// Browned-out answers that were *not* honest partials (missing
    /// `deadline_exceeded`, empty unreachable set, or rows outside the
    /// oracle); must be zero.
    pub bad_brownouts: u64,
    /// p99.9 latency of the baseline arm, ms.
    pub p999_baseline_ms: f64,
    /// p99.9 latency of the deadline+hedge arm, ms.
    pub p999_guarded_ms: f64,
    /// Brown-outs of the deadline-only arm (the chaos must actually bite
    /// for the comparison to mean anything).
    pub brown_outs: u64,
    /// Hedge GETs launched across both hedged arms.
    pub hedges: u64,
}

type Oracle = (adm::Relation, u64);

struct ArmOut {
    hist: FixedHistogram,
    wall_ms: f64,
    complete: u64,
    brown_outs: u64,
    diverged: u64,
    bad_brownouts: u64,
}

impl ArmOut {
    fn p999_ms(&self) -> f64 {
        self.hist.value_at_quantile(0.999) as f64 / 1e3
    }

    fn row(&self, label: &str, requests: usize, hedges: u64) -> Vec<String> {
        let pct_ms = |q: f64| self.hist.value_at_quantile(q) as f64 / 1e3;
        vec![
            label.to_string(),
            requests.to_string(),
            format!("{:.0}", self.wall_ms),
            format!("{:.1}", pct_ms(0.50)),
            format!("{:.1}", pct_ms(0.99)),
            format!("{:.1}", pct_ms(0.999)),
            self.complete.to_string(),
            self.brown_outs.to_string(),
            hedges.to_string(),
            (self.diverged + self.bad_brownouts).to_string(),
        ]
    }
}

/// Classifies one served answer. Complete answers must reproduce the
/// oracle exactly; browned-out answers must be honest partials — the
/// deadline flag set, the unfetched frontier reported, and no row the
/// full answer does not have. A browned request with no outcome at all
/// (shed pre-admission or pre-plan with the budget already gone) is a
/// legal empty partial.
fn classify(out: &serve::ServeOutcome, oracle: &Oracle, arm: &ArmStats) {
    if out.brown_out {
        arm.brown_outs.fetch_add(1, Ordering::Relaxed);
        let honest = match &out.outcome {
            None => true,
            Some(o) => {
                o.report.deadline_exceeded
                    && !o.report.unreachable.is_empty()
                    && o.report
                        .relation
                        .rows()
                        .iter()
                        .all(|r| oracle.0.rows().contains(r))
            }
        };
        if !honest {
            arm.bad_brownouts.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        let ok = out.outcome.as_ref().is_some_and(|o| {
            o.report.relation.sorted() == oracle.0 && o.report.page_accesses == oracle.1
        });
        if ok {
            arm.complete.fetch_add(1, Ordering::Relaxed);
        } else {
            arm.diverged.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct ArmStats {
    complete: AtomicU64,
    brown_outs: AtomicU64,
    diverged: AtomicU64,
    bad_brownouts: AtomicU64,
}

/// Drives one closed-loop schedule through a server with `workers`
/// threads (the X5 closed loop, minus the open-loop variant — queueing
/// is not what X8 measures).
fn drive_arm<S: nalg::PageSource>(
    server: &QueryServer<'_, S>,
    queries: &[(&'static str, ConjunctiveQuery)],
    schedule: &[usize],
    oracle: &[Oracle],
    workers: usize,
) -> ArmOut {
    let next = AtomicUsize::new(0);
    let stats = ArmStats {
        complete: AtomicU64::new(0),
        brown_outs: AtomicU64::new(0),
        diverged: AtomicU64::new(0),
        bad_brownouts: AtomicU64::new(0),
    };
    let hist = FixedHistogram::new();
    let debug = std::env::var_os("X8_DEBUG").is_some();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, stats) = (&next, &stats);
            let hist = hist.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= schedule.len() {
                    break;
                }
                if debug {
                    eprintln!("x8-debug: worker {w} start req {i} q={}", schedule[i]);
                }
                let t0 = Instant::now();
                let out = server.serve(&queries[schedule[i]].1).expect("serve");
                hist.observe(t0.elapsed().as_micros() as u64);
                classify(&out, &oracle[schedule[i]], stats);
                if debug {
                    eprintln!("x8-debug: worker {w} done  req {i}");
                }
            });
        }
    });
    ArmOut {
        hist,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        complete: stats.complete.load(Ordering::Relaxed),
        brown_outs: stats.brown_outs.load(Ordering::Relaxed),
        diverged: stats.diverged.load(Ordering::Relaxed),
        bad_brownouts: stats.bad_brownouts.load(Ordering::Relaxed),
    }
}

/// Result of the relevance micro-check (see [`relevance_micro`]).
pub struct RelevanceMicro {
    /// Page accesses without the monitor (entry + every item).
    pub plain_accesses: u64,
    /// Page accesses with cancellation (entry + the one relevant item).
    pub pruned_accesses: u64,
    /// URLs the monitor cancelled, sorted.
    pub cancelled: Vec<String>,
    /// Rows identical with and without pruning.
    pub rows_match: bool,
}

/// In-memory page source of the relevance micro-check.
struct MapSource {
    pages: HashMap<Url, Tuple>,
}

impl nalg::PageSource for MapSource {
    fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, nalg::SourceError> {
        self.pages
            .get(url)
            .cloned()
            .ok_or_else(|| nalg::SourceError::NotFound(url.clone()))
    }
}

/// The relevance lever in isolation, at micro scale: a 3-item list page
/// where σ[Items.Name='b'] leaves two Follow targets provably unable to
/// contribute — the monitor must cancel exactly those two, halving
/// downloads at identical rows and an untouched cost model.
pub fn relevance_micro() -> RelevanceMicro {
    let list = PageScheme::new(
        "ListPage",
        vec![Field::list(
            "Items",
            vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
        )],
    )
    .expect("list scheme");
    let item = PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Kind")])
        .expect("item scheme");
    let ws = WebScheme::builder()
        .scheme(list)
        .scheme(item)
        .entry_point("ListPage", "/list.html")
        .build()
        .expect("web scheme");
    let mut pages = HashMap::new();
    pages.insert(
        Url::new("/list.html"),
        Tuple::new().with_list(
            "Items",
            vec![
                Tuple::new()
                    .with("Name", "a")
                    .with("ToItem", Value::link("/i/a")),
                Tuple::new()
                    .with("Name", "b")
                    .with("ToItem", Value::link("/i/b")),
                Tuple::new()
                    .with("Name", "c")
                    .with("ToItem", Value::link("/i/c")),
            ],
        ),
    );
    for (n, k) in [("a", "x"), ("b", "y"), ("c", "x")] {
        pages.insert(
            Url::new(format!("/i/{n}")),
            Tuple::new().with("Name", n).with("Kind", k),
        );
    }
    let src = MapSource { pages };
    let e = nalg::NalgExpr::entry("ListPage")
        .unnest("Items")
        .follow("ToItem", "ItemPage")
        .select(nalg::Pred::eq("Items.Name", "b"));
    let plain = nalg::Evaluator::new(&ws, &src).eval(&e).expect("plain");
    let pruned = nalg::Evaluator::new(&ws, &src)
        .with_policy(&EvalPolicy {
            relevance: true,
            ..Default::default()
        })
        .eval(&e)
        .expect("pruned");
    RelevanceMicro {
        plain_accesses: plain.page_accesses,
        pruned_accesses: pruned.page_accesses,
        cancelled: pruned.cancelled.iter().map(|u| u.to_string()).collect(),
        rows_match: pruned.relation.sorted() == plain.relation.sorted(),
    }
}

/// X8 — see the module docs. One fixed-seed site under a heavy-tailed
/// latency profile, four closed-loop arms over one Zipf schedule:
/// baseline, deadline, hedge, deadline+hedge. The oracle runs before
/// the profile is installed, so it prices the paper's rows and page
/// accesses, not the chaos.
pub fn x8_deadline(cfg: &DeadlineLoadConfig) -> DeadlineSmoke {
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let queries = crate::fixtures::university_workload();
    let schedule = zipf_schedule(cfg.seed, queries.len(), cfg.requests, cfg.zipf_s);
    let live = LiveSource::for_site(&u.site);

    // The oracle: each distinct query once, sequentially, before any
    // latency is injected — rows and page accesses every complete
    // served answer must reproduce, and the row superset every honest
    // brown-out must stay inside.
    let oracle: Vec<Oracle> = queries
        .iter()
        .map(|(_, q)| {
            let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &live)
                .run(q)
                .expect("oracle run");
            (out.report.relation.sorted(), out.report.page_accesses)
        })
        .collect();

    let profile = LatencyProfile {
        floor_us: cfg.floor.as_micros() as u64,
        tail_us: cfg.tail.as_micros() as u64,
        tail_rate: cfg.tail_rate,
        seed: cfg.seed,
    };
    let budget_us = cfg.budget.as_micros() as u64;
    // Hedge at half the budget: late enough that pool-queue wait rarely
    // masquerades as a tail, early enough that a hedged GET (one floor
    // round-trip) still lands inside the budget — a recovered tail
    // completes instead of browning out.
    let hedge_delay_us = (budget_us / 2).max(1);
    u.site.server.set_latency_profile(profile);

    let mut t = Table::new(
        "X8 — tail latency: deadline budget, hedged GETs (heavy-tailed chaos)",
        vec![
            "config",
            "requests",
            "wall ms",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "complete",
            "brown-outs",
            "hedges",
            "bad answers",
        ],
    );

    // Serves each distinct query once, unmeasured, so the arm's plan
    // cache is warm before timing starts. Rule 1–9 enumeration is pure
    // CPU — a deadline cannot sever it and hedging cannot hide it — so
    // an unwarmed first hit would put one planning spike in every
    // arm's tail and the p99.9 columns would compare the optimizer,
    // not the fetch-path levers X8 isolates.
    let debug = std::env::var_os("X8_DEBUG").is_some();
    let stage = |s: &str| {
        if debug {
            eprintln!("x8-debug: stage {s}");
        }
    };
    let warm = |server: &QueryServer<'_, LiveSource>| {
        for (i, (_, q)) in queries.iter().enumerate() {
            if debug {
                eprintln!("x8-debug: warm query {i}");
            }
            let _ = server.serve(q).expect("warmup serve");
        }
    };

    stage("baseline arm");
    // 1 — baseline: tails are waited out in full.
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &live)
        .with_admission_capacity(cfg.workers)
        .with_concurrent_fetch(cfg.fetch_workers);
    warm(&server);
    u.site.server.reset_stats();
    stage("drive baseline");
    let baseline = drive_arm(&server, &queries, &schedule, &oracle, cfg.workers);
    t.row(baseline.row("baseline", cfg.requests, 0));

    stage("deadline arm");
    // 2 — deadline only: requests brown out at the budget.
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &live)
        .with_admission_capacity(cfg.workers)
        .with_concurrent_fetch(cfg.fetch_workers)
        .with_deadline_budget(budget_us);
    warm(&server);
    u.site.server.reset_stats();
    stage("drive deadline");
    let deadline = drive_arm(&server, &queries, &schedule, &oracle, cfg.workers);
    t.row(deadline.row("deadline", cfg.requests, 0));

    stage("hedge arm");
    // 3 — hedge only: tails are raced, nothing browns out.
    let hedge_policy = HedgePolicy::new(hedge_delay_us).with_jitter_seed(cfg.seed);
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &live)
        .with_policy(&ExecPolicy {
            eval: EvalPolicy {
                fetch: Fetch::hedged(cfg.fetch_workers, hedge_policy.config()),
                ..Default::default()
            },
            ..Default::default()
        })
        .with_admission_capacity(cfg.workers);
    warm(&server);
    u.site.server.reset_stats();
    let hedge_warm = hedge_policy.snapshot();
    stage("drive hedge");
    let hedged = drive_arm(&server, &queries, &schedule, &oracle, cfg.workers);
    let hedge_snap = hedge_policy.snapshot().since(&hedge_warm);
    t.row(hedged.row("hedge", cfg.requests, hedge_snap.hedges));

    stage("guarded arm");
    // 4 — deadline + hedge: hedges recover tails inside the budget,
    // the deadline caps the stragglers.
    let guarded_policy = HedgePolicy::new(hedge_delay_us).with_jitter_seed(cfg.seed ^ 1);
    let server = QueryServer::new(&u.site.scheme, &catalog, &stats, &live)
        .with_policy(&ExecPolicy {
            eval: EvalPolicy {
                fetch: Fetch::hedged(cfg.fetch_workers, guarded_policy.config()),
                ..Default::default()
            },
            ..Default::default()
        })
        .with_admission_capacity(cfg.workers)
        .with_deadline_budget(budget_us);
    warm(&server);
    u.site.server.reset_stats();
    let guarded_warm = guarded_policy.snapshot();
    stage("drive guarded");
    let guarded = drive_arm(&server, &queries, &schedule, &oracle, cfg.workers);
    let guarded_snap = guarded_policy.snapshot().since(&guarded_warm);
    t.row(guarded.row("deadline + hedge", cfg.requests, guarded_snap.hedges));

    u.site.server.clear_latency_profile();

    DeadlineSmoke {
        table: t,
        rows_diverged: baseline.diverged + deadline.diverged + hedged.diverged + guarded.diverged,
        bad_brownouts: baseline.bad_brownouts
            + deadline.bad_brownouts
            + hedged.bad_brownouts
            + guarded.bad_brownouts,
        p999_baseline_ms: baseline.p999_ms(),
        p999_guarded_ms: guarded.p999_ms(),
        brown_outs: deadline.brown_outs,
        hedges: hedge_snap.hedges + guarded_snap.hedges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relevance_micro_prunes_exactly_the_dead_urls() {
        let rel = relevance_micro();
        assert_eq!(rel.plain_accesses, 4, "entry + 3 items");
        assert_eq!(rel.pruned_accesses, 2, "entry + /i/b only");
        assert_eq!(rel.cancelled, vec!["/i/a", "/i/c"]);
        assert!(rel.rows_match);
    }

    #[test]
    fn x8_small_load_brownouts_are_honest_and_hedges_fire() {
        let cfg = DeadlineLoadConfig {
            requests: 48,
            workers: 4,
            ..DeadlineLoadConfig::default()
        };
        let smoke = x8_deadline(&cfg);
        assert_eq!(smoke.table.rows.len(), 4);
        assert_eq!(smoke.rows_diverged, 0, "complete answers must be exact");
        assert_eq!(smoke.bad_brownouts, 0, "partials must be honest");
        assert!(
            smoke.brown_outs >= 1,
            "25ms tails at a 5ms budget must brown out: {}",
            smoke.brown_outs
        );
        assert!(smoke.hedges >= 1, "6% tails over 48 requests must hedge");
        assert!(
            smoke.p999_guarded_ms * 2.0 <= smoke.p999_baseline_ms,
            "deadline+hedge p99.9 {:.1}ms is not >=2x under baseline {:.1}ms",
            smoke.p999_guarded_ms,
            smoke.p999_baseline_ms
        );
    }

    #[test]
    fn x8_without_chaos_never_browns_out() {
        let cfg = DeadlineLoadConfig {
            requests: 16,
            workers: 4,
            fetch_workers: 2,
            tail_rate: 0.0,
            tail: Duration::ZERO,
            budget: Duration::from_secs(5),
            ..DeadlineLoadConfig::default()
        };
        let smoke = x8_deadline(&cfg);
        assert_eq!(smoke.rows_diverged, 0);
        assert_eq!(smoke.bad_brownouts, 0);
        assert_eq!(smoke.brown_outs, 0, "no chaos, huge budget: no brown-outs");
    }
}
