//! `view_maintain` — writes beside reads. A seeded plan edits the site;
//! each round then brings three registered views up to date
//! (`IncrementalView::sync`), reads them through the server, and runs one
//! of the seven hot queries — each in its turn — against a materialized
//! store of the same site (Algorithm 3 with URL checks).
//!
//! One site serves both maintenance engines. They only read it, one after
//! the other on one thread, so their GET and HEAD counts separate by
//! snapshot; a twin site would double the harness's own share of a round
//! (`apply_round` clones every page of the schemes it edits) for nothing.
//!
//! One query per round, not all seven: `MatSession::run` re-plans every
//! time and would take nine tenths of a 60 ms round, leaving a 15-second
//! run some 250 time-to-freshness samples. At one per round a round takes
//! about 12 ms and the run has over a thousand.
//!
//! The plan edits only (`DeptPage.Address` 10 %, `ProfPage.Rank` 2 %,
//! `CoursePage.Description` 1 % of pages per round, about 15 changes) and
//! deletes nothing, so the site is stationary and a long run measures the
//! same thing as a short one. One client: a round is a unit of work, and
//! the edits of round *r + 1* wait for the reads of round *r*.
//!
//! On this workload a "request" of the end-to-end metrics is one round,
//! and its latency is the time to freshness: from the change feed being
//! non-empty to `sync` having returned.

use super::serving::{ms_since, report_server, span_durations};
use super::windows::{overhead_pct, quiet, Windows};
use super::{hot_navigate, medium_site, Outcome, RunCfg};
use crate::alloc::AllocCount;
use crate::api::{
    fingerprint, parse_query, university_catalog, ConjunctiveQuery, Evaluator, Fingerprint,
    IncrementalView, LiveSource, MatSession, MatStore, MutationPlan, MutationRule, NalgExpr,
    NoSource, Optimizer, QueryServer, QuerySession, RwLock, SiteStatistics, TracedServer,
    University, UniversityConfig, ViewCatalog, WebScheme,
};
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile, sort, sorted_in};
use std::time::Instant;

/// The three maintained views, as the SQL a reader sends.
pub const VIEWS: [&str; 3] = [
    "SELECT DName, Address FROM Dept",
    "SELECT PName, Rank FROM Professor",
    "SELECT CName, Description FROM Course",
];

/// Rounds run before timing, inside set-up.
const WARM_ROUNDS: u64 = 5;

/// Every this many rounds the round's four answers are compared with live
/// evaluation of the sites as they then are. 20 and 7 share no factor, so
/// the checks walk through all seven materialized-view queries.
const CHECK_EVERY: u64 = 20;

/// Operations attempted per round: one sync, three view reads, one
/// materialized-view query.
const OPS_PER_ROUND: u64 = 5;

/// Rounds per window of the end-to-end run: ten turns of the seven
/// queries, a little under a second.
const WINDOW: usize = 70;

/// Rounds the traced run spends in each arm before switching: one turn of
/// the seven queries, so both arms do the same work.
const TRACE_BLOCK: u64 = 7;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

static NO_SOURCE: NoSource = NoSource;

fn mutation_plan(seed: u64) -> MutationPlan {
    MutationPlan::new(seed)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.10))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.02))
        .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.01))
}

/// What does not depend on the site's content.
struct Fixed {
    site: UniversityConfig,
    ws: WebScheme,
    catalog: ViewCatalog,
    view_queries: Vec<ConjunctiveQuery>,
    mat_queries: Vec<ConjunctiveQuery>,
    plan: MutationPlan,
}

/// Times of the set-up steps the per-layer list reports.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    generate_ms: f64,
    stats_ms: f64,
    dataflow_materialize_ms: f64,
    matview_materialize_ms: f64,
}

/// Everything a round touches.
struct Ctx<'c, 'w> {
    fixed: &'w Fixed,
    stats: &'w SiteStatistics,
    uni: &'c mut University,
    views: &'w RwLock<IncrementalView<'w>>,
    view_exprs: &'c [NalgExpr],
    mat: &'c mut MatStore,
    server: &'c QueryServer<'w, NoSource>,
    times: SetupTimes,
    /// Next round number (warm-up used the first few).
    round: u64,
}

/// What one round measured.
#[derive(Debug, Default, Clone)]
struct Round {
    mutate_ns: u64,
    sync_ns: u64,
    view_read_ns: Vec<u64>,
    matq_ns: u64,
    /// Which of the seven queries this round ran.
    turn: u32,
    /// Wall time of the round, checks excluded.
    busy_ns: u64,
    failed: u64,
    changes: u64,
    delta_fetches: u64,
    rows_changed: u64,
    upqueries: u64,
    /// GET + HEAD the sync cost the site.
    sync_accesses: u64,
    heads: u64,
    light_connections: u64,
    downloads: u64,
    from_store: u64,
}

/// Builds the site, statistics, the maintained views, the materialized
/// store and the server, runs the warm-up rounds, then hands everything to
/// `body` along with how long all that took.
fn with_state<R>(
    fixed: &Fixed,
    rec: &Recorder,
    body: impl FnOnce(&mut Ctx<'_, '_>, f64) -> Result<R, String>,
) -> Result<R, String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let mut uni = University::generate(fixed.site.clone()).map_err(|e| e.to_string())?;
    times.generate_ms = ms_since(t0);
    let t = Instant::now();
    let stats = SiteStatistics::from_site(&uni.site);
    times.stats_ms = ms_since(t);

    let t = Instant::now();
    let mut iv = IncrementalView::new(&fixed.ws);
    iv.materialize(&uni.site.server)
        .map_err(|e| e.to_string())?;
    iv.set_cursor(uni.site.change_cursor());
    times.dataflow_materialize_ms = ms_since(t);
    // Each view maintains the plan the optimizer would navigate for its
    // query, registered under the key the server looks requests up by.
    let optimizer = Optimizer::new(&fixed.ws, &fixed.catalog, &stats);
    let mut view_exprs = Vec::new();
    for (text, q) in VIEWS.iter().zip(&fixed.view_queries) {
        let expr = optimizer
            .optimize(q)
            .map_err(|e| e.to_string())?
            .best()
            .expr
            .clone();
        iv.register(*text, q.cache_key(), &expr, &uni.site.server)
            .map_err(|e| e.to_string())?;
        view_exprs.push(expr);
    }
    let views = RwLock::new(iv);

    let t = Instant::now();
    let mut mat = MatStore::new();
    mat.materialize(&fixed.ws, &uni.site.server)
        .map_err(|e| e.to_string())?;
    times.matview_materialize_ms = ms_since(t);
    uni.site.server.reset_stats();

    let server = QueryServer::new(&fixed.ws, &fixed.catalog, &stats, &NO_SOURCE).with_views(&views);
    let mut ctx = Ctx {
        fixed,
        stats: &stats,
        uni: &mut uni,
        views: &views,
        view_exprs: &view_exprs,
        mat: &mut mat,
        server: &server,
        times,
        round: 0,
    };
    let unwindowed = Windows::start(usize::MAX);
    for _ in 0..WARM_ROUNDS {
        if round(&mut ctx, rec, &unwindowed)?.failed > 0 {
            return Err("a warm-up round failed".into());
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    body(&mut ctx, setup_s)
}

/// One round: edit the site, sync the views, read them, run this
/// round's query against the materialized store.
fn round(ctx: &mut Ctx<'_, '_>, rec: &Recorder, windows: &Windows) -> Result<Round, String> {
    let mut out = Round::default();
    let r = ctx.round;
    ctx.round += 1;
    let fixed = ctx.fixed;
    let start = Instant::now();
    let round_span = rec.request("request", r as u32);

    let t = Instant::now();
    {
        let _s = rec.span("websim.mutate");
        fixed
            .plan
            .apply_round(&mut ctx.uni.site, r)
            .map_err(|e| format!("round {r}: {e}"))?;
    }
    out.mutate_ns = t.elapsed().as_nanos() as u64;

    // Time to freshness: the feed is non-empty now; it is drained when
    // `sync` returns.
    let before = ctx.uni.site.server.stats();
    let t = Instant::now();
    let report = {
        let _s = rec.span("dataflow.sync");
        let server = TracedServer {
            server: &ctx.uni.site.server,
            rec,
        };
        ctx.views.write().sync_with(&ctx.uni.site, &server)
    };
    out.sync_ns = t.elapsed().as_nanos() as u64;
    let after = ctx.uni.site.server.stats();
    out.sync_accesses = (after.gets - before.gets) + (after.heads - before.heads);
    match report {
        Ok(rep) => {
            out.changes = rep.changes_seen;
            out.delta_fetches = rep.pages_fetched;
            out.rows_changed = rep.rows_added + rep.rows_removed;
            out.upqueries = rep.upqueries;
            out.failed += u64::from(!rep.failed.is_empty());
        }
        Err(_) => out.failed += 1,
    }

    let mut view_fps = Vec::new();
    for q in &fixed.view_queries {
        let t = Instant::now();
        let served = {
            let _s = rec.span("serve.view_read");
            ctx.server.serve(q)
        };
        out.view_read_ns.push(t.elapsed().as_nanos() as u64);
        match served {
            Ok(o) if o.from_view() => view_fps.push(o.view_answer.as_ref().map(fingerprint)),
            _ => {
                out.failed += 1;
                view_fps.push(None);
            }
        }
    }

    let turn = (r % fixed.mat_queries.len() as u64) as usize;
    out.turn = turn as u32;
    let before = ctx.uni.site.server.stats();
    let mat_fp = {
        let server = TracedServer {
            server: &ctx.uni.site.server,
            rec,
        };
        let session = MatSession::new(&fixed.ws, &fixed.catalog, ctx.stats, &server);
        let t = Instant::now();
        let ran = {
            let _s = rec.span("matview.run");
            session.run(ctx.mat, &fixed.mat_queries[turn])
        };
        out.matq_ns = t.elapsed().as_nanos() as u64;
        match ran {
            Ok(o) if o.is_complete() => {
                out.light_connections = o.counters.light_connections;
                out.downloads = o.counters.downloads;
                out.from_store = o.counters.from_store;
                Some(fingerprint(&o.relation))
            }
            _ => {
                out.failed += 1;
                None
            }
        }
    };
    out.heads = ctx.uni.site.server.stats().heads - before.heads;
    drop(round_span);
    out.busy_ns = start.elapsed().as_nanos() as u64;
    windows.completed();

    if (r + 1).is_multiple_of(CHECK_EVERY) {
        out.failed += windows.excluding(|| check_against_live(ctx, &view_fps, turn, mat_fp))?;
    }
    Ok(out)
}

/// Compares the round's four answers with live evaluation; returns how
/// many differ.
fn check_against_live(
    ctx: &Ctx<'_, '_>,
    view_fps: &[Option<Fingerprint>],
    turn: usize,
    mat_fp: Option<Fingerprint>,
) -> Result<u64, String> {
    let fixed = ctx.fixed;
    let mut wrong = 0;
    let live = LiveSource::new(&fixed.ws, &ctx.uni.site.server);
    let eval = Evaluator::new(&fixed.ws, &live);
    for (expr, got) in ctx.view_exprs.iter().zip(view_fps) {
        let want = eval.eval(expr).map_err(|e| e.to_string())?;
        wrong += u64::from(*got != Some(fingerprint(&want.relation)));
    }
    let want = QuerySession::new(&fixed.ws, &fixed.catalog, ctx.stats, &live)
        .run(&fixed.mat_queries[turn])
        .map_err(|e| e.to_string())?;
    wrong += u64::from(mat_fp != Some(fingerprint(&want.report.relation)));
    Ok(wrong)
}

pub fn run(cfg: RunCfg) -> Result<Outcome, String> {
    run_on(medium_site(), cfg)
}

fn run_on(site: UniversityConfig, cfg: RunCfg) -> Result<Outcome, String> {
    let catalog = university_catalog();
    let parse_all = |texts: &[&str]| -> Result<Vec<ConjunctiveQuery>, String> {
        texts
            .iter()
            .map(|t| parse_query(t, &catalog).map_err(|e| format!("{t}: {e}")))
            .collect()
    };
    let fixed = Fixed {
        ws: University::generate(site.clone())
            .map_err(|e| e.to_string())?
            .site
            .scheme
            .clone(),
        site,
        view_queries: parse_all(&VIEWS)?,
        mat_queries: parse_all(&hot_navigate::QUERIES)?,
        plan: mutation_plan(cfg.seed),
        catalog,
    };
    let recorder = Recorder::default();
    let mut setups = Vec::new();
    if !cfg.trace {
        for _ in 1..SETUP_REPS {
            setups.push(with_state(&fixed, &recorder, |_, setup_s| Ok(setup_s))?);
        }
    }
    with_state(&fixed, &recorder, |ctx, setup_s| {
        setups.push(setup_s);
        let mut out = Outcome::default();
        if cfg.trace {
            traced_pass(ctx, &recorder, cfg, &mut out)?;
        } else {
            end_to_end(ctx, &recorder, cfg, median(&setups), &mut out)?;
        }
        Ok(out)
    })
}

fn end_to_end(
    ctx: &mut Ctx<'_, '_>,
    rec: &Recorder,
    cfg: RunCfg,
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let stop = cfg.budget.start();
    let windows = Windows::start(WINDOW);
    let mut rounds = Vec::new();
    while !stop.reached(rounds.len()) {
        rounds.push(round(ctx, rec, &windows)?);
    }
    let q = quiet(&windows.finish(), WINDOW);
    let sync: Vec<(usize, u64)> = rounds.iter().map(|r| r.sync_ns).enumerate().collect();
    // Over whole turns of the seven queries only: they cost 11–354 light
    // connections each, and a run may stop anywhere in a turn.
    let turns = ctx.fixed.mat_queries.len();
    let whole = if rounds.len() >= turns {
        rounds.len() / turns * turns
    } else {
        rounds.len()
    };
    let accesses: u64 = rounds[..whole]
        .iter()
        .map(|r| r.sync_accesses + r.light_connections + r.downloads)
        .sum();
    out.note(format!(
        "1 client: {} rounds; timings over the quietest {} of {} windows of {WINDOW} rounds ({} samples, {} beyond p95)",
        rounds.len(),
        q.kept.len(),
        q.windows,
        q.samples(),
        crate::stats::samples_beyond(q.samples().max(1), 0.95),
    ));
    if q.windows == 0 {
        out.note("shorter than one window: totals reported, run longer".into());
    }
    out.attempted = rounds.len() as u64 * OPS_PER_ROUND;
    out.failed = rounds.iter().map(|r| r.failed).sum();
    out.set("setup_s", setup_s);
    out.set("req_per_s", q.ops_per_s);
    out.set("latency_ms_p50", q.percentile(&sync, 0.50, 1e6));
    out.set("latency_ms_p95", q.percentile(&sync, 0.95, 1e6));
    out.set("cpu_ms_per_req", q.cpu_ms_per_op);
    out.set(
        "page_accesses_per_req",
        accesses as f64 / whole.max(1) as f64,
    );
    out.set("peak_rss_mb", super::peak_rss_mb());
    Ok(())
}

fn traced_pass(
    ctx: &mut Ctx<'_, '_>,
    rec: &Recorder,
    cfg: RunCfg,
    out: &mut Outcome,
) -> Result<(), String> {
    crate::alloc::enable();
    let stop = cfg.budget.start();
    let unwindowed = Windows::start(usize::MAX);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_alloc = AllocCount::default();
    let mut done = 0;
    'blocks: loop {
        for on in [false, true] {
            rec.set_on(on);
            let a0 = AllocCount::now();
            for _ in 0..TRACE_BLOCK {
                if stop.reached(done) {
                    rec.set_on(false);
                    break 'blocks;
                }
                let r = round(ctx, rec, &unwindowed)?;
                if on { &mut traced } else { &mut plain }.push(r);
                done += 1;
            }
            if on {
                let spent = AllocCount::now().since(&a0);
                traced_alloc.calls += spent.calls;
                traced_alloc.bytes += spent.bytes;
            }
        }
    }
    rec.set_on(false);
    let spans = rec.take();
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let n = all.len().max(1) as f64;
    let nt = traced.len().max(1) as f64;
    out.attempted = all.len() as u64 * OPS_PER_ROUND;
    out.failed = all.iter().map(|r| r.failed).sum();
    out.note(format!(
        "traced pass, 1 client: {} rounds with spans ({} spans), {} without",
        traced.len(),
        spans.len(),
        plain.len()
    ));

    // Direct reads of the maintained answers, and the planner replay over
    // the seven queries `MatSession::run` re-plans every time.
    let fixed = ctx.fixed;
    let mut answer_us = Vec::new();
    {
        let views = ctx.views.read();
        for _ in 0..20 {
            for q in &fixed.view_queries {
                let t = Instant::now();
                std::hint::black_box(views.answer(&q.cache_key()));
                answer_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    sort(&mut answer_us);
    let queries: Vec<&ConjunctiveQuery> = fixed.mat_queries.iter().collect();
    let optimized = crate::replay::optimize(&fixed.ws, &fixed.catalog, ctx.stats, &queries);
    let per_query = |f: &dyn Fn(&crate::replay::Optimized) -> f64| {
        optimized.iter().map(f).sum::<f64>() / optimized.len().max(1) as f64
    };
    let mut optimize_ms: Vec<f64> = optimized.iter().map(|o| o.ns / 1e6).collect();
    sort(&mut optimize_ms);
    let corpus = crate::replay::corpus(&ctx.uni.site);

    let totals = spans::totals_by_name(&spans);
    let request_ns = totals.get("request").map_or(0, |t| t.1).max(1) as f64;
    let self_share = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64 / request_ns);
    let sum = |f: &dyn Fn(&Round) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
    let plain_ns = |f: &dyn Fn(&Round) -> u64| plain.iter().map(f).collect::<Vec<u64>>();
    let sync_ms = sorted_in(&plain_ns(&|r| r.sync_ns), 1e6);
    let matq_ms = sorted_in(&plain_ns(&|r| r.matq_ns), 1e6);
    let view_read_us = sorted_in(
        &plain
            .iter()
            .flat_map(|r| r.view_read_ns.iter().copied())
            .collect::<Vec<_>>(),
        1e3,
    );
    let light = sum(&|r| r.light_connections);

    out.set("websim.generate_ms", ctx.times.generate_ms);
    out.set(
        "websim.gets_per_req",
        totals.get("websim.get").map_or(0.0, |t| t.0 as f64 / nt),
    );
    out.set("websim.heads_per_round", sum(&|r| r.heads) / n);
    out.set(
        "websim.get_share",
        self_share("websim.get") + self_share("websim.head"),
    );
    out.set(
        "websim.mutate_ms_per_round",
        sum(&|r| r.mutate_ns) / n / 1e6,
    );
    corpus.report(out);
    out.set("wvcore.stats_collect_ms", ctx.times.stats_ms);
    out.set("wvcore.optimize_ms_p50", percentile(&optimize_ms, 0.50));
    out.set("wvcore.optimize_ms_p99", percentile(&optimize_ms, 0.99));
    out.set("wvcore.candidates_per_query", per_query(&|o| o.candidates));
    out.set("wvcore.optimize_allocs_per_query", per_query(&|o| o.allocs));
    out.set(
        "wvcore.optimize_alloc_bytes_per_query",
        per_query(&|o| o.alloc_bytes),
    );
    // Every round re-plans one of the seven queries.
    out.set("wvcore.plan_share", per_query(&|o| o.ns) * nt / request_ns);
    report_server(&ctx.server.stats(), out);
    out.set("serve.view_read_us_p50", percentile(&view_read_us, 0.50));
    out.set("dataflow.materialize_ms", ctx.times.dataflow_materialize_ms);
    out.set("dataflow.sync_ms_p50", percentile(&sync_ms, 0.50));
    out.set("dataflow.sync_ms_p95", percentile(&sync_ms, 0.95));
    out.set(
        "dataflow.delta_fetches_per_round",
        sum(&|r| r.delta_fetches) / n,
    );
    out.set("dataflow.changes_per_round", sum(&|r| r.changes) / n);
    out.set(
        "dataflow.rows_changed_per_round",
        sum(&|r| r.rows_changed) / n,
    );
    out.set("dataflow.upqueries", sum(&|r| r.upqueries));
    out.set("dataflow.answer_us_p50", percentile(&answer_us, 0.50));
    out.set("matview.materialize_ms", ctx.times.matview_materialize_ms);
    out.set("matview.light_connections_per_q", light / n);
    out.set("matview.downloads_per_q", sum(&|r| r.downloads) / n);
    out.set("matview.from_store_per_q", sum(&|r| r.from_store) / n);
    out.set(
        "matview.download_per_check",
        sum(&|r| r.downloads) / light.max(1.0),
    );
    out.set("matview.query_ms_p50", percentile(&matq_ms, 0.50));
    out.set("matview.query_ms_p99", percentile(&matq_ms, 0.99));
    // Rounds are matched by the query whose turn they were.
    let by_turn =
        |rs: &[Round]| -> Vec<(u32, u64)> { rs.iter().map(|r| (r.turn, r.busy_ns)).collect() };
    out.set(
        "obs.bench_span_overhead_pct",
        overhead_pct(&by_turn(&plain), &by_turn(&traced)),
    );
    out.set("alloc.count_per_req", traced_alloc.calls as f64 / nt);
    out.set("alloc.bytes_per_req", traced_alloc.bytes as f64 / nt);
    out.set(
        "bench.failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.note(format!(
        "untraced rounds give {} sync, {} view-read and {} matview-query samples; median traced sync span {:.3} ms",
        sync_ms.len(),
        view_read_us.len(),
        matq_ms.len(),
        percentile(&span_durations(&spans, "dataflow.sync", 1e6), 0.50),
    ));
    out.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Budget;

    /// The paper-scale site: small enough for a debug build. Its rounds
    /// edit a page or two, sometimes none.
    fn small(trace: bool, rounds: usize) -> Outcome {
        let cfg = RunCfg {
            seed: 11,
            budget: Budget::Ops(rounds),
            trace,
        };
        run_on(UniversityConfig::default(), cfg).unwrap()
    }

    #[test]
    fn rounds_stay_correct_through_the_periodic_checks() {
        // 5 warm-up + 42 rounds cross the checks at rounds 20 and 40.
        let out = small(false, 42);
        assert_eq!((out.attempted, out.failed), (42 * OPS_PER_ROUND, 0));
        for m in &crate::metrics::END_TO_END {
            assert!(out.metrics[m.name] > 0.0, "{} must never read 0", m.name);
        }
        assert_eq!(out.metrics.len(), crate::metrics::END_TO_END.len());
    }

    #[test]
    fn the_traced_pass_sees_both_maintenance_engines() {
        let out = small(true, 28);
        assert_eq!(out.failed, 0);
        assert!(out
            .metrics
            .keys()
            .all(|k| crate::metrics::per_layer(k).is_some()));
        let m = |k: &str| out.metrics[k];
        // every view read was answered from maintained state
        assert_eq!(m("serve.view_hits"), ((28 + WARM_ROUNDS) * 3) as f64);
        assert_eq!(m("serve.view_fallbacks"), 0.0);
        // the delta path fetches what changed and nothing else
        assert_eq!(
            m("dataflow.delta_fetches_per_round"),
            m("dataflow.changes_per_round")
        );
        assert!(m("dataflow.changes_per_round") > 0.0);
        // URL checking: a light connection per page navigated, a download
        // only for the few that changed
        assert!(m("matview.light_connections_per_q") > 4.0);
        assert!(m("matview.download_per_check") < 0.5);
        assert_eq!(
            m("websim.heads_per_round"),
            m("matview.light_connections_per_q")
        );
        // every round re-plans its query (a replayed time: no upper bound)
        assert!(m("wvcore.plan_share") > 0.0);
        let names: std::collections::BTreeSet<&str> = out.spans.iter().map(|s| s.name).collect();
        for n in [
            "request",
            "websim.mutate",
            "dataflow.sync",
            "serve.view_read",
            "matview.run",
            "websim.head",
        ] {
            assert!(names.contains(n), "no {n} span in {names:?}");
        }
    }
}
