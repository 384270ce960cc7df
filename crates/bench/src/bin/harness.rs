//! The experiment harness: regenerates every quantitative claim and figure
//! of the paper.
//!
//! ```sh
//! cargo run --release -p bench --bin harness            # all experiments, quick scales
//! cargo run --release -p bench --bin harness -- full    # includes the 16,000-author sweep
//! cargo run --release -p bench --bin harness -- e3      # a single experiment
//! cargo run --release -p bench --bin harness -- e3 --json  # + BENCH_E3.json
//! cargo run --release -p bench --bin harness -- --explain-analyze
//! cargo run --release -p bench --bin harness -- --explain-analyze --check 4.0
//! cargo run --release -p bench --bin harness -- x4 --json --drift-check
//! cargo run --release -p bench --bin harness -- x5 --json --serve-check
//! cargo run --release -p bench --bin harness -- x5 --json --obs-check
//! cargo run --release -p bench --bin harness -- x6 --json --dataflow-check
//! cargo run --release -p bench --bin harness -- x8 --json --deadline-check
//! cargo run --release -p bench --bin harness -- benchcmp old.json new.json
//! cargo run --release -p bench --bin harness -- benchcmp --deterministic old.json new.json
//! cargo run --release -p bench --bin harness -- trace TRACE_X5.jsonl
//! ```
//!
//! Every table here is a count — page accesses, GETs, rows, light
//! connections — or the wall-clock shape of a serving run; wall-clock
//! throughput claims live in the perf ledger (`benchmark/`).
//!
//! With `--json`, every table experiment also writes a machine-readable
//! `BENCH_<ID>.json` (see [`bench::json`]) into the current directory;
//! X2/X3 embed their cache/resilience counters, and `--explain-analyze`
//! embeds the full per-query EXPLAIN ANALYZE join plus trace.
//! `--explain-analyze --check <tol>` exits non-zero when the worst
//! per-operator predicted/observed page ratio exceeds `<tol>` — the CI
//! drift gate. `--serve-check` runs X5 at smoke scale and exits non-zero
//! unless the plan cache hit and every served answer matched the
//! sequential-uncached oracle. `--dataflow-check` runs X6 at smoke scale
//! and exits non-zero unless the delta path fetched strictly fewer pages
//! than full refresh at equal answers, with the byte budget held and
//! upqueries backfilling exactly. `--obs-check` runs X5 at smoke scale
//! under latency-only chaos with a 500µs SLO, and exits non-zero unless
//! the run stayed divergence-free AND produced at least one schema-valid
//! flight-recorder dump. With `--json`, X5 also writes the observed
//! run's causal exports as `TRACE_X5.jsonl` / `FLIGHT_X5.jsonl`.
//! `--deadline-check` runs X8 at smoke scale under heavy-tailed chaos
//! and exits non-zero unless every complete answer matched the oracle,
//! every brown-out was an honest exact partial, hedges fired, the
//! deadline+hedge p99.9 at least halved the baseline's, and relevance
//! cancellation pruned exactly the provably-dead URLs.
//! `benchcmp <a> <b>` diffs two `BENCH_<ID>.json` files cell by cell;
//! `trace <export.jsonl>` renders the per-phase latency breakdown and
//! the slowest request's causal critical path.

use bench::table::Table;
use bench::*;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("benchcmp") {
        match bench::benchcmp::run(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("benchcmp: {e}");
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("trace") {
        match bench::tracecmd::run(&args[1..]) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("trace: {e}");
                std::process::exit(2);
            }
        }
    }
    let full = args.iter().any(|a| a == "full");
    let markdown = args.iter().any(|a| a == "--markdown" || a == "md");
    let json = args.iter().any(|a| a == "--json" || a == "json");
    let explain_analyze = args.iter().any(|a| a == "--explain-analyze" || a == "xa");
    let check: Option<f64> = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let check_value: Vec<String> = check.map(|t| t.to_string()).into_iter().collect();
    let drift_check = args.iter().any(|a| a == "--drift-check");
    let serve_check = args.iter().any(|a| a == "--serve-check");
    let dataflow_check = args.iter().any(|a| a == "--dataflow-check");
    let obs_check = args.iter().any(|a| a == "--obs-check");
    let deadline_check = args.iter().any(|a| a == "--deadline-check");
    let passthrough = |a: &String| {
        a == "full"
            || a == "--markdown"
            || a == "md"
            || a == "--json"
            || a == "json"
            || a == "--explain-analyze"
            || a == "xa"
            || a == "--check"
            || a == "--drift-check"
            || a == "--serve-check"
            || a == "--dataflow-check"
            || a == "--obs-check"
            || a == "--deadline-check"
            || check_value.contains(a)
    };
    let want = |id: &str| {
        (!explain_analyze && args.iter().filter(|a| !passthrough(a)).count() == 0)
            || args.iter().any(|a| a.eq_ignore_ascii_case(id))
    };
    // Runs one table experiment: prints the table and, with `--json`,
    // writes BENCH_<ID>.json carrying the same rows plus wall-clock and
    // any extra raw-JSON fields (cache/resilience counters, traces).
    let emit_extras = |id: &str,
                       params: Vec<(&str, String)>,
                       run: &dyn Fn() -> (Table, Vec<(String, String)>)| {
        let t0 = Instant::now();
        let (t, extras) = run();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if markdown {
            println!("{}", t.render_markdown());
        } else {
            println!("{t}");
        }
        if json {
            match bench::json::write_experiment_json_with_extras(
                std::path::Path::new("."),
                id,
                &params,
                wall_ms,
                &t,
                &extras,
            ) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("BENCH_{}.json: {e}", id.to_uppercase()),
            }
        }
    };
    let emit = |id: &str, params: Vec<(&str, String)>, run: &dyn Fn() -> Table| {
        emit_extras(id, params, &|| (run(), Vec::new()));
    };

    println!("Efficient Queries over Web Views — experiment harness");
    println!("(paper: Mecca, Mendelzon, Merialdo, EDBT 1998)\n");

    if want("f1") {
        println!("{}", f1_schemes());
    }
    if want("e1") {
        let scales: &[usize] = if full {
            &[100, 400, 1600, 16000]
        } else {
            &[100, 400, 1600]
        };
        emit("e1", vec![("authors", format!("{scales:?}"))], &|| {
            e1_intro_strategies(scales)
        });
    }
    if want("e2") {
        let courses = [20, 50, 100, 200];
        emit("e2", vec![("courses", format!("{courses:?}"))], &|| {
            e2_pointer_join(&courses)
        });
    }
    if want("e3") {
        let departments = [1, 2, 3, 4, 6];
        emit(
            "e3",
            vec![("departments", format!("{departments:?}"))],
            &|| e3_pointer_chase(&departments),
        );
    }
    if want("e4") {
        emit("e4", vec![], &e4_cost_model);
    }
    if want("e5") {
        let pcts = [0, 1, 5, 10, 25, 50];
        emit("e5", vec![("updated_pct", format!("{pcts:?}"))], &|| {
            e5_materialized_views(&pcts)
        });
        emit_extras("e5b", vec![], &e5_structural_with_extras);
    }
    if want("e6") {
        emit("e6", vec![], &e6_optimizer_wins);
    }
    if want("e7") {
        println!("{}", e7_figures());
    }
    if want("e8") {
        emit("e8", vec![], &e8_ablation);
    }
    if want("x2") {
        emit_extras("x2", vec![], &x2_shared_cache_detailed);
    }
    if want("x3") {
        let rates = [0u8, 20, 40, 60];
        emit_extras(
            "x3",
            vec![("transient_rate_pct", format!("{rates:?}"))],
            &|| x3_chaos_detailed(&rates),
        );
    }
    if want("x4") || drift_check {
        let drift_seed = 3u64;
        let t0 = Instant::now();
        let smoke = x4_drift(drift_seed);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if markdown {
            println!("{}", smoke.accuracy.render_markdown());
            println!("{}", smoke.pages.render_markdown());
        } else {
            println!("{}", smoke.accuracy);
            println!("{}", smoke.pages);
        }
        if json {
            match bench::json::write_experiment_json_with_extras(
                std::path::Path::new("."),
                "x4",
                &[("drift_seed", drift_seed.to_string())],
                wall_ms,
                &smoke.accuracy,
                &smoke.extras,
            ) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("BENCH_X4.json: {e}"),
            }
        }
        if drift_check {
            if !smoke.quarantine_fired {
                eprintln!("drift check FAILED: no constraint was quarantined");
                std::process::exit(1);
            }
            if !smoke.fallbacks_match_naive {
                eprintln!(
                    "drift check FAILED: a fallback diverged from the default-navigation answer"
                );
                std::process::exit(1);
            }
            eprintln!("drift check ok: quarantine fired and every fallback matched the default navigation");
        }
    }
    if want("x5") || serve_check || obs_check {
        let cfg = if obs_check && !full {
            // Observability smoke: smoke scale plus latency-only chaos
            // and an unmeetable SLO, so the run is guaranteed to breach
            // its objective and take at least one flight dump.
            bench::ServeLoadConfig {
                requests: 48,
                workers: 4,
                latency: std::time::Duration::from_millis(1),
                open_loop_interval: std::time::Duration::from_millis(2),
                slo: std::time::Duration::from_micros(500),
                chaos_slow_rate: 0.3,
                chaos_slow_delay: std::time::Duration::from_millis(10),
                ..bench::ServeLoadConfig::default()
            }
        } else if serve_check && !full {
            // CI smoke scale: small stream, short simulated latency.
            bench::ServeLoadConfig {
                requests: 48,
                workers: 4,
                latency: std::time::Duration::from_millis(1),
                open_loop_interval: std::time::Duration::from_millis(2),
                ..bench::ServeLoadConfig::default()
            }
        } else {
            bench::ServeLoadConfig::default()
        };
        let t0 = Instant::now();
        let smoke = x5_serving(&cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if markdown {
            println!("{}", smoke.table.render_markdown());
        } else {
            println!("{}", smoke.table);
        }
        if json {
            match bench::json::write_experiment_json_with_extras(
                std::path::Path::new("."),
                "x5",
                &[
                    ("seed", cfg.seed.to_string()),
                    ("requests", cfg.requests.to_string()),
                    ("workers", cfg.workers.to_string()),
                    ("zipf_s", cfg.zipf_s.to_string()),
                    ("latency_ms", cfg.latency.as_millis().to_string()),
                ],
                wall_ms,
                &smoke.table,
                &smoke.extras,
            ) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("BENCH_X5.json: {e}"),
            }
            // The observed run's causal exports ride along as JSONL:
            // one request per line (TRACE), plus every flight dump
            // (FLIGHT) when something triggered.
            match std::fs::write("TRACE_X5.jsonl", &smoke.trace_jsonl) {
                Ok(()) => eprintln!("wrote TRACE_X5.jsonl"),
                Err(e) => eprintln!("TRACE_X5.jsonl: {e}"),
            }
            if !smoke.flight_jsonl.is_empty() {
                match std::fs::write("FLIGHT_X5.jsonl", &smoke.flight_jsonl) {
                    Ok(()) => eprintln!("wrote FLIGHT_X5.jsonl"),
                    Err(e) => eprintln!("FLIGHT_X5.jsonl: {e}"),
                }
            }
        }
        if obs_check {
            if smoke.rows_diverged > 0 {
                eprintln!(
                    "obs check FAILED: {} served answer(s) diverged under chaos — tracing or faults changed bytes",
                    smoke.rows_diverged
                );
                std::process::exit(1);
            }
            if smoke.flight_dumps == 0 || smoke.flight_jsonl.is_empty() {
                eprintln!("obs check FAILED: no flight-recorder dump was taken");
                std::process::exit(1);
            }
            let dumped = bench::tracecmd::parse_export(&smoke.flight_jsonl);
            if dumped.is_empty() {
                eprintln!(
                    "obs check FAILED: flight dump did not schema-validate as request traces"
                );
                std::process::exit(1);
            }
            println!("{}", bench::tracecmd::render(&dumped));
            eprintln!(
                "obs check ok: zero divergence under chaos, {} flight dump(s), {} traced request(s) schema-validated, slo_burning={}",
                smoke.flight_dumps,
                dumped.len(),
                smoke.slo_burning
            );
        }
        if serve_check {
            if smoke.hit_rate <= 0.0 {
                eprintln!("serve check FAILED: plan-cache hit rate is zero");
                std::process::exit(1);
            }
            if smoke.rows_diverged > 0 {
                eprintln!(
                    "serve check FAILED: {} served answer(s) diverged from the sequential-uncached oracle",
                    smoke.rows_diverged
                );
                std::process::exit(1);
            }
            eprintln!(
                "serve check ok: plan-cache hit rate {:.0}%, zero divergence, {:.1}% GETs saved by coalescing",
                smoke.hit_rate * 100.0,
                smoke.gets_saved_pct
            );
        }
    }
    if want("x6") || dataflow_check {
        let cfg = if dataflow_check && !full {
            // CI smoke scale: a small site, fewer rounds, tight budget.
            bench::DataflowConfig {
                rounds: 3,
                departments: 3,
                professors: 6,
                courses: 8,
                budget: 2048,
                ..bench::DataflowConfig::default()
            }
        } else {
            bench::DataflowConfig::default()
        };
        let t0 = Instant::now();
        let smoke = x6_dataflow(&cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if markdown {
            println!("{}", smoke.table.render_markdown());
        } else {
            println!("{}", smoke.table);
        }
        if json {
            match bench::json::write_experiment_json_with_extras(
                std::path::Path::new("."),
                "x6",
                &[
                    ("site_seed", cfg.site_seed.to_string()),
                    ("plan_seed", cfg.plan_seed.to_string()),
                    ("rounds", cfg.rounds.to_string()),
                    ("budget_bytes", cfg.budget.to_string()),
                    (
                        "scale",
                        format!("{}d/{}p/{}c", cfg.departments, cfg.professors, cfg.courses),
                    ),
                ],
                wall_ms,
                &smoke.table,
                &smoke.extras,
            ) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("BENCH_X6.json: {e}"),
            }
        }
        if dataflow_check {
            if smoke.delta_accesses >= smoke.refresh_accesses {
                eprintln!(
                    "dataflow check FAILED: delta fetched {} pages, full refresh {} — no win",
                    smoke.delta_accesses, smoke.refresh_accesses
                );
                std::process::exit(1);
            }
            if !smoke.answers_match {
                eprintln!("dataflow check FAILED: a maintained view diverged from live evaluation");
                std::process::exit(1);
            }
            if !smoke.store_equivalent {
                eprintln!("dataflow check FAILED: the delta store diverged from full refresh");
                std::process::exit(1);
            }
            if !smoke.budget_held {
                eprintln!("dataflow check FAILED: the budgeted store exceeded its byte budget");
                std::process::exit(1);
            }
            if !smoke.backfill_identical || smoke.upqueries == 0 {
                eprintln!("dataflow check FAILED: upqueries did not restore evicted pages exactly");
                std::process::exit(1);
            }
            eprintln!(
                "dataflow check ok: delta {} vs refresh {} page fetches ({}% saved), answers and store equivalent, budget held through {} upqueries",
                smoke.delta_accesses,
                smoke.refresh_accesses,
                100 * (smoke.refresh_accesses - smoke.delta_accesses) / smoke.refresh_accesses.max(1),
                smoke.upqueries
            );
        }
    }
    if want("x8") || deadline_check {
        let cfg = if deadline_check && !full {
            // CI smoke scale: fewer requests, the full chaos profile.
            bench::DeadlineLoadConfig {
                requests: 48,
                workers: 4,
                ..bench::DeadlineLoadConfig::default()
            }
        } else {
            bench::DeadlineLoadConfig::default()
        };
        let t0 = Instant::now();
        let smoke = x8_deadline(&cfg);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if markdown {
            println!("{}", smoke.table.render_markdown());
        } else {
            println!("{}", smoke.table);
        }
        if json {
            match bench::json::write_experiment_json_with_extras(
                std::path::Path::new("."),
                "x8",
                &[
                    ("seed", cfg.seed.to_string()),
                    ("requests", cfg.requests.to_string()),
                    ("workers", cfg.workers.to_string()),
                    ("fetch_workers", cfg.fetch_workers.to_string()),
                    ("budget_ms", cfg.budget.as_millis().to_string()),
                    ("tail_ms", cfg.tail.as_millis().to_string()),
                    ("tail_rate", cfg.tail_rate.to_string()),
                ],
                wall_ms,
                &smoke.table,
                &smoke.extras,
            ) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("BENCH_X8.json: {e}"),
            }
        }
        if deadline_check {
            if smoke.rows_diverged > 0 {
                eprintln!(
                    "deadline check FAILED: {} complete answer(s) diverged from the oracle — deadline/hedging changed bytes",
                    smoke.rows_diverged
                );
                std::process::exit(1);
            }
            if smoke.bad_brownouts > 0 {
                eprintln!(
                    "deadline check FAILED: {} brown-out(s) were not honest partials (deadline flag, exact unreachable set, rows ⊆ oracle)",
                    smoke.bad_brownouts
                );
                std::process::exit(1);
            }
            if smoke.brown_outs == 0 {
                eprintln!(
                    "deadline check FAILED: the deadline arm never browned out — the chaos did not bite"
                );
                std::process::exit(1);
            }
            if smoke.hedges == 0 {
                eprintln!("deadline check FAILED: no hedge was ever launched");
                std::process::exit(1);
            }
            if smoke.p999_guarded_ms * 2.0 > smoke.p999_baseline_ms {
                eprintln!(
                    "deadline check FAILED: deadline+hedge p99.9 {:.1}ms is not >=2x under baseline {:.1}ms",
                    smoke.p999_guarded_ms, smoke.p999_baseline_ms
                );
                std::process::exit(1);
            }
            if !smoke.relevance_rows_match
                || smoke.relevance_cancelled != 2
                || smoke.relevance_pruned_accesses >= smoke.relevance_plain_accesses
            {
                eprintln!(
                    "deadline check FAILED: relevance micro-check broke (rows_match={}, cancelled={}, accesses {} vs {})",
                    smoke.relevance_rows_match,
                    smoke.relevance_cancelled,
                    smoke.relevance_pruned_accesses,
                    smoke.relevance_plain_accesses
                );
                std::process::exit(1);
            }
            eprintln!(
                "deadline check ok: p99.9 {:.1}ms -> {:.1}ms ({:.1}x), {} brown-out(s) all honest, {} hedge(s) ({} won), relevance pruned {} -> {} accesses",
                smoke.p999_baseline_ms,
                smoke.p999_guarded_ms,
                smoke.p999_baseline_ms / smoke.p999_guarded_ms.max(1e-9),
                smoke.brown_outs,
                smoke.hedges,
                smoke.hedge_wins,
                smoke.relevance_plain_accesses,
                smoke.relevance_pruned_accesses
            );
        }
    }
    if explain_analyze || want("xa") {
        let t0 = Instant::now();
        let smoke = xa_explain_analyze();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (label, render) in &smoke.renders {
            println!("EXPLAIN ANALYZE: {label}");
            println!("{render}");
        }
        if markdown {
            println!("{}", smoke.table.render_markdown());
        } else {
            println!("{}", smoke.table);
        }
        if json {
            match bench::json::write_experiment_json_with_extras(
                std::path::Path::new("."),
                "xa",
                &[],
                wall_ms,
                &smoke.table,
                &smoke.extras,
            ) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("BENCH_XA.json: {e}"),
            }
        }
        if let Some(tolerance) = check {
            if smoke.worst_ratio > tolerance {
                eprintln!(
                    "explain-analyze drift check FAILED: worst per-operator page ratio {:.3} > tolerance {tolerance}",
                    smoke.worst_ratio
                );
                std::process::exit(1);
            }
            eprintln!(
                "explain-analyze drift check ok: worst per-operator page ratio {:.3} <= {tolerance}",
                smoke.worst_ratio
            );
        }
    }
    if args.iter().any(|a| a.eq_ignore_ascii_case("dot")) {
        println!("{}", dot_figures());
    }
}
