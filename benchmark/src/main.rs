//! The perf ledger.
//!
//! ```text
//! perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf-ledger --workload <name> --seed <n> --ops <n> --trace <0|1>
//! perf-ledger all [--seed <n>] [--scale <f>] [--verify-determinism]
//! perf-ledger check <a.json> <b.json>
//! perf-ledger metrics
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one run,
//! every metric printed as `name unit value`, and a JSON object on the
//! last line. `all` runs every workload in a process of its own — untraced
//! for the end-to-end metrics, then traced for the per-layer ones — and
//! writes `benchmark/out/results.json`; `check` compares two such files;
//! `metrics` prints the registry.

mod alloc;
mod api;
mod check;
mod json;
mod ledger;
mod metrics;
mod replay;
mod schedule;
mod spans;
mod stats;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Budget, RunCfg};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed of `all` when none is given: the paper's year.
const DEFAULT_SEED: u64 = 1998;

/// Where run outputs go: `benchmark/out/`, beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => ledger::all(&args[1..]),
        Some("check") => check_files(&args[1..]),
        Some("metrics") => {
            print!("{}", metrics::describe());
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => single_run(&args),
        None => Err("usage: perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | check <a.json> <b.json> | metrics".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, in any order.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
        .transpose()
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let budget = match (
        parsed::<usize>(args, "--ops")?,
        parsed::<f64>(args, "--seconds")?,
    ) {
        (Some(n), _) => Budget::Ops(n),
        (None, Some(s)) if s > 0.0 => Budget::Seconds(s),
        _ => return Err("give --seconds <s> or --ops <n>".into()),
    };
    let cfg = RunCfg {
        seed: parsed(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        budget,
        trace: match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    let out = workloads::run(workload, cfg)?;

    println!(
        "# {workload} seed={} {:?} trace={}",
        cfg.seed,
        cfg.budget,
        u8::from(cfg.trace)
    );
    for note in &out.notes {
        println!("# {note}");
    }
    // Exactly the registry's names for this kind of run: a layer metric a
    // workload has nothing to say about reads 0.
    let mut reported = Vec::new();
    if cfg.trace {
        for m in &metrics::PER_LAYER {
            let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
            reported.push((m.name, m.unit, v));
        }
    } else {
        for m in &metrics::END_TO_END {
            let v = *out
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("{workload} did not report {}", m.name))?;
            reported.push((m.name, m.unit, v));
        }
    }
    let listed = |k: &str| match cfg.trace {
        true => metrics::per_layer(k).is_some(),
        false => metrics::end_to_end(k).is_some(),
    };
    if let Some(stray) = out.metrics.keys().find(|k| !listed(k)) {
        return Err(format!(
            "{workload} reported {stray}, which this kind of run does not list"
        ));
    }
    for (name, unit, value) in &reported {
        println!("{name} {unit} {value}");
    }
    if cfg.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("spans_{workload}.jsonl"));
        spans::write_jsonl(&out.spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", out.spans.len(), path.display());
    }
    let line = Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(reported.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

fn check_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: perf-ledger check <a.json> <b.json>".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = check::compare(&load(a)?, &load(b)?)?;
    print!("{}", check::render(&rows));
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    println!(
        "{} rows, {} failing (a = {a}, b = {b})",
        rows.len(),
        failing
    );
    Ok(if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
