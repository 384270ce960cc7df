//! The experiment harness: regenerates every quantitative claim and figure
//! of the paper.
//!
//! ```sh
//! cargo run --release -p bench --bin harness            # every experiment
//! cargo run --release -p bench --bin harness -- full    # E1 adds the 16,000-author row
//! cargo run --release -p bench --bin harness -- e3      # a single experiment
//! cargo run --release -p bench --bin harness -- e3 md   # as EXPERIMENTS.md quotes it
//! cargo run --release -p bench --bin harness -- dot     # Graphviz sources
//! cargo run --release -p bench --bin harness -- trace TRACE_X5.jsonl
//! ```
//!
//! An id names an experiment of [`bench::EXPERIMENTS`] (`e5` also selects
//! `e5b`, `x4` selects `x4a` and `x4b`) or one of the two serving runs,
//! `x5` and `x8`. Every table of [`bench::EXPERIMENTS`] is a count, and
//! `crates/bench/tests/golden.rs` pins it; X5 and X8 add the wall-clock
//! shape of a serving run. Wall-clock throughput claims live in the perf
//! ledger (`benchmark/`).
//!
//! `x5` writes its observed run's causal exports, `TRACE_X5.jsonl` and
//! (when a flight dump triggered) `FLIGHT_X5.jsonl`, into the current
//! directory; `trace <export.jsonl>` renders the per-phase latency
//! breakdown and the slowest request's causal critical path.

use bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    let is_id = |a: &str| {
        a == "x5" || a == "x8" || EXPERIMENTS.iter().any(|(id, _)| a == *id || a == &id[..2])
    };
    if let Some(bad) = args
        .iter()
        .find(|a| !is_id(a) && !["full", "md", "dot"].contains(&a.as_str()))
    {
        eprintln!(
            "harness: unknown argument `{bad}` (experiment ids, full, md, dot, trace <file>)"
        );
        std::process::exit(2);
    }
    let full = args.iter().any(|a| a == "full");
    let markdown = args.iter().any(|a| a == "md");
    let all = !args.iter().any(|a| is_id(a) || a == "dot");
    let want = |id: &str| all || args.iter().any(|a| a == id || a == &id[..2]);

    println!("Efficient Queries over Web Views — experiment harness");
    println!("(paper: Mecca, Mendelzon, Merialdo, EDBT 1998)\n");

    for (id, render) in EXPERIMENTS {
        if !want(id) {
            continue;
        }
        let out = if full && *id == "e1" {
            Output::table(e1_intro_strategies(&[100, 400, 1600, 16000]))
        } else {
            render()
        };
        print!("{}", out.render(markdown));
    }
    if want("x5") {
        let smoke = x5_serving(&ServeLoadConfig::default());
        print!("{}", Output::table(smoke.table).render(markdown));
        write("TRACE_X5.jsonl", &smoke.trace_jsonl);
        if !smoke.flight_jsonl.is_empty() {
            write("FLIGHT_X5.jsonl", &smoke.flight_jsonl);
        }
    }
    if want("x8") {
        let smoke = x8_deadline(&DeadlineLoadConfig::default());
        print!("{}", Output::table(smoke.table).render(markdown));
    }
    if args.iter().any(|a| a == "dot") {
        println!("{}", dot_figures());
    }
}

fn write(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("{path}: {e}"),
    }
}
