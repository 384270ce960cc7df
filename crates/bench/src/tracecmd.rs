//! `harness trace <file.jsonl>` — render exported request traces.
//!
//! Reads the JSON-lines trace exports the observed X5 run writes
//! (`TRACE_X5.jsonl`, or a flight-recorder dump `FLIGHT_X5.jsonl`) and
//! answers the two questions an operator actually asks of a slow
//! request: **where did the time go** (the per-phase latency breakdown:
//! queue / plan / fetch / eval / view) and **what did it do** (the
//! causal critical path from the `serve.request` root down through the
//! heaviest operator chain, weighted by page downloads).
//!
//! The parser is hand-rolled for exactly the subset
//! [`obs::RequestTrace::to_json`] emits — the harness has no JSON
//! dependency and does not need one. Lines that are not
//! request objects (flight-dump headers) are skipped, so both export
//! shapes feed the same command.

use crate::table::Table;

/// One parsed event of a request's causal stream.
#[derive(Debug, Clone)]
pub struct TraceNode {
    pub id: u64,
    pub parent: Option<u64>,
    pub kind: String,
    pub name: String,
    /// The `downloads` field when present (operator spans carry it).
    pub downloads: u64,
    /// The `rows_out` field when present.
    pub rows_out: Option<u64>,
}

/// One parsed request line of a trace export.
#[derive(Debug, Clone)]
pub struct TracedRequest {
    pub request_id: u64,
    pub query: String,
    pub latency_us: u64,
    pub shed: bool,
    /// `[queue, plan, fetch, eval, view]` in microseconds.
    pub phases: [u64; 5],
    pub events: Vec<TraceNode>,
}

/// Phase names, in `phases` order.
pub const PHASES: [&str; 5] = ["queue", "plan", "fetch", "eval", "view"];

fn find_key(line: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)?;
    let mut i = at + needle.len();
    let b = line.as_bytes();
    while matches!(b.get(i), Some(b' ')) {
        i += 1;
    }
    Some(i)
}

fn num_at(line: &str, i: usize) -> Option<u64> {
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    num_at(line, find_key(line, key)?)
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    let i = find_key(line, key)?;
    Some(line[i..].starts_with("true"))
}

/// Unescapes the JSON string starting at `i` (the opening quote).
fn str_at(line: &str, i: usize) -> Option<String> {
    let b = line.as_bytes();
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let mut out = String::new();
    let mut chars = line[i + 1..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                e => out.push(e),
            },
            c => out.push(c),
        }
    }
    None
}

fn field_str(line: &str, key: &str) -> Option<String> {
    str_at(line, find_key(line, key)?)
}

/// Splits the top-level `{...}` objects of a JSON array body, tracking
/// string literals so braces inside names do not confuse the count.
fn split_objects(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut esc) = (0usize, 0usize, false, false);
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if esc => esc = false,
                '\\' => esc = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(&body[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

/// The `"events": [...]` array body of a request line (up to its
/// matching close bracket).
fn events_body(line: &str) -> Option<&str> {
    let i = find_key(line, "events")?;
    let b = line.as_bytes();
    if b.get(i) != Some(&b'[') {
        return None;
    }
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for (j, c) in line[i..].char_indices() {
        if in_str {
            match c {
                _ if esc => esc = false,
                '\\' => esc = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[i + 1..i + j]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses one request line; `None` when the line is not a request
/// object (flight-dump headers, blank lines).
pub fn parse_request(line: &str) -> Option<TracedRequest> {
    if line.contains("\"flight_dump\":") || !line.contains("\"events\":") {
        return None;
    }
    let request_id = field_u64(line, "request_id")?;
    let phases_at = find_key(line, "phases")?;
    let phase_obj = &line[phases_at..];
    let events = split_objects(events_body(line)?)
        .into_iter()
        .filter_map(|o| {
            Some(TraceNode {
                id: field_u64(o, "id")?,
                parent: field_u64(o, "parent"),
                kind: field_str(o, "kind")?,
                name: field_str(o, "name")?,
                downloads: field_u64(o, "downloads").unwrap_or(0),
                rows_out: field_u64(o, "rows_out"),
            })
        })
        .collect();
    Some(TracedRequest {
        request_id,
        query: field_str(line, "query")?,
        latency_us: field_u64(line, "latency_us")?,
        shed: field_bool(line, "shed").unwrap_or(false),
        phases: [
            field_u64(phase_obj, "queue_us").unwrap_or(0),
            field_u64(phase_obj, "plan_us").unwrap_or(0),
            field_u64(phase_obj, "fetch_us").unwrap_or(0),
            field_u64(phase_obj, "eval_us").unwrap_or(0),
            field_u64(phase_obj, "view_us").unwrap_or(0),
        ],
        events,
    })
}

/// Parses every request line of a JSONL export, skipping non-request
/// lines. Duplicate request ids (a flight dump snapshots overlapping
/// rings) keep the first occurrence.
pub fn parse_export(text: &str) -> Vec<TracedRequest> {
    let mut seen = std::collections::HashSet::new();
    text.lines()
        .filter_map(parse_request)
        .filter(|r| seen.insert(r.request_id))
        .collect()
}

/// The causal critical path of one request: from the root event down,
/// always descending into the child whose subtree downloaded the most
/// pages (ties and download-free subtrees fall back to subtree size).
pub fn critical_path(req: &TracedRequest) -> Vec<TraceNode> {
    let root = req
        .events
        .iter()
        .find(|e| e.name == "serve.request")
        .or_else(|| req.events.iter().find(|e| e.parent.is_none()));
    let Some(root) = root else {
        return Vec::new();
    };
    // subtree weight = (downloads, node count), computed bottom-up
    let mut weight: std::collections::HashMap<u64, (u64, u64)> = req
        .events
        .iter()
        .map(|e| (e.id, (e.downloads, 1)))
        .collect();
    // events are recorded post-order (children finish first), so one
    // forward pass would miss late parents; iterate to a fixed point
    // the simple way: fold children into parents repeatedly.
    let mut folded: Vec<(u64, u64)> = req
        .events
        .iter()
        .filter_map(|e| e.parent.map(|p| (e.id, p)))
        .collect();
    // Process leaves upward: repeatedly fold nodes whose subtree is
    // complete (no remaining child edges pointing at them).
    while !folded.is_empty() {
        let pending: std::collections::HashSet<u64> = folded.iter().map(|(_, p)| *p).collect();
        let (ready, rest): (Vec<_>, Vec<_>) =
            folded.into_iter().partition(|(c, _)| !pending.contains(c));
        if ready.is_empty() {
            break; // malformed (cycle); render what we have
        }
        for (c, p) in ready {
            let (d, n) = *weight.get(&c).unwrap_or(&(0, 1));
            let e = weight.entry(p).or_insert((0, 1));
            e.0 += d;
            e.1 += n;
        }
        folded = rest;
    }
    let mut path = vec![root.clone()];
    let mut cur = root.id;
    loop {
        let next = req
            .events
            .iter()
            .filter(|e| e.parent == Some(cur))
            .max_by_key(|e| *weight.get(&e.id).unwrap_or(&(0, 0)));
        match next {
            Some(e) => {
                path.push(e.clone());
                cur = e.id;
            }
            None => return path,
        }
    }
}

fn fmt_ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1e3)
}

/// Renders the report: the aggregate per-phase breakdown over every
/// request in the export, then the slowest request's phase row and its
/// critical path.
pub fn render(reqs: &[TracedRequest]) -> String {
    if reqs.is_empty() {
        return "no request traces in input\n".to_string();
    }
    let slowest = reqs.iter().max_by_key(|r| r.latency_us).expect("non-empty");
    let mut t = Table::new(
        "per-phase latency breakdown (ms)",
        vec!["scope", "queue", "plan", "fetch", "eval", "view", "total"],
    );
    let mut totals = [0u64; 5];
    for r in reqs {
        for (acc, v) in totals.iter_mut().zip(r.phases) {
            *acc += v;
        }
    }
    let row = |label: String, phases: &[u64; 5]| {
        let mut cells = vec![label];
        cells.extend(phases.iter().map(|&v| fmt_ms(v)));
        cells.push(fmt_ms(phases.iter().sum()));
        cells
    };
    t.row(row(format!("all ({} requests)", reqs.len()), &totals));
    let means: [u64; 5] = totals.map(|v| v / reqs.len() as u64);
    t.row(row("mean".to_string(), &means));
    t.row(row(
        format!("slowest (request {:#018x})", slowest.request_id),
        &slowest.phases,
    ));

    let mut out = format!("{t}\n");
    out.push_str(&format!(
        "critical path of the slowest request ({:#018x}, query \"{}\", {} ms{}):\n",
        slowest.request_id,
        slowest.query,
        fmt_ms(slowest.latency_us),
        if slowest.shed { ", SHED" } else { "" },
    ));
    let path = critical_path(slowest);
    if path.is_empty() {
        out.push_str("  (no causal events — was the export written with tracing on?)\n");
    }
    for (depth, node) in path.iter().enumerate() {
        let mut line = format!("  {}{} [{}]", "  ".repeat(depth), node.name, node.kind);
        if node.downloads > 0 {
            line.push_str(&format!(" downloads={}", node.downloads));
        }
        if let Some(rows) = node.rows_out {
            line.push_str(&format!(" rows_out={rows}"));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The `trace` subcommand: reads a JSONL export, prints the report.
pub fn run(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("usage: harness trace <TRACE_X5.jsonl | FLIGHT_X5.jsonl>".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let reqs = parse_export(&text);
    if reqs.is_empty() {
        return Err(format!("{path}: no request traces found"));
    }
    Ok(render(&reqs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{EventKind, PhaseBreakdown, RequestTrace, TraceSink};

    fn sample(latency_us: u64, rid: u64) -> String {
        let sink = TraceSink::with_seed(rid);
        let mut root = sink.begin(EventKind::Serve, "serve.request", None);
        root.set("query", "q \"x\"");
        let rootid = root.id();
        sink.event(
            EventKind::Serve,
            "serve.plan_cache",
            Some(rootid),
            vec![("hit".to_string(), 1u64.into())],
        );
        let mut heavy = sink.begin(EventKind::Operator, "follow ToDept", Some(rootid));
        heavy.set("downloads", 7u64);
        heavy.set("rows_out", 3u64);
        let mut light = sink.begin(EventKind::Operator, "project", Some(rootid));
        light.set("downloads", 1u64);
        sink.finish(light);
        sink.finish(heavy);
        sink.finish(root);
        RequestTrace {
            request_id: rid,
            query: "depts".to_string(),
            latency_us,
            shed: false,
            cached_plan: true,
            from_view: false,
            fell_back: false,
            phases: PhaseBreakdown {
                queue_us: 100,
                plan_us: 200,
                fetch_us: 3000,
                eval_us: 400,
                view_us: 0,
            },
            events: sink.events(),
            fetch_events: vec![],
        }
        .to_json()
    }

    #[test]
    fn parses_real_request_trace_json() {
        let text = format!("{}\n{}\n", sample(5000, 11), sample(9000, 22));
        let reqs = parse_export(&text);
        assert_eq!(reqs.len(), 2);
        let r = &reqs[1];
        assert_eq!((r.request_id, r.latency_us), (22, 9000));
        assert_eq!(r.phases, [100, 200, 3000, 400, 0]);
        assert!(r.events.iter().any(|e| e.name == "serve.request"));
        let heavy = r.events.iter().find(|e| e.name == "follow ToDept").unwrap();
        assert_eq!((heavy.downloads, heavy.rows_out), (7, Some(3)));
    }

    #[test]
    fn skips_flight_dump_headers_and_dedups() {
        let text = format!(
            "{{\"flight_dump\": 0, \"trigger\": \"shed\", \"request_id\": 9, \"requests\": 1}}\n{}\n{}\n",
            sample(1000, 5),
            sample(1000, 5), // same request in an overlapping dump
        );
        assert_eq!(parse_export(&text).len(), 1);
    }

    #[test]
    fn critical_path_follows_the_download_heavy_chain() {
        let reqs = parse_export(&sample(2500, 3));
        let path = critical_path(&reqs[0]);
        let names: Vec<&str> = path.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["serve.request", "follow ToDept"]);
    }

    #[test]
    fn render_names_the_slowest_request_and_its_phases() {
        let text = format!("{}\n{}\n", sample(5000, 11), sample(9000, 22));
        let out = render(&parse_export(&text));
        assert!(
            out.contains("critical path of the slowest request"),
            "{out}"
        );
        assert!(out.contains(&format!("{:#018x}", 22u64)), "{out}");
        assert!(out.contains("follow ToDept"), "{out}");
        assert!(out.contains("per-phase latency breakdown"), "{out}");
        // slowest row shows 3.00 ms of fetch
        assert!(out.contains("3.00"), "{out}");
    }

    #[test]
    fn run_rejects_bad_usage_and_empty_files() {
        assert!(run(&[]).is_err());
        let dir = std::env::temp_dir().join("wv_tracecmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("empty.jsonl");
        std::fs::write(&p, "not json\n").unwrap();
        let err = run(&[p.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.contains("no request traces"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
