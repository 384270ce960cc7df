//! Machine-readable experiment output.
//!
//! Every harness experiment can be dumped as a `BENCH_<ID>.json` file next
//! to the stdout table, so regression tooling can diff page counts, bytes
//! and wall-clock across runs without scraping the padded text. The format
//! is deliberately flat:
//!
//! ```json
//! {
//!   "experiment": "e2",
//!   "title": "E2 — Example 7.1: ...",
//!   "parameters": { "courses": "[20, 50, 100, 200]" },
//!   "wall_clock_ms": 412.7,
//!   "headers": ["courses", "plan 1d (join)", ...],
//!   "rows": [["20", "25.0 / 25", ...], ...]
//! }
//! ```
//!
//! JSON is hand-rolled (strings, arrays, one object level) — the harness
//! has no serializer dependency and does not need one.

use crate::table::Table;
use std::path::{Path, PathBuf};

/// Version of the `BENCH_<ID>.json` layout. Bump it whenever a change
/// makes old and new files non-comparable (fields added/removed,
/// percentile backing changed); `benchcmp` refuses to diff across
/// versions. Files written before the field existed are version 1.
pub const SCHEMA_VERSION: u64 = 2;

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|c| format!("\"{}\"", escape(c))).collect();
    format!("[{}]", cells.join(", "))
}

/// Serializes one experiment run (id, free-form parameters, wall-clock,
/// and the result table) as a JSON object.
pub fn experiment_json(
    id: &str,
    params: &[(&str, String)],
    wall_clock_ms: f64,
    table: &Table,
) -> String {
    experiment_json_with_extras(id, params, wall_clock_ms, table, &[])
}

/// [`experiment_json`] with extra top-level fields. Each extra is a
/// `(key, value)` pair whose value is **already-serialized JSON**
/// (an object, array, or number) embedded verbatim — this is how
/// subsystem counters (cache, resilience) and EXPLAIN ANALYZE traces
/// ride along in `BENCH_<ID>.json` without the table format changing.
pub fn experiment_json_with_extras(
    id: &str,
    params: &[(&str, String)],
    wall_clock_ms: f64,
    table: &Table,
    extras: &[(String, String)],
) -> String {
    let params: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    let rows: Vec<String> = table
        .rows
        .iter()
        .map(|r| format!("    {}", string_array(r)))
        .collect();
    let extras: String = extras
        .iter()
        .map(|(k, raw)| format!(",\n  \"{}\": {}", escape(k), raw))
        .collect();
    format!(
        "{{\n  \"experiment\": \"{}\",\n  \"schema_version\": {},\n  \"title\": \"{}\",\n  \"parameters\": {{ {} }},\n  \"wall_clock_ms\": {:.1},\n  \"headers\": {},\n  \"rows\": [\n{}\n  ]{}\n}}\n",
        escape(id),
        SCHEMA_VERSION,
        escape(&table.title),
        params.join(", "),
        wall_clock_ms,
        string_array(&table.headers),
        rows.join(",\n"),
        extras,
    )
}

/// Serializes a table alone (title, headers, rows) as a JSON object —
/// used to embed a secondary table in another experiment's extras (X4
/// ships its pages-vs-fallback table this way).
pub fn table_json(t: &Table) -> String {
    let rows: Vec<String> = t.rows.iter().map(|r| string_array(r)).collect();
    format!(
        "{{\"title\": \"{}\", \"headers\": {}, \"rows\": [{}]}}",
        escape(&t.title),
        string_array(&t.headers),
        rows.join(", ")
    )
}

/// Writes `BENCH_<ID>.json` (id upper-cased) into `dir`; returns the path.
pub fn write_experiment_json(
    dir: &Path,
    id: &str,
    params: &[(&str, String)],
    wall_clock_ms: f64,
    table: &Table,
) -> std::io::Result<PathBuf> {
    write_experiment_json_with_extras(dir, id, params, wall_clock_ms, table, &[])
}

/// [`write_experiment_json`] with extra raw-JSON top-level fields (see
/// [`experiment_json_with_extras`]).
pub fn write_experiment_json_with_extras(
    dir: &Path,
    id: &str,
    params: &[(&str, String)],
    wall_clock_ms: f64,
    table: &Table,
    extras: &[(String, String)],
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{}.json", id.to_uppercase()));
    std::fs::write(
        &path,
        experiment_json_with_extras(id, params, wall_clock_ms, table, extras),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_and_escapes() {
        let mut t = Table::new("T \"quoted\"", vec!["a", "b"]);
        t.row(vec!["1".into(), "x\ny".into()]);
        let j = experiment_json("e9", &[("scale", "[1, 2]".into())], 12.34, &t);
        assert!(j.contains("\"experiment\": \"e9\""));
        assert!(j.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(j.contains("\"title\": \"T \\\"quoted\\\"\""));
        assert!(j.contains("\"scale\": \"[1, 2]\""));
        assert!(j.contains("\"wall_clock_ms\": 12.3"));
        assert!(j.contains("[\"1\", \"x\\ny\"]"));
    }

    #[test]
    fn extras_are_embedded_verbatim() {
        let t = Table::new("t", vec!["a"]);
        let j = experiment_json_with_extras(
            "x2",
            &[],
            1.0,
            &t,
            &[
                ("cache".to_string(), "{\"hits\": 4}".to_string()),
                ("trace".to_string(), "[]".to_string()),
            ],
        );
        assert!(j.contains("\"cache\": {\"hits\": 4}"));
        assert!(j.contains("\"trace\": []"));
        // still an object: extras come before the closing brace
        assert!(j.trim_end().ends_with('}'));
    }

    #[test]
    fn writes_file_with_uppercase_id() {
        let dir = std::env::temp_dir().join("wv_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = Table::new("t", vec!["a"]);
        let p = write_experiment_json(&dir, "e4", &[], 1.0, &t).unwrap();
        assert!(p.ends_with("BENCH_E4.json"));
        assert!(std::fs::read_to_string(&p).unwrap().contains("\"e4\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
