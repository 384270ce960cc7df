//! `check a.json b.json`: one row per (workload, end-to-end metric) of two
//! ledger files — both values, the ratio with its base, the bound, and a
//! verdict. Non-zero exit on any regression or any moved exact count.

use crate::json::Json;
use crate::metrics::{self, Better};

/// What `check` concluded about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// An exact count changed, in either direction.
    Moved,
    /// Listed as end-to-end in a file, but demoted to the per-layer list
    /// since (it could not hold its bound between two runs of the same
    /// code): shown, not gated.
    Demoted,
    /// Missing from one of the files.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Moved => "MOVED (exact count)",
            Verdict::Demoted => "demoted, not gated",
            Verdict::Missing => "missing",
        }
    }

    /// Does this verdict fail the check?
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Moved | Verdict::Missing)
    }
}

/// Judges `new` against `base`. The bound is a share of the base value;
/// an exact metric may not move at all.
pub fn judge(base: f64, new: f64, better: Better, bound: f64, exact: bool) -> Verdict {
    if exact {
        return if new == base {
            Verdict::Ok
        } else {
            Verdict::Moved
        };
    }
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    } / base.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Option<f64>,
    pub new: Option<f64>,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Compares the end-to-end sections of two ledger files.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("not a ledger file: no \"workloads\" object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (workload, ja) in &wa {
        let section = |j: Option<&Json>| {
            j.and_then(|w| w.get("end_to_end"))
                .and_then(Json::as_obj)
                .cloned()
                .unwrap_or_default()
        };
        let (ea, eb) = (section(Some(ja)), section(wb.get(workload)));
        for (metric, va) in &ea {
            let base = va.as_f64();
            let new = eb.get(metric).and_then(Json::as_f64);
            let def = metrics::end_to_end(metric);
            let verdict = match (def, base, new) {
                (None, _, _) if metrics::per_layer(metric).is_some() => Verdict::Demoted,
                (Some(d), Some(x), Some(y)) => judge(x, y, d.better, d.bound, d.exact),
                _ => Verdict::Missing,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base,
                new,
                bound: def.map(|d| if d.exact { 0.0 } else { d.bound }),
                verdict,
            });
        }
    }
    for workload in wb.keys().filter(|w| !wa.contains_key(*w)) {
        rows.push(Row {
            workload: workload.clone(),
            metric: "*".into(),
            base: None,
            new: None,
            bound: None,
            verdict: Verdict::Missing,
        });
    }
    Ok(rows)
}

/// The table `check` prints.
pub fn render(rows: &[Row]) -> String {
    let num = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.4}"));
    let mut out = format!(
        "{:<14} {:<24} {:>14} {:>14} {:>16} {:>7}  {}\n",
        "workload", "metric", "base (a)", "new (b)", "b/a", "bound", "verdict"
    );
    for r in rows {
        let ratio = match (r.base, r.new) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.4}x of {:.4}", b / a, a),
            _ => "—".into(),
        };
        out.push_str(&format!(
            "{:<14} {:<24} {:>14} {:>14} {:>16} {:>7}  {}\n",
            r.workload,
            r.metric,
            num(r.base),
            num(r.new),
            ratio,
            r.bound.map_or("—".into(), |b| format!("{:.1}%", b * 100.0)),
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn bounds_are_shares_of_the_base_in_the_metrics_bad_direction() {
        use Better::{Higher, Lower};
        assert_eq!(judge(10.0, 10.9, Lower, 0.10, false), Verdict::Ok);
        assert_eq!(judge(10.0, 11.1, Lower, 0.10, false), Verdict::Regressed);
        assert_eq!(judge(10.0, 8.9, Lower, 0.10, false), Verdict::Improved);
        assert_eq!(judge(100.0, 91.0, Higher, 0.10, false), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, Higher, 0.10, false), Verdict::Regressed);
        assert_eq!(judge(100.0, 111.0, Higher, 0.10, false), Verdict::Improved);
    }

    #[test]
    fn exact_counts_may_not_move_either_way() {
        assert_eq!(judge(4.4, 4.4, Better::Lower, 0.001, true), Verdict::Ok);
        assert_eq!(
            judge(4.4, 4.4001, Better::Lower, 0.001, true),
            Verdict::Moved
        );
        assert_eq!(judge(4.4, 4.3, Better::Lower, 0.001, true), Verdict::Moved);
        assert!(Verdict::Moved.fails() && Verdict::Regressed.fails());
        assert!(!Verdict::Improved.fails() && !Verdict::Demoted.fails());
    }

    fn ledger(p99: &str, req_per_s: f64, accesses: f64) -> Json {
        parse(&format!(
            "{{\"workloads\": {{\"hot_navigate\": {{\"end_to_end\": {{\
             \"req_per_s\": {req_per_s}, \"page_accesses_per_req\": {accesses}{p99}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn compare_gates_registry_metrics_and_only_shows_demoted_ones() {
        // An older file still lists the since-demoted p99 as end-to-end:
        // it is shown and never fails the check, however far it moved.
        let a = ledger(", \"bench.latency_ms_p99\": 20.0", 235.0, 61.5);
        let b = ledger(", \"bench.latency_ms_p99\": 90.0", 230.0, 61.5);
        let rows = compare(&a, &b).unwrap();
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("bench.latency_ms_p99"), Verdict::Demoted);
        assert_eq!(verdict("req_per_s"), Verdict::Ok);
        assert_eq!(verdict("page_accesses_per_req"), Verdict::Ok);
        assert!(rows.iter().all(|r| !r.verdict.fails()));
        assert!(render(&rows).contains("0.9787x of 235.0000"));

        let slower = ledger("", 150.0, 61.5);
        assert!(compare(&a, &slower)
            .unwrap()
            .iter()
            .any(|r| r.metric == "req_per_s" && r.verdict == Verdict::Regressed));
        let moved = ledger("", 235.0, 61.0);
        assert!(compare(&a, &moved)
            .unwrap()
            .iter()
            .any(|r| r.verdict == Verdict::Moved));
        // a metric that vanished from the new file fails too
        assert!(compare(&a, &ledger("", 235.0, 61.5))
            .unwrap()
            .iter()
            .all(|r| r.metric != "bench.latency_ms_p99" || !r.verdict.fails()));
        assert!(compare(&parse("{}").unwrap(), &a).is_err());
    }
}
