//! Site statistics (Section 6.2).
//!
//! The cost function relies on quantitative knowledge of the site,
//! "initially estimated exploring the site by means of a tool such as
//! WebSQL, and updated on a regular basis":
//!
//! * `|P|` — page-scheme cardinalities;
//! * `|L|` — average fan-out of each nested list attribute;
//! * `c_A` — number of distinct values of each mono-valued attribute
//!   (selectivity `s_A = 1/c_A`);
//! * join selectivities (defaulted to `1/max(c_A, c_B)` under the uniform
//!   distribution assumption, overridable);
//! * average page size per scheme — a secondary cost component that breaks
//!   ties between plans with equal page counts (the paper's strategy 2 is
//!   preferred over strategy 1 because the database-conference list "is a
//!   smaller page").
//!
//! Statistics can be [`SiteStatistics::crawl`]ed through the same
//! page-source abstraction the evaluator uses, computed from a generated
//! site's ground truth, or written/parsed in a plain text format. A crawl
//! downloads every page it reaches: no cache stands between it and the
//! source (the cross-query page cache is the evaluator's,
//! [`nalg::EvalPolicy::shared_cache`]).

use adm::{Field, Tuple, Value, WebScheme, WebType};
use nalg::PageSource;
use std::collections::{HashMap, HashSet};

/// Quantitative description of a site instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteStatistics {
    /// `|P|` per page-scheme.
    pub scheme_card: HashMap<String, f64>,
    /// Average items per occurrence of each list attribute
    /// (key: `Scheme.Path`).
    pub fanout: HashMap<String, f64>,
    /// Distinct non-null values per mono attribute (key: `Scheme.Path`).
    pub distinct: HashMap<String, f64>,
    /// Average page size in bytes per scheme.
    pub page_bytes: HashMap<String, f64>,
    /// Join-selectivity overrides keyed by the two scheme-qualified
    /// attribute paths (order-normalized).
    pub join_selectivity: HashMap<(String, String), f64>,
}

impl SiteStatistics {
    /// Cardinality of a scheme (default 1.0 — unknown schemes are treated
    /// as entry-point-like singletons).
    pub fn card(&self, scheme: &str) -> f64 {
        *self.scheme_card.get(scheme).unwrap_or(&1.0)
    }

    /// Fan-out of a list attribute (default 1.0).
    pub fn fanout_of(&self, key: &str) -> f64 {
        *self.fanout.get(key).unwrap_or(&1.0)
    }

    /// Distinct count of a mono attribute; defaults to the cardinality of
    /// its scheme (attributes assumed key-like when unknown).
    pub fn distinct_of(&self, key: &str) -> f64 {
        if let Some(v) = self.distinct.get(key) {
            return *v;
        }
        let scheme = key.split('.').next().unwrap_or("");
        self.card(scheme).max(1.0)
    }

    /// Average page bytes for a scheme (default 1024).
    pub fn bytes_of(&self, scheme: &str) -> f64 {
        *self.page_bytes.get(scheme).unwrap_or(&1024.0)
    }

    /// Join selectivity between two scheme-qualified attributes:
    /// an override if present, else `1/max(c_A, c_B)`.
    pub fn selectivity(&self, a: &str, b: &str) -> f64 {
        if !self.join_selectivity.is_empty() {
            let key = if a <= b {
                (a.to_string(), b.to_string())
            } else {
                (b.to_string(), a.to_string())
            };
            if let Some(v) = self.join_selectivity.get(&key) {
                return *v;
            }
        }
        1.0 / self.distinct_of(a).max(self.distinct_of(b)).max(1.0)
    }

    /// True if an attribute is key-like for its scheme (distinct count ≈
    /// page count at its occurrence level). Used by the repeated-navigation
    /// rule (rule 4), which is only sound when the join attribute
    /// functionally identifies the page.
    pub fn is_key_like(&self, scheme: &str, attr_key: &str) -> bool {
        let card = self.card(scheme);
        self.distinct_of(attr_key) + 0.5 >= card
    }

    /// Collects statistics by crawling the site from its entry points
    /// through a page source (the paper's "exploring the site").
    pub fn crawl(ws: &WebScheme, source: &impl PageSource) -> SiteStatistics {
        Self::from_instance(ws, &crate::crawl::crawl_instance(ws, source))
    }

    /// Collects statistics from an already-crawled instance.
    pub fn from_instance(ws: &WebScheme, instance: &crate::crawl::SiteInstance) -> SiteStatistics {
        let mut acc = Accumulator::default();
        for (scheme, pages) in instance {
            let Ok(ps) = ws.scheme(scheme) else { continue };
            for (_, tuple) in pages {
                acc.record_page(scheme, &ps.fields, tuple);
            }
        }
        acc.finish()
    }

    /// Computes statistics from a generated site's ground truth (a cheap
    /// oracle equivalent of crawling; page sizes are taken from the server
    /// and the access counters are reset afterwards).
    pub fn from_site(site: &websim::Site) -> SiteStatistics {
        let mut acc = Accumulator::default();
        let mut bytes: HashMap<String, (f64, f64)> = HashMap::new();
        for ps in site.scheme.schemes() {
            for (url, tuple) in site.pages(&ps.name) {
                acc.record_page(&ps.name, &ps.fields, tuple);
                if let Ok(resp) = site.server.get(url) {
                    let e = bytes.entry(ps.name.clone()).or_insert((0.0, 0.0));
                    e.0 += resp.body.len() as f64;
                    e.1 += 1.0;
                }
            }
        }
        site.server.reset_stats();
        let mut stats = acc.finish();
        stats.page_bytes = bytes
            .into_iter()
            .map(|(k, (total, n))| (k, total / n.max(1.0)))
            .collect();
        stats
    }

    /// Serializes to a plain text format (one datum per line).
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        let mut sorted: Vec<_> = self.scheme_card.iter().collect();
        sorted.sort_by_key(|(k, _)| (*k).clone());
        for (k, v) in sorted {
            lines.push(format!("card {k} {v}"));
        }
        let mut sorted: Vec<_> = self.fanout.iter().collect();
        sorted.sort_by_key(|(k, _)| (*k).clone());
        for (k, v) in sorted {
            lines.push(format!("fanout {k} {v}"));
        }
        let mut sorted: Vec<_> = self.distinct.iter().collect();
        sorted.sort_by_key(|(k, _)| (*k).clone());
        for (k, v) in sorted {
            lines.push(format!("distinct {k} {v}"));
        }
        let mut sorted: Vec<_> = self.page_bytes.iter().collect();
        sorted.sort_by_key(|(k, _)| (*k).clone());
        for (k, v) in sorted {
            lines.push(format!("bytes {k} {v}"));
        }
        let mut sorted: Vec<_> = self.join_selectivity.iter().collect();
        sorted.sort_by_key(|(k, _)| (*k).clone());
        for ((a, b), v) in sorted {
            lines.push(format!("jsel {a} {b} {v}"));
        }
        lines.join("\n")
    }
}

/// Incremental accumulator for per-attribute statistics, borrowing the
/// values it counts from the pages it is shown.
#[derive(Default)]
struct Accumulator<'a> {
    card: HashMap<String, f64>,
    // list path -> (total items, occurrences)
    lists: HashMap<String, (f64, f64)>,
    // mono path -> distinct values
    values: HashMap<String, HashSet<&'a Value>>,
}

impl<'a> Accumulator<'a> {
    fn record_page(&mut self, scheme: &str, fields: &[Field], tuple: &'a Tuple) {
        *self.card.entry(scheme.to_string()).or_insert(0.0) += 1.0;
        self.record_fields(scheme, fields, std::slice::from_ref(tuple));
    }

    fn record_fields(&mut self, prefix: &str, fields: &[Field], rows: &'a [Tuple]) {
        for f in fields {
            let key = format!("{prefix}.{}", f.name);
            match &f.ty {
                WebType::List(inner) => {
                    for row in rows {
                        if let Some(Value::List(items)) = row.get(&f.name) {
                            let e = self.lists.entry(key.clone()).or_insert((0.0, 0.0));
                            e.0 += items.len() as f64;
                            e.1 += 1.0;
                            self.record_fields(&key, inner, items);
                        }
                    }
                }
                _ => {
                    let mut present = rows
                        .iter()
                        .filter_map(|row| row.get(&f.name))
                        .filter(|v| !v.is_null())
                        .peekable();
                    if present.peek().is_some() {
                        self.values.entry(key).or_default().extend(present);
                    }
                }
            }
        }
    }

    fn finish(self) -> SiteStatistics {
        SiteStatistics {
            scheme_card: self.card,
            fanout: self
                .lists
                .into_iter()
                .map(|(k, (items, occ))| (k, items / occ.max(1.0)))
                .collect(),
            distinct: self
                .values
                .into_iter()
                .map(|(k, set)| (k, set.len() as f64))
                .collect(),
            page_bytes: HashMap::new(),
            join_selectivity: HashMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::LiveSource;
    use websim::sitegen::{University, UniversityConfig};

    fn uni() -> University {
        University::generate(UniversityConfig {
            departments: 3,
            professors: 9,
            courses: 18,
            seed: 6,
            ..UniversityConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn crawl_measures_cardinalities() {
        let u = uni();
        let src = LiveSource::for_site(&u.site);
        let stats = SiteStatistics::crawl(&u.site.scheme, &src);
        assert_eq!(stats.card("ProfPage"), 9.0);
        assert_eq!(stats.card("CoursePage"), 18.0);
        assert_eq!(stats.card("DeptPage"), 3.0);
        assert_eq!(stats.card("SessionPage"), 3.0);
        assert_eq!(stats.card("HomePage"), 1.0);
    }

    #[test]
    fn crawl_matches_ground_truth_stats() {
        let u = uni();
        let src = LiveSource::for_site(&u.site);
        let crawled = SiteStatistics::crawl(&u.site.scheme, &src);
        let truth = SiteStatistics::from_site(&u.site);
        assert_eq!(crawled.scheme_card, truth.scheme_card);
        assert_eq!(crawled.fanout, truth.fanout);
        assert_eq!(crawled.distinct, truth.distinct);
    }

    #[test]
    fn fanout_and_distincts_are_consistent() {
        let u = uni();
        let stats = SiteStatistics::from_site(&u.site);
        // every professor appears exactly once in the professor list
        assert_eq!(stats.fanout_of("ProfListPage.ProfList"), 9.0);
        // PName is a key of ProfPage
        assert!(stats.is_key_like("ProfPage", "ProfPage.PName"));
        // Session has 3 distinct values on 18 course pages: not a key
        assert!(!stats.is_key_like("CoursePage", "CoursePage.Session"));
        assert_eq!(stats.distinct_of("CoursePage.Session"), 3.0);
        // average courses per session = 18/3
        assert!((stats.fanout_of("SessionPage.CourseList") - 6.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity_default_and_override() {
        let u = uni();
        let mut stats = SiteStatistics::from_site(&u.site);
        let s = stats.selectivity("CoursePage.CName", "ProfPage.CourseList.CName");
        assert!((s - 1.0 / 18.0).abs() < 1e-9);
        stats.join_selectivity.insert(
            (
                "CoursePage.CName".to_string(),
                "ProfPage.CourseList.CName".to_string(),
            ),
            0.25,
        );
        // order-normalized lookup
        assert_eq!(
            stats.selectivity("ProfPage.CourseList.CName", "CoursePage.CName"),
            0.25
        );
    }

    #[test]
    fn text_lists_every_datum_once() {
        let u = uni();
        let stats = SiteStatistics::from_site(&u.site);
        let text = stats.to_text();
        let lines = |tag: &str| text.lines().filter(|l| l.starts_with(tag)).count();
        assert_eq!(lines("card "), stats.scheme_card.len());
        assert_eq!(lines("fanout "), stats.fanout.len());
        assert_eq!(lines("distinct "), stats.distinct.len());
        assert_eq!(lines("bytes "), stats.page_bytes.len());
        assert_eq!(lines("jsel "), stats.join_selectivity.len());
        let profs = stats.scheme_card["ProfPage"];
        assert!(text.contains(&format!("card ProfPage {profs}\n")));
    }

    #[test]
    fn defaults_for_unknown_keys() {
        let stats = SiteStatistics::default();
        assert_eq!(stats.card("Nope"), 1.0);
        assert_eq!(stats.fanout_of("Nope.L"), 1.0);
        assert_eq!(stats.bytes_of("Nope"), 1024.0);
        assert!(stats.selectivity("A.X", "B.Y") <= 1.0);
    }

    #[test]
    fn page_bytes_measured() {
        let u = uni();
        let stats = SiteStatistics::from_site(&u.site);
        // the professor list page is bigger than a single course page? Not
        // necessarily — but both must be measured and positive.
        assert!(stats.bytes_of("ProfListPage") > 0.0);
        assert!(stats.bytes_of("CoursePage") > 0.0);
        // stats collection must not leave access counters dirty
        assert_eq!(u.site.server.stats().gets, 0);
    }
}
