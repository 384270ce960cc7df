//! The one seam between the ledger and the product.
//!
//! No other file of this crate names a `webviews::` path (a unit test
//! checks): everything the benchmark calls is re-exported or wrapped here,
//! so a PR that changes a product signature edits this file and nothing
//! else — and knows from the list below which signatures the ledger pins.
//!
//! Entry points called, by layer:
//!
//! | layer | entry points |
//! |---|---|
//! | `websim` | `University::generate(UniversityConfig)`, `University::expected_{dept,professor,course,course_instructor,prof_dept}`, `Site::{instance, change_cursor}` + fields `scheme`, `server`, `VirtualServer::{get, head, now, stats, reset_stats, set_latency, page_count}`, trait `PageServer`, `MutationPlan::{new, with_rule, apply_round}`, `MutationRule::edit_attr` |
//! | `wrapper` | `lexer::tokenize`, `Document::parse`, `wrap_page`, `wrap_page_columnar` |
//! | `adm` | `intern::{interned_count, interned_bytes}`, `ColumnRel::from_relation`, `Relation::{rows, columns, len}`, `Value: Hash`, `WebScheme::{scheme, schemes}`, `Url::{new, as_str}` |
//! | `nalg` | trait `PageSource::{fetch, fetch_stamped}`, `Evaluator::{new, eval}`, `EvalReport` fields `relation`, `page_accesses`, `shared_cache_hits`, `SharedPageCache::{with_byte_budget, stats}`, `CoalescingSource::{new, stats}`, `CoalesceStats::saved_gets` |
//! | `wvquery` | `parse_query(&str, &ViewCatalog)` |
//! | `wvcore` | `views::university_catalog`, `SiteStatistics::from_site`, `LiveSource::for_site`, `QuerySession::{new, run}`, `Optimizer::{new, optimize}`, `Explain::{best, candidates}`, `QueryOutcome::{estimated_pages, measured_pages}`, `ConjunctiveQuery::cache_key` |
//! | `serve` | `QueryServer::{new, with_admission_capacity, with_concurrent_fetch, with_shared_cache, with_views, with_trace, serve, stats}`, `ServeOutcome` fields `outcome`, `cached_plan`, `shed`, `brown_out` + `from_view`, `relation`, `ServerStats` fields incl. `plan_cache.hit_rate()`, `admission` |
//! | `dataflow` | `IncrementalView::{new, materialize, set_cursor, register, sync_with, answer}`, `DeltaReport` fields |
//! | `matview` | `MatStore::{new, materialize}`, `MatSession::{new, run}`, `MatOutcome` fields `relation`, `counters`, `explain` |
//! | `resilience` | `AdmissionStats` fields `admitted`, `shed`, `peak_active` (through `ServerStats`) |
//! | `obs` | `FlightRecorder::{with_capacity, recent}`, `RequestTrace` fields `events`, `fetch_events` (events per traced request) |

use crate::spans::Recorder;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use parking_lot::RwLock;
pub use webviews::adm::intern::{interned_bytes, interned_count};
pub use webviews::adm::{ColumnRel, Relation, Tuple, Url, WebScheme};
pub use webviews::dataflow::IncrementalView;
pub use webviews::matview::{MatSession, MatStore};
pub use webviews::nalg::{
    CoalescingSource, Evaluator, NalgExpr, PageSource, SharedPageCache, SourceError,
};
pub use webviews::obs::FlightRecorder;
pub use webviews::serve::{QueryServer, ServeOutcome, ServerStats};
pub use webviews::websim::sitegen::{University, UniversityConfig};
pub use webviews::websim::{
    HeadResponse, MutationPlan, MutationRule, PageResponse, PageServer, Site, VirtualServer,
    WebError,
};
pub use webviews::wrapper::lexer::tokenize;
pub use webviews::wrapper::{wrap_page, wrap_page_columnar, Document};
pub use webviews::wvcore::views::university_catalog;
pub use webviews::wvcore::{
    ConjunctiveQuery, LiveSource, Optimizer, QuerySession, SiteStatistics, ViewCatalog,
};
pub use webviews::wvquery::parse_query;

/// An order-independent digest of a relation's rows: the multiset of rows
/// decides it, their order does not. Stands in for "equal after sorting"
/// without cloning and sorting a thousand rows inside the request loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub columns: usize,
    digest: u64,
}

pub fn fingerprint(rel: &Relation) -> Fingerprint {
    let mut digest = 0u64;
    for row in rel.rows() {
        // `DefaultHasher::new()` is keyed with zeros: stable across runs.
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        digest = digest.wrapping_add(h.finish() | 1);
    }
    Fingerprint {
        rows: rel.len(),
        columns: rel.columns().len(),
        digest,
    }
}

/// The benchmark's own `PageSource`, handed to the server in
/// `LiveSource`'s place during the traced pass: the same two public calls
/// (`VirtualServer::get`, `wrapper::wrap_page`), each under a span.
pub struct TracedSource<'a> {
    pub ws: &'a WebScheme,
    pub server: &'a VirtualServer,
    pub rec: &'a Recorder,
}

impl PageSource for TracedSource<'_> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        let _fetch = self.rec.span("source.fetch");
        let resp = {
            let _get = self.rec.span("websim.get");
            self.server.get(url)
        }
        .map_err(|e| match e {
            WebError::NotFound(u) => SourceError::NotFound(u),
            other => SourceError::Other(other.to_string()),
        })?;
        let _wrap = self.rec.span("wrapper.wrap");
        let ps = self
            .ws
            .scheme(scheme)
            .map_err(|e| SourceError::Other(e.to_string()))?;
        let html = std::str::from_utf8(&resp.body)
            .map_err(|e| SourceError::Other(format!("non-utf8 body at {url}: {e}")))?;
        let tuple = wrap_page(ps, html).map_err(|e| SourceError::Malformed {
            url: url.clone(),
            reason: e.to_string(),
        })?;
        Ok((tuple, Some(resp.last_modified)))
    }
}

/// The benchmark's own `PageServer`, passed to `sync_with` and
/// `MatSession` during the traced pass: every GET and HEAD under a span.
pub struct TracedServer<'a> {
    pub server: &'a VirtualServer,
    pub rec: &'a Recorder,
}

impl PageServer for TracedServer<'_> {
    fn get(&self, url: &Url) -> Result<PageResponse, WebError> {
        let _s = self.rec.span("websim.get");
        self.server.get(url)
    }

    fn head(&self, url: &Url) -> Result<HeadResponse, WebError> {
        let _s = self.rec.span("websim.head");
        self.server.head(url)
    }

    fn now(&self) -> u64 {
        self.server.now()
    }
}

/// A source that refuses every fetch. `view_maintain` reads must be
/// answered from maintained state; its server gets this source so a read
/// that fell through to navigation fails loudly instead of quietly
/// fetching — and so the server, which must outlive every round, borrows
/// nothing from the site the rounds mutate.
pub struct NoSource;

impl PageSource for NoSource {
    fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
        Err(SourceError::Other(format!(
            "view read fell through to navigation at {url}"
        )))
    }
}

/// Pre-wrapped pages in memory: the source of the `nalg.eval` replay,
/// where operators and the columnar build run at zero fetch cost.
pub struct MemorySource {
    pages: HashMap<Url, Tuple>,
    /// Time spent inside `fetch` (lookup + the clone the trait demands)
    /// since it was last taken, so a replay can leave it out.
    fetch_ns: AtomicU64,
}

impl MemorySource {
    /// Wraps every page of the site once.
    pub fn of_site(site: &Site) -> MemorySource {
        let mut pages = HashMap::new();
        for ps in site.scheme.schemes() {
            for (url, tuple) in site.instance(&ps.name) {
                pages.insert(url, tuple);
            }
        }
        MemorySource {
            pages,
            fetch_ns: AtomicU64::new(0),
        }
    }

    /// Nanoseconds spent in `fetch` since the last call; resets the count.
    pub fn take_fetch_ns(&self) -> u64 {
        self.fetch_ns.swap(0, Ordering::Relaxed)
    }
}

impl PageSource for MemorySource {
    fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
        let t0 = Instant::now();
        let page = self.pages.get(url).cloned();
        self.fetch_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        page.ok_or_else(|| SourceError::NotFound(url.clone()))
    }
}

/// Every page body of a site with its scheme name, in URL order: the
/// corpus the `websim`/`wrapper` replays run over.
pub fn page_corpus(site: &Site) -> Vec<(Url, String, String)> {
    let mut corpus = Vec::new();
    for ps in site.scheme.schemes() {
        for (url, _) in site.instance(&ps.name) {
            if let Ok(resp) = site.server.get(&url) {
                if let Ok(html) = String::from_utf8(resp.body.to_vec()) {
                    corpus.push((url, ps.name.clone(), html));
                }
            }
        }
    }
    corpus.sort_by(|a, b| a.0.cmp(&b.0));
    site.server.reset_stats();
    corpus
}

/// `rel` with the first cell of its first row replaced: a deliberately
/// wrong expected answer for the oracle's own test.
#[cfg(test)]
pub fn with_first_cell_replaced(rel: &Relation, text: &str) -> Relation {
    let mut rows = rel.rows().to_vec();
    rows[0][0] = webviews::adm::Value::text(text);
    Relation::from_rows(rel.columns().to_vec(), rows).expect("same shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: &[[&str; 2]]) -> Relation {
        use webviews::adm::Value;
        Relation::from_rows(
            vec!["a", "b"],
            rows.iter()
                .map(|r| r.iter().map(|s| Value::text(*s)).collect())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = fingerprint(&rel(&[["1", "x"], ["2", "y"], ["3", "z"]]));
        let b = fingerprint(&rel(&[["3", "z"], ["1", "x"], ["2", "y"]]));
        assert_eq!(a, b);
        assert_ne!(a, fingerprint(&rel(&[["1", "x"], ["2", "y"], ["3", "Z"]])));
        assert_ne!(a, fingerprint(&rel(&[["1", "x"], ["2", "y"]])));
        // a duplicated row is not the same multiset as two distinct rows
        assert_ne!(
            fingerprint(&rel(&[["1", "x"], ["1", "x"]])),
            fingerprint(&rel(&[["1", "x"], ["2", "y"]]))
        );
    }

    #[test]
    fn only_this_file_names_the_product() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut stack = vec![src];
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.file_name().unwrap() != "api.rs" {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let needle = ["webviews", "::"].concat();
                    assert!(
                        !text.contains(&needle),
                        "{} names the product",
                        path.display()
                    );
                }
            }
        }
    }
}
