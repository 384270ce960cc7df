//! Layer replays: each layer's public entry point called alone, after the
//! timed section, over exactly the inputs the workload used. They price a
//! layer outside the request, where nothing else shares the clock.

use crate::alloc::AllocCount;
use crate::api::{
    fingerprint, page_corpus, tokenize, wrap_page, wrap_page_columnar, ColumnRel, ConjunctiveQuery,
    Document, Evaluator, MemorySource, Optimizer, Site, SiteStatistics, ViewCatalog, WebScheme,
};
use crate::stats::median;
use crate::workloads::serving::Answer;
use crate::workloads::Outcome;
use std::hint::black_box;
use std::time::Instant;

/// Page-level replays over the site's whole corpus.
pub struct Corpus {
    pub pages: usize,
    pub get_us_per_page: f64,
    pub tokenize_mb_per_s: f64,
    pub dom_parse_mb_per_s: f64,
    pub wrap_page_us_per_page: f64,
    pub wrap_columnar_us_per_page: f64,
    pub allocs_per_page: f64,
}

impl Corpus {
    /// The page-level replays, as the `websim` and `wrapper` layers.
    pub fn report(&self, out: &mut Outcome) {
        out.set("websim.get_us_per_page", self.get_us_per_page);
        out.set("wrapper.tokenize_mb_per_s", self.tokenize_mb_per_s);
        out.set("wrapper.dom_parse_mb_per_s", self.dom_parse_mb_per_s);
        out.set("wrapper.wrap_page_us_per_page", self.wrap_page_us_per_page);
        out.set(
            "wrapper.wrap_columnar_us_per_page",
            self.wrap_columnar_us_per_page,
        );
        out.set("wrapper.allocs_per_page", self.allocs_per_page);
    }
}

/// Page operations each replay performs at least, so the 80-page site is
/// timed over as much work as the 1 217-page one.
const MIN_PAGE_OPS: usize = 3_600;

pub fn corpus(site: &Site) -> Corpus {
    let pages = page_corpus(site);
    let n = pages.len().max(1);
    let passes = (MIN_PAGE_OPS / n).max(3);
    let bytes: usize = pages.iter().map(|p| p.2.len()).sum();
    // Median seconds of one pass of `op` over the corpus.
    let pass_s = |op: &mut dyn FnMut(&crate::api::Url, &str, &str)| {
        let times: Vec<f64> = (0..passes)
            .map(|_| {
                let t0 = Instant::now();
                for (url, scheme, html) in &pages {
                    op(url, scheme, html);
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    };
    let ws = &site.scheme;
    let get_s = pass_s(&mut |url, _, _| {
        black_box(site.server.get(url).ok());
    });
    site.server.reset_stats();
    let tokenize_s = pass_s(&mut |_, _, html| {
        black_box(tokenize(html).ok());
    });
    let dom_s = pass_s(&mut |_, _, html| {
        black_box(Document::parse(html).ok());
    });
    let a0 = AllocCount::now();
    let wrap_s = pass_s(&mut |_, scheme, html| {
        black_box(
            ws.scheme(scheme)
                .ok()
                .and_then(|ps| wrap_page(ps, html).ok()),
        );
    });
    let wrap_allocs = AllocCount::now().since(&a0).calls;
    let columnar_s = pass_s(&mut |_, scheme, html| {
        black_box(
            ws.scheme(scheme)
                .ok()
                .and_then(|ps| wrap_page_columnar(ps, html).ok()),
        );
    });
    let mb = bytes as f64 / 1e6;
    Corpus {
        pages: pages.len(),
        get_us_per_page: get_s * 1e6 / n as f64,
        tokenize_mb_per_s: mb / tokenize_s.max(1e-12),
        dom_parse_mb_per_s: mb / dom_s.max(1e-12),
        wrap_page_us_per_page: wrap_s * 1e6 / n as f64,
        wrap_columnar_us_per_page: columnar_s * 1e6 / n as f64,
        allocs_per_page: wrap_allocs as f64 / (passes * n) as f64,
    }
}

/// One query's planner replay.
#[derive(Debug, Clone, Copy)]
pub struct Optimized {
    /// Median `optimize` time, ns.
    pub ns: f64,
    pub candidates: f64,
    /// Allocator calls and requested bytes of one `optimize`.
    pub allocs: f64,
    pub alloc_bytes: f64,
}

/// `Optimizer::new(..).optimize(q)` for each query, a few times each.
pub fn optimize(
    ws: &WebScheme,
    catalog: &ViewCatalog,
    stats: &SiteStatistics,
    queries: &[&ConjunctiveQuery],
) -> Vec<Optimized> {
    let reps = (40 / queries.len().max(1)).clamp(1, 5);
    queries
        .iter()
        .map(|q| {
            let mut ns = Vec::new();
            let mut out = Optimized {
                ns: 0.0,
                candidates: 0.0,
                allocs: 0.0,
                alloc_bytes: 0.0,
            };
            for _ in 0..reps {
                let a0 = AllocCount::now();
                let t0 = Instant::now();
                let explain = Optimizer::new(ws, catalog, stats).optimize(q);
                ns.push(t0.elapsed().as_nanos() as f64);
                let spent = AllocCount::now().since(&a0);
                out.allocs = spent.calls as f64;
                out.alloc_bytes = spent.bytes as f64;
                out.candidates = explain.map_or(0, |e| e.candidates.len()) as f64;
            }
            out.ns = median(&ns);
            out
        })
        .collect()
}

/// One plan's evaluator replay.
#[derive(Debug, Clone, Copy)]
pub struct Evaluated {
    /// Median `Evaluator::eval` time over pre-wrapped pages, with the time
    /// inside the page source taken out: operators and columnar build, ns.
    pub ns: f64,
    /// Allocator calls of one such evaluation.
    pub allocs: f64,
}

/// `Evaluator::eval` of each answer's chosen plan over a `MemorySource`.
pub fn evaluate(site: &Site, answers: &[Answer]) -> Vec<Evaluated> {
    let reps = (40 / answers.len().max(1)).clamp(1, 5);
    let memory = MemorySource::of_site(site);
    answers
        .iter()
        .map(|a| {
            let mut ns = Vec::new();
            let mut allocs = 0;
            for _ in 0..reps {
                memory.take_fetch_ns();
                let a0 = AllocCount::now();
                let t0 = Instant::now();
                let report = Evaluator::new(&site.scheme, &memory).eval(&a.plan);
                let total = t0.elapsed().as_nanos() as u64;
                allocs = AllocCount::now().since(&a0).calls;
                ns.push(total.saturating_sub(memory.take_fetch_ns()) as f64);
                // The replay must compute what the request computed.
                assert!(
                    report.is_ok_and(|r| fingerprint(&r.relation) == a.fp),
                    "eval replay diverged from the oracle"
                );
            }
            Evaluated {
                ns: median(&ns),
                allocs: allocs as f64,
            }
        })
        .collect()
}

/// `ColumnRel::from_relation` over the workload's answers, µs per thousand
/// rows. Small answers are converted repeatedly until enough rows have
/// gone through to time.
pub fn from_relation_us_per_krow(answers: &[Answer]) -> f64 {
    const MIN_ROWS: usize = 200_000;
    let per_pass: usize = answers.iter().map(|a| a.relation.len()).sum();
    if per_pass == 0 {
        return 0.0;
    }
    let passes = MIN_ROWS.div_ceil(per_pass);
    let t0 = Instant::now();
    for _ in 0..passes {
        for a in answers {
            black_box(ColumnRel::from_relation(&a.relation));
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / ((passes * per_pass) as f64 / 1e3)
}
