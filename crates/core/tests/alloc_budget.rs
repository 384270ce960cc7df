//! Allocation budgets of the two halves of a request: optimizing the
//! four-atom `adhoc_plan` template (A4, Example 7.2's shape) may allocate at
//! most [`A4_ALLOC_BUDGET`] times, and evaluating the seven E4/E6 plans over
//! pre-wrapped pages at most [`EVAL_ALLOCS_PER_PAGE`] times a page fetched.
//! A third phase holds the readers of *held* pages and answers to "a read is
//! a reference": a page read from a materialized store may cost
//! [`URL_CHECK_ALLOCS_PER_PAGE`] more than one handed out by reference, and
//! reading a maintained view costs the same for ten rows and a thousand.
//! A fourth serves the seven plans from a warm shared page cache, whose
//! hits are read in place from their encoded bytes: at most
//! [`SHARED_HIT_ALLOCS_PER_PAGE`] allocations a page.
//!
//! The counts are deterministic — they depend on the queries, the catalog,
//! the site and the code, not on the machine — so this is the regression
//! guard for planning and evaluation cost that needs no quiet hardware. One
//! `#[test]` in a binary of its own: the counter is process-wide, and a
//! second test thread would allocate into it.

use adm::{Tuple, Url};
use matview::{IncrementalView, MatSession, MatStore};
use nalg::{EvalPolicy, Evaluator, NalgExpr, PageSource, SharedPageCache, SourceError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use websim::sitegen::{University, UniversityConfig};
use wvcore::views::university_catalog;
use wvcore::{ConjunctiveQuery, Optimizer, SiteStatistics, ViewCatalog};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The `Box`-tree optimizer (the commit before the plan arena) spent
/// 556,979 allocations on this query's 78 candidates; the arena spends
/// about 30,000. The budget is twice that — a ninth of the old count.
const A4_ALLOC_BUDGET: u64 = 60_000;

/// What the evaluator may allocate for each page it fetches, averaged over
/// the seven queries of the E4/E6 workload on the medium University site
/// (the ledger's `nalg.eval_allocs_per_req` ÷ pages): the source's clone
/// of the pre-wrapped tuple, the interning of values met for the first
/// time, the growth of the operator's columns, and the query's share of
/// gathers, joins and the final `to_relation`. It measured 76.73 a page
/// while a page was copied cell by cell into a row, and nested cells again
/// into a buffer, before it reached the columns; appended by reference it
/// measures 28.33 (one of them the `Arc` the evaluator puts around a page
/// its source produced). The budget has room for neither copy.
const EVAL_ALLOCS_PER_PAGE: f64 = 40.0;

/// What the evaluator may allocate for each page a warm shared page cache
/// serves, over the same seven queries. A hit is read where the cache
/// keeps it, encoded: its cells go into the columns without a `Tuple`, a
/// `String` or a `Vec` being built for them, so what is left is the
/// growth of the columns, the first value of each, and the query's share
/// of gathers, joins and the final `to_relation`. It measures 6.93 a page;
/// decoding each hit into a fresh `Tuple` first measured 26.49.
const SHARED_HIT_ALLOCS_PER_PAGE: f64 = 10.0;

/// Pre-wrapped pages: `fetch` is a lookup and the clone the trait demands.
struct Wrapped(HashMap<Url, Tuple>);

impl PageSource for Wrapped {
    fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
        let page = self.0.get(url).cloned();
        page.ok_or_else(|| SourceError::NotFound(url.clone()))
    }
}

/// What a page served from a materialized store may allocate beyond a page
/// handed out by reference: the URL check's own bookkeeping — the status
/// flag's key, the light connection — and no copy of the page. It measures
/// 2.00; a copy of a page is 12.9 allocations on its own (site average).
const URL_CHECK_ALLOCS_PER_PAGE: f64 = 4.0;

/// Pages their holder keeps behind `Arc`s and hands out by reference —
/// what the evaluator's per-query cache does on a hit.
struct Held(HashMap<Url, Arc<Tuple>>);

impl PageSource for Held {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_shared(url, scheme)
            .map(|(t, _)| Tuple::clone(&t))
    }

    fn fetch_shared(
        &self,
        url: &Url,
        _scheme: &str,
    ) -> Result<(Arc<Tuple>, Option<u64>), SourceError> {
        let page = self.0.get(url).map(|t| (Arc::clone(t), None));
        page.ok_or_else(|| SourceError::NotFound(url.clone()))
    }
}

/// The university query workload of E4/E6 (`bench::fixtures`).
fn university_workload() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName")),
        ConjunctiveQuery::new("CS professors")
            .atom("Professor")
            .atom("ProfDept")
            .join((0, "PName"), (1, "PName"))
            .select((1, "DName"), "Computer Science")
            .project((0, "PName"))
            .project((0, "Email")),
        ConjunctiveQuery::new("example 7.1")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((0, "Rank"), "Full")
            .select((2, "Session"), "Fall")
            .project((2, "CName"))
            .project((2, "Description")),
        ConjunctiveQuery::new("example 7.2")
            .atom("Course")
            .atom("CourseInstructor")
            .atom("Professor")
            .atom("ProfDept")
            .join((0, "CName"), (1, "CName"))
            .join((1, "PName"), (2, "PName"))
            .join((2, "PName"), (3, "PName"))
            .select((3, "DName"), "Computer Science")
            .select((0, "Type"), "Graduate")
            .project((2, "PName"))
            .project((2, "Email")),
        ConjunctiveQuery::new("fall graduate courses")
            .atom("Course")
            .select((0, "Session"), "Fall")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"))
            .project((0, "Description")),
        ConjunctiveQuery::new("who teaches what")
            .atom("CourseInstructor")
            .project((0, "PName"))
            .project((0, "CName")),
        ConjunctiveQuery::new("departments")
            .atom("Dept")
            .project((0, "DName"))
            .project((0, "Address")),
    ]
}

/// Phase two: the seven chosen plans, evaluated over pre-wrapped pages.
fn evaluation_stays_within_its_allocation_budget() {
    let u = University::generate(UniversityConfig {
        departments: 10,
        professors: 200,
        courses: 1000,
        ..UniversityConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let opt = Optimizer::new(&u.site.scheme, &catalog, &stats);
    let plans: Vec<_> = (university_workload().iter())
        .map(|q| opt.optimize(q).unwrap().best().expr.clone())
        .collect();
    let mut pages = HashMap::new();
    for ps in u.site.scheme.schemes() {
        pages.extend(u.site.instance(&ps.name));
    }
    let source = Wrapped(pages);
    let run = || -> (u64, usize) {
        (plans.iter())
            .map(|plan| Evaluator::new(&u.site.scheme, &source).eval(plan).unwrap())
            .fold((0, 0), |(pages, rows), r| {
                (pages + r.page_accesses, rows + r.relation.len())
            })
    };
    // Once unmeasured: the first pass interns the site's values, which
    // every request after the first finds in place.
    let warm = run();
    let before = ALLOCS.load(Ordering::Relaxed);
    let measured = std::hint::black_box(run());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(measured, warm);
    assert!(measured.0 > 1_000 && measured.1 > 1_000, "{measured:?}");
    let per_page = allocs as f64 / measured.0 as f64;
    println!(
        "seven plans: {allocs} allocations over {} pages fetched = {per_page:.2} a page",
        measured.0
    );
    assert!(
        per_page <= EVAL_ALLOCS_PER_PAGE,
        "evaluation averaged {per_page:.2} allocations a page fetched, budget {EVAL_ALLOCS_PER_PAGE}"
    );
    a_read_of_a_held_page_or_answer_is_a_reference(&u, &stats, &catalog, &plans, &source.0);
    a_shared_cache_hit_is_read_in_place(&u.site.scheme, &plans, &source, measured);
}

/// Phase four: the same seven plans with every page a hit of a warm shared
/// page cache. The answers are those of the cache-less run, every page it
/// fetched is a hit, and a hit allocates no copy of its page.
fn a_shared_cache_hit_is_read_in_place(
    ws: &adm::WebScheme,
    plans: &[NalgExpr],
    source: &Wrapped,
    (pages, rows): (u64, usize),
) {
    let shared = SharedPageCache::default();
    let policy = EvalPolicy {
        shared_cache: Some(&shared),
        ..EvalPolicy::default()
    };
    let run = || -> (u64, u64, usize) {
        (plans.iter())
            .map(|plan| {
                let evaluator = Evaluator::new(ws, source).with_policy(&policy);
                evaluator.eval(plan).unwrap()
            })
            .fold((0, 0, 0), |(fetched, hits, rows), r| {
                let rows = rows + r.relation.len();
                (fetched + r.page_accesses, hits + r.shared_cache_hits, rows)
            })
    };
    // Twice unmeasured: the first pass fills the cache (a plan also reads
    // pages an earlier one fetched), the second lets hash maps reach
    // their size.
    let (fetched, hits, cold_rows) = run();
    assert_eq!((fetched + hits, cold_rows), (pages, rows));
    assert_eq!(run(), (0, pages, rows));
    let (allocs, measured) = allocs_of(run);
    assert_eq!(measured, (0, pages, rows));
    let per_page = allocs as f64 / pages as f64;
    println!(
        "seven plans over a warm shared cache: {allocs} allocations over {pages} hits \
         = {per_page:.2} a page"
    );
    assert!(
        per_page <= SHARED_HIT_ALLOCS_PER_PAGE,
        "a shared-cache hit averaged {per_page:.2} allocations, budget {SHARED_HIT_ALLOCS_PER_PAGE}"
    );
}

/// Allocations made by `f`.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = std::hint::black_box(f());
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Phase three: the same seven plans over pages somebody *holds*. Served by
/// URL check from a warm materialized store, a page may cost its check's
/// bookkeeping more than one handed out by reference — never a copy; and a
/// maintained view's answer is read at one price, whatever its size.
fn a_read_of_a_held_page_or_answer_is_a_reference(
    u: &University,
    stats: &SiteStatistics,
    catalog: &ViewCatalog,
    plans: &[NalgExpr],
    pages: &HashMap<Url, Tuple>,
) {
    let ws = &u.site.scheme;
    let held = Held(
        (pages.iter())
            .map(|(url, t)| (url.clone(), Arc::new(t.clone())))
            .collect(),
    );
    let by_reference = || -> u64 {
        (plans.iter())
            .map(|plan| Evaluator::new(ws, &held).eval(plan).unwrap().page_accesses)
            .sum()
    };
    let mut store = MatStore::new();
    store.materialize(ws, &u.site.server).unwrap();
    let session = MatSession::new(ws, catalog, stats, &u.site.server);
    let mut from_store = || -> u64 {
        (plans.iter())
            .map(|plan| {
                let (_, counters, _, _) = session.execute(&mut store, plan).unwrap();
                assert_eq!((counters.downloads, counters.stale_served), (0, 0));
                counters.from_store
            })
            .sum()
    };
    // Once unmeasured each: hash maps reach their size.
    let (warm_ref, warm_store) = (by_reference(), from_store());
    let (ref_allocs, ref_pages) = allocs_of(by_reference);
    let (store_allocs, store_pages) = allocs_of(&mut from_store);
    assert_eq!((ref_pages, store_pages), (warm_ref, warm_store));
    assert_eq!(
        ref_pages, store_pages,
        "every page read once, from the store"
    );
    let copy = allocs_of(|| pages.values().cloned().collect::<Vec<_>>()).0;
    let extra = (store_allocs as f64 - ref_allocs as f64) / store_pages as f64;
    println!(
        "{store_pages} pages: {ref_allocs} allocations by reference, {store_allocs} from the \
         store = {extra:.2} more a page (a copy of a page: {:.2})",
        copy as f64 / pages.len() as f64
    );
    assert!(
        extra <= URL_CHECK_ALLOCS_PER_PAGE,
        "a from-store page cost {extra:.2} allocations more than a page handed out by \
         reference, budget {URL_CHECK_ALLOCS_PER_PAGE}"
    );

    // View reads: ten departments, a thousand courses, two columns each.
    let opt = Optimizer::new(ws, catalog, stats);
    let courses = ConjunctiveQuery::new("courses")
        .atom("Course")
        .project((0, "CName"))
        .project((0, "Description"));
    let mut views = IncrementalView::new(ws);
    views.materialize(&u.site.server).unwrap();
    views.set_cursor(u.site.change_cursor());
    for (key, q) in [("depts", &university_workload()[6]), ("courses", &courses)] {
        let plan = opt.optimize(q).unwrap().best().expr.clone();
        views.register(key, key, &plan, &u.site.server).unwrap();
    }
    let read = |key: &str| allocs_of(|| views.answer(key).unwrap());
    let ((small, depts), (large, courses)) = (read("depts"), read("courses"));
    assert_eq!((depts.len(), courses.len()), (10, 1000));
    println!("view reads: {small} allocations for 10 rows, {large} for 1000");
    assert_eq!(small, large, "a view read must not depend on the rows");
}

#[test]
fn a4_optimizes_within_its_allocation_budget() {
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let q = ConjunctiveQuery::new("a4")
        .atom("Course")
        .atom("CourseInstructor")
        .atom("Professor")
        .atom("ProfDept")
        .join((0, "CName"), (1, "CName"))
        .join((1, "PName"), (2, "PName"))
        .join((2, "PName"), (3, "PName"))
        .select((3, "DName"), u.expected_dept()[0].0.clone())
        .select((0, "CName"), u.expected_course()[0].0.clone())
        .project((2, "PName"))
        .project((2, "Email"));
    let opt = Optimizer::new(&u.site.scheme, &catalog, &stats);
    // Once unmeasured: the first optimize of a process also interns the
    // catalog's vocabulary, which later ones find in place.
    let warm = opt.optimize(&q).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let explain = std::hint::black_box(opt.optimize(&q).unwrap());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(explain.candidates.len(), warm.candidates.len());
    assert_eq!(explain.candidates.len(), 78);
    println!("A4 optimize: {allocs} allocations");
    assert!(
        allocs <= A4_ALLOC_BUDGET,
        "optimizing A4 took {allocs} allocations, budget {A4_ALLOC_BUDGET}"
    );
    evaluation_stays_within_its_allocation_budget();
}
