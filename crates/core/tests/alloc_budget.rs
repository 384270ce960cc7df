//! Allocation budgets of the two halves of a request: optimizing the
//! four-atom `adhoc_plan` template (A4, Example 7.2's shape) may allocate at
//! most [`A4_ALLOC_BUDGET`] times, and evaluating the seven E4/E6 plans over
//! pre-wrapped pages at most [`EVAL_ALLOCS_PER_PAGE`] times a page fetched.
//!
//! The counts are deterministic — they depend on the queries, the catalog,
//! the site and the code, not on the machine — so this is the regression
//! guard for planning and evaluation cost that needs no quiet hardware. One
//! `#[test]` in a binary of its own: the counter is process-wide, and a
//! second test thread would allocate into it.

use adm::{Tuple, Url};
use nalg::{Evaluator, PageSource, SourceError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use websim::sitegen::{University, UniversityConfig};
use wvcore::views::university_catalog;
use wvcore::{ConjunctiveQuery, Optimizer, SiteStatistics};

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
/// measures 27.32. The budget has room for neither copy.
const EVAL_ALLOCS_PER_PAGE: f64 = 40.0;

/// Pre-wrapped pages: `fetch` is a lookup and the clone the trait demands.
struct Wrapped(HashMap<Url, Tuple>);

impl PageSource for Wrapped {
    fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
        let page = self.0.get(url).cloned();
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
