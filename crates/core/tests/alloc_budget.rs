//! Allocation budget of one plan miss: optimizing the four-atom `adhoc_plan`
//! template (A4, Example 7.2's shape) may allocate at most
//! [`A4_ALLOC_BUDGET`] times.
//!
//! The count is deterministic — it depends on the query, the catalog and
//! the optimizer's code, not on the machine — so this is the regression
//! guard for planning cost that needs no quiet hardware. One `#[test]` in
//! a binary of its own: the counter is process-wide, and a second test
//! thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
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
}
