//! Allocation budget of the wrapper over the medium University site
//! (10 departments / 200 professors / 1 000 courses — `hot_navigate`'s
//! site): `wrap_page` may average at most [`WRAP_ALLOCS_PER_PAGE`]
//! allocations a page and `Document::parse` at most
//! [`PARSE_ALLOCS_PER_PAGE`].
//!
//! The counts are deterministic — they depend on the pages and the
//! wrapper's code, not on the machine — so this is the regression guard
//! for wrapping cost that needs no quiet hardware. One `#[test]` in a
//! binary of its own: the counter is process-wide, and a second test
//! thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use websim::sitegen::{University, UniversityConfig};
use wrapper::{wrap_page, Document};

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

/// The owned-`String` tokenizer and `Vec<Node>` tree (the commit before
/// the arena) averaged 376.36 allocations a page here, the arena wrapper
/// 25.80 while a tuple still owned a `String` per field name, 15.88 with
/// the scheme's interned names; with the parse's buffers reused it
/// measures 12.88 — only what the returned tuple owns (a vector per
/// nesting level, a `String` per value, no name). The budget leaves room
/// for a slightly richer tuple, not for a name per field and not for a
/// buffer per page.
const WRAP_ALLOCS_PER_PAGE: f64 = 14.0;

/// A parse takes its buffers from the thread's pool and gives them back:
/// it allocates only while the pooled vectors grow to the largest page
/// met so far, and for a side string where an entity decoded (the
/// generated pages hold none). 0.01 measured — a handful of growths over
/// 1,200+ pages — against 3.00 when each page allocated its two vectors
/// and its open-element stack, and 343.68 for the tree.
const PARSE_ALLOCS_PER_PAGE: f64 = 0.1;

#[test]
fn wrapping_the_medium_site_stays_within_its_allocation_budget() {
    let u = University::generate(UniversityConfig {
        departments: 10,
        professors: 200,
        courses: 1000,
        ..UniversityConfig::default()
    })
    .unwrap();
    let mut pages = Vec::new();
    for scheme in u.site.scheme.schemes() {
        for (url, _) in u.site.instance(&scheme.name) {
            let body = u.site.server.get(&url).unwrap().body;
            pages.push((scheme, String::from_utf8(body.to_vec()).unwrap()));
        }
    }
    assert!(pages.len() > 1200, "{} pages", pages.len());

    let before = ALLOCS.load(Ordering::Relaxed);
    for (_, html) in &pages {
        std::hint::black_box(Document::parse(html).unwrap().len());
    }
    let parse = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / pages.len() as f64;

    let before = ALLOCS.load(Ordering::Relaxed);
    for (scheme, html) in &pages {
        std::hint::black_box(wrap_page(scheme, html).unwrap().len());
    }
    let wrap = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / pages.len() as f64;

    let largest = pages.iter().map(|(_, html)| html.len()).max().unwrap_or(0);
    println!(
        "per page: Document::parse {parse:.2} allocations, wrap_page {wrap:.2} \
         ({} pages, the largest {largest} B)",
        pages.len()
    );
    assert!(
        parse <= PARSE_ALLOCS_PER_PAGE,
        "Document::parse averaged {parse:.2} allocations a page, budget {PARSE_ALLOCS_PER_PAGE}"
    );
    assert!(
        wrap <= WRAP_ALLOCS_PER_PAGE,
        "wrap_page averaged {wrap:.2} allocations a page, budget {WRAP_ALLOCS_PER_PAGE}"
    );
}
