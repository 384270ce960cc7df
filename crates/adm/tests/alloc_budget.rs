//! Allocation budget of the columnar kernels: σ (`select_eq_const` +
//! `take`), π (`project_cols`), ⋈ (`join_on`) and μ (`unnest`) over 4,096
//! rows.
//!
//! The row path clones a `String`/`Url` per tuple; the columnar path moves
//! symbol ids. Each kernel must allocate no more than the [`Relation`] row
//! operator it replaced, and no more than the budget written beside the
//! count it measured when the budget was set. A per-row clone creeping back
//! into a kernel costs thousands of allocations here, far past the
//! headroom.
//!
//! The counts are deterministic — they depend on the fixtures and the
//! kernels' code, not on the machine. One `#[test]` in a binary of its
//! own: the counter is process-wide, and a second test thread would
//! allocate into it.

use adm::{ColumnRel, Relation, Tuple, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only other work is a relaxed atomic
// increment, which neither allocates nor unwinds.
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

/// Allocations performed by one run of `f` (result kept live so its own
/// buffers count; frees do not).
fn allocs_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = std::hint::black_box(f());
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(out);
    after - before
}

/// A flat relation shaped like a wrapped page list: a distinct link per
/// row, a text key repeated twenty times, and a four-valued rank.
fn flat(n: usize, prefix: &str) -> Relation {
    const RANKS: [&str; 4] = ["Full", "Associate", "Assistant", "Emeritus"];
    Relation::from_rows(
        vec![
            format!("{prefix}.Url"),
            format!("{prefix}.K"),
            format!("{prefix}.Rank"),
        ],
        (0..n)
            .map(|i| {
                vec![
                    Value::link(format!("/{prefix}/{i}")),
                    Value::text(format!("k{}", i % (n / 20).max(1))),
                    Value::text(RANKS[i % RANKS.len()]),
                ]
            })
            .collect(),
    )
    .unwrap()
}

/// A nested relation shaped like wrapped course lists: `fanout` inner
/// tuples per parent row.
fn nested(n: usize, fanout: usize) -> Relation {
    Relation::from_rows(
        vec!["P.Url".to_string(), "P.Courses".to_string()],
        (0..n)
            .map(|i| {
                vec![
                    Value::link(format!("/p/{i}")),
                    Value::List(
                        (0..fanout)
                            .map(|j| Tuple::new().with("CName", format!("c{i}-{j}")))
                            .collect(),
                    ),
                ]
            })
            .collect(),
    )
    .unwrap()
}

/// Per kernel: (operator, allocations measured when the budget was set,
/// budget). The headroom admits a few more buffers, not one per row: the
/// smallest per-row slip (one allocation per σ-selected row) is +1,024.
const BUDGETS: [(&str, u64, u64); 4] = [
    // the index vector, then one data vector and one validity bitmap per column
    ("σ rank=Full", 23, 32),
    // the seen-set and the kept-index vector, both sized once
    ("π dedup key", 12, 16),
    // one key and one row list per distinct key (204), the lists' growth,
    // then the pair list and the gather
    ("⋈ pointer join", 1317, 1400),
    // the repeat and child index vectors' growth, then the gather
    ("μ unnest", 39, 48),
];

#[test]
fn columnar_kernels_stay_within_their_allocation_budgets() {
    let n = 4096usize;
    let rel = flat(n, "P");
    let right = flat(n, "R");
    let nest = nested(n / 10, 10);
    // Built outside the measured regions: interning and column packing are
    // paid once at wrap time, not per operator.
    let col = ColumnRel::from_relation(&rel);
    let right_col = ColumnRel::from_relation(&right);
    let nest_col = ColumnRel::from_relation(&nest);
    let full = Value::text("Full");
    let inner = vec!["CName".to_string()];

    let cases = [
        (
            "σ rank=Full",
            allocs_in(|| rel.select_eq("P.Rank", &full).unwrap()),
            allocs_in(|| col.take(&col.select_eq_const(2, &full))),
        ),
        (
            "π dedup key",
            allocs_in(|| rel.project(&["P.K"]).unwrap()),
            allocs_in(|| col.project_cols(&[1])),
        ),
        (
            "⋈ pointer join",
            allocs_in(|| rel.join(&right, &[("P.K", "R.K")]).unwrap()),
            allocs_in(|| col.join_on(&right_col, &[(1, 1)])),
        ),
        (
            "μ unnest",
            allocs_in(|| nest.unnest("P.Courses", &inner).unwrap()),
            allocs_in(|| nest_col.unnest("P.Courses", &inner).unwrap()),
        ),
    ];
    for ((op, row, columnar), (name, measured, budget)) in cases.into_iter().zip(BUDGETS) {
        assert_eq!(op, name);
        println!(
            "{op:<16} row {row:>8} allocs -> columnar {columnar:>6} allocs \
             (measured {measured}, budget {budget})"
        );
        assert!(
            columnar <= row,
            "{op}: the columnar kernel allocates {columnar} times, the row operator {row}"
        );
        assert!(
            columnar <= budget,
            "{op}: the columnar kernel allocates {columnar} times, budget {budget}"
        );
    }
}
