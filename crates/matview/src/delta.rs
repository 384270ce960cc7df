//! Delta types: page-level changes and weighted row multisets.
//!
//! A change-feed entry turns into one [`PageDelta`] — "the page at `url`
//! went from `old` to `new`" — and each operator turns page deltas into
//! **row deltas**: `(row, weight)` pairs where a positive weight inserts
//! and a negative weight retracts. Operator state and view answers are
//! weighted multisets ([`RowSet`]); a row is *in* the answer iff its net
//! weight is positive, and consolidation keeps every map free of zero
//! entries so state size tracks the live rows only.

use adm::{Tuple, Url, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One page-level change as the operator tree sees it.
#[derive(Debug, Clone)]
pub struct PageDelta {
    /// The changed URL.
    pub url: Url,
    /// The page-scheme of the page.
    pub scheme: String,
    /// The content before the change; `None` when the page was absent —
    /// or when it was known but its payload had been evicted, in which
    /// case `was_known` distinguishes the two.
    pub old: Option<Tuple>,
    /// The content after the change; `None` for a removal.
    pub new: Option<Tuple>,
    /// True when the store knew the page (resident or evicted skeleton)
    /// before the change. `old == None && was_known` means the prior
    /// content is unrecoverable and dependent state must rebuild.
    pub was_known: bool,
}

/// A weighted row multiset; zero-weight entries are never stored.
pub type RowSet = HashMap<Vec<Value>, i64>;

/// A batch of row deltas flowing between operators.
pub type RowDeltas = Vec<(Vec<Value>, i64)>;

/// Folds one weighted row into a multiset, dropping the entry when its
/// net weight reaches zero.
pub fn add_row(set: &mut RowSet, row: Vec<Value>, w: i64) {
    if w == 0 {
        return;
    }
    match set.entry(row) {
        Entry::Occupied(mut o) => {
            *o.get_mut() += w;
            if *o.get() == 0 {
                o.remove();
            }
        }
        Entry::Vacant(v) => {
            v.insert(w);
        }
    }
}

/// Estimated in-memory footprint of one row, mirroring
/// [`adm::Tuple::approx_bytes`] so page and operator budgets use the same
/// unit.
pub fn row_bytes(row: &[Value]) -> usize {
    row.iter().map(Value::approx_bytes).sum()
}

/// Renders a multiset as sorted rows (each repeated its weight's worth),
/// the deterministic order every answer comparison uses.
pub fn sorted_rows(set: &RowSet) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for (row, w) in set {
        for _ in 0..(*w).max(0) {
            rows.push(row.clone());
        }
    }
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_row_consolidates_to_zero() {
        let mut s = RowSet::new();
        let row = vec![Value::text("a")];
        add_row(&mut s, row.clone(), 2);
        add_row(&mut s, row.clone(), -1);
        assert_eq!(s.get(&row), Some(&1));
        add_row(&mut s, row.clone(), -1);
        assert!(s.is_empty(), "zero-weight entries are dropped");
    }

    #[test]
    fn sorted_rows_expands_weights_deterministically() {
        let mut s = RowSet::new();
        add_row(&mut s, vec![Value::text("b")], 1);
        add_row(&mut s, vec![Value::text("a")], 2);
        let rows = sorted_rows(&s);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::text("a")]);
        assert_eq!(rows[1], vec![Value::text("a")]);
        assert_eq!(rows[2], vec![Value::text("b")]);
    }
}
