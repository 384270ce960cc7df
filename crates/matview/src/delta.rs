//! Delta types: page-level changes and weighted row multisets.
//!
//! A change-feed entry turns into one [`PageDelta`] — "the page at `url`
//! went from `old` to `new`" — and each operator turns page deltas into
//! **row deltas**: `(row, weight)` pairs where a positive weight inserts
//! and a negative weight retracts. Operator state and view answers are
//! weighted multisets ([`RowSet`], and [`Answer`] — the same multiset kept
//! in answer order); a row is *in* the answer iff its net weight is
//! positive, and consolidation keeps every map free of zero entries so
//! state size tracks the live rows only.

use adm::{Tuple, Url, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap, HashMap};

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

/// The deterministic order every answer comparison uses: column by column
/// under [`Value::total_cmp`], a prefix before its extensions.
pub fn row_cmp(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.total_cmp(y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Renders a multiset as sorted rows (each repeated its weight's worth),
/// in [`row_cmp`] order.
pub fn sorted_rows(set: &RowSet) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for (row, w) in set {
        for _ in 0..(*w).max(0) {
            rows.push(row.clone());
        }
    }
    rows.sort_by(|a, b| row_cmp(a, b));
    rows
}

/// A row as a key of [`Answer`]: ordered by [`row_cmp`], which calls two
/// rows equal exactly when they are.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AnswerRow(Vec<Value>);

impl Ord for AnswerRow {
    fn cmp(&self, other: &Self) -> Ordering {
        row_cmp(&self.0, &other.0)
    }
}

impl PartialOrd for AnswerRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A view's maintained answer: the weighted multiset of a [`RowSet`], kept
/// in [`row_cmp`] order as the deltas fold in, so that reading it is a walk
/// — [`Answer::rows`] returns what [`sorted_rows`] would, without sorting.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    rows: BTreeMap<AnswerRow, i64>,
}

impl Answer {
    /// Folds one weighted row in, dropping the entry when its net weight
    /// reaches zero.
    pub fn add(&mut self, row: Vec<Value>, w: i64) {
        if w == 0 {
            return;
        }
        match self.rows.entry(AnswerRow(row)) {
            btree_map::Entry::Occupied(mut o) => {
                *o.get_mut() += w;
                if *o.get() == 0 {
                    o.remove();
                }
            }
            btree_map::Entry::Vacant(v) => {
                v.insert(w);
            }
        }
    }

    /// The rows in order, each repeated its weight's worth.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::with_capacity(self.rows.len());
        for (row, w) in &self.rows {
            for _ in 0..(*w).max(0) {
                rows.push(row.0.clone());
            }
        }
        rows
    }
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
    fn an_answer_reads_as_its_row_set_sorted_whatever_the_history() {
        // a seeded walk of inserts and retractions over a small row space,
        // with duplicates, nulls, links, ragged lengths and negative nets
        let cell = |k: u64| match k % 4 {
            0 => Value::Null,
            1 => Value::text(format!("t{}", k % 7)),
            2 => Value::link(format!("/p/{}.html", k % 5)),
            _ => Value::text(""),
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut set = RowSet::new();
        let mut answer = Answer::default();
        for step in 0..2_000 {
            let row: Vec<Value> = (0..1 + next() % 3).map(|_| cell(next())).collect();
            let w = [1, 1, 2, -1, -1, -3][(next() % 6) as usize];
            add_row(&mut set, row.clone(), w);
            answer.add(row, w);
            if step % 97 == 0 {
                assert_eq!(answer.rows(), sorted_rows(&set), "step {step}");
            }
        }
        assert_eq!(answer.rows(), sorted_rows(&set));
        assert_eq!(answer.rows.len(), set.len(), "no zero-weight entries");
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
