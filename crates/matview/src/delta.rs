//! Delta types: page-level changes and weighted row multisets.
//!
//! A change-feed entry turns into one [`PageDelta`] — "the page at `url`
//! went from `old` to `new`" — and each operator turns page deltas into
//! **row deltas**: `(row, weight)` pairs where a positive weight inserts
//! and a negative weight retracts. Operator state and view answers are
//! weighted multisets ([`RowSet`], and [`Answer`] — the same multiset kept
//! as the rows a reader gets); a row is *in* the answer iff its net weight
//! is positive, and consolidation keeps every map free of zero entries so
//! state size tracks the live rows only.

use adm::{Tuple, Url, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One page-level change as the operator tree sees it. Both versions are
/// references: `old` is the copy the store gave up, `new` the one it now
/// holds — a sync copies neither.
#[derive(Debug, Clone)]
pub struct PageDelta {
    /// The changed URL.
    pub url: Url,
    /// The page-scheme of the page.
    pub scheme: String,
    /// The content before the change; `None` when the page was absent —
    /// or when it was known but its payload had been evicted, in which
    /// case `was_known` distinguishes the two.
    pub old: Option<Arc<Tuple>>,
    /// The content after the change; `None` for a removal.
    pub new: Option<Arc<Tuple>>,
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

/// A view's maintained answer: the weighted multiset of a [`RowSet`], kept
/// **in the one form it is read in** — the rows in [`row_cmp`] order, each
/// repeated its weight's worth, exactly what [`sorted_rows`] would render —
/// behind an `Arc`. Reading it ([`Answer::rows`]) is a reference bump,
/// whatever the answer's size; the writer does the work: [`Answer::add`]
/// finds a row's run by binary search and splices copies in or out.
///
/// The ordered rows are the only ordered structure. A row whose net weight
/// is negative (a retraction that arrived before its insertion) has no place
/// among rows that are *in* the answer; it waits in a small side map until
/// insertions cancel it.
///
/// **A reader that keeps an answer keeps that answer.** The rows are
/// copy-on-write: while a reader still holds the `Arc` of an earlier read,
/// the next `add` copies the rows once and writes to the copy — the writer
/// pays one copy for the batch, and the reader never sees a row change.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    rows: Arc<Vec<Vec<Value>>>,
    /// Net-negative weights, keyed by row; never a zero, never a positive.
    owed: RowSet,
}

impl Answer {
    /// Folds one weighted row in: a positive weight first pays off what the
    /// row owes, then inserts that many copies at the row's place; a
    /// negative weight removes copies, and owes what it could not remove.
    pub fn add(&mut self, row: Vec<Value>, w: i64) {
        if w == 0 {
            return;
        }
        let lo = self
            .rows
            .partition_point(|r| row_cmp(r, &row) == Ordering::Less);
        let present = self.rows[lo..]
            .iter()
            .take_while(|r| row_cmp(r, &row) == Ordering::Equal)
            .count() as i64;
        // the row's net weight before and after: present copies, or a debt
        let before = match present {
            0 => self.owed.get(&row).copied().unwrap_or(0),
            n => n,
        };
        let after = before + w;
        let (had, want) = (before.max(0) as usize, after.max(0) as usize);
        if want < had {
            Arc::make_mut(&mut self.rows).drain(lo + want..lo + had);
        }
        if before < 0 && after >= 0 {
            self.owed.remove(&row);
        }
        if after < 0 {
            self.owed.insert(row, after);
        } else if want > had {
            let copies = std::iter::repeat_n(row, want - had);
            Arc::make_mut(&mut self.rows).splice(lo..lo, copies);
        }
    }

    /// The rows in order, each repeated its weight's worth — shared, not
    /// copied.
    pub fn rows(&self) -> Arc<Vec<Vec<Value>>> {
        Arc::clone(&self.rows)
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
        // with duplicates, nulls, links, ragged lengths and negative nets;
        // a reader keeps the answer it read at the previous check across
        // the writes that follow
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
        // what the reader holds, and a deep copy taken when it was read
        let mut held = (answer.rows(), sorted_rows(&set));
        let (mut saw_duplicates, mut saw_debt, mut saw_repaid) = (false, false, false);
        for step in 0..2_000 {
            let row: Vec<Value> = (0..1 + next() % 3).map(|_| cell(next())).collect();
            let w = [1, 1, 2, -1, -1, -3][(next() % 6) as usize];
            saw_repaid |= w > 0 && answer.owed.contains_key(&row);
            add_row(&mut set, row.clone(), w);
            answer.add(row, w);
            saw_duplicates |= set.values().any(|w| *w > 1);
            saw_debt |= !answer.owed.is_empty();
            if step % 97 == 0 {
                assert_eq!(*answer.rows(), sorted_rows(&set), "step {step}");
                assert_eq!(*held.0, held.1, "a kept answer moved by step {step}");
                held = (answer.rows(), sorted_rows(&set));
            }
        }
        assert_eq!(*answer.rows(), sorted_rows(&set));
        assert_eq!(*held.0, held.1);
        assert!(saw_duplicates && saw_debt && saw_repaid, "the walk covers");
        // one entry a row, in the rows or in the side map, never both, and
        // no zero anywhere
        let mut distinct = answer.rows().to_vec();
        distinct.dedup();
        assert!(distinct.iter().all(|r| !answer.owed.contains_key(r)));
        assert!(answer.owed.values().all(|w| *w < 0));
        assert_eq!(distinct.len() + answer.owed.len(), set.len());
    }

    #[test]
    fn a_read_shares_the_rows_and_a_write_never_reaches_a_reader() {
        let row = |s: &str| vec![Value::text(s)];
        let mut answer = Answer::default();
        answer.add(row("b"), 1);
        answer.add(row("a"), 2);
        let first = answer.rows();
        assert!(Arc::ptr_eq(&first, &answer.rows()), "a read is a reference");
        // the writer copies once for a reader that is still holding on …
        answer.add(row("c"), 1);
        answer.add(row("a"), -1);
        assert_eq!(*first, vec![row("a"), row("a"), row("b")]);
        assert_eq!(*answer.rows(), vec![row("a"), row("b"), row("c")]);
        // … and writes in place once the reader has let go
        drop(first);
        let before = Arc::as_ptr(&answer.rows);
        answer.add(row("d"), 1);
        assert_eq!(before, Arc::as_ptr(&answer.rows));
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
