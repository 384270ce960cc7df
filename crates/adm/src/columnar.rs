//! Columnar page-relations with chunk-at-a-time kernels.
//!
//! [`ColumnRel`] is the evaluator's internal representation of a
//! [`Relation`]: one typed vector per attribute (text codes, link codes,
//! nested relations as child columns plus an offset list) with validity
//! bitmaps for nulls. A code is a string's number in the relation's value
//! [`Dict`], which the relation holds through an `Arc`: one evaluation
//! builds all its relations in one dictionary, and it is freed with the
//! last of them (see [`crate::intern`]). Column names are global
//! [`Symbol`]s. [`Value`]/[`Tuple`] remain the public boundary type —
//! `to_relation`/`from_relation` convert at the edges.
//!
//! The kernels mirror the row-at-a-time operators of [`Relation`] exactly:
//! selection produces index vectors, projection deduplicates by hashing
//! token-encoded column slices, the equi-join probes a hash table of
//! codes in batches, and unnest expands offset ranges. Output *order*
//! is identical to the row path (selection preserves input order, projection
//! keeps first appearance, join emits left order × right match order), so
//! results are byte-identical, not merely set-equal.
//!
//! # Two dictionaries
//!
//! A kernel over two relations ([`ColumnRel::join_on`],
//! [`ColumnRel::take_pairs`], [`ColumnRel::hstack`]) compares codes when
//! both share a dictionary. When they do not — relations built apart, as
//! [`ColumnRel::from_relation`] and each wrapped page build them — it first
//! re-encodes the right-hand one into the left one's dictionary through
//! its strings, and the output is in the left one's. The evaluator never
//! takes that path.
//!
//! # Null vs empty list
//!
//! A nested column's validity bitmap distinguishes `Null` from `List([])` —
//! both produce zero child rows, but they are different values and must
//! round-trip exactly.
//!
//! # Heterogeneous columns
//!
//! Page data is schema-driven and always columnarizes into typed vectors.
//! Hand-built relations (tests, external sources) can mix types within a
//! column or nest tuples with differing field names; such columns degrade to
//! a [`ColumnData::Values`] fallback that stores boundary values directly
//! and keeps row-compatible semantics.

use crate::error::AdmError;
use crate::intern::{Dict, Strings, Symbol};
use crate::relation::Relation;
use crate::url::Url;
use crate::value::{Cell, EncodedTuple, Reader, Tuple, Value};
use crate::Result;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A validity bitmap: bit *i* set ⇔ row *i* is non-null.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    bits: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Appends one bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if valid {
            self.bits[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends `n` valid bits.
    pub fn push_valid_n(&mut self, n: usize) {
        for _ in 0..n {
            self.push(true);
        }
    }

    /// The bit at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The typed payload of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Text codes in the relation's dictionary; entries at invalid rows
    /// are placeholders.
    Text(Vec<u32>),
    /// Link (URL) codes in the relation's dictionary; entries at invalid
    /// rows are placeholders.
    Link(Vec<u32>),
    /// Nested relation: row *i* spans child rows `offsets[i]..offsets[i+1]`.
    Nested {
        /// `len + 1` monotone offsets into the child relation.
        offsets: Vec<u32>,
        /// The child columns (inner tuple fields, unqualified names).
        child: Box<ColumnRel>,
    },
    /// Fallback for heterogeneous columns: boundary values stored directly.
    Values(Vec<Value>),
}

/// One column: typed data plus a validity bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    /// The typed payload.
    pub data: ColumnData,
    /// Validity: set ⇔ non-null. (For [`ColumnData::Values`] the stored
    /// value is authoritative; the bitmap is kept consistent anyway.)
    pub validity: Bitmap,
}

/// A columnar relation: named typed columns of equal length, whose text
/// and link cells — nested ones included — are codes in one [`Dict`].
///
/// `Debug` prints each cell's string, never its code, so two relations
/// built alike print alike whatever order their strings were first met in.
#[derive(Clone)]
pub struct ColumnRel {
    names: Vec<Symbol>,
    cols: Vec<Column>,
    len: usize,
    dict: Arc<Dict>,
}

/// The code at a row that holds no string: never read as one.
const PLACEHOLDER: u32 = 0;

impl ColumnRel {
    /// A one-column relation of non-null links, from codes already in
    /// `dict` — the URL column of a page-relation, whose URLs the evaluator
    /// holds as codes before any page arrives.
    pub fn of_links(name: Symbol, dict: &Arc<Dict>, codes: Vec<u32>) -> Self {
        let mut validity = Bitmap::new();
        validity.push_valid_n(codes.len());
        ColumnRel {
            names: vec![name],
            len: codes.len(),
            cols: vec![Column {
                data: ColumnData::Link(codes),
                validity,
            }],
            dict: Arc::clone(dict),
        }
    }

    /// An empty relation with the given header, in a dictionary of its own.
    pub fn empty<S: AsRef<str>>(names: &[S]) -> Self {
        ColumnRel {
            names: names.iter().map(|n| Symbol::intern(n.as_ref())).collect(),
            cols: names
                .iter()
                .map(|_| Column {
                    data: ColumnData::Values(Vec::new()),
                    validity: Bitmap::new(),
                })
                .collect(),
            len: 0,
            dict: Arc::default(),
        }
    }

    /// A relation of no columns and no rows in `dict`: the child of a
    /// list column that never met an inner tuple.
    fn no_columns(dict: &Arc<Dict>) -> Self {
        ColumnRel {
            names: Vec::new(),
            cols: Vec::new(),
            len: 0,
            dict: Arc::clone(dict),
        }
    }

    /// Column header symbols.
    pub fn names(&self) -> &[Symbol] {
        &self.names
    }

    /// The dictionary the text and link codes are codes in.
    pub fn dict(&self) -> &Arc<Dict> {
        &self.dict
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resolves a column reference by [`crate::name`]'s rule.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        crate::name::resolve(&self.names, name, |c| {
            crate::name::binding(&[c.as_str()], &[name])
        })
    }

    /// True if the cell at `(row, col)` is null.
    #[inline]
    pub fn is_null_at(&self, row: usize, col: usize) -> bool {
        match &self.cols[col].data {
            ColumnData::Values(vs) => vs[row].is_null(),
            _ => !self.cols[col].validity.get(row),
        }
    }

    /// Materializes the cell at `(row, col)` as a boundary [`Value`].
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.value_in(&self.dict.lock(), row, col)
    }

    /// [`ColumnRel::value_at`] with the dictionary's strings in hand: a
    /// nested cell reads its child, which shares them, through the same.
    fn value_in(&self, s: &Strings, row: usize, col: usize) -> Value {
        let c = &self.cols[col];
        match &c.data {
            ColumnData::Text(ids) => {
                if c.validity.get(row) {
                    Value::Text(s.get(ids[row]).to_string())
                } else {
                    Value::Null
                }
            }
            ColumnData::Link(ids) => {
                if c.validity.get(row) {
                    Value::Link(Url::new(s.get(ids[row])))
                } else {
                    Value::Null
                }
            }
            ColumnData::Nested { offsets, child } => {
                if c.validity.get(row) {
                    let lo = offsets[row] as usize;
                    let hi = offsets[row + 1] as usize;
                    Value::List((lo..hi).map(|r| child.tuple_in(s, r)).collect())
                } else {
                    Value::Null
                }
            }
            ColumnData::Values(vs) => vs[row].clone(),
        }
    }

    /// Materializes row `r` as a [`Tuple`] over the column names (symbols
    /// on both sides: no name is copied).
    pub fn tuple_at(&self, row: usize) -> Tuple {
        self.tuple_in(&self.dict.lock(), row)
    }

    fn tuple_in(&self, s: &Strings, row: usize) -> Tuple {
        Tuple::from_pairs(
            (0..self.cols.len())
                .map(|c| (self.names[c], self.value_in(s, row, c)))
                .collect(),
        )
    }

    /// The link's code at `(row, col)` in this relation's dictionary, or
    /// `None` for null. Errors with the same `TypeMismatch` as the row path
    /// when the cell holds a non-link, non-null value.
    pub fn link_at(&self, row: usize, col: usize) -> Result<Option<u32>> {
        let c = &self.cols[col];
        let type_err = |found: String| AdmError::TypeMismatch {
            attr: self.names[col].as_str().to_string(),
            expected: "link",
            found,
        };
        match &c.data {
            ColumnData::Link(ids) => Ok(c.validity.get(row).then(|| ids[row])),
            ColumnData::Text(_) | ColumnData::Nested { .. } => {
                if c.validity.get(row) {
                    Err(type_err(format!("{:?}", self.value_at(row, col))))
                } else {
                    Ok(None)
                }
            }
            ColumnData::Values(vs) => match &vs[row] {
                Value::Link(u) => Ok(Some(self.dict.code(u.as_str()))),
                Value::Null => Ok(None),
                other => Err(type_err(format!("{other:?}"))),
            },
        }
    }

    // ---- token encoding (equality keys for dedup / join) ----------------

    /// Appends a prefix-free token encoding of the cell to `out`. Two cells
    /// of relations in one dictionary `s` encode identically iff their
    /// boundary [`Value`]s are equal, so token vectors are exact
    /// hash/equality keys for dedup and join. A text or link of a
    /// heterogeneous column is given its code in `s` here.
    fn encode_cell(&self, row: usize, col: usize, s: &mut Strings, out: &mut Vec<u64>) {
        let c = &self.cols[col];
        match &c.data {
            ColumnData::Text(ids) => {
                if c.validity.get(row) {
                    out.push(1);
                    out.push(u64::from(ids[row]));
                } else {
                    out.push(0);
                }
            }
            ColumnData::Link(ids) => {
                if c.validity.get(row) {
                    out.push(2);
                    out.push(u64::from(ids[row]));
                } else {
                    out.push(0);
                }
            }
            ColumnData::Nested { offsets, child } => {
                if c.validity.get(row) {
                    let lo = offsets[row] as usize;
                    let hi = offsets[row + 1] as usize;
                    out.push(3);
                    out.push((hi - lo) as u64);
                    for r in lo..hi {
                        out.push(4);
                        out.push(child.cols.len() as u64);
                        for (ci, name) in child.names.iter().enumerate() {
                            out.push(name.id() as u64);
                            child.encode_cell(r, ci, s, out);
                        }
                    }
                } else {
                    out.push(0);
                }
            }
            ColumnData::Values(vs) => encode_value(&vs[row], s, out),
        }
    }

    /// This relation with its codes in `dict`: itself when that is its
    /// dictionary, else a copy re-encoded through its strings.
    fn in_dict(&self, dict: &Arc<Dict>) -> Cow<'_, ColumnRel> {
        if Arc::ptr_eq(&self.dict, dict) {
            return Cow::Borrowed(self);
        }
        // A copy of the strings, so no two dictionaries are ever locked
        // at once.
        let from = self.dict.lock().clone();
        Cow::Owned(self.recoded(&from, &mut dict.lock(), dict))
    }

    fn recoded(&self, from: &Strings, to: &mut Strings, dict: &Arc<Dict>) -> ColumnRel {
        let recode = |ids: &[u32], validity: &Bitmap, to: &mut Strings| -> Vec<u32> {
            (ids.iter().enumerate())
                .map(|(i, &c)| match validity.get(i) {
                    true => to.code(from.get(c)),
                    false => PLACEHOLDER,
                })
                .collect()
        };
        let cols = (self.cols.iter())
            .map(|c| Column {
                data: match &c.data {
                    ColumnData::Text(ids) => ColumnData::Text(recode(ids, &c.validity, to)),
                    ColumnData::Link(ids) => ColumnData::Link(recode(ids, &c.validity, to)),
                    ColumnData::Nested { offsets, child } => ColumnData::Nested {
                        offsets: offsets.clone(),
                        child: Box::new(child.recoded(from, to, dict)),
                    },
                    ColumnData::Values(vs) => ColumnData::Values(vs.clone()),
                },
                validity: c.validity.clone(),
            })
            .collect();
        ColumnRel {
            names: self.names.clone(),
            cols,
            len: self.len,
            dict: Arc::clone(dict),
        }
    }
}

/// Token-encodes a boundary [`Value`] with the same scheme as
/// [`ColumnRel::encode_cell`], giving a text or link its code in `s`.
fn encode_value(v: &Value, s: &mut Strings, out: &mut Vec<u64>) {
    match v {
        Value::Null => out.push(0),
        Value::Text(t) => {
            out.push(1);
            out.push(u64::from(s.code(t)));
        }
        Value::Link(u) => {
            out.push(2);
            out.push(u64::from(s.code(u.as_str())));
        }
        Value::List(ts) => {
            out.push(3);
            out.push(ts.len() as u64);
            for t in ts {
                out.push(4);
                out.push(t.len() as u64);
                for (n, v) in t.fields() {
                    out.push(n.id() as u64);
                    encode_value(v, s, out);
                }
            }
        }
    }
}

fn take_bitmap(b: &Bitmap, idx: &[u32]) -> Bitmap {
    let mut out = Bitmap::new();
    for &i in idx {
        out.push(b.get(i as usize));
    }
    out
}

fn take_column(col: &Column, idx: &[u32]) -> Column {
    match &col.data {
        ColumnData::Text(ids) => Column {
            data: ColumnData::Text(idx.iter().map(|&i| ids[i as usize]).collect()),
            validity: take_bitmap(&col.validity, idx),
        },
        ColumnData::Link(ids) => Column {
            data: ColumnData::Link(idx.iter().map(|&i| ids[i as usize]).collect()),
            validity: take_bitmap(&col.validity, idx),
        },
        ColumnData::Nested { offsets, child } => {
            let mut new_offsets = Vec::with_capacity(idx.len() + 1);
            let mut child_idx: Vec<u32> = Vec::new();
            new_offsets.push(0u32);
            for &i in idx {
                let lo = offsets[i as usize];
                let hi = offsets[i as usize + 1];
                child_idx.extend(lo..hi);
                new_offsets.push(child_idx.len() as u32);
            }
            Column {
                data: ColumnData::Nested {
                    offsets: new_offsets,
                    child: Box::new(child.take(&child_idx)),
                },
                validity: take_bitmap(&col.validity, idx),
            }
        }
        ColumnData::Values(vs) => Column {
            data: ColumnData::Values(idx.iter().map(|&i| vs[i as usize].clone()).collect()),
            validity: take_bitmap(&col.validity, idx),
        },
    }
}

impl ColumnRel {
    // ---- kernels ---------------------------------------------------------

    /// Gathers the rows named by `idx` (in that order).
    pub fn take(&self, idx: &[u32]) -> ColumnRel {
        ColumnRel {
            names: self.names.clone(),
            cols: self.cols.iter().map(|c| take_column(c, idx)).collect(),
            len: idx.len(),
            dict: Arc::clone(&self.dict),
        }
    }

    /// Selection `column = constant`: returns matching row indices in input
    /// order. `Null` constants match null cells (as in the row path, where
    /// `Value::Null == Value::Null`).
    pub fn select_eq_const(&self, col: usize, value: &Value) -> Vec<u32> {
        let c = &self.cols[col];
        match (&c.data, value) {
            (ColumnData::Text(ids), Value::Text(s)) => match self.dict.lookup(s) {
                None => Vec::new(),
                Some(want) => (0..self.len)
                    .filter(|&i| c.validity.get(i) && ids[i] == want)
                    .map(|i| i as u32)
                    .collect(),
            },
            (ColumnData::Link(ids), Value::Link(u)) => match self.dict.lookup(u.as_str()) {
                None => Vec::new(),
                Some(want) => (0..self.len)
                    .filter(|&i| c.validity.get(i) && ids[i] == want)
                    .map(|i| i as u32)
                    .collect(),
            },
            (_, Value::Null) => (0..self.len)
                .filter(|&i| self.is_null_at(i, col))
                .map(|i| i as u32)
                .collect(),
            (ColumnData::Values(vs), v) => (0..self.len)
                .filter(|&i| &vs[i] == v)
                .map(|i| i as u32)
                .collect(),
            (ColumnData::Nested { .. }, Value::List(_)) => (0..self.len)
                .filter(|&i| &self.value_at(i, col) == value)
                .map(|i| i as u32)
                .collect(),
            // typed column vs mismatched constant type: never equal
            _ => Vec::new(),
        }
    }

    /// Selection `column_a = column_b` (null never equal): matching row
    /// indices in input order.
    pub fn select_eq_cols(&self, a: usize, b: usize) -> Vec<u32> {
        let (ca, cb) = (&self.cols[a], &self.cols[b]);
        match (&ca.data, &cb.data) {
            (ColumnData::Text(x), ColumnData::Text(y))
            | (ColumnData::Link(x), ColumnData::Link(y)) => (0..self.len)
                .filter(|&i| ca.validity.get(i) && cb.validity.get(i) && x[i] == y[i])
                .map(|i| i as u32)
                .collect(),
            (ColumnData::Text(_), ColumnData::Link(_))
            | (ColumnData::Link(_), ColumnData::Text(_)) => Vec::new(),
            _ => (0..self.len)
                .filter(|&i| !self.is_null_at(i, a) && self.value_at(i, a) == self.value_at(i, b))
                .map(|i| i as u32)
                .collect(),
        }
    }

    /// Projection onto columns `idx` with set-semantics dedup (first
    /// appearance wins), hashing token-encoded column slices.
    pub fn project_cols(&self, idx: &[usize]) -> ColumnRel {
        // Single text or link column: the whole cell packs into one u64
        // (tag ≪ 32 | code, 0 = null), so dedup needs no key vectors
        // at all — this is the hot shape (π onto a key or URL column).
        let keep: Vec<u32> = if let [c] = idx {
            let col = &self.cols[*c];
            match &col.data {
                ColumnData::Text(ids) | ColumnData::Link(ids) => {
                    let tag: u64 = match &col.data {
                        ColumnData::Text(_) => 1,
                        _ => 2,
                    };
                    let mut seen: HashSet<u64> = HashSet::with_capacity(self.len.min(1024));
                    (0..self.len)
                        .filter(|&row| {
                            let token = if col.validity.get(row) {
                                (tag << 32) | u64::from(ids[row])
                            } else {
                                0
                            };
                            seen.insert(token)
                        })
                        .map(|row| row as u32)
                        .collect()
                }
                _ => self.dedup_rows(idx),
            }
        } else {
            self.dedup_rows(idx)
        };
        ColumnRel {
            names: idx.iter().map(|&i| self.names[i]).collect(),
            cols: idx
                .iter()
                .map(|&i| take_column(&self.cols[i], &keep))
                .collect(),
            len: keep.len(),
            dict: Arc::clone(&self.dict),
        }
    }

    /// General dedup over token-encoded multi-column keys: rows whose key
    /// is new, in input order. The key buffer is reused; the set only
    /// clones a key the first time it appears.
    fn dedup_rows(&self, idx: &[usize]) -> Vec<u32> {
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut keep: Vec<u32> = Vec::new();
        let mut key: Vec<u64> = Vec::new();
        let mut s = self.dict.lock();
        for row in 0..self.len {
            key.clear();
            for &c in idx {
                self.encode_cell(row, c, &mut s, &mut key);
            }
            if !seen.contains(&key) {
                seen.insert(key.clone());
                keep.push(row as u32);
            }
        }
        keep
    }

    /// Projection by column names (resolution as in the row path).
    pub fn project(&self, cols: &[&str]) -> Result<ColumnRel> {
        let idx: Vec<usize> = cols
            .iter()
            .map(|c| self.resolve(c))
            .collect::<Result<_>>()?;
        Ok(self.project_cols(&idx))
    }

    /// Removes duplicate rows (first appearance wins).
    pub fn distinct(&self) -> ColumnRel {
        self.project_cols(&(0..self.cols.len()).collect::<Vec<_>>())
    }

    /// Glues two relations of equal length side by side, in `self`'s
    /// dictionary; relations of different lengths are a
    /// [`AdmError::RowCountMismatch`].
    pub fn hstack(mut self, other: ColumnRel) -> Result<ColumnRel> {
        if self.len != other.len {
            return Err(AdmError::RowCountMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let other = match Arc::ptr_eq(&self.dict, &other.dict) {
            true => other,
            false => other.in_dict(&self.dict).into_owned(),
        };
        self.names.extend(other.names);
        self.cols.extend(other.cols);
        Ok(self)
    }

    /// The rows `self[l] ++ other[r]`, one for each pair `(l, r)` in order,
    /// in `self`'s dictionary: the gather that assembles a join's or a
    /// follow's output. Both sides are gathered through the one list of
    /// pairs, so they cannot differ in length.
    pub fn take_pairs(&self, other: &ColumnRel, pairs: &[(u32, u32)]) -> ColumnRel {
        let other = other.in_dict(&self.dict);
        let (left, right): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
        let mut out = self.take(&left);
        out.names.extend_from_slice(&other.names);
        out.cols
            .extend(other.cols.iter().map(|c| take_column(c, &right)));
        out
    }

    /// Equi-join on column index pairs: hashes the right side on token-
    /// encoded keys (null keys never join), probes left rows in order.
    /// Output rows are left order × right match order, columns are
    /// `self ++ other` — exactly the row path. The keys are codes in
    /// `self`'s dictionary.
    pub fn join_on(&self, other: &ColumnRel, on: &[(usize, usize)]) -> ColumnRel {
        let right = other.in_dict(&self.dict);
        let mut table: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
        let mut key: Vec<u64> = Vec::new();
        let mut s = self.dict.lock();
        'right: for row in 0..right.len {
            key.clear();
            for &(_, rc) in on {
                if right.is_null_at(row, rc) {
                    continue 'right;
                }
                right.encode_cell(row, rc, &mut s, &mut key);
            }
            // clone the key only on first appearance — the buffer is reused
            match table.get_mut(&key) {
                Some(rows) => rows.push(row as u32),
                None => {
                    table.insert(key.clone(), vec![row as u32]);
                }
            }
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        'left: for row in 0..self.len {
            key.clear();
            for &(lc, _) in on {
                if self.is_null_at(row, lc) {
                    continue 'left;
                }
                self.encode_cell(row, lc, &mut s, &mut key);
            }
            if let Some(matches) = table.get(&key) {
                pairs.extend(matches.iter().map(|&m| (row as u32, m)));
            }
        }
        drop(s);
        self.take_pairs(&right, &pairs)
    }

    /// Equi-join on named column pairs (see [`ColumnRel::join_on`]).
    pub fn join(&self, other: &ColumnRel, on: &[(&str, &str)]) -> Result<ColumnRel> {
        let idx: Vec<(usize, usize)> = on
            .iter()
            .map(|(l, r)| Ok((self.resolve(l)?, other.resolve(r)?)))
            .collect::<Result<_>>()?;
        Ok(self.join_on(other, &idx))
    }

    /// Unnests a list column: child rows expand via the offset list, the
    /// remaining parent columns gather through a repeat-index vector, and
    /// each requested inner field becomes `{col}.{field}` (null where the
    /// child lacks the field). Null lists produce no rows; a non-list cell
    /// is a `TypeMismatch`, as in the row path.
    pub fn unnest(&self, column: &str, inner_fields: &[String]) -> Result<ColumnRel> {
        let ci = self.resolve(column)?;
        let col_name = self.names[ci].as_str();
        let mut names: Vec<Symbol> = Vec::with_capacity(self.names.len() - 1 + inner_fields.len());
        for (i, n) in self.names.iter().enumerate() {
            if i != ci {
                names.push(*n);
            }
        }
        for f in inner_fields {
            names.push(Symbol::intern(&format!("{col_name}.{f}")));
        }

        match &self.cols[ci].data {
            ColumnData::Nested { offsets, child } => {
                let mut repeat: Vec<u32> = Vec::new();
                let mut child_idx: Vec<u32> = Vec::new();
                for row in 0..self.len {
                    let lo = offsets[row];
                    let hi = offsets[row + 1];
                    for c in lo..hi {
                        repeat.push(row as u32);
                        child_idx.push(c);
                    }
                }
                let mut cols: Vec<Column> = Vec::with_capacity(names.len());
                for (i, c) in self.cols.iter().enumerate() {
                    if i != ci {
                        cols.push(take_column(c, &repeat));
                    }
                }
                for f in inner_fields {
                    match child.names.iter().position(|n| n.as_str() == f) {
                        Some(cc) => cols.push(take_column(&child.cols[cc], &child_idx)),
                        None => cols.push(Column {
                            data: ColumnData::Values(vec![Value::Null; child_idx.len()]),
                            validity: {
                                let mut b = Bitmap::new();
                                for _ in 0..child_idx.len() {
                                    b.push(false);
                                }
                                b
                            },
                        }),
                    }
                }
                Ok(ColumnRel {
                    names,
                    cols,
                    len: child_idx.len(),
                    dict: Arc::clone(&self.dict),
                })
            }
            _ => {
                // Row-wise fallback, preserving the row path's semantics:
                // null ≡ empty list, anything else is a type error.
                let names = names.into_iter().map(|n| (n, Keep::All)).collect();
                let mut b = ColumnRelBuilder::in_dict(&self.dict, names);
                for row in 0..self.len {
                    let v = self.value_at(row, ci);
                    let Value::List(inner) = v else {
                        if v.is_null() {
                            continue;
                        }
                        return Err(AdmError::TypeMismatch {
                            attr: col_name.to_string(),
                            expected: "list",
                            found: format!("{v:?}"),
                        });
                    };
                    for t in &inner {
                        let mut out: Vec<Value> =
                            Vec::with_capacity(self.cols.len() - 1 + inner_fields.len());
                        for i in 0..self.cols.len() {
                            if i != ci {
                                out.push(self.value_at(row, i));
                            }
                        }
                        for f in inner_fields {
                            out.push(t.get(f).cloned().unwrap_or(Value::Null));
                        }
                        b.push_row(&out)?;
                    }
                }
                Ok(b.finish())
            }
        }
    }

    // ---- boundary conversion --------------------------------------------

    /// Columnarizes a boundary [`Relation`] in a dictionary of its own.
    /// Text/link payloads are coded (a string is copied once, when first
    /// met); heterogeneous columns degrade to [`ColumnData::Values`].
    pub fn from_relation(r: &Relation) -> ColumnRel {
        ColumnRel::from_relation_in(r, &Arc::default())
    }

    /// Columnarizes a boundary [`Relation`] in `dict`.
    pub fn from_relation_in(r: &Relation, dict: &Arc<Dict>) -> ColumnRel {
        let names = r.columns().iter().map(|n| (Symbol::intern(n), Keep::All));
        let mut b = ColumnRelBuilder::in_dict(dict, names.collect());
        let mut s = dict.lock();
        for row in r.rows() {
            // A `Relation` refuses every row whose arity is not its header's.
            b.append(row, &mut s);
        }
        drop(s);
        b.finish()
    }

    /// Materializes back into a boundary [`Relation`] (row order preserved).
    pub fn to_relation(&self) -> Relation {
        let s = self.dict.lock();
        let rows = (0..self.len)
            .map(|row| {
                (0..self.cols.len())
                    .map(|c| self.value_in(&s, row, c))
                    .collect()
            })
            .collect();
        let names = self.names.iter().map(|s| s.as_str().to_string());
        Relation::from_full_rows(names.collect(), rows)
    }
}

/// Prints [`ColumnRel::to_relation`]'s table: sorted rows, the one renderer.
impl fmt::Display for ColumnRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_relation().fmt(f)
    }
}

impl fmt::Debug for ColumnRel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Shown(self, &self.dict.lock()).fmt(f)
    }
}

/// A relation, or one of its columns, printed with its cells' strings.
struct Shown<'a, T>(&'a T, &'a Strings);

impl fmt::Debug for Shown<'_, ColumnRel> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Shown(rel, s) = *self;
        let names: Vec<&str> = rel.names.iter().map(|n| n.as_str()).collect();
        let cols: Vec<Shown<'_, Column>> = rel.cols.iter().map(|c| Shown(c, s)).collect();
        (f.debug_struct("ColumnRel"))
            .field("names", &names)
            .field("cols", &cols)
            .field("len", &rel.len)
            .finish()
    }
}

impl fmt::Debug for Shown<'_, Column> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Shown(col, s) = *self;
        let cells = |ids: &[u32]| -> Vec<Option<&str>> {
            (ids.iter().enumerate())
                .map(|(i, &c)| col.validity.get(i).then(|| s.get(c)))
                .collect()
        };
        match &col.data {
            ColumnData::Text(ids) => f.debug_tuple("Text").field(&cells(ids)).finish(),
            ColumnData::Link(ids) => f.debug_tuple("Link").field(&cells(ids)).finish(),
            ColumnData::Nested { offsets, child } => (f.debug_struct("Nested"))
                .field("offsets", offsets)
                .field("validity", &col.validity)
                .field("child", &Shown(&**child, s))
                .finish(),
            ColumnData::Values(vs) => f.debug_tuple("Values").field(vs).finish(),
        }
    }
}

// ---- builder -------------------------------------------------------------

/// What a builder column keeps of each cell pushed into it
/// ([`ColumnRelBuilder::keeping`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Keep {
    /// The whole cell, as it is.
    All,
    /// Of a list, only the named fields of each inner tuple, in this order,
    /// each kept as its own `Keep` says. A field an inner tuple lacks is
    /// null, which is what unnesting reads for it either way: such a column
    /// is there to be unnested, not to be read as a value.
    Fields(Vec<(Symbol, Keep)>),
}

/// Builds a [`ColumnRel`] row by row, specializing column types on first
/// non-null observation and degrading to [`ColumnData::Values`] on conflict.
/// Its text and link cells are coded in the builder's dictionary, which
/// the relation it finishes holds; each row pushed takes its lock once.
#[derive(Debug)]
pub struct ColumnRelBuilder {
    names: Vec<Symbol>,
    cols: Vec<BuildCol>,
    len: usize,
    dict: Arc<Dict>,
}

#[derive(Debug)]
enum BuildCol {
    /// Only nulls so far.
    Empty {
        nulls: usize,
    },
    Text {
        ids: Vec<u32>,
        validity: Bitmap,
    },
    Link {
        ids: Vec<u32>,
        validity: Bitmap,
    },
    Nested {
        /// Row *i* spans child rows `offsets[i]..offsets[i+1]`, so the last
        /// offset is always the child's length (0 while there is no child).
        offsets: Vec<u32>,
        validity: Bitmap,
        /// The inner tuples' columns: fixed by the first inner tuple, or —
        /// when `picked` — given up front by a [`Keep::Fields`].
        child: Option<Box<ColumnRelBuilder>>,
        picked: bool,
    },
    Values(Vec<Value>),
}

impl BuildCol {
    fn new(keep: Keep, dict: &Arc<Dict>) -> Self {
        match keep {
            Keep::All => BuildCol::Empty { nulls: 0 },
            Keep::Fields(fields) => BuildCol::Nested {
                offsets: vec![0],
                validity: Bitmap::new(),
                child: Some(Box::new(ColumnRelBuilder::in_dict(dict, fields))),
                picked: true,
            },
        }
    }

    /// Materializes the column built so far into boundary values (degrade
    /// path — cold), reading strings from `s`, the strings of `dict`.
    fn into_values(self, s: &Strings, dict: &Arc<Dict>) -> Vec<Value> {
        let cells = |ids: Vec<u32>, validity: Bitmap, value: fn(&str) -> Value| {
            (ids.into_iter().enumerate())
                .map(|(i, c)| match validity.get(i) {
                    true => value(s.get(c)),
                    false => Value::Null,
                })
                .collect()
        };
        match self {
            BuildCol::Empty { nulls } => vec![Value::Null; nulls],
            BuildCol::Text { ids, validity } => cells(ids, validity, |t| Value::Text(t.into())),
            BuildCol::Link { ids, validity } => cells(ids, validity, |u| Value::Link(Url::new(u))),
            BuildCol::Nested {
                offsets,
                validity,
                child,
                ..
            } => {
                let child = match child {
                    Some(b) => b.finish(),
                    None => ColumnRel::no_columns(dict),
                };
                (0..validity.len())
                    .map(|i| {
                        if validity.get(i) {
                            let lo = offsets[i] as usize;
                            let hi = offsets[i + 1] as usize;
                            Value::List((lo..hi).map(|r| child.tuple_in(s, r)).collect())
                        } else {
                            Value::Null
                        }
                    })
                    .collect()
            }
            BuildCol::Values(vs) => vs,
        }
    }

    /// Turns the column into boundary values and appends `v` to them: the
    /// way out of a type conflict (cold).
    fn degrade_push(&mut self, v: &Value, s: &Strings, dict: &Arc<Dict>) {
        let old = std::mem::replace(self, BuildCol::Values(Vec::new()));
        let mut values = old.into_values(s, dict);
        values.push(v.clone());
        *self = BuildCol::Values(values);
    }

    /// Rows pushed so far.
    fn len(&self) -> usize {
        match self {
            BuildCol::Empty { nulls } => *nulls,
            BuildCol::Text { ids, .. } | BuildCol::Link { ids, .. } => ids.len(),
            BuildCol::Nested { offsets, .. } => offsets.len() - 1,
            BuildCol::Values(vs) => vs.len(),
        }
    }

    /// Appends the cell a [`Reader`] has just met, reading a list's rows
    /// from `r`. Text into a text column, a link into a link column and a
    /// list into a picked column go in where they lie — a string is looked
    /// up in `s` by its bytes, and checked for UTF-8 only if it is new
    /// there; any other cell — a null, a column's first value, a list read
    /// whole, a type conflict — is built (a null allocates nothing) and
    /// [pushed](BuildCol::push).
    fn push_encoded<'a>(
        &mut self,
        cell: Cell<'a>,
        r: &mut Reader<'a>,
        s: &mut Strings,
        dict: &Arc<Dict>,
    ) -> Option<()> {
        match (&mut *self, cell) {
            (BuildCol::Text { ids, validity }, Cell::Text(_))
            | (BuildCol::Link { ids, validity }, Cell::Link(_)) => {
                ids.push(s.code_of_utf8(cell.bytes()?)?);
                validity.push(true);
            }
            (
                BuildCol::Nested {
                    offsets,
                    validity,
                    child: Some(cb),
                    picked: true,
                },
                Cell::List(n),
            ) => {
                for _ in 0..n {
                    let ColumnRelBuilder {
                        names, cols, len, ..
                    } = &mut **cb;
                    // The next row starts where this one ends.
                    append_encoded(cols, names, len, r, true, s, dict)?;
                }
                offsets.push(cb.len as u32);
                validity.push(true);
            }
            _ => self.push(&r.value(cell)?, s, dict),
        }
        Some(())
    }

    fn push(&mut self, v: &Value, s: &mut Strings, dict: &Arc<Dict>) {
        // Specialize an all-null column on its first non-null value.
        if let BuildCol::Empty { nulls } = self {
            let nulls = *nulls;
            if v.is_null() {
                *self = BuildCol::Empty { nulls: nulls + 1 };
                return;
            }
            let mut validity = Bitmap::new();
            for _ in 0..nulls {
                validity.push(false);
            }
            *self = match v {
                Value::Text(_) => BuildCol::Text {
                    ids: vec![PLACEHOLDER; nulls],
                    validity,
                },
                Value::Link(_) => BuildCol::Link {
                    ids: vec![PLACEHOLDER; nulls],
                    validity,
                },
                // (a null returned above)
                Value::List(_) | Value::Null => BuildCol::Nested {
                    offsets: vec![0u32; nulls + 1],
                    validity,
                    child: None,
                    picked: false,
                },
            };
        }
        match (&mut *self, v) {
            (BuildCol::Text { ids, validity }, Value::Text(t)) => {
                ids.push(s.code(t));
                validity.push(true);
            }
            (BuildCol::Link { ids, validity }, Value::Link(u)) => {
                ids.push(s.code(u.as_str()));
                validity.push(true);
            }
            (BuildCol::Text { ids, validity } | BuildCol::Link { ids, validity }, Value::Null) => {
                ids.push(PLACEHOLDER);
                validity.push(false);
            }
            (
                BuildCol::Nested {
                    offsets,
                    validity,
                    child,
                    picked: true,
                },
                Value::List(ts),
            ) => {
                // The kept fields only, found by name.
                if let Some(cb) = child {
                    for t in ts {
                        cb.append_fields(t, s);
                    }
                }
                offsets.push(child.as_ref().map_or(0, |cb| cb.len as u32));
                validity.push(true);
            }
            (
                BuildCol::Nested {
                    offsets,
                    validity,
                    child,
                    picked: false,
                },
                Value::List(ts),
            ) => {
                // The child schema is fixed by the first inner tuple; any
                // tuple with different field names (compared by id) degrades
                // the column.
                let names_are = |t: &Tuple, names: &[Symbol]| {
                    t.len() == names.len() && t.fields().iter().zip(names).all(|((n, _), s)| n == s)
                };
                let compatible = match (&*child, ts.first()) {
                    (Some(cb), _) => ts.iter().all(|t| names_are(t, &cb.names)),
                    (None, Some(first)) => {
                        let names: Vec<Symbol> = first.fields().iter().map(|(n, _)| *n).collect();
                        let all = ts.iter().all(|t| names_are(t, &names));
                        if all {
                            let names = names.into_iter().map(|n| (n, Keep::All)).collect();
                            *child = Some(Box::new(ColumnRelBuilder::in_dict(dict, names)));
                        }
                        all
                    }
                    (None, None) => true,
                };
                if !compatible {
                    self.degrade_push(v, s, dict);
                    return;
                }
                if let Some(cb) = child {
                    // Inner cells go in by reference, arity checked above.
                    for t in ts {
                        cb.append(t.values(), s);
                    }
                }
                offsets.push(child.as_ref().map_or(0, |cb| cb.len as u32));
                validity.push(true);
            }
            (
                BuildCol::Nested {
                    offsets,
                    validity,
                    child,
                    ..
                },
                Value::Null,
            ) => {
                offsets.push(child.as_ref().map_or(0, |cb| cb.len as u32));
                validity.push(false);
            }
            (BuildCol::Values(vs), v) => vs.push(v.clone()),
            // type conflict: degrade and retry
            (_, v) => self.degrade_push(v, s, dict),
        }
    }

    fn finish_col(self_col: BuildCol, len: usize, dict: &Arc<Dict>) -> Column {
        match self_col {
            BuildCol::Empty { nulls } => {
                debug_assert_eq!(nulls, len);
                let mut validity = Bitmap::new();
                for _ in 0..nulls {
                    validity.push(false);
                }
                Column {
                    data: ColumnData::Values(vec![Value::Null; nulls]),
                    validity,
                }
            }
            BuildCol::Text { ids, validity } => Column {
                data: ColumnData::Text(ids),
                validity,
            },
            BuildCol::Link { ids, validity } => Column {
                data: ColumnData::Link(ids),
                validity,
            },
            BuildCol::Nested {
                offsets,
                validity,
                child,
                ..
            } => Column {
                data: ColumnData::Nested {
                    offsets,
                    child: Box::new(match child {
                        Some(b) => b.finish(),
                        None => ColumnRel::no_columns(dict),
                    }),
                },
                validity,
            },
            BuildCol::Values(vs) => {
                let mut validity = Bitmap::new();
                for v in &vs {
                    validity.push(!v.is_null());
                }
                Column {
                    data: ColumnData::Values(vs),
                    validity,
                }
            }
        }
    }
}

impl ColumnRelBuilder {
    /// A builder over string column names, in a dictionary of its own.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Self {
        ColumnRelBuilder::from_symbols(names.iter().map(|n| Symbol::intern(n.as_ref())).collect())
    }

    /// A builder over pre-interned column names, in a dictionary of its
    /// own.
    pub fn from_symbols(names: Vec<Symbol>) -> Self {
        ColumnRelBuilder::keeping(names.into_iter().map(|n| (n, Keep::All)).collect())
    }

    /// A builder whose column `cols[i].0` keeps of each cell what
    /// `cols[i].1` says, in a dictionary of its own.
    pub fn keeping(cols: Vec<(Symbol, Keep)>) -> Self {
        ColumnRelBuilder::in_dict(&Arc::default(), cols)
    }

    /// [`ColumnRelBuilder::keeping`] in `dict`, which the relations it
    /// builds hold: how an evaluation builds all of its relations in one.
    pub fn in_dict(dict: &Arc<Dict>, cols: Vec<(Symbol, Keep)>) -> Self {
        let (names, cols) = cols
            .into_iter()
            .map(|(n, k)| (n, BuildCol::new(k, dict)))
            .unzip();
        ColumnRelBuilder {
            names,
            cols,
            len: 0,
            dict: Arc::clone(dict),
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row (arity-checked) from borrowed cells: a `&[Value]`,
    /// or any exact-size iterator of `&Value` — [`Tuple::values`] of a
    /// wrapped page, say — so the caller never builds a row of clones to
    /// hand over. Nothing is copied on the way in but a string the
    /// dictionary has not met: text and link payloads are coded, nested
    /// lists are appended to the child columns cell by cell. Only a column
    /// that has degraded to [`ColumnData::Values`] stores a clone.
    pub fn push_row<'v, I>(&mut self, row: I) -> Result<()>
    where
        I: IntoIterator<Item = &'v Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let row = row.into_iter();
        if row.len() != self.cols.len() {
            return Err(AdmError::ArityMismatch {
                expected: self.cols.len(),
                found: row.len(),
            });
        }
        let dict = Arc::clone(&self.dict);
        self.append(row, &mut dict.lock());
        Ok(())
    }

    /// Appends a row whose arity the caller knows to be the builder's,
    /// with its dictionary's strings in hand.
    fn append<'v>(&mut self, row: impl IntoIterator<Item = &'v Value>, s: &mut Strings) {
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v, s, &self.dict);
        }
        self.len += 1;
    }

    /// Appends the fields of `t` the columns are named after, a null for
    /// each that `t` lacks.
    fn append_fields(&mut self, t: &Tuple, s: &mut Strings) {
        static NULL: Value = Value::Null;
        for (c, name) in self.cols.iter_mut().zip(&self.names) {
            c.push(t.get_sym(*name).unwrap_or(&NULL), s, &self.dict);
        }
        self.len += 1;
    }

    /// Appends a page read in place: column `i` takes the page's first
    /// field named `fields[i]`, as [`Tuple::get_sym`] finds it, or a null;
    /// fields no column names are skipped, nothing is built for a cell that
    /// goes in where it lies (see [`EncodedTuple`]), and nothing past the
    /// last field a column takes is read.
    pub fn push_encoded<B: AsRef<[u8]>>(
        &mut self,
        fields: &[Symbol],
        page: &EncodedTuple<B>,
    ) -> Result<()> {
        if fields.len() != self.cols.len() {
            return Err(AdmError::ArityMismatch {
                expected: self.cols.len(),
                found: fields.len(),
            });
        }
        // A checked page reads as far as its last kept field; were it cut
        // short, the cells it did not reach would be nulls.
        let _ = append_encoded(
            &mut self.cols,
            fields,
            &mut self.len,
            &mut page.reader(),
            false,
            &mut self.dict.lock(),
            &self.dict,
        );
        Ok(())
    }

    /// Finishes into a [`ColumnRel`].
    pub fn finish(self) -> ColumnRel {
        let len = self.len;
        let dict = self.dict;
        ColumnRel {
            names: self.names,
            cols: self
                .cols
                .into_iter()
                .map(|c| BuildCol::finish_col(c, len, &dict))
                .collect(),
            len,
            dict,
        }
    }
}

/// Appends to `cols`, named `names`, the row of the tuple `r` stands at:
/// each field goes into every column of its name that has no cell in this
/// row yet, so a column takes the first field of its name, as
/// [`Tuple::get_sym`] finds it. A field no column names is skipped; a
/// column no field named gets a null. Unless `to_end`, reading stops once
/// every column has its cell, and `r` is left where it stopped; a row of a
/// list is read `to_end`, as the next row starts where it ends. Strings
/// are coded in `s`, the strings of `dict`.
fn append_encoded(
    cols: &mut [BuildCol],
    names: &[Symbol],
    len: &mut usize,
    r: &mut Reader<'_>,
    to_end: bool,
    s: &mut Strings,
    dict: &Arc<Dict>,
) -> Option<()> {
    let row = *len;
    let mut missing = cols.len();
    let mut read = || {
        for _ in 0..r.varint()? {
            if missing == 0 && !to_end {
                break;
            }
            let (id, cell) = r.field()?;
            let mut end = None;
            for (c, _) in cols
                .iter_mut()
                .zip(names)
                .filter(|(c, n)| n.id() == id && c.len() == row)
            {
                let mut rest = *r;
                c.push_encoded(cell, &mut rest, s, dict)?;
                missing -= 1;
                end = Some(rest);
            }
            match end {
                Some(rest) => *r = rest,
                None => r.skip(cell, false)?,
            }
        }
        Some(())
    };
    let read = read();
    for c in cols.iter_mut().filter(|c| c.len() == row) {
        c.push(&Value::Null, s, dict);
    }
    *len += 1;
    read
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profs() -> Relation {
        Relation::from_rows(
            vec!["ProfPage.URL", "ProfPage.PName", "ProfPage.Rank"],
            vec![
                vec![Value::link("/p1"), Value::text("Codd"), Value::text("Full")],
                vec![Value::link("/p2"), Value::text("Gray"), Value::text("Full")],
                vec![
                    Value::link("/p3"),
                    Value::text("Kim"),
                    Value::text("Assistant"),
                ],
                vec![Value::link("/p4"), Value::Null, Value::text("Full")],
            ],
        )
        .unwrap()
    }

    fn depts() -> Relation {
        Relation::from_rows(
            vec!["DeptPage.URL", "DeptPage.ProfList"],
            vec![
                vec![
                    Value::link("/d1"),
                    Value::List(vec![
                        Tuple::new()
                            .with("PName", "Codd")
                            .with("ToProf", Value::link("/p1")),
                        Tuple::new()
                            .with("PName", "Gray")
                            .with("ToProf", Value::link("/p2")),
                    ]),
                ],
                vec![Value::link("/d2"), Value::List(vec![])],
                vec![Value::link("/d3"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        for r in [profs(), depts()] {
            let c = ColumnRel::from_relation(&r);
            assert_eq!(c.to_relation(), r);
        }
    }

    #[test]
    fn round_trip_preserves_null_vs_empty_list() {
        let r = depts();
        let c = ColumnRel::from_relation(&r);
        let back = c.to_relation();
        assert_eq!(back.rows()[1][1], Value::List(vec![])); // empty list stays
        assert_eq!(back.rows()[2][1], Value::Null); // null stays
    }

    #[test]
    fn typed_columns_for_schema_driven_data() {
        let c = ColumnRel::from_relation(&profs());
        assert!(matches!(c.columns()[0].data, ColumnData::Link(_)));
        assert!(matches!(c.columns()[1].data, ColumnData::Text(_)));
        let d = ColumnRel::from_relation(&depts());
        assert!(matches!(d.columns()[1].data, ColumnData::Nested { .. }));
    }

    #[test]
    fn heterogeneous_column_degrades() {
        let r = Relation::from_rows(
            vec!["X"],
            vec![
                vec![Value::text("a")],
                vec![Value::link("/b")],
                vec![Value::Null],
            ],
        )
        .unwrap();
        let c = ColumnRel::from_relation(&r);
        assert!(matches!(c.columns()[0].data, ColumnData::Values(_)));
        assert_eq!(c.to_relation(), r);
    }

    #[test]
    fn mismatched_inner_tuples_degrade() {
        let r = Relation::from_rows(
            vec!["L"],
            vec![
                vec![Value::List(vec![Tuple::new().with("A", "x")])],
                vec![Value::List(vec![Tuple::new().with("B", "y")])],
            ],
        )
        .unwrap();
        let c = ColumnRel::from_relation(&r);
        assert!(matches!(c.columns()[0].data, ColumnData::Values(_)));
        assert_eq!(c.to_relation(), r);
    }

    #[test]
    fn select_eq_const_matches_row_path() {
        let r = profs();
        let c = ColumnRel::from_relation(&r);
        let idx = c.select_eq_const(2, &Value::text("Full"));
        assert_eq!(idx, vec![0, 1, 3]);
        assert_eq!(
            c.take(&idx).to_relation(),
            r.select_eq("Rank", &Value::text("Full")).unwrap()
        );
        // unknown constant: no matches, and the dictionary is not grown
        assert!(c
            .select_eq_const(2, &Value::text("no-such-rank-xyzzy"))
            .is_empty());
        // null constant matches null cells
        assert_eq!(c.select_eq_const(1, &Value::Null), vec![3]);
    }

    #[test]
    fn select_eq_cols_matches_row_path() {
        let r = Relation::from_rows(
            vec!["A", "B"],
            vec![
                vec![Value::text("x"), Value::text("x")],
                vec![Value::text("x"), Value::text("y")],
                vec![Value::Null, Value::Null],
                vec![Value::link("/u"), Value::link("/u")],
            ],
        )
        .unwrap();
        let c = ColumnRel::from_relation(&r);
        // heterogeneous columns → Values fallback; nulls never equal
        assert_eq!(c.select_eq_cols(0, 1), vec![0, 3]);
    }

    #[test]
    fn project_dedups_in_first_appearance_order() {
        let r = profs();
        let c = ColumnRel::from_relation(&r);
        let p = c.project(&["Rank"]).unwrap();
        assert_eq!(p.to_relation(), r.project(&["Rank"]).unwrap());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn join_matches_row_path() {
        let courses = Relation::from_rows(
            vec!["CoursePage.URL", "CoursePage.CName", "CoursePage.ToProf"],
            vec![
                vec![Value::link("/c1"), Value::text("DB"), Value::link("/p1")],
                vec![Value::link("/c2"), Value::text("OS"), Value::link("/p3")],
                vec![Value::link("/c3"), Value::text("AI"), Value::link("/p1")],
                vec![Value::link("/c4"), Value::text("ML"), Value::Null],
            ],
        )
        .unwrap();
        let profs_r = profs();
        let cc = ColumnRel::from_relation(&courses);
        let cp = ColumnRel::from_relation(&profs_r);
        let j = cc.join(&cp, &[("ToProf", "ProfPage.URL")]).unwrap();
        let jr = courses
            .join(&profs_r, &[("ToProf", "ProfPage.URL")])
            .unwrap();
        assert_eq!(j.to_relation(), jr);
    }

    #[test]
    fn unnest_matches_row_path() {
        let r = depts();
        let c = ColumnRel::from_relation(&r);
        let fields = vec!["PName".to_string(), "ToProf".to_string()];
        let u = c.unnest("ProfList", &fields).unwrap();
        assert_eq!(u.to_relation(), r.unnest("ProfList", &fields).unwrap());
    }

    #[test]
    fn unnest_missing_inner_field_yields_null() {
        let r = Relation::from_rows(
            vec!["P.L"],
            vec![vec![Value::List(vec![Tuple::new().with("A", "x")])]],
        )
        .unwrap();
        let c = ColumnRel::from_relation(&r);
        let fields = vec!["A".to_string(), "B".to_string()];
        let u = c.unnest("L", &fields).unwrap();
        assert_eq!(u.to_relation(), r.unnest("L", &fields).unwrap());
    }

    #[test]
    fn unnest_type_error_on_mono() {
        let c = ColumnRel::from_relation(&profs());
        assert!(matches!(
            c.unnest("PName", &[]),
            Err(AdmError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn resolve_suffix_and_ambiguity() {
        let c = ColumnRel::from_relation(&profs());
        assert_eq!(c.resolve("PName").unwrap(), 1);
        assert!(c.resolve("Nope").is_err());
        let amb = ColumnRel::empty(&["A.Name", "B.Name"]);
        assert!(matches!(
            amb.resolve("Name"),
            Err(AdmError::AmbiguousAttribute { .. })
        ));
    }

    #[test]
    fn link_at_reads_codes_without_alloc() {
        let c = ColumnRel::from_relation(&profs());
        let code = c.link_at(0, 0).unwrap().unwrap();
        assert_eq!(c.dict().string(code), "/p1");
        assert!(c.link_at(0, 1).is_err()); // text column
        let d = ColumnRel::from_relation(
            &Relation::from_rows(vec!["A"], vec![vec![Value::Null]]).unwrap(),
        );
        assert_eq!(d.link_at(0, 0).unwrap(), None);
    }

    #[test]
    fn hstack_and_take_compose() {
        let c = ColumnRel::from_relation(&profs());
        let left = c.take(&[0, 2]);
        let right = c.take(&[1, 3]);
        let wide = left.hstack(right).unwrap();
        assert_eq!(wide.len(), 2);
        assert_eq!(wide.names().len(), 6);
        // relations of different lengths are refused, not glued
        assert_eq!(
            c.take(&[0]).hstack(c.take(&[1, 2])).unwrap_err(),
            AdmError::RowCountMismatch { left: 1, right: 2 }
        );
        // pairs gather both sides at once: row i is left[l_i] ++ right[r_i]
        let paired = c.take_pairs(&c, &[(0, 1), (3, 3)]);
        let mut rows = vec![];
        for (l, r) in [(0u32, 1u32), (3, 3)] {
            rows.push(c.take(&[l]).hstack(c.take(&[r])).unwrap().tuple_at(0));
        }
        assert_eq!((0..2).map(|i| paired.tuple_at(i)).collect::<Vec<_>>(), rows);
    }

    /// A list kept down to some inner fields unnests to exactly what the
    /// whole list unnests to on those fields — two lists deep, with a
    /// field some inner tuples lack, a null list and an empty one.
    #[test]
    fn a_picked_list_unnests_like_the_whole_one() {
        let inner = |a: &str, with_b: bool| {
            let t = Tuple::new().with("A", a);
            let t = if with_b { t.with("B", "b") } else { t };
            t.with_list("L2", vec![Tuple::new().with("X", a).with("Y", "y")])
        };
        let r = Relation::from_rows(
            vec!["P.URL", "P.L"],
            vec![
                vec![
                    Value::link("/1"),
                    Value::List(vec![inner("p", true), inner("q", false)]),
                ],
                vec![Value::link("/2"), Value::Null],
                vec![Value::link("/3"), Value::List(vec![])],
            ],
        )
        .unwrap();
        let (url, l) = (Symbol::intern("P.URL"), Symbol::intern("P.L"));
        let mut picked = ColumnRelBuilder::keeping(vec![
            (url, Keep::All),
            (
                l,
                Keep::Fields(vec![
                    (Symbol::intern("B"), Keep::All),
                    (
                        Symbol::intern("L2"),
                        Keep::Fields(vec![(Symbol::intern("X"), Keep::All)]),
                    ),
                ]),
            ),
        ]);
        for row in r.rows() {
            picked.push_row(row).unwrap();
        }
        let picked = picked.finish();
        let whole = ColumnRel::from_relation(&r);
        let unnest = |c: &ColumnRel| {
            c.unnest("L", &["B".to_string(), "L2".to_string()])
                .unwrap()
                .unnest("L2", &["X".to_string()])
                .unwrap()
                .to_relation()
        };
        assert_eq!(unnest(&picked), unnest(&whole));
        assert_eq!(unnest(&picked).len(), 2);
        // only the kept fields were built
        let ColumnData::Nested { child, .. } = &picked.columns()[1].data else {
            panic!("a picked list stays nested");
        };
        let names: Vec<&str> = child.names().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["B", "L2"]);
        // a cell of another type degrades the column to the picked values
        let mut odd = ColumnRelBuilder::keeping(vec![(
            l,
            Keep::Fields(vec![(Symbol::intern("A"), Keep::All)]),
        )]);
        odd.push_row(&[Value::List(vec![inner("p", true)])])
            .unwrap();
        odd.push_row(&[Value::text("not a list")]).unwrap();
        let odd = odd.finish();
        assert!(matches!(odd.columns()[0].data, ColumnData::Values(_)));
        assert_eq!(
            odd.value_at(0, 0),
            Value::List(vec![Tuple::new().with("A", "p")])
        );
    }

    #[test]
    fn distinct_first_appearance() {
        let r = Relation::from_rows(
            vec!["X"],
            vec![
                vec![Value::text("b")],
                vec![Value::text("a")],
                vec![Value::text("b")],
            ],
        )
        .unwrap();
        let c = ColumnRel::from_relation(&r);
        assert_eq!(c.distinct().to_relation(), r.distinct());
    }

    #[test]
    fn empty_projection_keeps_single_row() {
        let r = profs();
        let c = ColumnRel::from_relation(&r);
        let p = c.project_cols(&[]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.names().len(), 0);
        // row path agrees
        assert_eq!(r.project(&[]).unwrap().len(), 1);
    }

    /// Relations built apart meet in the left one's dictionary: a join, a
    /// gather and a glue re-encode the right one through its strings, and
    /// a relation printed lists strings, not the codes it was given.
    #[test]
    fn kernels_over_two_dictionaries_meet_in_the_left_one() {
        let (courses, profs_r) = (depts(), profs());
        let unnested = ColumnRel::from_relation(&courses)
            .unnest("ProfList", &["ToProf".to_string()])
            .unwrap();
        let p = ColumnRel::from_relation(&profs_r);
        assert!(!Arc::ptr_eq(unnested.dict(), p.dict()));
        let j = unnested.join(&p, &[("ToProf", "ProfPage.URL")]).unwrap();
        assert!(Arc::ptr_eq(j.dict(), unnested.dict()));
        let want = (courses.unnest("ProfList", &["ToProf".to_string()]).unwrap())
            .join(&profs_r, &[("ToProf", "ProfPage.URL")])
            .unwrap();
        assert_eq!(j.to_relation(), want);
        assert_eq!(j.len(), 2);
        // the same strings met in another order print the same
        let backwards = Relation::from_rows(
            profs_r.columns().to_vec(),
            profs_r.rows().iter().rev().cloned().collect(),
        )
        .unwrap();
        let forwards = ColumnRel::from_relation(&profs_r);
        let twice = ColumnRel::from_relation(&backwards);
        let last = twice.take(&[3, 2, 1, 0]);
        assert_eq!(format!("{forwards:?}"), format!("{last:?}"));
        assert_ne!(forwards.link_at(0, 0).unwrap(), last.link_at(0, 0).unwrap());
        let glued = forwards.take(&[0]).hstack(last.take(&[1])).unwrap();
        assert_eq!(glued.value_at(0, 3), Value::link("/p2"));
        let paired = forwards.take_pairs(&last, &[(0, 1)]);
        assert_eq!(paired.tuple_at(0), glued.tuple_at(0));
    }
}
