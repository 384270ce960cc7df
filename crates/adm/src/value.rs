//! Values and nested tuples.
//!
//! An instance of a page-scheme is a *page-relation*: a set of nested
//! tuples, one per page, each carrying a URL and a value of the right type
//! for every attribute. We keep nested relations in Partitioned Normal Form
//! (PNF): the mono-valued attributes at each level form a key.

use crate::intern::Symbol;
use crate::types::{Field, WebType};
use crate::url::Url;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A value of a web type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Text (base type); also used for image alt/URLs when queried as text.
    Text(String),
    /// A link value: the URL of the destination page.
    Link(Url),
    /// Null, produced by optional attributes.
    Null,
    /// A multi-valued attribute: a list of inner tuples.
    List(Vec<Tuple>),
}

impl Value {
    /// Shorthand for a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Shorthand for a link value.
    pub fn link(u: impl Into<Url>) -> Self {
        Value::Link(u.into())
    }

    /// The text content, if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The URL, if this is a link value.
    pub fn as_link(&self) -> Option<&Url> {
        match self {
            Value::Link(u) => Some(u),
            _ => None,
        }
    }

    /// The inner tuples, if this is a list value.
    pub fn as_list(&self) -> Option<&[Tuple]> {
        match self {
            Value::List(ts) => Some(ts),
            _ => None,
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Checks this value against a web type. Nulls conform to any
    /// mono-valued type (optionality is enforced at the schema layer).
    pub fn conforms_to(&self, ty: &WebType) -> bool {
        match (self, ty) {
            (Value::Null, t) => t.is_mono_valued(),
            (Value::Text(_), WebType::Text) | (Value::Text(_), WebType::Image) => true,
            (Value::Link(_), WebType::Link { .. }) => true,
            (Value::List(rows), WebType::List(fields)) => {
                rows.iter().all(|t| t.conforms_to(fields))
            }
            _ => false,
        }
    }

    /// Estimated in-memory footprint in bytes, used by byte-budgeted page
    /// caches. Counts string payloads plus a fixed per-node overhead; not
    /// an exact allocator measure.
    pub fn approx_bytes(&self) -> usize {
        const NODE: usize = std::mem::size_of::<Value>();
        match self {
            Value::Null => NODE,
            Value::Text(s) => NODE + s.len(),
            Value::Link(u) => NODE + u.as_str().len(),
            Value::List(ts) => NODE + ts.iter().map(Tuple::approx_bytes).sum::<usize>(),
        }
    }

    /// A total order over values, used for deterministic output:
    /// Null < Text < Link < List.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Text(_) => 1,
                Value::Link(_) => 2,
                Value::List(_) => 3,
            }
        }
        match (self, other) {
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Link(a), Value::Link(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Link(u) => write!(f, "{u}"),
            Value::Null => write!(f, "⊥"),
            Value::List(ts) => {
                write!(f, "[")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<Url> for Value {
    fn from(u: Url) -> Self {
        Value::Link(u)
    }
}

/// A nested tuple: an ordered list of named values.
///
/// Field order is significant for display but not for equality of *sets* of
/// tuples; the schema layer always produces fields in scheme order.
///
/// A field's name is an interned [`Symbol`]: attribute names belong to the
/// scheme, not to each tuple extracted under it, so a tuple built from a
/// scheme's fields ([`Field::sym`]) allocates no name, and lookup, equality
/// and conformance compare ids. Everything a caller can *see* still goes
/// through the name's string — [`Tuple::iter`] and [`Tuple::names`] yield
/// `&str`, and `Hash`, `Debug`, `Display` and [`Tuple::total_cmp`] hash,
/// print and order by it — because ids follow interning order, which
/// differs between processes (see [`crate::intern`], *Determinism*).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Tuple {
    fields: Vec<(Symbol, Value)>,
}

impl Tuple {
    /// An empty tuple.
    pub fn new() -> Self {
        Tuple { fields: Vec::new() }
    }

    /// Builds a tuple from (name, value) pairs; a name is anything that
    /// converts to a [`Symbol`] (`&str`, `String`, or a symbol in hand,
    /// which costs nothing).
    pub fn from_pairs<N: Into<Symbol>>(pairs: Vec<(N, Value)>) -> Self {
        Tuple {
            fields: pairs.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Appends a field; builder style.
    pub fn with(mut self, name: impl Into<Symbol>, value: impl Into<Value>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }

    /// Appends a list field; builder style.
    pub fn with_list(mut self, name: impl Into<Symbol>, rows: Vec<Tuple>) -> Self {
        self.fields.push((name.into(), Value::List(rows)));
        self
    }

    /// Appends a null field; builder style.
    pub fn with_null(mut self, name: impl Into<Symbol>) -> Self {
        self.fields.push((name.into(), Value::Null));
        self
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(n, v)| (n.as_str() == name).then_some(v))
    }

    /// Looks a field up by its interned name: id compares only.
    pub fn get_sym(&self, name: Symbol) -> Option<&Value> {
        self.fields
            .iter()
            .find_map(|(n, v)| (*n == name).then_some(v))
    }

    /// Iterates over (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Field names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// The (interned name, value) pairs in order.
    pub fn fields(&self) -> &[(Symbol, Value)] {
        &self.fields
    }

    /// The values in field order, borrowed — a row for
    /// [`crate::ColumnRelBuilder::push_row`] as it stands.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Consumes the tuple into its pairs (a fresh `String` per name).
    pub fn into_pairs(self) -> Vec<(String, Value)> {
        self.fields
            .into_iter()
            .map(|(n, v)| (n.as_str().to_string(), v))
            .collect()
    }

    /// Checks the tuple against a field list: every required field present
    /// and of conforming type; nulls only where optional; no extra fields.
    pub fn conforms_to(&self, fields: &[Field]) -> bool {
        if self.fields.len() != fields.len() {
            return false;
        }
        fields.iter().all(|f| match self.get_sym(f.sym()) {
            None => false,
            Some(Value::Null) => f.optional,
            Some(v) => v.conforms_to(&f.ty),
        })
    }

    /// Estimated in-memory footprint in bytes (see [`Value::approx_bytes`]).
    /// A name counts its string's bytes, as it did when each tuple owned
    /// one: a materialized store's page budget evicts by this number. The
    /// shared page cache keeps pages [encoded](Tuple::encode) and charges
    /// the encoded length instead.
    pub fn approx_bytes(&self) -> usize {
        self.fields
            .iter()
            .map(|(n, v)| n.as_str().len() + v.approx_bytes())
            .sum()
    }

    /// Total order for deterministic sorting: names order by their strings
    /// (equal ids are equal names, so the strings are read only to order).
    pub fn total_cmp(&self, other: &Tuple) -> Ordering {
        for ((an, av), (bn, bv)) in self.fields.iter().zip(other.fields.iter()) {
            let names = if an == bn {
                Ordering::Equal
            } else {
                an.as_str().cmp(bn.as_str())
            };
            match names.then_with(|| av.total_cmp(bv)) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        self.fields.len().cmp(&other.fields.len())
    }
}

/// Tags of a field's value in [`Tuple::encode`]'s form.
const NULL: u8 = 0;
const TEXT: u8 = 1;
const LINK: u8 = 2;
const LIST: u8 = 3;

impl Tuple {
    /// The tuple as one self-describing byte string, for a holder that
    /// keeps pages by the bytes they take (the shared page cache): the
    /// field count, then for each field its name's symbol id, a tag, and
    /// the value — nothing for a null, the length and bytes of a text or
    /// link, a list's row count and each row in this same form. Counts,
    /// ids and lengths are LEB128 varints. Any tuple round-trips through
    /// [`Tuple::decode`], conforming to a scheme or not. Symbol ids are
    /// process-local ([`crate::intern`]), so only the process that
    /// encoded a tuple can decode it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.fields.len() as u64);
        for (name, value) in &self.fields {
            put_varint(out, u64::from(name.id()));
            match value {
                Value::Null => out.push(NULL),
                Value::Text(s) => put_str(out, TEXT, s),
                Value::Link(u) => put_str(out, LINK, u.as_str()),
                Value::List(rows) => {
                    out.push(LIST);
                    put_varint(out, rows.len() as u64);
                    for row in rows {
                        row.encode_into(out);
                    }
                }
            }
        }
    }

    /// The tuple [`Tuple::encode`] turned into `bytes`, or `None` if they
    /// are not exactly one encoded tuple of this process (a truncated or
    /// trailing byte, an unknown tag or symbol id, text that is not UTF-8):
    /// [`EncodedTuple::parse`], then [`EncodedTuple::to_tuple`].
    pub fn decode(bytes: &[u8]) -> Option<Tuple> {
        EncodedTuple::parse(bytes).map(|page| page.to_tuple())
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, tag: u8, s: &str) {
    out.push(tag);
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// One tuple in [`Tuple::encode`]'s form, checked, to be read where it
/// lies. [`EncodedTuple::parse`] checks the whole buffer exactly as
/// [`Tuple::decode`] does, but builds nothing; a reader of the checked
/// tuple ([`crate::ColumnRelBuilder::push_encoded`]) then looks a text or
/// a link up in its dictionary by the buffer's bytes — checking them again
/// only when they are new there — and skips the fields it does not read.
/// `B` holds the bytes: a slice, or the `Arc<[u8]>` a cache keeps.
#[derive(Debug, Clone)]
pub struct EncodedTuple<B>(B);

impl<B: AsRef<[u8]>> EncodedTuple<B> {
    /// `bytes` as a checked tuple, or `None` where [`Tuple::decode`]
    /// refuses them.
    pub fn parse(bytes: B) -> Option<Self> {
        // A tuple is read as a list of one row.
        let mut rest = Reader(bytes.as_ref());
        let whole = rest.skip(Cell::List(1), true).is_some() && rest.0.is_empty();
        whole.then_some(EncodedTuple(bytes))
    }

    /// The tuple, built: a `String` a text, a `Vec` a tuple.
    pub fn to_tuple(&self) -> Tuple {
        // `parse` read these bytes to their end, so reading cannot fail.
        self.reader().tuple().unwrap_or_default()
    }

    /// A reader at the tuple's first byte.
    pub(crate) fn reader(&self) -> Reader<'_> {
        Reader(self.0.as_ref())
    }
}

/// A field's value as [`Reader::field`] meets it. A text or a link is its
/// bytes, which [`EncodedTuple::parse`] checked are UTF-8 ([`Cell::str`]);
/// a list's rows follow it in the buffer, each a tuple, to be read or
/// [skipped](Reader::skip).
#[derive(Clone, Copy)]
pub(crate) enum Cell<'a> {
    Null,
    Text(&'a [u8]),
    Link(&'a [u8]),
    List(usize),
}

impl<'a> Cell<'a> {
    /// A text's or a link's bytes; `None` for any other cell.
    pub(crate) fn bytes(self) -> Option<&'a [u8]> {
        match self {
            Cell::Text(b) | Cell::Link(b) => Some(b),
            Cell::Null | Cell::List(_) => None,
        }
    }

    /// A text's or a link's string, checked; `None` for any other cell.
    pub(crate) fn str(self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
}

/// The bytes of an encoded tuple not read yet.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    /// A count, id or length.
    pub(crate) fn varint(&mut self) -> Option<usize> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return usize::try_from(v).ok();
            }
        }
        None
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.varint()?;
        let (s, rest) = self.0.split_at_checked(len)?;
        self.0 = rest;
        Some(s)
    }

    /// The next field of a tuple whose field count was read: its name's
    /// symbol id and the head of its value, as they lie.
    pub(crate) fn field(&mut self) -> Option<(u32, Cell<'a>)> {
        let id = u32::try_from(self.varint()?).ok()?;
        let cell = match self.byte()? {
            NULL => Cell::Null,
            TEXT => Cell::Text(self.bytes()?),
            LINK => Cell::Link(self.bytes()?),
            LIST => Cell::List(self.varint()?),
            _ => return None,
        };
        Some((id, cell))
    }

    /// Passes over what `cell` left unread, a list's rows; when `check`,
    /// only if each name in them is a symbol of this process and each
    /// text and link is UTF-8.
    pub(crate) fn skip(&mut self, cell: Cell<'a>, check: bool) -> Option<()> {
        let Cell::List(rows) = cell else {
            return Some(());
        };
        for _ in 0..rows {
            for _ in 0..self.varint()? {
                let (id, cell) = self.field()?;
                if check {
                    Symbol::from_id(id)?;
                    // ASCII is UTF-8, and quicker to tell in short strings.
                    if let Cell::Text(b) | Cell::Link(b) = cell {
                        if !b.is_ascii() {
                            cell.str()?;
                        }
                    }
                }
                // Recursing only into a list keeps a call off most fields.
                if let Cell::List(_) = cell {
                    self.skip(cell, check)?;
                }
            }
        }
        Some(())
    }

    fn tuple(&mut self) -> Option<Tuple> {
        let n = self.varint()?;
        // Every field takes at least two bytes: a count read from bad
        // input cannot reserve more than the input could hold.
        let mut fields = Vec::with_capacity(n.min(self.0.len() / 2));
        for _ in 0..n {
            let (id, cell) = self.field()?;
            fields.push((Symbol::from_id(id)?, self.value(cell)?));
        }
        Some(Tuple { fields })
    }

    /// `cell`'s value, built, a list's rows read.
    pub(crate) fn value(&mut self, cell: Cell<'a>) -> Option<Value> {
        Some(match cell {
            Cell::Null => Value::Null,
            Cell::Text(_) => Value::Text(cell.str()?.to_owned()),
            Cell::Link(_) => Value::Link(Url::new(cell.str()?)),
            Cell::List(n) => {
                let mut rows = Vec::with_capacity(n.min(self.0.len()));
                for _ in 0..n {
                    rows.push(self.tuple()?);
                }
                Value::List(rows)
            }
        })
    }
}

/// Hashes what `#[derive(Hash)]` hashed when names were `String`s — the
/// field count, then each name's string and value — so a digest of a tuple
/// is the same in every process, whatever ids its names were given.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.fields.len());
        for (n, v) in &self.fields {
            n.as_str().hash(state);
            v.hash(state);
        }
    }
}

/// Prints what `#[derive(Debug)]` printed when names were `String`s: the
/// name's string, never its id.
impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs: Vec<(&str, &Value)> = self.iter().collect();
        f.debug_struct("Tuple").field("fields", &pairs).finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnRelBuilder, Keep};
    use proptest::prelude::*;

    fn prof_fields() -> Vec<Field> {
        vec![
            Field::text("PName"),
            Field::optional("Email", WebType::Text),
            Field::list(
                "CourseList",
                vec![Field::text("CName"), Field::link("ToCourse", "CoursePage")],
            ),
        ]
    }

    fn prof_tuple() -> Tuple {
        Tuple::new()
            .with("PName", "Codd")
            .with_null("Email")
            .with_list(
                "CourseList",
                vec![Tuple::new()
                    .with("CName", "Databases")
                    .with("ToCourse", Value::link("/course/1.html"))],
            )
    }

    #[test]
    fn get_and_len() {
        let t = prof_tuple();
        assert_eq!(t.len(), 3);
        assert_eq!(t.get("PName").unwrap().as_text(), Some("Codd"));
        assert!(t.get("Email").unwrap().is_null());
        assert!(t.get("Missing").is_none());
    }

    #[test]
    fn conformance_accepts_valid() {
        assert!(prof_tuple().conforms_to(&prof_fields()));
    }

    #[test]
    fn conformance_rejects_null_in_required() {
        let t = Tuple::new()
            .with_null("PName")
            .with_null("Email")
            .with_list("CourseList", vec![]);
        assert!(!t.conforms_to(&prof_fields()));
    }

    #[test]
    fn conformance_rejects_wrong_type() {
        let t = Tuple::new()
            .with("PName", Value::link("/x"))
            .with_null("Email")
            .with_list("CourseList", vec![]);
        assert!(!t.conforms_to(&prof_fields()));
    }

    #[test]
    fn conformance_rejects_arity() {
        let t = Tuple::new().with("PName", "Codd");
        assert!(!t.conforms_to(&prof_fields()));
    }

    #[test]
    fn conformance_rejects_bad_inner_tuple() {
        let t = Tuple::new()
            .with("PName", "Codd")
            .with_null("Email")
            .with_list("CourseList", vec![Tuple::new().with("Wrong", "x")]);
        assert!(!t.conforms_to(&prof_fields()));
    }

    #[test]
    fn display_forms() {
        let t = prof_tuple();
        let s = t.to_string();
        assert!(s.contains("PName: Codd"));
        assert!(s.contains('⊥'));
        assert!(s.contains("/course/1.html"));
    }

    #[test]
    fn value_total_order_ranks() {
        let mut vs = [
            Value::List(vec![]),
            Value::text("a"),
            Value::Null,
            Value::link("/z"),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert!(vs[0].is_null());
        assert_eq!(vs[1].as_text(), Some("a"));
        assert!(vs[2].as_link().is_some());
    }

    #[test]
    fn tuple_total_order_is_deterministic() {
        let a = Tuple::new().with("X", "a");
        let b = Tuple::new().with("X", "b");
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert_eq!(
            Value::from(Url::new("/p")).as_link().map(|u| u.as_str()),
            Some("/p")
        );
    }

    fn text() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z ]{0,12}",
            ".{0,8}",
            (127usize..129).prop_map(|n| "t".repeat(n)),
            Just("é".repeat(64)),
        ]
    }

    /// A value holding lists nested at most `depth` deep.
    fn drawn_value(depth: usize) -> BoxedStrategy<Value> {
        let leaf = || {
            prop_oneof![
                Just(Value::Null),
                text().prop_map(Value::Text),
                "[a-z/.]{0,12}".prop_map(Value::link),
            ]
        };
        if depth == 0 {
            return leaf().boxed();
        }
        let rows = prop::collection::vec(drawn_tuple(depth - 1), 0..4);
        prop_oneof![leaf(), rows.prop_map(Value::List)].boxed()
    }

    const NAMES: [&str; 5] = ["PName", "CourseList", "ToCourse", "Straße", "名前"];

    fn drawn_tuple(depth: usize) -> impl Strategy<Value = Tuple> {
        let field = ((0..NAMES.len()).prop_map(|i| NAMES[i]), drawn_value(depth));
        prop::collection::vec(field, 0..6).prop_map(Tuple::from_pairs)
    }

    /// What a builder column keeps, lists picked at most `depth` deep, of
    /// the names the drawn tuples use and one they never do.
    fn drawn_keeps(depth: usize) -> BoxedStrategy<Vec<(Symbol, Keep)>> {
        let name =
            (0..=NAMES.len()).prop_map(|i| Symbol::intern(NAMES.get(i).unwrap_or(&"Absent")));
        let keep = if depth == 0 {
            Just(Keep::All).boxed()
        } else {
            prop_oneof![
                Just(Keep::All),
                drawn_keeps(depth - 1).prop_map(Keep::Fields)
            ]
            .boxed()
        };
        prop::collection::vec((name, keep), 0..5).boxed()
    }

    /// The columns `keeps` builds of `pages`, each page pushed as the
    /// evaluator pushes one: read in place, or decoded and each column's
    /// first field of its name handed to `push_row`.
    fn built(pages: &[&[u8]], keeps: &[(Symbol, Keep)], in_place: bool) -> String {
        static NULL: Value = Value::Null;
        let fields: Vec<Symbol> = keeps.iter().map(|(name, _)| *name).collect();
        let mut b = ColumnRelBuilder::keeping(keeps.to_vec());
        for &page in pages {
            if in_place {
                let page = EncodedTuple::parse(page).unwrap();
                b.push_encoded(&fields, &page).unwrap();
            } else {
                let t = Tuple::decode(page).unwrap();
                let cell = |f: &Symbol| t.get_sym(*f).unwrap_or(&NULL);
                b.push_row(fields.iter().map(cell)).unwrap();
            }
        }
        // Ids and all: both sides run in this process.
        format!("{:?}", b.finish())
    }

    fn built_both_ways(rows: &[Tuple], keeps: &[(Symbol, Keep)]) -> (String, String) {
        let bytes: Vec<Vec<u8>> = rows.iter().map(Tuple::encode).collect();
        let pages: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
        (built(&pages, keeps, true), built(&pages, keeps, false))
    }

    proptest! {
        #[test]
        fn encoding_round_trips_drawn_tuples(t in drawn_tuple(2)) {
            prop_assert_eq!(Tuple::decode(&t.encode()), Some(t));
        }

        #[test]
        fn a_page_read_in_place_builds_the_columns_its_decoding_builds(
            rows in prop::collection::vec(drawn_tuple(2), 0..6),
            keeps in drawn_keeps(2),
        ) {
            let (in_place, decoded) = built_both_ways(&rows, &keeps);
            prop_assert_eq!(in_place, decoded);
        }
    }

    // Each case the reader must get right, by hand, beside the property.
    #[test]
    fn a_page_read_in_place_meets_every_kind_of_column() {
        let sym = Symbol::intern;
        let course = |name: &str, to: Value| Tuple::new().with("CName", name).with("ToCourse", to);
        let rows = [
            // PName null before its first value; CourseList twice, the
            // first one wins; a field no column names.
            Tuple::new()
                .with_null("PName")
                .with_list("CourseList", vec![course("DB", Value::link("/c/1"))])
                .with_list("CourseList", vec![])
                .with("Unread", "x"),
            // PName's first value; an inner tuple without ToCourse.
            Tuple::new().with("PName", "Codd").with_list(
                "CourseList",
                vec![Tuple::new().with("CName", "OS"), course("AI", Value::Null)],
            ),
            // PName a link after a text: the column degrades. No list.
            Tuple::new().with("PName", Value::link("/p/2")),
        ];
        let picked = Keep::Fields(vec![
            (sym("ToCourse"), Keep::All),
            (sym("CName"), Keep::All),
            (sym("Absent"), Keep::All),
        ]);
        let keeps = [
            (sym("PName"), Keep::All),
            (sym("CourseList"), picked),
            (sym("CourseList"), Keep::All),
            (sym("Absent"), Keep::All),
        ];
        let (in_place, decoded) = built_both_ways(&rows, &keeps);
        assert_eq!(in_place, decoded);
        let fields: Vec<Symbol> = keeps.iter().map(|(name, _)| *name).collect();
        let mut b = ColumnRelBuilder::keeping(keeps.to_vec());
        for t in &rows {
            let bytes = t.encode();
            b.push_encoded(&fields, &EncodedTuple::parse(&bytes[..]).unwrap())
                .unwrap();
        }
        let rel = b.finish();
        let cols = rel.columns();
        assert!(
            matches!(cols[0].data, crate::ColumnData::Values(_)),
            "degraded"
        );
        assert_eq!(rel.value_at(1, 0), Value::text("Codd"));
        let crate::ColumnData::Nested { offsets, child } = &cols[1].data else {
            panic!("a picked list is nested");
        };
        assert_eq!(offsets, &[0, 1, 3, 3]);
        assert_eq!(
            child.names(),
            &[sym("ToCourse"), sym("CName"), sym("Absent")]
        );
        assert_eq!(child.value_at(0, 0), Value::link("/c/1"));
        assert!(child.is_null_at(1, 0) && child.is_null_at(2, 0) && child.is_null_at(0, 2));
        assert_eq!(
            rel.value_at(0, 2),
            rows[0].get("CourseList").unwrap().clone()
        );
        assert!((0..3).all(|row| rel.is_null_at(row, 3)));
        assert_eq!(
            push_prof(ColumnRelBuilder::keeping(keeps.to_vec()), &fields[1..]),
            Err(crate::AdmError::ArityMismatch {
                expected: 4,
                found: 3
            })
        );
    }

    /// Pushes [`prof_tuple`] in place.
    fn push_prof(mut b: ColumnRelBuilder, fields: &[Symbol]) -> crate::Result<()> {
        let bytes = prof_tuple().encode();
        b.push_encoded(fields, &EncodedTuple::parse(&bytes[..]).unwrap())
    }

    // The property is only as good as its draws. The runner seeds each
    // property from its name, so these are its very draws, and they hold
    // every case the codec must get right.
    #[test]
    fn the_drawn_tuples_hold_every_boundary_case() {
        fn visit(t: &Tuple, lists_above: usize, seen: &mut [bool; 7]) {
            for v in t.values() {
                match v {
                    Value::Null => seen[0] = true,
                    Value::Link(_) => seen[1] = true,
                    Value::Text(s) => {
                        seen[2] |= !s.is_ascii();
                        seen[3] |= s.len() == 127;
                        seen[4] |= s.len() == 128;
                    }
                    Value::List(rows) => {
                        seen[5] |= rows.is_empty();
                        seen[6] |= lists_above == 1;
                        rows.iter().for_each(|r| visit(r, lists_above + 1, seen));
                    }
                }
            }
        }
        let name = "encoding_round_trips_drawn_tuples";
        let mut rng = proptest::test_runner::TestRng::for_test(name);
        let mut seen = [false; 7];
        for _ in 0..ProptestConfig::default().cases {
            visit(&drawn_tuple(2).generate(&mut rng), 0, &mut seen);
        }
        // null, link, non-ASCII, 127 and 128 bytes, empty list, two deep
        assert_eq!(seen, [true; 7]);
    }

    #[test]
    fn encoding_round_trips_every_kind_of_value() {
        let rows = |n: usize| {
            (0..n)
                .map(|i| Tuple::new().with("I", i.to_string()))
                .collect()
        };
        let t = prof_tuple()
            .with_list("Empty", vec![])
            .with_list(
                "Deep",
                vec![Tuple::new().with_list("Inner", vec![prof_tuple(), Tuple::new()])],
            )
            .with("Ünïcödé", "naïve — ☃")
            .with("T127", "a".repeat(127))
            .with("T128", "b".repeat(128))
            // a length of 16,384 takes a three-byte varint
            .with("T16k", "c".repeat(1 << 14))
            .with_list("R127", rows(127))
            .with_list("R128", rows(128))
            .with_list(
                "Mixed",
                vec![prof_tuple(), Tuple::new(), prof_tuple().with_null("X")],
            );
        assert_eq!(Tuple::decode(&t.encode()), Some(t));
        assert_eq!(Tuple::decode(&Tuple::new().encode()), Some(Tuple::new()));
        // one length byte up to 127, two from 128
        let len = |s: String| Tuple::new().with("T", s).encode().len();
        assert_eq!(len("a".repeat(128)) - len("a".repeat(127)), 2);
    }

    #[test]
    fn decoding_refuses_what_encode_did_not_write() {
        let bytes = prof_tuple().encode();
        for cut in 0..bytes.len() {
            assert_eq!(Tuple::decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // `parse` accepts exactly what `decode` accepts, cut or with any
        // one bit flipped, and what it accepts reads in place as decoded.
        let keeps: Vec<(Symbol, Keep)> = ["PName", "Email", "CourseList", "CName"]
            .into_iter()
            .map(|name| (Symbol::intern(name), Keep::All))
            .collect();
        let mut accepted = 0;
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                for b in [&bytes[..i], &flipped[..]] {
                    let parsed = EncodedTuple::parse(b);
                    assert_eq!(
                        parsed.as_ref().map(EncodedTuple::to_tuple),
                        Tuple::decode(b)
                    );
                    if parsed.is_some() {
                        accepted += 1;
                        assert_eq!(built(&[b], &keeps, true), built(&[b], &keeps, false));
                    }
                }
            }
        }
        assert!(accepted > 0, "some flips leave an encoded tuple");
        assert_eq!(Tuple::decode(&[bytes.as_slice(), &[0]].concat()), None);
        let field = |id: u32, tag: u8, rest: &[u8]| {
            let mut b = vec![1];
            put_varint(&mut b, u64::from(id));
            b.push(tag);
            b.extend_from_slice(rest);
            b
        };
        let known = Symbol::intern("PName").id();
        assert!(Tuple::decode(&field(known, TEXT, &[1, b'x'])).is_some());
        assert_eq!(Tuple::decode(&field(known, 9, &[])), None, "unknown tag");
        assert_eq!(
            Tuple::decode(&field(known, TEXT, &[1, 0xff])),
            None,
            "not UTF-8"
        );
        assert_eq!(
            Tuple::decode(&field(u32::MAX, NULL, &[])),
            None,
            "unknown id"
        );
        assert_eq!(Tuple::decode(&[0xff; 11]), None, "a varint past 64 bits");
    }
}
