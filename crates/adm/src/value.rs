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

    /// Looks a (possibly nested) dotted path up, descending into list values
    /// is not allowed here — paths must address mono-valued positions; use
    /// the relation layer's unnest for multi-valued access.
    pub fn get_path(&self, path: &[&str]) -> Option<&Value> {
        let (first, rest) = path.split_first()?;
        let v = self.get(first)?;
        if rest.is_empty() {
            Some(v)
        } else {
            // Descend only through single-row lists is NOT supported: paths
            // through lists are a relation-level concern.
            None
        }
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
    /// one: byte-budgeted caches evict by this number.
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

    #[test]
    fn get_path_rejects_descent_through_lists() {
        let t = prof_tuple();
        assert!(t.get_path(&["CourseList", "CName"]).is_none());
        assert!(t.get_path(&["PName"]).is_some());
    }
}
