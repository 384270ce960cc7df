//! Conjunctive queries over external relations (Section 5).
//!
//! The user's perception of the system is purely relational: a set of
//! external relations and a conjunctive (select-project-join) query over
//! them. `wvquery` provides a SQL-subset parser producing these values; the
//! optimizer consumes them.

use crate::views::ViewCatalog;
use crate::{OptError, Result};
use adm::Value;
use std::fmt;

/// A reference to an attribute of a query atom: `(atom index, attribute)`.
pub type AttrPos = (usize, String);

/// A conjunctive query: atoms (external relations), equality joins between
/// atom attributes, constant selections, and a projection list.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// A short name for reports.
    pub name: String,
    /// The external relations joined by the query, in order.
    pub atoms: Vec<String>,
    /// Equality joins between atom attributes.
    pub joins: Vec<(AttrPos, AttrPos)>,
    /// Constant selections `atom.attr = value`.
    pub selections: Vec<(AttrPos, Value)>,
    /// The output attributes.
    pub projection: Vec<AttrPos>,
}

impl ConjunctiveQuery {
    /// Starts a query with a report name.
    pub fn new(name: impl Into<String>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            atoms: Vec::new(),
            joins: Vec::new(),
            selections: Vec::new(),
            projection: Vec::new(),
        }
    }

    /// Adds an atom (external relation occurrence); returns `self`.
    pub fn atom(mut self, relation: impl Into<String>) -> Self {
        self.atoms.push(relation.into());
        self
    }

    /// Adds an equality join between two atom attributes.
    pub fn join(
        mut self,
        left: (usize, impl Into<String>),
        right: (usize, impl Into<String>),
    ) -> Self {
        self.joins
            .push(((left.0, left.1.into()), (right.0, right.1.into())));
        self
    }

    /// Adds a constant selection.
    pub fn select(mut self, at: (usize, impl Into<String>), value: impl Into<Value>) -> Self {
        self.selections.push(((at.0, at.1.into()), value.into()));
        self
    }

    /// Adds an output attribute.
    pub fn project(mut self, at: (usize, impl Into<String>)) -> Self {
        self.projection.push((at.0, at.1.into()));
        self
    }

    /// The **exact-query** key: a normalized rendering under which two
    /// queries compare equal iff they ask for the same thing, constants
    /// included. This is what a maintained view is registered and looked
    /// up under (a view answers one exact query) and what request ids are
    /// derived from; plans are cached under [`ConjunctiveQuery::shape`].
    ///
    /// Normalization: the report [`ConjunctiveQuery::name`] is excluded
    /// (it never affects planning); each join pair is ordered so
    /// `a.X = b.Y` and `b.Y = a.X` agree; joins and selections are
    /// sorted. Atom order and projection order are preserved — both are
    /// semantically significant (atom indices anchor every attribute
    /// reference, and the projection fixes the output column order).
    pub fn cache_key(&self) -> String {
        let mut selections: Vec<String> = self
            .selections
            .iter()
            .map(|((i, a), v)| format!("{i}.{a}='{v}'"))
            .collect();
        selections.sort();
        self.render_key(&selections)
    }

    /// The **planning** key — the query with its constants taken out —
    /// and the constants, one per equality class.
    ///
    /// Normalization is [`ConjunctiveQuery::cache_key`]'s, except that a
    /// selection renders as `i.attr=$<tag><k>`: `k` numbers the constant's
    /// equality class in first-appearance order over the selections sorted
    /// by position (then value), and `<tag>` names its [`Value`] variant
    /// (`t`ext, `l`ink, `n`ull, lis`m`). `params[k]` is class `k`'s
    /// constant, so key and parameters together give the query back.
    ///
    /// Algorithm 1 never looks at a constant — the cost model prices
    /// `σ A='c'` by the distinct values of `A`, and no rule reads one — so
    /// every query of one shape gets the same candidates, estimates and
    /// dependency sets up to renaming constants class by class
    /// ([`crate::Explain::bind`]). *Which constants are equal* does reach
    /// the plan (equal `σ` atoms are one hash-consed node), which is why
    /// the partition is in the key and not just a parameter count.
    pub fn shape(&self) -> (String, Vec<Value>) {
        let mut sorted: Vec<&(AttrPos, Value)> = self.selections.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
        let mut params: Vec<Value> = Vec::new();
        let selections: Vec<String> = sorted
            .into_iter()
            .map(|((i, a), v)| {
                let k = params.iter().position(|p| p == v).unwrap_or_else(|| {
                    params.push(v.clone());
                    params.len() - 1
                });
                let tag = match v {
                    Value::Text(_) => 't',
                    Value::Link(_) => 'l',
                    Value::Null => 'n',
                    Value::List(_) => 'm',
                };
                format!("{i}.{a}=${tag}{k}")
            })
            .collect();
        (self.render_key(&selections), params)
    }

    /// The normalized rendering both keys share, around the given
    /// (already ordered) selection renderings.
    fn render_key(&self, selections: &[String]) -> String {
        let pos = |(i, a): &AttrPos| format!("{i}.{a}");
        let mut joins: Vec<String> = self
            .joins
            .iter()
            .map(|(l, r)| {
                let (l, r) = if l <= r { (l, r) } else { (r, l) };
                format!("{}={}", pos(l), pos(r))
            })
            .collect();
        joins.sort();
        let projection: Vec<String> = self.projection.iter().map(pos).collect();
        format!(
            "atoms[{}] joins[{}] sel[{}] proj[{}]",
            self.atoms.join(","),
            joins.join(","),
            selections.join(","),
            projection.join(",")
        )
    }

    /// Validates the query against a catalog: atoms exist, attribute
    /// references are in range and belong to their relations, the
    /// projection is non-empty.
    pub fn validate(&self, catalog: &ViewCatalog) -> Result<()> {
        if self.atoms.is_empty() {
            return Err(OptError::BadQuery("no atoms".into()));
        }
        if self.projection.is_empty() {
            return Err(OptError::BadQuery("empty projection".into()));
        }
        let check = |(i, attr): &AttrPos| -> Result<()> {
            let rel_name = self
                .atoms
                .get(*i)
                .ok_or_else(|| OptError::BadQuery(format!("atom index {i} out of range")))?;
            let rel = catalog.relation(rel_name)?;
            if !rel.attrs.iter().any(|a| a == attr) {
                return Err(OptError::UnknownViewAttribute {
                    relation: rel_name.clone(),
                    attr: attr.clone(),
                });
            }
            Ok(())
        };
        for (l, r) in &self.joins {
            check(l)?;
            check(r)?;
        }
        for (a, _) in &self.selections {
            check(a)?;
        }
        for p in &self.projection {
            check(p)?;
        }
        for rel in &self.atoms {
            catalog.relation(rel)?;
        }
        Ok(())
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_pos = |(i, a): &AttrPos| {
            format!(
                "{}#{i}.{a}",
                self.atoms.get(*i).map(String::as_str).unwrap_or("?")
            )
        };
        write!(f, "π[")?;
        for (i, p) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", fmt_pos(p))?;
        }
        write!(f, "] σ[")?;
        let mut first = true;
        for (a, v) in &self.selections {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            write!(f, "{}='{v}'", fmt_pos(a))?;
        }
        for (l, r) in &self.joins {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            write!(f, "{}={}", fmt_pos(l), fmt_pos(r))?;
        }
        write!(f, "] ({})", self.atoms.join(" ⋈ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::university_catalog;

    fn example_71() -> ConjunctiveQuery {
        // "Name and Description of courses taught by full professors in the
        // Fall session" (paper Example 7.1)
        ConjunctiveQuery::new("ex71")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((0, "Rank"), "Full")
            .select((2, "Session"), "Fall")
            .project((2, "CName"))
            .project((2, "Description"))
    }

    #[test]
    fn builder_and_validation() {
        let cat = university_catalog();
        let q = example_71();
        assert_eq!(q.atoms.len(), 3);
        q.validate(&cat).unwrap();
    }

    #[test]
    fn rejects_unknown_relation() {
        let cat = university_catalog();
        let q = ConjunctiveQuery::new("bad").atom("Nope").project((0, "X"));
        assert!(matches!(
            q.validate(&cat),
            Err(OptError::UnknownRelation(_))
        ));
    }

    #[test]
    fn rejects_unknown_attribute() {
        let cat = university_catalog();
        let q = ConjunctiveQuery::new("bad")
            .atom("Professor")
            .project((0, "Salary"));
        assert!(matches!(
            q.validate(&cat),
            Err(OptError::UnknownViewAttribute { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_atom() {
        let cat = university_catalog();
        let q = ConjunctiveQuery::new("bad")
            .atom("Professor")
            .project((3, "PName"));
        assert!(matches!(q.validate(&cat), Err(OptError::BadQuery(_))));
    }

    #[test]
    fn rejects_empty() {
        let cat = university_catalog();
        assert!(ConjunctiveQuery::new("e").validate(&cat).is_err());
        assert!(ConjunctiveQuery::new("e")
            .atom("Professor")
            .validate(&cat)
            .is_err());
    }

    #[test]
    fn cache_key_normalizes_names_join_order_and_listing_order() {
        let a = example_71();
        // Same query, different report name, joins flipped and reordered,
        // selections reordered.
        let b = ConjunctiveQuery::new("some other label")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((2, "CName"), (1, "CName"))
            .join((1, "PName"), (0, "PName"))
            .select((2, "Session"), "Fall")
            .select((0, "Rank"), "Full")
            .project((2, "CName"))
            .project((2, "Description"));
        assert_eq!(a.cache_key(), b.cache_key());
        // Projection order is significant (output column order).
        let c = ConjunctiveQuery::new("ex71")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((0, "Rank"), "Full")
            .select((2, "Session"), "Fall")
            .project((2, "Description"))
            .project((2, "CName"));
        assert_ne!(a.cache_key(), c.cache_key());
        // And so is the selection constant.
        let d = example_71().select((0, "Rank"), "Associate");
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn shape_drops_constants_and_keeps_their_equality_partition() {
        let (key, params) = example_71().shape();
        assert_eq!(
            key,
            "atoms[Professor,CourseInstructor,Course] \
             joins[0.PName=1.PName,1.CName=2.CName] \
             sel[0.Rank=$t0,2.Session=$t1] proj[2.CName,2.Description]"
        );
        assert_eq!(params, vec![Value::text("Full"), Value::text("Fall")]);
        // Other constants, selections listed the other way round: same
        // shape, parameters in the key's order.
        let other = ConjunctiveQuery::new("x")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((2, "Session"), "Winter")
            .select((0, "Rank"), "Associate")
            .project((2, "CName"))
            .project((2, "Description"));
        let (other_key, other_params) = other.shape();
        assert_eq!(other_key, key);
        assert_eq!(
            other_params,
            vec![Value::text("Associate"), Value::text("Winter")]
        );
        assert_ne!(other.cache_key(), example_71().cache_key());
        // One constant on both attributes is one class — another shape.
        let same = ConjunctiveQuery::new("x")
            .atom("Professor")
            .select((0, "Rank"), "v")
            .select((0, "PName"), "v")
            .project((0, "PName"));
        let (same_key, same_params) = same.shape();
        assert!(
            same_key.contains("sel[0.PName=$t0,0.Rank=$t0]"),
            "{same_key}"
        );
        assert_eq!(same_params, vec![Value::text("v")]);
        let differ = ConjunctiveQuery::new("x")
            .atom("Professor")
            .select((0, "Rank"), "v")
            .select((0, "PName"), "w")
            .project((0, "PName"));
        assert!(differ.shape().0.contains("sel[0.PName=$t0,0.Rank=$t1]"));
        // The variant is part of the shape; the value is not.
        let link = ConjunctiveQuery::new("x")
            .atom("Professor")
            .select((0, "PName"), Value::link("/p/1"))
            .project((0, "PName"));
        assert!(link.shape().0.contains("sel[0.PName=$l0]"));
        // Contradictory selections are an ordinary two-class shape.
        let both = ConjunctiveQuery::new("x")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .select((0, "Rank"), "Associate")
            .project((0, "PName"));
        let (both_key, both_params) = both.shape();
        assert!(
            both_key.contains("sel[0.Rank=$t0,0.Rank=$t1]"),
            "{both_key}"
        );
        assert_eq!(
            both_params,
            vec![Value::text("Associate"), Value::text("Full")]
        );
    }

    #[test]
    fn display_mentions_structure() {
        let s = example_71().to_string();
        assert!(s.contains("Professor ⋈ CourseInstructor ⋈ Course"));
        assert!(s.contains("Rank='Full'"));
        assert!(s.contains("CName"));
    }
}
