//! Which column a reference names: the one place NALG's naming rule
//! (Section 4) is written.
//!
//! Columns are named `alias.field…`. A reference *binds* a column when it
//! is the column's whole dotted name, or when it ends the column right
//! after a `.`: `Name` binds `DeptPage.Name` but not `ProfPage.DeptName`.
//! Resolution takes the exact name, else the one column the reference
//! binds. Both sides are given as dotted parts (`["ProfPage", "Rank"]` is
//! `ProfPage.Rank`, and a part may hold dots itself), so a caller holding
//! symbols or an `(alias, rest)` pair builds no string, and nothing here
//! allocates until an error is reported.

use crate::error::AdmError;
use crate::Result;
use std::fmt::Display;

/// How a reference binds a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// The reference is the column's whole dotted name.
    Exact,
    /// The reference ends the column right after a `.`.
    Suffix,
}

/// How `reference` binds `column`, compared as the strings their parts
/// join to, from their ends.
#[inline]
pub fn binding(column: &[&str], reference: &[&str]) -> Option<Binding> {
    let mut column = rev_bytes(column);
    if !rev_bytes(reference).all(|b| column.next() == Some(b)) {
        return None;
    }
    match column.next() {
        None => Some(Binding::Exact),
        Some(b'.') => Some(Binding::Suffix),
        Some(_) => None,
    }
}

/// The bytes of dotted parts joined by `.`, last first.
#[inline]
fn rev_bytes<'p>(mut parts: &'p [&'p str]) -> impl Iterator<Item = u8> + 'p {
    let mut left = parts.last().map_or(0, |p| p.len());
    std::iter::from_fn(move || {
        let (last, earlier) = parts.split_last()?;
        if left > 0 {
            left -= 1;
            return last.as_bytes().get(left).copied();
        }
        left = earlier.last()?.len();
        parts = earlier;
        Some(b'.')
    })
}

/// The column a reference names, given how it binds each column of a
/// header in order: the first it names exactly, else the only one it
/// binds; `None` when it binds none, or several and names none.
pub fn position(bindings: impl IntoIterator<Item = Option<Binding>>) -> Option<usize> {
    let (mut hit, mut ambiguous) = (None, false);
    for (i, b) in bindings.into_iter().enumerate() {
        match b {
            Some(Binding::Exact) => return Some(i),
            Some(Binding::Suffix) => {
                ambiguous |= hit.is_some();
                hit = hit.or(Some(i));
            }
            None => {}
        }
    }
    hit.filter(|_| !ambiguous)
}

/// [`position`] over `header`, where `bind` says how `reference` binds a
/// column, failing with the [`AdmError`] that says why.
pub fn resolve<T: Display>(
    header: &[T],
    reference: impl Display,
    bind: impl Fn(&T) -> Option<Binding>,
) -> Result<usize> {
    position(header.iter().map(&bind)).ok_or_else(|| {
        let attr = reference.to_string();
        let bound: Vec<String> = (header.iter())
            .filter(|c| bind(c).is_some())
            .map(T::to_string)
            .collect();
        if !bound.is_empty() {
            return AdmError::AmbiguousAttribute {
                attr,
                candidates: bound,
            };
        }
        let all: Vec<String> = header.iter().map(T::to_string).collect();
        AdmError::UnknownAttribute {
            attr,
            within: format!("relation [{}]", all.join(", ")),
        }
    })
}

/// [`resolve`] for whole names.
pub fn resolve_name<T: AsRef<str> + Display>(header: &[T], name: &str) -> Result<usize> {
    resolve(header, name, |c| binding(&[c.as_ref()], &[name]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(column: &str, reference: &str) -> Option<Binding> {
        binding(&[column], &[reference])
    }

    #[test]
    fn a_reference_binds_whole_names_and_suffixes_after_a_dot() {
        assert_eq!(bind("ProfPage.Rank", "ProfPage.Rank"), Some(Binding::Exact));
        assert_eq!(bind("ProfPage.Rank", "Rank"), Some(Binding::Suffix));
        assert_eq!(bind("A.B.C", "B.C"), Some(Binding::Suffix));
        assert_eq!(bind("ProfPage.DeptName", "Name"), None);
        assert_eq!(bind("ProfPage.Rank", "Page.Rank"), None);
        assert_eq!(bind("Rank", "ProfPage.Rank"), None);
        assert_eq!(bind("Rank", "ank"), None);
    }

    #[test]
    fn parts_compare_as_the_string_they_join_to() {
        let cases: &[(&[&str], &[&str], Option<Binding>)] = &[
            (&["ProfPage", "Rank"], &["Rank"], Some(Binding::Suffix)),
            (
                &["ProfPage", "Rank"],
                &["ProfPage.Rank"],
                Some(Binding::Exact),
            ),
            (
                &["ProfPage.Rank"],
                &["ProfPage", "Rank"],
                Some(Binding::Exact),
            ),
            (&["a.b", "F"], &["b", "F"], Some(Binding::Suffix)),
            (&["A", "x.y"], &["y"], Some(Binding::Suffix)),
            (&["A", "x.y"], &["x"], None),
            (&["AB", "C"], &["B", "C"], None),
            (&["B", "XC"], &["B", "C"], None),
            (&[], &[], Some(Binding::Exact)),
        ];
        for &(column, reference, expected) in cases {
            assert_eq!(
                binding(column, reference),
                expected,
                "{column:?} by {reference:?}"
            );
        }
    }

    #[test]
    fn resolution_prefers_the_exact_name_then_the_one_binding_column() {
        let header = ["L.URL", "L.Name", "Q.L.Name", "Q.Name"];
        assert_eq!(resolve_name(&header, "Q.Name"), Ok(3));
        assert_eq!(resolve_name(&header, "L.Name"), Ok(1), "exact beats suffix");
        assert_eq!(resolve_name(&header, "URL"), Ok(0));
        assert_eq!(
            resolve_name(&header, "Name"),
            Err(AdmError::AmbiguousAttribute {
                attr: "Name".into(),
                candidates: vec!["L.Name".into(), "Q.L.Name".into(), "Q.Name".into()],
            })
        );
        assert_eq!(
            resolve_name(&header, "Nope"),
            Err(AdmError::UnknownAttribute {
                attr: "Nope".into(),
                within: "relation [L.URL, L.Name, Q.L.Name, Q.Name]".into(),
            })
        );
        assert_eq!(position([None, Some(Binding::Suffix)]), Some(1));
        assert_eq!(
            position([
                Some(Binding::Suffix),
                Some(Binding::Suffix),
                Some(Binding::Exact)
            ]),
            Some(2)
        );
    }
}
