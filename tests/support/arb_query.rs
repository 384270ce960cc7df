//! Conjunctive queries drawn over any view catalog.
//!
//! A draw is a [`QueryPicks`]: indices, not names, so the same draw reads
//! against any catalog. [`QuerySpace`] reads it against one — relations
//! and attributes from the catalog, selection constants from the site's
//! ground truth: the values its pages hold under each attribute's column,
//! plus one no page holds.
//!
//! Included by `#[path]` from suites of several crates, each of which uses
//! a part of it.
#![allow(dead_code)]

use adm::{Tuple, Value};
use proptest::prelude::*;
use proptest::sample::Index;
use std::collections::{BTreeMap, BTreeSet};
use websim::Site;
use wvcore::{ConjunctiveQuery, ViewCatalog};

/// The constant a selection draws when it should match nothing.
pub const ABSENT: &str = "absent from the site";

/// One to three atoms, up to two selections, natural joins or none.
#[derive(Debug, Clone)]
pub struct QueryPicks {
    pub atoms: Vec<Index>,
    pub selections: Vec<(Index, Index)>,
    pub join_all_shared: bool,
}

pub fn arb_query() -> impl Strategy<Value = QueryPicks> {
    (
        proptest::collection::vec(any::<Index>(), 1..=3),
        proptest::collection::vec((any::<Index>(), any::<Index>()), 0..3),
        any::<bool>(),
    )
        .prop_map(|(atoms, selections, join_all_shared)| QueryPicks {
            atoms,
            selections,
            join_all_shared,
        })
}

/// A draw read against a catalog: atoms by relation index, selections as
/// `(atom, attribute, constant)`.
#[derive(Debug, Clone)]
pub struct DrawnQuery {
    pub atoms: Vec<usize>,
    pub selections: Vec<(usize, String, String)>,
    pub join_all_shared: bool,
}

/// What a catalog offers to draw from over one site.
pub struct QuerySpace {
    /// Each relation with its attributes, in catalog order.
    relations: Vec<(String, Vec<String>)>,
    /// Per attribute name, the values the site holds under every column
    /// some relation binds it to, sorted, then [`ABSENT`].
    constants: BTreeMap<String, Vec<String>>,
}

impl QuerySpace {
    /// The relations of `catalog`, with constants read off `site`'s pages
    /// through each relation's first complete navigation.
    pub fn new(catalog: &ViewCatalog, site: &Site) -> Self {
        let mut relations = Vec::new();
        let mut held: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for rel in catalog.relations() {
            relations.push((rel.name.clone(), rel.attrs.clone()));
            let nav = (rel.navigations.iter())
                .find(|n| n.complete)
                .expect("every relation has a complete navigation");
            let aliases = nav.expr.alias_map().expect("aliases are unique");
            for attr in &rel.attrs {
                let column = nav.binding(attr).expect("every attribute is bound");
                let (alias, path) = column.split_once('.').expect("bindings are qualified");
                let path: Vec<&str> = path.split('.').collect();
                let pool = held.entry(attr.clone()).or_default();
                for (_, page) in site.pages(&aliases[alias]) {
                    values_at(page, &path, pool);
                }
            }
        }
        let constants = (held.into_iter())
            .map(|(attr, values)| {
                let mut pool: Vec<String> = values.into_iter().collect();
                pool.push(ABSENT.to_string());
                (attr, pool)
            })
            .collect();
        QuerySpace {
            relations,
            constants,
        }
    }

    /// The constants a selection on `attr` draws from.
    pub fn constants(&self, attr: &str) -> &[String] {
        &self.constants[attr]
    }

    /// `attr`'s constants widened by the first constant of every other
    /// attribute, so that a draw can repeat one value under two attributes.
    pub fn widened(&self, attr: &str) -> Vec<String> {
        let mut pool = self.constants(attr).to_vec();
        pool.extend(
            (self.constants.iter())
                .filter(|(a, _)| a.as_str() != attr)
                .map(|(_, values)| values[0].clone()),
        );
        pool
    }

    /// `picks` read against this space; `shift` moves every selection
    /// constant that many places along its pool, giving another instance
    /// of the same shape.
    pub fn draw(&self, picks: &QueryPicks, shift: usize) -> DrawnQuery {
        let atoms: Vec<usize> = (picks.atoms.iter())
            .map(|i| i.index(self.relations.len()))
            .collect();
        let selections = (picks.selections.iter())
            .map(|(at, which)| {
                let atom = at.index(atoms.len());
                let attrs = &self.relations[atoms[atom]].1;
                let attr = &attrs[which.index(attrs.len())];
                let pool = self.constants(attr);
                let value = &pool[(which.index(pool.len()) + shift) % pool.len()];
                (atom, attr.clone(), value.clone())
            })
            .collect();
        DrawnQuery {
            atoms,
            selections,
            join_all_shared: picks.join_all_shared,
        }
    }

    /// The query: every atom, natural joins of every later atom to every
    /// earlier one on shared attribute names (when drawn), the selections,
    /// and the first attribute of every atom projected.
    pub fn build(&self, q: &DrawnQuery) -> ConjunctiveQuery {
        let attrs = |atom: usize| &self.relations[q.atoms[atom]].1;
        let mut out = ConjunctiveQuery::new("drawn");
        for &a in &q.atoms {
            out = out.atom(self.relations[a].0.as_str());
        }
        if q.join_all_shared {
            for j in 1..q.atoms.len() {
                for i in 0..j {
                    for attr in attrs(i) {
                        if attrs(j).contains(attr) {
                            out = out.join((i, attr.as_str()), (j, attr.as_str()));
                        }
                    }
                }
            }
        }
        for (atom, attr, value) in &q.selections {
            out = out.select((*atom, attr.as_str()), value.as_str());
        }
        for i in 0..q.atoms.len() {
            out = out.project((i, attrs(i)[0].as_str()));
        }
        out
    }
}

/// Adds to `out` every text `t` holds at `path`, through nested lists.
fn values_at(t: &Tuple, path: &[&str], out: &mut BTreeSet<String>) {
    let Some((head, rest)) = path.split_first() else {
        return;
    };
    match t.get(head) {
        Some(Value::Text(s)) if rest.is_empty() => {
            out.insert(s.clone());
        }
        Some(Value::List(inner)) => {
            for t in inner {
                values_at(t, rest, out);
            }
        }
        _ => {}
    }
}
