//! Link and inclusion constraints (Section 3.2).
//!
//! * A **link constraint** `A = B`, attached to a link `L` from `P1` to
//!   `P2`, documents that attribute `A` of the source replicates attribute
//!   `B` of the target: for tuples `t1 ∈ P1`, `t2 ∈ P2`,
//!   `t1.L = t2.URL  ⇔  t1.A = t2.B`.
//! * An **inclusion constraint** `P1.L1 ⊆ P2.L2` documents that every page
//!   reachable via `L1` is also reachable via `L2`.
//!
//! Both kinds capture site redundancy and license the optimizer's rewrite
//! rules (selection pushing via link constraints, pointer-chase via
//! inclusion constraints). This module also provides instance-level
//! verification used by the site generators' self-checks and by tests.

use crate::schema::AttrRef;
use crate::url::Url;
use crate::value::{Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A link constraint: `link`'s source attribute `source_attr` equals the
/// target page's `target_attr`. `source_attr` lives in the same page-scheme
/// as `link` (at the same or an enclosing nesting level); `target_attr` is a
/// top-level mono-valued attribute of the link's target scheme.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkConstraint {
    /// The link attribute the constraint is attached to.
    pub link: AttrRef,
    /// The replicated attribute on the source side.
    pub source_attr: AttrRef,
    /// The replicated attribute on the target side.
    pub target_attr: AttrRef,
}

impl LinkConstraint {
    /// Creates a link constraint.
    pub fn new(link: AttrRef, source_attr: AttrRef, target_attr: AttrRef) -> Self {
        LinkConstraint {
            link,
            source_attr,
            target_attr,
        }
    }

    /// Convenience parser: `LinkConstraint::parse("P1.L", "P1.A", "P2.B")`.
    pub fn parse(link: &str, source: &str, target: &str) -> crate::Result<Self> {
        Ok(LinkConstraint::new(
            AttrRef::parse(link)?,
            AttrRef::parse(source)?,
            AttrRef::parse(target)?,
        ))
    }
}

impl fmt::Display for LinkConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {}  (via {})",
            self.source_attr, self.target_attr, self.link
        )
    }
}

/// An inclusion constraint `sub ⊆ sup` between two link attributes that
/// point to the same page-scheme.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InclusionConstraint {
    /// The contained link set.
    pub sub: AttrRef,
    /// The containing link set.
    pub sup: AttrRef,
}

impl InclusionConstraint {
    /// Creates an inclusion constraint `sub ⊆ sup`.
    pub fn new(sub: AttrRef, sup: AttrRef) -> Self {
        InclusionConstraint { sub, sup }
    }

    /// Convenience parser: `InclusionConstraint::parse("P1.L1", "P2.L2")`.
    pub fn parse(sub: &str, sup: &str) -> crate::Result<Self> {
        Ok(InclusionConstraint::new(
            AttrRef::parse(sub)?,
            AttrRef::parse(sup)?,
        ))
    }
}

impl fmt::Display for InclusionConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⊆ {}", self.sub, self.sup)
    }
}

/// A page-relation instance handed to the verification routines: for each
/// page of the scheme, its URL and nested tuple.
pub type Instance<'a> = &'a [(Url, Tuple)];

/// One page of an instance, by reference: what the whole-instance
/// verifiers iterate over. An owned instance (`&[(Url, Tuple)]`) yields
/// `&(Url, Tuple)`, a borrowed walk of a store yields `(&Url, &Tuple)`;
/// both verify without being copied into the other shape first.
pub trait PageRef<'a> {
    /// The page's URL and tuple.
    fn page(self) -> (&'a Url, &'a Tuple);
}

impl<'a> PageRef<'a> for &'a (Url, Tuple) {
    fn page(self) -> (&'a Url, &'a Tuple) {
        (&self.0, &self.1)
    }
}

impl<'a> PageRef<'a> for (&'a Url, &'a Tuple) {
    fn page(self) -> (&'a Url, &'a Tuple) {
        self
    }
}

/// Collects the values at `path` from a tuple, flattening through lists.
/// Returns every occurrence (one per inner row for nested paths).
pub fn collect_values<'a>(tuple: &'a Tuple, path: &[String]) -> Vec<&'a Value> {
    fn walk<'a>(t: &'a Tuple, path: &[String], out: &mut Vec<&'a Value>) {
        let Some((first, rest)) = path.split_first() else {
            return;
        };
        let Some(v) = t.get(first) else { return };
        if rest.is_empty() {
            out.push(v);
        } else if let Value::List(rows) = v {
            for row in rows {
                walk(row, rest, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(tuple, path, &mut out);
    out
}

/// Collects `(source_attr value, link value)` pairs co-located at the link's
/// nesting level. `attr_path` must be visible at the link's level (same list
/// ancestry prefix), which schema validation guarantees for link
/// constraints.
pub fn collect_pairs<'a>(
    tuple: &'a Tuple,
    attr_path: &[String],
    link_path: &[String],
) -> Vec<(&'a Value, &'a Value)> {
    // Walk down the link path; at each level remember the most recent value
    // of the attribute path if it branches off here.
    fn walk<'a>(
        t: &'a Tuple,
        attr_path: &[String],
        link_path: &[String],
        inherited: Option<&'a Value>,
        out: &mut Vec<(&'a Value, &'a Value)>,
    ) {
        // Does the attribute live at this level?
        let attr_here = if attr_path.len() == 1 {
            t.get(&attr_path[0])
        } else {
            None
        };
        let current = attr_here.or(inherited);
        let Some((l_first, l_rest)) = link_path.split_first() else {
            return;
        };
        let Some(lv) = t.get(l_first) else { return };
        if l_rest.is_empty() {
            if let Some(av) = current {
                out.push((av, lv));
            }
            return;
        }
        // Descend into the list; if the attribute path also descends through
        // the same list, strip the shared head.
        let next_attr: &[String] = if attr_path.len() > 1 && attr_path[0] == *l_first {
            &attr_path[1..]
        } else {
            attr_path
        };
        if let Value::List(rows) = lv {
            for row in rows {
                walk(row, next_attr, l_rest, current, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(tuple, attr_path, link_path, None, &mut out);
    out
}

/// Result of verifying a constraint against instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description of the violated condition.
    pub detail: String,
}

/// Verifies a link constraint on instances of its source and target
/// schemes. Checks both directions of the iff:
/// 1. every followed link lands on a page whose `target_attr` equals the
///    co-located `source_attr` value;
/// 2. whenever `source_attr` equals some page's `target_attr`, the link
///    points at (one of) the page(s) with that value.
pub fn verify_link_constraint<'a, S, T>(c: &LinkConstraint, source: S, target: T) -> Vec<Violation>
where
    S: IntoIterator<Item: PageRef<'a>>,
    T: IntoIterator<Item: PageRef<'a>>,
{
    let mut violations = Vec::new();
    let mut by_url: HashMap<&str, &Value> = HashMap::new();
    let mut urls_by_value: HashMap<&Value, HashSet<&str>> = HashMap::new();
    for (url, t) in target.into_iter().map(PageRef::page) {
        if let Some(v) = c.target_attr.leaf().and_then(|leaf| t.get(leaf)) {
            by_url.insert(url.as_str(), v);
            urls_by_value.entry(v).or_default().insert(url.as_str());
        }
    }
    for (src_url, t) in source.into_iter().map(PageRef::page) {
        for (a, l) in collect_pairs(t, &c.source_attr.path, &c.link.path) {
            let Value::Link(u) = l else {
                if !l.is_null() {
                    violations.push(Violation {
                        detail: format!("{}: link value is not a URL in {src_url}", c.link),
                    });
                }
                continue;
            };
            match by_url.get(u.as_str()) {
                Some(b) if *b == a => {}
                Some(b) => violations.push(Violation {
                    detail: format!("{c}: page {src_url} links to {u} but {a} ≠ {b}"),
                }),
                None => violations.push(Violation {
                    detail: format!("{c}: page {src_url} links to unknown target {u}"),
                }),
            }
            // Only-if direction: the link must point into the set of pages
            // carrying this attribute value.
            if let Some(urls) = urls_by_value.get(a) {
                if !urls.contains(u.as_str()) {
                    violations.push(Violation {
                        detail: format!(
                            "{c}: page {src_url} has value {a} but links outside its page set"
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Verifies an inclusion constraint `sub ⊆ sup` given the instances of the
/// two source schemes: every URL occurring at `sub` must occur at `sup`.
pub fn verify_inclusion_constraint<'a, S, T>(
    c: &InclusionConstraint,
    sub_instance: S,
    sup_instance: T,
) -> Vec<Violation>
where
    S: IntoIterator<Item: PageRef<'a>>,
    T: IntoIterator<Item: PageRef<'a>>,
{
    let mut sup_urls: HashSet<&str> = HashSet::new();
    for (_, t) in sup_instance.into_iter().map(PageRef::page) {
        for v in collect_values(t, &c.sup.path) {
            if let Value::Link(u) = v {
                sup_urls.insert(u.as_str());
            }
        }
    }
    let mut violations = Vec::new();
    for (page_url, t) in sub_instance.into_iter().map(PageRef::page) {
        for v in collect_values(t, &c.sub.path) {
            if let Value::Link(u) = v {
                if !sup_urls.contains(u.as_str()) {
                    violations.push(Violation {
                        detail: format!(
                            "{c}: URL {u} (reached from {page_url}) not reachable via {}",
                            c.sup
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Audit-oriented variant of [`verify_link_constraint`] for *partially
/// fetched* instances, as produced by runtime constraint auditing: checks
/// only the value-equality direction, and only for pairs whose link target
/// is present in `target`. A page the query never fetched can neither raise
/// nor mask a violation, so the check is sound under incomplete knowledge.
/// Returns the number of pairs checked together with the violations found.
pub fn verify_link_constraint_partial(
    c: &LinkConstraint,
    source: Instance<'_>,
    target: Instance<'_>,
) -> (u64, Vec<Violation>) {
    let mut by_url: HashMap<&str, &Value> = HashMap::new();
    for (url, t) in target {
        if let Some(v) = c.target_attr.leaf().and_then(|leaf| t.get(leaf)) {
            by_url.insert(url.as_str(), v);
        }
    }
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (src_url, t) in source {
        for (a, l) in collect_pairs(t, &c.source_attr.path, &c.link.path) {
            let Value::Link(u) = l else { continue };
            let Some(b) = by_url.get(u.as_str()) else {
                // Target page not fetched: the pair is undecidable.
                continue;
            };
            checks += 1;
            if *b != a {
                violations.push(Violation {
                    detail: format!("{c}: page {src_url} links to {u} but {a} ≠ {b}"),
                });
            }
        }
    }
    (checks, violations)
}

/// Audit-oriented variant of [`verify_inclusion_constraint`] for partially
/// fetched instances. With an empty `sup` instance nothing is decidable
/// (0 checks, no violations); otherwise every `sub` link is checked against
/// the link set of the fetched `sup` pages. Unlike the link-constraint
/// audit this can report a false violation when the query fetched only part
/// of the `sup` collection — which is quarantine-conservative: at worst an
/// optimization is disabled, an answer is never corrupted.
pub fn verify_inclusion_constraint_partial(
    c: &InclusionConstraint,
    sub_instance: Instance<'_>,
    sup_instance: Instance<'_>,
) -> (u64, Vec<Violation>) {
    if sup_instance.is_empty() {
        return (0, Vec::new());
    }
    let mut sup_urls: HashSet<&str> = HashSet::new();
    for (_, t) in sup_instance {
        for v in collect_values(t, &c.sup.path) {
            if let Value::Link(u) = v {
                sup_urls.insert(u.as_str());
            }
        }
    }
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (page_url, t) in sub_instance {
        for v in collect_values(t, &c.sub.path) {
            if let Value::Link(u) = v {
                checks += 1;
                if !sup_urls.contains(u.as_str()) {
                    violations.push(Violation {
                        detail: format!(
                            "{c}: URL {u} (reached from {page_url}) not reachable via {}",
                            c.sup
                        ),
                    });
                }
            }
        }
    }
    (checks, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dept_tuple(dname: &str, profs: &[(&str, &str)]) -> Tuple {
        Tuple::new().with("DName", dname).with_list(
            "ProfList",
            profs
                .iter()
                .map(|(n, u)| {
                    Tuple::new()
                        .with("PName", *n)
                        .with("ToProf", Value::link(*u))
                })
                .collect(),
        )
    }

    fn prof_tuple(pname: &str) -> Tuple {
        Tuple::new().with("PName", pname)
    }

    fn link_c() -> LinkConstraint {
        LinkConstraint::parse(
            "DeptPage.ProfList.ToProf",
            "DeptPage.ProfList.PName",
            "ProfPage.PName",
        )
        .unwrap()
    }

    #[test]
    fn collect_values_flattens_lists() {
        let t = dept_tuple("CS", &[("Codd", "/p1"), ("Gray", "/p2")]);
        let vs = collect_values(&t, &["ProfList".into(), "PName".into()]);
        assert_eq!(vs.len(), 2);
        let vs = collect_values(&t, &["DName".into()]);
        assert_eq!(vs, vec![&Value::text("CS")]);
        assert!(collect_values(&t, &["Nope".into()]).is_empty());
    }

    #[test]
    fn collect_pairs_same_level() {
        let t = dept_tuple("CS", &[("Codd", "/p1"), ("Gray", "/p2")]);
        let pairs = collect_pairs(
            &t,
            &["ProfList".into(), "PName".into()],
            &["ProfList".into(), "ToProf".into()],
        );
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0.as_text(), Some("Codd"));
        assert_eq!(pairs[0].1.as_link().unwrap().as_str(), "/p1");
    }

    #[test]
    fn collect_pairs_outer_attr_inner_link() {
        // ProfPage.DName = DeptPage.DName via ProfPage.ToDept is top-level;
        // here test an outer attr against links inside a list.
        let t = Tuple::new().with("Session", "Fall").with_list(
            "CourseList",
            vec![
                Tuple::new()
                    .with("CName", "DB")
                    .with("ToCourse", Value::link("/c1")),
                Tuple::new()
                    .with("CName", "OS")
                    .with("ToCourse", Value::link("/c2")),
            ],
        );
        let pairs = collect_pairs(
            &t,
            &["Session".into()],
            &["CourseList".into(), "ToCourse".into()],
        );
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|(a, _)| a.as_text() == Some("Fall")));
    }

    #[test]
    fn link_constraint_holds() {
        let depts = vec![(
            Url::new("/d1"),
            dept_tuple("CS", &[("Codd", "/p1"), ("Gray", "/p2")]),
        )];
        let profs = vec![
            (Url::new("/p1"), prof_tuple("Codd")),
            (Url::new("/p2"), prof_tuple("Gray")),
        ];
        assert!(verify_link_constraint(&link_c(), &depts, &profs).is_empty());
    }

    #[test]
    fn link_constraint_detects_mismatch() {
        let depts = vec![(Url::new("/d1"), dept_tuple("CS", &[("Codd", "/p2")]))];
        let profs = vec![
            (Url::new("/p1"), prof_tuple("Codd")),
            (Url::new("/p2"), prof_tuple("Gray")),
        ];
        let v = verify_link_constraint(&link_c(), &depts, &profs);
        assert!(!v.is_empty());
        assert!(v[0].detail.contains("≠") || v.iter().any(|x| x.detail.contains("outside")));
    }

    #[test]
    fn link_constraint_detects_dangling() {
        let depts = vec![(Url::new("/d1"), dept_tuple("CS", &[("Codd", "/nowhere")]))];
        let profs = vec![(Url::new("/p1"), prof_tuple("Codd"))];
        let v = verify_link_constraint(&link_c(), &depts, &profs);
        assert!(v.iter().any(|x| x.detail.contains("unknown target")));
    }

    #[test]
    fn null_links_are_skipped() {
        let t = Tuple::new().with("DName", "CS").with_list(
            "ProfList",
            vec![Tuple::new().with("PName", "Codd").with_null("ToProf")],
        );
        let depts = vec![(Url::new("/d1"), t)];
        let profs = vec![(Url::new("/p1"), prof_tuple("Codd"))];
        // Null link, but the only-if direction doesn't fire because the pair
        // never yields a URL; the constraint verifier skips nulls entirely.
        let v = verify_link_constraint(&link_c(), &depts, &profs);
        assert!(v.is_empty());
    }

    #[test]
    fn inclusion_holds_and_fails() {
        let c = InclusionConstraint::parse("CoursePage.ToProf", "ProfListPage.ProfList.ToProf")
            .unwrap();
        let courses = vec![
            (
                Url::new("/c1"),
                Tuple::new().with("ToProf", Value::link("/p1")),
            ),
            (
                Url::new("/c2"),
                Tuple::new().with("ToProf", Value::link("/p2")),
            ),
        ];
        let lists = vec![(
            Url::new("/profs"),
            Tuple::new().with_list(
                "ProfList",
                vec![
                    Tuple::new().with("ToProf", Value::link("/p1")),
                    Tuple::new().with("ToProf", Value::link("/p2")),
                ],
            ),
        )];
        assert!(verify_inclusion_constraint(&c, &courses, &lists).is_empty());

        let partial_lists = vec![(
            Url::new("/profs"),
            Tuple::new().with_list(
                "ProfList",
                vec![Tuple::new().with("ToProf", Value::link("/p1"))],
            ),
        )];
        let v = verify_inclusion_constraint(&c, &courses, &partial_lists);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("/p2"));
    }

    #[test]
    fn empty_nested_lists_yield_no_pairs_or_violations() {
        let depts = vec![(Url::new("/d1"), dept_tuple("CS", &[]))];
        let profs = vec![(Url::new("/p1"), prof_tuple("Codd"))];
        assert!(collect_pairs(
            &depts[0].1,
            &["ProfList".into(), "PName".into()],
            &["ProfList".into(), "ToProf".into()],
        )
        .is_empty());
        assert!(verify_link_constraint(&link_c(), &depts, &profs).is_empty());
        let c =
            InclusionConstraint::parse("DeptPage.ProfList.ToProf", "Idx.ProfList.ToProf").unwrap();
        assert!(verify_inclusion_constraint(&c, &depts, &[]).is_empty());
    }

    #[test]
    fn missing_attributes_are_skipped_not_errors() {
        // Source rows without the replicated attribute produce no pairs;
        // target pages without the target attribute are treated as unknown.
        let t = Tuple::new().with("DName", "CS").with_list(
            "ProfList",
            vec![Tuple::new().with("ToProf", Value::link("/p1"))],
        );
        let depts = vec![(Url::new("/d1"), t)];
        let profs = vec![(Url::new("/p1"), Tuple::new().with("Office", "B12"))];
        let v = verify_link_constraint(&link_c(), &depts, &profs);
        // No PName on the source row → no pair → no violation about values;
        // /p1 lacks PName → it is an unknown target for the constraint.
        assert!(v.is_empty(), "{v:?}");
        let both = vec![(Url::new("/d2"), dept_tuple("CS", &[("Codd", "/p1")]))];
        let v = verify_link_constraint(&link_c(), &both, &profs);
        assert!(v.iter().any(|x| x.detail.contains("unknown target")));
    }

    #[test]
    fn duplicate_values_share_a_page_set() {
        // Two professors named Codd: a link to either page satisfies the
        // only-if direction, because the page *set* for the value has both.
        let depts = vec![(
            Url::new("/d1"),
            dept_tuple("CS", &[("Codd", "/p1"), ("Codd", "/p2")]),
        )];
        let profs = vec![
            (Url::new("/p1"), prof_tuple("Codd")),
            (Url::new("/p2"), prof_tuple("Codd")),
        ];
        assert!(verify_link_constraint(&link_c(), &depts, &profs).is_empty());
        // Duplicate links in the sub instance each count, and stay legal
        // as long as the sup side mentions the URL at least once.
        let c = InclusionConstraint::parse("A.To", "B.To").unwrap();
        let sub = vec![
            (Url::new("/a1"), Tuple::new().with("To", Value::link("/x"))),
            (Url::new("/a2"), Tuple::new().with("To", Value::link("/x"))),
        ];
        let sup = vec![(Url::new("/b1"), Tuple::new().with("To", Value::link("/x")))];
        assert!(verify_inclusion_constraint(&c, &sub, &sup).is_empty());
    }

    #[test]
    fn partial_link_check_skips_unfetched_targets() {
        let depts = vec![(
            Url::new("/d1"),
            dept_tuple("CS", &[("Codd", "/p1"), ("Gray", "/p2"), ("Liu", "/p3")]),
        )];
        // Only /p1 and /p2 were fetched; /p2 drifted. /p3 is undecidable.
        let fetched = vec![
            (Url::new("/p1"), prof_tuple("Codd")),
            (Url::new("/p2"), prof_tuple("Gray [drift]")),
        ];
        let (checks, v) = verify_link_constraint_partial(&link_c(), &depts, &fetched);
        assert_eq!(checks, 2);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("/p2"));
        // The full verifier would (rightly, over a full instance) also
        // complain about the unknown target — the partial one must not.
        assert!(v.iter().all(|x| !x.detail.contains("unknown target")));
    }

    #[test]
    fn partial_inclusion_check_needs_a_sup_instance() {
        let c = InclusionConstraint::parse("A.To", "B.To").unwrap();
        let sub = vec![(Url::new("/a1"), Tuple::new().with("To", Value::link("/x")))];
        assert_eq!(
            verify_inclusion_constraint_partial(&c, &sub, &[]),
            (0, vec![])
        );
        let sup = vec![(Url::new("/b1"), Tuple::new().with("To", Value::link("/y")))];
        let (checks, v) = verify_inclusion_constraint_partial(&c, &sub, &sup);
        assert_eq!(checks, 1);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("/x"));
    }

    #[test]
    fn constraints_order_deterministically() {
        let a = LinkConstraint::parse("P.L", "P.A", "Q.B").unwrap();
        let b = LinkConstraint::parse("P.L", "P.A", "Q.C").unwrap();
        assert!(a < b);
        let i = InclusionConstraint::parse("A.L1", "B.L2").unwrap();
        let j = InclusionConstraint::parse("A.L1", "C.L2").unwrap();
        assert!(i < j);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            link_c().to_string(),
            "DeptPage.ProfList.PName = ProfPage.PName  (via DeptPage.ProfList.ToProf)"
        );
        let i = InclusionConstraint::parse("A.L1", "B.L2").unwrap();
        assert_eq!(i.to_string(), "A.L1 ⊆ B.L2");
    }
}
