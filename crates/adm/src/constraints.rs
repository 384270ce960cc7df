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
//! rules 6–9. [`Constraint`] is either kind as one value: what a plan
//! depends on, what a runtime audit checks and what a whole site is
//! verified against. Each kind has one check, a walk over the pages of its
//! *sampled* side against an index of its *reference* side.
//! [`Constraint::audit`] runs it on whatever pages a query fetched;
//! [`Constraint::verify`] runs it on a whole instance and adds only the
//! conditions that need the whole instance.

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

/// One page of an instance, by reference: what a check iterates over. An
/// owned instance (`&[(Url, Tuple)]`) yields `&(Url, Tuple)`, a borrowed
/// walk of a site or store yields `(&Url, &Tuple)`; both are checked
/// without being copied into the other shape first.
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

/// A constraint of either kind. The variant order is the order a plan
/// lists its dependencies in: link constraints first.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Constraint {
    /// A link constraint (licenses rules 6, 7 and 8).
    Link(LinkConstraint),
    /// An inclusion constraint (licenses rule 9). For a transitively
    /// implied inclusion this is the *implied* constraint itself — the
    /// statement an audit can check directly against fetched pages.
    Inclusion(InclusionConstraint),
}

impl Constraint {
    /// The canonical registry key: the display form, shared with the
    /// `ConstraintHealth` quarantine registry and EXPLAIN output.
    pub fn key(&self) -> String {
        self.to_string()
    }

    /// The page-scheme the check walks, and an audit samples: the pages
    /// carrying the link, or the contained link set.
    pub fn sampled_scheme(&self) -> &str {
        match self {
            Constraint::Link(c) => &c.link.scheme,
            Constraint::Inclusion(c) => &c.sub.scheme,
        }
    }

    /// The page-scheme the walk is checked against: the link's target, or
    /// the pages carrying the containing link set.
    pub fn reference_scheme(&self) -> &str {
        match self {
            Constraint::Link(c) => &c.target_attr.scheme,
            Constraint::Inclusion(c) => &c.sup.scheme,
        }
    }

    /// Checks the constraint on *partially fetched* instances, as a runtime
    /// audit has them: `sampled` pages of [`Constraint::sampled_scheme`]
    /// against the fetched pages of [`Constraint::reference_scheme`].
    ///
    /// A link pair whose target was not fetched is undecidable: it is
    /// neither checked nor a violation, so a page the query never fetched
    /// can neither raise nor mask one. With no reference page at all an
    /// inclusion decides nothing (0 checks); otherwise every `sub` link is
    /// checked against the fetched `sup` link set, which can report a false
    /// violation when only part of it was fetched — quarantine-conservative:
    /// at worst an optimization is disabled, an answer is never corrupted.
    /// Returns the number of checks with the violations found.
    pub fn audit<'a>(
        &self,
        sampled: impl IntoIterator<Item: PageRef<'a>>,
        reference: impl IntoIterator<Item: PageRef<'a>>,
    ) -> (u64, Vec<Violation>) {
        self.check(sampled, reference, false)
    }

    /// Verifies the constraint on whole instances of its two schemes. For a
    /// link constraint this is both directions of the iff: every followed
    /// link lands on a page whose `target_attr` equals the co-located
    /// `source_attr` value, and whenever `source_attr` equals some page's
    /// `target_attr`, the link points at (one of) the pages with that
    /// value; a link to an unknown page or a non-link value is a violation
    /// too. For an inclusion, every URL at `sub` must occur at `sup`.
    pub fn verify<'a>(
        &self,
        sampled: impl IntoIterator<Item: PageRef<'a>>,
        reference: impl IntoIterator<Item: PageRef<'a>>,
    ) -> Vec<Violation> {
        self.check(sampled, reference, true).1
    }

    fn check<'a>(
        &self,
        sampled: impl IntoIterator<Item: PageRef<'a>>,
        reference: impl IntoIterator<Item: PageRef<'a>>,
        whole: bool,
    ) -> (u64, Vec<Violation>) {
        match self {
            Constraint::Link(c) => check_link(c, sampled, reference, whole),
            Constraint::Inclusion(c) => check_inclusion(c, sampled, reference, whole),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Link(c) => write!(f, "{c}"),
            Constraint::Inclusion(c) => write!(f, "{c}"),
        }
    }
}

/// The walk of a link constraint: every `(source_attr, link)` pair of the
/// source pages against the target pages, indexed by URL. `whole` adds
/// the conditions only a whole instance decides.
fn check_link<'a>(
    c: &LinkConstraint,
    source: impl IntoIterator<Item: PageRef<'a>>,
    target: impl IntoIterator<Item: PageRef<'a>>,
    whole: bool,
) -> (u64, Vec<Violation>) {
    let mut by_url: HashMap<&str, &Value> = HashMap::new();
    for (url, t) in target.into_iter().map(PageRef::page) {
        if let Some(v) = c.target_attr.leaf().and_then(|leaf| t.get(leaf)) {
            by_url.insert(url.as_str(), v);
        }
    }
    // The only-if direction asks which pages carry a value: every page
    // carrying it must be known, so only a whole instance has the set.
    let values: HashSet<&Value> = if whole {
        by_url.values().copied().collect()
    } else {
        HashSet::new()
    };
    let mut checks = 0u64;
    let mut violations = Vec::new();
    let mut violation = |detail| violations.push(Violation { detail });
    for (src_url, t) in source.into_iter().map(PageRef::page) {
        for (a, l) in collect_pairs(t, &c.source_attr.path, &c.link.path) {
            let Value::Link(u) = l else {
                if whole && !l.is_null() {
                    violation(format!("{}: link value is not a URL in {src_url}", c.link));
                }
                continue;
            };
            let b = by_url.get(u.as_str()).copied();
            match b {
                Some(b) => {
                    checks += 1;
                    if b != a {
                        violation(format!("{c}: page {src_url} links to {u} but {a} ≠ {b}"));
                    }
                }
                None if whole => {
                    violation(format!("{c}: page {src_url} links to unknown target {u}"))
                }
                // Target page not fetched: the pair is undecidable.
                None => {}
            }
            // Only-if: the link must point into the set of pages carrying
            // this value, i.e. at a page whose value is `a`.
            if values.contains(a) && b != Some(a) {
                violation(format!(
                    "{c}: page {src_url} has value {a} but links outside its page set"
                ));
            }
        }
    }
    (checks, violations)
}

/// The walk of an inclusion constraint: every link at `sub` against the
/// link set at `sup`.
fn check_inclusion<'a>(
    c: &InclusionConstraint,
    sub: impl IntoIterator<Item: PageRef<'a>>,
    sup: impl IntoIterator<Item: PageRef<'a>>,
    whole: bool,
) -> (u64, Vec<Violation>) {
    let mut sup_pages = 0usize;
    let mut sup_urls: HashSet<&str> = HashSet::new();
    for (_, t) in sup.into_iter().map(PageRef::page) {
        sup_pages += 1;
        let links = collect_values(t, &c.sup.path).into_iter();
        sup_urls.extend(links.filter_map(Value::as_link).map(Url::as_str));
    }
    if !whole && sup_pages == 0 {
        return (0, Vec::new());
    }
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for (page_url, t) in sub.into_iter().map(PageRef::page) {
        for u in collect_values(t, &c.sub.path)
            .into_iter()
            .filter_map(Value::as_link)
        {
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

    fn link_c() -> Constraint {
        Constraint::Link(
            LinkConstraint::parse(
                "DeptPage.ProfList.ToProf",
                "DeptPage.ProfList.PName",
                "ProfPage.PName",
            )
            .unwrap(),
        )
    }

    fn inclusion(sub: &str, sup: &str) -> Constraint {
        Constraint::Inclusion(InclusionConstraint::parse(sub, sup).unwrap())
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
        assert!(link_c().verify(&depts, &profs).is_empty());
    }

    #[test]
    fn link_constraint_detects_mismatch() {
        let depts = vec![(Url::new("/d1"), dept_tuple("CS", &[("Codd", "/p2")]))];
        let profs = vec![
            (Url::new("/p1"), prof_tuple("Codd")),
            (Url::new("/p2"), prof_tuple("Gray")),
        ];
        // Both directions fail: /p2's value differs, and Codd's own page
        // is /p1. An audit that fetched both pages sees only the first.
        let v = link_c().verify(&depts, &profs);
        let details: Vec<&str> = v.iter().map(|x| x.detail.as_str()).collect();
        assert_eq!(details.len(), 2, "{details:?}");
        assert!(details[0].ends_with("links to /p2 but Codd ≠ Gray"));
        assert!(details[1].ends_with("has value Codd but links outside its page set"));
        let (checks, audited) = link_c().audit(&depts, &profs);
        assert_eq!((checks, audited), (1, v[..1].to_vec()));
    }

    #[test]
    fn link_constraint_detects_dangling() {
        let depts = vec![(Url::new("/d1"), dept_tuple("CS", &[("Codd", "/nowhere")]))];
        let profs = vec![(Url::new("/p1"), prof_tuple("Codd"))];
        let v = link_c().verify(&depts, &profs);
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
        let v = link_c().verify(&depts, &profs);
        assert!(v.is_empty());
    }

    #[test]
    fn inclusion_holds_and_fails() {
        let c = inclusion("CoursePage.ToProf", "ProfListPage.ProfList.ToProf");
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
        assert!(c.verify(&courses, &lists).is_empty());

        let partial_lists = vec![(
            Url::new("/profs"),
            Tuple::new().with_list(
                "ProfList",
                vec![Tuple::new().with("ToProf", Value::link("/p1"))],
            ),
        )];
        let v = c.verify(&courses, &partial_lists);
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
        assert!(link_c().verify(&depts, &profs).is_empty());
        let c = inclusion("DeptPage.ProfList.ToProf", "Idx.ProfList.ToProf");
        assert!(c.verify(&depts, &[]).is_empty());
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
        let v = link_c().verify(&depts, &profs);
        // No PName on the source row → no pair → no violation about values;
        // /p1 lacks PName → it is an unknown target for the constraint.
        assert!(v.is_empty(), "{v:?}");
        let both = vec![(Url::new("/d2"), dept_tuple("CS", &[("Codd", "/p1")]))];
        let v = link_c().verify(&both, &profs);
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
        assert!(link_c().verify(&depts, &profs).is_empty());
        // Duplicate links in the sub instance each count, and stay legal
        // as long as the sup side mentions the URL at least once.
        let c = inclusion("A.To", "B.To");
        let sub = vec![
            (Url::new("/a1"), Tuple::new().with("To", Value::link("/x"))),
            (Url::new("/a2"), Tuple::new().with("To", Value::link("/x"))),
        ];
        let sup = vec![(Url::new("/b1"), Tuple::new().with("To", Value::link("/x")))];
        assert!(c.verify(&sub, &sup).is_empty());
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
        let (checks, v) = link_c().audit(&depts, &fetched);
        assert_eq!(checks, 2);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("/p2"));
        // The full verifier would (rightly, over a full instance) also
        // complain about the unknown target — the partial one must not.
        assert!(v.iter().all(|x| !x.detail.contains("unknown target")));
    }

    #[test]
    fn partial_inclusion_check_needs_a_sup_instance() {
        let c = inclusion("A.To", "B.To");
        let sub = vec![(Url::new("/a1"), Tuple::new().with("To", Value::link("/x")))];
        assert_eq!(c.audit(&sub, &[]), (0, vec![]));
        let sup = vec![(Url::new("/b1"), Tuple::new().with("To", Value::link("/y")))];
        let (checks, v) = c.audit(&sub, &sup);
        assert_eq!(checks, 1);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("/x"));
    }

    #[test]
    fn constraints_order_deterministically() {
        let a = LinkConstraint::parse("P.L", "P.A", "Q.B").unwrap();
        let b = LinkConstraint::parse("P.L", "P.A", "Q.C").unwrap();
        assert!(a < b);
        let i = inclusion("A.L1", "B.L2");
        let j = inclusion("A.L1", "C.L2");
        assert!(i < j);
        // A plan lists its link constraints before its inclusions.
        assert!(Constraint::Link(b) < i);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            link_c().to_string(),
            "DeptPage.ProfList.PName = ProfPage.PName  (via DeptPage.ProfList.ToProf)"
        );
        let i = inclusion("A.L1", "B.L2");
        assert_eq!(i.to_string(), "A.L1 ⊆ B.L2");
    }
}
