//! Page-schemes and web schemes.
//!
//! A *page-scheme* `P(URL, A1:T1, …, An:Tn)` describes a set of structurally
//! similar pages as a nested relation scheme keyed by URL. A *web scheme*
//! bundles a set of page-schemes connected by links, the entry points whose
//! URLs are known, and the link/inclusion constraints that document the
//! site's redundancy (Section 3.3 of the paper).

use crate::constraints::{Constraint, InclusionConstraint, LinkConstraint};
use crate::error::AdmError;
use crate::types::{Field, WebType};
use crate::url::Url;
use crate::value::{Tuple, Value};
use crate::Result;
use std::collections::BTreeMap;
use std::fmt;

/// A reference to an attribute of a page-scheme, as a dotted path that may
/// descend through list attributes: e.g. `ProfPage.CourseList.ToCourse`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// The page-scheme the path starts from.
    pub scheme: String,
    /// Attribute names from the top level downwards. [`AttrRef::parse`]
    /// never yields an empty path; [`AttrRef::new`] and this field allow
    /// one, and such a reference has no [`AttrRef::leaf`].
    pub path: Vec<String>,
}

impl AttrRef {
    /// Builds a reference from a scheme name and path segments.
    pub fn new<S: Into<String>>(scheme: impl Into<String>, path: Vec<S>) -> Self {
        AttrRef {
            scheme: scheme.into(),
            path: path.into_iter().map(Into::into).collect(),
        }
    }

    /// Parses `Scheme.a.b.c` notation.
    pub fn parse(s: &str) -> Result<Self> {
        let mut parts = s.split('.');
        let scheme = parts.next().unwrap_or("").to_string();
        let path: Vec<String> = parts.map(str::to_string).collect();
        if scheme.is_empty() || path.is_empty() {
            return Err(AdmError::UnknownAttribute {
                attr: s.to_string(),
                within: "attribute reference (want Scheme.attr…)".into(),
            });
        }
        Ok(AttrRef { scheme, path })
    }

    /// The final path segment (the attribute's own name); `None` for an
    /// empty path.
    pub fn leaf(&self) -> Option<&str> {
        self.path.last().map(String::as_str)
    }

    /// The fully qualified dotted form, `Scheme.a.b`.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.scheme, self.path.join("."))
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.qualified())
    }
}

/// An entry point: a page-scheme whose instance is a single page with a
/// known URL (e.g. a site's home page). Entry points are the only pages
/// directly accessible without navigation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryPoint {
    /// The page-scheme name.
    pub scheme: String,
    /// The known URL of its single instance.
    pub url: Url,
}

/// A page-scheme: a name plus a list of typed attributes. The URL key is
/// implicit and not part of `fields`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageScheme {
    /// The page-scheme name (e.g. `ProfPage`).
    pub name: String,
    /// Attributes in display order.
    pub fields: Vec<Field>,
}

impl PageScheme {
    /// Creates a page-scheme, checking top-level and nested name uniqueness.
    pub fn new(name: impl Into<String>, fields: Vec<Field>) -> Result<Self> {
        fn check_unique(fields: &[Field]) -> Result<()> {
            let mut seen = std::collections::HashSet::new();
            for f in fields {
                if !seen.insert(f.name.as_str()) {
                    return Err(AdmError::DuplicateName(f.name.clone()));
                }
                if let WebType::List(inner) = &f.ty {
                    check_unique(inner)?;
                }
            }
            Ok(())
        }
        check_unique(&fields)?;
        Ok(PageScheme {
            name: name.into(),
            fields,
        })
    }

    /// Finds a top-level field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Every outgoing link of a page of this scheme, with the page-scheme
    /// it points to, in field order (a list's links row by row).
    pub fn outlinks(&self, tuple: &Tuple) -> Vec<(String, Url)> {
        fn walk(fields: &[Field], tuple: &Tuple, out: &mut Vec<(String, Url)>) {
            for f in fields {
                match (&f.ty, tuple.get_sym(f.sym())) {
                    (WebType::Link { target }, Some(Value::Link(u))) => {
                        out.push((target.clone(), u.clone()));
                    }
                    (WebType::List(inner), Some(Value::List(rows))) => {
                        for row in rows {
                            walk(inner, row, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.fields, tuple, &mut out);
        out
    }

    /// Resolves a dotted path (excluding the scheme name) to a field,
    /// descending through list types.
    pub fn resolve_path(&self, path: &[impl AsRef<str>]) -> Result<&Field> {
        let mut fields: &[Field] = &self.fields;
        let mut current: Option<&Field> = None;
        for (i, seg) in path.iter().enumerate() {
            let seg = seg.as_ref();
            let f = fields.iter().find(|f| f.name == seg).ok_or_else(|| {
                AdmError::UnknownAttribute {
                    attr: path
                        .iter()
                        .map(|s| s.as_ref())
                        .collect::<Vec<_>>()
                        .join("."),
                    within: format!("page-scheme {}", self.name),
                }
            })?;
            if i + 1 < path.len() {
                match &f.ty {
                    WebType::List(inner) => fields = inner,
                    other => {
                        return Err(AdmError::TypeMismatch {
                            attr: format!("{}.{}", self.name, seg),
                            expected: "list",
                            found: other.kind().to_string(),
                        })
                    }
                }
            }
            current = Some(f);
        }
        current.ok_or_else(|| AdmError::UnknownAttribute {
            attr: String::new(),
            within: format!("page-scheme {}", self.name),
        })
    }

    /// All link attributes, with their paths, recursively.
    pub fn link_paths(&self) -> Vec<(Vec<String>, String)> {
        let mut out = Vec::new();
        fn walk(fields: &[Field], prefix: &mut Vec<String>, out: &mut Vec<(Vec<String>, String)>) {
            for f in fields {
                prefix.push(f.name.clone());
                match &f.ty {
                    WebType::Link { target } => out.push((prefix.clone(), target.clone())),
                    WebType::List(inner) => walk(inner, prefix, out),
                    _ => {}
                }
                prefix.pop();
            }
        }
        walk(&self.fields, &mut Vec::new(), &mut out);
        out
    }

    /// The list-typed ancestor prefixes of a path (used to check that a
    /// constraint's attributes live at compatible nesting levels).
    pub fn list_ancestors(&self, path: &[impl AsRef<str>]) -> Result<Vec<Vec<String>>> {
        let mut out = Vec::new();
        for i in 1..path.len() {
            let prefix: Vec<&str> = path[..i].iter().map(|s| s.as_ref()).collect();
            let f = self.resolve_path(&prefix)?;
            if f.ty.is_multi_valued() {
                out.push(prefix.iter().map(|s| s.to_string()).collect());
            }
        }
        Ok(out)
    }
}

impl fmt::Display for PageScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(URL", self.name)?;
        for field in &self.fields {
            write!(f, ", {field}")?;
        }
        write!(f, ")")
    }
}

/// A web scheme: page-schemes, entry points, and constraints
/// (Section 3.3). Build one with [`WebSchemeBuilder`]; construction
/// validates referential integrity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebScheme {
    schemes: BTreeMap<String, PageScheme>,
    entry_points: Vec<EntryPoint>,
    link_constraints: Vec<LinkConstraint>,
    inclusion_constraints: Vec<InclusionConstraint>,
}

impl WebScheme {
    /// Starts building a web scheme.
    pub fn builder() -> WebSchemeBuilder {
        WebSchemeBuilder::default()
    }

    /// Looks up a page-scheme by name.
    pub fn scheme(&self, name: &str) -> Result<&PageScheme> {
        self.schemes
            .get(name)
            .ok_or_else(|| AdmError::UnknownScheme(name.to_string()))
    }

    /// All page-schemes in name order.
    pub fn schemes(&self) -> impl Iterator<Item = &PageScheme> {
        self.schemes.values()
    }

    /// All entry points.
    pub fn entry_points(&self) -> &[EntryPoint] {
        &self.entry_points
    }

    /// The entry point for a scheme, if that scheme is one.
    pub fn entry_point(&self, scheme: &str) -> Option<&EntryPoint> {
        self.entry_points.iter().find(|e| e.scheme == scheme)
    }

    /// True if the named scheme is an entry point.
    pub fn is_entry_point(&self, scheme: &str) -> bool {
        self.entry_point(scheme).is_some()
    }

    /// All declared link constraints.
    pub fn link_constraints(&self) -> &[LinkConstraint] {
        &self.link_constraints
    }

    /// All declared inclusion constraints.
    pub fn inclusion_constraints(&self) -> &[InclusionConstraint] {
        &self.inclusion_constraints
    }

    /// Every declared constraint, link constraints first.
    pub fn constraints(&self) -> impl Iterator<Item = Constraint> + '_ {
        let links = self.link_constraints.iter().cloned();
        let inclusions = self.inclusion_constraints.iter().cloned();
        links
            .map(Constraint::Link)
            .chain(inclusions.map(Constraint::Inclusion))
    }

    /// All link attributes (across all schemes) that point to `target`.
    pub fn links_to(&self, target: &str) -> Vec<AttrRef> {
        let mut out = Vec::new();
        for scheme in self.schemes.values() {
            for (path, tgt) in scheme.link_paths() {
                if tgt == target {
                    out.push(AttrRef {
                        scheme: scheme.name.clone(),
                        path,
                    });
                }
            }
        }
        out
    }

    /// Checks whether `sub ⊆ sup` follows from the declared inclusion
    /// constraints under reflexivity and transitivity.
    pub fn inclusion_implied(&self, sub: &AttrRef, sup: &AttrRef) -> bool {
        if sub == sup {
            return true;
        }
        // BFS over declared constraints (treating each as an edge sub→sup).
        let mut frontier = vec![sub.clone()];
        let mut seen = std::collections::HashSet::new();
        seen.insert(sub.clone());
        while let Some(cur) = frontier.pop() {
            for c in &self.inclusion_constraints {
                if c.sub == cur && seen.insert(c.sup.clone()) {
                    if &c.sup == sup {
                        return true;
                    }
                    frontier.push(c.sup.clone());
                }
            }
        }
        false
    }

    /// Resolves an [`AttrRef`] to its field definition.
    pub fn resolve(&self, attr: &AttrRef) -> Result<&Field> {
        self.scheme(&attr.scheme)?.resolve_path(&attr.path)
    }

    /// Returns a copy of this scheme with extra constraints added (e.g.
    /// constraints mined from the instance by a discovery tool). The
    /// result is re-validated; duplicates are dropped.
    pub fn extended_with(
        &self,
        link_constraints: Vec<LinkConstraint>,
        inclusion_constraints: Vec<InclusionConstraint>,
    ) -> Result<WebScheme> {
        let mut b = WebScheme::builder();
        for s in self.schemes.values() {
            b = b.scheme(s.clone());
        }
        for ep in &self.entry_points {
            b = b.entry_point(ep.scheme.clone(), ep.url.clone());
        }
        let mut links = self.link_constraints.clone();
        for c in link_constraints {
            if !links.contains(&c) {
                links.push(c);
            }
        }
        let mut incs = self.inclusion_constraints.clone();
        for c in inclusion_constraints {
            if !incs.contains(&c) {
                incs.push(c);
            }
        }
        for c in links {
            b = b.link_constraint(c);
        }
        for c in incs {
            b = b.inclusion(c);
        }
        b.build()
    }

    /// Renders the scheme in a compact textual form (used to reproduce the
    /// paper's Figure 1 as text).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for s in self.schemes.values() {
            let entry = match self.entry_point(&s.name) {
                Some(ep) => format!("  [entry point: {}]", ep.url),
                None => String::new(),
            };
            out.push_str(&format!("{s}{entry}\n"));
        }
        if !self.link_constraints.is_empty() {
            out.push_str("link constraints:\n");
            for c in &self.link_constraints {
                out.push_str(&format!("  {c}\n"));
            }
        }
        if !self.inclusion_constraints.is_empty() {
            out.push_str("inclusion constraints:\n");
            for c in &self.inclusion_constraints {
                out.push_str(&format!("  {c}\n"));
            }
        }
        out
    }
}

/// Builder for [`WebScheme`]; `build()` performs full validation.
#[derive(Debug, Default)]
pub struct WebSchemeBuilder {
    schemes: Vec<PageScheme>,
    entry_points: Vec<EntryPoint>,
    link_constraints: Vec<LinkConstraint>,
    inclusion_constraints: Vec<InclusionConstraint>,
}

impl WebSchemeBuilder {
    /// Adds a page-scheme.
    pub fn scheme(mut self, scheme: PageScheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Declares a page-scheme as an entry point with a known URL.
    pub fn entry_point(mut self, scheme: impl Into<String>, url: impl Into<Url>) -> Self {
        self.entry_points.push(EntryPoint {
            scheme: scheme.into(),
            url: url.into(),
        });
        self
    }

    /// Adds a link constraint.
    pub fn link_constraint(mut self, c: LinkConstraint) -> Self {
        self.link_constraints.push(c);
        self
    }

    /// Adds an inclusion constraint.
    pub fn inclusion(mut self, c: InclusionConstraint) -> Self {
        self.inclusion_constraints.push(c);
        self
    }

    /// Adds an equivalence `a ≡ b` as the two inclusion constraints
    /// `a ⊆ b` and `b ⊆ a` (paper, end of Section 3.2).
    pub fn equivalence(mut self, a: AttrRef, b: AttrRef) -> Self {
        self.inclusion_constraints
            .push(InclusionConstraint::new(a.clone(), b.clone()));
        self.inclusion_constraints
            .push(InclusionConstraint::new(b, a));
        self
    }

    /// Validates and constructs the [`WebScheme`].
    pub fn build(self) -> Result<WebScheme> {
        let mut schemes = BTreeMap::new();
        for s in self.schemes {
            let name = s.name.clone();
            if schemes.insert(name.clone(), s).is_some() {
                return Err(AdmError::DuplicateName(name));
            }
        }
        let ws = WebScheme {
            schemes,
            entry_points: self.entry_points,
            link_constraints: self.link_constraints,
            inclusion_constraints: self.inclusion_constraints,
        };
        ws.validate()?;
        Ok(ws)
    }
}

impl WebScheme {
    fn validate(&self) -> Result<()> {
        // Entry points reference known schemes, at most one per scheme.
        let mut seen_entry = std::collections::HashSet::new();
        for ep in &self.entry_points {
            self.scheme(&ep.scheme)?;
            if !seen_entry.insert(ep.scheme.as_str()) {
                return Err(AdmError::InvalidScheme(format!(
                    "duplicate entry point for scheme {}",
                    ep.scheme
                )));
            }
        }
        // Every link target exists.
        for s in self.schemes.values() {
            for (path, target) in s.link_paths() {
                if !self.schemes.contains_key(&target) {
                    return Err(AdmError::InvalidScheme(format!(
                        "link {}.{} points to unknown scheme {}",
                        s.name,
                        path.join("."),
                        target
                    )));
                }
            }
        }
        // Link constraints: link path is a link; source attr belongs to the
        // same scheme at a compatible nesting level; target attr is a
        // mono-valued attribute of the link's target scheme.
        for c in &self.link_constraints {
            let link_field = self.resolve(&c.link)?;
            let target = link_field
                .ty
                .link_target()
                .ok_or_else(|| AdmError::TypeMismatch {
                    attr: c.link.qualified(),
                    expected: "link",
                    found: link_field.ty.kind().to_string(),
                })?;
            if c.source_attr.scheme != c.link.scheme {
                return Err(AdmError::InvalidScheme(format!(
                    "link constraint {c}: source attribute must belong to {}",
                    c.link.scheme
                )));
            }
            let src = self.resolve(&c.source_attr)?;
            if !src.ty.is_mono_valued() {
                return Err(AdmError::InvalidScheme(format!(
                    "link constraint {c}: source attribute is multi-valued"
                )));
            }
            // Source must be visible at the link's nesting level: its list
            // ancestors must be a prefix of the link's list ancestors.
            let s = self.scheme(&c.link.scheme)?;
            let link_lists = s.list_ancestors(&c.link.path)?;
            let src_lists = s.list_ancestors(&c.source_attr.path)?;
            if !link_lists.starts_with(&src_lists) {
                return Err(AdmError::InvalidScheme(format!(
                    "link constraint {c}: source attribute is nested under a \
                     different list than the link"
                )));
            }
            if c.target_attr.scheme != target {
                return Err(AdmError::InvalidScheme(format!(
                    "link constraint {c}: target attribute must belong to {target}"
                )));
            }
            let tgt = self.resolve(&c.target_attr)?;
            if !tgt.ty.is_mono_valued() || c.target_attr.path.len() != 1 {
                return Err(AdmError::InvalidScheme(format!(
                    "link constraint {c}: target attribute must be a top-level \
                     mono-valued attribute"
                )));
            }
        }
        // Inclusion constraints: both sides are link attributes with the
        // same target scheme.
        for c in &self.inclusion_constraints {
            let sub = self.resolve(&c.sub)?;
            let sup = self.resolve(&c.sup)?;
            match (sub.ty.link_target(), sup.ty.link_target()) {
                (Some(a), Some(b)) if a == b => {}
                (Some(_), Some(_)) => {
                    return Err(AdmError::InvalidScheme(format!(
                        "inclusion constraint {c}: link targets differ"
                    )))
                }
                _ => {
                    return Err(AdmError::InvalidScheme(format!(
                        "inclusion constraint {c}: both sides must be links"
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_scheme() -> WebScheme {
        let list = PageScheme::new(
            "ListPage",
            vec![Field::list(
                "Items",
                vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
            )],
        )
        .unwrap();
        let item = PageScheme::new("ItemPage", vec![Field::text("Name")]).unwrap();
        WebScheme::builder()
            .scheme(list)
            .scheme(item)
            .entry_point("ListPage", "/list.html")
            .link_constraint(LinkConstraint::new(
                AttrRef::parse("ListPage.Items.ToItem").unwrap(),
                AttrRef::parse("ListPage.Items.Name").unwrap(),
                AttrRef::parse("ItemPage.Name").unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn attr_ref_parse_and_display() {
        let a = AttrRef::parse("ProfPage.CourseList.ToCourse").unwrap();
        assert_eq!(a.scheme, "ProfPage");
        assert_eq!(a.path, vec!["CourseList", "ToCourse"]);
        assert_eq!(a.leaf(), Some("ToCourse"));
        assert_eq!(a.to_string(), "ProfPage.CourseList.ToCourse");
        assert!(AttrRef::parse("NoPath").is_err());
        assert!(AttrRef::parse("").is_err());
    }

    #[test]
    fn an_empty_path_has_no_leaf() {
        assert_eq!(AttrRef::new("P", Vec::<String>::new()).leaf(), None);
    }

    #[test]
    fn resolve_path_through_lists() {
        let ws = mini_scheme();
        let f = ws
            .resolve(&AttrRef::parse("ListPage.Items.ToItem").unwrap())
            .unwrap();
        assert!(f.ty.is_link());
        assert!(ws
            .resolve(&AttrRef::parse("ListPage.Nope").unwrap())
            .is_err());
    }

    #[test]
    fn resolve_rejects_descent_through_mono() {
        let ws = mini_scheme();
        let err = ws
            .resolve(&AttrRef::parse("ItemPage.Name.Deeper").unwrap())
            .unwrap_err();
        assert!(matches!(err, AdmError::TypeMismatch { .. }));
    }

    #[test]
    fn entry_points() {
        let ws = mini_scheme();
        assert!(ws.is_entry_point("ListPage"));
        assert!(!ws.is_entry_point("ItemPage"));
        assert_eq!(
            ws.entry_point("ListPage").unwrap().url.as_str(),
            "/list.html"
        );
    }

    #[test]
    fn links_to_finds_nested_links() {
        let ws = mini_scheme();
        let links = ws.links_to("ItemPage");
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].qualified(), "ListPage.Items.ToItem");
        assert!(ws.links_to("ListPage").is_empty());
    }

    #[test]
    fn rejects_dangling_link_target() {
        let bad = PageScheme::new("P", vec![Field::link("ToX", "Nowhere")]).unwrap();
        let err = WebScheme::builder().scheme(bad).build().unwrap_err();
        assert!(matches!(err, AdmError::InvalidScheme(_)));
    }

    #[test]
    fn rejects_duplicate_scheme() {
        let a = PageScheme::new("P", vec![Field::text("X")]).unwrap();
        let b = PageScheme::new("P", vec![Field::text("Y")]).unwrap();
        let err = WebScheme::builder()
            .scheme(a)
            .scheme(b)
            .build()
            .unwrap_err();
        assert!(matches!(err, AdmError::DuplicateName(_)));
    }

    #[test]
    fn rejects_duplicate_field_names() {
        assert!(PageScheme::new("P", vec![Field::text("X"), Field::text("X")]).is_err());
        // nested duplicates too
        assert!(PageScheme::new(
            "P",
            vec![Field::list("L", vec![Field::text("A"), Field::text("A")])]
        )
        .is_err());
    }

    #[test]
    fn rejects_link_constraint_on_non_link() {
        let list = PageScheme::new("A", vec![Field::text("T")]).unwrap();
        let item = PageScheme::new("B", vec![Field::text("T")]).unwrap();
        let err = WebScheme::builder()
            .scheme(list)
            .scheme(item)
            .link_constraint(LinkConstraint::new(
                AttrRef::parse("A.T").unwrap(),
                AttrRef::parse("A.T").unwrap(),
                AttrRef::parse("B.T").unwrap(),
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, AdmError::TypeMismatch { .. }));
    }

    #[test]
    fn rejects_inclusion_between_different_targets() {
        let a = PageScheme::new("A", vec![Field::link("L1", "X"), Field::link("L2", "Y")]).unwrap();
        let x = PageScheme::new("X", vec![]).unwrap();
        let y = PageScheme::new("Y", vec![]).unwrap();
        let err = WebScheme::builder()
            .scheme(a)
            .scheme(x)
            .scheme(y)
            .inclusion(InclusionConstraint::new(
                AttrRef::parse("A.L1").unwrap(),
                AttrRef::parse("A.L2").unwrap(),
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, AdmError::InvalidScheme(_)));
    }

    #[test]
    fn inclusion_implied_reflexive_and_transitive() {
        let a = PageScheme::new(
            "A",
            vec![
                Field::link("L1", "X"),
                Field::link("L2", "X"),
                Field::link("L3", "X"),
            ],
        )
        .unwrap();
        let x = PageScheme::new("X", vec![]).unwrap();
        let ws = WebScheme::builder()
            .scheme(a)
            .scheme(x)
            .inclusion(InclusionConstraint::new(
                AttrRef::parse("A.L1").unwrap(),
                AttrRef::parse("A.L2").unwrap(),
            ))
            .inclusion(InclusionConstraint::new(
                AttrRef::parse("A.L2").unwrap(),
                AttrRef::parse("A.L3").unwrap(),
            ))
            .build()
            .unwrap();
        let l1 = AttrRef::parse("A.L1").unwrap();
        let l2 = AttrRef::parse("A.L2").unwrap();
        let l3 = AttrRef::parse("A.L3").unwrap();
        assert!(ws.inclusion_implied(&l1, &l1));
        assert!(ws.inclusion_implied(&l1, &l2));
        assert!(ws.inclusion_implied(&l1, &l3));
        assert!(!ws.inclusion_implied(&l3, &l1));
    }

    #[test]
    fn equivalence_adds_both_directions() {
        let a = PageScheme::new("A", vec![Field::link("L1", "X"), Field::link("L2", "X")]).unwrap();
        let x = PageScheme::new("X", vec![]).unwrap();
        let ws = WebScheme::builder()
            .scheme(a)
            .scheme(x)
            .equivalence(
                AttrRef::parse("A.L1").unwrap(),
                AttrRef::parse("A.L2").unwrap(),
            )
            .build()
            .unwrap();
        let l1 = AttrRef::parse("A.L1").unwrap();
        let l2 = AttrRef::parse("A.L2").unwrap();
        assert!(ws.inclusion_implied(&l1, &l2));
        assert!(ws.inclusion_implied(&l2, &l1));
    }

    #[test]
    fn extended_with_adds_and_dedups_constraints() {
        let ws = mini_scheme();
        let extra_inc =
            InclusionConstraint::parse("ListPage.Items.ToItem", "ListPage.Items.ToItem").unwrap();
        let dup_link = ws.link_constraints()[0].clone();
        let extended = ws
            .extended_with(vec![dup_link], vec![extra_inc.clone()])
            .unwrap();
        // duplicate link constraint dropped, new inclusion added
        assert_eq!(
            extended.link_constraints().len(),
            ws.link_constraints().len()
        );
        assert_eq!(extended.inclusion_constraints().len(), 1);
        assert!(extended.inclusion_constraints().contains(&extra_inc));
        // invalid additions are rejected by re-validation
        let bad = InclusionConstraint::parse("ListPage.Nope", "ListPage.Items.ToItem").unwrap();
        assert!(ws.extended_with(vec![], vec![bad]).is_err());
    }

    #[test]
    fn describe_mentions_everything() {
        let ws = mini_scheme();
        let d = ws.describe();
        assert!(d.contains("ListPage(URL"));
        assert!(d.contains("entry point: /list.html"));
        assert!(d.contains("link constraints:"));
    }

    #[test]
    fn display_page_scheme() {
        let ws = mini_scheme();
        let s = ws.scheme("ItemPage").unwrap();
        assert_eq!(s.to_string(), "ItemPage(URL, Name: text)");
    }
}
