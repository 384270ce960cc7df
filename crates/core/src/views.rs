//! External relations and their default navigations (Section 5, rule 1).
//!
//! An external relation is a flat relation offered to users; its extent is
//! not directly accessible and must be built by navigating the site. Each
//! relation carries one or more **default navigations**: computable NALG
//! expressions plus a *binding* from each relational attribute to the
//! qualified column that materializes it. The paper's five university
//! external relations (items 1–5 of Section 5) are provided verbatim by
//! [`university_catalog`]; [`bibliography_catalog`] covers the
//! introduction's bibliography site.
//!
//! Some designer-declared navigations are **incomplete**: they reach only a
//! subset of the extent (e.g. the database-conference list covers only
//! database conferences). The paper notes the converse containments do not
//! hold in general; such navigations are marked and only used when the
//! optimizer is explicitly allowed to (the introduction's strategies 2 and
//! 3 are of this kind — correct for VLDB queries because VLDB appears in
//! every list).

use crate::{OptError, Result};
use adm::WebScheme;
use nalg::NalgExpr;
use std::collections::BTreeMap;

/// A computable navigation materializing an external relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DefaultNavigation {
    /// The navigation expression (no σ/π; those are applied by queries).
    /// A navigation that does select on a constant still answers
    /// correctly, but plans over its relation are never plan-cached
    /// ([`crate::QuerySession::run`]).
    pub expr: NalgExpr,
    /// Attribute → fully qualified column.
    pub bindings: Vec<(String, String)>,
    /// Whether this navigation reaches the *whole* extent. Incomplete
    /// navigations (subset paths) are only used when explicitly enabled.
    pub complete: bool,
}

impl DefaultNavigation {
    /// A complete navigation.
    pub fn new<S: Into<String>>(expr: NalgExpr, bindings: Vec<(S, S)>) -> Self {
        DefaultNavigation {
            expr,
            bindings: bindings
                .into_iter()
                .map(|(a, c)| (a.into(), c.into()))
                .collect(),
            complete: true,
        }
    }

    /// Marks the navigation as reaching only a subset of the extent.
    pub fn incomplete(mut self) -> Self {
        self.complete = false;
        self
    }

    /// The qualified column bound to an attribute.
    pub fn binding(&self, attr: &str) -> Option<&str> {
        self.bindings
            .iter()
            .find_map(|(a, c)| (a == attr).then_some(c.as_str()))
    }
}

/// An external relation: name, attributes, and default navigations.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalRelation {
    /// Relation name.
    pub name: String,
    /// Attribute names.
    pub attrs: Vec<String>,
    /// Default navigations (rule 1 alternatives).
    pub navigations: Vec<DefaultNavigation>,
}

impl ExternalRelation {
    /// Creates an external relation.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        attrs: Vec<S>,
        navigations: Vec<DefaultNavigation>,
    ) -> Self {
        ExternalRelation {
            name: name.into(),
            attrs: attrs.into_iter().map(Into::into).collect(),
            navigations,
        }
    }
}

/// The set of external relations offered over a site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewCatalog {
    relations: BTreeMap<String, ExternalRelation>,
}

impl ViewCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ViewCatalog::default()
    }

    /// Adds a relation (builder style).
    pub fn with(mut self, rel: ExternalRelation) -> Self {
        self.relations.insert(rel.name.clone(), rel);
        self
    }

    /// Looks a relation up.
    pub fn relation(&self, name: &str) -> Result<&ExternalRelation> {
        self.relations
            .get(name)
            .ok_or_else(|| OptError::UnknownRelation(name.to_string()))
    }

    /// All relations, name-ordered.
    pub fn relations(&self) -> impl Iterator<Item = &ExternalRelation> {
        self.relations.values()
    }

    /// Checks that every navigation is computable, that every binding
    /// resolves against its navigation's output columns, and that every
    /// attribute is bound by every navigation.
    pub fn validate(&self, ws: &WebScheme) -> Result<()> {
        for rel in self.relations.values() {
            if rel.navigations.is_empty() {
                return Err(OptError::BadQuery(format!(
                    "external relation {} has no default navigation",
                    rel.name
                )));
            }
            for nav in &rel.navigations {
                if !nav.expr.is_computable() {
                    return Err(OptError::NoPlan(format!(
                        "default navigation for {} is not computable",
                        rel.name
                    )));
                }
                let cols = nav.expr.output_columns(ws).map_err(OptError::Eval)?;
                for attr in &rel.attrs {
                    let col = nav
                        .binding(attr)
                        .ok_or_else(|| OptError::UnknownViewAttribute {
                            relation: rel.name.clone(),
                            attr: attr.clone(),
                        })?;
                    adm::name::resolve_name(&cols, col).map_err(|e| OptError::Eval(e.into()))?;
                }
            }
        }
        Ok(())
    }
}

/// The paper's external schema over the university site (Section 5,
/// items 1–5, with exactly the paper's default navigations — including the
/// two alternatives for `CourseInstructor` and `ProfDept`).
pub fn university_catalog() -> ViewCatalog {
    let prof_spine = || {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
    };
    let dept_spine = || {
        NalgExpr::entry("DeptListPage")
            .unnest("DeptList")
            .follow("ToDept", "DeptPage")
    };
    let course_spine = || {
        NalgExpr::entry("SessionListPage")
            .unnest("SesList")
            .follow("ToSes", "SessionPage")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse", "CoursePage")
    };

    ViewCatalog::new()
        .with(ExternalRelation::new(
            "Dept",
            vec!["DName", "Address"],
            vec![DefaultNavigation::new(
                dept_spine(),
                vec![("DName", "DeptPage.DName"), ("Address", "DeptPage.Address")],
            )],
        ))
        .with(ExternalRelation::new(
            "Professor",
            vec!["PName", "Rank", "Email"],
            vec![DefaultNavigation::new(
                prof_spine(),
                vec![
                    ("PName", "ProfPage.PName"),
                    ("Rank", "ProfPage.Rank"),
                    ("Email", "ProfPage.Email"),
                ],
            )],
        ))
        .with(ExternalRelation::new(
            "Course",
            vec!["CName", "Session", "Description", "Type"],
            vec![DefaultNavigation::new(
                course_spine(),
                vec![
                    ("CName", "CoursePage.CName"),
                    ("Session", "CoursePage.Session"),
                    ("Description", "CoursePage.Description"),
                    ("Type", "CoursePage.Type"),
                ],
            )],
        ))
        .with(ExternalRelation::new(
            "CourseInstructor",
            vec!["CName", "PName"],
            vec![
                DefaultNavigation::new(
                    prof_spine().unnest("ProfPage.CourseList"),
                    vec![
                        ("CName", "ProfPage.CourseList.CName"),
                        ("PName", "ProfPage.PName"),
                    ],
                ),
                DefaultNavigation::new(
                    course_spine(),
                    vec![("CName", "CoursePage.CName"), ("PName", "CoursePage.PName")],
                ),
            ],
        ))
        .with(ExternalRelation::new(
            "ProfDept",
            vec!["PName", "DName"],
            vec![
                DefaultNavigation::new(
                    prof_spine(),
                    vec![("PName", "ProfPage.PName"), ("DName", "ProfPage.DName")],
                ),
                DefaultNavigation::new(
                    dept_spine().unnest("DeptPage.ProfList"),
                    vec![
                        ("PName", "DeptPage.ProfList.PName"),
                        ("DName", "DeptPage.DName"),
                    ],
                ),
            ],
        ))
}

/// The external schema over the bibliography site. `AuthorPub` carries the
/// four navigation strategies of the paper's introduction: all-conferences,
/// database-conferences (incomplete), featured (incomplete), and
/// author-first.
pub fn bibliography_catalog() -> ViewCatalog {
    let via_conf_list = |entry_link: &str, list_page: &str| {
        NalgExpr::entry("BibHomePage")
            .follow(entry_link, list_page)
            .unnest("ConfList")
            .follow("ToConf", "ConfPage")
            .unnest("EditionList")
            .follow("ToEdition", "EditionPage")
            .unnest("PaperList")
            .unnest("EditionPage.PaperList.Authors")
    };
    let author_pub_bindings = || {
        vec![
            ("AName", "EditionPage.PaperList.Authors.AName"),
            ("ConfName", "EditionPage.ConfName"),
            ("Year", "EditionPage.Year"),
        ]
    };

    ViewCatalog::new()
        .with(ExternalRelation::new(
            "Conference",
            vec!["ConfName"],
            vec![DefaultNavigation::new(
                NalgExpr::entry("BibHomePage")
                    .follow("ToConfList", "ConfListPage")
                    .unnest("ConfList"),
                vec![("ConfName", "ConfListPage.ConfList.ConfName")],
            )],
        ))
        .with(ExternalRelation::new(
            "ConfEdition",
            vec!["ConfName", "Year", "Editors"],
            vec![DefaultNavigation::new(
                NalgExpr::entry("BibHomePage")
                    .follow("ToConfList", "ConfListPage")
                    .unnest("ConfList")
                    .follow("ToConf", "ConfPage")
                    .unnest("EditionList")
                    .follow("ToEdition", "EditionPage"),
                vec![
                    ("ConfName", "EditionPage.ConfName"),
                    ("Year", "EditionPage.Year"),
                    ("Editors", "EditionPage.Editors"),
                ],
            )],
        ))
        .with(ExternalRelation::new(
            "Author",
            vec!["AName"],
            vec![DefaultNavigation::new(
                NalgExpr::entry("BibHomePage")
                    .follow("ToAuthorList", "AuthorListPage")
                    .unnest("AuthorList"),
                vec![("AName", "AuthorListPage.AuthorList.AName")],
            )],
        ))
        .with(ExternalRelation::new(
            "AuthorPub",
            vec!["AName", "ConfName", "Year"],
            vec![
                // Strategy 1: through the list of all conferences.
                DefaultNavigation::new(
                    via_conf_list("ToConfList", "ConfListPage"),
                    author_pub_bindings(),
                ),
                // Strategy 2: through the (smaller) database-conference
                // list — complete only for database conferences.
                DefaultNavigation::new(
                    via_conf_list("ToDBConfList", "DBConfListPage"),
                    author_pub_bindings(),
                )
                .incomplete(),
                // Strategy 3: through the home page's featured links —
                // complete only for featured conferences.
                DefaultNavigation::new(
                    NalgExpr::entry("BibHomePage")
                        .unnest("Featured")
                        .follow("ToConf", "ConfPage")
                        .unnest("EditionList")
                        .follow("ToEdition", "EditionPage")
                        .unnest("PaperList")
                        .unnest("EditionPage.PaperList.Authors"),
                    author_pub_bindings(),
                )
                .incomplete(),
                // Strategy 4: author-first — go through every author page.
                DefaultNavigation::new(
                    NalgExpr::entry("BibHomePage")
                        .follow("ToAuthorList", "AuthorListPage")
                        .unnest("AuthorList")
                        .follow("ToAuthor", "AuthorPage")
                        .unnest("PubList"),
                    vec![
                        ("AName", "AuthorPage.AName"),
                        ("ConfName", "AuthorPage.PubList.ConfName"),
                        ("Year", "AuthorPage.PubList.Year"),
                    ],
                ),
            ],
        ))
        .with(ExternalRelation::new(
            "Paper",
            vec!["Title", "ConfName", "Year"],
            vec![DefaultNavigation::new(
                NalgExpr::entry("BibHomePage")
                    .follow("ToConfList", "ConfListPage")
                    .unnest("ConfList")
                    .follow("ToConf", "ConfPage")
                    .unnest("EditionList")
                    .follow("ToEdition", "EditionPage")
                    .unnest("PaperList"),
                vec![
                    ("Title", "EditionPage.PaperList.Title"),
                    ("ConfName", "EditionPage.ConfName"),
                    ("Year", "EditionPage.Year"),
                ],
            )],
        ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::sitegen::bibliography::bibliography_scheme;
    use websim::sitegen::university::university_scheme;

    #[test]
    fn university_catalog_validates() {
        let cat = university_catalog();
        cat.validate(&university_scheme().unwrap()).unwrap();
        assert_eq!(cat.relations().count(), 5);
    }

    #[test]
    fn bibliography_catalog_validates() {
        let cat = bibliography_catalog();
        cat.validate(&bibliography_scheme().unwrap()).unwrap();
    }

    #[test]
    fn paper_relations_present_with_alternatives() {
        let cat = university_catalog();
        assert_eq!(
            cat.relation("CourseInstructor").unwrap().navigations.len(),
            2
        );
        assert_eq!(cat.relation("ProfDept").unwrap().navigations.len(), 2);
        assert_eq!(cat.relation("Professor").unwrap().navigations.len(), 1);
    }

    #[test]
    fn author_pub_has_four_strategies() {
        let cat = bibliography_catalog();
        let rel = cat.relation("AuthorPub").unwrap();
        assert_eq!(rel.navigations.len(), 4);
        let complete: Vec<bool> = rel.navigations.iter().map(|n| n.complete).collect();
        assert_eq!(complete, vec![true, false, false, true]);
    }

    #[test]
    fn bindings_resolve() {
        let cat = university_catalog();
        let rel = cat.relation("Course").unwrap();
        assert_eq!(
            rel.navigations[0].binding("Session"),
            Some("CoursePage.Session")
        );
        assert_eq!(rel.navigations[0].binding("Nope"), None);
    }

    #[test]
    fn unknown_relation_error() {
        let cat = university_catalog();
        assert!(matches!(
            cat.relation("Nope"),
            Err(OptError::UnknownRelation(_))
        ));
    }

    #[test]
    fn catalog_rejects_unbound_attr() {
        let ws = university_scheme().unwrap();
        let bad = ViewCatalog::new().with(ExternalRelation::new(
            "Broken",
            vec!["X"],
            vec![DefaultNavigation::new(
                NalgExpr::entry("ProfListPage"),
                Vec::<(&str, &str)>::new(),
            )],
        ));
        assert!(bad.validate(&ws).is_err());
    }

    #[test]
    fn catalog_rejects_noncomputable_nav() {
        let ws = university_scheme().unwrap();
        let bad = ViewCatalog::new().with(ExternalRelation::new(
            "Broken",
            vec!["X"],
            vec![DefaultNavigation::new(
                NalgExpr::external("Y"),
                vec![("X", "Y.X")],
            )],
        ));
        assert!(bad.validate(&ws).is_err());
    }
}
