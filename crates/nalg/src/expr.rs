//! NALG expression trees and their static analysis.
//!
//! Expressions reference attributes by name; names resolve against the
//! expression's *output columns* by `adm::name`'s rule, as the evaluator
//! resolves them against materialized relations.
//! Every `Entry` and `Follow` node carries an **alias** (defaulting to its
//! page-scheme name) that qualifies the columns it contributes, so the same
//! page-scheme may appear several times in one plan (e.g. the three VLDB
//! edition pages of the introduction's query).

use adm::name::resolve_name;
use adm::{AdmError, Field, Value, WebScheme};
use std::collections::HashMap;
use std::fmt;

/// A selection predicate: a conjunction of equality atoms (the paper
/// restricts itself to conjunctive queries).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `attr = constant`.
    Eq(String, Value),
    /// `attr1 = attr2` (both resolved against the input).
    EqAttr(String, String),
    /// Conjunction.
    And(Vec<Pred>),
}

impl Pred {
    /// `attr = text-constant` convenience.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Pred {
        Pred::Eq(attr.into(), value.into())
    }

    /// Flattens the predicate into its atomic conjuncts.
    pub fn conjuncts(&self) -> Vec<Pred> {
        match self {
            Pred::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            atom => vec![atom.clone()],
        }
    }

    /// The attribute names this predicate mentions.
    pub fn attrs(&self) -> Vec<&str> {
        match self {
            Pred::Eq(a, _) => vec![a],
            Pred::EqAttr(a, b) => vec![a, b],
            Pred::And(ps) => ps.iter().flat_map(|p| p.attrs()).collect(),
        }
    }

    /// A copy with every `attr = constant` atom's constant replaced by
    /// `f(constant)`; attributes and structure are kept.
    pub fn map_constants(&self, f: &impl Fn(&Value) -> Value) -> Pred {
        match self {
            Pred::Eq(a, v) => Pred::Eq(a.clone(), f(v)),
            Pred::And(ps) => Pred::And(ps.iter().map(|p| p.map_constants(f)).collect()),
            Pred::EqAttr(..) => self.clone(),
        }
    }

    /// True when some atom compares an attribute with a constant.
    pub fn has_constants(&self) -> bool {
        match self {
            Pred::Eq(..) => true,
            Pred::EqAttr(..) => false,
            Pred::And(ps) => ps.iter().any(Pred::has_constants),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Eq(a, v) => write!(f, "{a}='{v}'"),
            Pred::EqAttr(a, b) => write!(f, "{a}={b}"),
            Pred::And(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// A navigational-algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NalgExpr {
    /// An entry-point page-relation (single tuple, known URL).
    Entry {
        /// The entry-point page-scheme.
        scheme: String,
        /// Column-qualification alias (defaults to the scheme name).
        alias: String,
    },
    /// An external relation, to be replaced by a default navigation
    /// (rewrite rule 1). Not computable as-is.
    External {
        /// The external relation name.
        name: String,
    },
    /// Selection σ.
    Select {
        /// Input expression.
        input: Box<NalgExpr>,
        /// The predicate.
        pred: Pred,
    },
    /// Projection π (set semantics).
    Project {
        /// Input expression.
        input: Box<NalgExpr>,
        /// Columns to keep (resolved by suffix).
        cols: Vec<String>,
    },
    /// Join ⋈ on equality pairs.
    Join {
        /// Left input.
        left: Box<NalgExpr>,
        /// Right input.
        right: Box<NalgExpr>,
        /// Equality pairs `(left column, right column)`.
        on: Vec<(String, String)>,
    },
    /// Unnest page `R ∘ A`.
    Unnest {
        /// Input expression.
        input: Box<NalgExpr>,
        /// The list attribute to unnest (resolved by suffix).
        attr: String,
    },
    /// Follow link `R –L→ P`.
    Follow {
        /// Input expression.
        input: Box<NalgExpr>,
        /// The link attribute to follow (resolved by suffix).
        link: String,
        /// Target page-scheme.
        target: String,
        /// Column-qualification alias for the target's columns.
        alias: String,
    },
}

impl NalgExpr {
    /// An entry-point leaf.
    pub fn entry(scheme: impl Into<String>) -> NalgExpr {
        let scheme = scheme.into();
        NalgExpr::Entry {
            alias: scheme.clone(),
            scheme,
        }
    }

    /// An entry-point leaf with an explicit alias.
    pub fn entry_as(scheme: impl Into<String>, alias: impl Into<String>) -> NalgExpr {
        NalgExpr::Entry {
            scheme: scheme.into(),
            alias: alias.into(),
        }
    }

    /// An external-relation leaf.
    pub fn external(name: impl Into<String>) -> NalgExpr {
        NalgExpr::External { name: name.into() }
    }

    /// σ; builder style.
    pub fn select(self, pred: Pred) -> NalgExpr {
        NalgExpr::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// π; builder style.
    pub fn project<S: Into<String>>(self, cols: Vec<S>) -> NalgExpr {
        NalgExpr::Project {
            input: Box::new(self),
            cols: cols.into_iter().map(Into::into).collect(),
        }
    }

    /// ⋈; builder style.
    pub fn join<S: Into<String>>(self, right: NalgExpr, on: Vec<(S, S)>) -> NalgExpr {
        NalgExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on.into_iter().map(|(a, b)| (a.into(), b.into())).collect(),
        }
    }

    /// `∘ attr`; builder style.
    pub fn unnest(self, attr: impl Into<String>) -> NalgExpr {
        NalgExpr::Unnest {
            input: Box::new(self),
            attr: attr.into(),
        }
    }

    /// `–link→ target`; builder style.
    pub fn follow(self, link: impl Into<String>, target: impl Into<String>) -> NalgExpr {
        let target = target.into();
        NalgExpr::Follow {
            input: Box::new(self),
            link: link.into(),
            alias: target.clone(),
            target,
        }
    }

    /// `–link→ target` with an explicit alias; builder style.
    pub fn follow_as(
        self,
        link: impl Into<String>,
        target: impl Into<String>,
        alias: impl Into<String>,
    ) -> NalgExpr {
        NalgExpr::Follow {
            input: Box::new(self),
            link: link.into(),
            target: target.into(),
            alias: alias.into(),
        }
    }

    /// Builds an expression from a navigation path.
    pub fn from_path(path: &adm::NavPath) -> NalgExpr {
        let mut e = NalgExpr::entry(path.entry.clone());
        for step in &path.steps {
            e = match step {
                adm::PathStep::Unnest(a) => e.unnest(a.clone()),
                adm::PathStep::Follow { link, target } => e.follow(link.clone(), target.clone()),
            };
        }
        e
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&NalgExpr> {
        match self {
            NalgExpr::Entry { .. } | NalgExpr::External { .. } => vec![],
            NalgExpr::Select { input, .. }
            | NalgExpr::Project { input, .. }
            | NalgExpr::Unnest { input, .. }
            | NalgExpr::Follow { input, .. } => vec![input],
            NalgExpr::Join { left, right, .. } => vec![left, right],
        }
    }

    /// True if every leaf is an entry point (Section 4's computability).
    pub fn is_computable(&self) -> bool {
        match self {
            NalgExpr::Entry { .. } => true,
            NalgExpr::External { .. } => false,
            other => other.children().iter().all(|c| c.is_computable()),
        }
    }

    /// Number of operator nodes (tree size).
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// True when some selection in the tree compares an attribute with a
    /// constant ([`Pred::has_constants`]).
    pub fn has_constants(&self) -> bool {
        matches!(self, NalgExpr::Select { pred, .. } if pred.has_constants())
            || self.children().iter().any(|c| c.has_constants())
    }

    /// Number of follow-link operators (navigations).
    pub fn follow_count(&self) -> usize {
        let here = usize::from(matches!(self, NalgExpr::Follow { .. }));
        here + self
            .children()
            .iter()
            .map(|c| c.follow_count())
            .sum::<usize>()
    }

    /// A copy of the tree with every selection constant replaced by
    /// `f(constant)` ([`Pred::map_constants`]); everything else — shape,
    /// schemes, aliases, columns — is kept. This is how a plan made for
    /// one instance of a query shape is bound to another instance.
    pub fn map_constants(&self, f: &impl Fn(&Value) -> Value) -> NalgExpr {
        let sub = |e: &NalgExpr| Box::new(e.map_constants(f));
        match self {
            NalgExpr::Select { input, pred } => NalgExpr::Select {
                input: sub(input),
                pred: pred.map_constants(f),
            },
            NalgExpr::Project { input, cols } => NalgExpr::Project {
                input: sub(input),
                cols: cols.clone(),
            },
            NalgExpr::Unnest { input, attr } => NalgExpr::Unnest {
                input: sub(input),
                attr: attr.clone(),
            },
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => NalgExpr::Follow {
                input: sub(input),
                link: link.clone(),
                target: target.clone(),
                alias: alias.clone(),
            },
            NalgExpr::Join { left, right, on } => NalgExpr::Join {
                left: sub(left),
                right: sub(right),
                on: on.clone(),
            },
            leaf => leaf.clone(),
        }
    }

    /// The alias → page-scheme map contributed by this expression's
    /// `Entry`/`Follow` nodes. Errors on duplicate aliases.
    pub fn alias_map(&self) -> crate::Result<HashMap<String, String>> {
        let mut map = HashMap::new();
        fn walk(e: &NalgExpr, map: &mut HashMap<String, String>) -> crate::Result<()> {
            let binding = match e {
                NalgExpr::Entry { scheme, alias } => Some((alias, scheme)),
                NalgExpr::Follow { target, alias, .. } => Some((alias, target)),
                _ => None,
            };
            if let Some((alias, scheme)) = binding {
                if map.insert(alias.clone(), scheme.clone()).is_some() {
                    return Err(crate::EvalError::DuplicateAlias(alias.clone()));
                }
            }
            for c in e.children() {
                walk(c, map)?;
            }
            Ok(())
        }
        walk(self, &mut map)?;
        Ok(map)
    }

    /// The qualified output columns of this expression under a scheme.
    /// External leaves make this fail ([`crate::EvalError::NotComputable`]).
    pub fn output_columns(&self, ws: &WebScheme) -> crate::Result<Vec<String>> {
        match self {
            NalgExpr::Entry { scheme, alias } => page_columns(ws, scheme, alias),
            NalgExpr::External { name } => Err(crate::EvalError::NotComputable(format!(
                "external relation {name} has no navigational columns"
            ))),
            NalgExpr::Select { input, .. } => input.output_columns(ws),
            NalgExpr::Project { input, cols } => {
                let in_cols = input.output_columns(ws)?;
                cols.iter()
                    .map(|c| Ok(in_cols[resolve_name(&in_cols, c)?].clone()))
                    .collect()
            }
            NalgExpr::Join { left, right, .. } => {
                let mut cols = left.output_columns(ws)?;
                cols.extend(right.output_columns(ws)?);
                Ok(cols)
            }
            NalgExpr::Unnest { input, attr } => {
                let in_cols = input.output_columns(ws)?;
                let i = resolve_name(&in_cols, attr)?;
                let qualified = in_cols[i].clone();
                let field = field_of_column(ws, &self.alias_map()?, &qualified)?;
                let inner = field.ty.list_fields().ok_or_else(|| {
                    crate::EvalError::Adm(AdmError::TypeMismatch {
                        attr: qualified.clone(),
                        expected: "list",
                        found: field.ty.kind().to_string(),
                    })
                })?;
                let mut out: Vec<String> = in_cols
                    .iter()
                    .filter(|c| **c != qualified)
                    .cloned()
                    .collect();
                out.extend(inner.iter().map(|f| format!("{qualified}.{}", f.name)));
                Ok(out)
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let in_cols = input.output_columns(ws)?;
                let i = resolve_name(&in_cols, link)?;
                let qualified = in_cols[i].clone();
                let field = field_of_column(ws, &self.alias_map()?, &qualified)?;
                match field.ty.link_target() {
                    Some(t) if t == target => {}
                    Some(t) => {
                        return Err(crate::EvalError::Adm(AdmError::TypeMismatch {
                            attr: qualified,
                            expected: "link to the follow target",
                            found: format!("link to {t}"),
                        }))
                    }
                    None => {
                        return Err(crate::EvalError::Adm(AdmError::TypeMismatch {
                            attr: qualified,
                            expected: "link",
                            found: field.ty.kind().to_string(),
                        }))
                    }
                }
                let mut cols = in_cols;
                cols.extend(page_columns(ws, target, alias)?);
                Ok(cols)
            }
        }
    }
}

/// The columns a page-relation contributes: `alias.URL` plus one per
/// top-level attribute (lists stay nested in a single column).
pub fn page_columns(ws: &WebScheme, scheme: &str, alias: &str) -> crate::Result<Vec<String>> {
    let ps = ws.scheme(scheme)?;
    let mut cols = vec![format!("{alias}.URL")];
    cols.extend(ps.fields.iter().map(|f| format!("{alias}.{}", f.name)));
    Ok(cols)
}

/// Maps a fully qualified column (`alias.path…`) to its field definition.
/// `alias.URL` has no field; it errors (URL is the implicit key).
pub fn field_of_column<'ws>(
    ws: &'ws WebScheme,
    aliases: &HashMap<String, String>,
    qualified: &str,
) -> crate::Result<&'ws Field> {
    let mut parts = qualified.split('.');
    let alias = parts.next().unwrap_or("");
    let path: Vec<&str> = parts.collect();
    let scheme = aliases.get(alias).ok_or_else(|| {
        crate::EvalError::Adm(AdmError::UnknownAttribute {
            attr: qualified.to_string(),
            within: "alias map".to_string(),
        })
    })?;
    if path.is_empty() || path == ["URL"] {
        return Err(crate::EvalError::Adm(AdmError::UnknownAttribute {
            attr: qualified.to_string(),
            within: format!("page-scheme {scheme} (URL is implicit)"),
        }));
    }
    Ok(ws.scheme(scheme)?.resolve_path(&path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm::{Field, PageScheme};

    fn scheme() -> WebScheme {
        let list = PageScheme::new(
            "ListPage",
            vec![Field::list(
                "Items",
                vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
            )],
        )
        .unwrap();
        let item =
            PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Info")]).unwrap();
        WebScheme::builder()
            .scheme(list)
            .scheme(item)
            .entry_point("ListPage", "/list.html")
            .build()
            .unwrap()
    }

    fn nav() -> NalgExpr {
        NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage")
    }

    #[test]
    fn computability() {
        assert!(nav().is_computable());
        let with_ext = NalgExpr::external("R").join(nav(), vec![("a", "b")]);
        assert!(!with_ext.is_computable());
    }

    #[test]
    fn output_columns_through_unnest_and_follow() {
        let cols = nav().output_columns(&scheme()).unwrap();
        assert_eq!(
            cols,
            vec![
                "ListPage.URL",
                "ListPage.Items.Name",
                "ListPage.Items.ToItem",
                "ItemPage.URL",
                "ItemPage.Name",
                "ItemPage.Info",
            ]
        );
    }

    #[test]
    fn project_resolves_by_suffix() {
        let e = nav().project(vec!["Info"]);
        let cols = e.output_columns(&scheme()).unwrap();
        assert_eq!(cols, vec!["ItemPage.Info"]);
    }

    #[test]
    fn ambiguous_suffix_rejected() {
        // Name appears both in the list rows and on the item page.
        let e = nav().project(vec!["Name"]);
        assert!(matches!(
            e.output_columns(&scheme()),
            Err(crate::EvalError::Adm(AdmError::AmbiguousAttribute { .. }))
        ));
    }

    #[test]
    fn follow_validates_link_type() {
        let bad = NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow("Name", "ItemPage"); // Name is text, not link
        assert!(bad.output_columns(&scheme()).is_err());
    }

    #[test]
    fn aliases_allow_same_scheme_twice() {
        let left = NalgExpr::entry("ListPage")
            .unnest("Items")
            .follow_as("ToItem", "ItemPage", "I1");
        let right = NalgExpr::entry_as("ListPage", "L2")
            .unnest("Items")
            .follow_as("ToItem", "ItemPage", "I2");
        let j = left.join(right, vec![("I1.Name", "I2.Name")]);
        let cols = j.output_columns(&scheme()).unwrap();
        assert!(cols.contains(&"I1.Info".to_string()));
        assert!(cols.contains(&"I2.Info".to_string()));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let l = NalgExpr::entry("ListPage");
        let r = NalgExpr::entry("ListPage");
        let j = l.join(r, vec![("URL", "URL")]);
        assert!(matches!(
            j.alias_map(),
            Err(crate::EvalError::DuplicateAlias(_))
        ));
    }

    #[test]
    fn pred_conjunct_flattening() {
        let p = Pred::And(vec![
            Pred::eq("A", "1"),
            Pred::And(vec![
                Pred::eq("B", "2"),
                Pred::EqAttr("C".into(), "D".into()),
            ]),
        ]);
        assert_eq!(p.conjuncts().len(), 3);
    }

    #[test]
    fn pred_attrs() {
        let p = Pred::And(vec![
            Pred::eq("A", "1"),
            Pred::EqAttr("B".into(), "C".into()),
        ]);
        assert_eq!(p.attrs(), vec!["A", "B", "C"]);
    }

    #[test]
    fn size_and_follow_count() {
        let e = nav().select(Pred::eq("Info", "x")).project(vec!["Info"]);
        assert_eq!(e.size(), 5);
        assert_eq!(e.follow_count(), 1);
    }

    #[test]
    fn map_constants_touches_only_constants() {
        let plan = |a: &str, b: &str| {
            nav()
                .select(Pred::And(vec![
                    Pred::eq("Info", a),
                    Pred::EqAttr("ItemPage.Name".into(), "Items.Name".into()),
                ]))
                .join(
                    NalgExpr::entry_as("ListPage", "L2").select(Pred::eq("L2.URL", b)),
                    vec![("ListPage.URL", "L2.URL")],
                )
                .project(vec!["Info"])
        };
        let swap = |v: &Value| match v.as_text() {
            Some("x") => Value::text("p"),
            Some("y") => Value::text("q"),
            _ => v.clone(),
        };
        assert_eq!(plan("x", "y").map_constants(&swap), plan("p", "q"));
        assert_eq!(plan("x", "x").map_constants(&swap), plan("p", "p"));
        assert_eq!(plan("a", "b").map_constants(&swap), plan("a", "b"));
    }

    #[test]
    fn from_path_matches_builder() {
        let p = adm::NavPath::at("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage");
        assert_eq!(NalgExpr::from_path(&p), nav());
    }

    #[test]
    fn pred_display() {
        let p = Pred::And(vec![Pred::eq("Session", "Fall"), Pred::eq("Rank", "Full")]);
        assert_eq!(p.to_string(), "Session='Fall' ∧ Rank='Full'");
    }
}
