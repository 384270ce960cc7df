//! The read set: which fields of a page some operator above can read.
//!
//! An `Entry` or a `Follow` appends each page it acquires to its columns.
//! A field no operator above it can resolve is never read, so it is never
//! interned, pushed or gathered. What an operator above reads is a name as
//! written in the plan:
//!
//! * π reads its columns, σ its predicate's attributes, ⋈ its keys and a
//!   follow its link — each as a whole value;
//! * µ reads its list attribute, but only to take the inner tuples apart;
//! * the root reads every column whole, until a π stands in between.
//!
//! A field is kept when some name in the read set binds its column by
//! [`adm::name`]'s rule, the rule resolution binds by: every column a name
//! could bind is kept, so resolution on the pruned header binds the column
//! it binds on the full one — a name that was ambiguous still is, and one
//! that bound nothing still binds nothing.
//!
//! The inner fields of a list are kept by the same rule, one level down
//! (`ProfListPage.ProfList.ToProf`), unless some name reads the list whole,
//! which keeps all of it. Nothing a π, σ or ⋈ compares is ever cut down,
//! so every operator sees the rows it would see over the whole page, in the
//! same order and number.
//!
//! Names only accumulate on the way down — a π adds its columns to what is
//! read above it instead of replacing it — so the read set at a node holds
//! every name that any operator on its path to the root resolves, including
//! the σ and ⋈ attributes the relevance monitor resolves against a follow's
//! header.

use crate::expr::{NalgExpr, Pred};
use adm::name::binding;
use adm::{Field, Keep};

/// What the operators on the path from a node to the root read of the
/// node's output: one link per operator, each holding that operator's
/// names as the plan writes them, so nothing is copied on the way down.
#[derive(Clone, Copy)]
pub(crate) struct Reads<'r, 'e> {
    names: Names<'e>,
    /// The names are read as whole values: by every operator but µ.
    whole: bool,
    /// No π between the node and the root: every column is read whole.
    all: bool,
    up: Option<&'r Reads<'r, 'e>>,
}

/// The names one operator resolves.
#[derive(Clone, Copy)]
enum Names<'e> {
    None,
    Cols(&'e [String]),
    Pred(&'e Pred),
    Keys(&'e [(String, String)]),
    One(&'e str),
}

impl<'e> Names<'e> {
    fn any(&self, f: &impl Fn(&str) -> bool) -> bool {
        match self {
            Names::None => false,
            Names::Cols(cols) => cols.iter().any(|c| f(c)),
            Names::Pred(p) => pred_any(p, f),
            Names::Keys(on) => on.iter().any(|(a, b)| f(a) || f(b)),
            Names::One(n) => f(n),
        }
    }
}

fn pred_any(p: &Pred, f: &impl Fn(&str) -> bool) -> bool {
    match p {
        Pred::Eq(a, _) => f(a),
        Pred::EqAttr(a, b) => f(a) || f(b),
        Pred::And(ps) => ps.iter().any(|p| pred_any(p, f)),
    }
}

impl<'r, 'e> Reads<'r, 'e> {
    /// What is read of the plan's answer: everything.
    pub(crate) fn root() -> Self {
        Reads {
            names: Names::None,
            whole: true,
            all: true,
            up: None,
        }
    }

    /// What is read of the output of `node`'s inputs: what is read of
    /// `node`'s output, plus what `node` itself reads.
    pub(crate) fn below<'s>(&'s self, node: &'e NalgExpr) -> Reads<'s, 'e> {
        let (names, whole) = match node {
            NalgExpr::Select { pred, .. } => (Names::Pred(pred), true),
            NalgExpr::Project { cols, .. } => (Names::Cols(cols), true),
            NalgExpr::Join { on, .. } => (Names::Keys(on), true),
            NalgExpr::Unnest { attr, .. } => (Names::One(attr), false),
            NalgExpr::Follow { link, .. } => (Names::One(link), true),
            NalgExpr::Entry { .. } | NalgExpr::External { .. } => (Names::None, true),
        };
        Reads {
            names,
            whole,
            all: self.all && !matches!(node, NalgExpr::Project { .. }),
            up: Some(self),
        }
    }

    /// True when some name read (read whole, if `whole_only`) can bind the
    /// column `{parent}.{field}`.
    fn binds(&self, parent: &str, field: &str, whole_only: bool) -> bool {
        let hit = |name: &str| binding(&[parent, field], &[name]).is_some();
        let mut link = Some(self);
        while let Some(r) = link {
            if (r.whole || !whole_only) && r.names.any(&hit) {
                return true;
            }
            link = r.up;
        }
        false
    }

    /// What a page-relation keeps of `field` in the column
    /// `{parent}.{field}`, or `None` when nothing reads it.
    pub(crate) fn keeps(&self, parent: &str, field: &Field) -> Option<Keep> {
        if self.all || self.binds(parent, &field.name, true) {
            return Some(Keep::All);
        }
        if !self.binds(parent, &field.name, false) {
            return None;
        }
        let Some(inner) = field.ty.list_fields() else {
            return Some(Keep::All);
        };
        let column = format!("{parent}.{}", field.name);
        let kept = inner
            .iter()
            .filter_map(|f| Some((f.sym(), self.keeps(&column, f)?)))
            .collect();
        Some(Keep::Fields(kept))
    }

    /// Whether µ over the list column `column` emits its inner `field`:
    /// when some name above can bind the column it makes. The page below
    /// read at least those names, so the field is in the list's columns.
    pub(crate) fn unnests(&self, column: &str, field: &Field) -> bool {
        self.all || self.binds(column, &field.name, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm::WebScheme;
    use std::collections::BTreeMap;
    use websim::sitegen::bibliography::bibliography_scheme;
    use websim::sitegen::university::university_scheme;

    /// The fields each page-relation of `expr` keeps, by alias, as dotted
    /// paths below the alias: walked with the evaluator's own `below` and
    /// `keeps`.
    fn read_set(ws: &WebScheme, expr: &NalgExpr) -> BTreeMap<String, Vec<String>> {
        fn paths(prefix: &str, keep: &Keep, out: &mut Vec<String>) {
            match keep {
                Keep::All => out.push(prefix.to_string()),
                Keep::Fields(fields) => {
                    for (name, keep) in fields {
                        paths(&format!("{prefix}.{name}"), keep, out);
                    }
                }
            }
        }
        fn walk(
            ws: &WebScheme,
            e: &NalgExpr,
            reads: &Reads,
            out: &mut BTreeMap<String, Vec<String>>,
        ) {
            let page = match e {
                NalgExpr::Entry { scheme, alias } => Some((scheme, alias)),
                NalgExpr::Follow { target, alias, .. } => Some((target, alias)),
                _ => None,
            };
            if let Some((scheme, alias)) = page {
                let mut kept = Vec::new();
                for f in &ws.scheme(scheme).unwrap().fields {
                    if let Some(keep) = reads.keeps(alias, f) {
                        paths(&f.name, &keep, &mut kept);
                    }
                }
                out.insert(alias.clone(), kept);
            }
            let below = reads.below(e);
            for c in e.children() {
                walk(ws, c, &below, out);
            }
        }
        let mut out = BTreeMap::new();
        walk(ws, expr, &Reads::root(), &mut out);
        out
    }

    fn set(pairs: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        (pairs.iter())
            .map(|(a, fs)| (a.to_string(), fs.iter().map(|f| f.to_string()).collect()))
            .collect()
    }

    fn full_professors() -> NalgExpr {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfListPage.ProfList")
            .follow("ProfListPage.ProfList.ToProf", "ProfPage")
            .select(Pred::eq("ProfPage.Rank", "Full"))
            .project(vec!["ProfPage.PName"])
    }

    #[test]
    fn the_full_professors_plan_reads_two_fields_and_one_link() {
        assert_eq!(
            read_set(&university_scheme().unwrap(), &full_professors()),
            set(&[
                ("ProfListPage", &["ProfList.ToProf"]),
                ("ProfPage", &["PName", "Rank"]),
            ])
        );
    }

    #[test]
    fn without_a_pi_at_the_root_everything_is_read() {
        let ws = university_scheme().unwrap();
        let plan = NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
            .select(Pred::eq("Rank", "Full"));
        let all = |scheme: &str| {
            ws.scheme(scheme)
                .unwrap()
                .fields
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>()
        };
        let got = read_set(&ws, &plan);
        assert_eq!(got["ProfListPage"], all("ProfListPage"));
        assert_eq!(got["ProfPage"], all("ProfPage"));
    }

    #[test]
    fn an_unqualified_name_keeps_the_field_of_every_alias() {
        // `PName` can bind the anchor in the list and the professor page
        let plan = NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
            .project(vec!["PName"]);
        assert_eq!(
            read_set(&university_scheme().unwrap(), &plan),
            set(&[
                ("ProfListPage", &["ProfList.PName", "ProfList.ToProf"]),
                ("ProfPage", &["PName"]),
            ])
        );
    }

    #[test]
    fn a_list_read_whole_is_kept_whole_and_a_pi_adds_to_what_is_read_above() {
        // π keeps the course list whole (it compares whole values), and µ
        // above it then emits every inner field
        let plan = NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
            .project(vec!["ProfPage.PName", "ProfPage.CourseList"])
            .unnest("CourseList")
            .project(vec!["CName"]);
        assert_eq!(
            read_set(&university_scheme().unwrap(), &plan),
            set(&[
                ("ProfListPage", &["ProfList.ToProf"]),
                ("ProfPage", &["PName", "CourseList"]),
            ])
        );
    }

    #[test]
    fn lists_two_deep_keep_the_one_inner_field_read() {
        let plan = NalgExpr::entry("BibHomePage")
            .follow("ToConfList", "ConfListPage")
            .unnest("ConfList")
            .follow("ToConf", "ConfPage")
            .unnest("EditionList")
            .follow("ToEdition", "EditionPage")
            .unnest("PaperList")
            .unnest("EditionPage.PaperList.Authors")
            .project(vec!["EditionPage.PaperList.Authors.AName"]);
        let got = read_set(&bibliography_scheme().unwrap(), &plan);
        assert_eq!(got["EditionPage"], ["PaperList.Authors.AName"]);
        assert_eq!(got["ConfPage"], ["EditionList.ToEdition"]);
        assert_eq!(got["BibHomePage"], ["ToConfList"]);
    }

    /// Names of every kind against the fields below: exact, dotted
    /// suffixes, suffixes that do not start after a dot, unknown.
    const NAMES: [&str; 14] = [
        "P.Name",
        "P_1.Name",
        "P.List",
        "P_1.List.Name",
        "Name",
        "List.Name",
        "List",
        "ToQ",
        "URL",
        "ame",
        "1.Name",
        "ist.Name",
        "DName",
        "Nope",
    ];

    proptest::proptest! {
        #[test]
        fn a_page_keeps_a_field_exactly_when_a_name_read_binds_it(
            projected in proptest::collection::vec(0usize..NAMES.len(), 0..4),
            unnested in 0usize..NAMES.len() + 1,
            alias in 0usize..2,
        ) {
            let alias = ["P", "P_1"][alias];
            let fields = [
                Field::text("Name"),
                Field::text("DName"),
                Field::list("List", vec![Field::text("Name"), Field::link("ToQ", "Q")]),
            ];
            // π[projected] over µ[unnested] (when drawn) over the page.
            let mut below_pi = NalgExpr::entry("P");
            let mut read: Vec<&str> = projected.iter().map(|&i| NAMES[i]).collect();
            let whole = read.clone();
            if let Some(&name) = NAMES.get(unnested) {
                below_pi = below_pi.unnest(name);
                read.push(name);
            }
            let plan = below_pi.clone().project(whole.clone());
            let binds = |names: &[&str], column: &[&str]| {
                names.iter().any(|n| adm::name::binding(column, &[n]).is_some())
            };
            let root = Reads::root();
            let above = root.below(&plan);
            let reads = above.below(&below_pi);
            for f in &fields {
                let kept = reads.keeps(alias, f);
                assert_eq!(kept.is_some(), binds(&read, &[alias, &f.name]), "{f:?} {read:?}");
                match (kept, f.ty.list_fields()) {
                    (Some(Keep::Fields(inner)), Some(all)) => {
                        assert!(!binds(&whole, &[alias, &f.name]));
                        for g in all {
                            assert_eq!(
                                inner.iter().any(|(s, _)| *s == g.sym()),
                                binds(&read, &[alias, &f.name, &g.name]),
                                "{g:?} {read:?}"
                            );
                        }
                    }
                    (Some(Keep::All), Some(_)) => {
                        assert!(binds(&whole, &[alias, &f.name]), "{read:?}");
                    }
                    _ => {}
                }
            }
        }
    }
}
