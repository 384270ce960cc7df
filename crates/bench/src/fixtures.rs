//! Shared plans and query workloads for the experiments.
//!
//! The paper's named plans (Figures 2–4) are built here explicitly with the
//! NALG builder so experiments can execute them regardless of what the
//! optimizer would pick.

use nalg::{NalgExpr, Pred};
use wvcore::ConjunctiveQuery;

/// Figure 2 — "Name and Description of all Courses held by members of the
/// Computer Science Department": the dept → professors → courses plan.
pub fn figure_2_plan() -> NalgExpr {
    NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .select(Pred::eq("DName", "Computer Science"))
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow("DeptPage.ProfList.ToProf", "ProfPage")
        .unnest("ProfPage.CourseList")
        .follow("ProfPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Description"])
}

/// Figure 3 (1d) — Example 7.1, the pointer-join plan: push both
/// selections down, intersect the two `ToCourse` pointer sets, navigate
/// only the intersection.
pub fn example_71_plan_1d() -> NalgExpr {
    let prof_side = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .select(Pred::eq("ProfPage.Rank", "Full"))
        .unnest("ProfPage.CourseList");
    let session_side = NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .select(Pred::eq("SessionListPage.SesList.Session", "Fall"))
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList");
    session_side
        .join(
            prof_side,
            vec![(
                "SessionPage.CourseList.ToCourse",
                "ProfPage.CourseList.ToCourse",
            )],
        )
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Description"])
}

/// Figure 3 (2d) — Example 7.1, the pointer-chase plan: navigate every
/// course taught by a full professor, then select the Fall ones.
pub fn example_71_plan_2d() -> NalgExpr {
    NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .select(Pred::eq("ProfPage.Rank", "Full"))
        .unnest("ProfPage.CourseList")
        .follow("ProfPage.CourseList.ToCourse", "CoursePage")
        .select(Pred::eq("CoursePage.Session", "Fall"))
        .project(vec!["CoursePage.CName", "CoursePage.Description"])
}

/// Figure 4 (1) — Example 7.2, the pointer-join plan: download every
/// session and course page to collect instructor pointers of graduate
/// courses, intersect with the department's professor pointers, navigate.
pub fn example_72_plan_1(dept: &str) -> NalgExpr {
    NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .select(Pred::eq("CoursePage.Type", "Graduate"))
        .join(
            NalgExpr::entry("DeptListPage")
                .unnest("DeptList")
                .select(Pred::eq("DeptListPage.DeptList.DName", dept))
                .follow("ToDept", "DeptPage")
                .unnest("DeptPage.ProfList"),
            vec![("CoursePage.ToProf", "DeptPage.ProfList.ToProf")],
        )
        .follow("CoursePage.ToProf", "ProfPage")
        .project(vec!["ProfPage.PName", "ProfPage.Email"])
}

/// Figure 4 (2) — Example 7.2, the pointer-chase plan: enter through the
/// department page and follow links; only the department's professors and
/// their courses are downloaded.
pub fn example_72_plan_2(dept: &str) -> NalgExpr {
    NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .select(Pred::eq("DeptListPage.DeptList.DName", dept))
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow("DeptPage.ProfList.ToProf", "ProfPage")
        .unnest("ProfPage.CourseList")
        .follow("ProfPage.CourseList.ToCourse", "CoursePage")
        .select(Pred::eq("CoursePage.Type", "Graduate"))
        .project(vec!["ProfPage.PName", "ProfPage.Email"])
}

/// The four intro strategies for "authors in each of the last three VLDB
/// editions" (Section 1), parameterized by the edition years.
pub fn intro_strategies(years: &[u32]) -> Vec<NalgExpr> {
    let edition_branches = |entry: NalgExpr| {
        let mut joined: Option<NalgExpr> = None;
        for (i, y) in years.iter().enumerate() {
            let branch = entry
                .clone()
                .select(Pred::eq("ConfName", "VLDB"))
                .follow_as("ToConf", "ConfPage", format!("Conf{i}"))
                .unnest(format!("Conf{i}.EditionList"))
                .select(Pred::eq(format!("Conf{i}.EditionList.Year"), y.to_string()))
                .follow_as(
                    format!("Conf{i}.EditionList.ToEdition"),
                    "EditionPage",
                    format!("Ed{i}"),
                )
                .unnest(format!("Ed{i}.PaperList"))
                .unnest(format!("Ed{i}.PaperList.Authors"))
                .project(vec![format!("Ed{i}.PaperList.Authors.AName")]);
            joined = Some(match joined {
                None => branch,
                Some(acc) => acc.join(
                    branch,
                    vec![(
                        format!("Ed{}.PaperList.Authors.AName", i - 1),
                        format!("Ed{i}.PaperList.Authors.AName"),
                    )],
                ),
            });
        }
        joined
            .expect("at least one year")
            .project(vec!["Ed0.PaperList.Authors.AName".to_string()])
    };
    // NB: entry aliases differ per strategy branch through follow_as, so
    // identical page-schemes never collide.
    let author_first = {
        let mut joined: Option<NalgExpr> = None;
        for (i, y) in years.iter().enumerate() {
            let branch = NalgExpr::entry_as("BibHomePage", format!("H{i}"))
                .follow_as(
                    format!("H{i}.ToAuthorList"),
                    "AuthorListPage",
                    format!("AL{i}"),
                )
                .unnest(format!("AL{i}.AuthorList"))
                .follow_as(
                    format!("AL{i}.AuthorList.ToAuthor"),
                    "AuthorPage",
                    format!("A{i}"),
                )
                .unnest(format!("A{i}.PubList"))
                .select(Pred::And(vec![
                    Pred::eq(format!("A{i}.PubList.ConfName"), "VLDB"),
                    Pred::eq(format!("A{i}.PubList.Year"), y.to_string()),
                ]))
                .project(vec![format!("A{i}.AName")]);
            joined = Some(match joined {
                None => branch,
                Some(acc) => acc.join(
                    branch,
                    vec![(format!("A{}.AName", i - 1), format!("A{i}.AName"))],
                ),
            });
        }
        joined
            .expect("at least one year")
            .project(vec!["A0.AName".to_string()])
    };
    vec![
        edition_branches(
            NalgExpr::entry("BibHomePage")
                .follow("ToConfList", "ConfListPage")
                .unnest("ConfList"),
        ),
        edition_branches(
            NalgExpr::entry("BibHomePage")
                .follow("ToDBConfList", "DBConfListPage")
                .unnest("ConfList"),
        ),
        edition_branches(NalgExpr::entry("BibHomePage").unnest("Featured")),
        author_first,
    ]
}

/// The university query workload (used by E4/E6).
pub fn university_workload() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        (
            "full professors",
            ConjunctiveQuery::new("full professors")
                .atom("Professor")
                .select((0, "Rank"), "Full")
                .project((0, "PName")),
        ),
        ("CS professors (email)", crate::query_cs_profs()),
        ("example 7.1", crate::query_71()),
        ("example 7.2", crate::query_72()),
        (
            "fall graduate courses",
            ConjunctiveQuery::new("fall graduate courses")
                .atom("Course")
                .select((0, "Session"), "Fall")
                .select((0, "Type"), "Graduate")
                .project((0, "CName"))
                .project((0, "Description")),
        ),
        (
            "who teaches what",
            ConjunctiveQuery::new("who teaches what")
                .atom("CourseInstructor")
                .project((0, "PName"))
                .project((0, "CName")),
        ),
        (
            "departments",
            ConjunctiveQuery::new("departments")
                .atom("Dept")
                .project((0, "DName"))
                .project((0, "Address")),
        ),
    ]
}

/// The bibliography query workload (used by E4).
pub fn bibliography_workload() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        (
            "editors of VLDB 1996",
            ConjunctiveQuery::new("editors of VLDB 1996")
                .atom("ConfEdition")
                .select((0, "ConfName"), "VLDB")
                .select((0, "Year"), "1996")
                .project((0, "Editors")),
        ),
        (
            "all conferences",
            ConjunctiveQuery::new("all conferences")
                .atom("Conference")
                .project((0, "ConfName")),
        ),
        (
            "SIGMOD 1997 papers",
            ConjunctiveQuery::new("SIGMOD 1997 papers")
                .atom("Paper")
                .select((0, "ConfName"), "SIGMOD")
                .select((0, "Year"), "1997")
                .project((0, "Title")),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::sitegen::university::university_scheme;

    #[test]
    fn paper_plans_are_computable_and_valid() {
        let ws = university_scheme().unwrap();
        for plan in [
            figure_2_plan(),
            example_71_plan_1d(),
            example_71_plan_2d(),
            example_72_plan_1("Computer Science"),
            example_72_plan_2("Computer Science"),
        ] {
            assert!(plan.is_computable());
            assert!(plan.output_columns(&ws).is_ok(), "{plan}");
        }
    }

    #[test]
    fn strategies_are_computable() {
        let ws = websim::sitegen::bibliography::bibliography_scheme().unwrap();
        for s in intro_strategies(&[1997, 1996, 1995]) {
            assert!(s.is_computable());
            assert!(s.output_columns(&ws).is_ok(), "{s}");
        }
    }

    #[test]
    fn workloads_validate_against_catalogs() {
        let ucat = wvcore::views::university_catalog();
        for (_, q) in university_workload() {
            q.validate(&ucat).unwrap();
        }
        let bcat = wvcore::views::bibliography_catalog();
        for (_, q) in bibliography_workload() {
            q.validate(&bcat).unwrap();
        }
    }
}
