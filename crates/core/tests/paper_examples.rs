//! End-to-end reproduction of the paper's Section 7 examples.
//!
//! Example 7.1 — "Name and Description of courses taught by full
//! professors in the Fall session": the **pointer-join** plan (rule 8,
//! Figure 3 (1d)) must win.
//!
//! Example 7.2 — "Name and Email of professors who are members of the
//! Computer Science Department, and who are instructors of Graduate
//! Courses": the **pointer-chase** plan (rule 9, Figure 4 (2)) must win;
//! at the paper's parameters (50 courses, 20 professors, 3 departments)
//! its cost is ≈23 while the pointer-join plan is well over 50.

use std::collections::HashSet;
use websim::sitegen::{University, UniversityConfig};
use wvcore::views::university_catalog;
use wvcore::{
    ConjunctiveQuery, ExecPolicy, LiveSource, Optimizer, QuerySession, RuleMask, SiteStatistics,
};

fn university() -> University {
    University::generate(UniversityConfig::default()).unwrap()
}

fn query_71() -> ConjunctiveQuery {
    ConjunctiveQuery::new("example 7.1")
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

fn query_72() -> ConjunctiveQuery {
    ConjunctiveQuery::new("example 7.2")
        .atom("Course")
        .atom("CourseInstructor")
        .atom("Professor")
        .atom("ProfDept")
        .join((0, "CName"), (1, "CName"))
        .join((1, "PName"), (2, "PName"))
        .join((2, "PName"), (3, "PName"))
        .select((3, "DName"), "Computer Science")
        .select((0, "Type"), "Graduate")
        .project((2, "PName"))
        .project((2, "Email"))
}

/// Oracle for 7.1: (CName, Description) of Fall courses taught by Full
/// professors.
fn oracle_71(u: &University) -> HashSet<String> {
    let full: HashSet<String> = u
        .expected_professor()
        .into_iter()
        .filter(|(_, r, _)| r == "Full")
        .map(|(n, _, _)| n)
        .collect();
    let instr: std::collections::HashMap<String, String> =
        u.expected_course_instructor().into_iter().collect();
    u.expected_course()
        .into_iter()
        .filter(|(cn, s, _, _)| s == "Fall" && full.contains(&instr[cn]))
        .map(|(cn, _, _, _)| cn)
        .collect()
}

/// Oracle for 7.2: PNames of CS professors teaching a graduate course.
fn oracle_72(u: &University) -> HashSet<String> {
    let cs: HashSet<String> = u
        .expected_prof_dept()
        .into_iter()
        .filter(|(_, d)| d == "Computer Science")
        .map(|(p, _)| p)
        .collect();
    let grad_courses: HashSet<String> = u
        .expected_course()
        .into_iter()
        .filter(|(_, _, _, t)| t == "Graduate")
        .map(|(c, _, _, _)| c)
        .collect();
    u.expected_course_instructor()
        .into_iter()
        .filter(|(c, p)| grad_courses.contains(c) && cs.contains(p))
        .map(|(_, p)| p)
        .collect()
}

#[test]
fn example_71_answer_is_correct() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    let outcome = session.run(&query_71()).unwrap();
    let got: HashSet<String> = outcome
        .report
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert_eq!(got, oracle_71(&u), "plan:\n{}", outcome.explain.report());
}

#[test]
fn example_71_pointer_join_beats_pointer_chase() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let opt = Optimizer::new(&u.site.scheme, &catalog, &stats);
    let explain = opt.optimize(&query_71()).unwrap();
    // The winning plan must NOT navigate all 50 course pages: its cost is
    // below the pointer-chase cost 1 + |Prof| + |Course|/3 ≈ 37.7.
    let best = explain.best();
    assert!(
        best.estimate.cost.pages < 33.0,
        "best plan too expensive:\n{}",
        explain.report()
    );
    // Both strategies must be in the candidate pool: some candidate joins
    // the two pointer sets (rule 8 shape: join on ToCourse link columns).
    let has_pointer_join = explain.candidates.iter().any(|c| {
        let t = nalg::display::tree(&c.expr);
        t.contains("ToCourse = ") || t.contains("= SessionPage.CourseList.ToCourse")
    });
    assert!(has_pointer_join, "{}", explain.report());
}

#[test]
fn example_71_measured_accesses_agree() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    let outcome = session.run(&query_71()).unwrap();
    // actual downloads must be far below navigating every course page:
    // full naive navigation costs 1 + 20 profs + 1 + 3 sessions + 50
    // courses = 75 pages.
    assert!(
        outcome.downloads() < 50,
        "downloads {} too high; plan:\n{}",
        outcome.downloads(),
        outcome.explain.report()
    );
}

#[test]
fn example_72_answer_is_correct() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    let outcome = session.run(&query_72()).unwrap();
    let got: HashSet<String> = outcome
        .report
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert_eq!(got, oracle_72(&u), "plan:\n{}", outcome.explain.report());
}

#[test]
fn example_72_pointer_chase_wins_at_paper_parameters() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let opt = Optimizer::new(&u.site.scheme, &catalog, &stats);
    let explain = opt.optimize(&query_72()).unwrap();
    let best = explain.best();
    // The paper: pointer-chase ≈ 23 (we estimate 1+1+20/3+50/3 ≈ 25.3),
    // pointer-join "well over 50".
    assert!(
        best.estimate.cost.pages < 30.0,
        "best plan too expensive:\n{}",
        explain.report()
    );
    // The best plan chases from the department page: it must not contain
    // the session-list entry point (which would mean downloading all
    // course pages).
    let t = nalg::display::tree(&best.expr);
    assert!(
        !t.contains("SessionListPage"),
        "expected pointer-chase plan, got:\n{}",
        explain.report()
    );
    assert!(t.contains("DeptListPage"), "{t}");
}

#[test]
fn example_72_disabling_rule9_degrades_plan() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let full = Optimizer::new(&u.site.scheme, &catalog, &stats)
        .optimize(&query_72())
        .unwrap();
    let no_chase = Optimizer::new(&u.site.scheme, &catalog, &stats)
        .with_policy(&ExecPolicy {
            mask: RuleMask::all().without_pointer_chase(),
            ..Default::default()
        })
        .optimize(&query_72())
        .unwrap();
    assert!(
        full.best().estimate.cost.pages < no_chase.best().estimate.cost.pages,
        "rule 9 should matter: full {} vs masked {}\n{}",
        full.best().estimate.cost,
        no_chase.best().estimate.cost,
        no_chase.report()
    );
}

#[test]
fn example_72_measured_pointer_chase_beats_paper_pointer_join() {
    // Execute the winning (pointer-chase) plan and the paper's plan (1)
    // (the pointer-join plan that derives instructor pointers by
    // downloading every session and course page) against the live site and
    // compare *measured* page accesses — the paper's ≈23 vs >50 claim.
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);

    let explain = session.explain(&query_72()).unwrap();
    let chase = session.execute(&explain.best().expr).unwrap();

    // The paper's plan (1): among the candidates, the most expensive one
    // that enters through the session list (it must download all course
    // pages to find instructors of graduate courses).
    let paper_join = explain
        .candidates
        .iter()
        .filter(|c| nalg::display::tree(&c.expr).contains("SessionListPage"))
        .max_by(|a, b| {
            a.estimate
                .cost
                .pages
                .partial_cmp(&b.estimate.cost.pages)
                .unwrap()
        })
        .expect("a session-list-based candidate exists");
    u.site.server.reset_stats();
    let join_report = session.execute(&paper_join.expr).unwrap();

    let chase_pages = chase.cost_model_accesses();
    let join_pages = join_report.cost_model_accesses();
    assert!(
        chase_pages < join_pages,
        "chase {chase_pages} vs join {join_pages}"
    );
    // magnitudes in the paper's ballpark: ≈23 vs "well over 50"
    assert!(chase_pages <= 35, "chase = {chase_pages}");
    assert!(join_pages >= 45, "join = {join_pages}");
    // answers agree regardless of strategy
    let a: std::collections::HashSet<String> = chase
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    let b: std::collections::HashSet<String> = join_report
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert_eq!(a, b);
}

#[test]
fn estimated_vs_measured_within_factor_two() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    for q in [query_71(), query_72()] {
        let outcome = session.run(&q).unwrap();
        let est = outcome.estimated_pages();
        let meas = outcome.measured_pages() as f64;
        assert!(
            est <= 2.0 * meas + 5.0 && meas <= 2.0 * est + 5.0,
            "{}: estimate {est} vs measured {meas}",
            q.name
        );
        u.site.server.reset_stats();
    }
}
