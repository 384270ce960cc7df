//! Cross-crate integration: SQL text → parser → optimizer → navigation →
//! wrapped pages → relational answer, verified against generator oracles.

use webviews::prelude::*;

fn university() -> University {
    University::generate(UniversityConfig {
        departments: 3,
        professors: 12,
        courses: 30,
        seed: 2024,
        ..UniversityConfig::default()
    })
    .unwrap()
}

#[test]
fn sql_to_answer_on_university() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);

    let q = parse_query(
        "SELECT c.CName FROM Course c WHERE c.Session = 'Winter' AND c.Type = 'Graduate'",
        &catalog,
    )
    .unwrap();
    let outcome = session.run(&q).unwrap();
    let expected: std::collections::HashSet<String> = u
        .expected_course()
        .into_iter()
        .filter(|(_, s, _, t)| s == "Winter" && t == "Graduate")
        .map(|(c, _, _, _)| c)
        .collect();
    let got: std::collections::HashSet<String> = outcome
        .report
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn three_way_join_via_sql() {
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);

    let q = parse_query(
        "SELECT c.CName, Description \
         FROM Professor p, CourseInstructor ci, Course c \
         WHERE p.PName = ci.PName AND ci.CName = c.CName \
           AND p.Rank = 'Full' AND c.Session = 'Fall'",
        &catalog,
    )
    .unwrap();
    let outcome = session.run(&q).unwrap();

    let full: std::collections::HashSet<String> = u
        .expected_professor()
        .into_iter()
        .filter(|(_, r, _)| r == "Full")
        .map(|(n, _, _)| n)
        .collect();
    let instr: std::collections::HashMap<String, String> =
        u.expected_course_instructor().into_iter().collect();
    let expected: std::collections::HashSet<String> = u
        .expected_course()
        .into_iter()
        .filter(|(cn, s, _, _)| s == "Fall" && full.contains(&instr[cn]))
        .map(|(cn, _, _, _)| cn)
        .collect();
    let got: std::collections::HashSet<String> = outcome
        .report
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn all_plans_agree_on_the_answer() {
    // Every candidate plan, executed, returns the same set of rows for
    // the projected attributes (plans are rewrites of one query).
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    let q = parse_query(
        "SELECT p.PName FROM Professor p, ProfDept d \
         WHERE p.PName = d.PName AND d.DName = 'Mathematics'",
        &catalog,
    )
    .unwrap();
    let explain = session.explain(&q).unwrap();
    assert!(explain.candidates.len() >= 2);
    let mut answers: Vec<std::collections::BTreeSet<String>> = Vec::new();
    for cand in &explain.candidates {
        let report = session.execute(&cand.expr).unwrap();
        // plans may differ in the *name* of the projected column (rule 7
        // rewrites onto anchors) but not in its values
        let ans: std::collections::BTreeSet<String> = report
            .relation
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect();
        answers.push(ans);
    }
    for a in &answers[1..] {
        assert_eq!(a, &answers[0]);
    }
}

#[test]
fn cheapest_plan_is_also_cheapest_measured() {
    // The optimizer's ranking must be consistent with measured accesses on
    // the default university site for the paper queries.
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    let q = parse_query(
        "SELECT p.PName, p.Email \
         FROM Course c, CourseInstructor ci, Professor p, ProfDept d \
         WHERE c.CName = ci.CName AND ci.PName = p.PName AND p.PName = d.PName \
           AND d.DName = 'Computer Science' AND c.Type = 'Graduate'",
        &catalog,
    )
    .unwrap();
    let explain = session.explain(&q).unwrap();
    let best_measured = session
        .execute(&explain.best().expr)
        .unwrap()
        .cost_model_accesses();
    let worst = explain.candidates.last().unwrap();
    let worst_measured = session.execute(&worst.expr).unwrap().cost_model_accesses();
    assert!(
        best_measured <= worst_measured,
        "best {best_measured} vs worst {worst_measured}"
    );
}

#[test]
fn bibliography_sql_round_trip() {
    let bib = Bibliography::generate(BibConfig {
        authors: 50,
        conferences: 8,
        db_conferences: 3,
        featured: 2,
        editions_per_conf: 4,
        papers_per_edition: 6,
        seed: 9,
        ..BibConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&bib.site);
    let catalog = bibliography_catalog();
    let source = LiveSource::for_site(&bib.site);
    let session = QuerySession::new(&bib.site.scheme, &catalog, &stats, &source);
    let q = parse_query(
        "SELECT Editors FROM ConfEdition WHERE ConfName = 'VLDB' AND Year = 1995",
        &catalog,
    )
    .unwrap();
    let outcome = session.run(&q).unwrap();
    assert_eq!(outcome.report.relation.len(), 1);
    assert_eq!(
        outcome.report.relation.rows()[0][0].as_text().unwrap(),
        bib.expected_editors(0, 1995)
    );
    // redundancy exploited: no edition page fetched
    assert!(outcome.measured_pages() <= 3);
}

#[test]
fn incomplete_navigations_excluded_by_default() {
    // AuthorPub has two designer-declared incomplete navigations (via the
    // database-conference list and the featured links). Unless explicitly
    // allowed, no candidate plan may use them — they would silently drop
    // answers for non-database conferences.
    let bib = Bibliography::generate(BibConfig {
        authors: 40,
        conferences: 6,
        db_conferences: 2,
        featured: 1,
        editions_per_conf: 3,
        papers_per_edition: 5,
        seed: 77,
        ..BibConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&bib.site);
    let catalog = bibliography_catalog();
    let source = LiveSource::for_site(&bib.site);
    // a query about a NON-database conference (index ≥ db_conferences)
    let q = ConjunctiveQuery::new("icde authors")
        .atom("AuthorPub")
        .select((0, "ConfName"), "ICDE")
        .select((0, "Year"), "1997")
        .project((0, "AName"));

    let strict = QuerySession::new(&bib.site.scheme, &catalog, &stats, &source);
    let explain = strict.explain(&q).unwrap();
    for c in &explain.candidates {
        let t = nalg::display::tree(&c.expr);
        assert!(
            !t.contains("DBConfListPage") && !t.contains("Featured"),
            "incomplete navigation leaked into a default plan:\n{t}"
        );
    }
    // and the strict answer is complete (ICDE is NOT in the DB list here,
    // conference names order: VLDB, SIGMOD | PODS, ICDE, …)
    let outcome = strict.run(&q).unwrap();
    assert!(!outcome.report.relation.is_empty());

    // with incomplete navigations allowed, the optimizer may choose the
    // cheaper subset path — which would be WRONG for this query; the
    // designer enables them only for queries inside their coverage.
    let lax =
        QuerySession::new(&bib.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
            incomplete_navigations: true,
            ..Default::default()
        });
    let lax_outcome = lax.run(&q).unwrap();
    assert!(
        lax_outcome.report.relation.len() <= outcome.report.relation.len(),
        "subset path cannot return more answers"
    );
}

#[test]
fn evaluation_uses_real_http_and_wrapping() {
    // The whole pipeline goes through the virtual server: the GET counter
    // must match the evaluator's download count.
    let u = university();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    u.site.server.reset_stats();
    let q = parse_query("SELECT PName FROM Professor WHERE Rank = 'Full'", &catalog).unwrap();
    let outcome = session.run(&q).unwrap();
    assert_eq!(u.site.server.stats().gets, outcome.downloads());
    assert!(outcome.downloads() > 0);
}
