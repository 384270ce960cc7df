//! Rewrite soundness: every candidate plan the optimizer enumerates for a
//! query computes the same answer *values* when executed against the live
//! site. (Plans may disagree on result column *names* — rule 7 rewrites
//! projections onto replicated anchors — but never on the values.) Drawn
//! sites and queries are the facade's seeded simulation, `tests/sim.rs`.

use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
use wvcore::views::{bibliography_catalog, university_catalog};
use wvcore::{ConjunctiveQuery, LiveSource, QuerySession, SiteStatistics};

fn workload() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::new("full professors")
            .atom("Professor")
            .select((0, "Rank"), "Full")
            .project((0, "PName")),
        ConjunctiveQuery::new("cs profs")
            .atom("Professor")
            .atom("ProfDept")
            .join((0, "PName"), (1, "PName"))
            .select((1, "DName"), "Computer Science")
            .project((0, "PName"))
            .project((0, "Rank")),
        ConjunctiveQuery::new("example 7.1")
            .atom("Professor")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "PName"), (1, "PName"))
            .join((1, "CName"), (2, "CName"))
            .select((0, "Rank"), "Full")
            .select((2, "Session"), "Fall")
            .project((2, "CName")),
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
            .project((2, "PName")),
        ConjunctiveQuery::new("teachers of winter courses")
            .atom("CourseInstructor")
            .atom("Course")
            .join((0, "CName"), (1, "CName"))
            .select((1, "Session"), "Winter")
            .project((0, "PName")),
    ]
}

/// Every candidate plan for `q` answers the same values.
fn assert_candidates_agree<S: nalg::PageSource>(
    session: &QuerySession<'_, S>,
    q: &ConjunctiveQuery,
) {
    let explain = session.explain(q).unwrap();
    assert!(!explain.candidates.is_empty(), "{}: no candidates", q.name);
    let mut reference: Option<std::collections::BTreeSet<Vec<String>>> = None;
    for (i, cand) in explain.candidates.iter().enumerate() {
        let report = session.execute(&cand.expr).unwrap();
        let answer: std::collections::BTreeSet<Vec<String>> = report
            .relation
            .rows()
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        match &reference {
            None => reference = Some(answer),
            Some(r) => assert_eq!(
                &answer,
                r,
                "{}: candidate {i} disagrees\n{}",
                q.name,
                nalg::display::tree(&cand.expr)
            ),
        }
    }
}

#[test]
fn every_candidate_plan_computes_the_same_answer() {
    let u = University::generate(UniversityConfig {
        departments: 3,
        professors: 12,
        courses: 24,
        seed: 99,
        ..UniversityConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    for q in workload() {
        assert_candidates_agree(&session, &q);
    }
}

/// An unnest can drop a row: `R ∘ A` has none for a page whose `A` is
/// empty, so a plan may not prune an unnest it does not read. On this
/// site some author has no paper; pruning the author-first navigation's
/// `µ PubList` answered that author for `π AName (AuthorPub)`.
#[test]
fn an_author_without_a_paper_is_in_no_candidates_answer() {
    let b = Bibliography::generate(BibConfig {
        authors: 14,
        conferences: 3,
        db_conferences: 2,
        featured: 1,
        editions_per_conf: 2,
        papers_per_edition: 3,
        seed: 7009,
        ..BibConfig::default()
    })
    .unwrap();
    let no_paper =
        |t: &adm::Tuple| matches!(t.get("PubList"), Some(adm::Value::List(l)) if l.is_empty());
    assert!(b.site.pages("AuthorPage").any(|(_, t)| no_paper(t)));
    let stats = SiteStatistics::from_site(&b.site);
    let catalog = bibliography_catalog();
    let source = LiveSource::for_site(&b.site);
    let session = QuerySession::new(&b.site.scheme, &catalog, &stats, &source);
    let q = ConjunctiveQuery::new("authors")
        .atom("AuthorPub")
        .project((0, "AName"));
    assert_candidates_agree(&session, &q);
}

#[test]
fn candidate_plans_are_deterministic() {
    // the optimizer must be a pure function of (query, scheme, stats)
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    for q in workload() {
        let a = session.explain(&q).unwrap();
        let b = session.explain(&q).unwrap();
        assert_eq!(a.candidates.len(), b.candidates.len(), "{}", q.name);
        for (x, y) in a.candidates.iter().zip(b.candidates.iter()) {
            assert_eq!(x.expr, y.expr, "{}", q.name);
        }
    }
}
