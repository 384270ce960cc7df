//! Memory proportional to what is held: a process that keeps maintaining
//! views while its site changes, or keeps serving queries with constants
//! it never saw before, holds no string past the evaluation that read it.
//!
//! Names (schemes, fields, the columns an evaluation qualifies them into)
//! are process-wide symbols, met once; a text or link value is a code in
//! its evaluation's own dictionary, freed with the evaluation's last
//! relation. So after a warm-up, N rounds and then 10·N more read the
//! same interner counts, and no value dictionary is left alive.
//!
//! The counters are process-wide: this binary holds this one test.

use webviews::adm::intern::{interned_bytes, interned_count, live_dicts};
use webviews::prelude::*;

/// Rounds (and constants) of the short stage; the long one runs 10·N.
const N: u64 = 12;

/// What the process holds by the interner's and dictionaries' counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    names: usize,
    name_bytes: usize,
    dicts: usize,
}

fn held() -> Held {
    Held {
        names: interned_count(),
        name_bytes: interned_bytes(),
        dicts: live_dicts(),
    }
}

#[test]
fn edits_and_fresh_constants_leave_no_string_behind() {
    let mut uni = University::generate(UniversityConfig {
        departments: 3,
        professors: 9,
        courses: 18,
        seed: 47,
        ..UniversityConfig::default()
    })
    .unwrap();
    let ws = uni.site.scheme.clone();
    let catalog = university_catalog();
    let stats = SiteStatistics::from_site(&uni.site);

    let mut views = IncrementalView::new(&ws);
    views.materialize(&uni.site.server).unwrap();
    views.set_cursor(uni.site.change_cursor());
    let profs = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .project(vec!["ProfPage.PName", "ProfPage.Rank"]);
    views
        .register("profs", "profs", &profs, &uni.site.server)
        .unwrap();
    let mut store = MatStore::new();
    store.materialize(&ws, &uni.site.server).unwrap();
    // Every round edits a few pages: each edit is a string no page held.
    let plan = MutationPlan::new(7)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.5))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.3))
        .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.2));
    let queries = [
        ConjunctiveQuery::new("grad")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName")),
        ConjunctiveQuery::new("ranks")
            .atom("Professor")
            .project((0, "PName"))
            .project((0, "Rank")),
    ];
    let mut next = 0u64;
    let mut rounds = |n: u64| {
        for _ in 0..n {
            plan.apply_round(&mut uni.site, next).unwrap();
            let report = views.sync(&uni.site).unwrap();
            assert!(report.failed.is_empty(), "round {next}: {report:?}");
            let session = MatSession::new(&ws, &catalog, &stats, &uni.site.server);
            let q = &queries[next as usize % queries.len()];
            assert!(session.run(&mut store, q).unwrap().is_complete());
            next += 1;
        }
        assert!(views.answer("profs").is_some());
        held()
    };
    // A warm-up meets every name the rounds use.
    rounds(queries.len() as u64);
    let short = rounds(N);
    let long = rounds(10 * N);
    assert_eq!(short, long, "after {N} rounds, then {} more", 10 * N);
    assert_eq!(long.dicts, 0, "a value dictionary outlived its evaluation");

    // Constants no page holds, each a plan of its own: the server plans
    // and runs every one, and forgets its strings with its answer.
    let source = LiveSource::for_site(&uni.site);
    let server = QueryServer::new(&ws, &catalog, &stats, &source);
    let mut fresh = 0u64;
    let mut serve = |n: u64| {
        for _ in 0..n {
            let q = ConjunctiveQuery::new("who")
                .atom("Professor")
                .select((0, "PName"), format!("nobody-{fresh}"))
                .project((0, "Rank"));
            let out = server.serve(&q).unwrap();
            assert_eq!(out.relation().map(Relation::len), Some(0));
            fresh += 1;
        }
        held()
    };
    serve(1);
    let short = serve(N);
    let long = serve(10 * N);
    assert_eq!(short, long, "after {N} constants, then {} more", 10 * N);
    assert_eq!(long.dicts, 0, "a value dictionary outlived its evaluation");
}
