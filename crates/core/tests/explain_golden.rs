//! Golden `Explain` pin: the optimizer's full output — every candidate, in
//! order, with its estimate, plan tree and constraint provenance — for a
//! fixed set of queries, compared byte for byte against files generated
//! once and committed under `tests/golden/`.
//!
//! A change to the optimizer's internals must leave these files alone. To
//! regenerate them after a *deliberate* change of plans or estimates:
//!
//! ```sh
//! cargo test -p wv-core --test explain_golden -- --ignored bless
//! ```

use nalg::EvalPolicy;
use obs::trace::TraceSink;
use std::path::PathBuf;
use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
use wvcore::views::{bibliography_catalog, university_catalog};
use wvcore::{
    ConjunctiveQuery, ConstraintHealth, ExecPolicy, Explain, Optimizer, RuleMask, SiteStatistics,
};

/// The four `adhoc_plan` templates of the perf ledger (A1–A4), with one
/// constant each from the default site's ground truth.
fn adhoc_templates(u: &University) -> Vec<(&'static str, ConjunctiveQuery)> {
    let course = u.expected_course()[0].0.clone();
    let prof = u.expected_professor()[0].0.clone();
    let dept = u.expected_dept()[0].0.clone();
    vec![
        (
            "a1",
            ConjunctiveQuery::new("a1")
                .atom("Course")
                .select((0, "CName"), course.clone())
                .project((0, "CName"))
                .project((0, "Description")),
        ),
        (
            "a2",
            ConjunctiveQuery::new("a2")
                .atom("Professor")
                .atom("ProfDept")
                .join((0, "PName"), (1, "PName"))
                .select((0, "PName"), prof.clone())
                .project((0, "PName"))
                .project((0, "Email"))
                .project((1, "DName")),
        ),
        (
            "a3",
            ConjunctiveQuery::new("a3")
                .atom("Professor")
                .atom("CourseInstructor")
                .atom("Course")
                .join((0, "PName"), (1, "PName"))
                .join((1, "CName"), (2, "CName"))
                .select((0, "PName"), prof)
                .select((2, "Session"), "Fall")
                .project((2, "CName"))
                .project((2, "Description")),
        ),
        (
            "a4",
            ConjunctiveQuery::new("a4")
                .atom("Course")
                .atom("CourseInstructor")
                .atom("Professor")
                .atom("ProfDept")
                .join((0, "CName"), (1, "CName"))
                .join((1, "PName"), (2, "PName"))
                .join((2, "PName"), (3, "PName"))
                .select((3, "DName"), dept)
                .select((0, "CName"), course)
                .project((2, "PName"))
                .project((2, "Email")),
        ),
    ]
}

fn example_71() -> ConjunctiveQuery {
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

fn example_72() -> ConjunctiveQuery {
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

fn cs_professors() -> ConjunctiveQuery {
    ConjunctiveQuery::new("CS professors")
        .atom("Professor")
        .atom("ProfDept")
        .join((0, "PName"), (1, "PName"))
        .select((1, "DName"), "Computer Science")
        .project((0, "PName"))
        .project((0, "Email"))
}

/// The seven university queries of experiments E4/E6.
fn university_workload() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        (
            "full_professors",
            ConjunctiveQuery::new("full professors")
                .atom("Professor")
                .select((0, "Rank"), "Full")
                .project((0, "PName")),
        ),
        ("cs_professors", cs_professors()),
        ("example_71", example_71()),
        ("example_72", example_72()),
        (
            "fall_graduate_courses",
            ConjunctiveQuery::new("fall graduate courses")
                .atom("Course")
                .select((0, "Session"), "Fall")
                .select((0, "Type"), "Graduate")
                .project((0, "CName"))
                .project((0, "Description")),
        ),
        (
            "who_teaches_what",
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

/// The bibliography queries of experiment E4 (the introduction's site).
fn bibliography_workload() -> Vec<(&'static str, ConjunctiveQuery)> {
    vec![
        (
            "editors_of_vldb_1996",
            ConjunctiveQuery::new("editors of VLDB 1996")
                .atom("ConfEdition")
                .select((0, "ConfName"), "VLDB")
                .select((0, "Year"), "1996")
                .project((0, "Editors")),
        ),
        (
            "all_conferences",
            ConjunctiveQuery::new("all conferences")
                .atom("Conference")
                .project((0, "ConfName")),
        ),
        (
            "sigmod_1997_papers",
            ConjunctiveQuery::new("SIGMOD 1997 papers")
                .atom("Paper")
                .select((0, "ConfName"), "SIGMOD")
                .select((0, "Year"), "1997")
                .project((0, "Title")),
        ),
    ]
}

/// Reports longer than this are pinned in digest form (see [`render`]).
const FULL_TEXT_LIMIT: usize = 8 * 1024;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `Explain::report()` plus one line per candidate with what the report
/// rounds or leaves out: the estimate's exact `f64`s, a hash of its
/// per-operator and per-node breakdown, and the sorted dependency keys. A
/// long report (dozens of candidates) keeps only those lines, with the plan
/// tree's text and the keys hashed, so the golden files stay reviewable.
fn render(explain: &Explain) -> String {
    let exact = |c: &wvcore::CandidatePlan| {
        format!(
            "pages {:?} bytes {:?} card {:?} breakdown {:016x}",
            c.estimate.cost.pages,
            c.estimate.cost.bytes,
            c.estimate.card,
            fnv1a(&format!(
                "{:?}{:?}",
                c.estimate.per_operator, c.estimate.nodes
            ))
        )
    };
    let keys = |c: &wvcore::CandidatePlan| {
        let mut keys: Vec<String> = c.dependencies.iter().map(|d| d.key()).collect();
        keys.sort();
        keys.join(" | ")
    };
    let mut out = explain.report();
    out.push_str("exact estimates and dependency keys:\n");
    for (i, c) in explain.candidates.iter().enumerate() {
        out.push_str(&format!("  plan {i}: {} [{}]\n", exact(c), keys(c)));
    }
    if out.len() <= FULL_TEXT_LIMIT {
        return out;
    }
    let mut out = format!(
        "query: {}\n{} candidate plan(s), digest form, report hash {:016x}:\n",
        explain.query,
        explain.candidates.len(),
        fnv1a(&out)
    );
    for (i, c) in explain.candidates.iter().enumerate() {
        out.push_str(&format!(
            "plan {i}: tree {:016x} {} deps {} {:016x}\n",
            fnv1a(&nalg::display::tree(&c.expr)),
            exact(c),
            c.dependencies.len(),
            fnv1a(&keys(c))
        ));
    }
    out
}

/// A trace as one line per event: parent, name and fields. Ids and
/// sequence numbers follow from the order, which the lines keep.
fn render_trace(sink: &TraceSink) -> String {
    let mut out = String::new();
    for e in sink.events() {
        out.push_str(&format!("{:?} {}", e.parent, e.name));
        for (k, v) in &e.fields {
            out.push_str(&format!(" {k}={v:?}"));
        }
        out.push('\n');
    }
    out
}

/// Every pinned run, as `(file stem, rendered output)`.
fn cases() -> Vec<(String, String)> {
    let u = University::generate(UniversityConfig::default()).unwrap();
    let ws = &u.site.scheme;
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let mut out = Vec::new();
    let optimize = |q: &ConjunctiveQuery, mask: RuleMask| {
        render(
            &Optimizer::new(ws, &catalog, &stats)
                .with_policy(&ExecPolicy {
                    mask,
                    ..Default::default()
                })
                .optimize(q)
                .unwrap(),
        )
    };
    for (name, q) in adhoc_templates(&u) {
        out.push((format!("adhoc_{name}"), optimize(&q, RuleMask::all())));
    }
    for (name, q) in university_workload() {
        out.push((format!("uni_{name}"), optimize(&q, RuleMask::all())));
    }
    // Ablations, on the two paper examples.
    let single_rule_off = [
        (
            "no_merge_repeated",
            RuleMask {
                merge_repeated: false,
                ..RuleMask::all()
            },
        ),
        ("no_pointer_join", RuleMask::all().without_pointer_join()),
        ("no_pointer_chase", RuleMask::all().without_pointer_chase()),
        (
            "no_push_selections",
            RuleMask::all().without_selection_pushing(),
        ),
        ("no_prune", RuleMask::all().without_pruning()),
        ("none", RuleMask::none()),
    ];
    for (mask_name, mask) in single_rule_off {
        for (q_name, q) in [("example_71", example_71()), ("example_72", example_72())] {
            out.push((format!("mask_{mask_name}_{q_name}"), optimize(&q, mask)));
        }
    }
    // One run with the winning plan's constraints quarantined.
    let q = cs_professors();
    let trusted = Optimizer::new(ws, &catalog, &stats).optimize(&q).unwrap();
    let health = ConstraintHealth::new();
    for d in trusted.best().dependencies.iter() {
        health.record(&d.key(), 1, 1);
    }
    let guarded = Optimizer::new(ws, &catalog, &stats)
        .with_policy(&ExecPolicy {
            health: Some(&health),
            ..Default::default()
        })
        .optimize(&q)
        .unwrap();
    out.push(("quarantined_cs_professors".to_string(), render(&guarded)));
    // Traced runs: the rule events and the summary are part of the contract.
    for (name, q) in [
        ("example_72", example_72()),
        ("adhoc_a3", adhoc_templates(&u).remove(2).1),
    ] {
        let sink = TraceSink::with_seed(11);
        let traced = Optimizer::new(ws, &catalog, &stats)
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    trace: Some((sink.clone(), None)),
                    ..Default::default()
                },
                ..Default::default()
            })
            .optimize(&q)
            .unwrap();
        assert_eq!(render(&traced), optimize(&q, RuleMask::all()));
        out.push((format!("trace_{name}"), render_trace(&sink)));
    }
    // The bibliography site, with and without incomplete navigations.
    let bib = Bibliography::generate(BibConfig::default()).unwrap();
    let bib_stats = SiteStatistics::from_site(&bib.site);
    let bib_catalog = bibliography_catalog();
    for (name, q) in bibliography_workload() {
        let strict = Optimizer::new(&bib.site.scheme, &bib_catalog, &bib_stats);
        out.push((format!("bib_{name}"), render(&strict.optimize(&q).unwrap())));
        let lax =
            Optimizer::new(&bib.site.scheme, &bib_catalog, &bib_stats).with_policy(&ExecPolicy {
                incomplete_navigations: true,
                ..Default::default()
            });
        out.push((
            format!("bib_incomplete_{name}"),
            render(&lax.optimize(&q).unwrap()),
        ));
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn explain_matches_golden_files() {
    let cases = cases();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = cases.iter().map(|(n, _)| format!("{n}.txt")).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "golden file set differs from the cases");
    for (name, got) in cases {
        let path = golden_dir().join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path).unwrap();
        assert!(
            got == want,
            "{name}: Explain differs from {}\n--- got ---\n{got}\n--- want ---\n{want}",
            path.display()
        );
    }
}

/// Rewrites the golden files from the current optimizer (see module docs).
#[test]
#[ignore = "regenerates tests/golden; run only after a deliberate plan change"]
fn bless() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for (name, text) in cases() {
        std::fs::write(golden_dir().join(format!("{name}.txt")), text).unwrap();
    }
}
