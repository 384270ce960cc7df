//! The introduction's bibliography example: four ways to find "all authors
//! who had papers in the last three VLDB conferences", with wildly
//! different page-access costs — plus the "editors of VLDB '96" redundancy
//! example (the answer is replicated on the conference page, so the
//! edition page need not be fetched at all).
//!
//! ```sh
//! cargo run --example bibliography
//! ```

use webviews::nalg::display;
use webviews::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small author population and thick editions so the three-edition
    // intersection is non-empty (the real Trier site had >16,000 authors —
    // the harness sweeps that scale).
    let bib = Bibliography::generate(BibConfig {
        authors: 80,
        papers_per_edition: 25,
        ..BibConfig::default()
    })?;
    println!(
        "bibliography site: {} pages, {} authors\n",
        bib.site.total_pages(),
        bib.author_count()
    );
    let stats = SiteStatistics::from_site(&bib.site);
    let catalog = bibliography_catalog();
    let source = LiveSource::for_site(&bib.site);

    // ── the intro query, via the optimizer ────────────────────────────
    // "authors with papers in each of the last three VLDB conferences":
    // three AuthorPub atoms joined on AName. The catalog carries all four
    // navigation strategies; incomplete ones (database-conference list,
    // featured links) are enabled explicitly, as the paper's site designer
    // would for VLDB queries.
    let years = bib.last_three_years();
    let mut q = ConjunctiveQuery::new("authors in last three VLDBs");
    for (i, y) in years.iter().enumerate() {
        q = q
            .atom("AuthorPub")
            .select((i, "ConfName"), "VLDB")
            .select((i, "Year"), y.to_string());
    }
    q = q
        .join((0, "AName"), (1, "AName"))
        .join((1, "AName"), (2, "AName"))
        .project((0, "AName"));

    let session =
        QuerySession::new(&bib.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
            incomplete_navigations: true,
            ..Default::default()
        });
    let outcome = session.run(&q)?;
    println!(
        "optimizer chose (estimated {:.1} pages, measured {}):\n{}",
        outcome.estimated_pages(),
        outcome.measured_pages(),
        display::tree(&outcome.explain.best().expr)
    );
    let mut answer: Vec<String> = outcome
        .report
        .relation
        .rows()
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    answer.sort();
    println!("answer ({} authors): {answer:?}", answer.len());
    assert_eq!(answer, bib.expected_authors_last3_vldb());

    // ── the four strategies, spelled out and measured ──────────────────
    println!("\nthe four strategies of the paper's introduction:");
    let edition_branch = |entry: NalgExpr| {
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
                Some(acc) => {
                    let k = i;
                    acc.join(
                        branch,
                        vec![(
                            format!("Ed{}.PaperList.Authors.AName", k - 1),
                            format!("Ed{k}.PaperList.Authors.AName"),
                        )],
                    )
                }
            });
        }
        joined
            .unwrap()
            .project(vec!["Ed0.PaperList.Authors.AName".to_string()])
    };

    let strategies: Vec<(&str, NalgExpr)> = vec![
        (
            "S1: home → all conferences → VLDB → editions",
            edition_branch(
                NalgExpr::entry("BibHomePage")
                    .follow("ToConfList", "ConfListPage")
                    .unnest("ConfList"),
            ),
        ),
        (
            "S2: home → database conferences (smaller page) → VLDB → editions",
            edition_branch(
                NalgExpr::entry("BibHomePage")
                    .follow("ToDBConfList", "DBConfListPage")
                    .unnest("ConfList"),
            ),
        ),
        (
            "S3: home → VLDB directly (featured link) → editions",
            edition_branch(NalgExpr::entry("BibHomePage").unnest("Featured")),
        ),
        ("S4: home → author list → EVERY author page", {
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
            joined.unwrap().project(vec!["A0.AName".to_string()])
        }),
    ];

    let evaluator_scheme = &bib.site.scheme;
    for (name, plan) in strategies {
        bib.site.server.reset_stats();
        let report = nalg::Evaluator::new(evaluator_scheme, &source).eval(&plan)?;
        let snap = bib.site.server.stats();
        println!(
            "  {name}\n     cost-model accesses: {:>6}   downloads: {:>6}   bytes: {:>9}   rows: {}",
            report.cost_model_accesses(),
            report.page_accesses,
            snap.bytes,
            report.relation.len()
        );
    }

    // ── editors of VLDB '96: rule 5/7 prune the edition navigation ─────
    println!("\neditors of VLDB 1996 (redundancy exploitation):");
    let q = parse_query(
        "SELECT Editors FROM ConfEdition WHERE ConfName = 'VLDB' AND Year = 1996",
        &catalog,
    )?;
    bib.site.server.reset_stats();
    let session = QuerySession::new(&bib.site.scheme, &catalog, &stats, &source);
    let outcome = session.run(&q)?;
    println!("{}", display::tree(&outcome.explain.best().expr));
    println!(
        "measured {} page accesses (the edition page is never fetched)",
        outcome.measured_pages()
    );
    println!("answer:\n{}", outcome.report.relation.to_table());
    assert_eq!(
        outcome.report.relation.rows()[0][0].as_text().unwrap(),
        bib.expected_editors(0, 1996)
    );
    Ok(())
}
