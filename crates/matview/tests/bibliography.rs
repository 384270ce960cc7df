//! Materialized views over the second (bibliography) site — the matview
//! machinery is scheme-agnostic.

use matview::{MatSession, MatStore};
use websim::sitegen::{BibConfig, Bibliography};
use wvcore::views::bibliography_catalog;
use wvcore::{ConjunctiveQuery, SiteStatistics};

#[test]
fn editors_query_over_materialized_bibliography() {
    let bib = Bibliography::generate(BibConfig {
        authors: 40,
        conferences: 6,
        db_conferences: 2,
        featured: 1,
        editions_per_conf: 4,
        papers_per_edition: 5,
        seed: 61,
        ..BibConfig::default()
    })
    .unwrap();
    let stats = SiteStatistics::from_site(&bib.site);
    let catalog = bibliography_catalog();
    let mut store = MatStore::new();
    store
        .materialize(&bib.site.scheme, &bib.site.server)
        .unwrap();
    bib.site.server.reset_stats();

    let q = ConjunctiveQuery::new("editors")
        .atom("ConfEdition")
        .select((0, "ConfName"), "VLDB")
        .select((0, "Year"), "1996")
        .project((0, "Editors"));
    let session = MatSession::new(&bib.site.scheme, &catalog, &stats, &bib.site.server);
    let out = session.run(&mut store, &q).unwrap();
    assert_eq!(out.counters.downloads, 0);
    // the pruned 3-page plan needs only 3 light connections
    assert!(
        out.counters.light_connections <= 3,
        "{}",
        out.counters.light_connections
    );
    assert_eq!(
        out.relation.rows()[0][0].as_text().unwrap(),
        bib.expected_editors(0, 1996)
    );
}

#[test]
fn nested_author_lists_survive_store_round_trip() {
    let bib = Bibliography::generate(BibConfig {
        authors: 25,
        conferences: 3,
        db_conferences: 1,
        featured: 1,
        editions_per_conf: 2,
        papers_per_edition: 4,
        seed: 7,
        ..BibConfig::default()
    })
    .unwrap();
    let mut store = MatStore::new();
    store
        .materialize(&bib.site.scheme, &bib.site.server)
        .unwrap();
    // every edition page's doubly-nested tuple is stored intact
    for (url, truth) in bib.site.instance("EditionPage") {
        assert_eq!(*store.get(&url).unwrap().tuple, truth);
    }
}
