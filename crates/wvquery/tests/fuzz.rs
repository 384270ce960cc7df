//! Robustness: the SQL front end must never panic, whatever bytes arrive —
//! arbitrary garbage, token soup, every prefix of a real query. A bad query
//! is a `ParseError`, never a crash.

use proptest::prelude::*;
use wvcore::views::{bibliography_catalog, university_catalog};
use wvcore::ViewCatalog;
use wvquery::lexer::tokenize;
use wvquery::parse_query;

/// Queries that parse, over both catalogs, covering every token kind:
/// qualifiers, aliases, `*`, `DISTINCT`, both quotes, doubled quotes,
/// integers and decimals.
const REAL: &[&str] = &[
    "SELECT PName FROM Professor WHERE Rank = 'Full'",
    "SELECT DISTINCT p.PName, c.CName FROM Professor p, CourseInstructor c WHERE p.PName = c.PName",
    "select * from Dept where DName = \"Computer Science\"",
    "SELECT PName FROM Professor WHERE Rank = 'it''s'",
    "SELECT Editors FROM ConfEdition WHERE ConfName = 'VLDB' AND Year = 1996",
    "SELECT Editors FROM ConfEdition WHERE Year = 1996.5",
];

/// SQL-shaped fragments for token soup: keywords, punctuation, literals
/// cut at every awkward place, identifiers, and a few non-ASCII bytes.
const FRAGMENTS: &[&str] = &[
    "SELECT",
    "DISTINCT",
    "FROM",
    "WHERE",
    "AND",
    "AS",
    ",",
    ".",
    "=",
    "*",
    "'",
    "\"",
    "''",
    "1",
    "1996",
    "1.",
    ".5",
    "PName",
    "Professor",
    "p",
    "Rank",
    "'Full'",
    " ",
    "é",
    "\u{0}",
    ";",
];

fn catalogs() -> [ViewCatalog; 2] {
    [university_catalog(), bibliography_catalog()]
}

fn parse_everywhere(input: &str) {
    let _ = tokenize(input);
    for catalog in &catalogs() {
        let _ = parse_query(input, catalog);
    }
}

#[test]
fn the_real_queries_parse() {
    for (i, q) in REAL.iter().enumerate() {
        let catalog = if i < 4 {
            university_catalog()
        } else {
            bibliography_catalog()
        };
        assert!(parse_query(q, &catalog).is_ok(), "{q}");
    }
}

#[test]
fn every_prefix_of_a_real_query_never_panics() {
    for q in REAL {
        for cut in (0..=q.len()).filter(|&c| q.is_char_boundary(c)) {
            parse_everywhere(&q[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        parse_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn sql_token_soup_never_panics(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..24),
    ) {
        let soup: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        parse_everywhere(&soup);
    }

    #[test]
    fn damaged_real_queries_never_panic(
        which in 0usize..REAL.len(),
        at in 0usize..256,
        byte in 0u8..=255,
    ) {
        // overwrite one byte of a real query
        let mut bytes = REAL[which].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        parse_everywhere(&String::from_utf8_lossy(&bytes));
    }
}
