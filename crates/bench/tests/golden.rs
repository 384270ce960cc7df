//! The paper's tables as tests: every experiment of [`bench::EXPERIMENTS`],
//! rendered by the harness's own functions at the harness's own scale,
//! compared byte for byte against a file committed under `tests/golden/` —
//! a table as `<id>.md`, in the markdown form EXPERIMENTS.md quotes, and
//! F1's schemes and E7's plans as `<id>.txt`. Every `.md` golden must also
//! appear verbatim in EXPERIMENTS.md between `<!-- golden:<id> -->` and
//! `<!-- /golden -->`, so the document cannot drift from the code.
//!
//! To regenerate the goldens and the blocks EXPERIMENTS.md quotes them in,
//! after a *deliberate* change of a table (then re-read the prose around
//! every block that moved):
//!
//! ```sh
//! cargo test -p bench --test golden -- --ignored bless
//! ```

use bench::EXPERIMENTS;
use std::ops::Range;
use std::path::PathBuf;

/// A marker opens a line; the text names it inline too.
const OPEN: &str = "\n<!-- golden:";
const CLOSE: &str = "\n<!-- /golden -->";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn experiments_md() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md")
}

/// Every experiment's golden, as `(file name, content)`.
fn goldens() -> Vec<(String, String)> {
    EXPERIMENTS
        .iter()
        .map(|(id, render)| {
            let out = render();
            let ext = if out.table.is_some() { "md" } else { "txt" };
            (format!("{id}.{ext}"), out.golden())
        })
        .collect()
}

/// The marker blocks of `doc`, as `(file name of the golden it quotes,
/// byte range of its content)`, in document order.
fn quoted_blocks(doc: &str) -> Vec<(String, Range<usize>)> {
    let mut blocks = Vec::new();
    let mut at = 0;
    while let Some(open) = doc[at..].find(OPEN) {
        let id_start = at + open + OPEN.len();
        let id_end = id_start + doc[id_start..].find(" -->\n").expect("marker closes");
        let start = id_end + " -->\n".len();
        let end = start + doc[start..].find(CLOSE).expect("block ends") + 1;
        blocks.push((format!("{}.md", &doc[id_start..id_end]), start..end));
        at = end + CLOSE.len();
    }
    blocks
}

#[test]
fn experiments_match_golden_files() {
    let goldens = goldens();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = goldens.iter().map(|(n, _)| n.clone()).collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "golden file set differs from EXPERIMENTS"
    );
    for (name, got) in goldens {
        let path = golden_dir().join(&name);
        let want = std::fs::read_to_string(&path).unwrap();
        assert!(
            got == want,
            "{name}: the experiment differs from {}\n--- got ---\n{got}\n--- want ---\n{want}",
            path.display()
        );
    }
}

#[test]
fn experiments_md_quotes_every_table_golden() {
    let doc = std::fs::read_to_string(experiments_md()).unwrap();
    let mut quoted: Vec<(String, &str)> = quoted_blocks(&doc)
        .into_iter()
        .map(|(name, range)| (name, &doc[range]))
        .collect();
    quoted.sort();
    let mut tables: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("tests/golden exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".md"))
        .collect();
    tables.sort();
    let names: Vec<&String> = quoted.iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        tables.iter().collect::<Vec<_>>(),
        "EXPERIMENTS.md quotes a different set of tables than tests/golden holds"
    );
    for (name, block) in quoted {
        let want = std::fs::read_to_string(golden_dir().join(&name)).unwrap();
        assert!(
            block == want,
            "EXPERIMENTS.md's {name} block differs from the golden\n--- document ---\n{block}\n--- golden ---\n{want}"
        );
    }
}

/// Rewrites the goldens and EXPERIMENTS.md's blocks (see module docs).
#[test]
#[ignore = "regenerates tests/golden and EXPERIMENTS.md; run only after a deliberate change"]
fn bless() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    let goldens = goldens();
    for (name, text) in &goldens {
        std::fs::write(golden_dir().join(name), text).unwrap();
    }
    let mut doc = std::fs::read_to_string(experiments_md()).unwrap();
    for (name, range) in quoted_blocks(&doc).into_iter().rev() {
        if let Some((_, text)) = goldens.iter().find(|(n, _)| *n == name) {
            doc.replace_range(range, text);
        }
    }
    std::fs::write(experiments_md(), doc).unwrap();
}
