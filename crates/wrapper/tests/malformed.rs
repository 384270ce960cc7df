//! Regression tests: malformed HTML must surface as `WrapError`, never as
//! a panic. Complements the proptest suite in `fuzz.rs` with deterministic
//! cases — every truncation point of a real generated page, systematic
//! character garbling, and the specific inputs that used to reach
//! `expect()` calls in the lexer and DOM builder.

use adm::{Field, PageScheme, Tuple, Value};
use websim::page::render_page;
use wrapper::{dom::Document, error::WrapError, lexer::tokenize, wrap_page, Element, Node};

fn scheme() -> PageScheme {
    PageScheme::new(
        "DeptPage",
        vec![
            Field::text("DName"),
            Field::text("Address"),
            Field::list(
                "ProfList",
                vec![Field::text("PName"), Field::link("ToProf", "DeptPage")],
            ),
        ],
    )
    .unwrap()
}

fn sample_page() -> String {
    let t = Tuple::new()
        .with("DName", "Computer Science")
        .with("Address", "12 Main St & Annex")
        .with_list(
            "ProfList",
            vec![
                Tuple::new()
                    .with("PName", "Aña Müller")
                    .with("ToProf", Value::link("/prof/1.html")),
                Tuple::new()
                    .with("PName", "Bob <quoted>")
                    .with("ToProf", Value::link("/prof/2.html")),
            ],
        );
    render_page(&scheme(), &t, "Computer Science")
}

/// Every char-boundary prefix of a real page either wraps or returns a
/// structured error — the process must survive all of them.
#[test]
fn every_truncation_point_is_survivable() {
    let html = sample_page();
    let s = scheme();
    let mut errors = 0usize;
    for cut in (0..=html.len()).filter(|&c| html.is_char_boundary(c)) {
        match wrap_page(&s, &html[..cut]) {
            Ok(_) => {}
            Err(e) => {
                errors += 1;
                // the error formats without panicking too
                let _ = e.to_string();
            }
        }
    }
    // truncating mid-tag must produce at least some lex errors
    assert!(errors > 0, "no truncation produced an error");
    // and the untruncated page must wrap cleanly
    assert!(wrap_page(&s, &html).is_ok());
}

/// Deterministically garble the page — delete, duplicate, or substitute
/// one character at every position — and wrap each mutant.
#[test]
fn single_character_garbling_is_survivable() {
    let html = sample_page();
    let s = scheme();
    let chars: Vec<char> = html.chars().collect();
    for (i, _) in chars.iter().enumerate() {
        // deletion
        let deleted: String = chars
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| *c)
            .collect();
        let _ = wrap_page(&s, &deleted);
        // substitution with hostile characters
        for sub in ['<', '>', '&', '"', '\0', 'é'] {
            let mutated: String = chars
                .iter()
                .enumerate()
                .map(|(j, &c)| if j == i { sub } else { c })
                .collect();
            let _ = wrap_page(&s, &mutated);
        }
    }
}

/// The lexer inputs that exercise the former `expect("in-bounds char")`
/// path: entities abutting multi-byte characters and truncated entities.
#[test]
fn entity_edge_cases_lex_cleanly() {
    for input in [
        "é&amp;ß&#x110000;&",
        "&amp",
        "&;",
        "&#xD800;π",
        "x&nbsp;\u{1F600}&bogus;",
    ] {
        let toks = tokenize(input).unwrap();
        assert!(!toks.is_empty());
    }
}

/// The first element tagged `tag` among `nodes` and their descendants, in
/// document order (an explicit stack, like every walk of the arena).
fn find<'d>(nodes: impl Iterator<Item = Node<'d>>, tag: &str) -> Option<Element<'d>> {
    let mut stack: Vec<Node<'d>> = nodes.collect();
    stack.reverse();
    while let Some(node) = stack.pop() {
        if let Node::Element(e) = node {
            if e.tag() == tag {
                return Some(e);
            }
            let next = stack.len();
            stack.extend(e.children());
            stack[next..].reverse();
        }
    }
    None
}

/// The inputs that exercise the former DOM `expect()` pops: deep
/// auto-closing and interleaved mismatched close tags.
#[test]
fn mismatched_nesting_builds_a_tree() {
    let d = Document::parse("<a><b><c><d>deep</a>tail").unwrap();
    let a = find(d.roots(), "a").unwrap();
    // everything above <a> was auto-closed into it
    assert!(find(a.children(), "d").is_some());

    // interleaved closes: </i> closes nothing open at top, </b> auto-closes <i>
    let d = Document::parse("<b><i>x</b>y</i>z").unwrap();
    assert!(find(d.roots(), "b").is_some());

    // a stray close for a tag opened-and-closed twice
    let d = Document::parse("<p>a</p></p><p>b</p>").unwrap();
    assert_eq!(
        d.root_elements().filter(|e| e.tag() == "p").count(),
        2,
        "both paragraphs survive the stray close"
    );
}

/// Truncation inside a tag reports a lex error with a useful offset.
#[test]
fn truncated_tags_return_lex_errors() {
    for input in [
        "<div class=\"adm-page",
        "<div class='half",
        "<a href=\"x.html\" ",
        "<!-- dangling",
        "<!DOCTYPE html",
        "</div",
    ] {
        match tokenize(input) {
            Err(WrapError::Lex { offset, message }) => {
                assert!(offset <= input.len());
                assert!(!message.is_empty());
            }
            other => panic!("expected a lex error for {input:?}, got {other:?}"),
        }
    }
}

/// Nesting depth is input-controlled, and a fetch-pool worker has a 2 MB
/// stack: no walk may recurse once per level (parsing, searching, text
/// collection, dropping the document). The tree-of-vectors parser died
/// with a stack overflow at 50 000 levels.
#[test]
fn deeply_nested_page_is_an_error_not_an_abort() {
    let html = "<div>".repeat(200_000);
    let s = scheme();
    let wrapped = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || wrap_page(&s, &html))
        .unwrap()
        .join()
        .unwrap();
    assert!(matches!(
        wrapped,
        Err(WrapError::MissingAttribute { attr, .. }) if attr == "DName"
    ));
    // the attribute at the bottom of the pit is still found, and its text
    // collected, without recursion
    let html = format!(
        "{}<i data-attr=DName>x<i data-attr=Address>y",
        "<div>".repeat(200_000)
    );
    let t = wrap_page(&scheme(), &html).unwrap();
    assert_eq!(t.get("DName").unwrap().as_text(), Some("xy"));
    assert_eq!(t.get("Address").unwrap().as_text(), Some("y"));
    assert!(Document::parse(&html).unwrap().len() > 200_000);
}
