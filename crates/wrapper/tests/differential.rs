//! Differential suite: the zero-copy wrapper against the parser it
//! replaced, kept under `support/reference.rs` as a test-only oracle.
//!
//! On every input the two must agree at all three entry points —
//! `tokenize`, `Document::parse`, `wrap_page` — on `Ok` values *and* on
//! `Err` values (variant, offset, message). Inputs: (i) every page of a
//! University and a Bibliography site and every 7-byte-step truncation of
//! each; (ii) 3 000+ proptest cases of tag soup drawn from a fragment
//! alphabet that covers what the tolerant rules are about.

#[path = "support/reference.rs"]
mod reference;

use adm::{Field, PageScheme, WebType};
use proptest::prelude::*;
use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
use wrapper::{Document, Node};

/// The product's token stream in the reference's shape: names lower-cased,
/// strings owned, attributes inline.
fn tokens_as_reference(input: &str) -> wrapper::Result<Vec<reference::lexer::Token>> {
    use reference::lexer::Token as R;
    use wrapper::lexer::Token as T;
    let tokens = wrapper::lexer::tokenize(input)?;
    Ok(tokens
        .iter()
        .map(|t| match t {
            T::Open {
                name, self_closing, ..
            } => R::Open {
                name: name.to_ascii_lowercase(),
                attrs: (tokens.attrs_of(t).iter())
                    .map(|a| (a.name.to_ascii_lowercase(), a.value.to_string()))
                    .collect(),
                self_closing: *self_closing,
            },
            T::Close(name) => R::Close(name.to_ascii_lowercase()),
            T::Text(text) => R::Text(text.to_string()),
            T::Comment(c) => R::Comment(c.to_string()),
            T::Doctype(d) => R::Doctype(d.to_string()),
        })
        .collect())
}

fn node_as_reference(n: Node<'_>) -> reference::dom::Node {
    match n {
        Node::Element(e) => reference::dom::Node::Element(reference::dom::Element {
            tag: e.tag().to_ascii_lowercase(),
            attrs: (e.attrs())
                .map(|a| (a.name.to_ascii_lowercase(), a.value.to_string()))
                .collect(),
            children: e.children().map(node_as_reference).collect(),
        }),
        Node::Text(t) => reference::dom::Node::Text(t.to_string()),
        Node::Comment(c) => reference::dom::Node::Comment(c.to_string()),
    }
}

/// The product's arena as the reference's tree, plus `Document::len` to
/// hold against the tree's node count.
fn document_as_reference(input: &str) -> wrapper::Result<(reference::dom::Document, usize)> {
    let doc = Document::parse(input)?;
    let roots = doc.roots().map(node_as_reference).collect();
    Ok((reference::dom::Document { roots }, doc.len()))
}

fn count_nodes(nodes: &[reference::dom::Node]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            reference::dom::Node::Element(e) => 1 + count_nodes(&e.children),
            _ => 1,
        })
        .sum()
}

/// Asserts product ≡ reference on `input` at all three entry points.
fn same_everywhere(schemes: &[PageScheme], input: &str) {
    assert_eq!(
        tokens_as_reference(input),
        reference::lexer::tokenize(input),
        "tokenize differs on {input:?}"
    );
    let expected = reference::dom::Document::parse(input);
    match (document_as_reference(input), &expected) {
        (Ok((doc, len)), Ok(want)) => {
            assert_eq!(&doc, want, "Document::parse differs on {input:?}");
            assert_eq!(len, count_nodes(&want.roots), "node count on {input:?}");
        }
        (got, want) => assert_eq!(
            got.err(),
            want.clone().err(),
            "Document::parse differs on {input:?}"
        ),
    }
    for scheme in schemes {
        assert_eq!(
            wrapper::wrap_page(scheme, input),
            reference::wrap::wrap_page(scheme, input),
            "wrap_page({}) differs on {input:?}",
            scheme.name
        );
    }
}

/// Every page of the site under its own scheme, whole and cut every 7
/// bytes (at the char boundary at or below the cut).
fn site_agrees(site: &websim::Site) {
    let mut pages = 0;
    for scheme in site.scheme.schemes() {
        let schemes = std::slice::from_ref(scheme);
        for (url, _) in site.instance(&scheme.name) {
            let resp = site.server.get(&url).expect("page exists");
            let html = std::str::from_utf8(&resp.body).expect("utf8");
            same_everywhere(schemes, html);
            for cut in (0..html.len()).step_by(7) {
                let cut = (0..=cut).rev().find(|&c| html.is_char_boundary(c));
                same_everywhere(schemes, &html[..cut.unwrap_or(0)]);
            }
            pages += 1;
        }
    }
    assert!(pages > 20, "site too small to mean anything: {pages} pages");
}

#[test]
fn university_pages_and_their_truncations_agree() {
    let u = University::generate(UniversityConfig {
        departments: 3,
        professors: 10,
        courses: 20,
        seed: 77,
        ..UniversityConfig::default()
    })
    .unwrap();
    site_agrees(&u.site);
}

#[test]
fn bibliography_pages_and_their_truncations_agree() {
    let b = Bibliography::generate(BibConfig {
        authors: 30,
        conferences: 5,
        db_conferences: 2,
        featured: 1,
        editions_per_conf: 3,
        papers_per_edition: 5,
        seed: 13,
        ..BibConfig::default()
    })
    .unwrap();
    site_agrees(&b.site);
}

/// Two readings of the same soup: one where every field is required and
/// one where nothing is, so both the error paths and deep extraction run.
fn soup_schemes() -> Vec<PageScheme> {
    let rows = |optional: bool| {
        let text = |name: &str| {
            if optional {
                Field::optional(name, WebType::Text)
            } else {
                Field::text(name)
            }
        };
        vec![
            text("A"),
            Field::list(
                "L",
                vec![
                    text("B"),
                    Field::optional("ToX", WebType::Link { target: "P".into() }),
                    Field::list("M", vec![text("C")]),
                ],
            ),
            text("B"),
            if optional {
                Field::optional("ToX", WebType::Link { target: "P".into() })
            } else {
                Field::link("ToX", "P")
            },
            Field::optional("Pic", WebType::Image),
            Field::list("M", vec![text("C"), text("A")]),
        ]
    };
    vec![
        PageScheme::new("Strict", rows(false)).unwrap(),
        PageScheme::new("Lenient", rows(true)).unwrap(),
    ]
}

/// Fragments that always lex: mixed-case tags and attribute names,
/// double/single/bare-quoted values, boolean attributes, void and
/// self-closed tags, stray `<`, comments and doctype between text runs,
/// known / numeric / bogus / unterminated entities, multi-byte text,
/// lists in `ul/li` and `table/tr` dress, mismatched closes.
const CLEAN: &[&str] = &[
    "<div class=\"adm-page\">",
    "<div class=\"adm-page\">",
    "<DIV CLASS=\"chrome adm-page\" data-scheme=P>",
    "<div class=\"adm-pages\">",
    "</div>",
    "</DIV>",
    "</div >",
    "<span class=\"adm-attr\" data-attr=\"A\">",
    "<span data-attr=\"A\">",
    "<SPAN DATA-ATTR=\"A\">",
    "<span data-attr='B'>",
    "<span data-attr=B>",
    "<span data-attr=\"C\">",
    "<span Data-Attr=\"C\" data-attr=\"A\">",
    "<span data-attr=\"&#65;\">",
    "<span data-attr=\"a\">",
    "</span>",
    "</SpAn>",
    "<a class=\"adm-attr\" data-attr=\"ToX\" href=\"/x.html\">",
    "<a data-attr=\"ToX\" HREF='y.html'>",
    "<a href=/z.html data-attr=ToX>",
    "<a data-attr=\"ToX\" href=\"/q?a=1&amp;b=&#x32;&bogus;\">",
    "<a data-attr=\"ToX\" href>",
    "<a data-attr=\"ToX\">",
    "</a>",
    "<img data-attr=\"Pic\" src=\"/p.png\">",
    "<IMG DATA-ATTR=\"Pic\" SRC=q.png/>",
    "<img data-attr=\"Pic\" alt='no src'>",
    "<ul class=\"adm-list\" data-attr=\"L\">",
    "<ul class=\"adm-list\" data-attr=\"L\">",
    "<UL CLASS=\"nav  adm-list\tx\" DATA-ATTR=\"L\">",
    "<ul data-attr=\"L\">",
    "<ul class=\"ADM-LIST\" data-attr=\"L\">",
    "<ul class=\"x\" class=\"adm-list\" data-attr=\"L\">",
    "<li class=\"adm-row\">",
    "<li class=\"adm-row\">",
    "<LI CLASS='adm-row odd'>",
    "<li>",
    "</li>",
    "</ul>",
    "<table class=\"adm-list\" data-attr=\"M\">",
    "<table class=adm-list data-attr=M>",
    "<tr class=\"adm-row\">",
    "<tr class=\"adm-row adm-list\" data-attr=\"M\">",
    "<td>",
    "</td>",
    "</tr>",
    "</table>",
    "<p class=\"adm-row\" hidden>",
    "<p>",
    "</p>",
    "<b>",
    "</b>",
    "<i>",
    "</i>",
    "</nosuch>",
    "</>",
    "</ é >",
    "<br>",
    "<br/>",
    "<BR>",
    "<hr />",
    "<input disabled value = 'v'>",
    "<span / data-attr=\"A\">",
    "<x-y a=1 b='2' c=\"3\" d>",
    "<!-- note -->",
    "<!---->",
    "<!-- <span data-attr=\"A\">hidden</span> -->",
    "<!DOCTYPE html>",
    "<!>",
    "hello",
    "Databases 101",
    " ",
    "\n  ",
    "\u{a0}",
    "&nbsp;",
    "1 < 2",
    "<",
    "< ",
    "<<",
    "<3",
    ">",
    "a &amp; b",
    "&lt;tag&gt;",
    "&quot;&apos;",
    "&#65;",
    "&#x42;",
    "&#X43;",
    "&#x110000;",
    "&#xD800;",
    "&#;",
    "&bogus;",
    "&amp",
    "&",
    ";",
    "é",
    "日本語",
    "\u{1F600}",
];

/// Fragments that end in a lex error (or swallow what follows them).
const BROKEN: &[&str] = &[
    "<span data-attr=\"A",
    "<span data-attr='A",
    "<!-- open",
    "<!DOCTYPE",
    "</div",
    "<a =x>",
    "<a b=>",
    "<a b",
    "<a href=x",
];

fn soup(alphabet: &[&[&str]], picks: &[prop::sample::Index]) -> String {
    let len: usize = alphabet.iter().map(|a| a.len()).sum();
    picks
        .iter()
        .filter_map(|p| alphabet.iter().copied().flatten().nth(p.index(len)))
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]
    #[test]
    fn clean_soup_agrees(picks in prop::collection::vec(any::<prop::sample::Index>(), 0..40)) {
        same_everywhere(&soup_schemes(), &soup(&[CLEAN], &picks));
    }

    #[test]
    fn soup_inside_a_page_container_agrees(
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
    ) {
        let input = format!("<html><body><div class=\"adm-page\">{}", soup(&[CLEAN], &picks));
        same_everywhere(&soup_schemes(), &input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn broken_soup_agrees(
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..25),
        cut in any::<prop::sample::Index>(),
    ) {
        // CLEAN twice: about one fragment in twenty is a broken one
        let input = soup(&[CLEAN, CLEAN, BROKEN], &picks);
        same_everywhere(&soup_schemes(), &input);
        // and any prefix of it, cut at a char boundary
        let cut = (0..=cut.index(input.len() + 1)).rev().find(|&c| input.is_char_boundary(c));
        same_everywhere(&soup_schemes(), &input[..cut.unwrap_or(0)]);
    }
}

/// The cases the alphabet is there to produce, pinned by hand so a change
/// to the alphabet cannot silently stop covering them.
#[test]
fn named_cases_agree() {
    let schemes = soup_schemes();
    for input in [
        "",
        "   ",
        "text only",
        "<!-- only a comment -->",
        // an attribute element nested inside another attribute element
        "<div class=\"adm-page\"><span data-attr=\"A\">a<span data-attr=\"B\">b</span></span></div>",
        // the outer name appears after (and inside) a nested list
        "<div class=adm-page><ul class=adm-list data-attr=L><li class=adm-row>\
         <span data-attr=B>in</span><table class=adm-list data-attr=M><tr class=adm-row><td>\
         <span data-attr=C>deep</span></td></tr></table></li></ul>\
         <span data-attr=B>out</span><span data-attr=A>x</span><a data-attr=ToX href=u>l</a></div>",
        // a list element that is also a row of its parent
        "<div class=adm-page><ul class=adm-list data-attr=L><li class=\"adm-row adm-list\" \
         data-attr=M><p class=adm-row><i data-attr=C>c</i><i data-attr=A>a</i></p></li></ul></div>",
        // comments and doctype separate text runs; stray '<' does not
        "<p data-attr=A>a<!-- x -->b<!DOCTYPE y>c < d <<e</p>",
        // auto-close, stray close, implicit close at EOF
        "<div class=adm-page><b><span data-attr=A>x</div>tail</span></nosuch><span data-attr=B>",
        // entities: known, numeric, bogus, unterminated, next to multi-byte
        "<p data-attr=A>é&amp;ß&#x110000;&#65;&bogus;&amp &; &#xD800;π &lt</p>",
        // an unterminated entity whose ';' lies beyond a stray '<'
        "<p data-attr=A>&am< p; &#6< 5; &</p>",
        // the first of duplicate attributes wins
        "<div class=x class=adm-page><span data-attr=A data-attr=B>1</span></div>",
        // a signed numeric entity is literal text, in text and in a value
        "<p data-attr=A title=\"&#+65;\">&#+65;&#x+41;&#X+41;&#-65;&#65;</p>",
    ] {
        same_everywhere(&schemes, input);
    }
}
