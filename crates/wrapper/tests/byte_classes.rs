//! The lexer's byte classes, held to the predicates they stand for.
//!
//! (a) Every one of the 256 byte values, probed through `tokenize`: each
//! class is read off a probe whose tokens depend on that class alone and
//! compared with the `u8` predicate the tag scanner is specified by. A
//! byte that no `&str` can hold (`0xC0`, `0xC1`, `0xF5..=0xFF`) never
//! reaches the lexer; any other non-ASCII byte is probed inside a char
//! that holds it, and must have no class.
//!
//! (b) A soup of the fragments a class table can misfile, against the
//! reference tokenizer (`support/reference.rs`), `Ok` and `Err` alike.
//!
//! Both ask only the public API, so they hold for any lexer behind it.

#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;
use wrapper::lexer::{tokenize, Token};

fn is_ws(b: u8) -> bool {
    b.is_ascii_whitespace()
}

fn is_name(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-'
}

fn is_alpha(b: u8) -> bool {
    b.is_ascii_alphabetic()
}

fn is_attr_end(b: u8) -> bool {
    b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/')
}

fn is_bare_end(b: u8) -> bool {
    b.is_ascii_whitespace() || b == b'>'
}

/// A char whose UTF-8 holds `b`, or `None` if no `&str` can hold it.
fn char_holding(b: u8) -> Option<char> {
    let c = match b {
        // ASCII, or a continuation byte after the lead byte 0xC2
        0x00..=0xBF => char::from(b),
        0xC2..=0xDF => char::from_u32((u32::from(b) & 0x1F) << 6)?,
        0xE0 => '\u{800}',
        0xE1..=0xEF => char::from_u32((u32::from(b) & 0x0F) << 12)?,
        0xF0 => '\u{10000}',
        0xF1..=0xF4 => char::from_u32((u32::from(b) & 0x07) << 18)?,
        _ => return None,
    };
    let mut buf = [0; 4];
    c.encode_utf8(&mut buf).as_bytes().contains(&b).then_some(c)
}

/// The attributes of the first token of `input`, if it is an open tag.
fn first_attrs(input: &str) -> Option<(String, Vec<(String, String)>)> {
    let tokens = tokenize(input).ok()?;
    let open = tokens.iter().next()?;
    let Token::Open { name, .. } = open else {
        return None;
    };
    let attrs = (tokens.attrs_of(open).iter())
        .map(|a| (a.name.to_string(), a.value.to_string()))
        .collect();
    Some((name.to_string(), attrs))
}

/// Each class of the byte(s) of `c`, as `tokenize` shows it.
fn observed(c: char) -> [bool; 5] {
    // `<a{c}b>` lexes as one tag named `a{c}b` only through name bytes
    let name = first_attrs(&format!("<a{c}b>")).is_some_and(|(n, _)| n == format!("a{c}b"));
    // `<{c}` opens a tag (and fails unterminated) only on a letter
    let alpha = matches!(
        tokenize(&format!("<{c}")),
        Err(wrapper::WrapError::Lex { message, .. }) if message.starts_with("unterminated tag")
    );
    // whitespace alone is skipped between `=` and a bare value
    let ws =
        first_attrs(&format!("<a b={c}1>")).is_some_and(|(_, a)| a == [("b".into(), "1".into())]);
    // an attribute name stops early only at an attribute-name end
    let attr_end = first_attrs(&format!("<a xb{c}y=1>"))
        .is_some_and(|(_, a)| a.first().is_some_and(|a| a.0 == "xb"));
    // a bare value stops early only at a bare-value end
    let bare_end = first_attrs(&format!("<a b=x{c}y>"))
        .is_some_and(|(_, a)| a.first().is_some_and(|a| a.1 == "x"));
    [ws, name, alpha, attr_end, bare_end]
}

#[test]
fn every_byte_has_the_class_its_predicate_gives() {
    // the bytes some char's UTF-8 holds: all a `&str` can show the lexer
    let mut in_utf8 = [false; 256];
    for c in (0..=0x10FFFF).filter_map(char::from_u32) {
        for &b in c.encode_utf8(&mut [0; 4]).as_bytes() {
            in_utf8[usize::from(b)] = true;
        }
    }
    let mut probed = 0;
    for b in 0..=u8::MAX {
        let Some(c) = char_holding(b) else {
            assert!(!in_utf8[usize::from(b)], "byte {b:#04x} left unprobed");
            continue;
        };
        let want = if b.is_ascii() {
            [
                is_ws(b),
                is_name(b),
                is_alpha(b),
                is_attr_end(b),
                is_bare_end(b),
            ]
        } else {
            [false; 5] // every class is ASCII
        };
        assert_eq!(
            observed(c),
            want,
            "byte {b:#04x} in {c:?}: [ws, name, alpha, attr end, bare end]"
        );
        probed += 1;
    }
    assert_eq!(probed, 256 - 13, "all but 0xC0, 0xC1 and 0xF5..=0xFF");
}

/// The product's token stream in the reference's shape (as in
/// `differential.rs`): names lower-cased, strings owned, attributes inline.
fn tokens_as_reference(input: &str) -> wrapper::Result<Vec<reference::lexer::Token>> {
    use reference::lexer::Token as R;
    let tokens = tokenize(input)?;
    Ok(tokens
        .iter()
        .map(|t| match t {
            Token::Open {
                name, self_closing, ..
            } => R::Open {
                name: name.to_ascii_lowercase(),
                attrs: (tokens.attrs_of(t).iter())
                    .map(|a| (a.name.to_ascii_lowercase(), a.value.to_string()))
                    .collect(),
                self_closing: *self_closing,
            },
            Token::Close(name) => R::Close(name.to_ascii_lowercase()),
            Token::Text(text) => R::Text(text.to_string()),
            Token::Comment(c) => R::Comment(c.to_string()),
            Token::Doctype(d) => R::Doctype(d.to_string()),
        })
        .collect())
}

/// Fragments on the edges of the classes: `\r` and `\x0C` (whitespace),
/// `\x0B` (not whitespace in Rust, so a name byte of an attribute), a
/// non-ASCII byte right after `<` and inside tag and attribute names, `&`
/// in a bare value, `>` inside a quoted value, `a = b` with spaces, and a
/// `'` quote holding `"`; plus a few plain fragments to join them.
const EDGES: &[&str] = &[
    "<p\r>",
    "<p\x0C>",
    "<p\x0Bq>",
    "<a\rb=1\x0Cc\r=\r2>",
    "<a b\x0B=1>",
    "<a b=\x0B1>",
    "<a b=1\x0B>",
    "\r\x0C\x0B",
    "<é",
    "<éa>",
    "<aé b>",
    "<a bé=1 éc>",
    "<日本 語=本>",
    "<a b=x&amp;y>",
    "<a b=x&y>",
    "<a b=&#65;>",
    "<a b=&>",
    "<a b=\"x>y\">",
    "<a b='x>y'>",
    "<a b = c>",
    "<a b  =  'c' >",
    "<a b='say \"hi\"'>",
    "<a b=\"it's\">",
    "<a b=c/d>",
    "<a/b=c>",
    "<a-b c-d=e-f>",
    "<p>",
    "</p>",
    "text",
    "&amp;",
    " ",
    "<",
    ">",
    "=",
    "'",
    "\"",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]
    #[test]
    fn edge_soup_agrees_with_the_reference(
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
    ) {
        let input: String = picks.iter().map(|p| EDGES[p.index(EDGES.len())]).collect();
        prop_assert_eq!(
            tokens_as_reference(&input),
            reference::lexer::tokenize(&input),
            "tokenize differs on {:?}",
            input
        );
    }
}
