//! HTML tokenizer.
//!
//! Produces a flat token stream: open tags (with parsed attributes), close
//! tags, text runs (entity-decoded), comments, and doctype declarations.
//! The tokenizer is tolerant in the ways real-world HTML demands: attribute
//! values may be double-quoted, single-quoted, or bare; unknown entities
//! pass through literally; stray `<` in text is treated as text.
//!
//! Tokens *borrow* from the page body. Tag and attribute names are slices
//! of the input exactly as written — compare them with
//! [`str::eq_ignore_ascii_case`], they are never lower-cased into a copy.
//! Attribute values and text are [`Cow`]s: borrowed unless an `&` entity
//! actually decoded to something, which is the only time lexing allocates
//! a string. Attributes of all open tags share one vector; an open token
//! holds its range in it.

use crate::error::WrapError;
use crate::Result;
use std::borrow::Cow;
use std::ops::Range;

/// One `name[=value]` pair of an open tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr<'a> {
    /// The name as written (any case).
    pub name: &'a str,
    /// The value, entity-decoded; empty for a boolean attribute.
    pub value: Cow<'a, str>,
}

/// One HTML token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<tag a="b" …>`; `self_closing` for `<tag/>`.
    Open {
        /// Tag name as written (any case).
        name: &'a str,
        /// Where this tag's attributes sit in the shared attribute vector.
        attrs: Range<u32>,
        /// Whether a `/` appeared inside the tag.
        self_closing: bool,
    },
    /// `</tag>`: the trimmed name as written.
    Close(&'a str),
    /// A text run, entity-decoded. Never empty. A stray `<` does not end
    /// the run, so adjacent text is one token by construction.
    Text(Cow<'a, str>),
    /// `<!-- … -->` content, trimmed.
    Comment(&'a str),
    /// `<!DOCTYPE …>` content, trimmed.
    Doctype(&'a str),
}

/// The tokens of one document plus the attribute vector they index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tokens<'a> {
    tokens: Vec<Token<'a>>,
    attrs: Vec<Attr<'a>>,
}

impl<'a> Tokens<'a> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the input held no token at all.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The tokens in document order.
    pub fn iter(&self) -> std::slice::Iter<'_, Token<'a>> {
        self.tokens.iter()
    }

    /// The attributes of an [`Token::Open`] of this stream (empty for any
    /// other token).
    pub fn attrs_of(&self, token: &Token<'a>) -> &[Attr<'a>] {
        match token {
            Token::Open { attrs, .. } => self
                .attrs
                .get(attrs.start as usize..attrs.end as usize)
                .unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// Offset of the first `needle` in `hay`. Runs are a few dozen bytes, so a
/// plain loop beats a vectorised search's setup.
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    hay.iter().position(|&b| b == needle)
}

/// The character an entity name (the part between `&` and `;`) stands for.
fn entity_char(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        "nbsp" => Some('\u{a0}'),
        _ => {
            let digits = entity.strip_prefix('#')?;
            let code = match digits.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16).ok()?,
                None => digits.parse::<u32>().ok()?,
            };
            char::from_u32(code)
        }
    }
}

/// Decodes the HTML entities the generator emits (plus numeric forms).
/// Unknown, out-of-range and unterminated entities pass through unchanged.
/// Borrows unless at least one entity decoded; linear in `s` whatever it
/// holds (the position of the next `;` is found once, not once per `&`).
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    let bytes = s.as_bytes();
    let mut out: Option<String> = None;
    let mut copied = 0; // s[..copied] is already in `out`
    let mut semi = 0; // the next ';' after `i` once it exceeds `i`
    let mut i = 0;
    while let Some(amp) = find_byte(&bytes[i..], b'&').map(|j| i + j) {
        if semi <= amp {
            match find_byte(&bytes[amp + 1..], b';') {
                Some(j) => semi = amp + 1 + j,
                None => break, // no ';' left: nothing further can decode
            }
        }
        // `amp` and `semi` index ASCII bytes, so both are char boundaries
        match entity_char(&s[amp + 1..semi]) {
            Some(c) => {
                let o = out.get_or_insert_with(|| String::with_capacity(s.len()));
                o.push_str(&s[copied..amp]);
                o.push(c);
                i = semi + 1;
                copied = i;
            }
            None => i = amp + 1,
        }
    }
    match out {
        Some(mut o) => {
            o.push_str(&s[copied..]);
            Cow::Owned(o)
        }
        None => Cow::Borrowed(s),
    }
}

/// A pull tokenizer over one page body.
///
/// [`tokenize`] collects its output; [`crate::dom::Document::parse`] pulls
/// from it directly, so a page is scanned once and no token outlives the
/// step that consumes it.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`. Attribute ranges are `u32`, so a
    /// body of 4 GiB or more is refused rather than mis-indexed.
    pub(crate) fn new(input: &'a str) -> Result<Self> {
        if u32::try_from(input.len()).is_err() {
            return Err(WrapError::Lex {
                offset: 0,
                message: "page body of 4 GiB or more".into(),
            });
        }
        Ok(Lexer { input, pos: 0 })
    }

    /// The next token, or `None` at end of input. An open tag's attributes
    /// are appended to `attrs` and the token holds their range.
    pub(crate) fn next_token(&mut self, attrs: &mut Vec<Attr<'a>>) -> Result<Option<Token<'a>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let i = self.pos;
        let Some(&first) = bytes.get(i) else {
            return Ok(None);
        };
        if first == b'<' {
            let rest = &bytes[i..];
            if rest.starts_with(b"<!--") {
                let end = input[i + 4..].find("-->").ok_or_else(|| WrapError::Lex {
                    offset: i,
                    message: "unterminated comment".into(),
                })?;
                self.pos = i + 4 + end + 3;
                return Ok(Some(Token::Comment(input[i + 4..i + 4 + end].trim())));
            }
            if rest.starts_with(b"<!") {
                let end = find_byte(rest, b'>').ok_or_else(|| WrapError::Lex {
                    offset: i,
                    message: "unterminated declaration".into(),
                })?;
                self.pos = i + end + 1;
                return Ok(Some(Token::Doctype(input[i + 2..i + end].trim())));
            }
            if rest.starts_with(b"</") {
                let end = find_byte(rest, b'>').ok_or_else(|| WrapError::Lex {
                    offset: i,
                    message: "unterminated close tag".into(),
                })?;
                self.pos = i + end + 1;
                return Ok(Some(Token::Close(input[i + 2..i + end].trim())));
            }
            if rest.get(1).is_some_and(u8::is_ascii_alphabetic) {
                return self.lex_open_tag(attrs).map(Some);
            }
        }
        // A text run: up to the next '<' that starts markup. A stray '<'
        // is text, and so stays inside the run.
        let starts_markup = |lt: usize| {
            let next = bytes.get(lt + 1);
            next.is_some_and(|&b| b == b'!' || b == b'/' || b.is_ascii_alphabetic())
        };
        let mut from = i + 1;
        let end = loop {
            match find_byte(&bytes[from..], b'<') {
                None => break bytes.len(),
                Some(j) if starts_markup(from + j) => break from + j,
                Some(j) => from += j + 1,
            }
        };
        self.pos = end;
        Ok(Some(Token::Text(decode_entities(&input[i..end]))))
    }

    /// Lexes the open tag at `self.pos` (which points at `<`).
    fn lex_open_tag(&mut self, attrs: &mut Vec<Attr<'a>>) -> Result<Token<'a>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let start = self.pos;
        let at = |i: usize| bytes.get(i).copied();
        let skip_ws = |mut i: usize| {
            while at(i).is_some_and(|b| b.is_ascii_whitespace()) {
                i += 1;
            }
            i
        };
        let mut i = start + 1;
        while at(i).is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-') {
            i += 1;
        }
        let name = &input[start + 1..i];
        let first_attr = attrs.len();
        let mut self_closing = false;
        loop {
            i = skip_ws(i);
            let Some(b) = at(i) else {
                return Err(WrapError::Lex {
                    offset: start,
                    message: format!("unterminated tag <{}", name.to_ascii_lowercase()),
                });
            };
            match b {
                b'>' => {
                    i += 1;
                    break;
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    let an_start = i;
                    while at(i).is_some_and(|b| {
                        !b.is_ascii_whitespace() && b != b'=' && b != b'>' && b != b'/'
                    }) {
                        i += 1;
                    }
                    if i == an_start {
                        return Err(WrapError::Lex {
                            offset: i,
                            message: "empty attribute name".into(),
                        });
                    }
                    let an = &input[an_start..i];
                    i = skip_ws(i);
                    let value = if at(i) == Some(b'=') {
                        i = skip_ws(i + 1);
                        match at(i) {
                            Some(quote @ (b'"' | b'\'')) => {
                                let v_start = i + 1;
                                let len = find_byte(&bytes[v_start..], quote).ok_or_else(|| {
                                    WrapError::Lex {
                                        offset: v_start,
                                        message: "unterminated attribute value".into(),
                                    }
                                })?;
                                i = v_start + len + 1; // past the quote
                                decode_entities(&input[v_start..v_start + len])
                            }
                            _ => {
                                let v_start = i;
                                while at(i).is_some_and(|b| !b.is_ascii_whitespace() && b != b'>') {
                                    i += 1;
                                }
                                decode_entities(&input[v_start..i])
                            }
                        }
                    } else {
                        Cow::Borrowed("") // boolean attribute
                    };
                    attrs.push(Attr { name: an, value });
                }
            }
        }
        self.pos = i;
        // `Lexer::new` bounds the input, and each attribute takes a byte
        Ok(Token::Open {
            name,
            attrs: first_attr as u32..attrs.len() as u32,
            self_closing,
        })
    }
}

/// Tokenizes an HTML document.
pub fn tokenize(input: &str) -> Result<Tokens<'_>> {
    let mut lexer = Lexer::new(input)?;
    // generated pages hold a token per 11.4 bytes or more, an attribute per 34
    let mut tokens = Vec::with_capacity(input.len() / 11 + 1);
    let mut attrs = Vec::with_capacity(input.len() / 32 + 1);
    while let Some(tok) = lexer.next_token(&mut attrs)? {
        tokens.push(tok);
    }
    Ok(Tokens { tokens, attrs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token<'_>> {
        tokenize(input).unwrap().iter().cloned().collect()
    }

    fn attr<'a>(name: &'a str, value: &'a str) -> Attr<'a> {
        Attr {
            name,
            value: Cow::Borrowed(value),
        }
    }

    #[test]
    fn decodes_entities() {
        assert_eq!(decode_entities("a &amp; b &lt;c&gt;"), "a & b <c>");
        assert_eq!(decode_entities("&#65;&#x42;"), "AB");
        assert_eq!(decode_entities("&bogus; &"), "&bogus; &");
    }

    #[test]
    fn hostile_entities_pass_through() {
        // overlong / out-of-range / surrogate numeric entities decode to
        // nothing sensible and must fall through as literal text
        assert_eq!(decode_entities("&#x110000;"), "&#x110000;");
        assert_eq!(decode_entities("&#xD800;"), "&#xD800;");
        assert_eq!(decode_entities("&#;&#x;&;"), "&#;&#x;&;");
        // trailing lone ampersand and unterminated entity
        assert_eq!(decode_entities("a&amp"), "a&amp");
        assert_eq!(decode_entities("&"), "&");
        // multi-byte text around entities survives
        assert_eq!(decode_entities("é&amp;ß"), "é&ß");
    }

    #[test]
    fn decoding_borrows_unless_an_entity_decodes() {
        assert!(matches!(decode_entities("plain"), Cow::Borrowed(_)));
        assert!(matches!(decode_entities("&bogus; & &#;"), Cow::Borrowed(_)));
        assert!(matches!(decode_entities("a&amp;b"), Cow::Owned(_)));
    }

    #[test]
    fn simple_document() {
        let t = tokenize("<p class=\"x\">hi</p>").unwrap();
        let v: Vec<_> = t.iter().cloned().collect();
        assert_eq!(
            v,
            vec![
                Token::Open {
                    name: "p",
                    attrs: 0..1,
                    self_closing: false,
                },
                Token::Text("hi".into()),
                Token::Close("p"),
            ]
        );
        assert_eq!(t.attrs_of(&v[0]), [attr("class", "x")]);
        assert_eq!(t.attrs_of(&v[1]), []);
    }

    #[test]
    fn attribute_quoting_styles() {
        let t = tokenize("<a href='x.html' data-n=7 disabled>").unwrap();
        assert_eq!(t.len(), 1);
        let open = t.iter().next().unwrap();
        assert_eq!(
            t.attrs_of(open),
            [
                attr("href", "x.html"),
                attr("data-n", "7"),
                attr("disabled", "")
            ]
        );
    }

    #[test]
    fn comments_and_doctype() {
        let toks = toks("<!DOCTYPE html><!-- note -->text");
        assert_eq!(toks[0], Token::Doctype("DOCTYPE html"));
        assert_eq!(toks[1], Token::Comment("note"));
        assert_eq!(toks[2], Token::Text("text".into()));
    }

    #[test]
    fn self_closing_tag() {
        assert_eq!(
            toks("<br/>")[0],
            Token::Open {
                name: "br",
                attrs: 0..0,
                self_closing: true,
            }
        );
    }

    #[test]
    fn stray_lt_is_text() {
        assert_eq!(toks("1 < 2"), vec![Token::Text("1 < 2".into())]);
        assert_eq!(toks("<"), vec![Token::Text("<".into())]);
        // the run is one borrowed slice: nothing was copied to coalesce it
        assert!(matches!(
            &toks("a < b << c")[0],
            Token::Text(Cow::Borrowed(_))
        ));
    }

    #[test]
    fn entities_in_attr_values() {
        let t = tokenize("<a title=\"a &amp; b\">").unwrap();
        let open = t.iter().next().unwrap();
        assert_eq!(t.attrs_of(open)[0].value, "a & b");
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(tokenize("<!-- oops").is_err());
        assert!(tokenize("<p class=\"x").is_err());
    }

    #[test]
    fn names_keep_their_case_and_compare_without_it() {
        let t = tokenize("<DIV CLASS=\"A\"></DIV>").unwrap();
        let v: Vec<_> = t.iter().cloned().collect();
        let Token::Open { name, .. } = &v[0] else {
            panic!()
        };
        assert_eq!(*name, "DIV");
        assert!(name.eq_ignore_ascii_case("div"));
        let a = &t.attrs_of(&v[0])[0];
        assert!(a.name.eq_ignore_ascii_case("class"));
        assert_eq!(a.value, "A");
        assert_eq!(v[1], Token::Close("DIV"));
        // the message of a lex error is the one place a name is lower-cased
        let Err(WrapError::Lex { message, .. }) = tokenize("<DIV ") else {
            panic!()
        };
        assert_eq!(message, "unterminated tag <div");
    }

    #[test]
    fn adjacent_text_coalesced() {
        assert_eq!(toks("a&amp;b"), vec![Token::Text("a&b".into())]);
    }
}
