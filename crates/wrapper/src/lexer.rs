//! HTML tokenizer.
//!
//! Produces a flat token stream: open tags (with parsed attributes), close
//! tags, text runs (entity-decoded), comments, and doctype declarations.
//! The tokenizer is tolerant in the ways real-world HTML demands: attribute
//! values may be double-quoted, single-quoted, or bare; unknown entities
//! pass through literally; stray `<` in text is treated as text.
//!
//! The lexer itself emits *spans*: `u32` offsets into the page body, or
//! into a side buffer its caller owns where an `&` entity actually decoded
//! — the only time lexing writes a string. [`crate::dom::Document::parse`]
//! keeps the spans; [`tokenize`] turns the same spans into [`Token`]s that
//! borrow from the body. Tag and attribute names are slices of the input
//! exactly as written — compare them with [`str::eq_ignore_ascii_case`],
//! they are never lower-cased into a copy. Attribute values and text are
//! [`Cow`]s: borrowed unless an entity decoded. Attributes of all open
//! tags share one vector; an open token holds its range in it.
//!
//! Every token is read in one pass over its bytes. A byte's role inside a
//! tag is one lookup in a 256-entry class table (whitespace, name byte,
//! letter, attribute-name end, bare-value end); the scan that finds where
//! a text run or an attribute value ends also notes whether it holds an
//! `&`, and only a run that does is handed to the entity decoder. Every
//! class is ASCII, so every slice boundary the lexer cuts at is a char
//! boundary.

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

/// Where one string of a page lies: bytes `start..end` of the body, or of
/// the side buffer when `decoded` (an entity decoded in it). Names are
/// never decoded, so a name's span is always in the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    end: u32,
    decoded: bool,
}

impl Span {
    /// The boolean attribute's empty value.
    pub(crate) const EMPTY: Span = Span::body(0, 0);

    /// Bytes `start..end` of the body. `Lexer::new` bounds the body.
    #[inline]
    const fn body(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            end: end as u32,
            decoded: false,
        }
    }

    /// The string this span names, in `body` or in `side`.
    #[inline]
    pub(crate) fn get<'s>(self, body: &'s str, side: &'s str) -> &'s str {
        let s = if self.decoded { side } else { body };
        s.get(self.start as usize..self.end as usize).unwrap_or("")
    }

    /// The bytes this span names, in `body` or in `side`: what a name is
    /// compared by, with no char-boundary check.
    #[inline]
    pub(crate) fn bytes<'s>(self, body: &'s [u8], side: &'s [u8]) -> &'s [u8] {
        let s = if self.decoded { side } else { body };
        s.get(self.start as usize..self.end as usize).unwrap_or(&[])
    }

    /// The string as a token holds it: borrowed from `body`, or an owned
    /// copy of a decoded run.
    fn cow<'a>(self, body: &'a str, side: &str) -> Cow<'a, str> {
        if self.decoded {
            Cow::Owned(self.get("", side).to_owned())
        } else {
            Cow::Borrowed(self.get(body, ""))
        }
    }
}

/// One `name[=value]` pair of an open tag, as the lexer stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawAttr {
    pub(crate) name: Span,
    pub(crate) value: Span,
}

/// One token as the lexer emits it: [`Token`] with spans for strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RawToken {
    Open {
        name: Span,
        attrs: Range<u32>,
        self_closing: bool,
    },
    Close(Span),
    Text(Span),
    Comment(Span),
    Doctype(Span),
}

/// `u8::is_ascii_whitespace`: space, `\t`, `\n`, `\x0C`, `\r` (not `\x0B`).
const WS: u8 = 1;
/// A tag-name byte: `u8::is_ascii_alphanumeric` or `-`.
const NAME: u8 = 2;
/// `u8::is_ascii_alphabetic`: what may follow `<` to open a tag.
const ALPHA: u8 = 4;
/// Ends an attribute name: whitespace, `=`, `>` or `/`.
const ATTR_END: u8 = 8;
/// Ends a bare (unquoted) attribute value: whitespace or `>`.
const BARE_END: u8 = 16;

/// The class bits of every byte, built from the predicates above. No
/// non-ASCII byte has a bit.
const CLASS: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        let mut bits = 0;
        if c.is_ascii_whitespace() {
            bits |= WS | ATTR_END | BARE_END;
        }
        if c.is_ascii_alphanumeric() || c == b'-' {
            bits |= NAME;
        }
        if c.is_ascii_alphabetic() {
            bits |= ALPHA;
        }
        if matches!(c, b'=' | b'>' | b'/') {
            bits |= ATTR_END;
        }
        if c == b'>' {
            bits |= BARE_END;
        }
        table[b] = bits;
        b += 1;
    }
    table
};

/// Whether `b` has a bit of `class`.
#[inline]
fn is(b: u8, class: u8) -> bool {
    CLASS[b as usize] & class != 0
}

/// The first index at or after `i` whose byte is not of `class`.
#[inline]
fn skip(bytes: &[u8], mut i: usize, class: u8) -> usize {
    while bytes.get(i).is_some_and(|&b| is(b, class)) {
        i += 1;
    }
    i
}

/// `input[start..end].trim()` as a span, without the call when an ASCII
/// graphic byte already stands at each end (a close tag as written,
/// `</div>`).
#[inline]
fn trimmed(input: &str, start: usize, end: usize) -> Span {
    let s = &input[start..end];
    let b = s.as_bytes();
    match (b.first(), b.last()) {
        (Some(f), Some(l)) if f.is_ascii_graphic() && l.is_ascii_graphic() => {
            Span::body(start, end)
        }
        _ => {
            let from = start + (s.len() - s.trim_start().len());
            Span::body(from, from + s.trim().len())
        }
    }
}

/// Offset of the first `needle` in `hay`: the end of a close tag or a
/// declaration, and the `&` / `;` of [`decode_entities`]. Text runs and
/// attribute values are scanned by the lexer's own loops.
#[inline]
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
            // digits only: `u32`'s parsers would also take a leading `+`
            let digits = entity.strip_prefix('#')?;
            let code = match digits.strip_prefix(['x', 'X']) {
                Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                    u32::from_str_radix(hex, 16).ok()?
                }
                None if digits.bytes().all(|b| b.is_ascii_digit()) => digits.parse().ok()?,
                _ => return None,
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
    let mut out = String::new();
    if decode_into(s, &mut out) {
        Cow::Owned(out)
    } else {
        Cow::Borrowed(s)
    }
}

/// Appends `s` to `out` with its entities decoded, if at least one entity
/// decodes, and says whether one did; otherwise leaves `out` untouched.
fn decode_into(s: &str, out: &mut String) -> bool {
    let bytes = s.as_bytes();
    let mut copied = None; // s[..copied] is already in `out`
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
                let from = copied.unwrap_or_else(|| {
                    out.reserve(s.len());
                    0
                });
                out.push_str(&s[from..amp]);
                out.push(c);
                i = semi + 1;
                copied = Some(i);
            }
            None => i = amp + 1,
        }
    }
    match copied {
        Some(from) => {
            out.push_str(&s[from..]);
            true
        }
        None => false,
    }
}

/// A pull tokenizer over one page body.
///
/// [`tokenize`] collects its output; [`crate::dom::Document::parse`] pulls
/// from it directly, so a page is scanned once and no token outlives the
/// step that consumes it. Both steps are `#[inline]`: the parse loop holds
/// the lexer's code, not a call per token.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`. Spans and attribute ranges are
    /// `u32`, so a body of 4 GiB or more is refused rather than
    /// mis-indexed. (Decoding never lengthens a run, so the side buffer
    /// stays below the body's length.)
    pub(crate) fn new(input: &'a str) -> Result<Self> {
        if u32::try_from(input.len()).is_err() {
            return Err(WrapError::Lex {
                offset: 0,
                message: "page body of 4 GiB or more".into(),
            });
        }
        Ok(Lexer { input, pos: 0 })
    }

    /// The span of `input[start..end]`, a text run or an attribute value:
    /// in the body, unless the scan saw an `&` and an entity decoded, when
    /// the decoded run is appended to `side`.
    #[inline]
    fn run(&self, start: usize, end: usize, amp: bool, side: &mut String) -> Span {
        let at = side.len();
        if amp && decode_into(&self.input[start..end], side) {
            Span {
                start: at as u32,
                end: side.len() as u32,
                decoded: true,
            }
        } else {
            Span::body(start, end)
        }
    }

    /// The next token, or `None` at end of input. An open tag's attributes
    /// are appended to `attrs` and the token holds their range; a run in
    /// which an entity decoded is appended to `side`.
    #[inline]
    pub(crate) fn next_token(
        &mut self,
        attrs: &mut Vec<RawAttr>,
        side: &mut String,
    ) -> Result<Option<RawToken>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let i = self.pos;
        let Some(&first) = bytes.get(i) else {
            return Ok(None);
        };
        if first == b'<' {
            let rest = &bytes[i..];
            match rest.get(1) {
                Some(b'!') if rest.starts_with(b"<!--") => {
                    let end = input[i + 4..].find("-->").ok_or_else(|| WrapError::Lex {
                        offset: i,
                        message: "unterminated comment".into(),
                    })?;
                    self.pos = i + 4 + end + 3;
                    return Ok(Some(RawToken::Comment(trimmed(input, i + 4, i + 4 + end))));
                }
                Some(b'!') => {
                    let end = find_byte(rest, b'>').ok_or_else(|| WrapError::Lex {
                        offset: i,
                        message: "unterminated declaration".into(),
                    })?;
                    self.pos = i + end + 1;
                    return Ok(Some(RawToken::Doctype(trimmed(input, i + 2, i + end))));
                }
                Some(b'/') => {
                    let end = find_byte(rest, b'>').ok_or_else(|| WrapError::Lex {
                        offset: i,
                        message: "unterminated close tag".into(),
                    })?;
                    self.pos = i + end + 1;
                    return Ok(Some(RawToken::Close(trimmed(input, i + 2, i + end))));
                }
                Some(&b) if is(b, ALPHA) => return self.lex_open_tag(attrs, side).map(Some),
                _ => {} // a stray '<': text
            }
        }
        // A text run: up to the next '<' that starts markup. A stray '<'
        // is text, and so stays inside the run. One scan finds the end and
        // notes any '&' on the way.
        let mut amp = first == b'&';
        let mut from = i + 1;
        let end = loop {
            let lt = bytes[from..].iter().position(|&b| {
                amp |= b == b'&';
                b == b'<'
            });
            let Some(lt) = lt.map(|j| from + j) else {
                break bytes.len();
            };
            match bytes.get(lt + 1) {
                Some(&b) if b == b'!' || b == b'/' || is(b, ALPHA) => break lt,
                _ => from = lt + 1,
            }
        };
        self.pos = end;
        Ok(Some(RawToken::Text(self.run(i, end, amp, side))))
    }

    /// Lexes the open tag at `self.pos` (which points at `<`).
    #[inline]
    fn lex_open_tag(&mut self, attrs: &mut Vec<RawAttr>, side: &mut String) -> Result<RawToken> {
        let input = self.input;
        let bytes = input.as_bytes();
        let start = self.pos;
        let mut i = skip(bytes, start + 1, NAME);
        let name = Span::body(start + 1, i);
        let first_attr = attrs.len();
        let mut self_closing = false;
        loop {
            i = skip(bytes, i, WS);
            let Some(&b) = bytes.get(i) else {
                return Err(WrapError::Lex {
                    offset: start,
                    message: format!(
                        "unterminated tag <{}",
                        name.get(input, "").to_ascii_lowercase()
                    ),
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
                    while bytes.get(i).is_some_and(|&b| !is(b, ATTR_END)) {
                        i += 1;
                    }
                    if i == an_start {
                        return Err(WrapError::Lex {
                            offset: i,
                            message: "empty attribute name".into(),
                        });
                    }
                    let an = Span::body(an_start, i);
                    i = skip(bytes, i, WS);
                    let value = if bytes.get(i) == Some(&b'=') {
                        i = skip(bytes, i + 1, WS);
                        let mut amp = false;
                        match bytes.get(i) {
                            Some(&quote @ (b'"' | b'\'')) => {
                                let v_start = i + 1;
                                let len = (bytes[v_start..].iter())
                                    .position(|&b| {
                                        amp |= b == b'&';
                                        b == quote
                                    })
                                    .ok_or_else(|| WrapError::Lex {
                                        offset: v_start,
                                        message: "unterminated attribute value".into(),
                                    })?;
                                i = v_start + len + 1; // past the quote
                                self.run(v_start, v_start + len, amp, side)
                            }
                            _ => {
                                let v_start = i;
                                while let Some(&b) = bytes.get(i).filter(|&&b| !is(b, BARE_END)) {
                                    amp |= b == b'&';
                                    i += 1;
                                }
                                self.run(v_start, i, amp, side)
                            }
                        }
                    } else {
                        Span::EMPTY // boolean attribute
                    };
                    attrs.push(RawAttr { name: an, value });
                }
            }
        }
        self.pos = i;
        // `Lexer::new` bounds the input, and each attribute takes a byte
        Ok(RawToken::Open {
            name,
            attrs: first_attr as u32..attrs.len() as u32,
            self_closing,
        })
    }
}

/// Tokenizes an HTML document: the lexer's span tokens, each resolved
/// against the body as it is read (a decoded run is copied out of the side
/// buffer, which then starts over).
pub fn tokenize(input: &str) -> Result<Tokens<'_>> {
    let mut lexer = Lexer::new(input)?;
    // generated pages hold a token per 11.4 bytes or more, an attribute per 34
    let mut tokens = Vec::with_capacity(input.len() / 11 + 1);
    let mut raw = Vec::with_capacity(input.len() / 32 + 1);
    let mut attrs = Vec::with_capacity(raw.capacity());
    let mut side = String::new();
    while let Some(tok) = lexer.next_token(&mut raw, &mut side)? {
        let name = |s: Span| s.get(input, "");
        // `raw` and `attrs` grow together, so a token's range indexes both
        let new = raw.get(attrs.len()..).unwrap_or(&[]).iter();
        attrs.extend(new.map(|a| Attr {
            name: name(a.name),
            value: a.value.cow(input, &side),
        }));
        tokens.push(match tok {
            RawToken::Open {
                name: tag,
                attrs,
                self_closing,
            } => Token::Open {
                name: name(tag),
                attrs,
                self_closing,
            },
            RawToken::Close(s) => Token::Close(name(s)),
            RawToken::Text(s) => Token::Text(s.cow(input, &side)),
            RawToken::Comment(s) => Token::Comment(name(s)),
            RawToken::Doctype(s) => Token::Doctype(name(s)),
        });
        side.clear();
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
    fn a_numeric_entity_is_digits_only() {
        // `str::parse::<u32>` and `u32::from_str_radix` accept a leading
        // '+'; an HTML numeric reference does not
        for signed in [
            "&#+65;", "&#x+41;", "&#X+41;", "&#-65;", "&# 65;", "&#x 41;",
        ] {
            assert_eq!(decode_entities(signed), signed);
            assert!(matches!(decode_entities(signed), Cow::Borrowed(_)));
        }
        assert_eq!(decode_entities("&#0065;&#x0041;&#XaB;"), "AA\u{ab}");
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
