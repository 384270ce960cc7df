//! A flat document arena filled straight from the lexer.
//!
//! Parsing is tolerant: a close tag with no matching open is ignored; a
//! close tag matching a non-top element auto-closes the elements above it;
//! void elements (`br`, `img`, …) never take children; anything left open
//! at end-of-input is closed implicitly; whitespace-only text is dropped.
//!
//! A [`Document`] is the page body plus four buffers: node records, the
//! attributes of all elements, the open-element stack of the parse, and a
//! side string for decoded text. The invariants everything else leans on:
//!
//! * **records are spans, not strings** — a tag name, attribute name,
//!   attribute value, text run or comment is a pair of `u32` offsets into
//!   the body, or into the side string where an entity decoded; a record
//!   borrows nothing, so its buffers outlive the page;
//! * **a thread reuses its buffers** — `Document::parse` takes them from a
//!   per-thread pool and dropping the document gives them back, emptied, so
//!   a steady stream of pages parses without allocating. A set of buffers
//!   above `POOL_CAP_BYTES` (one huge page) is freed instead of kept, and
//!   a second document alive on the thread parses into fresh buffers;
//! * **names are compared, never copied** — close tags, void tags and
//!   attribute lookups use `eq_ignore_ascii_case`;
//! * **index order is document pre-order** — a node is created when its
//!   tag opens, so an element's subtree is the contiguous index range
//!   `id + 1 .. end`, where `end` is recorded when the element closes. The
//!   first child of `n` is `n + 1` (if below `n`'s `end`), the next sibling
//!   of `c` is `c`'s `end` (if below the parent's): one `u32` stands in for
//!   first-child / last-child / next-sibling links, and "skip this subtree"
//!   is a single jump;
//! * **no recursion anywhere** — every walk is a scan of an index range,
//!   and dropping a document returns four buffers, whatever the nesting
//!   depth.

use crate::lexer::{Attr, Lexer, RawAttr, RawToken, Span};
use crate::Result;
use std::borrow::Cow;
use std::cell::Cell;
use std::mem::size_of;

/// Element tags that never have children.
const VOID_TAGS: &[&[u8]] = &[b"br", b"hr", b"img", b"meta", b"link", b"input"];

/// "No such attribute" in [`NodeRec::data_attr`].
const NONE: u32 = u32::MAX;

/// The most bytes of buffer capacity a thread keeps between parses. A
/// page takes about 2.75 bytes of buffer a body byte (up to twice that
/// once a vector has doubled), so a page of 190–380 KB or more is parsed
/// into buffers its document frees; the largest page of the medium
/// University site is 77 KB.
const POOL_CAP_BYTES: usize = 1 << 20;

/// `class` contains `adm-list`.
pub(crate) const MARK_LIST: u8 = 1;
/// `class` contains `adm-row`.
pub(crate) const MARK_ROW: u8 = 2;
/// `class` contains `adm-page`.
pub(crate) const MARK_PAGE: u8 = 4;

/// The `MARK_*` bits of a `class` value, split into words where
/// `str::split_whitespace` splits it. An ASCII value (every generated
/// one) is split on bytes, with no char decoding.
fn class_marks(class: &str) -> u8 {
    let mark = |word: &[u8]| match word {
        b"adm-list" => MARK_LIST,
        b"adm-row" => MARK_ROW,
        b"adm-page" => MARK_PAGE,
        _ => 0,
    };
    if class.is_ascii() {
        // the ASCII chars `char::is_whitespace` takes: '\t'..='\r' and ' '
        let words = class
            .as_bytes()
            .split(|b| matches!(b, b'\t'..=b'\r' | b' '));
        words.fold(0, |m, w| m | mark(w))
    } else {
        class
            .split_whitespace()
            .fold(0, |m, w| m | mark(w.as_bytes()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The synthetic node 0 whose children are the top-level nodes.
    Root,
    /// An element; its span is the tag name as written.
    Element,
    /// A text run; its span is the entity-decoded text.
    Text,
    /// A comment; its span is the trimmed content.
    Comment,
}

/// One node of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeRec {
    /// The tag name, text or comment, as [`Kind`] says.
    span: Span,
    /// One past the last node of this node's subtree.
    end: u32,
    /// This element's attributes in [`Buffers::attrs`].
    attrs: (u32, u32),
    /// Index of the first `data-attr` attribute, or [`NONE`]. Cached with
    /// `marks` as the node is created: extraction asks for nothing else
    /// while it searches.
    data_attr: u32,
    kind: Kind,
    /// `MARK_*` bits read off the first `class` attribute.
    marks: u8,
}

/// What a document is parsed into. Nothing in it borrows the page, so a
/// thread keeps one set in [`POOL`] from one parse to the next.
#[derive(Debug, Clone, Default)]
struct Buffers {
    nodes: Vec<NodeRec>,
    attrs: Vec<RawAttr>,
    /// The elements still open during the parse (index and tag name),
    /// innermost last; empty once the document is built.
    open: Vec<(u32, Span)>,
    /// Text and attribute values in which an entity decoded.
    side: String,
}

thread_local! {
    /// The buffers the last document dropped on this thread left behind.
    static POOL: Cell<Buffers> = const {
        Cell::new(Buffers {
            nodes: Vec::new(),
            attrs: Vec::new(),
            open: Vec::new(),
            side: String::new(),
        })
    };
}

impl Buffers {
    /// This thread's pooled buffers, or empty ones when another document
    /// holds them.
    fn take() -> Buffers {
        POOL.try_with(Cell::take).unwrap_or_default()
    }

    /// Bytes of capacity held.
    fn capacity_bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<NodeRec>()
            + self.attrs.capacity() * size_of::<RawAttr>()
            + self.open.capacity() * size_of::<(u32, Span)>()
            + self.side.capacity()
    }

    /// Empties the buffers into the pool, unless they hold more than
    /// [`POOL_CAP_BYTES`]: then they are freed.
    fn give_back(mut self) {
        if self.capacity_bytes() > POOL_CAP_BYTES {
            return;
        }
        self.nodes.clear();
        self.attrs.clear();
        self.open.clear();
        self.side.clear();
        // a thread being torn down has no pool: the buffers are freed
        let _ = POOL.try_with(|pool| pool.set(self));
    }
}

/// A parsed document.
#[derive(Debug, Clone)]
pub struct Document<'a> {
    body: &'a str,
    bufs: Buffers,
}

impl Drop for Document<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.bufs).give_back();
    }
}

/// A node handed out while iterating children.
#[derive(Debug, Clone, Copy)]
pub enum Node<'d> {
    /// An element.
    Element(Element<'d>),
    /// A text run (entity-decoded, never whitespace-only).
    Text(&'d str),
    /// A comment.
    Comment(&'d str),
}

/// A handle on one element of a [`Document`].
#[derive(Debug, Clone, Copy)]
pub struct Element<'d> {
    doc: &'d Document<'d>,
    id: u32,
}

impl<'a> Document<'a> {
    /// Parses HTML into a document, in one pass over `input`.
    pub fn parse(input: &'a str) -> Result<Document<'a>> {
        let mut lexer = Lexer::new(input)?;
        // The buffers are locals while they fill, so the loop can keep
        // their lengths in registers, and a [`Document`] once built.
        let Buffers {
            mut nodes,
            mut attrs,
            mut open,
            mut side,
        } = Buffers::take();
        // Generated pages hold a node per 17 bytes or more and an attribute
        // per 34: sized a little denser, neither vector regrows on them.
        nodes.reserve(input.len() / 16 + 2);
        attrs.reserve(input.len() / 32 + 1);
        let leaf = |kind, span, at: usize| NodeRec {
            span,
            end: at as u32 + 1,
            attrs: (0, 0),
            data_attr: NONE,
            kind,
            marks: 0,
        };
        // A name's span is always in the body; names compare as bytes.
        let name = |s: Span| s.bytes(input.as_bytes(), &[]);
        nodes.push(leaf(Kind::Root, Span::EMPTY, 0));
        loop {
            let tok = match lexer.next_token(&mut attrs, &mut side) {
                Ok(Some(tok)) => tok,
                Ok(None) => break,
                Err(e) => {
                    let bufs = Buffers {
                        nodes,
                        attrs,
                        open,
                        side,
                    };
                    bufs.give_back();
                    return Err(e);
                }
            };
            // `Lexer::new` bounds the input, and every node takes a byte
            let id = nodes.len();
            match tok {
                RawToken::Doctype(_) => {}
                RawToken::Comment(c) => nodes.push(leaf(Kind::Comment, c, id)),
                RawToken::Text(t) => {
                    // `!t.trim().is_empty()`, stopping at the first
                    // non-blank char instead of trimming both ends
                    if t.get(input, &side).chars().any(|c| !c.is_whitespace()) {
                        nodes.push(leaf(Kind::Text, t, id));
                    }
                }
                RawToken::Open {
                    name: tag,
                    attrs: range,
                    self_closing,
                } => {
                    let mut rec = leaf(Kind::Element, tag, id);
                    rec.attrs = (range.start, range.end);
                    let own = attrs.get(range.start as usize..).unwrap_or(&[]);
                    let mut class_seen = false;
                    for (i, a) in (range.start..).zip(own) {
                        let an = name(a.name);
                        if rec.data_attr == NONE && an.eq_ignore_ascii_case(b"data-attr") {
                            rec.data_attr = i;
                        } else if !class_seen && an.eq_ignore_ascii_case(b"class") {
                            class_seen = true;
                            rec.marks = class_marks(a.value.get(input, &side));
                        }
                    }
                    nodes.push(rec);
                    let tag_name = name(tag);
                    let void = || VOID_TAGS.iter().any(|v| v.eq_ignore_ascii_case(tag_name));
                    if !self_closing && !void() {
                        open.push((id as u32, tag));
                    }
                }
                RawToken::Close(closed) => {
                    // Close the matching open element together with
                    // everything auto-closed above it; a close tag that
                    // matches nothing open is ignored.
                    let closed = name(closed);
                    if let Some(pos) = open
                        .iter()
                        .rposition(|&(_, tag)| name(tag).eq_ignore_ascii_case(closed))
                    {
                        for (e, _) in open.drain(pos..) {
                            if let Some(rec) = nodes.get_mut(e as usize) {
                                rec.end = id as u32;
                            }
                        }
                    }
                }
            }
        }
        // implicitly close anything left open, the root included
        let end = nodes.len() as u32;
        for (e, _) in open.drain(..).chain([(0, Span::EMPTY)]) {
            if let Some(rec) = nodes.get_mut(e as usize) {
                rec.end = end;
            }
        }
        let bufs = Buffers {
            nodes,
            attrs,
            open,
            side,
        };
        Ok(Document { body: input, bufs })
    }

    /// Number of nodes (elements, text runs and comments).
    pub fn len(&self) -> usize {
        self.bufs.nodes.len() - 1
    }

    /// True if the page held no node at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn rec(&self, id: u32) -> Option<&NodeRec> {
        self.bufs.nodes.get(id as usize)
    }

    /// The string `span` names in this document.
    fn str(&self, span: Span) -> &str {
        span.get(self.body, &self.bufs.side)
    }

    /// One past the last node of `id`'s subtree, which starts at `id + 1`.
    pub(crate) fn end_of(&self, id: u32) -> u32 {
        self.rec(id).map_or(id, |r| r.end)
    }

    /// The `MARK_*` bits of node `id`.
    pub(crate) fn marks(&self, id: u32) -> u8 {
        self.rec(id).map_or(0, |r| r.marks)
    }

    fn attrs_of(&self, id: u32) -> &[RawAttr] {
        self.rec(id)
            .and_then(|r| self.bufs.attrs.get(r.attrs.0 as usize..r.attrs.1 as usize))
            .unwrap_or(&[])
    }

    /// Whether the first `data-attr` attribute of node `id` reads `name`.
    #[inline]
    pub(crate) fn data_attr_is(&self, id: u32, name: &str) -> bool {
        let at = self.rec(id).map_or(NONE, |r| r.data_attr);
        self.bufs.attrs.get(at as usize).is_some_and(|a| {
            a.value
                .bytes(self.body.as_bytes(), self.bufs.side.as_bytes())
                == name.as_bytes()
        })
    }

    /// The value of attribute `name` (ASCII case-insensitive) of node `id`.
    pub(crate) fn attr(&self, id: u32, name: &str) -> Option<&str> {
        self.attrs_of(id).iter().find_map(|a| {
            let found = self.str(a.name).eq_ignore_ascii_case(name);
            found.then(|| self.str(a.value))
        })
    }

    /// The children of `parent`, by index: each step jumps over a subtree.
    pub(crate) fn child_ids(&self, parent: u32) -> impl Iterator<Item = u32> + '_ {
        let end = self.end_of(parent);
        let mut next = parent + 1;
        std::iter::from_fn(move || {
            (next < end).then(|| {
                let id = next;
                next = self.end_of(id); // past `id`: a subtree holds its root
                id
            })
        })
    }

    /// All text below node `id`, concatenated and trimmed.
    pub(crate) fn text_content(&self, id: u32) -> String {
        let range = id as usize + 1..self.end_of(id) as usize;
        let mut texts = (self.bufs.nodes.get(range).unwrap_or(&[]).iter())
            .filter(|n| n.kind == Kind::Text)
            .map(|n| self.str(n.span));
        let first = texts.next().unwrap_or("");
        match texts.next() {
            // the usual `<span>value</span>`: one copy, already trimmed
            None => first.trim().to_owned(),
            Some(second) => {
                let mut out = String::from(first.trim_start());
                out.push_str(second);
                texts.for_each(|t| out.push_str(t));
                // no text node is blank, so only the two ends need trimming
                out.truncate(out.trim_end().len());
                out
            }
        }
    }

    fn element(&self, id: u32) -> Option<Element<'_>> {
        (self.rec(id)?.kind == Kind::Element).then_some(Element { doc: self, id })
    }

    /// The children of `parent` as [`Node`]s.
    fn child_nodes(&self, parent: u32) -> impl Iterator<Item = Node<'_>> {
        self.child_ids(parent).filter_map(move |id| {
            let rec = self.rec(id)?;
            Some(match rec.kind {
                Kind::Element => Node::Element(Element { doc: self, id }),
                Kind::Text => Node::Text(self.str(rec.span)),
                Kind::Comment => Node::Comment(self.str(rec.span)),
                Kind::Root => return None,
            })
        })
    }

    /// Top-level nodes in document order (usually a comment or two plus
    /// `<html>`; a doctype leaves no node).
    pub fn roots(&self) -> impl Iterator<Item = Node<'_>> {
        self.child_nodes(0)
    }

    /// Root elements (skipping text/comments).
    pub fn root_elements(&self) -> impl Iterator<Item = Element<'_>> {
        self.child_ids(0).filter_map(|id| self.element(id))
    }

    /// The first element whose `class` carries all of `marks`.
    pub(crate) fn first_marked(&self, marks: u8) -> Option<u32> {
        let at = (self.bufs.nodes.iter()).position(|n| n.marks & marks == marks)?;
        Some(at as u32)
    }
}

impl<'d> Element<'d> {
    /// The element's index in the arena.
    pub(crate) fn id(self) -> u32 {
        self.id
    }

    /// The tag name as written on the page (any case).
    pub fn tag(self) -> &'d str {
        self.doc.rec(self.id).map_or("", |r| self.doc.str(r.span))
    }

    /// Attributes in document order, names as written.
    pub fn attrs(self) -> impl Iterator<Item = Attr<'d>> {
        let doc = self.doc;
        doc.attrs_of(self.id).iter().map(move |a| Attr {
            name: doc.str(a.name),
            value: Cow::Borrowed(doc.str(a.value)),
        })
    }

    /// Children in document order.
    pub fn children(self) -> impl Iterator<Item = Node<'d>> {
        self.doc.child_nodes(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The elements of `d` in index (= document) order.
    fn elements<'d>(d: &'d Document<'d>) -> impl Iterator<Item = Element<'d>> {
        (1..d.end_of(0)).filter_map(|id| d.element(id))
    }

    /// The first element tagged `tag` (any case), in document order.
    fn first<'d>(d: &'d Document<'d>, tag: &str) -> Element<'d> {
        elements(d)
            .find(|e| e.tag().eq_ignore_ascii_case(tag))
            .unwrap()
    }

    fn child_elements(e: Element<'_>) -> impl Iterator<Item = Element<'_>> {
        e.children().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    #[test]
    fn parses_nested_structure() {
        let d = Document::parse("<html><body><p>one</p><p>two</p></body></html>").unwrap();
        let html = d.root_elements().next().unwrap();
        assert_eq!(html.tag(), "html");
        let body = child_elements(html).next().unwrap();
        assert_eq!(child_elements(body).count(), 2);
    }

    #[test]
    fn text_content_concatenates() {
        let d = Document::parse("<p>a <b>bold</b> c</p>").unwrap();
        assert_eq!(d.text_content(first(&d, "p").id()), "a bold c");
        let d = Document::parse("<p> \u{a0}<i> x </i>&nbsp;</p><q> y </q><s></s>").unwrap();
        assert_eq!(d.text_content(first(&d, "p").id()), "x");
        assert_eq!(d.text_content(first(&d, "q").id()), "y");
        assert_eq!(d.text_content(first(&d, "s").id()), "");
    }

    #[test]
    fn void_elements_take_no_children() {
        let d = Document::parse("<p>x<br>y</p>").unwrap();
        let p = first(&d, "p");
        let br = child_elements(p).next().unwrap();
        assert_eq!(br.tag(), "br");
        assert_eq!(br.children().count(), 0);
        assert_eq!(d.text_content(p.id()), "xy");
    }

    #[test]
    fn auto_close_on_mismatch() {
        // <b> never closed; </p> should auto-close it.
        let d = Document::parse("<p><b>bold</p>after").unwrap();
        let p = first(&d, "p");
        assert!(child_elements(p).any(|e| e.tag() == "b"));
        assert_eq!(d.text_content(p.id()), "bold");
    }

    #[test]
    fn stray_close_ignored() {
        let d = Document::parse("</div><p>ok</p>").unwrap();
        assert_eq!(d.root_elements().next().unwrap().tag(), "p");
    }

    #[test]
    fn unclosed_at_eof() {
        let d = Document::parse("<div><p>dangling").unwrap();
        let div = first(&d, "div");
        assert!(child_elements(div).any(|e| e.tag() == "p"));
    }

    #[test]
    fn class_words_set_marks() {
        // the first `class` is split into words on any whitespace, Unicode
        // included; a mark is a whole, case-sensitive word
        let d = Document::parse(
            "<div class=\"chrome adm-list\tadm-row\" class=adm-page></div>\
             <p class=\"adm-pages ADM-ROW\"></p><i class=\"x\u{2003}adm-page\"></i>",
        )
        .unwrap();
        assert_eq!(d.marks(first(&d, "div").id()), MARK_LIST | MARK_ROW);
        assert_eq!(d.marks(first(&d, "p").id()), 0);
        assert_eq!(d.marks(first(&d, "i").id()), MARK_PAGE);
        // '\x0B' is whitespace to `char::is_whitespace` (not to
        // `u8::is_ascii_whitespace`); '\x1F' is not
        for (class, marks) in [
            ("adm-row\x0Badm-list", MARK_ROW | MARK_LIST),
            ("\x0C\radm-row\n", MARK_ROW),
            ("adm-row\x1Fadm-list", 0),
            ("\u{a0}adm-page\u{85}", MARK_PAGE),
        ] {
            assert_eq!(class_marks(class), marks, "{class:?}");
        }
    }

    /// The marks of `class` read through `str::split_whitespace` alone.
    fn reference_marks(class: &str) -> u8 {
        let words = class.split_whitespace();
        words.fold(0, |m, w| match w {
            "adm-list" => m | MARK_LIST,
            "adm-row" => m | MARK_ROW,
            "adm-page" => m | MARK_PAGE,
            _ => m,
        })
    }

    #[test]
    fn class_marks_split_as_split_whitespace_does() {
        // every ASCII byte and a few others between two marked words
        let others = ['\u{85}', '\u{a0}', '\u{2003}', '\u{3000}', 'é', '\u{200B}'];
        for c in (0..0x80u8).map(char::from).chain(others) {
            for class in [format!("adm-row{c}adm-list"), format!("{c}adm-page{c}")] {
                assert_eq!(class_marks(&class), reference_marks(&class), "{class:?}");
            }
        }
    }

    #[test]
    fn first_marked_is_depth_first() {
        let d = Document::parse(
            "<div><span class=adm-page id=\"a\"><span class=adm-page id=\"b\"></span></span>\
             <span class=adm-page id=\"c\"></span></div>",
        )
        .unwrap();
        let first = d.first_marked(MARK_PAGE).unwrap();
        assert_eq!(d.attr(first, "id"), Some("a"));
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let d = Document::parse("<ul>\n  <li>x</li>\n</ul>").unwrap();
        assert_eq!(first(&d, "ul").children().count(), 1);
    }

    #[test]
    fn a_subtree_is_an_index_range() {
        let d = Document::parse("<a><b><c></c></b><d></d></a>").unwrap();
        let a = first(&d, "a").id();
        assert_eq!(d.end_of(a) - a - 1, 3);
    }

    #[test]
    fn names_match_in_any_case_without_being_copied() {
        let d = Document::parse("<DIV Class=\"adm-page\" DATA-ATTR=\"X\">t</div>").unwrap();
        let div = d.root_elements().next().unwrap();
        assert_eq!(div.tag(), "DIV");
        assert_eq!(d.attr(div.id(), "data-attr"), Some("X"));
        assert!(d.data_attr_is(div.id(), "X"));
        assert!(!d.data_attr_is(div.id(), "x"), "a value is case-sensitive");
        assert_eq!(d.first_marked(MARK_PAGE), Some(div.id()));
        // the mixed-case close tag closed it: the text is its only child
        assert_eq!(div.children().count(), 1);
    }

    /// Bytes of capacity in this thread's pool.
    fn pooled_bytes() -> usize {
        POOL.with(|pool| {
            let bufs = pool.take();
            let bytes = bufs.capacity_bytes();
            pool.set(bufs);
            bytes
        })
    }

    #[test]
    fn a_dropped_document_leaves_its_buffers_to_the_next_parse() {
        let html = "<ul class=adm-list><li class=adm-row>a &amp; b</li></ul>";
        drop(Document::parse(html).unwrap());
        let pooled = pooled_bytes();
        assert!(pooled > 0);
        let d = Document::parse(html).unwrap();
        assert_eq!(pooled_bytes(), 0, "the document holds the buffers");
        assert_eq!(d.text_content(1), "a & b");
        drop(d);
        assert_eq!(pooled_bytes(), pooled, "given back, not regrown");
        // a page that does not lex gives the buffers back as well
        assert!(Document::parse("<p>x</p><a href=\"y").is_err());
        assert_eq!(pooled_bytes(), pooled);
    }

    #[test]
    fn a_page_larger_than_the_pool_cap_is_not_kept() {
        let row = "<li class=adm-row><span data-attr=N>x</span></li>";
        let big = format!("<ul>{}</ul>", row.repeat(POOL_CAP_BYTES / row.len() + 1));
        let d = Document::parse(&big).unwrap();
        assert!(d.bufs.capacity_bytes() > POOL_CAP_BYTES);
        assert_eq!(d.len(), 1 + 3 * (POOL_CAP_BYTES / row.len() + 1));
        drop(d);
        assert_eq!(pooled_bytes(), 0, "freed, not pooled");
        drop(Document::parse(row).unwrap());
        assert!((1..=POOL_CAP_BYTES).contains(&pooled_bytes()));
    }

    #[test]
    fn two_documents_alive_on_one_thread_both_parse() {
        let one = "<p class=adm-page data-attr=A>one &lt;1&gt;</p><br>";
        let two = "<div><i title='t &amp; u'>two</i> &amp; more</div>";
        let a = Document::parse(one).unwrap();
        let b = Document::parse(two).unwrap();
        let c = Document::parse(one).unwrap();
        for d in [&a, &c] {
            let p = first(d, "p");
            assert_eq!(d.text_content(p.id()), "one <1>");
            assert!(d.data_attr_is(p.id(), "A"));
            assert_eq!(d.first_marked(MARK_PAGE), Some(p.id()));
            assert_eq!(d.len(), 3);
        }
        let div = first(&b, "div");
        assert_eq!(b.text_content(div.id()), "two & more");
        assert_eq!(b.attr(first(&b, "i").id(), "title"), Some("t & u"));
        drop(a);
        // the next parse reuses what `a` left; `b` and `c` are untouched
        let d = Document::parse(two).unwrap();
        assert_eq!(d.text_content(first(&d, "div").id()), "two & more");
        assert_eq!(b.text_content(div.id()), "two & more");
        assert_eq!(c.text_content(first(&c, "p").id()), "one <1>");
    }

    #[test]
    fn index_order_is_preorder_and_subtrees_are_ranges() {
        let d = Document::parse("<a><b>x<c></c></b><!-- n --><d></d></a><e></e>").unwrap();
        let tags: Vec<_> = elements(&d).map(|e| e.tag()).collect();
        assert_eq!(tags, ["a", "b", "c", "d", "e"]);
        let kinds: Vec<_> = first(&d, "a")
            .children()
            .map(|n| match n {
                Node::Element(e) => e.tag(),
                Node::Text(t) => t,
                Node::Comment(c) => c,
            })
            .collect();
        assert_eq!(kinds, ["b", "n", "d"]);
        assert_eq!(d.len(), 7);
    }
}
