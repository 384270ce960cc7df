//! A flat document arena filled straight from the lexer.
//!
//! Parsing is tolerant: a close tag with no matching open is ignored; a
//! close tag matching a non-top element auto-closes the elements above it;
//! void elements (`br`, `img`, …) never take children; anything left open
//! at end-of-input is closed implicitly; whitespace-only text is dropped.
//!
//! A [`Document`] is two vectors sized from the page length: node records
//! and the attributes of all elements. The invariants everything else
//! leans on:
//!
//! * **slices live as long as the body** — tag names, attribute names and
//!   comments are `&'a str` into the page; attribute values and text are
//!   `Cow<'a, str>`, owned only where an entity decoded;
//! * **names are compared, never copied** — [`Element::is_tag`] and
//!   [`Element::attr`] use `eq_ignore_ascii_case`;
//! * **index order is document pre-order** — a node is created when its
//!   tag opens, so an element's subtree is the contiguous index range
//!   `id + 1 .. end`, where `end` is recorded when the element closes. The
//!   first child of `n` is `n + 1` (if below `n`'s `end`), the next sibling
//!   of `c` is `c`'s `end` (if below the parent's): one `u32` stands in for
//!   first-child / last-child / next-sibling links, and "skip this subtree"
//!   is a single jump;
//! * **no recursion anywhere** — every walk is a scan of an index range,
//!   and dropping a document frees two vectors, whatever the nesting depth.

use crate::lexer::{Attr, Lexer, Token};
use crate::Result;
use std::borrow::Cow;

/// Element tags that never have children.
const VOID_TAGS: &[&str] = &["br", "hr", "img", "meta", "link", "input"];

/// "No such attribute" in [`NodeRec::data_attr`].
const NONE: u32 = u32::MAX;

/// `class` contains `adm-list`.
pub(crate) const MARK_LIST: u8 = 1;
/// `class` contains `adm-row`.
pub(crate) const MARK_ROW: u8 = 2;
/// `class` contains `adm-page`.
pub(crate) const MARK_PAGE: u8 = 4;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind<'a> {
    /// The synthetic node 0 whose children are the top-level nodes.
    Root,
    /// An element and its tag name as written.
    Element(&'a str),
    Text(Cow<'a, str>),
    Comment(&'a str),
}

/// One node of the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeRec<'a> {
    kind: Kind<'a>,
    /// One past the last node of this node's subtree.
    end: u32,
    /// This element's attributes in [`Document::attrs`].
    attrs: (u32, u32),
    /// Index of the first `data-attr` attribute, or [`NONE`]. Cached with
    /// `marks` as the node is created: extraction asks for nothing else
    /// while it searches.
    data_attr: u32,
    /// `MARK_*` bits read off the first `class` attribute.
    marks: u8,
}

/// A parsed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document<'a> {
    nodes: Vec<NodeRec<'a>>,
    attrs: Vec<Attr<'a>>,
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
        // Generated pages hold a node per 17 bytes or more and an attribute
        // per 34: sized a little denser, neither vector regrows on them.
        let mut nodes: Vec<NodeRec<'a>> = Vec::with_capacity(input.len() / 16 + 2);
        let mut attrs: Vec<Attr<'a>> = Vec::with_capacity(input.len() / 32 + 1);
        let leaf = |kind, at: usize| NodeRec {
            kind,
            end: at as u32 + 1,
            attrs: (0, 0),
            data_attr: NONE,
            marks: 0,
        };
        nodes.push(leaf(Kind::Root, 0));
        // The elements still open (index and tag name), innermost last.
        let mut open: Vec<(u32, &'a str)> = Vec::with_capacity(32);
        while let Some(tok) = lexer.next_token(&mut attrs)? {
            // `Lexer::new` bounds the input, and every node takes a byte
            let id = nodes.len();
            match tok {
                Token::Doctype(_) => {}
                Token::Comment(c) => nodes.push(leaf(Kind::Comment(c), id)),
                Token::Text(t) => {
                    if !t.trim().is_empty() {
                        nodes.push(leaf(Kind::Text(t), id));
                    }
                }
                Token::Open {
                    name,
                    attrs: range,
                    self_closing,
                } => {
                    let mut rec = leaf(Kind::Element(name), id);
                    rec.attrs = (range.start, range.end);
                    let own = attrs.get(range.start as usize..).unwrap_or(&[]);
                    let mut class_seen = false;
                    for (i, a) in (range.start..).zip(own) {
                        if rec.data_attr == NONE && a.name.eq_ignore_ascii_case("data-attr") {
                            rec.data_attr = i;
                        } else if !class_seen && a.name.eq_ignore_ascii_case("class") {
                            class_seen = true;
                            for word in a.value.split_whitespace() {
                                rec.marks |= match word {
                                    "adm-list" => MARK_LIST,
                                    "adm-row" => MARK_ROW,
                                    "adm-page" => MARK_PAGE,
                                    _ => 0,
                                };
                            }
                        }
                    }
                    nodes.push(rec);
                    if !self_closing && !VOID_TAGS.iter().any(|v| v.eq_ignore_ascii_case(name)) {
                        open.push((id as u32, name));
                    }
                }
                Token::Close(name) => {
                    // Close the matching open element together with
                    // everything auto-closed above it; a close tag that
                    // matches nothing open is ignored.
                    if let Some(pos) = open
                        .iter()
                        .rposition(|(_, tag)| tag.eq_ignore_ascii_case(name))
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
        for (e, _) in open.into_iter().chain([(0, "")]) {
            if let Some(rec) = nodes.get_mut(e as usize) {
                rec.end = end;
            }
        }
        Ok(Document { nodes, attrs })
    }

    /// Number of nodes (elements, text runs and comments).
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True if the page held no node at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn rec(&self, id: u32) -> Option<&NodeRec<'a>> {
        self.nodes.get(id as usize)
    }

    /// One past the last node of `id`'s subtree, which starts at `id + 1`.
    pub(crate) fn end_of(&self, id: u32) -> u32 {
        self.rec(id).map_or(id, |r| r.end)
    }

    /// The `MARK_*` bits of node `id`.
    pub(crate) fn marks(&self, id: u32) -> u8 {
        self.rec(id).map_or(0, |r| r.marks)
    }

    fn attrs_of(&self, id: u32) -> &[Attr<'a>] {
        self.rec(id)
            .and_then(|r| self.attrs.get(r.attrs.0 as usize..r.attrs.1 as usize))
            .unwrap_or(&[])
    }

    /// The value of the first `data-attr` attribute of node `id`.
    pub(crate) fn data_attr(&self, id: u32) -> Option<&str> {
        let at = self.rec(id)?.data_attr;
        self.attrs.get(at as usize).map(|a| &*a.value)
    }

    /// The value of attribute `name` (ASCII case-insensitive) of node `id`.
    pub(crate) fn attr(&self, id: u32, name: &str) -> Option<&str> {
        self.attrs_of(id)
            .iter()
            .find_map(|a| a.name.eq_ignore_ascii_case(name).then_some(&*a.value))
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
        let mut texts = self
            .nodes
            .get(range)
            .unwrap_or(&[])
            .iter()
            .filter_map(|n| match &n.kind {
                Kind::Text(t) => Some(&**t),
                _ => None,
            });
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
        matches!(self.rec(id)?.kind, Kind::Element(_)).then_some(Element { doc: self, id })
    }

    /// The elements with indices in `from..to`, in document order.
    fn elements_in(&self, from: u32, to: u32) -> impl Iterator<Item = Element<'_>> {
        (from..to).filter_map(|id| self.element(id))
    }

    /// The children of `parent` as [`Node`]s.
    fn child_nodes(&self, parent: u32) -> impl Iterator<Item = Node<'_>> {
        self.child_ids(parent).filter_map(move |id| {
            Some(match &self.rec(id)?.kind {
                Kind::Element(_) => Node::Element(Element { doc: self, id }),
                Kind::Text(t) => Node::Text(t),
                Kind::Comment(c) => Node::Comment(c),
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

    /// The first element in the document satisfying the predicate, in
    /// document order.
    pub fn find(&self, pred: impl Fn(Element<'_>) -> bool) -> Option<Element<'_>> {
        self.elements_in(1, self.end_of(0)).find(|&e| pred(e))
    }

    /// The first element whose `class` carries all of `marks`.
    pub(crate) fn first_marked(&self, marks: u8) -> Option<u32> {
        let at = self.nodes.iter().position(|n| n.marks & marks == marks)?;
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
        match self.doc.rec(self.id).map(|r| &r.kind) {
            Some(Kind::Element(tag)) => tag,
            _ => "",
        }
    }

    /// True if the tag name is `name`, ignoring ASCII case.
    pub fn is_tag(self, name: &str) -> bool {
        self.tag().eq_ignore_ascii_case(name)
    }

    /// Attributes in document order, names as written.
    pub fn attrs(self) -> &'d [Attr<'d>] {
        self.doc.attrs_of(self.id)
    }

    /// The value of an attribute, if present. `name` matches ignoring
    /// ASCII case; the first attribute of that name wins.
    pub fn attr(self, name: &str) -> Option<&'d str> {
        self.doc.attr(self.id, name)
    }

    /// True if the space-separated `class` attribute contains `class_name`.
    pub fn has_class(self, class_name: &str) -> bool {
        self.attr("class")
            .is_some_and(|c| c.split_whitespace().any(|x| x == class_name))
    }

    /// Children in document order.
    pub fn children(self) -> impl Iterator<Item = Node<'d>> {
        self.doc.child_nodes(self.id)
    }

    /// Child elements (skipping text/comments).
    pub fn child_elements(self) -> impl Iterator<Item = Element<'d>> {
        let doc = self.doc;
        doc.child_ids(self.id).filter_map(move |id| doc.element(id))
    }

    /// All text content, concatenated and trimmed.
    pub fn text_content(self) -> String {
        self.doc.text_content(self.id)
    }

    /// All descendant elements (self excluded), in document order.
    pub fn descendants(self) -> impl Iterator<Item = Element<'d>> {
        self.doc.elements_in(self.id + 1, self.doc.end_of(self.id))
    }

    /// The first descendant satisfying the predicate, in document order.
    pub fn find(self, pred: impl Fn(Element<'d>) -> bool) -> Option<Element<'d>> {
        self.descendants().find(|&e| pred(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let d = Document::parse("<html><body><p>one</p><p>two</p></body></html>").unwrap();
        let html = d.root_elements().next().unwrap();
        assert_eq!(html.tag(), "html");
        let body = html.child_elements().next().unwrap();
        assert_eq!(body.child_elements().count(), 2);
    }

    #[test]
    fn text_content_concatenates() {
        let d = Document::parse("<p>a <b>bold</b> c</p>").unwrap();
        let p = d.find(|e| e.is_tag("p")).unwrap();
        assert_eq!(p.text_content(), "a bold c");
        let d = Document::parse("<p> \u{a0}<i> x </i>&nbsp;</p><q> y </q><s></s>").unwrap();
        assert_eq!(d.find(|e| e.is_tag("p")).unwrap().text_content(), "x");
        assert_eq!(d.find(|e| e.is_tag("q")).unwrap().text_content(), "y");
        assert_eq!(d.find(|e| e.is_tag("s")).unwrap().text_content(), "");
    }

    #[test]
    fn void_elements_take_no_children() {
        let d = Document::parse("<p>x<br>y</p>").unwrap();
        let p = d.find(|e| e.is_tag("p")).unwrap();
        let br = p.child_elements().next().unwrap();
        assert_eq!(br.tag(), "br");
        assert_eq!(br.children().count(), 0);
        assert_eq!(p.text_content(), "xy");
    }

    #[test]
    fn auto_close_on_mismatch() {
        // <b> never closed; </p> should auto-close it.
        let d = Document::parse("<p><b>bold</p>after").unwrap();
        let p = d.find(|e| e.is_tag("p")).unwrap();
        assert!(p.find(|e| e.is_tag("b")).is_some());
        assert_eq!(p.text_content(), "bold");
    }

    #[test]
    fn stray_close_ignored() {
        let d = Document::parse("</div><p>ok</p>").unwrap();
        assert!(d.find(|e| e.is_tag("p")).is_some());
    }

    #[test]
    fn unclosed_at_eof() {
        let d = Document::parse("<div><p>dangling").unwrap();
        let div = d.find(|e| e.is_tag("div")).unwrap();
        assert!(div.find(|e| e.is_tag("p")).is_some());
    }

    #[test]
    fn has_class_splits_words() {
        let d = Document::parse("<div class=\"chrome footer\"></div>").unwrap();
        let e = d.find(|e| e.is_tag("div")).unwrap();
        assert!(e.has_class("footer"));
        assert!(e.has_class("chrome"));
        assert!(!e.has_class("foo"));
    }

    #[test]
    fn find_is_depth_first() {
        let d = Document::parse(
            "<div><span id=\"a\"><span id=\"b\"></span></span><span id=\"c\"></span></div>",
        )
        .unwrap();
        let first = d.find(|e| e.is_tag("span")).unwrap();
        assert_eq!(first.attr("id"), Some("a"));
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let d = Document::parse("<ul>\n  <li>x</li>\n</ul>").unwrap();
        let ul = d.find(|e| e.is_tag("ul")).unwrap();
        assert_eq!(ul.children().count(), 1);
    }

    #[test]
    fn descendants_counts_all() {
        let d = Document::parse("<a><b><c></c></b><d></d></a>").unwrap();
        let a = d.find(|e| e.is_tag("a")).unwrap();
        assert_eq!(a.descendants().count(), 3);
    }

    #[test]
    fn names_match_in_any_case_without_being_copied() {
        let d = Document::parse("<DIV Class=\"adm-page\" DATA-ATTR=\"X\">t</div>").unwrap();
        let div = d.root_elements().next().unwrap();
        assert_eq!(div.tag(), "DIV");
        assert!(div.is_tag("div"));
        assert_eq!(div.attr("data-attr"), Some("X"));
        assert_eq!(d.data_attr(div.id()), Some("X"));
        assert_eq!(d.first_marked(MARK_PAGE), Some(div.id()));
        // the mixed-case close tag closed it: the text is its only child
        assert_eq!(div.children().count(), 1);
    }

    #[test]
    fn index_order_is_preorder_and_subtrees_are_ranges() {
        let d = Document::parse("<a><b>x<c></c></b><!-- n --><d></d></a><e></e>").unwrap();
        let tags: Vec<_> = d.elements_in(1, d.end_of(0)).map(|e| e.tag()).collect();
        assert_eq!(tags, ["a", "b", "c", "d", "e"]);
        let a = d.find(|e| e.is_tag("a")).unwrap();
        let kinds: Vec<_> = a
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
