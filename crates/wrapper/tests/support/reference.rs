//! The reference wrapper: the owned-`String` tokenizer, the
//! `Vec<Node>`-of-`Vec<Node>` tree and the recursive extraction that were
//! `crates/wrapper/src/{lexer,dom,wrap}.rs` before the zero-copy rewrite,
//! moved here verbatim (imports re-pointed, unit tests and the columnar
//! adapter left behind). Test-only: `differential.rs` holds the product to
//! this code's answers, `Ok` and `Err` alike. It recurses once per nesting
//! level, so keep it away from pathologically deep input.
#![allow(dead_code)]

pub mod lexer {
    //! HTML tokenizer.
    //!
    //! Produces a flat token stream: open tags (with parsed attributes), close
    //! tags, text runs (entity-decoded), comments, and doctype declarations.
    //! The tokenizer is tolerant in the ways real-world HTML demands: attribute
    //! values may be double-quoted, single-quoted, or bare; unknown entities
    //! pass through literally; stray `<` in text is treated as text.

    use wrapper::{Result, WrapError};

    /// One HTML token.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Token {
        /// `<tag a="b" …>`; `self_closing` for `<tag/>`.
        Open {
            /// Lower-cased tag name.
            name: String,
            /// Attribute pairs in order; values entity-decoded.
            attrs: Vec<(String, String)>,
            /// Whether the tag ended with `/>`.
            self_closing: bool,
        },
        /// `</tag>`.
        Close(String),
        /// A text run, entity-decoded. Never empty.
        Text(String),
        /// `<!-- … -->` content.
        Comment(String),
        /// `<!DOCTYPE …>` content.
        Doctype(String),
    }

    /// Decodes the HTML entities the generator emits (plus numeric forms).
    /// Unknown entities are passed through unchanged. Fails (instead of
    /// panicking) if the scan ever lands between UTF-8 char boundaries —
    /// which garbled input must not be able to provoke.
    pub fn decode_entities(s: &str) -> Result<String> {
        let mut out = String::with_capacity(s.len());
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'&' {
                if let Some(semi) = s.get(i..).and_then(|r| r.find(';')).map(|j| i + j) {
                    let entity = s.get(i + 1..semi).unwrap_or("");
                    let decoded = match entity {
                        "amp" => Some('&'),
                        "lt" => Some('<'),
                        "gt" => Some('>'),
                        "quot" => Some('"'),
                        "apos" => Some('\''),
                        "nbsp" => Some('\u{a0}'),
                        // numeric references are digits only: `u32`'s
                        // parsers would also take a leading `+`
                        _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                            let hex = &entity[2..];
                            (hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .then(|| u32::from_str_radix(hex, 16).ok())
                                .flatten()
                                .and_then(char::from_u32)
                        }
                        _ if entity.starts_with('#') => {
                            let digits = &entity[1..];
                            (digits.bytes().all(|b| b.is_ascii_digit()))
                                .then(|| digits.parse::<u32>().ok())
                                .flatten()
                                .and_then(char::from_u32)
                        }
                        _ => None,
                    };
                    if let Some(c) = decoded {
                        out.push(c);
                        i = semi + 1;
                        continue;
                    }
                }
            }
            // plain byte — copy the full UTF-8 char
            let Some(ch) = s.get(i..).and_then(|r| r.chars().next()) else {
                return Err(WrapError::Lex {
                    offset: i,
                    message: "entity scan desynchronized from char boundaries".into(),
                });
            };
            out.push(ch);
            i += ch.len_utf8();
        }
        Ok(out)
    }

    /// Tokenizes an HTML document.
    pub fn tokenize(input: &str) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        let bytes = input.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'<' {
                if input[i..].starts_with("<!--") {
                    let end = input[i + 4..].find("-->").ok_or(WrapError::Lex {
                        offset: i,
                        message: "unterminated comment".into(),
                    })?;
                    tokens.push(Token::Comment(input[i + 4..i + 4 + end].trim().to_string()));
                    i += 4 + end + 3;
                } else if input[i..].starts_with("<!") {
                    let end = input[i..].find('>').ok_or(WrapError::Lex {
                        offset: i,
                        message: "unterminated declaration".into(),
                    })?;
                    tokens.push(Token::Doctype(input[i + 2..i + end].trim().to_string()));
                    i += end + 1;
                } else if input[i..].starts_with("</") {
                    let end = input[i..].find('>').ok_or(WrapError::Lex {
                        offset: i,
                        message: "unterminated close tag".into(),
                    })?;
                    let name = input[i + 2..i + end].trim().to_ascii_lowercase();
                    tokens.push(Token::Close(name));
                    i += end + 1;
                } else if i + 1 < bytes.len() && (bytes[i + 1].is_ascii_alphabetic()) {
                    let (tok, next) = lex_open_tag(input, i)?;
                    tokens.push(tok);
                    i = next;
                } else {
                    // stray '<' — treat as text
                    push_text(&mut tokens, "<");
                    i += 1;
                }
            } else {
                let end = input[i..].find('<').map(|j| i + j).unwrap_or(bytes.len());
                let text = decode_entities(&input[i..end])?;
                push_text(&mut tokens, &text);
                i = end;
            }
        }
        Ok(tokens)
    }

    fn push_text(tokens: &mut Vec<Token>, text: &str) {
        if text.is_empty() {
            return;
        }
        if let Some(Token::Text(prev)) = tokens.last_mut() {
            prev.push_str(text);
        } else {
            tokens.push(Token::Text(text.to_string()));
        }
    }

    /// Lexes an open tag starting at `start` (which points at `<`).
    /// Returns the token and the index just past `>`.
    fn lex_open_tag(input: &str, start: usize) -> Result<(Token, usize)> {
        let bytes = input.as_bytes();
        let mut i = start + 1;
        let name_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-') {
            i += 1;
        }
        let name = input[name_start..i].to_ascii_lowercase();
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            // skip whitespace
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(WrapError::Lex {
                    offset: start,
                    message: format!("unterminated tag <{name}"),
                });
            }
            match bytes[i] {
                b'>' => {
                    i += 1;
                    break;
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    // attribute name
                    let an_start = i;
                    while i < bytes.len()
                        && !bytes[i].is_ascii_whitespace()
                        && bytes[i] != b'='
                        && bytes[i] != b'>'
                        && bytes[i] != b'/'
                    {
                        i += 1;
                    }
                    let an = input[an_start..i].to_ascii_lowercase();
                    if an.is_empty() {
                        return Err(WrapError::Lex {
                            offset: i,
                            message: "empty attribute name".into(),
                        });
                    }
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let value = if i < bytes.len() && bytes[i] == b'=' {
                        i += 1;
                        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                            i += 1;
                        }
                        if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                            let quote = bytes[i];
                            i += 1;
                            let v_start = i;
                            while i < bytes.len() && bytes[i] != quote {
                                i += 1;
                            }
                            if i >= bytes.len() {
                                return Err(WrapError::Lex {
                                    offset: v_start,
                                    message: "unterminated attribute value".into(),
                                });
                            }
                            let v = decode_entities(&input[v_start..i])?;
                            i += 1; // past quote
                            v
                        } else {
                            let v_start = i;
                            while i < bytes.len()
                                && !bytes[i].is_ascii_whitespace()
                                && bytes[i] != b'>'
                            {
                                i += 1;
                            }
                            decode_entities(&input[v_start..i])?
                        }
                    } else {
                        String::new() // boolean attribute
                    };
                    attrs.push((an, value));
                }
            }
        }
        Ok((
            Token::Open {
                name,
                attrs,
                self_closing,
            },
            i,
        ))
    }
}

pub mod dom {
    //! A tiny document object model built from the token stream.
    //!
    //! Parsing is tolerant: a close tag with no matching open is ignored; a
    //! close tag matching a non-top element auto-closes the elements above it;
    //! void elements (`br`, `img`, …) never take children; anything left open
    //! at end-of-input is closed implicitly.

    use super::lexer::{tokenize, Token};
    use wrapper::{Result, WrapError};

    /// Element tags that never have children.
    const VOID_TAGS: &[&str] = &["br", "hr", "img", "meta", "link", "input"];

    /// A DOM node.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Node {
        /// An element.
        Element(Element),
        /// A text run.
        Text(String),
        /// A comment.
        Comment(String),
    }

    /// A DOM element.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Element {
        /// Lower-case tag name.
        pub tag: String,
        /// Attributes in document order.
        pub attrs: Vec<(String, String)>,
        /// Children in document order.
        pub children: Vec<Node>,
    }

    impl Element {
        /// The value of an attribute, if present.
        pub fn attr(&self, name: &str) -> Option<&str> {
            self.attrs
                .iter()
                .find_map(|(n, v)| (n == name).then_some(v.as_str()))
        }

        /// True if the space-separated `class` attribute contains `class_name`.
        pub fn has_class(&self, class_name: &str) -> bool {
            self.attr("class")
                .is_some_and(|c| c.split_whitespace().any(|x| x == class_name))
        }

        /// Child elements (skipping text/comments).
        pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
            self.children.iter().filter_map(|n| match n {
                Node::Element(e) => Some(e),
                _ => None,
            })
        }

        /// All text content, concatenated and trimmed.
        pub fn text_content(&self) -> String {
            let mut out = String::new();
            fn walk(e: &Element, out: &mut String) {
                for c in &e.children {
                    match c {
                        Node::Text(t) => out.push_str(t),
                        Node::Element(inner) => walk(inner, out),
                        Node::Comment(_) => {}
                    }
                }
            }
            walk(self, &mut out);
            out.trim().to_string()
        }

        /// Depth-first search over all descendant elements (self excluded).
        pub fn descendants(&self) -> Vec<&Element> {
            let mut out = Vec::new();
            fn walk<'a>(e: &'a Element, out: &mut Vec<&'a Element>) {
                for c in e.child_elements() {
                    out.push(c);
                    walk(c, out);
                }
            }
            walk(self, &mut out);
            out
        }

        /// The first descendant satisfying the predicate, DFS order.
        pub fn find(&self, pred: impl Fn(&Element) -> bool + Copy) -> Option<&Element> {
            for c in self.child_elements() {
                if pred(c) {
                    return Some(c);
                }
                if let Some(found) = c.find(pred) {
                    return Some(found);
                }
            }
            None
        }
    }

    /// A parsed document.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Document {
        /// Top-level nodes (usually a doctype comment plus `<html>`).
        pub roots: Vec<Node>,
    }

    impl Document {
        /// Parses HTML into a document.
        pub fn parse(input: &str) -> Result<Document> {
            let tokens = tokenize(input)?;
            let mut stack: Vec<Element> = Vec::new();
            let mut roots: Vec<Node> = Vec::new();

            fn attach(stack: &mut [Element], roots: &mut Vec<Node>, node: Node) {
                if let Some(top) = stack.last_mut() {
                    top.children.push(node);
                } else {
                    roots.push(node);
                }
            }

            for tok in tokens {
                match tok {
                    Token::Doctype(_) => {}
                    Token::Comment(c) => attach(&mut stack, &mut roots, Node::Comment(c)),
                    Token::Text(t) => {
                        if !t.trim().is_empty() {
                            attach(&mut stack, &mut roots, Node::Text(t));
                        }
                    }
                    Token::Open {
                        name,
                        attrs,
                        self_closing,
                    } => {
                        let e = Element {
                            tag: name.clone(),
                            attrs,
                            children: Vec::new(),
                        };
                        if self_closing || VOID_TAGS.contains(&name.as_str()) {
                            attach(&mut stack, &mut roots, Node::Element(e));
                        } else {
                            stack.push(e);
                        }
                    }
                    Token::Close(name) => {
                        // Find the matching open element in the stack, then
                        // close it together with everything auto-closed above
                        // it. The pops are bounded by `pos`, so an exhausted
                        // stack means the parser lost track of nesting — an
                        // error, not a panic.
                        if let Some(pos) = stack.iter().rposition(|e| e.tag == name) {
                            while stack.len() > pos {
                                let Some(closed) = stack.pop() else {
                                    return Err(WrapError::BadStructure(format!(
                                        "element stack exhausted while closing </{name}>"
                                    )));
                                };
                                attach(&mut stack, &mut roots, Node::Element(closed));
                            }
                        }
                        // otherwise: stray close tag, ignored
                    }
                }
            }
            // implicitly close anything left open
            while let Some(e) = stack.pop() {
                attach(&mut stack, &mut roots, Node::Element(e));
            }
            Ok(Document { roots })
        }

        /// Root elements (skipping text/comments).
        pub fn root_elements(&self) -> impl Iterator<Item = &Element> {
            self.roots.iter().filter_map(|n| match n {
                Node::Element(e) => Some(e),
                _ => None,
            })
        }

        /// The first element in the document satisfying the predicate.
        pub fn find(&self, pred: impl Fn(&Element) -> bool + Copy) -> Option<&Element> {
            for r in self.root_elements() {
                if pred(r) {
                    return Some(r);
                }
                if let Some(found) = r.find(pred) {
                    return Some(found);
                }
            }
            None
        }
    }
}

pub mod wrap {
    //! Scheme-driven extraction of nested tuples from HTML.
    //!
    //! Extraction is scoped by nesting level: when looking for the attributes
    //! of one level (the page's top level, or one list row), the search never
    //! descends *into* a nested `adm-list` element — so attribute names inside
    //! inner lists cannot shadow or be confused with outer ones (e.g.
    //! `SessionPage.Session` vs the `CName` entries inside its `CourseList`).

    use super::dom::{Document, Element};
    use adm::{Field, PageScheme, Tuple, Value, WebType};
    use wrapper::{Result, WrapError};

    /// Finds the element carrying `data-attr == name` within `scope`, without
    /// crossing into nested lists.
    fn find_scoped<'a>(scope: &'a Element, name: &str) -> Option<&'a Element> {
        for c in scope.child_elements() {
            if c.attr("data-attr") == Some(name) {
                return Some(c);
            }
            if c.has_class("adm-list") {
                continue; // do not descend into a nested level
            }
            if let Some(found) = find_scoped(c, name) {
                return Some(found);
            }
        }
        None
    }

    /// Extracts one attribute value from its element.
    fn extract_value(field: &Field, el: &Element) -> Result<Value> {
        match &field.ty {
            WebType::Text => Ok(Value::Text(el.text_content())),
            WebType::Image => {
                let src = el.attr("src").ok_or_else(|| {
                    WrapError::BadStructure(format!("image attribute `{}` has no src", field.name))
                })?;
                Ok(Value::Text(src.to_string()))
            }
            WebType::Link { .. } => {
                let href = el
                    .attr("href")
                    .ok_or_else(|| WrapError::MissingHref(field.name.clone()))?;
                Ok(Value::Link(adm::Url::new(href)))
            }
            WebType::List(inner) => {
                if !el.has_class("adm-list") {
                    return Err(WrapError::BadStructure(format!(
                        "attribute `{}` is a list but its element is not marked adm-list",
                        field.name
                    )));
                }
                let mut rows = Vec::new();
                for li in el.child_elements().filter(|e| e.has_class("adm-row")) {
                    rows.push(extract_fields(inner, li, &field.name)?);
                }
                Ok(Value::List(rows))
            }
        }
    }

    /// Extracts all fields of one nesting level as a flat value row, in scheme
    /// order. The shared core of both the tuple and the columnar wrapper.
    fn extract_row(fields: &[Field], scope: &Element, context: &str) -> Result<Vec<Value>> {
        let mut vals = Vec::with_capacity(fields.len());
        for f in fields {
            match find_scoped(scope, &f.name) {
                Some(el) => vals.push(extract_value(f, el)?),
                None if f.optional => vals.push(Value::Null),
                None if matches!(f.ty, WebType::List(_)) => {
                    // An empty list legitimately renders as an empty <ul>; if
                    // even the <ul> is missing, treat as empty list as well —
                    // real sites omit empty sections.
                    vals.push(Value::List(vec![]));
                }
                None => {
                    return Err(WrapError::MissingAttribute {
                        attr: f.name.clone(),
                        scheme: context.to_string(),
                    });
                }
            }
        }
        Ok(vals)
    }

    /// Extracts all fields of one nesting level from a scope element.
    fn extract_fields(fields: &[Field], scope: &Element, context: &str) -> Result<Tuple> {
        let vals = extract_row(fields, scope, context)?;
        Ok(Tuple::from_pairs(
            fields.iter().map(|f| f.name.clone()).zip(vals).collect(),
        ))
    }

    /// Wraps a page: parses `html` and extracts the nested tuple described by
    /// `scheme`. The returned tuple conforms to the scheme's fields.
    pub fn wrap_page(scheme: &PageScheme, html: &str) -> Result<Tuple> {
        let doc = Document::parse(html)?;
        // Prefer the marked content container; fall back to the whole <html>
        // tree for pages without one (robustness against hand-written pages).
        let tuple = if let Some(container) = doc.find(|e| e.has_class("adm-page")) {
            extract_fields(&scheme.fields, container, &scheme.name)?
        } else if let Some(root) = doc.root_elements().next() {
            extract_fields(&scheme.fields, root, &scheme.name)?
        } else {
            return Err(WrapError::BadStructure("empty document".into()));
        };
        Ok(tuple)
    }
}
