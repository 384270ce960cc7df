//! Scheme-driven extraction of nested tuples from HTML.
//!
//! Extraction is scoped by nesting level: when looking for the attributes
//! of one level (the page's top level, or one list row), the search never
//! descends *into* a nested `adm-list` element — so attribute names inside
//! inner lists cannot shadow or be confused with outer ones (e.g.
//! `SessionPage.Session` vs the `CName` entries inside its `CourseList`).

use crate::dom::{Document, MARK_LIST, MARK_PAGE, MARK_ROW};
use crate::error::WrapError;
use crate::Result;
use adm::{ColumnRel, ColumnRelBuilder, Field, PageScheme, Tuple, Value, WebType};

/// Finds the element carrying `data-attr == name` within `scope`, without
/// crossing into nested lists: the first match in document order, where a
/// list element itself may match but its subtree is jumped over.
fn find_scoped(doc: &Document<'_>, scope: u32, name: &str) -> Option<u32> {
    let end = doc.end_of(scope);
    let mut id = scope + 1;
    while id < end {
        if doc.data_attr_is(id, name) {
            return Some(id);
        }
        id = if doc.marks(id) & MARK_LIST != 0 {
            doc.end_of(id) // do not descend into a nested level
        } else {
            id + 1
        };
    }
    None
}

/// Extracts one attribute value from its element.
fn extract_value(doc: &Document<'_>, field: &Field, el: u32) -> Result<Value> {
    match &field.ty {
        WebType::Text => Ok(Value::Text(doc.text_content(el))),
        WebType::Image => {
            let src = doc.attr(el, "src").ok_or_else(|| {
                WrapError::BadStructure(format!("image attribute `{}` has no src", field.name))
            })?;
            Ok(Value::Text(src.to_string()))
        }
        WebType::Link { .. } => {
            let href = doc
                .attr(el, "href")
                .ok_or_else(|| WrapError::MissingHref(field.name.clone()))?;
            Ok(Value::Link(adm::Url::new(href)))
        }
        WebType::List(inner) => {
            if doc.marks(el) & MARK_LIST == 0 {
                return Err(WrapError::BadStructure(format!(
                    "attribute `{}` is a list but its element is not marked adm-list",
                    field.name
                )));
            }
            let is_row = |&child: &u32| doc.marks(child) & MARK_ROW != 0;
            let mut rows = Vec::with_capacity(doc.child_ids(el).filter(is_row).count());
            for row in doc.child_ids(el).filter(is_row) {
                rows.push(extract_fields(doc, inner, row, &field.name)?);
            }
            Ok(Value::List(rows))
        }
    }
}

/// Extracts all fields of one nesting level from a scope element, in
/// scheme order. Recursion follows the *scheme's* list nesting only; the
/// walks over the document are index scans.
fn extract_fields(
    doc: &Document<'_>,
    fields: &[Field],
    scope: u32,
    context: &str,
) -> Result<Tuple> {
    let mut pairs = Vec::with_capacity(fields.len());
    for f in fields {
        let value = match find_scoped(doc, scope, &f.name) {
            Some(el) => extract_value(doc, f, el)?,
            None if f.optional => Value::Null,
            // An empty list legitimately renders as an empty <ul>; if
            // even the <ul> is missing, treat as empty list as well —
            // real sites omit empty sections.
            None if matches!(f.ty, WebType::List(_)) => Value::List(vec![]),
            None => {
                return Err(WrapError::MissingAttribute {
                    attr: f.name.clone(),
                    scheme: context.to_string(),
                });
            }
        };
        pairs.push((f.sym(), value));
    }
    Ok(Tuple::from_pairs(pairs))
}

/// Wraps a page: parses `html` and extracts the nested tuple described by
/// `scheme`. The returned tuple conforms to the scheme's fields, and its
/// values are the only strings the call leaves allocated: a field is named
/// by the scheme's interned symbol, and the wrapper itself interns nothing.
pub fn wrap_page(scheme: &PageScheme, html: &str) -> Result<Tuple> {
    let doc = Document::parse(html)?;
    // Prefer the marked content container; fall back to the first root
    // element for pages without one (robustness against hand-written pages).
    let scope = doc
        .first_marked(MARK_PAGE)
        .or_else(|| doc.root_elements().next().map(|e| e.id()))
        .ok_or_else(|| WrapError::BadStructure("empty document".into()))?;
    extract_fields(&doc, &scheme.fields, scope, &scheme.name)
}

/// Wraps a page body as it came off the wire: [`wrap_page`] behind the one
/// UTF-8 check every fetch path needs.
pub fn wrap_bytes(scheme: &PageScheme, body: &[u8]) -> Result<Tuple> {
    let html = std::str::from_utf8(body).map_err(|e| WrapError::NotUtf8 {
        valid_up_to: e.valid_up_to(),
    })?;
    wrap_page(scheme, html)
}

/// Wraps a page into a single-row columnar relation — the evaluator's own
/// path from bytes to a column row: [`wrap_page`]'s tuple appended *by
/// reference* to a [`ColumnRelBuilder`], which codes text/link payloads
/// in the relation's own value dictionary as they land in the typed
/// columns. Column names are the scheme's field symbols (unqualified — the
/// evaluator qualifies by alias). A kernel that meets this relation beside
/// one of an evaluation re-encodes it into the evaluation's dictionary.
pub fn wrap_page_columnar(scheme: &PageScheme, html: &str) -> Result<ColumnRel> {
    let tuple = wrap_page(scheme, html)?;
    let mut b = ColumnRelBuilder::from_symbols(scheme.fields.iter().map(Field::sym).collect());
    // `wrap_page` yields exactly the scheme's fields, in scheme order.
    b.push_row(tuple.values())
        .map_err(|e| WrapError::BadStructure(e.to_string()))?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm::Field;

    fn session_scheme() -> PageScheme {
        PageScheme::new(
            "SessionPage",
            vec![
                Field::text("Session"),
                Field::list(
                    "CourseList",
                    vec![Field::text("CName"), Field::link("ToCourse", "SessionPage")],
                ),
            ],
        )
        .unwrap()
    }

    const SESSION_HTML: &str = r#"<!DOCTYPE html>
<html><body>
<div class="chrome"><h1>Fall Session</h1><p>Home | About</p></div>
<div class="adm-page" data-scheme="SessionPage">
  <b>Session: </b><span class="adm-attr" data-attr="Session">Fall</span><br>
  <ul class="adm-list" data-attr="CourseList">
    <li class="adm-row">
      <span class="adm-attr" data-attr="CName">Databases 101</span>
      <a class="adm-attr" data-attr="ToCourse" href="/c/1.html">link</a>
    </li>
    <li class="adm-row">
      <span class="adm-attr" data-attr="CName">Compilers 202</span>
      <a class="adm-attr" data-attr="ToCourse" href="/c/2.html">link</a>
    </li>
  </ul>
</div>
</body></html>"#;

    #[test]
    fn wraps_page_with_list() {
        let t = wrap_page(&session_scheme(), SESSION_HTML).unwrap();
        assert_eq!(t.get("Session").unwrap().as_text(), Some("Fall"));
        let courses = t.get("CourseList").unwrap().as_list().unwrap();
        assert_eq!(courses.len(), 2);
        assert_eq!(
            courses[1]
                .get("ToCourse")
                .unwrap()
                .as_link()
                .unwrap()
                .as_str(),
            "/c/2.html"
        );
        assert!(t.conforms_to(&session_scheme().fields));
    }

    #[test]
    fn missing_required_attr_errors() {
        let html = "<div class=\"adm-page\"></div>";
        let err = wrap_page(&session_scheme(), html).unwrap_err();
        assert!(matches!(err, WrapError::MissingAttribute { attr, .. } if attr == "Session"));
    }

    #[test]
    fn optional_attr_becomes_null() {
        let scheme = PageScheme::new(
            "P",
            vec![Field::text("A"), Field::optional("B", WebType::Text)],
        )
        .unwrap();
        let html = r#"<div class="adm-page"><span data-attr="A">x</span></div>"#;
        let t = wrap_page(&scheme, html).unwrap();
        assert!(t.get("B").unwrap().is_null());
    }

    #[test]
    fn missing_list_is_empty() {
        let html = r#"<div class="adm-page"><span data-attr="Session">Fall</span></div>"#;
        let t = wrap_page(&session_scheme(), html).unwrap();
        assert_eq!(t.get("CourseList").unwrap().as_list().unwrap().len(), 0);
    }

    #[test]
    fn link_without_href_errors() {
        let scheme = PageScheme::new("P", vec![Field::link("L", "P")]).unwrap();
        let html = r#"<div class="adm-page"><a data-attr="L">x</a></div>"#;
        assert!(matches!(
            wrap_page(&scheme, html),
            Err(WrapError::MissingHref(_))
        ));
    }

    #[test]
    fn scoping_prevents_inner_shadowing() {
        // The outer scheme has attribute "Name"; the inner rows also carry
        // "Name". The outer search must not pick the inner one when the
        // outer appears *after* the list in document order.
        let scheme = PageScheme::new(
            "P",
            vec![
                Field::list("Items", vec![Field::text("Name")]),
                Field::text("Name"),
            ],
        )
        .unwrap();
        let html = r#"<div class="adm-page">
            <ul class="adm-list" data-attr="Items">
              <li class="adm-row"><span data-attr="Name">inner</span></li>
            </ul>
            <span data-attr="Name">outer</span>
        </div>"#;
        let t = wrap_page(&scheme, html).unwrap();
        assert_eq!(t.get("Name").unwrap().as_text(), Some("outer"));
        let items = t.get("Items").unwrap().as_list().unwrap();
        assert_eq!(items[0].get("Name").unwrap().as_text(), Some("inner"));
    }

    #[test]
    fn nested_lists_extract_recursively() {
        let scheme = PageScheme::new(
            "EditionPage",
            vec![Field::list(
                "PaperList",
                vec![
                    Field::text("Title"),
                    Field::list(
                        "Authors",
                        vec![Field::text("AName"), Field::link("ToAuthor", "EditionPage")],
                    ),
                ],
            )],
        )
        .unwrap();
        let html = r#"<div class="adm-page">
          <ul class="adm-list" data-attr="PaperList">
            <li class="adm-row">
              <span data-attr="Title">P1</span>
              <ul class="adm-list" data-attr="Authors">
                <li class="adm-row"><span data-attr="AName">Alice</span>
                    <a data-attr="ToAuthor" href="/a/0.html">x</a></li>
                <li class="adm-row"><span data-attr="AName">Bob</span>
                    <a data-attr="ToAuthor" href="/a/1.html">x</a></li>
              </ul>
            </li>
          </ul>
        </div>"#;
        let t = wrap_page(&scheme, html).unwrap();
        let papers = t.get("PaperList").unwrap().as_list().unwrap();
        let authors = papers[0].get("Authors").unwrap().as_list().unwrap();
        assert_eq!(authors.len(), 2);
        assert_eq!(authors[1].get("AName").unwrap().as_text(), Some("Bob"));
    }

    #[test]
    fn image_extracts_src() {
        let scheme = PageScheme::new("P", vec![Field::new("Pic", WebType::Image)]).unwrap();
        let html = r#"<div class="adm-page"><img data-attr="Pic" src="/p.png"></div>"#;
        let t = wrap_page(&scheme, html).unwrap();
        assert_eq!(t.get("Pic").unwrap().as_text(), Some("/p.png"));
    }

    #[test]
    fn falls_back_without_container() {
        let scheme = PageScheme::new("P", vec![Field::text("A")]).unwrap();
        let html = r#"<html><body><span data-attr="A">val</span></body></html>"#;
        let t = wrap_page(&scheme, html).unwrap();
        assert_eq!(t.get("A").unwrap().as_text(), Some("val"));
    }

    #[test]
    fn columnar_wrap_equals_tuple_wrap() {
        let scheme = session_scheme();
        let t = wrap_page(&scheme, SESSION_HTML).unwrap();
        let c = wrap_page_columnar(&scheme, SESSION_HTML).unwrap();
        assert_eq!(c.len(), 1);
        // Field for field, the columnar row materializes to the same tuple.
        assert_eq!(c.tuple_at(0), t);
        // And round-trips through the boundary Relation byte-identically.
        let mut r = adm::Relation::new(
            scheme
                .fields
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>(),
        );
        r.push_row(t.into_pairs().into_iter().map(|(_, v)| v).collect())
            .unwrap();
        assert_eq!(c.to_relation(), r);
    }

    #[test]
    fn columnar_wrap_preserves_empty_list_and_null() {
        let scheme = PageScheme::new(
            "P",
            vec![
                Field::optional("B", WebType::Text),
                Field::list("L", vec![Field::text("X")]),
            ],
        )
        .unwrap();
        let html = r#"<div class="adm-page"></div>"#;
        let c = wrap_page_columnar(&scheme, html).unwrap();
        assert!(c.value_at(0, 0).is_null());
        assert_eq!(c.value_at(0, 1), Value::List(vec![]));
    }

    #[test]
    fn wrap_bytes_checks_utf8_then_wraps() {
        let scheme = session_scheme();
        assert_eq!(
            wrap_bytes(&scheme, SESSION_HTML.as_bytes()),
            wrap_page(&scheme, SESSION_HTML)
        );
        let mut body = SESSION_HTML.as_bytes().to_vec();
        body[40] = 0xff;
        let err = wrap_bytes(&scheme, &body).unwrap_err();
        assert_eq!(err, WrapError::NotUtf8 { valid_up_to: 40 });
        assert!(err.to_string().contains("byte 40"));
    }

    #[test]
    fn entities_decoded_in_values() {
        let scheme = PageScheme::new("P", vec![Field::text("A")]).unwrap();
        let html =
            r#"<div class="adm-page"><span data-attr="A">C &amp; C++ &lt;notes&gt;</span></div>"#;
        let t = wrap_page(&scheme, html).unwrap();
        assert_eq!(t.get("A").unwrap().as_text(), Some("C & C++ <notes>"));
    }
}
