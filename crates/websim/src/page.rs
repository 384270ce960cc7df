//! Rendering ADM tuples as HTML pages.
//!
//! Each page is a complete HTML document with ordinary chrome (masthead,
//! navigation, footer) plus the page's data marked up with a small
//! microformat the wrapper layer understands:
//!
//! * a mono-valued attribute `A` renders as an element with
//!   `class="adm-attr" data-attr="A"` — a `<span>` for text, an `<a href>`
//!   for links, an `<img src>` for images;
//! * a list attribute `L` renders as `<ul class="adm-list" data-attr="L">`
//!   with `<li class="adm-row">` rows, or as a `<table>`/`<tr>` equivalent
//!   (markup style varies per attribute, as on real sites — extraction
//!   keys on the classes, not the tags), recursively;
//! * a null (optional, absent) attribute renders nothing.
//!
//! This stands in for the paper's assumption that "suitable wrappers are
//! applied to pages in order to access attribute values": the wrapper crate
//! actually parses these documents back into nested tuples.

use adm::{Field, PageScheme, Tuple, Value, WebType};

/// The page under construction: markup is pushed as written, content goes
/// through the escaping writers, nothing is built in between.
struct Html {
    out: String,
}

impl Html {
    fn raw(&mut self, markup: &str) {
        self.out.push_str(markup);
    }

    /// Text content: `&`, `<`, `>` escaped.
    fn text(&mut self, s: &str) {
        self.escaped(s, false);
    }

    /// ` name="value"`, the value escaped like text plus `"`.
    fn attr(&mut self, name: &str, value: &str) {
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        self.escaped(value, true);
        self.out.push('"');
    }

    /// Copies `s` in runs between the characters that need an entity.
    fn escaped(&mut self, s: &str, quotes: bool) {
        let mut from = 0;
        for (i, b) in s.bytes().enumerate() {
            let entity = match b {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' if quotes => "&quot;",
                _ => continue,
            };
            self.out.push_str(&s[from..i]);
            self.out.push_str(entity);
            from = i + 1;
        }
        self.out.push_str(&s[from..]);
    }

    /// `<tag class="adm-…" data-attr="name"`, left open for more attributes.
    fn open_marked(&mut self, tag: &str, class: &str, name: &str) {
        self.out.push('<');
        self.out.push_str(tag);
        self.attr("class", class);
        self.attr("data-attr", name);
    }

    /// Renders one non-null attribute value.
    fn value(&mut self, field: &Field, value: &Value) {
        match (&field.ty, value) {
            (WebType::Text, Value::Text(s)) => {
                self.open_marked("span", "adm-attr", &field.name);
                self.raw(">");
                self.text(s);
                self.raw("</span>");
            }
            (WebType::Image, Value::Text(src)) => {
                self.open_marked("img", "adm-attr", &field.name);
                self.attr("src", src);
                self.raw(">");
            }
            (WebType::Link { .. }, Value::Link(u)) => {
                self.open_marked("a", "adm-attr", &field.name);
                self.attr("href", u.as_str());
                self.raw(">link</a>");
            }
            (WebType::List(inner), Value::List(rows)) => {
                // Real sites mix markup styles; lists render as <ul> or as
                // <table>, chosen deterministically per attribute name. The
                // wrapper keys on the adm-list/adm-row classes, not the tags.
                let tabular = field.name.len().is_multiple_of(2);
                let (list_tag, row_open, row_close) = if tabular {
                    ("table", "<tr class=\"adm-row\"><td>", "</td></tr>")
                } else {
                    ("ul", "<li class=\"adm-row\">", "</li>")
                };
                self.open_marked(list_tag, "adm-list", &field.name);
                self.raw(">");
                for row in rows {
                    self.raw(row_open);
                    self.fields(inner, row);
                    self.raw(row_close);
                }
                self.raw("</");
                self.raw(list_tag);
                self.raw(">");
            }
            // Mismatches should never be produced by the generators; render a
            // comment so they are visible (and wrapping will report the miss).
            _ => {
                self.raw("<!-- type mismatch for attribute ");
                self.raw(&field.name.replace("--", "- -"));
                self.raw(" -->");
            }
        }
    }

    /// Renders all fields of a tuple, in scheme order, with labels.
    fn fields(&mut self, fields: &[Field], tuple: &Tuple) {
        for f in fields {
            match tuple.get_sym(f.sym()) {
                None | Some(Value::Null) => {}
                Some(v) => {
                    // A human-readable label before the value, as real pages have.
                    self.raw("<b>");
                    self.text(&f.name);
                    self.raw(": </b>");
                    self.value(f, v);
                    self.raw("<br>");
                }
            }
        }
    }
}

/// Renders a full page for a tuple of the given page-scheme: a complete
/// HTML document with a title and generator comment, written front to back
/// into one buffer.
pub fn render_page(scheme: &PageScheme, tuple: &Tuple, title: &str) -> String {
    let mut h = Html {
        out: String::with_capacity(1024 + 2 * tuple.approx_bytes()),
    };
    h.raw("<!DOCTYPE html>\n<!-- generated by websim -->\n<html><head><title>");
    h.text(title);
    h.raw("</title><meta charset=\"utf-8\"></head><body><div class=\"chrome\"><h1>");
    h.text(title);
    h.raw(
        "</h1><p class=\"nav\">Home | About | Search | Help</p><hr></div><div class=\"adm-page\"",
    );
    h.attr("data-scheme", &scheme.name);
    h.raw(">");
    h.fields(&scheme.fields, tuple);
    h.raw(
        "</div><div class=\"chrome footer\"><hr><small>Maintained by the webmaster. \
         Last generated automatically.</small></div></body></html>\n",
    );
    h.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm::Field;

    fn prof_scheme() -> PageScheme {
        PageScheme::new(
            "ProfPage",
            vec![
                Field::text("PName"),
                Field::optional("Email", WebType::Text),
                Field::link("ToDept", "DeptPage"),
                Field::list(
                    "CourseList",
                    vec![Field::text("CName"), Field::link("ToCourse", "CoursePage")],
                ),
            ],
        )
        .unwrap()
    }

    fn prof_tuple() -> Tuple {
        Tuple::new()
            .with("PName", "E. Codd")
            .with_null("Email")
            .with("ToDept", Value::link("/dept/1.html"))
            .with_list(
                "CourseList",
                vec![Tuple::new()
                    .with("CName", "Databases <advanced>")
                    .with("ToCourse", Value::link("/course/1.html"))],
            )
    }

    #[test]
    fn renders_attrs_with_markers() {
        let html = render_page(&prof_scheme(), &prof_tuple(), "Prof");
        assert!(html.contains("data-attr=\"PName\""));
        assert!(html.contains("E. Codd"));
        assert!(html.contains("href=\"/dept/1.html\""));
        assert!(html.contains("data-attr=\"CourseList\""));
        assert!(html.contains("class=\"adm-row\""));
    }

    #[test]
    fn nulls_render_nothing() {
        let html = render_page(&prof_scheme(), &prof_tuple(), "Prof");
        assert!(!html.contains("data-attr=\"Email\""));
    }

    #[test]
    fn text_is_escaped() {
        let html = render_page(&prof_scheme(), &prof_tuple(), "Prof");
        assert!(html.contains("Databases &lt;advanced&gt;"));
        assert!(!html.contains("Databases <advanced>"));
    }

    #[test]
    fn escaping_copies_runs_and_replaces_only_what_it_must() {
        let mut h = Html { out: String::new() };
        h.text("a<b & c>d \"q\" é");
        h.attr("title", "say \"hi\" & <go>");
        assert_eq!(
            h.out,
            "a&lt;b &amp; c&gt;d \"q\" é title=\"say &quot;hi&quot; &amp; &lt;go&gt;\""
        );
    }

    #[test]
    fn document_has_doctype_escaped_title_and_closed_body() {
        let html = render_page(&prof_scheme(), &prof_tuple(), "Hello & Co");
        assert!(html.starts_with("<!DOCTYPE html>\n<!-- generated by websim -->\n<html><head>"));
        assert!(html.contains("<title>Hello &amp; Co</title><meta charset=\"utf-8\">"));
        assert!(html.contains("<h1>Hello &amp; Co</h1>"));
        assert!(html.ends_with("</div></body></html>\n"));
    }

    #[test]
    fn a_type_mismatch_renders_as_a_safe_comment() {
        let scheme = PageScheme::new("P", vec![Field::text("A--B")]).unwrap();
        let t = Tuple::new().with("A--B", Value::link("/x.html"));
        let html = render_page(&scheme, &t, "P");
        assert!(html.contains("<!-- type mismatch for attribute A- -B -->"));
    }

    #[test]
    fn chrome_present_but_unmarked() {
        let html = render_page(&prof_scheme(), &prof_tuple(), "Prof");
        assert!(html.contains("class=\"chrome\""));
        assert!(html.contains("webmaster"));
    }

    #[test]
    fn list_markup_varies_by_attribute_name() {
        // "CourseList" (10 chars, even) renders as a table; a 7-char list
        // name renders as <ul>. Both carry the same extraction markers.
        let html = render_page(&prof_scheme(), &prof_tuple(), "Prof");
        assert!(html.contains("<table class=\"adm-list\" data-attr=\"CourseList\">"));
        let odd =
            PageScheme::new("P", vec![Field::list("Entries", vec![Field::text("X")])]).unwrap();
        let t = Tuple::new().with_list("Entries", vec![Tuple::new().with("X", "1")]);
        let html = render_page(&odd, &t, "P");
        assert!(html.contains("<ul class=\"adm-list\" data-attr=\"Entries\">"));
    }

    #[test]
    fn nested_lists_render() {
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
        let t = Tuple::new().with_list(
            "PaperList",
            vec![Tuple::new().with("Title", "A Paper").with_list(
                "Authors",
                vec![Tuple::new()
                    .with("AName", "Alice")
                    .with("ToAuthor", Value::link("/a/1.html"))],
            )],
        );
        let html = render_page(&scheme, &t, "Edition");
        assert!(html.contains("data-attr=\"PaperList\""));
        assert!(html.contains("data-attr=\"Authors\""));
        assert!(html.contains("Alice"));
    }
}
