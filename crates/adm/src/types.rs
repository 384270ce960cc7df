//! Web types: the type system of ADM attributes.
//!
//! Following Section 3.1 of the paper, a *web type* is either mono-valued —
//! a base type (`text`, `image`) or `link to P` — or multi-valued — a
//! `list of (A1:T1, …, An:Tn)` of (possibly nested) tuples.

use crate::intern::Symbol;
use std::fmt;

/// The type of a page-scheme attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WebType {
    /// Free text (also used for anchors, which the paper models as
    /// independent text attributes next to their link).
    Text,
    /// An inline image; carries no queryable value beyond its URL.
    Image,
    /// A hypertext link whose destinations are instances of the named
    /// page-scheme. The value of a link attribute is a [`crate::Url`].
    Link {
        /// Name of the target page-scheme.
        target: String,
    },
    /// A list of tuples over the given fields; fields may themselves be
    /// lists (nested structure).
    List(Vec<Field>),
}

impl WebType {
    /// A link type to the named page-scheme.
    pub fn link(target: impl Into<String>) -> Self {
        WebType::Link {
            target: target.into(),
        }
    }

    /// A list type over the given fields.
    pub fn list(fields: Vec<Field>) -> Self {
        WebType::List(fields)
    }

    /// True for base types and links (single value per tuple).
    pub fn is_mono_valued(&self) -> bool {
        !matches!(self, WebType::List(_))
    }

    /// True for list types.
    pub fn is_multi_valued(&self) -> bool {
        matches!(self, WebType::List(_))
    }

    /// True for link types.
    pub fn is_link(&self) -> bool {
        matches!(self, WebType::Link { .. })
    }

    /// The link target scheme, if this is a link type.
    pub fn link_target(&self) -> Option<&str> {
        match self {
            WebType::Link { target } => Some(target),
            _ => None,
        }
    }

    /// The fields of a list type, if this is one.
    pub fn list_fields(&self) -> Option<&[Field]> {
        match self {
            WebType::List(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            WebType::Text => "text",
            WebType::Image => "image",
            WebType::Link { .. } => "link",
            WebType::List(_) => "list",
        }
    }

    /// Maximum nesting depth: 0 for mono-valued types, 1 + max field depth
    /// for lists.
    pub fn depth(&self) -> usize {
        match self {
            WebType::List(fields) => 1 + fields.iter().map(|f| f.ty.depth()).max().unwrap_or(0),
            _ => 0,
        }
    }
}

impl fmt::Display for WebType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebType::Text => write!(f, "text"),
            WebType::Image => write!(f, "image"),
            WebType::Link { target } => write!(f, "link to {target}"),
            WebType::List(fields) => {
                write!(f, "list of (")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{field}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A named, typed, possibly optional attribute of a page-scheme or of a
/// list type. Optional attributes may produce [`crate::Value::Null`].
#[derive(Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name, unique among its siblings.
    pub name: String,
    /// The attribute's web type.
    pub ty: WebType,
    /// Whether the attribute may be absent (null) in some pages.
    pub optional: bool,
    /// `name`, interned when the field was built. Private, so that
    /// [`Field::new`] and [`Field::optional`] stay the only constructors.
    sym: Symbol,
}

impl Field {
    /// A required field.
    pub fn new(name: impl Into<String>, ty: WebType) -> Self {
        Field::build(name.into(), ty, false)
    }

    /// An optional field (may generate nulls).
    pub fn optional(name: impl Into<String>, ty: WebType) -> Self {
        Field::build(name.into(), ty, true)
    }

    fn build(name: String, ty: WebType, optional: bool) -> Self {
        Field {
            sym: Symbol::intern(&name),
            name,
            ty,
            optional,
        }
    }

    /// The field's name as an interned [`Symbol`]: interned once, when the
    /// scheme was built, so that whoever produces or reads tuples under
    /// this field — the wrapper, the evaluator, [`crate::Tuple::conforms_to`]
    /// — names it by copying a `u32` instead of cloning or comparing a
    /// string per tuple.
    pub fn sym(&self) -> Symbol {
        self.sym
    }

    /// Shorthand for a required text field.
    pub fn text(name: impl Into<String>) -> Self {
        Field::new(name, WebType::Text)
    }

    /// Shorthand for a required link field.
    pub fn link(name: impl Into<String>, target: impl Into<String>) -> Self {
        Field::new(name, WebType::link(target))
    }

    /// Shorthand for a required list field.
    pub fn list(name: impl Into<String>, fields: Vec<Field>) -> Self {
        Field::new(name, WebType::list(fields))
    }
}

/// Prints `name`, `ty` and `optional` only: the symbol is `name` again, and
/// its id follows interning order, which no log line may depend on.
impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Field")
            .field("name", &self.name)
            .field("ty", &self.ty)
            .field("optional", &self.optional)
            .finish()
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.ty)?;
        if self.optional {
            write!(f, "?")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn course_list() -> WebType {
        WebType::list(vec![
            Field::text("CName"),
            Field::link("ToCourse", "CoursePage"),
        ])
    }

    #[test]
    fn mono_vs_multi() {
        assert!(WebType::Text.is_mono_valued());
        assert!(WebType::link("P").is_mono_valued());
        assert!(course_list().is_multi_valued());
        assert!(!course_list().is_mono_valued());
    }

    #[test]
    fn link_target() {
        assert_eq!(WebType::link("ProfPage").link_target(), Some("ProfPage"));
        assert_eq!(WebType::Text.link_target(), None);
    }

    #[test]
    fn display_nested_list() {
        let t = WebType::list(vec![
            Field::text("Title"),
            Field::list(
                "Authors",
                vec![Field::text("AName"), Field::link("ToAuthor", "AuthorPage")],
            ),
        ]);
        assert_eq!(
            t.to_string(),
            "list of (Title: text, Authors: list of (AName: text, ToAuthor: link to AuthorPage))"
        );
    }

    #[test]
    fn optional_display() {
        let f = Field::optional("Email", WebType::Text);
        assert_eq!(f.to_string(), "Email: text?");
    }

    #[test]
    fn depth() {
        assert_eq!(WebType::Text.depth(), 0);
        assert_eq!(course_list().depth(), 1);
        let nested = WebType::list(vec![Field::list("Inner", vec![Field::text("X")])]);
        assert_eq!(nested.depth(), 2);
    }

    #[test]
    fn kind_names() {
        assert_eq!(WebType::Image.kind(), "image");
        assert_eq!(course_list().kind(), "list");
    }
}
