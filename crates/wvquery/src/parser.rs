//! Recursive-descent parser: SQL subset → [`wvcore::ConjunctiveQuery`].

use crate::lexer::{tokenize, Spanned, Token};
use crate::Result;
use std::fmt;
use wvcore::views::ViewCatalog;
use wvcore::ConjunctiveQuery;

/// A parse or name-resolution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the query text (when known).
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Creates an error.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Term {
    Attr {
        qualifier: Option<String>,
        attr: String,
    },
    Literal(String),
}

#[derive(Debug)]
struct RawQuery {
    /// `None` means `SELECT *` (all attributes of all atoms).
    projection: Option<Vec<(Option<String>, String)>>,
    atoms: Vec<(String, Option<String>)>, // (relation, alias)
    conditions: Vec<(Term, Term)>,
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(usize::MAX)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Token::Keyword(k)) if k == kw => Ok(()),
            other => Err(ParseError::new(
                self.offset(),
                format!("expected {kw}, found {other:?}"),
            )),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(
                self.offset(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    /// `[qualifier.]attr`
    fn attr_ref(&mut self) -> Result<(Option<String>, String)> {
        let first = self.ident()?;
        if matches!(self.peek(), Some(Token::Dot)) {
            self.pos += 1;
            let attr = self.ident()?;
            Ok((Some(first), attr))
        } else {
            Ok((None, first))
        }
    }

    fn term(&mut self) -> Result<Term> {
        match self.peek() {
            Some(Token::StringLit(lit) | Token::Number(lit)) => {
                let term = Term::Literal(lit.clone());
                self.pos += 1;
                Ok(term)
            }
            _ => {
                let (q, a) = self.attr_ref()?;
                Ok(Term::Attr {
                    qualifier: q,
                    attr: a,
                })
            }
        }
    }

    fn parse(&mut self) -> Result<RawQuery> {
        self.expect_keyword("SELECT")?;
        self.eat_keyword("DISTINCT"); // projection is set-semantic anyway
        let projection = if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
            None
        } else {
            let mut items = Vec::new();
            loop {
                items.push(self.attr_ref()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
            Some(items)
        };
        self.expect_keyword("FROM")?;
        let mut atoms = Vec::new();
        loop {
            let rel = self.ident()?;
            let has_alias = self.eat_keyword("AS") || matches!(self.peek(), Some(Token::Ident(_)));
            let alias = if has_alias { Some(self.ident()?) } else { None };
            atoms.push((rel, alias));
            if !matches!(self.peek(), Some(Token::Comma)) {
                break;
            }
            self.pos += 1;
        }
        let mut conditions = Vec::new();
        if self.eat_keyword("WHERE") {
            loop {
                let l = self.term()?;
                match self.next() {
                    Some(Token::Equals) => {}
                    other => {
                        return Err(ParseError::new(
                            self.offset(),
                            format!("expected `=`, found {other:?}"),
                        ))
                    }
                }
                let r = self.term()?;
                conditions.push((l, r));
                if !self.eat_keyword("AND") {
                    break;
                }
            }
        }
        if self.pos < self.tokens.len() {
            return Err(ParseError::new(self.offset(), "unexpected trailing tokens"));
        }
        Ok(RawQuery {
            projection,
            atoms,
            conditions,
        })
    }
}

/// Resolves a `[qualifier.]attr` reference to an atom index.
fn resolve(
    raw: &RawQuery,
    catalog: &ViewCatalog,
    qualifier: &Option<String>,
    attr: &str,
    offset_hint: &str,
) -> Result<usize> {
    if let Some(q) = qualifier {
        // alias first, then relation name (if used exactly once)
        if let Some(i) = raw
            .atoms
            .iter()
            .position(|(_, a)| a.as_deref() == Some(q.as_str()))
        {
            return Ok(i);
        }
        let matches: Vec<usize> = raw
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, (r, _))| r == q)
            .map(|(i, _)| i)
            .collect();
        return match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(ParseError::new(
                0,
                format!("unknown qualifier `{q}` in {offset_hint}"),
            )),
            _ => Err(ParseError::new(
                0,
                format!("qualifier `{q}` is ambiguous (use aliases) in {offset_hint}"),
            )),
        };
    }
    // unqualified: the unique atom whose relation has this attribute
    let mut hits = Vec::new();
    for (i, (rel, _)) in raw.atoms.iter().enumerate() {
        if let Ok(r) = catalog.relation(rel) {
            if r.attrs.iter().any(|a| a == attr) {
                hits.push(i);
            }
        }
    }
    match hits.len() {
        1 => Ok(hits[0]),
        0 => Err(ParseError::new(
            0,
            format!("attribute `{attr}` not found in any FROM relation ({offset_hint})"),
        )),
        _ => Err(ParseError::new(
            0,
            format!("attribute `{attr}` is ambiguous; qualify it ({offset_hint})"),
        )),
    }
}

/// Parses a SQL-subset query against a view catalog, producing a validated
/// conjunctive query.
pub fn parse_query(sql: &str, catalog: &ViewCatalog) -> Result<ConjunctiveQuery> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let raw = p.parse()?;
    let mut q = ConjunctiveQuery::new(sql.trim());
    for (rel, _) in &raw.atoms {
        q = q.atom(rel.clone());
    }
    match &raw.projection {
        Some(items) => {
            for (qual, attr) in items {
                let i = resolve(&raw, catalog, qual, attr, "SELECT list")?;
                q = q.project((i, attr.clone()));
            }
        }
        None => {
            // SELECT *: every attribute of every atom, in order
            for (i, (rel, _)) in raw.atoms.iter().enumerate() {
                let r = catalog
                    .relation(rel)
                    .map_err(|e| ParseError::new(0, e.to_string()))?;
                for attr in &r.attrs {
                    q = q.project((i, attr.clone()));
                }
            }
        }
    }
    for (l, r) in &raw.conditions {
        match (l, r) {
            (
                Term::Attr {
                    qualifier: ql,
                    attr: al,
                },
                Term::Attr {
                    qualifier: qr,
                    attr: ar,
                },
            ) => {
                let i = resolve(&raw, catalog, ql, al, "WHERE clause")?;
                let j = resolve(&raw, catalog, qr, ar, "WHERE clause")?;
                q = q.join((i, al.clone()), (j, ar.clone()));
            }
            (Term::Attr { qualifier, attr }, Term::Literal(v))
            | (Term::Literal(v), Term::Attr { qualifier, attr }) => {
                let i = resolve(&raw, catalog, qualifier, attr, "WHERE clause")?;
                q = q.select((i, attr.clone()), v.clone());
            }
            (Term::Literal(_), Term::Literal(_)) => {
                return Err(ParseError::new(
                    0,
                    "conditions between two literals are not supported",
                ))
            }
        }
    }
    q.validate(catalog)
        .map_err(|e| ParseError::new(0, e.to_string()))?;
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wvcore::views::university_catalog;

    fn cat() -> ViewCatalog {
        university_catalog()
    }

    #[test]
    fn parses_simple_selection() {
        let q = parse_query("SELECT PName FROM Professor WHERE Rank = 'Full'", &cat()).unwrap();
        assert_eq!(q.atoms, vec!["Professor"]);
        assert_eq!(q.projection, vec![(0, "PName".to_string())]);
        assert_eq!(q.selections.len(), 1);
        assert_eq!(q.selections[0].1, adm::Value::text("Full"));
    }

    #[test]
    fn parses_paper_example_71() {
        let q = parse_query(
            "SELECT c.CName, Description \
             FROM Professor p, CourseInstructor ci, Course c \
             WHERE p.PName = ci.PName AND ci.CName = c.CName \
               AND p.Rank = 'Full' AND c.Session = 'Fall'",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.atoms.len(), 3);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.selections.len(), 2);
        // Description is unambiguous (only Course has it); c.CName needed
        // the alias because CourseInstructor also has CName.
        assert_eq!(
            q.projection,
            vec![(2, "CName".to_string()), (2, "Description".to_string())]
        );
    }

    #[test]
    fn unqualified_ambiguous_attr_rejected() {
        let err = parse_query("SELECT PName FROM Professor, CourseInstructor", &cat()).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn qualified_by_relation_name() {
        let q = parse_query(
            "SELECT Professor.PName FROM Professor, CourseInstructor \
             WHERE Professor.PName = CourseInstructor.PName",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.projection, vec![(0, "PName".to_string())]);
    }

    #[test]
    fn aliases_resolve() {
        let q = parse_query(
            "SELECT a.PName FROM Professor a, Professor b WHERE a.PName = b.PName",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.joins, vec![((0, "PName".into()), (1, "PName".into()))]);
    }

    #[test]
    fn literal_on_left_side() {
        let q = parse_query("SELECT PName FROM Professor WHERE 'Full' = Rank", &cat()).unwrap();
        assert_eq!(q.selections.len(), 1);
    }

    #[test]
    fn numbers_as_literals() {
        let bibcat = wvcore::views::bibliography_catalog();
        let q = parse_query(
            "SELECT Editors FROM ConfEdition WHERE ConfName = 'VLDB' AND Year = 1996",
            &bibcat,
        )
        .unwrap();
        assert_eq!(q.selections.len(), 2);
        assert_eq!(q.selections[1].1, adm::Value::text("1996"));
    }

    #[test]
    fn unknown_relation_rejected() {
        assert!(parse_query("SELECT X FROM Nope", &cat()).is_err());
    }

    #[test]
    fn unknown_attribute_rejected() {
        assert!(parse_query("SELECT Salary FROM Professor", &cat()).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT PName FROM Professor GARBAGE more", &cat()).is_err());
    }

    #[test]
    fn missing_from_rejected() {
        assert!(parse_query("SELECT PName", &cat()).is_err());
    }

    #[test]
    fn select_star_expands_all_attributes() {
        let q = parse_query("SELECT * FROM Professor WHERE Rank = 'Full'", &cat()).unwrap();
        assert_eq!(
            q.projection,
            vec![
                (0, "PName".to_string()),
                (0, "Rank".to_string()),
                (0, "Email".to_string()),
            ]
        );
    }

    #[test]
    fn select_star_multiple_atoms() {
        let q = parse_query(
            "SELECT * FROM Dept, ProfDept WHERE Dept.DName = ProfDept.DName",
            &cat(),
        )
        .unwrap();
        assert_eq!(q.projection.len(), 4); // DName, Address, PName, DName
    }

    #[test]
    fn distinct_is_accepted() {
        let q = parse_query("SELECT DISTINCT Rank FROM Professor", &cat()).unwrap();
        assert_eq!(q.projection, vec![(0, "Rank".to_string())]);
    }
}
