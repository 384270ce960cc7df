//! Tokenizer for the SQL subset.

use crate::parser::ParseError;
use crate::Result;

/// A token with its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset in the input.
    pub offset: usize,
}

/// SQL-subset tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// A keyword (upper-cased): SELECT, DISTINCT, FROM, WHERE, AND, AS.
    Keyword(String),
    /// An identifier (case-preserved).
    Ident(String),
    /// A quoted string literal (quotes stripped, escapes resolved).
    StringLit(String),
    /// A numeric literal (kept as text; the data model stores text).
    Number(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Equals,
    /// `*`
    Star,
}

const KEYWORDS: &[&str] = &["SELECT", "DISTINCT", "FROM", "WHERE", "AND", "AS"];

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let offset = i;
        let token = match c {
            b',' => {
                i += 1;
                Token::Comma
            }
            b'.' => {
                i += 1;
                Token::Dot
            }
            b'=' => {
                i += 1;
                Token::Equals
            }
            b'*' => {
                i += 1;
                Token::Star
            }
            b'\'' | b'"' => {
                let quote = c;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(ParseError::new(offset, "unterminated string literal"));
                    }
                    if bytes[i] == quote {
                        // doubled quote = escaped quote (SQL style)
                        if i + 1 < bytes.len() && bytes[i + 1] == quote {
                            s.push(quote as char);
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    let Some(ch) = input[i..].chars().next() else {
                        return Err(ParseError::new(offset, "unterminated string literal"));
                    };
                    s.push(ch);
                    i += ch.len_utf8();
                }
                Token::StringLit(s)
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    // don't swallow a trailing qualifier dot (rare: 1.x)
                    if bytes[i] == b'.' && !(i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit()) {
                        break;
                    }
                    i += 1;
                }
                Token::Number(input[start..i].to_string())
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &input[start..i];
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    Token::Keyword(upper)
                } else {
                    Token::Ident(word.to_string())
                }
            }
            _ => {
                let ch: String = input[i..].chars().take(1).collect();
                return Err(ParseError::new(
                    offset,
                    format!("unexpected character `{ch}`"),
                ));
            }
        };
        out.push(Spanned { token, offset });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_query_tokens() {
        let toks = tokenize("SELECT PName FROM Professor WHERE Rank = 'Full'").unwrap();
        let kinds: Vec<&Token> = toks.iter().map(|s| &s.token).collect();
        assert_eq!(kinds[0], &Token::Keyword("SELECT".into()));
        assert_eq!(kinds[1], &Token::Ident("PName".into()));
        assert_eq!(kinds[2], &Token::Keyword("FROM".into()));
        assert_eq!(kinds[5], &Token::Ident("Rank".into()));
        assert_eq!(kinds[6], &Token::Equals);
        assert_eq!(kinds[7], &Token::StringLit("Full".into()));
    }

    #[test]
    fn keywords_case_insensitive_identifiers_preserved() {
        let toks = tokenize("select PName from Professor").unwrap();
        assert_eq!(toks[0].token, Token::Keyword("SELECT".into()));
        assert_eq!(toks[1].token, Token::Ident("PName".into()));
    }

    #[test]
    fn doubled_quote_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks[0].token, Token::StringLit("it's".into()));
    }

    #[test]
    fn double_quoted_strings() {
        let toks = tokenize("\"Computer Science\"").unwrap();
        assert_eq!(toks[0].token, Token::StringLit("Computer Science".into()));
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1996").unwrap();
        assert_eq!(toks[0].token, Token::Number("1996".into()));
    }

    #[test]
    fn dots_and_commas() {
        let toks = tokenize("p.PName, c.CName").unwrap();
        assert_eq!(toks[1].token, Token::Dot);
        assert_eq!(toks[3].token, Token::Comma);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn unexpected_character_errors() {
        let e = tokenize("SELECT ; FROM").unwrap_err();
        assert!(e.to_string().contains('`'));
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("SELECT x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }
}
