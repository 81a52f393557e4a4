//! The shared lexer: both compilers tokenize with it, so string
//! escaping, comments, and error positions are identical across the
//! query language and the policy DSL.
//!
//! Three token shapes cover both grammars:
//!
//! * quoted strings with `\\ \" \n \r \t` escapes (all other
//!   characters are verbatim, including newlines);
//! * *words* — maximal runs of `[A-Za-z0-9_.-]`: keywords (`select`,
//!   `when`), numbers (`30`), unit literals (`4kb`, `30min`), and bare
//!   annotation keys;
//! * single-character punctuation: `| ( ) , = @`.
//!
//! `#` starts a comment running to end of line. Newlines are plain
//! whitespace — both languages are keyword-delimited, not line-based.

use crate::diag::{Diagnostic, Span};

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// A quoted string, unescaped.
    Str(String),
    /// A bare word (keyword, number, unit literal, annotation key).
    Word(String),
    /// One of `| ( ) , = @`.
    Punct(char),
}

/// One token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tok {
    /// The token.
    pub(crate) kind: TokKind,
    /// Where it came from.
    pub(crate) span: Span,
}

fn word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
}

/// Tokenizes `src`. The only lex-level errors are unterminated strings,
/// unknown escapes, and characters outside the grammar.
pub(crate) fn lex(src: &str) -> Result<Vec<Tok>, Diagnostic> {
    let mut toks = Vec::new();
    let mut chars = src.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c == '#' {
            while let Some(&(_, c)) = chars.peek() {
                if c == '\n' {
                    break;
                }
                chars.next();
            }
            continue;
        }
        if c == '"' {
            chars.next();
            let mut text = String::new();
            loop {
                match chars.next() {
                    None => {
                        return Err(Diagnostic::at(
                            src,
                            Span::new(start, src.len()),
                            "unterminated string literal",
                        ));
                    }
                    Some((end, '"')) => {
                        toks.push(Tok {
                            kind: TokKind::Str(text),
                            span: Span::new(start, end + 1),
                        });
                        break;
                    }
                    Some((at, '\\')) => {
                        match chars.next() {
                            Some((_, '\\')) => text.push('\\'),
                            Some((_, '"')) => text.push('"'),
                            Some((_, 'n')) => text.push('\n'),
                            Some((_, 'r')) => text.push('\r'),
                            Some((_, 't')) => text.push('\t'),
                            Some((end, other)) => {
                                return Err(Diagnostic::at(
                                src,
                                Span::new(at, end + other.len_utf8()),
                                format!("unknown escape `\\{other}` (expected \\\\ \\\" \\n \\r \\t)"),
                            ));
                            }
                            None => {
                                return Err(Diagnostic::at(
                                    src,
                                    Span::new(start, src.len()),
                                    "unterminated string literal",
                                ));
                            }
                        }
                    }
                    Some((_, other)) => text.push(other),
                }
            }
            continue;
        }
        if matches!(c, '|' | '(' | ')' | ',' | '=' | '@') {
            chars.next();
            toks.push(Tok {
                kind: TokKind::Punct(c),
                span: Span::new(start, start + c.len_utf8()),
            });
            continue;
        }
        if word_char(c) {
            let mut end = start;
            while let Some(&(at, c)) = chars.peek() {
                if !word_char(c) {
                    break;
                }
                end = at + c.len_utf8();
                chars.next();
            }
            toks.push(Tok {
                kind: TokKind::Word(src[start..end].to_owned()),
                span: Span::new(start, end),
            });
            continue;
        }
        return Err(Diagnostic::at(
            src,
            Span::new(start, start + c.len_utf8()),
            format!("unexpected character `{c}`"),
        ));
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_puncts_and_strings() {
        assert_eq!(
            kinds("url \"mqp://a/\" | topn 3"),
            vec![
                TokKind::Word("url".into()),
                TokKind::Str("mqp://a/".into()),
                TokKind::Punct('|'),
                TokKind::Word("topn".into()),
                TokKind::Word("3".into()),
            ]
        );
    }

    #[test]
    fn escapes_and_comments() {
        assert_eq!(
            kinds("# heading\n\"a\\\"b\\\\c\\n\" # trailing"),
            vec![TokKind::Str("a\"b\\c\n".into())]
        );
    }

    #[test]
    fn spans_point_at_the_source() {
        let toks = lex("ab \"cd\"").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 7)); // includes the quotes
    }

    #[test]
    fn lex_errors_are_positioned() {
        assert!(lex("\"open")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
        assert!(lex("\"\\q\"")
            .unwrap_err()
            .to_string()
            .contains("unknown escape"));
        assert!(lex("select {")
            .unwrap_err()
            .to_string()
            .contains("unexpected character"));
    }
}
