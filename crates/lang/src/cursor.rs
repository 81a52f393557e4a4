//! Token cursor shared by the query and policy parsers: lookahead,
//! keyword/punct expectation, and unit-literal parsing, all producing
//! positioned [`Diagnostic`]s on mismatch.

use crate::diag::{Diagnostic, Span};
use crate::lex::{lex, Tok, TokKind};

/// A token stream with one-token lookahead over a source string.
pub(crate) struct Cursor<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Lexes `src` and positions the cursor at the first token.
    pub(crate) fn new(src: &'a str) -> Result<Cursor<'a>, Diagnostic> {
        Ok(Cursor {
            src,
            toks: lex(src)?,
            pos: 0,
        })
    }

    /// The source text (for building diagnostics elsewhere).
    pub(crate) fn src(&self) -> &'a str {
        self.src
    }

    /// The current token, if any.
    pub(crate) fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    /// True at end of input.
    pub(crate) fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// A span for "here": the current token, or a point at end of input.
    pub(crate) fn here(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .unwrap_or_else(|| Span::point(self.src.len()))
    }

    /// A diagnostic pointing at the current position.
    pub(crate) fn err(&self, message: impl Into<String>) -> Diagnostic {
        Diagnostic::at(self.src, self.here(), message)
    }

    /// True when the current token is the word `w` (not consumed).
    pub(crate) fn at_word(&self, w: &str) -> bool {
        matches!(self.peek(), Some(Tok { kind: TokKind::Word(t), .. }) if t == w)
    }

    /// Consumes the word `w` if it is next; returns whether it did.
    pub(crate) fn eat_word(&mut self, w: &str) -> bool {
        if self.at_word(w) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the punct `c` if it is next; returns whether it did.
    pub(crate) fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Tok { kind: TokKind::Punct(p), .. }) if *p == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// True when the current token is a string literal.
    pub(crate) fn at_str(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok {
                kind: TokKind::Str(_),
                ..
            })
        )
    }

    /// Requires the next token to be any word; names what was wanted on
    /// failure.
    pub(crate) fn expect_word(&mut self, wanted: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek() {
            Some(Tok {
                kind: TokKind::Word(w),
                span,
            }) => {
                let out = (w.clone(), *span);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err(format!("expected {wanted}"))),
        }
    }

    /// Requires the exact keyword `kw`.
    pub(crate) fn expect_keyword(&mut self, kw: &str) -> Result<Span, Diagnostic> {
        if self.at_word(kw) {
            let span = self.here();
            self.pos += 1;
            Ok(span)
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    /// Requires a string literal; names what it should hold on failure.
    pub(crate) fn expect_str(&mut self, wanted: &str) -> Result<(String, Span), Diagnostic> {
        match self.peek() {
            Some(Tok {
                kind: TokKind::Str(s),
                span,
            }) => {
                let out = (s.clone(), *span);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err(format!("expected a quoted string ({wanted})"))),
        }
    }

    /// Requires the punct `c`.
    pub(crate) fn expect_punct(&mut self, c: char) -> Result<(), Diagnostic> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`")))
        }
    }

    /// Requires end of input.
    pub(crate) fn expect_eof(&mut self) -> Result<(), Diagnostic> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err("unexpected trailing input"))
        }
    }

    /// Parses a plain unsigned number word.
    pub(crate) fn expect_number(&mut self, wanted: &str) -> Result<(u64, Span), Diagnostic> {
        let (w, span) = self.expect_word(wanted)?;
        w.parse::<u64>()
            .map(|n| (n, span))
            .map_err(|_| Diagnostic::at(self.src, span, format!("expected {wanted}, found `{w}`")))
    }

    /// Parses a duration word — `30`, `30m`, `30min`, or `2h` — into
    /// minutes.
    pub(crate) fn expect_duration(&mut self) -> Result<(u32, Span), Diagnostic> {
        let (w, span) = self.expect_word("a duration (e.g. `30min`, `2h`)")?;
        let (digits, mult) = if let Some(d) = w.strip_suffix("min") {
            (d, 1u32)
        } else if let Some(d) = w.strip_suffix('m') {
            (d, 1)
        } else if let Some(d) = w.strip_suffix('h') {
            (d, 60)
        } else {
            (w.as_str(), 1)
        };
        digits
            .parse::<u32>()
            .ok()
            .and_then(|n| n.checked_mul(mult))
            .map(|n| (n, span))
            .ok_or_else(|| {
                Diagnostic::at(
                    self.src,
                    span,
                    format!("bad duration `{w}` (expected e.g. `30min` or `2h`)"),
                )
            })
    }

    /// Parses a size word — `4096`, `4kb`, or `2mb` — into bytes. A size
    /// past `u64` is an error, not a wrapped value.
    pub(crate) fn expect_size(&mut self) -> Result<(u64, Span), Diagnostic> {
        let (w, span) = self.expect_word("a size (e.g. `4kb`, `2mb`)")?;
        let (digits, mult) = if let Some(d) = w.strip_suffix("kb") {
            (d, 1u64 << 10)
        } else if let Some(d) = w.strip_suffix("mb") {
            (d, 1 << 20)
        } else if let Some(d) = w.strip_suffix('b') {
            (d, 1)
        } else {
            (w.as_str(), 1)
        };
        digits
            .parse::<u64>()
            .ok()
            .and_then(|n| n.checked_mul(mult))
            .map(|n| (n, span))
            .ok_or_else(|| {
                Diagnostic::at(
                    self.src,
                    span,
                    format!("bad size `{w}` (expected e.g. `4kb` or `2mb`)"),
                )
            })
    }
}
