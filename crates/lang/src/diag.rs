//! Positioned diagnostics shared by the query and policy compilers:
//! every compile error carries a line/column position and renders with
//! the offending source line and a caret underline, rustc-style:
//!
//! ```text
//! error: expected a quoted string after `urn`
//!   --> line 2, column 5
//!    |
//!  2 | urn Portland-CDs
//!    |     ^^^^^^^^^^^^
//! ```
//!
//! Positions are computed at construction from the source text and a
//! byte [`Span`], so a diagnostic stays printable after the source is
//! gone. The exact rendering is snapshot-tested (the top error messages
//! must never silently regress).

use std::fmt;

/// A byte range in the source text. `end == start` renders as a single
/// caret (used for end-of-input errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub(crate) start: usize,
    /// Byte offset one past the last character.
    pub(crate) end: usize,
}

impl Span {
    /// Builds a span.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A zero-width span (caret only).
    pub(crate) fn point(at: usize) -> Span {
        Span { start: at, end: at }
    }
}

/// A compile error with position and source context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What went wrong (one line, no position info).
    pub(crate) message: String,
    /// 1-based source line.
    pub(crate) line: usize,
    /// 1-based column (characters, not bytes).
    pub(crate) col: usize,
    /// The full text of the offending line.
    pub(crate) line_text: String,
    /// How many characters to underline (≥ 1).
    pub(crate) underline: usize,
}

impl Diagnostic {
    /// Builds a diagnostic pointing at `span` within `src`.
    pub(crate) fn at(src: &str, span: Span, message: impl Into<String>) -> Diagnostic {
        let start = span.start.min(src.len());
        let line_start = src[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = src[start..]
            .find('\n')
            .map(|i| start + i)
            .unwrap_or(src.len());
        let line = src[..start].matches('\n').count() + 1;
        let col = src[line_start..start].chars().count() + 1;
        let span_len = src[start..span.end.min(line_end)].chars().count();
        Diagnostic {
            message: message.into(),
            line,
            col,
            line_text: src[line_start..line_end].to_owned(),
            underline: span_len.max(1),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let num = self.line.to_string();
        let gutter = " ".repeat(num.len());
        writeln!(f, "error: {}", self.message)?;
        writeln!(f, " {gutter}--> line {}, column {}", self.line, self.col)?;
        writeln!(f, " {gutter} |")?;
        writeln!(f, " {num} | {}", self.line_text)?;
        write!(
            f,
            " {gutter} | {}{}",
            " ".repeat(self.col - 1),
            "^".repeat(self.underline)
        )
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_one_based_and_column_counts_chars() {
        let src = "first line\nurn Portland-CDs\n";
        let at = src.find("Portland").unwrap();
        let d = Diagnostic::at(src, Span::new(at, at + "Portland-CDs".len()), "bad name");
        assert_eq!((d.line, d.col), (2, 5));
        assert_eq!(d.line_text, "urn Portland-CDs");
        assert_eq!(d.underline, 12);
        assert_eq!(
            d.to_string(),
            "error: bad name\n  --> line 2, column 5\n   |\n 2 | urn Portland-CDs\n   |     ^^^^^^^^^^^^"
        );
    }

    #[test]
    fn end_of_input_renders_a_single_caret() {
        let src = "union (";
        let d = Diagnostic::at(src, Span::point(src.len()), "unexpected end of input");
        assert_eq!((d.line, d.col), (1, 8));
        assert_eq!(d.underline, 1);
    }

    #[test]
    fn underline_clips_at_end_of_line() {
        let src = "abc\ndef";
        let d = Diagnostic::at(src, Span::new(4, 40), "x");
        assert_eq!(d.underline, 3);
    }
}
