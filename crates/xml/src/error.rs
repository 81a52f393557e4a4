//! Parse errors with byte-offset positions.

use std::fmt;

/// Result alias for XML parsing.
pub type Result<T> = std::result::Result<T, ParseError>;

/// An error produced while parsing an XML document or an XPath expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// The category of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input is not canonical XML (see [`crate::canon`]): malformed,
    /// or well-formed but spelled differently from what
    /// [`fn@crate::serialize`] writes.
    NotCanonical,
    /// An XPath expression was malformed.
    BadPath(String),
}

impl ParseError {
    pub(crate) fn new(offset: usize, kind: ErrorKind) -> Self {
        ParseError { offset, kind }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: ", self.offset)?;
        match &self.kind {
            ErrorKind::NotCanonical => write!(f, "not canonical XML"),
            ErrorKind::BadPath(p) => write!(f, "bad XPath expression: {p}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_kind() {
        let s = ParseError::new(17, ErrorKind::NotCanonical).to_string();
        assert!(s.contains("17"), "{s}");
        assert!(s.contains("not canonical"), "{s}");
    }

    #[test]
    fn display_mismatched_tag() {
        assert_eq!(
            crate::parse("<a>x</b>").unwrap_err().to_string(),
            "XML parse error at byte 8: not canonical XML"
        );
    }
}
