//! URN codec (paper §3.4).
//!
//! Two URN forms appear in the paper:
//!
//! * Named resources, e.g. `urn:ForSale:Portland-CDs` and
//!   `urn:CD:TrackListings` (Figure 3) — an opaque namespace identifier
//!   plus a namespace-specific string, resolved via catalog mappings.
//! * Interest-area URNs, e.g.
//!   `urn:InterestArea:(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)`
//!   — "encoding is a purely lexical process of transliterating our
//!   interest area notation to URN syntax". Levels are joined with `.`,
//!   dimensions with `,`, cells with `+`; `*` is the top category.
//!   Within a category name, `%`, those five grammar characters,
//!   whitespace and control characters travel as `%XX` escapes of their
//!   UTF-8 bytes (RFC 8141 §2.1), so every name round-trips
//!   (`St. Louis` → `St%2E%20Louis`) and a plain name encodes as itself.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::str::FromStr;

use mqp_xml::Name;

use crate::area::{Cell, InterestArea};
use crate::hierarchy::CategoryPath;

/// NID used for interest-area URNs.
pub(crate) const INTEREST_AREA_NID: &str = "InterestArea";

/// A parsed URN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Urn {
    /// `urn:InterestArea:<area-spec>` — decoded lexically into an area.
    InterestArea(InterestArea),
    /// Any other `urn:<nid>:<nss>` pair, resolved via catalog mappings.
    Named {
        /// Namespace identifier (e.g. `ForSale`).
        nid: String,
        /// Namespace-specific string (e.g. `Portland-CDs`).
        nss: String,
    },
}

/// Errors from URN parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrnError {
    /// Input does not start with `urn:` or lacks the NSS part.
    NotAUrn(String),
    /// Interest-area spec was malformed.
    BadAreaSpec(String),
}

impl fmt::Display for UrnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrnError::NotAUrn(s) => write!(f, "not a URN: {s:?}"),
            UrnError::BadAreaSpec(s) => write!(f, "bad interest-area spec: {s:?}"),
        }
    }
}

impl std::error::Error for UrnError {}

impl Urn {
    /// Builds a named URN.
    pub fn named(nid: impl Into<String>, nss: impl Into<String>) -> Urn {
        Urn::Named {
            nid: nid.into(),
            nss: nss.into(),
        }
    }

    /// Builds an interest-area URN.
    pub fn area(area: InterestArea) -> Urn {
        Urn::InterestArea(area)
    }

    /// The interest area, if this is an interest-area URN.
    pub fn as_area(&self) -> Option<&InterestArea> {
        match self {
            Urn::InterestArea(a) => Some(a),
            Urn::Named { .. } => None,
        }
    }

    /// Parses a URN string.
    pub fn parse(s: &str) -> Result<Urn, UrnError> {
        let rest = s
            .strip_prefix("urn:")
            .ok_or_else(|| UrnError::NotAUrn(s.to_owned()))?;
        let (nid, nss) = rest
            .split_once(':')
            .ok_or_else(|| UrnError::NotAUrn(s.to_owned()))?;
        if nid.is_empty() || nss.is_empty() {
            return Err(UrnError::NotAUrn(s.to_owned()));
        }
        if nid == INTEREST_AREA_NID {
            Ok(Urn::InterestArea(decode_area(nss)?))
        } else {
            Ok(Urn::Named {
                nid: nid.to_owned(),
                nss: nss.to_owned(),
            })
        }
    }
}

impl fmt::Display for Urn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Urn::InterestArea(a) => write!(f, "urn:{INTEREST_AREA_NID}:{}", encode_area(a)),
            Urn::Named { nid, nss } => write!(f, "urn:{nid}:{nss}"),
        }
    }
}

impl FromStr for Urn {
    type Err = UrnError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Urn::parse(s)
    }
}

/// Encodes an interest area as the paper's NSS syntax:
/// `(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)`, escaping
/// each segment (module docs).
pub fn encode_area(area: &InterestArea) -> String {
    let mut out = String::new();
    for (i, cell) in area.cells().iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        out.push('(');
        for (j, coord) in cell.coords().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            if coord.is_top() {
                out.push('*');
            }
            for (k, seg) in coord.segments().iter().enumerate() {
                if k > 0 {
                    out.push('.');
                }
                escape_segment(seg, &mut out);
            }
        }
        out.push(')');
    }
    out
}

/// Decodes the paper's NSS syntax into an interest area (purely lexical —
/// validate against a [`crate::Namespace`] separately).
pub fn decode_area(nss: &str) -> Result<InterestArea, UrnError> {
    let mut cells = Vec::new();
    let mut arity: Option<usize> = None;
    for part in nss.split('+') {
        let inner = part
            .strip_prefix('(')
            .and_then(|p| p.strip_suffix(')'))
            .ok_or_else(|| UrnError::BadAreaSpec(nss.to_owned()))?;
        if inner.is_empty() || inner.contains('(') || inner.contains(')') {
            return Err(UrnError::BadAreaSpec(nss.to_owned()));
        }
        let coords: Vec<CategoryPath> = inner
            .split(',')
            .map(|c| {
                let c = c.trim();
                if c == "*" {
                    Ok(CategoryPath::top())
                } else {
                    c.split('.')
                        .map(|seg| unescape_segment(seg).map(|s| Name::new(&s)))
                        .collect::<Option<Vec<_>>>()
                        .map(CategoryPath::new)
                        .ok_or_else(|| UrnError::BadAreaSpec(nss.to_owned()))
                }
            })
            .collect::<Result<_, _>>()?;
        match arity {
            None => arity = Some(coords.len()),
            Some(a) if a != coords.len() => {
                return Err(UrnError::BadAreaSpec(nss.to_owned()));
            }
            Some(_) => {}
        }
        cells.push(Cell::new(coords));
    }
    if cells.is_empty() {
        return Err(UrnError::BadAreaSpec(nss.to_owned()));
    }
    Ok(InterestArea::new(cells))
}

/// True for a character the area grammar, or the line-based texts that
/// carry an area, would misread inside a category name.
fn needs_escape(c: char) -> bool {
    matches!(c, '%' | '.' | ',' | '(' | ')' | '+' | '*') || c.is_whitespace() || c.is_control()
}

/// Appends `seg` with every [`needs_escape`] character as `%XX`
/// escapes of its UTF-8 bytes.
fn escape_segment(seg: &str, out: &mut String) {
    if !seg.contains(needs_escape) {
        out.push_str(seg);
        return;
    }
    for c in seg.chars() {
        if needs_escape(c) {
            for b in c.encode_utf8(&mut [0; 4]).bytes() {
                let _ = write!(out, "%{b:02X}");
            }
        } else {
            out.push(c);
        }
    }
}

/// Inverts [`escape_segment`]; `None` for an empty segment, a `%` not
/// followed by two hex digits, or escapes that are not UTF-8.
fn unescape_segment(seg: &str) -> Option<Cow<'_, str>> {
    if seg.is_empty() {
        return None;
    }
    if !seg.contains('%') {
        return Some(Cow::Borrowed(seg));
    }
    let mut bytes = Vec::with_capacity(seg.len());
    let mut rest = seg.as_bytes();
    while let Some((&b, tail)) = rest.split_first() {
        if b != b'%' {
            bytes.push(b);
            rest = tail;
            continue;
        }
        let hex = std::str::from_utf8(tail.get(..2)?).ok()?;
        if !hex.bytes().all(|h| h.is_ascii_hexdigit()) {
            return None;
        }
        bytes.push(u8::from_str_radix(hex, 16).ok()?);
        rest = &tail[2..];
    }
    String::from_utf8(bytes).ok().map(Cow::Owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_roundtrip() {
        // The exact URN from §3.4.
        let s = "urn:InterestArea:(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)";
        let urn = Urn::parse(s).unwrap();
        let area = urn.as_area().unwrap();
        assert_eq!(area.cells().len(), 2);
        // Canonical order may differ from input order; re-encode and
        // re-parse must be stable.
        let encoded = urn.to_string();
        assert_eq!(Urn::parse(&encoded).unwrap(), urn);
    }

    #[test]
    fn named_urn_roundtrip() {
        let urn = Urn::parse("urn:ForSale:Portland-CDs").unwrap();
        assert_eq!(urn, Urn::named("ForSale", "Portland-CDs"));
        assert_eq!(urn.to_string(), "urn:ForSale:Portland-CDs");
        assert!(urn.as_area().is_none());
    }

    #[test]
    fn nss_with_colons_allowed() {
        let urn = Urn::parse("urn:CD:Track:Listings").unwrap();
        assert_eq!(urn, Urn::named("CD", "Track:Listings"));
    }

    #[test]
    fn top_category_star() {
        let urn = Urn::parse("urn:InterestArea:(USA.OR.Portland,*)").unwrap();
        let area = urn.as_area().unwrap();
        assert_eq!(area.cells()[0].coords()[1], CategoryPath::top());
        assert!(urn.to_string().ends_with("(USA.OR.Portland,*)"));
    }

    #[test]
    fn bad_urns_rejected() {
        for bad in ["", "urn:", "urn:x", "nope:a:b", "urn::b", "urn:a:"] {
            assert!(Urn::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bad_area_specs_rejected() {
        for bad in [
            "urn:InterestArea:",
            "urn:InterestArea:USA",           // missing parens
            "urn:InterestArea:()",            // empty cell
            "urn:InterestArea:(USA)(FR)",     // missing +
            "urn:InterestArea:(USA..OR)",     // empty level
            "urn:InterestArea:(USA,)",        // empty coordinate
            "urn:InterestArea:(USA)+(USA,X)", // arity mismatch
        ] {
            assert!(Urn::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn encode_canonicalizes() {
        // A dominated cell disappears in the parsed area.
        let urn = Urn::parse("urn:InterestArea:(USA,Furniture)+(USA.OR,Furniture.Chairs)").unwrap();
        assert_eq!(urn.as_area().unwrap().cells().len(), 1);
    }

    #[test]
    fn grammar_characters_in_names_round_trip() {
        let area = InterestArea::new(vec![Cell::new(vec![
            "USA/MO/St. Louis".parse().unwrap(),
            CategoryPath::new(["Vinyl (LP), 7\"+12\"", "*", "100%"]),
        ])]);
        let nss = encode_area(&area);
        assert_eq!(
            nss,
            "(USA.MO.St%2E%20Louis,Vinyl%20%28LP%29%2C%207\"%2B12\".%2A.100%25)"
        );
        assert_eq!(decode_area(&nss).unwrap(), area);
        // A plain name encodes as itself.
        let plain = Urn::parse("urn:InterestArea:(Oregon.Portland,Music.CDs)").unwrap();
        assert_eq!(
            plain.to_string(),
            "urn:InterestArea:(Oregon.Portland,Music.CDs)"
        );
    }

    #[test]
    fn malformed_escapes_rejected() {
        for bad in ["(A%)", "(A%2)", "(A%G0)", "(A%-1)", "(%FF)", "(A.%C3)"] {
            assert!(decode_area(bad).is_err(), "{bad}");
        }
        assert_eq!(
            decode_area("(%C3%A9t%C3%A9)").unwrap(),
            decode_area("(été)").unwrap()
        );
    }

    #[test]
    fn single_dimension_area() {
        let urn = Urn::parse("urn:InterestArea:(Mammalia.Eutheria)").unwrap();
        let area = urn.as_area().unwrap();
        assert_eq!(area.cells()[0].arity(), 1);
        assert_eq!(area.cells()[0].coords()[0].to_string(), "Mammalia/Eutheria");
    }
}
