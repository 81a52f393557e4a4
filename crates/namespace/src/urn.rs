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

use std::fmt;
use std::str::FromStr;

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
/// `(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)`.
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
            } else {
                out.push_str(&coord.segments().join("."));
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
                } else if c.is_empty() || c.split('.').any(|seg| seg.is_empty()) {
                    Err(UrnError::BadAreaSpec(nss.to_owned()))
                } else {
                    Ok(CategoryPath::new(c.split('.')))
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
    fn single_dimension_area() {
        let urn = Urn::parse("urn:InterestArea:(Mammalia.Eutheria)").unwrap();
        let area = urn.as_area().unwrap();
        assert_eq!(area.cells()[0].arity(), 1);
        assert_eq!(area.cells()[0].coords()[0].to_string(), "Mammalia/Eutheria");
    }
}
