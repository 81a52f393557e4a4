//! Intensional statements (paper §4.1): coordination formulas that let
//! catalogs reason about replication, index coverage, redundancy, and
//! currency.
//!
//! Text syntax (used in tests, examples, and peer registration
//! messages) mirrors the paper, with `U` for set union and `{m}` for
//! the delay factor in minutes:
//!
//! ```text
//! base[Portland, *]@R = base[Portland, *]@S
//! base[Portland, *]@R >= base[Portland, *]@S{30}
//! index[Oregon, Golf Clubs]@R = base[Oregon, Golf Clubs]@S U
//!                               base[Oregon, Golf Clubs]@T
//! ```

use std::fmt;
use std::str::FromStr;

use mqp_namespace::{Cell, InterestArea};

use crate::entry::{Level, ServerId};

/// One side's holding reference: `level[cell]@server{delay}`.
#[derive(Debug, Clone, PartialEq)]
pub struct HoldingRef {
    /// Holding level (`base`, `index`, `meta`).
    pub(crate) level: Level,
    /// The referenced area (a single cell in the paper's statements,
    /// but any area is accepted).
    pub(crate) area: InterestArea,
    /// Whose holding.
    pub(crate) server: ServerId,
    /// Replication delay bound in minutes (§4.3); 0 = current.
    pub(crate) delay: u32,
}

impl HoldingRef {
    /// Builds a reference from a cell given as path strings.
    pub fn new(level: Level, cell: &[&str], server: impl Into<ServerId>) -> Self {
        HoldingRef {
            level,
            area: InterestArea::of(Cell::parse(cell.iter().copied())),
            server: server.into(),
            delay: 0,
        }
    }
}

impl fmt::Display for HoldingRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.level)?;
        // Areas display as "[cell] + [cell]"; statement refs are almost
        // always single-cell, printed exactly like the paper.
        write!(f, "{}", self.area)?;
        write!(f, "@{}", self.server)?;
        if self.delay > 0 {
            write!(f, "{{{}}}", self.delay)?;
        }
        Ok(())
    }
}

/// Relationship asserted by a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// Exact replication: lhs holds exactly the union of the rhs.
    Equal,
    /// Containment: lhs holds everything the rhs does, possibly more
    /// (paper `³` / `≥`).
    Superset,
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rel::Equal => "=",
            Rel::Superset => ">=",
        })
    }
}

/// An intensional statement: `lhs (=|>=) rhs1 U rhs2 U …`.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensionalStatement {
    /// Left-hand holding.
    pub(crate) lhs: HoldingRef,
    /// Asserted relation.
    pub(crate) rel: Rel,
    /// Right-hand union of holdings.
    pub(crate) rhs: Vec<HoldingRef>,
}

impl IntensionalStatement {
    /// Builds a statement.
    pub fn new(lhs: HoldingRef, rel: Rel, rhs: impl IntoIterator<Item = HoldingRef>) -> Self {
        IntensionalStatement {
            lhs,
            rel,
            rhs: rhs.into_iter().collect(),
        }
    }

    /// The staleness bound (minutes) a consumer inherits by reading the
    /// lhs *instead of* the rhs: the lhs's own delay plus the largest
    /// rhs delay (data flowed rhs → lhs).
    pub(crate) fn lhs_staleness(&self) -> u32 {
        self.lhs.delay + self.rhs.iter().map(|r| r.delay).max().unwrap_or(0)
    }

    /// True when reading `lhs` restricted to `query` is guaranteed to
    /// return everything the rhs servers hold for `query`: the statement
    /// is *usable* for that query area iff the lhs area covers it.
    ///
    /// (With `Rel::Equal` the lhs holds exactly the rhs union; with
    /// `Rel::Superset` at least it. Either way, nothing within
    /// `lhs.area` that the rhs servers hold is missing from lhs.)
    pub(crate) fn lhs_answers(&self, query: &InterestArea) -> bool {
        self.lhs.area.covers(query)
    }

    /// The rhs servers whose holdings (restricted to `query`) the lhs
    /// subsumes — all of them when the statement applies, restricted to
    /// those whose area overlaps the query.
    pub(crate) fn subsumed_servers(&self, query: &InterestArea) -> Vec<&ServerId> {
        if !self.lhs_answers(query) {
            return Vec::new();
        }
        self.rhs
            .iter()
            .filter(|r| r.area.overlaps(query))
            .map(|r| &r.server)
            .collect()
    }

    /// Parses the text syntax. See the module docs for the grammar.
    pub fn parse(input: &str) -> Result<Self, String> {
        let (lhs_src, rest) = split_rel(input)?;
        let (rel, rhs_src) = rest;
        let lhs = parse_ref(lhs_src.trim())?;
        let rhs: Result<Vec<HoldingRef>, String> = split_union(rhs_src)
            .into_iter()
            .map(|r| parse_ref(r.trim()))
            .collect();
        let rhs = rhs?;
        if rhs.is_empty() {
            return Err("statement needs at least one rhs reference".into());
        }
        Ok(IntensionalStatement { lhs, rel, rhs })
    }
}

impl FromStr for IntensionalStatement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IntensionalStatement::parse(s)
    }
}

impl fmt::Display for IntensionalStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.lhs, self.rel)?;
        for (i, r) in self.rhs.iter().enumerate() {
            if i > 0 {
                write!(f, " U ")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Splits at the top-level `=` or `>=` (not inside brackets).
fn split_rel(input: &str) -> Result<(&str, (Rel, &str)), String> {
    let bytes = input.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b'>' if depth == 0 && bytes.get(i + 1) == Some(&b'=') => {
                return Ok((&input[..i], (Rel::Superset, &input[i + 2..])));
            }
            b'=' if depth == 0 => {
                return Ok((&input[..i], (Rel::Equal, &input[i + 1..])));
            }
            _ => {}
        }
        i += 1;
    }
    Err(format!("no relation (= or >=) in {input:?}"))
}

/// Splits the rhs at top-level `U` (union) tokens.
fn split_union(input: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let bytes = input.as_bytes();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => depth = depth.saturating_sub(1),
            b'U' if depth == 0 => {
                // Union token only when standing alone between spaces.
                let before_ws = i == 0 || bytes[i - 1].is_ascii_whitespace();
                let after_ws = i + 1 >= bytes.len() || bytes[i + 1].is_ascii_whitespace();
                if before_ws && after_ws {
                    parts.push(&input[start..i]);
                    start = i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(&input[start..]);
    parts
}

/// Parses `level[c1, c2, …]@server{delay}`.
fn parse_ref(src: &str) -> Result<HoldingRef, String> {
    let bracket = src
        .find('[')
        .ok_or_else(|| format!("missing '[' in {src:?}"))?;
    let level =
        Level::parse(src[..bracket].trim()).ok_or_else(|| format!("unknown level in {src:?}"))?;
    let close = src
        .rfind(']')
        .ok_or_else(|| format!("missing ']' in {src:?}"))?;
    if close < bracket {
        return Err(format!("mismatched brackets in {src:?}"));
    }
    let coords_src = &src[bracket + 1..close];
    if coords_src.trim().is_empty() {
        return Err(format!("empty cell in {src:?}"));
    }
    // "Golf Clubs" → "GolfClubs"; '.' is the level separator (URN
    // style), '/' also accepted.
    let coords: Vec<mqp_namespace::CategoryPath> = coords_src
        .split(',')
        .map(|c| c.trim().replace(' ', "").replace('.', "/"))
        .map(|c| c.parse().expect("infallible"))
        .collect();
    let after = &src[close + 1..];
    let at = after
        .find('@')
        .ok_or_else(|| format!("missing '@server' in {src:?}"))?;
    let server_and_delay = after[at + 1..].trim();
    let (server, delay) = match server_and_delay.find('{') {
        Some(b) => {
            let close_b = server_and_delay
                .rfind('}')
                .ok_or_else(|| format!("missing '}}' in {src:?}"))?;
            let delay: u32 = server_and_delay[b + 1..close_b]
                .trim()
                .parse()
                .map_err(|_| format!("bad delay in {src:?}"))?;
            (server_and_delay[..b].trim(), delay)
        }
        None => (server_and_delay, 0),
    };
    if server.is_empty() {
        return Err(format!("empty server in {src:?}"));
    }
    Ok(HoldingRef {
        level,
        area: InterestArea::of(Cell::new(coords)),
        server: ServerId::new(server),
        delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_replication() {
        let s = IntensionalStatement::parse("base[Portland, *]@R = base[Portland, *]@S").unwrap();
        assert_eq!(s.rel, Rel::Equal);
        assert_eq!(s.lhs.level, Level::Base);
        assert_eq!(s.lhs.server, ServerId::new("R"));
        assert_eq!(s.rhs.len(), 1);
        assert_eq!(s.rhs[0].server, ServerId::new("S"));
        // [Portland, *] decodes into a 2-dim cell.
        assert_eq!(s.lhs.area.cells()[0].arity(), 2);
    }

    #[test]
    fn parse_superset_with_delay() {
        // §4.3's example: R replicates S with up to 30 minutes lag.
        let s =
            IntensionalStatement::parse("base[Portland, *]@R >= base[Portland, *]@S{30}").unwrap();
        assert_eq!(s.rel, Rel::Superset);
        assert_eq!(s.rhs[0].delay, 30);
        assert_eq!(s.lhs_staleness(), 30);
    }

    #[test]
    fn parse_index_coverage_union() {
        // §4.1: R's index covers base data at S, T and U.
        let s = IntensionalStatement::parse(
            "index[Oregon, Golf Clubs]@R = base[Oregon, Golf Clubs]@S U \
             base[Oregon, Golf Clubs]@T U base[Oregon, Golf Clubs]@U",
        )
        .unwrap();
        assert_eq!(s.lhs.level, Level::Index);
        assert_eq!(s.rhs.len(), 3);
        let servers: Vec<&str> = s.rhs.iter().map(|r| r.server.as_str()).collect();
        assert_eq!(servers, ["S", "T", "U"]);
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "base[Portland, *]@R = base[Portland, *]@S",
            "base[Portland, *]@R >= base[Portland, *]@S{30}",
            "index[Oregon, GolfClubs]@R = base[Portland, GolfClubs]@S U base[Eugene, GolfClubs]@T",
        ] {
            let s = IntensionalStatement::parse(src).unwrap();
            let shown = s.to_string();
            let back =
                IntensionalStatement::parse(&shown).unwrap_or_else(|e| panic!("{shown}: {e}"));
            assert_eq!(back, s, "{src} -> {shown}");
        }
    }

    #[test]
    fn lhs_answers_requires_cover() {
        let s = IntensionalStatement::parse(
            "base[USA.OR, SportingGoods]@R = base[USA.OR.Portland, SportingGoods.GolfClubs]@S",
        )
        .unwrap();
        let q_covered = InterestArea::parse(&[&["USA/OR/Portland", "SportingGoods/GolfClubs"]]);
        let q_wider = InterestArea::parse(&[&["USA", "SportingGoods"]]);
        assert!(s.lhs_answers(&q_covered));
        assert!(!s.lhs_answers(&q_wider));
        assert_eq!(s.subsumed_servers(&q_covered).len(), 1);
        assert!(s.subsumed_servers(&q_wider).is_empty());
    }

    #[test]
    fn subsumed_servers_filters_by_overlap() {
        // Paper §4.1: R's Oregon sporting goods = Portland + Eugene golf
        // clubs at S. A Portland query only subsumes the Portland ref.
        // Written with full paths: the paper's "[Portland, Golf Clubs]"
        // shorthand means USA/OR/Portland × SportingGoods/GolfClubs.
        let s = IntensionalStatement::parse(
            "base[Oregon, SportingGoods]@R = \
             base[Oregon.Portland, SportingGoods.GolfClubs]@S U \
             base[Oregon.Eugene, SportingGoods.GolfClubs]@S2",
        )
        .unwrap();
        let q = InterestArea::parse(&[&["Oregon/Portland", "SportingGoods/GolfClubs"]]);
        let subsumed = s.subsumed_servers(&q);
        assert_eq!(subsumed, vec![&ServerId::new("S")]);
    }

    #[test]
    fn spaces_in_categories_collapse() {
        let s =
            IntensionalStatement::parse("index[Oregon, Golf Clubs]@R = base[Oregon, Golf Clubs]@S")
                .unwrap();
        let cell = &s.lhs.area.cells()[0];
        assert_eq!(cell.coords()[1].to_string(), "GolfClubs");
    }

    #[test]
    fn bad_statements_rejected() {
        for bad in [
            "",
            "base[Portland]@R",                 // no relation
            "base[Portland]@R = ",              // empty rhs
            "base Portland @R = base[X]@S",     // missing brackets
            "base[Portland]@R = basement[X]@S", // unknown level
            "base[Portland]@ = base[X]@S",      // empty server
            "base[Portland]@R{x} = base[X]@S",  // bad delay
        ] {
            assert!(IntensionalStatement::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn delay_zero_not_displayed() {
        let r = HoldingRef::new(Level::Base, &["Portland", "*"], "R");
        assert!(!r.to_string().contains('{'));
        let r30 = HoldingRef { delay: 30, ..r };
        assert!(r30.to_string().ends_with("{30}"));
    }
}
