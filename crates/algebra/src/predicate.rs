//! Selection predicates and aggregate functions.
//!
//! Predicates appear in plan XML as compact text, e.g.
//! `price < 10 and name = 'CD'`. The left side of a comparison is an
//! XPath-subset path evaluated relative to each item; the right side is a
//! literal. Comparison is numeric when both sides parse as numbers
//! (see [`mqp_xml::xpath::Op::apply`]).

use std::fmt;
use std::str::FromStr;

use mqp_xml::xpath::{Op, Path};
use mqp_xml::Element;

/// A selection predicate over one item.
///
/// Equality is structural over `(path, op, value)`: a comparison's
/// `num` is read from its `value`, so it adds nothing to compare — and
/// a `'NaN'` literal still equals itself.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Always true (scan).
    True,
    /// `path op literal`, e.g. `price < 10`.
    Cmp {
        /// Field path, relative to the item element.
        path: Path,
        /// Comparison operator.
        op: Op,
        /// Literal right-hand side.
        value: String,
        /// `value.trim().parse::<f64>()`, read once when the predicate
        /// is built so the per-item test parses only the item's side.
        num: Option<f64>,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl PartialEq for Predicate {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Predicate::True, Predicate::True) => true,
            (
                Predicate::Cmp {
                    path, op, value, ..
                },
                Predicate::Cmp {
                    path: p2,
                    op: o2,
                    value: v2,
                    ..
                },
            ) => path == p2 && op == o2 && value == v2,
            (Predicate::And(a), Predicate::And(b)) | (Predicate::Or(a), Predicate::Or(b)) => a == b,
            (Predicate::Not(a), Predicate::Not(b)) => a == b,
            _ => false,
        }
    }
}

impl Predicate {
    /// Builds a comparison predicate; panics on a malformed path literal
    /// or on a literal holding both `'` and `"`, which the text form
    /// cannot quote (intended for statically known predicates).
    pub fn cmp(path: &str, op: Op, value: impl Into<String>) -> Predicate {
        let value = value.into();
        assert!(
            !(value.contains('\'') && value.contains('"')),
            "predicate literal holds both quote kinds"
        );
        cmp_of(
            Path::parse(path).expect("malformed predicate path"),
            op,
            value,
        )
    }

    /// Evaluates the predicate against one item. A comparison holds if
    /// *any* value selected by the path satisfies it (XPath existential
    /// semantics); it is numeric when both sides parse as numbers
    /// ([`Op::apply`]'s rule), with the literal's side parsed once, at
    /// build time. Value extraction borrows single-text fields
    /// ([`Path::any_value`]), so the test allocates nothing per item.
    pub fn eval(&self, item: &Element) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp {
                path,
                op,
                value,
                num,
            } => path.any_value(item, &mut |v| {
                let t = v.trim();
                match (num, t.parse::<f64>()) {
                    (Some(r), Ok(l)) => op.apply_num(l, *r),
                    _ => op.apply_str(t, value),
                }
            }),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(item)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(item)),
            Predicate::Not(p) => !p.eval(item),
        }
    }

    /// A crude selectivity estimate used by the cost model when no
    /// statistics are available (System R defaults: 1/3 for comparisons,
    /// 1/10 for equality).
    pub fn default_selectivity(&self) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Cmp { op, .. } => match op {
                Op::Eq => 0.1,
                Op::Ne => 0.9,
                _ => 1.0 / 3.0,
            },
            Predicate::And(ps) => ps.iter().map(|p| p.default_selectivity()).product(),
            Predicate::Or(ps) => {
                let none: f64 = ps.iter().map(|p| 1.0 - p.default_selectivity()).product();
                1.0 - none
            }
            Predicate::Not(p) => 1.0 - p.default_selectivity(),
        }
    }

    /// Parses the compact text form. Grammar:
    ///
    /// ```text
    /// pred    := orexpr
    /// orexpr  := andexpr ('or' andexpr)*
    /// andexpr := unary ('and' unary)*
    /// unary   := 'not' unary | '(' pred ')' | 'true' | cmp
    /// cmp     := PATH op literal
    /// literal := '…' | "…" | bare-number
    /// ```
    pub fn parse(input: &str) -> Result<Predicate, String> {
        let mut p = PredParser { input, pos: 0 };
        let pred = p.parse_or()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(pred)
    }
}

impl FromStr for Predicate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Predicate::parse(s)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp {
                path, op, value, ..
            } => {
                // Bare only when the parser's number rule reads it back;
                // otherwise quoted with the kind the literal lacks.
                if is_bare_number(value) {
                    write!(f, "{path} {op} {value}")
                } else if value.contains('\'') {
                    write!(f, "{path} {op} \"{value}\"")
                } else {
                    write!(f, "{path} {op} '{value}'")
                }
            }
            Predicate::And(ps) => write_joined(f, ps, "and"),
            Predicate::Or(ps) => write_joined(f, ps, "or"),
            Predicate::Not(p) => write!(f, "not ({p})"),
        }
    }
}

fn write_joined(f: &mut fmt::Formatter<'_>, ps: &[Predicate], word: &str) -> fmt::Result {
    if ps.is_empty() {
        // Empty conjunction is true; empty disjunction is false — encode
        // both explicitly so round-trips are exact.
        return match word {
            "and" => write!(f, "true"),
            _ => write!(f, "not (true)"),
        };
    }
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            write!(f, " {word} ")?;
        }
        // Parenthesize nested connectives to keep precedence explicit.
        match p {
            Predicate::And(_) | Predicate::Or(_) => write!(f, "({p})")?,
            _ => write!(f, "{p}")?,
        }
    }
    Ok(())
}

struct PredParser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> PredParser<'a> {
    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Consumes a keyword followed by a non-word boundary.
    fn eat_word(&mut self, w: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(w) {
            let after = &self.rest()[w.len()..];
            if after.is_empty() || after.starts_with(|c: char| !c.is_alphanumeric() && c != '_') {
                self.pos += w.len();
                return true;
            }
        }
        false
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Predicate, String> {
        let mut parts = vec![self.parse_and()?];
        while self.eat_word("or") {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Predicate::Or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Predicate, String> {
        let mut parts = vec![self.parse_unary()?];
        while self.eat_word("and") {
            parts.push(self.parse_unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Predicate::And(parts)
        })
    }

    fn parse_unary(&mut self) -> Result<Predicate, String> {
        if self.eat_word("not") {
            return Ok(Predicate::Not(Box::new(self.parse_unary()?)));
        }
        if self.eat("(") {
            let inner = self.parse_or()?;
            if !self.eat(")") {
                return Err(format!("expected ')' at byte {}", self.pos));
            }
            return Ok(inner);
        }
        if self.eat_word("true") {
            return Ok(Predicate::True);
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<Predicate, String> {
        self.skip_ws();
        // Path: a run of path characters (no spaces). Comparison
        // operators end the token only outside XPath predicate brackets
        // and string literals, so `disc[@format='CD']/title = 'X'`
        // scans the whole path.
        let start = self.pos;
        let mut depth = 0usize;
        let mut quote: Option<char> = None;
        for (i, c) in self.rest().char_indices() {
            if let Some(q) = quote {
                if c == q {
                    quote = None;
                }
                continue;
            }
            match c {
                '\'' | '"' => quote = Some(c),
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '<' | '>' | '=' | '!' if depth == 0 => {
                    self.pos = start + i;
                    break;
                }
                c if c.is_alphanumeric() || "_-./*()@:<>=!".contains(c) => {}
                _ => {
                    self.pos = start + i;
                    break;
                }
            }
            self.pos = start + i + c.len_utf8();
        }
        if self.pos == start {
            return Err(format!("expected path at byte {}", self.pos));
        }
        let path_src = self.input[start..self.pos].trim();
        let path = Path::parse(path_src).map_err(|e| format!("bad path {path_src:?}: {e}"))?;
        self.skip_ws();
        let op = if self.eat("!=") {
            Op::Ne
        } else if self.eat("<=") {
            Op::Le
        } else if self.eat(">=") {
            Op::Ge
        } else if self.eat("=") {
            Op::Eq
        } else if self.eat("<") {
            Op::Lt
        } else if self.eat(">") {
            Op::Gt
        } else {
            return Err(format!("expected comparison operator at byte {}", self.pos));
        };
        self.skip_ws();
        let value = self.parse_literal()?;
        Ok(cmp_of(path, op, value))
    }

    fn parse_literal(&mut self) -> Result<String, String> {
        for q in ['\'', '"'] {
            if self.eat(&q.to_string()) {
                let start = self.pos;
                match self.rest().find(q) {
                    Some(i) => {
                        let lit = self.input[start..start + i].to_owned();
                        self.pos = start + i + 1;
                        return Ok(lit);
                    }
                    None => return Err("unterminated string literal".to_owned()),
                }
            }
        }
        let start = self.pos;
        while self.rest().starts_with(is_number_char) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected literal at byte {}", self.pos));
        }
        let lit = &self.input[start..self.pos];
        lit.parse::<f64>()
            .map_err(|_| format!("bad numeric literal {lit:?}"))?;
        Ok(lit.to_owned())
    }
}

fn cmp_of(path: Path, op: Op, value: String) -> Predicate {
    let num = value.trim().parse().ok();
    Predicate::Cmp {
        path,
        op,
        value,
        num,
    }
}

/// A character of an unquoted literal.
fn is_number_char(c: char) -> bool {
    c.is_ascii_digit() || ".+-eE".contains(c)
}

/// Whether [`PredParser::parse_literal`] reads `value` back unquoted.
fn is_bare_number(value: &str) -> bool {
    !value.is_empty() && value.chars().all(is_number_char) && value.parse::<f64>().is_ok()
}

/// Aggregate functions (the paper uses `count` for verification queries
/// in §5.1; the rest round out a usable algebra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// Name used in the XML wire format.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Parses the wire-format name.
    pub fn parse(s: &str) -> Option<AggFunc> {
        Some(match s {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_xml::parse;

    fn item(xml: &str) -> Element {
        parse(xml).unwrap()
    }

    #[test]
    fn cmp_numeric() {
        let p = Predicate::parse("price < 10").unwrap();
        assert!(p.eval(&item("<item><price>8.5</price></item>")));
        assert!(!p.eval(&item("<item><price>12</price></item>")));
        assert!(!p.eval(&item("<item><name>no price</name></item>")));
    }

    #[test]
    fn cmp_string() {
        let p = Predicate::parse("name = 'CD'").unwrap();
        assert!(p.eval(&item("<item><name>CD</name></item>")));
        assert!(!p.eval(&item("<item><name>LP</name></item>")));
    }

    #[test]
    fn connectives() {
        let p = Predicate::parse("price < 10 and not name = 'junk' or true").unwrap();
        // 'or true' makes everything pass.
        assert!(p.eval(&item("<item><price>100</price><name>junk</name></item>")));
        let q = Predicate::parse("(price < 10) and (name = 'CD' or name = 'LP')").unwrap();
        assert!(q.eval(&item("<item><price>5</price><name>LP</name></item>")));
        assert!(!q.eval(&item("<item><price>5</price><name>DVD</name></item>")));
    }

    #[test]
    fn nested_path_in_cmp() {
        let p = Predicate::parse("seller/location = 'Portland'").unwrap();
        assert!(p.eval(&item(
            "<item><seller><location>Portland</location></seller></item>"
        )));
    }

    #[test]
    fn existential_semantics_over_multiple_matches() {
        let p = Predicate::parse("tag = 'blue'").unwrap();
        assert!(p.eval(&item("<i><tag>red</tag><tag>blue</tag></i>")));
    }

    #[test]
    fn attribute_path_cmp() {
        let p = Predicate::parse("disc[@format='CD']/title = 'X'").unwrap();
        assert!(p.eval(&item("<i><disc format=\"CD\"><title>X</title></disc></i>")));
        assert!(!p.eval(&item("<i><disc format=\"LP\"><title>X</title></disc></i>")));
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "true",
            "price < 10",
            "name = 'CD'",
            "price < 10 and name != 'junk'",
            "(a = 1 or b = 2) and not c >= 3",
            "x/y/z <= 4.5",
            "name = \"O'Brien\"",
            "name = 'NaN'",
            "name = 'inf'",
            "a = \"x' or b = 'y\"",
        ] {
            let p = Predicate::parse(src).unwrap();
            let shown = p.to_string();
            let back = Predicate::parse(&shown).unwrap_or_else(|e| panic!("{src} -> {shown}: {e}"));
            assert_eq!(back, p, "{src} -> {shown}");
        }
    }

    #[test]
    #[should_panic(expected = "both quote kinds")]
    fn cmp_rejects_a_literal_with_both_quote_kinds() {
        let _ = Predicate::cmp("a", Op::Eq, "x'\"y");
    }

    #[test]
    fn precedence_and_binds_tighter() {
        let p = Predicate::parse("a = 1 or b = 2 and c = 3").unwrap();
        match p {
            Predicate::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Predicate::And(_)));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn bad_predicates_rejected() {
        for bad in [
            "",
            "price <",
            "< 10",
            "price ~ 10",
            "(a = 1",
            "a = 1 junk",
            "a = zz",
        ] {
            assert!(Predicate::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn selectivity_sane() {
        let eq = Predicate::parse("a = 1").unwrap();
        let rng = Predicate::parse("a < 1").unwrap();
        assert!(eq.default_selectivity() < rng.default_selectivity());
        let both = Predicate::And(vec![eq.clone(), rng.clone()]);
        assert!(both.default_selectivity() < eq.default_selectivity());
        let either = Predicate::Or(vec![eq.clone(), rng.clone()]);
        assert!(either.default_selectivity() > rng.default_selectivity());
        assert!((Predicate::True.default_selectivity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn agg_func_names_roundtrip() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert_eq!(AggFunc::parse(f.name()), Some(f));
        }
        assert_eq!(AggFunc::parse("median"), None);
    }
}
