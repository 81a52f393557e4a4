//! An XPath 1.0 subset, sufficient for the paper's uses of XPath:
//! collection identifiers in index-server entries (`/data[@id='245']`,
//! §3.2) and field extraction inside plan predicates (`item/price`).
//!
//! Supported grammar:
//!
//! ```text
//! path      := '/'? step ('/' step)*
//! step      := ( NAME | '*' | 'text()' ) predicate*
//! predicate := '[' INTEGER ']'                       positional, 1-based
//!            | '[' '@' NAME  op literal ']'          attribute test
//!            | '[' NAME op literal ']'               child-field test
//!            | '[' 'text()' op literal ']'           own-text test
//! op        := '=' | '!=' | '<' | '<=' | '>' | '>='
//! literal   := '…' | "…" | number
//! ```
//!
//! Comparisons are numeric when both sides parse as `f64`, otherwise
//! lexicographic — matching the loose typing of XML data bundles.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use crate::error::{ErrorKind, ParseError, Result};
use crate::intern::Name;
use crate::node::Element;

/// A parsed XPath expression.
///
/// Parsing *is* the compile pass: step names and predicate field/attr
/// names are interned [`Name`]s, so matching a step against an element
/// is a pointer/ID comparison (see [`crate::intern`]), never a string
/// scan. A parsed `Path` can therefore be cached per query and replayed
/// against thousands of items with no per-node allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Absolute paths (`/a/b`) match the root element against the first
    /// step; relative paths (`a/b`) match the context's children.
    pub absolute: bool,
    /// The location steps, outermost first.
    pub steps: Vec<Step>,
}

/// One location step: a node test plus zero or more predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub test: NodeTest,
    pub predicates: Vec<Predicate>,
}

/// Which nodes a step selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// A child element with this (interned) tag name.
    Name(Name),
    /// Any child element.
    Any,
    /// The concatenated text of the context element.
    Text,
}

/// A filter applied to the nodes a step selected.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `[3]` — keep only the n-th match (1-based).
    Position(usize),
    /// `[@id='245']` — attribute comparison (interned attribute name).
    Attr(Name, Op, String),
    /// `[price < 10]` — first child element with this (interned) name,
    /// deep text.
    Field(Name, Op, String),
    /// `[text() = 'x']` — own text comparison.
    OwnText(Op, String),
}

/// Comparison operator in a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    /// Applies the operator. Numeric if both sides parse as `f64`,
    /// else lexicographic.
    pub fn apply(self, left: &str, right: &str) -> bool {
        if let (Ok(l), Ok(r)) = (left.trim().parse::<f64>(), right.trim().parse::<f64>()) {
            self.apply_num(l, r)
        } else {
            self.apply_str(left, right)
        }
    }

    /// The numeric arm of [`Op::apply`]. Exposed so a predicate can
    /// parse its literal once, when built, and skip the per-item re-parse.
    pub fn apply_num(self, l: f64, r: f64) -> bool {
        match self {
            Op::Eq => l == r,
            Op::Ne => l != r,
            Op::Lt => l < r,
            Op::Le => l <= r,
            Op::Gt => l > r,
            Op::Ge => l >= r,
        }
    }

    /// The lexicographic arm of [`Op::apply`].
    pub fn apply_str(self, left: &str, right: &str) -> bool {
        match self {
            Op::Eq => left == right,
            Op::Ne => left != right,
            Op::Lt => left < right,
            Op::Le => left <= right,
            Op::Gt => left > right,
            Op::Ge => left >= right,
        }
    }

    /// The source form of the operator.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl Path {
    /// Parses an XPath expression.
    pub fn parse(input: &str) -> Result<Path> {
        PathParser::new(input).parse()
    }

    /// Selects matching elements starting from `root`. Absolute paths
    /// match `root` itself against the first step; relative paths match
    /// `root`'s children. `text()` steps select nothing here (they are
    /// not elements) — use `Path::select_values`.
    pub fn select_elements<'a>(&self, root: &'a Element) -> Vec<&'a Element> {
        let mut out = Vec::new();
        visit_path(self.absolute, &self.steps, root, &mut |e| {
            out.push(e);
            true
        });
        out
    }

    /// Visits each value the path selects — the deep text of matched
    /// elements, or the direct text when the final step is `text()` —
    /// in document order, as borrowed [`Cow`]s. This is the allocation-
    /// free variant of `Path::select_values`: single-text fields (the
    /// overwhelmingly common shape of data bundles) arrive borrowed, so
    /// join-key extraction and predicate evaluation touch no heap.
    pub fn for_each_value<'a>(&self, root: &'a Element, f: &mut impl FnMut(Cow<'a, str>)) {
        self.visit_values(root, &mut |v| {
            f(v);
            true
        });
    }

    /// Visits values until `f` returns `true` (a match); returns whether
    /// any value matched. The short-circuiting form predicates use for
    /// their existential semantics.
    pub fn any_value(&self, root: &Element, f: &mut impl FnMut(&str) -> bool) -> bool {
        !self.visit_values(root, &mut |v| !f(&v))
    }

    /// Core value walk: calls `f` per value, stops (returning `false`)
    /// when `f` does.
    fn visit_values<'a>(
        &self,
        root: &'a Element,
        f: &mut impl FnMut(Cow<'a, str>) -> bool,
    ) -> bool {
        if let Some(last) = self.steps.last() {
            if matches!(last.test, NodeTest::Text) {
                let prefix = &self.steps[..self.steps.len() - 1];
                return visit_path(self.absolute, prefix, root, &mut |e| f(e.direct_text()));
            }
        }
        visit_path(self.absolute, &self.steps, root, &mut |e| f(e.deep_text()))
    }

    /// Selects string values: the deep text of matched elements, or the
    /// text content when the final step is `text()`. Allocates one
    /// `String` per value — prefer [`Path::for_each_value`] on hot
    /// paths.
    pub(crate) fn select_values(&self, root: &Element) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_value(root, &mut |v| out.push(v.into_owned()));
        out
    }

    /// First value selected, trimmed, if any.
    pub fn first_value(&self, root: &Element) -> Option<String> {
        let mut out = None;
        self.visit_values(root, &mut |v| {
            out = Some(v.trim().to_owned());
            false
        });
        out
    }
}

/// Walks the elements `steps` select from `root` in document order,
/// calling `f` per match; `f` returns `false` to stop the walk early.
/// Returns `false` iff the walk was stopped.
fn visit_path<'a>(
    absolute: bool,
    steps: &[Step],
    root: &'a Element,
    f: &mut impl FnMut(&'a Element) -> bool,
) -> bool {
    if absolute {
        let Some((first, rest)) = steps.split_first() else {
            return f(root);
        };
        if matches!(first.test, NodeTest::Text) {
            return true; // text() selects no elements
        }
        if test_element(root, &first.test) && passes_all(root, &first.predicates, 0) {
            return visit_steps(rest, root, f);
        }
        true
    } else {
        visit_steps(steps, root, f)
    }
}

/// Applies `steps` to `ctx`'s children, recursively; an empty step list
/// means `ctx` itself is a match.
fn visit_steps<'a>(
    steps: &[Step],
    ctx: &'a Element,
    f: &mut impl FnMut(&'a Element) -> bool,
) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        return f(ctx);
    };
    if matches!(step.test, NodeTest::Text) {
        return true; // text() mid-path selects no elements
    }
    let mut idx = 0usize;
    for child in ctx.child_elements() {
        if test_element(child, &step.test) {
            idx += 1;
            if passes_all(child, &step.predicates, idx) && !visit_steps(rest, child, f) {
                return false;
            }
        }
    }
    true
}

fn test_element(e: &Element, test: &NodeTest) -> bool {
    match test {
        // Interned names: usually a single pointer compare.
        NodeTest::Name(n) => e.interned_name() == n,
        NodeTest::Any => true,
        NodeTest::Text => false,
    }
}

fn passes_all(e: &Element, preds: &[Predicate], position: usize) -> bool {
    preds.iter().all(|p| passes(e, p, position))
}

fn passes(e: &Element, pred: &Predicate, position: usize) -> bool {
    match pred {
        Predicate::Position(n) => position == *n,
        Predicate::Attr(name, op, lit) => match e.attrs().iter().find(|(n, _)| n == name) {
            Some((_, v)) => op.apply(v, lit),
            None => false,
        },
        Predicate::Field(name, op, lit) => {
            match e.child_elements().find(|c| c.interned_name() == name) {
                Some(c) => op.apply(c.deep_text().trim(), lit),
                None => false,
            }
        }
        Predicate::OwnText(op, lit) => op.apply(e.deep_text().trim(), lit),
    }
}

impl FromStr for Path {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Path> {
        Path::parse(s)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.absolute {
            write!(f, "/")?;
        }
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            match &step.test {
                NodeTest::Name(n) => write!(f, "{n}")?,
                NodeTest::Any => write!(f, "*")?,
                NodeTest::Text => write!(f, "text()")?,
            }
            for p in &step.predicates {
                match p {
                    Predicate::Position(n) => write!(f, "[{n}]")?,
                    Predicate::Attr(a, op, l) => write!(f, "[@{a}{op}'{l}']")?,
                    Predicate::Field(n, op, l) => write!(f, "[{n}{op}'{l}']")?,
                    Predicate::OwnText(op, l) => write!(f, "[text(){op}'{l}']")?,
                }
            }
        }
        Ok(())
    }
}

struct PathParser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> PathParser<'a> {
    fn new(input: &'a str) -> Self {
        PathParser { input, pos: 0 }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError::new(self.pos, ErrorKind::BadPath(msg.to_owned()))
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse(mut self) -> Result<Path> {
        self.skip_ws();
        let absolute = self.eat("/");
        let mut steps = Vec::new();
        if absolute && self.rest().trim().is_empty() {
            // "/" alone selects the root.
            return Ok(Path { absolute, steps });
        }
        loop {
            steps.push(self.parse_step()?);
            self.skip_ws();
            if !self.eat("/") {
                break;
            }
        }
        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(self.err("trailing input"));
        }
        if steps.is_empty() {
            return Err(self.err("empty path"));
        }
        Ok(Path { absolute, steps })
    }

    fn parse_step(&mut self) -> Result<Step> {
        self.skip_ws();
        let test = if self.eat("text()") {
            NodeTest::Text
        } else if self.eat("*") {
            NodeTest::Any
        } else {
            let name = self.parse_name()?;
            NodeTest::Name(Name::new(name))
        };
        let mut predicates = Vec::new();
        loop {
            self.skip_ws();
            if !self.eat("[") {
                break;
            }
            predicates.push(self.parse_predicate()?);
            self.skip_ws();
            if !self.eat("]") {
                return Err(self.err("expected ]"));
            }
        }
        Ok(Step { test, predicates })
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        match self.rest().chars().next() {
            Some(c) if c.is_alphabetic() || c == '_' => {}
            _ => return Err(self.err("expected name")),
        }
        let mut end = self.rest().len();
        for (i, c) in self.rest().char_indices().skip(1) {
            if !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')) {
                end = i;
                break;
            }
        }
        self.pos = start + end;
        Ok(&self.input[start..self.pos])
    }

    fn parse_predicate(&mut self) -> Result<Predicate> {
        self.skip_ws();
        // Positional: [3]
        if self.rest().starts_with(|c: char| c.is_ascii_digit()) {
            let start = self.pos;
            while self.rest().starts_with(|c: char| c.is_ascii_digit()) {
                self.pos += 1;
            }
            let n: usize = self.input[start..self.pos]
                .parse()
                .map_err(|_| self.err("bad position"))?;
            if n == 0 {
                return Err(self.err("positions are 1-based"));
            }
            return Ok(Predicate::Position(n));
        }
        if self.eat("@") {
            let name = self.parse_name()?;
            let op = self.parse_op()?;
            let lit = self.parse_literal()?;
            return Ok(Predicate::Attr(Name::new(name), op, lit));
        }
        if self.eat("text()") {
            let op = self.parse_op()?;
            let lit = self.parse_literal()?;
            return Ok(Predicate::OwnText(op, lit));
        }
        let name = self.parse_name()?;
        let op = self.parse_op()?;
        let lit = self.parse_literal()?;
        Ok(Predicate::Field(Name::new(name), op, lit))
    }

    fn parse_op(&mut self) -> Result<Op> {
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
            return Err(self.err("expected comparison operator"));
        };
        Ok(op)
    }

    fn parse_literal(&mut self) -> Result<String> {
        self.skip_ws();
        for quote in ['\'', '"'] {
            if self.eat(&quote.to_string()) {
                let start = self.pos;
                match self.rest().find(quote) {
                    Some(i) => {
                        let lit = self.input[start..start + i].to_owned();
                        self.pos = start + i + 1;
                        return Ok(lit);
                    }
                    None => return Err(self.err("unterminated string literal")),
                }
            }
        }
        // Bare number.
        let start = self.pos;
        while self
            .rest()
            .starts_with(|c: char| c.is_ascii_digit() || c == '.' || c == '-' || c == '+')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected literal"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }
}

/// Convenience: selects values of `path` evaluated against `root`,
/// parsing the path on the fly. Panics on a malformed path — intended for
/// statically known paths in examples and tests.
pub fn values(root: &Element, path: &str) -> Vec<String> {
    Path::parse(path)
        .expect("malformed XPath literal")
        .select_values(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn doc() -> Element {
        parse(concat!(
            "<data id=\"245\">",
            "<item><name>golf clubs</name><price>99.95</price></item>",
            "<item><name>armchair</name><price>40</price></item>",
            "<item><name>CD</name><price>8.5</price></item>",
            "</data>"
        ))
        .unwrap()
    }

    #[test]
    fn absolute_root_match() {
        let d = doc();
        let p = Path::parse("/data").unwrap();
        assert_eq!(p.select_elements(&d).len(), 1);
        let p2 = Path::parse("/other").unwrap();
        assert!(p2.select_elements(&d).is_empty());
    }

    #[test]
    fn absolute_with_attr_predicate() {
        let d = doc();
        assert_eq!(
            Path::parse("/data[@id='245']")
                .unwrap()
                .select_elements(&d)
                .len(),
            1
        );
        assert!(Path::parse("/data[@id='999']")
            .unwrap()
            .select_elements(&d)
            .is_empty());
    }

    #[test]
    fn relative_descent() {
        let d = doc();
        let items = Path::parse("item").unwrap().select_elements(&d);
        assert_eq!(items.len(), 3);
        let names = Path::parse("item/name").unwrap().select_values(&d);
        assert_eq!(names, vec!["golf clubs", "armchair", "CD"]);
    }

    #[test]
    fn field_predicate_numeric() {
        let d = doc();
        let cheap = Path::parse("item[price < 10]").unwrap().select_elements(&d);
        assert_eq!(cheap.len(), 1);
        assert_eq!(cheap[0].field("name").as_deref(), Some("CD"));
    }

    #[test]
    fn field_predicate_string() {
        let d = doc();
        let hit = Path::parse("item[name = 'armchair']")
            .unwrap()
            .select_elements(&d);
        assert_eq!(hit.len(), 1);
    }

    #[test]
    fn position_predicate() {
        let d = doc();
        let second = Path::parse("item[2]/name").unwrap().select_values(&d);
        assert_eq!(second, vec!["armchair"]);
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        assert_eq!(Path::parse("*").unwrap().select_elements(&d).len(), 3);
        assert_eq!(Path::parse("*/name").unwrap().select_values(&d).len(), 3);
    }

    #[test]
    fn text_step() {
        let d = doc();
        let texts = Path::parse("item/name/text()").unwrap().select_values(&d);
        assert_eq!(texts, vec!["golf clubs", "armchair", "CD"]);
    }

    #[test]
    fn first_value_trims() {
        let e = parse("<a><b>  x  </b></a>").unwrap();
        assert_eq!(
            Path::parse("b").unwrap().first_value(&e).as_deref(),
            Some("x")
        );
    }

    #[test]
    fn own_text_predicate() {
        let d = doc();
        let hits = Path::parse("item/name[text() = 'CD']")
            .unwrap()
            .select_elements(&d);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "/data[@id='245']",
            "item[price<'10']/name",
            "a/b/c",
            "*[2]",
            "item/text()",
        ] {
            let p = Path::parse(src).unwrap();
            let shown = p.to_string();
            let p2 = Path::parse(&shown).unwrap();
            assert_eq!(p, p2, "{src} -> {shown}");
        }
    }

    #[test]
    fn op_numeric_vs_string() {
        assert!(Op::Lt.apply("9", "10"));
        assert!(!Op::Lt.apply("a9", "a10")); // lexicographic
        assert!(Op::Eq.apply("1.0", "1"));
        assert!(Op::Ne.apply("x", "y"));
        assert!(Op::Ge.apply("10", "10"));
    }

    #[test]
    fn malformed_paths_rejected() {
        for bad in ["", "/", "a//b", "a[", "a[@]", "a[price 10]", "a]"] {
            // "/" alone is allowed (root), so skip it.
            if bad == "/" {
                assert!(Path::parse(bad).is_ok());
                continue;
            }
            assert!(Path::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn zero_position_rejected() {
        assert!(Path::parse("a[0]").is_err());
    }
}
