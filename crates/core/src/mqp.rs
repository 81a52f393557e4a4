//! The MQP envelope: what actually travels between servers.
//!
//! §5.1 argues for carrying more than the bare plan: provenance, and a
//! copy of the original query ("Maintaining the original query along
//! with the partially evaluated query also allows a server to improve or
//! enhance bindings (or even undo them)"). The envelope is itself XML:
//!
//! ```text
//! <mqp>
//!   <plan> current plan </plan>
//!   <original> original plan </original>      (optional)
//!   <provenance> <visit …/>* </provenance>
//! </mqp>
//! ```
//!
//! An [`Mqp`] is a plain value: the Figure-2 loop parses it, changes it
//! and writes it out again, and [`Mqp::to_wire`] writes every section
//! afresh on each call (DESIGN.md §7 records why no section is cached).
//! Invariant (property-tested in `tests/properties.rs`): for every
//! envelope, `to_wire()` is byte-identical to serializing
//! [`Mqp::to_xml`], and what [`Mqp::from_wire`] accepts writes back in
//! that spelling and reparses equal.

use mqp_algebra::codec::{plan_from_tokens, plan_to_xml, write_plan, CodecError};
use mqp_algebra::plan::Plan;
use mqp_xml::{serialize_into, Element, Node, Token, Tokenizer, TreeBuilder};

use crate::constraints::Constraints;
use crate::provenance::VisitRecord;

/// A mutant query plan in flight.
#[derive(Clone, Debug, PartialEq)]
pub struct Mqp {
    /// The current (partially evaluated) plan.
    plan: Plan,
    /// The original plan as submitted by the client, if carried.
    original: Option<Plan>,
    /// The visit history.
    provenance: Vec<VisitRecord>,
    /// Ordering/transfer policies (§5.2).
    constraints: Constraints,
}

impl Mqp {
    /// Wraps a fresh client plan; keeps a copy as the original.
    pub fn new(plan: Plan) -> Self {
        Mqp {
            original: Some(plan.clone()),
            plan,
            provenance: Vec::new(),
            constraints: Constraints::none(),
        }
    }

    /// Attaches §5.2 constraints; returns `self` for chaining.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Wraps a plan without keeping the original (leaner envelopes; the
    /// tradeoff §5.1 discusses).
    pub fn without_original(plan: Plan) -> Self {
        Mqp {
            plan,
            original: None,
            provenance: Vec::new(),
            constraints: Constraints::none(),
        }
    }

    /// The current plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Mutable access to the plan.
    pub fn plan_mut(&mut self) -> &mut Plan {
        &mut self.plan
    }

    /// The original plan as submitted by the client, if carried.
    pub fn original(&self) -> Option<&Plan> {
        self.original.as_ref()
    }

    /// The visit history, oldest first.
    pub fn provenance(&self) -> &[VisitRecord] {
        &self.provenance
    }

    /// The §5.2 constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Appends a provenance record.
    pub fn record(&mut self, visit: VisitRecord) {
        self.provenance.push(visit);
    }

    /// Servers visited so far, in order, without duplicates.
    pub fn visited(&self) -> Vec<mqp_catalog::ServerId> {
        let mut out = Vec::new();
        for v in &self.provenance {
            if !out.contains(&v.server) {
                out.push(v.server.clone());
            }
        }
        out
    }

    /// Worst-case staleness of any information used so far (minutes).
    pub fn staleness(&self) -> u32 {
        self.provenance
            .iter()
            .map(|v| v.staleness)
            .max()
            .unwrap_or(0)
    }

    /// Serializes the envelope to XML. (The tree form is the spec
    /// [`Mqp::to_wire`] is property-tested against; the wire path itself
    /// never builds it.)
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("mqp");
        e.push_child(Node::Element(
            Element::new("plan").child(plan_to_xml(&self.plan)),
        ));
        if let Some(orig) = &self.original {
            e.push_child(Node::Element(
                Element::new("original").child(plan_to_xml(orig)),
            ));
        }
        let mut prov = Element::new("provenance");
        for v in &self.provenance {
            prov.push_child(Node::Element(v.to_xml()));
        }
        e.push_child(Node::Element(prov));
        if !self.constraints.is_empty() {
            e.push_child(Node::Element(self.constraints.to_xml()));
        }
        e
    }

    /// Serializes to the compact wire string, writing each section once
    /// (byte-identical to `serialize(&self.to_xml())`).
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("<mqp><plan>");
        write_plan(&self.plan, &mut out);
        out.push_str("</plan>");
        if let Some(orig) = &self.original {
            out.push_str("<original>");
            write_plan(orig, &mut out);
            out.push_str("</original>");
        }
        if self.provenance.is_empty() {
            out.push_str("<provenance/>");
        } else {
            out.push_str("<provenance>");
            for v in &self.provenance {
                serialize_into(&v.to_xml(), &mut out);
            }
            out.push_str("</provenance>");
        }
        if !self.constraints.is_empty() {
            serialize_into(&self.constraints.to_xml(), &mut out);
        }
        out.push_str("</mqp>");
        out
    }

    /// Parses from the wire string in one walk of the zero-copy
    /// tokenizer: the current and original plans decode straight from
    /// tokens (no intermediate XML tree for operators). The input must
    /// be canonical XML, as everything [`Mqp::to_wire`] writes is; the
    /// error says where it is not, or which section or operator is
    /// malformed.
    pub fn from_wire(s: &str) -> Result<Mqp, CodecError> {
        let bad = |m: &str| CodecError::Malformed(m.to_owned());
        let mut tok = Tokenizer::new(s);
        match next(&mut tok)? {
            Token::Open("mqp") => {}
            Token::Open(_) => return Err(bad("envelope root must be <mqp>")),
            _ => return Err(not_canonical(&tok)),
        }
        open_end(&mut tok, "mqp")?;
        let mut tb = TreeBuilder::new();
        // `Some(section)` once the section was read; the section holds
        // `None` when it carried no plan element.
        let mut plan: Option<Option<Plan>> = None;
        let mut original: Option<Option<Plan>> = None;
        let mut seen_provenance = false;
        let mut visits: Vec<VisitRecord> = Vec::new();
        let mut constraints: Option<Constraints> = None;
        loop {
            match next(&mut tok)? {
                Token::Close("mqp") => break,
                Token::Text(_) => {} // stray text between sections
                Token::Open("plan") if plan.is_none() => {
                    plan = Some(plan_section(&mut tok, &mut tb, "plan")?);
                }
                Token::Open("original") if original.is_none() => {
                    original = Some(plan_section(&mut tok, &mut tb, "original")?);
                }
                Token::Open("provenance") if !seen_provenance => {
                    seen_provenance = true;
                    let self_closed = match next(&mut tok)? {
                        Token::OpenEnd => false,
                        Token::SelfClose => true,
                        _ => return Err(bad("<provenance> takes no attributes")),
                    };
                    if !self_closed {
                        loop {
                            match next(&mut tok)? {
                                Token::Open(n) => {
                                    let el =
                                        tb.build(&mut tok, n).map_err(|_| not_canonical(&tok))?;
                                    visits.push(
                                        VisitRecord::from_xml(&el)
                                            .ok_or_else(|| bad("bad <visit> record"))?,
                                    );
                                }
                                Token::Text(_) => {}
                                Token::Close("provenance") => break,
                                _ => return Err(not_canonical(&tok)),
                            }
                        }
                    }
                }
                Token::Open("constraints") if constraints.is_none() => {
                    let el = tb
                        .build(&mut tok, "constraints")
                        .map_err(|_| not_canonical(&tok))?;
                    constraints =
                        Some(Constraints::from_xml(&el).ok_or_else(|| bad("bad <constraints>"))?);
                }
                // Unknown sections are skipped (and validated).
                Token::Open(n) => {
                    mqp_xml::skip_subtree(&mut tok, n).map_err(|_| not_canonical(&tok))?
                }
                _ => return Err(not_canonical(&tok)),
            }
        }
        let end = tok.pos();
        if !matches!(tok.next_token(), Ok(None)) {
            return Err(CodecError::NotCanonical { at: end }); // content after the root
        }
        Ok(Mqp {
            plan: plan.flatten().ok_or_else(|| bad("missing <plan>"))?,
            original: original.flatten(),
            provenance: visits,
            constraints: constraints.unwrap_or_else(Constraints::none),
        })
    }
}

/// Reads a `<plan>` or `<original>` section whose open tag was just
/// consumed: its first element child is the plan, and further element
/// children are validated and skipped.
fn plan_section(
    tok: &mut Tokenizer<'_>,
    tb: &mut TreeBuilder,
    section: &str,
) -> Result<Option<Plan>, CodecError> {
    open_end(tok, section)?;
    let mut plan = None;
    loop {
        match next(tok)? {
            Token::Open(n) if plan.is_none() => plan = Some(plan_from_tokens(tok, tb, n)?),
            Token::Open(n) => mqp_xml::skip_subtree(tok, n).map_err(|_| not_canonical(tok))?,
            Token::Text(_) => {}
            Token::Close(c) if c == section => return Ok(plan),
            _ => return Err(not_canonical(tok)),
        }
    }
}

fn not_canonical(tok: &Tokenizer<'_>) -> CodecError {
    CodecError::NotCanonical { at: tok.pos() }
}

/// The next token; a tokenizer error and a premature end of input are
/// both [`CodecError::NotCanonical`] at the tokenizer's offset.
#[inline]
fn next<'a>(tok: &mut Tokenizer<'a>) -> Result<Token<'a>, CodecError> {
    match tok.next_token() {
        Ok(Some(t)) => Ok(t),
        _ => Err(not_canonical(tok)),
    }
}

/// Consumes the `>` of a section's open tag: `<mqp>`, `<plan>` and
/// `<original>` take no attributes and are never empty.
fn open_end(tok: &mut Tokenizer<'_>, section: &str) -> Result<(), CodecError> {
    match next(tok)? {
        Token::OpenEnd => Ok(()),
        _ => Err(CodecError::Malformed(format!(
            "<{section}> must have content and no attributes"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Action;
    use mqp_catalog::ServerId;

    fn sample() -> Mqp {
        let plan = Plan::display(
            "client:9020",
            Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs")),
        );
        let mut m = Mqp::new(plan);
        m.record(VisitRecord {
            server: ServerId::new("meta-usa"),
            action: Action::Bound,
            detail: "urn:ForSale:Portland-CDs -> mqp://seller-1/".to_owned(),
            at: 1000,
            staleness: 0,
        });
        m
    }

    #[test]
    fn envelope_roundtrip() {
        let m = sample();
        let wire = m.to_wire();
        let back = Mqp::from_wire(&wire).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn envelope_without_original_roundtrip() {
        let m = Mqp::without_original(Plan::data([]));
        let back = Mqp::from_wire(&m.to_wire()).unwrap();
        assert_eq!(back, m);
        assert!(back.original().is_none());
    }

    #[test]
    fn to_wire_matches_tree_serialization() {
        let m = sample();
        assert_eq!(m.to_wire(), mqp_xml::serialize(&m.to_xml()));
    }

    #[test]
    fn reparsed_envelope_reserializes_identically() {
        // from_wire on canonical bytes writes back the identical wire
        // string.
        let wire = sample().to_wire();
        let back = Mqp::from_wire(&wire).unwrap();
        assert_eq!(back.to_wire(), wire);
    }

    #[test]
    fn plan_mutation_reaches_the_wire() {
        let mut m = Mqp::from_wire(&sample().to_wire()).unwrap();
        *m.plan_mut() = Plan::display("client:9020", Plan::data([]));
        assert_eq!(m.to_wire(), mqp_xml::serialize(&m.to_xml()));
        assert!(m.to_wire().contains("<plan><display"));
    }

    #[test]
    fn record_after_reparse_appends_fragment() {
        let mut m = Mqp::from_wire(&sample().to_wire()).unwrap();
        m.record(VisitRecord {
            server: ServerId::new("seller-1"),
            action: Action::Evaluated,
            detail: "reduced select at /0".to_owned(),
            at: 2000,
            staleness: 0,
        });
        assert_eq!(m.to_wire(), mqp_xml::serialize(&m.to_xml()));
    }

    #[test]
    fn visited_dedups_in_order() {
        let mut m = sample();
        for s in ["a", "b", "a"] {
            m.record(VisitRecord {
                server: ServerId::new(s),
                action: Action::Forwarded,
                detail: String::new(),
                at: 0,
                staleness: 0,
            });
        }
        let visited: Vec<String> = m.visited().iter().map(|s| s.as_str().to_owned()).collect();
        assert_eq!(visited, ["meta-usa", "a", "b"]);
    }

    #[test]
    fn staleness_is_max() {
        let mut m = sample();
        m.record(VisitRecord {
            server: ServerId::new("r"),
            action: Action::Evaluated,
            detail: String::new(),
            at: 5,
            staleness: 30,
        });
        assert_eq!(m.staleness(), 30);
    }

    #[test]
    fn constraints_roundtrip() {
        let m = sample().with_constraints(
            Constraints::none()
                .allow_only(["irs", "state"])
                .bind_after("urn:A:x", "urn:B:y"),
        );
        let back = Mqp::from_wire(&m.to_wire()).unwrap();
        assert_eq!(back, m);
        assert!(!back.constraints().is_empty());
        assert_eq!(back.to_wire(), m.to_wire());
    }

    #[test]
    fn malformed_envelopes_rejected() {
        for (bad, names) in [
            ("<notmqp/>", "<mqp>"),
            ("<mqp/>", "<mqp>"),
            ("<mqp a=\"1\"><plan><data/></plan></mqp>", "<mqp>"),
            ("<mqp><plan/></mqp>", "<plan>"),
            ("<mqp><provenance/></mqp>", "missing <plan>"),
            ("<mqp><plan><mystery/></plan></mqp>", "<mystery>"),
            (
                "<mqp><plan><data/></plan><original><url/></original></mqp>",
                "url missing href",
            ),
            (
                "<mqp><plan><data/></plan><provenance><visit/></provenance></mqp>",
                "<visit>",
            ),
            (
                "<mqp><plan><data/></plan><constraints><order/></constraints></mqp>",
                "<constraints>",
            ),
        ] {
            match Mqp::from_wire(bad) {
                Err(CodecError::Malformed(m)) => assert!(m.contains(names), "{bad}: {m}"),
                other => panic!("{bad}: expected Malformed, got {other:?}"),
            }
        }
    }

    /// One grammar: a pretty-printed envelope is well-formed XML but not
    /// what [`Mqp::to_wire`] writes, and the error says where it
    /// strays.
    #[test]
    fn non_canonical_envelopes_are_rejected() {
        let wire = sample().to_wire();
        assert_eq!(
            Mqp::from_wire(&format!("{wire}\n")),
            Err(CodecError::NotCanonical { at: wire.len() })
        );
        let pretty = "<mqp>\n  <plan>\n    <url href=\"x\"/>\n  </plan>\n  <provenance/>\n</mqp>\n";
        assert_eq!(
            Mqp::from_wire(pretty),
            Err(CodecError::NotCanonical {
                at: pretty.trim_end().len()
            })
        );
        assert_eq!(
            Mqp::from_wire(&format!("<?xml version=\"1.0\"?>{wire}")),
            Err(CodecError::NotCanonical { at: 1 })
        );
        // An item inside the plan is verbatim: no slack there at all.
        let item = "<mqp><plan><data><i a='1'/></data></plan><provenance/></mqp>";
        assert_eq!(
            Mqp::from_wire(item),
            Err(CodecError::NotCanonical { at: 21 })
        );
        assert_eq!(
            Mqp::from_wire(&wire[..wire.len() - 1]),
            Err(CodecError::NotCanonical { at: wire.len() - 1 })
        );
    }

    #[test]
    fn foreign_spelling_is_rewritten_canonically() {
        // Canonical XML that spells a section differently than our
        // codec would (visit attributes in a foreign order): the
        // envelope is written back in the codec's spelling, and that
        // reparses to the same envelope.
        let wire = "<mqp><plan><data cardinality=\"0\"/></plan><provenance>\
                    <visit action=\"forwarded\" server=\"s\" detail=\"\" at=\"0\" staleness=\"0\"/>\
                    </provenance></mqp>";
        let m = Mqp::from_wire(wire).unwrap();
        assert_ne!(m.to_wire(), wire);
        assert_eq!(m.to_wire(), mqp_xml::serialize(&m.to_xml()));
        assert_eq!(Mqp::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn non_canonical_input_still_parses_and_reserializes_canonically() {
        // The one slack the section walk has: an empty `<provenance>`
        // written long form decodes, and re-serializes canonically.
        let m = Mqp::new(Plan::data([]));
        let wire = m.to_wire();
        let spaced = wire.replace("<provenance/>", "<provenance></provenance>");
        assert_ne!(spaced, wire);
        let back = Mqp::from_wire(&spaced).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_wire(), wire);
    }
}
