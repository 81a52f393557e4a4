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
//! ## Incremental re-serialization
//!
//! The Figure-2 loop re-parses and re-serializes the envelope at every
//! hop, so each section's wire bytes are cached and spliced instead of
//! rebuilt (DESIGN.md §7):
//!
//! * the **plan** fragment is invalidated by a dirty bit whenever the
//!   plan is touched through [`Mqp::plan_mut`];
//! * the **original** never changes after construction;
//! * **provenance** is append-only, so cached `<visit/>` fragments stay
//!   valid and only new records serialize;
//! * [`Mqp::from_wire`] seeds all of these straight from the incoming
//!   bytes, which is sound because it decodes canonical XML only (the
//!   wire grammar; anything else is a [`CodecError`]) and the canonical
//!   tokenizer guarantees each element's byte span re-serializes to
//!   itself.
//!
//! Invariants (property-tested in `tests/properties.rs`):
//! [`Mqp::wire_size`] is always exactly `to_wire().len()`, and for any
//! envelope whose sections were produced by this codec — every
//! programmatically built envelope, and everything travelling the wire
//! path, since peers only emit [`Mqp::to_wire`] — `to_wire()` is
//! byte-identical to serializing [`Mqp::to_xml`]. (An envelope parsed
//! from *foreign* canonical XML that spells a section differently than
//! this codec would — say `pred="a&lt;1"` where our predicate printer
//! writes `a &lt; 1` — forwards those received bytes verbatim, which
//! is deliberate: faithful forwarding, still reparsing to the same
//! plan.)

use std::cell::{OnceCell, RefCell};
use std::fmt;

use mqp_algebra::codec::{self, plan_from_tokens, plan_to_xml, write_plan, CodecError, ItemSink};
use mqp_algebra::plan::Plan;
use mqp_xml::{Element, Node, Token, Tokenizer, TreeBuilder};

use crate::constraints::Constraints;
use crate::provenance::VisitRecord;

/// Cached wire fragments (see module docs). Interior-mutable so
/// `to_wire(&self)` can memoize; never observable — every accessor
/// yields the same bytes a cold cache would.
///
/// One slot is more than a memo: for an envelope parsed from wire
/// bytes, `original` holds the *only* copy of the original plan —
/// validated at parse time, decoded into `Mqp::original_plan` the
/// first time someone (the §5.1 audit) actually asks. Intermediate
/// hops never pay to materialize a section they never read.
#[derive(Clone, Default)]
struct WireCache {
    /// Serialized current plan (the single child of `<plan>`); `None`
    /// when the plan is dirty.
    plan: RefCell<Option<String>>,
    /// Serialized original plan (the single child of `<original>`).
    /// Never invalidated: the original is immutable.
    original: RefCell<Option<String>>,
    /// Serialized `<visit …/>` fragments for a prefix of the
    /// provenance list (append-only, so a prefix never goes stale).
    visits: RefCell<Vec<String>>,
    /// Serialized `<constraints>…</constraints>` element.
    constraints: RefCell<Option<String>>,
}

/// A mutant query plan in flight.
#[derive(Clone)]
pub struct Mqp {
    /// The current (partially evaluated) plan.
    plan: Plan,
    /// The original plan as submitted by the client, if carried.
    /// Either this cell or `cache.original` is populated when an
    /// original is carried (see [`WireCache`]); both empty means the
    /// envelope travels without one.
    original_plan: OnceCell<Plan>,
    /// The visit history.
    provenance: Vec<VisitRecord>,
    /// Ordering/transfer policies (§5.2).
    constraints: Constraints,
    cache: WireCache,
}

impl Mqp {
    /// Wraps a fresh client plan; keeps a copy as the original.
    pub fn new(plan: Plan) -> Self {
        let original_plan = OnceCell::new();
        original_plan.set(plan.clone()).expect("fresh cell");
        Mqp {
            original_plan,
            plan,
            provenance: Vec::new(),
            constraints: Constraints::none(),
            cache: WireCache::default(),
        }
    }

    /// Attaches §5.2 constraints; returns `self` for chaining.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        *self.cache.constraints.borrow_mut() = None;
        self
    }

    /// Wraps a plan without keeping the original (leaner envelopes; the
    /// tradeoff §5.1 discusses).
    pub fn without_original(plan: Plan) -> Self {
        Mqp {
            plan,
            original_plan: OnceCell::new(),
            provenance: Vec::new(),
            constraints: Constraints::none(),
            cache: WireCache::default(),
        }
    }

    /// The current plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Mutable access to the plan. Marks the cached plan fragment dirty
    /// — the next serialization rebuilds (only) the `<plan>` section.
    pub fn plan_mut(&mut self) -> &mut Plan {
        *self.cache.plan.borrow_mut() = None;
        &mut self.plan
    }

    /// Plan access that does *not* invalidate the cached wire fragment.
    /// The processor uses this for pipeline stages that report whether
    /// they changed anything, pairing it with
    /// [`Mqp::invalidate_plan_cache`] so a pure-forward hop keeps its
    /// splice-only serialization.
    pub(crate) fn plan_untracked_mut(&mut self) -> &mut Plan {
        &mut self.plan
    }

    /// Marks the cached plan fragment dirty (see
    /// [`Mqp::plan_untracked_mut`]).
    pub(crate) fn invalidate_plan_cache(&self) {
        *self.cache.plan.borrow_mut() = None;
    }

    /// The original plan as submitted by the client, if carried.
    ///
    /// For an envelope parsed from wire bytes this is where the
    /// `<original>` section is first materialized (it was only
    /// *validated* during parsing); the decode is memoized, and
    /// envelopes that are merely forwarded never pay for it.
    pub fn original(&self) -> Option<&Plan> {
        if self.original_plan.get().is_none() {
            let wire = self.cache.original.borrow();
            let frag = wire.as_deref()?;
            let plan = codec::from_wire(frag)
                .expect("original section was token-validated when the envelope was parsed");
            drop(wire);
            let _ = self.original_plan.set(plan);
        }
        self.original_plan.get()
    }

    /// The visit history, oldest first.
    pub fn provenance(&self) -> &[VisitRecord] {
        &self.provenance
    }

    /// The §5.2 constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Appends a provenance record. (Provenance is append-only, which
    /// is what lets its serialized fragments be cached.)
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

    /// Serializes the envelope to XML. (The tree form is the spec the
    /// spliced [`Mqp::to_wire`] is property-tested against; the wire
    /// path itself never builds it.)
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("mqp");
        e.push_child(Node::Element(
            Element::new("plan").child(plan_to_xml(&self.plan)),
        ));
        if let Some(orig) = self.original() {
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

    /// Serializes to the compact wire string, splicing cached fragments
    /// for every section that did not change since the envelope was
    /// parsed (byte-identical to `serialize(&self.to_xml())`).
    pub fn to_wire(&self) -> String {
        self.ensure_fragments();
        let plan = self.cache.plan.borrow();
        let original = self.cache.original.borrow();
        let visits = self.cache.visits.borrow();
        let constraints = self.cache.constraints.borrow();
        let plan = plan.as_deref().expect("ensured");
        let orig = original.as_deref();
        let cons = (!self.constraints.is_empty()).then(|| constraints.as_deref().expect("ensured"));
        let mut out = String::with_capacity(assembled_len(plan, orig, &visits, cons));
        out.push_str("<mqp><plan>");
        out.push_str(plan);
        out.push_str("</plan>");
        if let Some(o) = orig {
            out.push_str("<original>");
            out.push_str(o);
            out.push_str("</original>");
        }
        if visits.is_empty() {
            out.push_str("<provenance/>");
        } else {
            out.push_str("<provenance>");
            for v in visits.iter() {
                out.push_str(v);
            }
            out.push_str("</provenance>");
        }
        if let Some(c) = cons {
            out.push_str(c);
        }
        out.push_str("</mqp>");
        out
    }

    /// Parses from the wire string in one walk of the zero-copy
    /// tokenizer: the current plan decodes straight from tokens (no
    /// intermediate XML tree), the `<original>` section is *validated
    /// but not materialized* (its bytes become the cached fragment,
    /// decoded lazily by [`Mqp::original`]), and every section's byte
    /// span seeds the splice cache. The input must be canonical XML, as
    /// everything [`Mqp::to_wire`] writes is; the error says where it
    /// is not, or which section or operator is malformed.
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
        let mut plan: Option<Plan> = None;
        let mut plan_frag: Option<&str> = None;
        let mut seen_plan = false;
        let mut original_frag: Option<&str> = None;
        let mut seen_original = false;
        let mut seen_provenance = false;
        let mut visits: Vec<VisitRecord> = Vec::new();
        let mut visit_frags: Vec<&str> = Vec::new();
        let mut constraints: Option<Constraints> = None;
        let mut constraints_frag: Option<&str> = None;
        loop {
            let section_start = tok.pos();
            match next(&mut tok)? {
                Token::Close("mqp") => break,
                Token::Text(_) => {} // stray text between sections
                Token::Open("plan") if !seen_plan => {
                    seen_plan = true;
                    open_end(&mut tok, "plan")?;
                    loop {
                        let inner_start = tok.pos();
                        match next(&mut tok)? {
                            Token::Open(n) => {
                                if plan.is_none() {
                                    plan = Some(plan_from_tokens(
                                        &mut tok,
                                        &mut ItemSink::Build(&mut tb),
                                        n,
                                    )?);
                                    plan_frag = Some(&s[inner_start..tok.pos()]);
                                } else {
                                    // The first element child is the
                                    // plan; skip (and validate) extras.
                                    mqp_xml::skip_subtree(&mut tok, n)
                                        .map_err(|_| not_canonical(&tok))?;
                                }
                            }
                            Token::Text(_) => {}
                            Token::Close("plan") => break,
                            _ => return Err(not_canonical(&tok)),
                        }
                    }
                }
                Token::Open("original") if !seen_original => {
                    seen_original = true;
                    open_end(&mut tok, "original")?;
                    loop {
                        let inner_start = tok.pos();
                        match next(&mut tok)? {
                            Token::Open(n) => {
                                if original_frag.is_none() {
                                    // Validate without materializing:
                                    // the skip-mode decoder accepts
                                    // exactly what the build-mode one
                                    // does, so the lazy decode in
                                    // `original()` cannot fail.
                                    plan_from_tokens(&mut tok, &mut ItemSink::Skip, n)?;
                                    original_frag = Some(&s[inner_start..tok.pos()]);
                                } else {
                                    mqp_xml::skip_subtree(&mut tok, n)
                                        .map_err(|_| not_canonical(&tok))?;
                                }
                            }
                            Token::Text(_) => {}
                            Token::Close("original") => break,
                            _ => return Err(not_canonical(&tok)),
                        }
                    }
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
                            let visit_start = tok.pos();
                            match next(&mut tok)? {
                                Token::Open(n) => {
                                    let el =
                                        tb.build(&mut tok, n).map_err(|_| not_canonical(&tok))?;
                                    visits.push(
                                        VisitRecord::from_xml(&el)
                                            .ok_or_else(|| bad("bad <visit> record"))?,
                                    );
                                    visit_frags.push(&s[visit_start..tok.pos()]);
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
                    constraints_frag = Some(&s[section_start..tok.pos()]);
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
            plan: plan.ok_or_else(|| bad("missing <plan>"))?,
            original_plan: OnceCell::new(),
            provenance: visits,
            constraints: constraints.unwrap_or_else(Constraints::none),
            cache: WireCache {
                plan: RefCell::new(plan_frag.map(str::to_owned)),
                original: RefCell::new(original_frag.map(str::to_owned)),
                visits: RefCell::new(visit_frags.iter().map(|f| (*f).to_owned()).collect()),
                constraints: RefCell::new(constraints_frag.map(str::to_owned)),
            },
        })
    }

    /// Byte size of the envelope on the wire — what the network charges
    /// per hop. Always exactly `to_wire().len()`.
    pub fn wire_size(&self) -> usize {
        self.ensure_fragments();
        let plan = self.cache.plan.borrow();
        let original = self.cache.original.borrow();
        let visits = self.cache.visits.borrow();
        let constraints = self.cache.constraints.borrow();
        assembled_len(
            plan.as_deref().expect("ensured"),
            original.as_deref(),
            &visits,
            (!self.constraints.is_empty()).then(|| constraints.as_deref().expect("ensured")),
        )
    }

    /// Fills every cache slot that is currently cold.
    fn ensure_fragments(&self) {
        {
            let mut plan = self.cache.plan.borrow_mut();
            if plan.is_none() {
                let mut s = String::with_capacity(128);
                write_plan(&self.plan, &mut s);
                *plan = Some(s);
            }
        }
        if let Some(orig) = self.original_plan.get() {
            let mut original = self.cache.original.borrow_mut();
            if original.is_none() {
                let mut s = String::with_capacity(128);
                write_plan(orig, &mut s);
                *original = Some(s);
            }
        }
        {
            let mut visits = self.cache.visits.borrow_mut();
            for v in &self.provenance[visits.len()..] {
                visits.push(mqp_xml::serialize(&v.to_xml()));
            }
        }
        if !self.constraints.is_empty() {
            let mut cons = self.cache.constraints.borrow_mut();
            if cons.is_none() {
                *cons = Some(mqp_xml::serialize(&self.constraints.to_xml()));
            }
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

/// Length of the assembled envelope for the given fragments.
fn assembled_len(
    plan: &str,
    original: Option<&str>,
    visits: &[String],
    constraints: Option<&str>,
) -> usize {
    let mut n = "<mqp>".len() + "<plan>".len() + plan.len() + "</plan>".len() + "</mqp>".len();
    if let Some(o) = original {
        n += "<original>".len() + o.len() + "</original>".len();
    }
    n += if visits.is_empty() {
        "<provenance/>".len()
    } else {
        "<provenance>".len() + visits.iter().map(String::len).sum::<usize>() + "</provenance>".len()
    };
    if let Some(c) = constraints {
        n += c.len();
    }
    n
}

impl PartialEq for Mqp {
    fn eq(&self, other: &Self) -> bool {
        // Caches are memoization, not state (comparing originals may
        // materialize a lazily-held section on either side).
        self.plan == other.plan
            && self.original() == other.original()
            && self.provenance == other.provenance
            && self.constraints == other.constraints
    }
}

impl fmt::Debug for Mqp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mqp")
            .field("plan", &self.plan)
            .field("original", &self.original())
            .field("provenance", &self.provenance)
            .field("constraints", &self.constraints)
            .finish()
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
    fn wire_size_matches() {
        let m = sample();
        assert_eq!(m.wire_size(), m.to_wire().len());
    }

    #[test]
    fn to_wire_matches_tree_serialization() {
        let m = sample();
        assert_eq!(m.to_wire(), mqp_xml::serialize(&m.to_xml()));
    }

    #[test]
    fn reparsed_envelope_reserializes_identically() {
        // The seeded-cache path: from_wire on canonical bytes must
        // splice back to the identical wire string.
        let wire = sample().to_wire();
        let back = Mqp::from_wire(&wire).unwrap();
        assert_eq!(back.to_wire(), wire);
        assert_eq!(back.wire_size(), wire.len());
    }

    #[test]
    fn plan_mutation_invalidates_cached_fragment() {
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
        assert_eq!(m.wire_size(), m.to_wire().len());
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
    fn foreign_spelling_is_forwarded_verbatim() {
        // Canonical XML that spells a section differently than our
        // codec would (visit attributes in a foreign order): the
        // received bytes are spliced onward verbatim — deliberate
        // faithful forwarding (see module docs) — while reparsing
        // still yields the same envelope.
        let wire = "<mqp><plan><data cardinality=\"0\"/></plan><provenance>\
                    <visit action=\"forwarded\" server=\"s\" detail=\"\" at=\"0\" staleness=\"0\"/>\
                    </provenance></mqp>";
        let m = Mqp::from_wire(wire).unwrap();
        assert_eq!(m.to_wire(), wire);
        assert_eq!(m.wire_size(), wire.len());
        assert_ne!(m.to_wire(), mqp_xml::serialize(&m.to_xml()));
        assert_eq!(Mqp::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn non_canonical_input_still_parses_and_reserializes_canonically() {
        // The one slack the section walk has: an empty `<provenance>`
        // written long form decodes, and re-serializes canonically
        // because the provenance wrapper is assembled, not spliced.
        let m = Mqp::new(Plan::data([]));
        let wire = m.to_wire();
        let spaced = wire.replace("<provenance/>", "<provenance></provenance>");
        assert_ne!(spaced, wire);
        let back = Mqp::from_wire(&spaced).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_wire(), wire);
    }
}
