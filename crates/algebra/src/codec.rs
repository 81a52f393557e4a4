//! The MQP wire format: plans serialized as XML (paper §2, Figure 2:
//! "An MQP arrives at a server encoded in XML. The server parses the
//! plan into an in-memory graph…").
//!
//! Element vocabulary:
//!
//! ```text
//! <display target="host:port"> input </display>
//! <select pred="price &lt; 10"> input </select>
//! <project fields="name,price"> input </project>
//! <join left="song/title" right="track/title"> left right </join>
//! <union> inputs… </union>
//! <or> <alt staleness="30"> plan </alt> <alt> plan </alt> </or>
//! <agg func="count" path="price"> input </agg>
//! <topn n="10" key="price" order="asc"> input </topn>
//! <data cardinality="2"> verbatim items… </data>
//! <url href="http://10.1.2.3:9020/" collection="/data[@id='245']"/>
//! <urn name="urn:ForSale:Portland-CDs"/>
//! ```
//!
//! Leaf annotations (§5.1) ride as extra attributes on `data`/`url`/
//! `urn`; the attribute names `href`, `collection`, `name`, and
//! `cardinality` (on `data` it is stored in meta too) are reserved by
//! the format.
//!
//! There is one decoder, [`from_wire`]: a single walk over the
//! zero-copy tokenizer of `mqp_xml::canon`, which accepts exactly the
//! canonical XML [`to_wire`] writes. Anything else — a prolog, a
//! comment, single-quoted attributes, pretty-printing — is
//! [`CodecError::NotCanonical`]; people write `.mqpq` (`mqp-lang`), not
//! plan XML. [`plan_to_xml`] is the tree-building encoder the direct
//! one is property-tested against.

use std::fmt;

use mqp_namespace::Urn;
use mqp_xml::serialize::escape_into;
use mqp_xml::xpath::Path;
use mqp_xml::{serialize_into, Element, Node, Token, Tokenizer, TreeBuilder};

use crate::plan::{Annotations, JoinCond, OrAlt, Plan, UrlRef, UrnRef};
use crate::predicate::{AggFunc, Predicate};

/// Errors decoding a plan or envelope from its wire bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The bytes are not canonical XML — the wire grammar
    /// (`mqp_xml::canon`): the tokenizer stopped at byte offset `at`
    /// (a construct it does not accept, a mismatched or duplicate name,
    /// truncation, or content after the root).
    NotCanonical {
        /// Byte offset into the decoded string.
        at: usize,
    },
    /// Canonical XML, but not a valid plan.
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::NotCanonical { at } => write!(f, "not canonical XML at byte {at}"),
            CodecError::Malformed(m) => write!(f, "malformed plan: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn malformed(msg: impl Into<String>) -> CodecError {
    CodecError::Malformed(msg.into())
}

/// Serializes a plan to its XML element form.
pub fn plan_to_xml(plan: &Plan) -> Element {
    match plan {
        Plan::Data { items, meta } => {
            let mut e = Element::new("data");
            write_meta(&mut e, meta);
            for item in items {
                e.push_child(Node::Element(item.clone()));
            }
            e
        }
        Plan::Url(u) => {
            let mut e = Element::new("url").attr("href", &u.href);
            if let Some(c) = &u.collection {
                e.set_attr("collection", c.to_string());
            }
            write_meta(&mut e, &u.meta);
            e
        }
        Plan::Urn(u) => {
            let mut e = Element::new("urn").attr("name", u.urn.to_string());
            write_meta(&mut e, &u.meta);
            e
        }
        Plan::Select { pred, input } => Element::new("select")
            .attr("pred", pred.to_string())
            .child(plan_to_xml(input)),
        Plan::Project { fields, input } => Element::new("project")
            .attr("fields", fields.join(","))
            .child(plan_to_xml(input)),
        Plan::Join { on, left, right } => Element::new("join")
            .attr("left", on.left_path.to_string())
            .attr("right", on.right_path.to_string())
            .child(plan_to_xml(left))
            .child(plan_to_xml(right)),
        Plan::Union(inputs) => {
            let mut e = Element::new("union");
            for i in inputs {
                e.push_child(Node::Element(plan_to_xml(i)));
            }
            e
        }
        Plan::Or(alts) => {
            let mut e = Element::new("or");
            for a in alts {
                let mut alt = Element::new("alt");
                if let Some(m) = a.staleness {
                    alt.set_attr("staleness", m.to_string());
                }
                alt.push_child(Node::Element(plan_to_xml(&a.plan)));
                e.push_child(Node::Element(alt));
            }
            e
        }
        Plan::Aggregate { func, path, input } => {
            let mut e = Element::new("agg").attr("func", func.name());
            if let Some(p) = path {
                e.set_attr("path", p.to_string());
            }
            e.push_child(Node::Element(plan_to_xml(input)));
            e
        }
        Plan::TopN {
            n,
            key,
            ascending,
            input,
        } => Element::new("topn")
            .attr("n", n.to_string())
            .attr("key", key.to_string())
            .attr("order", if *ascending { "asc" } else { "desc" })
            .child(plan_to_xml(input)),
        Plan::Display { target, input } => Element::new("display")
            .attr("target", target)
            .child(plan_to_xml(input)),
    }
}

fn write_meta(e: &mut Element, meta: &Annotations) {
    for (k, v) in meta.iter() {
        // Reserved attribute names never appear as meta keys (decode
        // filters them), but guard anyway to keep encode total.
        if !is_reserved_attr(e.name(), k) {
            e.set_attr(k, v);
        }
    }
}

fn is_reserved_attr(elem: &str, key: &str) -> bool {
    matches!(
        (elem, key),
        ("url", "href") | ("url", "collection") | ("urn", "name")
    )
}

// ----------------------------------------------------------------------
// Direct serialization: plan → wire bytes without an intermediate
// Element tree.
// ----------------------------------------------------------------------

/// Serializes `plan` straight into `out`, byte-identical to
/// `mqp_xml::serialize(&plan_to_xml(plan))` (property-tested in
/// `proptests.rs`). This is the hot-path serializer: it never clones
/// data items and never materializes the XML tree, so a hop that ships
/// a plan onward pays only for the output bytes.
pub fn write_plan(plan: &Plan, out: &mut String) {
    match plan {
        Plan::Data { items, meta } => {
            out.push_str("<data");
            write_meta_attrs(out, "data", meta);
            if items.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for item in items {
                    serialize_into(item, out);
                }
                out.push_str("</data>");
            }
        }
        Plan::Url(u) => {
            out.push_str("<url");
            push_attr(out, "href", &u.href);
            if let Some(c) = &u.collection {
                push_attr(out, "collection", &c.to_string());
            }
            write_meta_attrs(out, "url", &u.meta);
            out.push_str("/>");
        }
        Plan::Urn(u) => {
            out.push_str("<urn");
            push_attr(out, "name", &u.urn.to_string());
            write_meta_attrs(out, "urn", &u.meta);
            out.push_str("/>");
        }
        Plan::Select { pred, input } => {
            out.push_str("<select");
            push_attr(out, "pred", &pred.to_string());
            out.push('>');
            write_plan(input, out);
            out.push_str("</select>");
        }
        Plan::Project { fields, input } => {
            out.push_str("<project");
            push_attr(out, "fields", &fields.join(","));
            out.push('>');
            write_plan(input, out);
            out.push_str("</project>");
        }
        Plan::Join { on, left, right } => {
            out.push_str("<join");
            push_attr(out, "left", &on.left_path.to_string());
            push_attr(out, "right", &on.right_path.to_string());
            out.push('>');
            write_plan(left, out);
            write_plan(right, out);
            out.push_str("</join>");
        }
        Plan::Union(inputs) => {
            if inputs.is_empty() {
                out.push_str("<union/>");
            } else {
                out.push_str("<union>");
                for i in inputs {
                    write_plan(i, out);
                }
                out.push_str("</union>");
            }
        }
        Plan::Or(alts) => {
            if alts.is_empty() {
                out.push_str("<or/>");
            } else {
                out.push_str("<or>");
                for a in alts {
                    out.push_str("<alt");
                    if let Some(m) = a.staleness {
                        push_attr(out, "staleness", &m.to_string());
                    }
                    out.push('>');
                    write_plan(&a.plan, out);
                    out.push_str("</alt>");
                }
                out.push_str("</or>");
            }
        }
        Plan::Aggregate { func, path, input } => {
            out.push_str("<agg");
            push_attr(out, "func", func.name());
            if let Some(p) = path {
                push_attr(out, "path", &p.to_string());
            }
            out.push('>');
            write_plan(input, out);
            out.push_str("</agg>");
        }
        Plan::TopN {
            n,
            key,
            ascending,
            input,
        } => {
            out.push_str("<topn");
            push_attr(out, "n", &n.to_string());
            push_attr(out, "key", &key.to_string());
            push_attr(out, "order", if *ascending { "asc" } else { "desc" });
            out.push('>');
            write_plan(input, out);
            out.push_str("</topn>");
        }
        Plan::Display { target, input } => {
            out.push_str("<display");
            push_attr(out, "target", target);
            out.push('>');
            write_plan(input, out);
            out.push_str("</display>");
        }
    }
}

fn push_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    escape_into(value, true, out);
    out.push('"');
}

fn write_meta_attrs(out: &mut String, elem: &str, meta: &Annotations) {
    for (k, v) in meta.iter() {
        if !is_reserved_attr(elem, k) {
            push_attr(out, k, v);
        }
    }
}

/// Serializes a plan to the compact XML wire string (via
/// [`write_plan`], so no intermediate tree is built).
pub fn to_wire(plan: &Plan) -> String {
    let mut out = String::with_capacity(128);
    write_plan(plan, &mut out);
    out
}

/// Parses a plan from the XML wire string: canonical bytes (everything
/// [`to_wire`] produces) decode straight from the zero-copy tokenizer
/// into a [`Plan`] — no intermediate XML tree for operator nodes and no
/// deep-cloning data items out of one. This is the only decoder; what
/// it does not accept is an error that says why.
pub fn from_wire(s: &str) -> Result<Plan, CodecError> {
    let mut tok = Tokenizer::new(s);
    let Token::Open(name) = next(&mut tok)? else {
        return Err(not_canonical(&tok));
    };
    let plan = plan_from_tokens(&mut tok, &mut TreeBuilder::new(), name)?;
    let end = tok.pos();
    match tok.next_token() {
        Ok(None) => Ok(plan),
        _ => Err(CodecError::NotCanonical { at: end }), // content after the root
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

/// Decodes the operator element whose `Open(name)` token was just
/// consumed: attributes, then children (stray text at operator level is
/// ignored; data items are verbatim and built through `tb`), then the
/// closing tag. Leaves the tokenizer just past the element.
pub fn plan_from_tokens(
    tok: &mut Tokenizer<'_>,
    tb: &mut TreeBuilder,
    name: &str,
) -> Result<Plan, CodecError> {
    // Attributes arrive before we know the children.
    let mut attrs: Vec<(&str, std::borrow::Cow<'_, str>)> = Vec::new();
    let self_closed = loop {
        match next(tok)? {
            Token::Attr { name, value } => {
                if attrs.iter().any(|(n, _)| *n == name) {
                    return Err(not_canonical(tok));
                }
                attrs.push((name, value));
            }
            Token::OpenEnd => break false,
            Token::SelfClose => break true,
            _ => return Err(not_canonical(tok)),
        }
    };
    let attr = |key: &str| {
        attrs
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, v)| v.as_ref())
    };
    let need = |key: &str| attr(key).ok_or_else(|| malformed(format!("{name} missing {key}")));
    let path = |key: &str, raw: &str| {
        Path::parse(raw).map_err(|err| malformed(format!("{name} {key}: {err}")))
    };
    let need_path = |key: &str| path(key, need(key)?);

    // Leaves first: they own their children loops.
    match name {
        "data" => {
            let mut meta = Annotations::new();
            for (k, v) in &attrs {
                meta.set(*k, v.clone());
            }
            let mut out = mqp_xml::Batch::new();
            if !self_closed {
                loop {
                    match next(tok)? {
                        Token::Open(n) => {
                            out.push_item(tb.build(tok, n).map_err(|_| not_canonical(tok))?)
                        }
                        Token::Text(_) => {} // formatting, not an item
                        Token::Close("data") => break,
                        _ => return Err(not_canonical(tok)),
                    }
                }
            }
            return Ok(Plan::Data { items: out, meta });
        }
        "url" => {
            let href = need("href")?.to_owned();
            let collection = match attr("collection") {
                Some(c) => Some(path("collection", c)?),
                None => None,
            };
            let mut meta = Annotations::new();
            for (k, v) in &attrs {
                if *k != "href" && *k != "collection" {
                    meta.set(*k, v.clone());
                }
            }
            let plan = Plan::Url(UrlRef {
                href,
                collection,
                meta,
            });
            return finish_leaf(tok, name, self_closed, plan);
        }
        "urn" => {
            let urn = Urn::parse(need("name")?).map_err(|err| malformed(format!("urn: {err}")))?;
            let mut meta = Annotations::new();
            for (k, v) in &attrs {
                if *k != "name" {
                    meta.set(*k, v.clone());
                }
            }
            let plan = Plan::Urn(UrnRef { urn, meta });
            return finish_leaf(tok, name, self_closed, plan);
        }
        _ => {}
    }

    // Interior operators: decode the element-children plans, ignoring
    // stray text.
    let mut kids: Vec<Plan> = Vec::new();
    let mut or_alts: Vec<OrAlt> = Vec::new();
    let is_or = name == "or";
    if !self_closed {
        loop {
            match next(tok)? {
                Token::Open(n) => {
                    if is_or {
                        or_alts.push(alt_from_tokens(tok, tb, n)?);
                    } else {
                        kids.push(plan_from_tokens(tok, tb, n)?);
                    }
                }
                Token::Text(_) => {}
                Token::Close(c) if c == name => break,
                _ => return Err(not_canonical(tok)),
            }
        }
    }
    let only_one = |kids: Vec<Plan>| match <[Plan; 1]>::try_from(kids) {
        Ok([input]) => Ok(Box::new(input)),
        Err(kids) => Err(malformed(format!(
            "<{name}> needs exactly one input, got {}",
            kids.len()
        ))),
    };
    match name {
        "select" => Ok(Plan::Select {
            pred: Predicate::parse(need("pred")?)
                .map_err(|err| malformed(format!("select pred: {err}")))?,
            input: only_one(kids)?,
        }),
        "project" => Ok(Plan::Project {
            fields: need("fields")?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect(),
            input: only_one(kids)?,
        }),
        "join" => {
            let on = JoinCond {
                left_path: need_path("left")?,
                right_path: need_path("right")?,
            };
            let [left, right] = <[Plan; 2]>::try_from(kids)
                .map_err(|kids| malformed(format!("join needs 2 inputs, got {}", kids.len())))?;
            Ok(Plan::Join {
                on,
                left: Box::new(left),
                right: Box::new(right),
            })
        }
        "union" => Ok(Plan::Union(kids)),
        "or" => {
            if or_alts.is_empty() {
                return Err(malformed("or needs at least one alternative"));
            }
            Ok(Plan::Or(or_alts))
        }
        "agg" => {
            let func = need("func")?;
            Ok(Plan::Aggregate {
                func: AggFunc::parse(func)
                    .ok_or_else(|| malformed(format!("agg: unknown func {func:?}")))?,
                path: match attr("path") {
                    Some(p) => Some(path("path", p)?),
                    None => None,
                },
                input: only_one(kids)?,
            })
        }
        "topn" => Ok(Plan::TopN {
            n: need("n")?
                .parse()
                .map_err(|_| malformed("topn n not a number"))?,
            key: need_path("key")?,
            ascending: match attr("order").unwrap_or("asc") {
                "asc" => true,
                "desc" => false,
                other => return Err(malformed(format!("topn: bad order {other:?}"))),
            },
            input: only_one(kids)?,
        }),
        "display" => Ok(Plan::Display {
            target: need("target")?.to_owned(),
            input: only_one(kids)?,
        }),
        other => Err(malformed(format!("unknown operator <{other}>"))),
    }
}

/// Consumes the closing tag of a leaf that was not self-closed. A `url`
/// or `urn` has no children: an element inside one is an error.
fn finish_leaf(
    tok: &mut Tokenizer<'_>,
    name: &str,
    self_closed: bool,
    plan: Plan,
) -> Result<Plan, CodecError> {
    if self_closed {
        return Ok(plan);
    }
    loop {
        match next(tok)? {
            Token::Text(_) => {}
            Token::Close(c) if c == name => return Ok(plan),
            Token::Open(child) => {
                return Err(malformed(format!("{name} is a leaf, got <{child}> inside")))
            }
            _ => return Err(not_canonical(tok)),
        }
    }
}

fn alt_from_tokens(
    tok: &mut Tokenizer<'_>,
    tb: &mut TreeBuilder,
    name: &str,
) -> Result<OrAlt, CodecError> {
    if name != "alt" {
        return Err(malformed(format!("or child must be alt, got {name}")));
    }
    let mut staleness = None;
    let mut plan = None;
    let self_closed = loop {
        match next(tok)? {
            Token::Attr {
                name: "staleness",
                value,
            } => {
                if staleness.is_some() {
                    return Err(not_canonical(tok));
                }
                staleness = Some(
                    value
                        .parse()
                        .map_err(|_| malformed(format!("alt: bad staleness {value:?}")))?,
                );
            }
            Token::Attr { name, .. } => {
                return Err(malformed(format!("alt: unknown attribute {name}")))
            }
            Token::OpenEnd => break false,
            Token::SelfClose => break true,
            _ => return Err(not_canonical(tok)),
        }
    };
    let one_input = || malformed("<alt> needs exactly one input");
    if !self_closed {
        loop {
            match next(tok)? {
                Token::Open(n) => {
                    if plan.is_some() {
                        return Err(one_input());
                    }
                    plan = Some(plan_from_tokens(tok, tb, n)?);
                }
                Token::Text(_) => {}
                Token::Close("alt") => break,
                _ => return Err(not_canonical(tok)),
            }
        }
    }
    Ok(OrAlt {
        plan: plan.ok_or_else(one_input)?,
        staleness,
    })
}

/// Exact byte size of the plan on the wire — what the network simulator
/// charges when a server ships a mutated plan onward (§2: "We have to
/// transfer these partial results over the network; their size
/// matters"). Serializes directly (no tree, no item clones), so it is
/// cheaper than the old build-the-tree-and-measure path despite
/// materializing the string.
pub fn wire_size(plan: &Plan) -> usize {
    to_wire(plan).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_xml::parse;

    fn roundtrip(p: &Plan) -> Plan {
        let wire = to_wire(p);
        from_wire(&wire).unwrap_or_else(|e| panic!("{wire}: {e}"))
    }

    fn figure3_plan() -> Plan {
        let favorites = Plan::data([
            parse("<song><title>Alabama Song</title></song>").unwrap(),
            parse("<song><title>Kashmir</title></song>").unwrap(),
        ]);
        let inner = Plan::join(
            JoinCond::on("song/title", "track/title"),
            favorites,
            Plan::urn("urn:CD:TrackListings"),
        );
        let outer = Plan::join(
            JoinCond::on("tuple/track/album", "item/title"),
            inner,
            Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs")),
        );
        Plan::display("129.95.50.105:9020", outer)
    }

    #[test]
    fn figure3_roundtrips() {
        let p = figure3_plan();
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn wire_format_shape() {
        let wire = to_wire(&figure3_plan());
        assert!(
            wire.starts_with("<display target=\"129.95.50.105:9020\">"),
            "{wire}"
        );
        assert!(
            wire.contains("<urn name=\"urn:ForSale:Portland-CDs\"/>"),
            "{wire}"
        );
        assert!(wire.contains("pred=\"price &lt; 10\""), "{wire}");
    }

    #[test]
    fn all_operators_roundtrip() {
        let item = parse("<item><price>5</price></item>").unwrap();
        let plans = vec![
            Plan::data([item.clone()]),
            Plan::url("http://10.1.2.3:9020/"),
            Plan::Url(UrlRef::with_collection(
                "http://10.3.4.5/",
                "/data[@id='245']",
            )),
            Plan::urn("urn:InterestArea:(USA.OR.Portland,Music.CDs)"),
            Plan::select("price < 10 and name != 'junk'", Plan::data([item.clone()])),
            Plan::project(["name", "price"], Plan::data([item.clone()])),
            Plan::join(
                JoinCond::on("a/b", "c/d"),
                Plan::data([item.clone()]),
                Plan::url("http://x/"),
            ),
            Plan::union([
                Plan::url("http://a/"),
                Plan::url("http://b/"),
                Plan::data([]),
            ]),
            Plan::Or(vec![
                OrAlt::stale(Plan::url("http://r/"), 30),
                OrAlt::new(Plan::union([
                    Plan::url("http://r/"),
                    Plan::url("http://s/"),
                ])),
            ]),
            Plan::aggregate(AggFunc::Count, None, Plan::data([item.clone()])),
            Plan::aggregate(AggFunc::Sum, Some("price"), Plan::data([item.clone()])),
            Plan::top_n(5, "price", false, Plan::data([item.clone()])),
            Plan::display("h:1", Plan::data([item])),
        ];
        for p in plans {
            assert_eq!(roundtrip(&p), p);
        }
    }

    #[test]
    fn annotations_roundtrip() {
        let mut url = UrlRef::new("http://10.1.2.3/");
        url.meta.set_cardinality(1_000_000);
        url.meta.set("distinct", "5000");
        let p = Plan::Url(url);
        let back = roundtrip(&p);
        match back {
            Plan::Url(u) => {
                assert_eq!(u.meta.cardinality(), Some(1_000_000));
                assert_eq!(u.meta.distinct(), Some(5000));
            }
            _ => panic!("expected url"),
        }
    }

    #[test]
    fn data_preserves_item_text_exactly() {
        let item = parse("<note>  spaced  text &amp; entity </note>").unwrap();
        let p = Plan::data([item.clone()]);
        let back = roundtrip(&p);
        assert_eq!(back.as_data().unwrap()[0], item);
    }

    /// One grammar: XML that is well-formed but not what [`to_wire`]
    /// writes is an error that says where or why, not a second parse.
    #[test]
    fn non_canonical_plans_are_rejected() {
        let not_canonical = |s: &str| match from_wire(s) {
            Err(CodecError::NotCanonical { at }) => at,
            other => panic!("{s}: expected NotCanonical, got {other:?}"),
        };
        let malformed = |s: &str| match from_wire(s) {
            Err(CodecError::Malformed(m)) => m,
            other => panic!("{s}: expected Malformed, got {other:?}"),
        };
        // Pretty-printing ends in a newline after the root.
        let wire = to_wire(&figure3_plan());
        assert_eq!(not_canonical(&format!("{wire}\n")), wire.len());
        let pretty =
            "<display target=\"h\">\n  <union>\n    <url href=\"x\"/>\n  </union>\n</display>\n";
        assert_eq!(not_canonical(pretty), pretty.trim_end().len());
        assert_eq!(not_canonical("<?xml version=\"1.0\"?><data/>"), 1);
        assert_eq!(not_canonical("<!-- c --><data/>"), 1);
        assert_eq!(not_canonical("<data><i a='1'/></data>"), 10);
        // A duplicate attribute: offset just past the second one.
        assert_eq!(not_canonical("<url href=\"x\" href=\"y\"/>"), 22);
        assert_eq!(not_canonical("<data/><data/>"), 7);
        assert_eq!(not_canonical("<select pred=\"a = 1\"><data/>"), 28);
        assert!(malformed("<url href=\"x\"><note/></url>").contains("url is a leaf"));
        let m = malformed("<or><alt colour=\"x\"><data/></alt></or>");
        assert!(m.contains("alt") && m.contains("colour"), "{m}");
    }

    /// The slack the token walk has always had at operator level (and
    /// only there — items are verbatim): text between operators is
    /// formatting, and an empty operator may be written long form.
    #[test]
    fn operator_level_formatting_is_ignored() {
        let p = Plan::union([Plan::url("x"), Plan::data([])]);
        let spaced =
            "<union>\n  <url href=\"x\"></url>\n  <data cardinality=\"0\"></data>\n</union>";
        assert_eq!(from_wire(spaced), Ok(p));
    }

    #[test]
    fn malformed_plans_rejected() {
        for (bad, names) in [
            ("<mystery/>", "<mystery>"),
            ("<select><data/></select>", "select missing pred"),
            (
                "<select pred=\"price &lt;\"><data/></select>",
                "select pred",
            ),
            (
                "<select pred=\"a = 1\"/>",
                "<select> needs exactly one input, got 0",
            ),
            (
                "<join left=\"a\" right=\"b\"><data/></join>",
                "join needs 2",
            ),
            (
                "<join left=\"a\"><data/><data/></join>",
                "join missing right",
            ),
            ("<url/>", "url missing href"),
            ("<urn name=\"not-a-urn\"/>", "urn:"),
            ("<or/>", "or needs"),
            ("<or><data/></or>", "or child must be alt, got data"),
            (
                "<or><alt staleness=\"soon\"><data/></alt></or>",
                "staleness",
            ),
            (
                "<or><alt><data/><data/></alt></or>",
                "<alt> needs exactly one",
            ),
            ("<topn n=\"x\" key=\"a\"><data/></topn>", "topn n"),
            (
                "<topn n=\"1\" key=\"a\" order=\"up\"><data/></topn>",
                "topn: bad order",
            ),
            ("<agg func=\"median\"><data/></agg>", "agg: unknown func"),
            ("<display><data/></display>", "display missing target"),
        ] {
            match from_wire(bad) {
                Err(CodecError::Malformed(m)) => assert!(m.contains(names), "{bad}: {m}"),
                other => panic!("{bad}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn wire_size_matches_string_length() {
        let p = figure3_plan();
        assert_eq!(wire_size(&p), to_wire(&p).len());
    }

    #[test]
    fn data_cardinality_attr_on_wire() {
        let wire = to_wire(&Plan::data([parse("<i/>").unwrap()]));
        assert!(wire.contains("cardinality=\"1\""), "{wire}");
    }
}
