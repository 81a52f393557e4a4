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

use std::fmt;

use mqp_namespace::Urn;
use mqp_xml::serialize::escape_into;
use mqp_xml::xpath::Path;
use mqp_xml::{serialize_into, Element, Node};

use crate::plan::{Annotations, JoinCond, OrAlt, Plan, UrlRef, UrnRef};
use crate::predicate::{AggFunc, Predicate};

/// Errors decoding a plan from XML.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The XML text itself did not parse.
    Xml(mqp_xml::ParseError),
    /// The XML parsed but is not a valid plan.
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Xml(e) => write!(f, "plan XML: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed plan: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<mqp_xml::ParseError> for CodecError {
    fn from(e: mqp_xml::ParseError) -> Self {
        CodecError::Xml(e)
    }
}

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

/// Decodes a plan from its XML element form.
pub fn plan_from_xml(e: &Element) -> Result<Plan, CodecError> {
    match e.name() {
        "data" => {
            let mut meta = Annotations::new();
            for (k, v) in e.attrs() {
                meta.set(k.clone(), v.clone());
            }
            let items: mqp_xml::Batch = e.child_elements().cloned().collect();
            Ok(Plan::Data { items, meta })
        }
        "url" => {
            let href = e
                .get_attr("href")
                .ok_or_else(|| malformed("url missing href"))?
                .to_owned();
            let collection = match e.get_attr("collection") {
                Some(c) => Some(
                    Path::parse(c).map_err(|err| malformed(format!("url collection: {err}")))?,
                ),
                None => None,
            };
            let mut meta = Annotations::new();
            for (k, v) in e.attrs() {
                if k != "href" && k != "collection" {
                    meta.set(k.clone(), v.clone());
                }
            }
            Ok(Plan::Url(UrlRef {
                href,
                collection,
                meta,
            }))
        }
        "urn" => {
            let name = e
                .get_attr("name")
                .ok_or_else(|| malformed("urn missing name"))?;
            let urn = Urn::parse(name).map_err(|err| malformed(format!("urn: {err}")))?;
            let mut meta = Annotations::new();
            for (k, v) in e.attrs() {
                if k != "name" {
                    meta.set(k.clone(), v.clone());
                }
            }
            Ok(Plan::Urn(UrnRef { urn, meta }))
        }
        "select" => {
            let pred = Predicate::parse(
                e.get_attr("pred")
                    .ok_or_else(|| malformed("select missing pred"))?,
            )
            .map_err(|err| malformed(format!("select pred: {err}")))?;
            Ok(Plan::Select {
                pred,
                input: Box::new(only_child(e)?),
            })
        }
        "project" => {
            let fields: Vec<String> = e
                .get_attr("fields")
                .ok_or_else(|| malformed("project missing fields"))?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect();
            Ok(Plan::Project {
                fields,
                input: Box::new(only_child(e)?),
            })
        }
        "join" => {
            let on = JoinCond {
                left_path: parse_path_attr(e, "left")?,
                right_path: parse_path_attr(e, "right")?,
            };
            let kids: Vec<&Element> = e.child_elements().collect();
            if kids.len() != 2 {
                return Err(malformed(format!(
                    "join needs 2 inputs, got {}",
                    kids.len()
                )));
            }
            Ok(Plan::Join {
                on,
                left: Box::new(plan_from_xml(kids[0])?),
                right: Box::new(plan_from_xml(kids[1])?),
            })
        }
        "union" => {
            let inputs: Result<Vec<Plan>, CodecError> =
                e.child_elements().map(plan_from_xml).collect();
            Ok(Plan::Union(inputs?))
        }
        "or" => {
            let mut alts = Vec::new();
            for alt in e.child_elements() {
                if alt.name() != "alt" {
                    return Err(malformed(format!(
                        "or child must be alt, got {}",
                        alt.name()
                    )));
                }
                let staleness = match alt.get_attr("staleness") {
                    Some(s) => Some(
                        s.parse()
                            .map_err(|_| malformed(format!("bad staleness {s:?}")))?,
                    ),
                    None => None,
                };
                let plan = only_child(alt)?;
                alts.push(OrAlt { plan, staleness });
            }
            if alts.is_empty() {
                return Err(malformed("or needs at least one alternative"));
            }
            Ok(Plan::Or(alts))
        }
        "agg" => {
            let func = AggFunc::parse(
                e.get_attr("func")
                    .ok_or_else(|| malformed("agg missing func"))?,
            )
            .ok_or_else(|| malformed("unknown agg func"))?;
            let path = match e.get_attr("path") {
                Some(p) => {
                    Some(Path::parse(p).map_err(|err| malformed(format!("agg path: {err}")))?)
                }
                None => None,
            };
            Ok(Plan::Aggregate {
                func,
                path,
                input: Box::new(only_child(e)?),
            })
        }
        "topn" => {
            let n: usize = e
                .get_attr("n")
                .ok_or_else(|| malformed("topn missing n"))?
                .parse()
                .map_err(|_| malformed("topn n not a number"))?;
            let key = parse_path_attr(e, "key")?;
            let ascending = match e.get_attr("order").unwrap_or("asc") {
                "asc" => true,
                "desc" => false,
                other => return Err(malformed(format!("bad topn order {other:?}"))),
            };
            Ok(Plan::TopN {
                n,
                key,
                ascending,
                input: Box::new(only_child(e)?),
            })
        }
        "display" => {
            let target = e
                .get_attr("target")
                .ok_or_else(|| malformed("display missing target"))?
                .to_owned();
            Ok(Plan::Display {
                target,
                input: Box::new(only_child(e)?),
            })
        }
        other => Err(malformed(format!("unknown operator <{other}>"))),
    }
}

fn parse_path_attr(e: &Element, attr: &str) -> Result<Path, CodecError> {
    let raw = e
        .get_attr(attr)
        .ok_or_else(|| malformed(format!("{} missing {attr}", e.name())))?;
    Path::parse(raw).map_err(|err| malformed(format!("{attr}: {err}")))
}

fn only_child(e: &Element) -> Result<Plan, CodecError> {
    let kids: Vec<&Element> = e.child_elements().collect();
    if kids.len() != 1 {
        return Err(malformed(format!(
            "<{}> needs exactly one input, got {}",
            e.name(),
            kids.len()
        )));
    }
    plan_from_xml(kids[0])
}

/// Serializes a plan to the compact XML wire string (via
/// [`write_plan`], so no intermediate tree is built).
pub fn to_wire(plan: &Plan) -> String {
    let mut out = String::with_capacity(128);
    write_plan(plan, &mut out);
    out
}

/// Parses a plan from the XML wire string.
///
/// Fast path: canonical wire bytes (everything [`to_wire`] produced,
/// i.e. the entire hop-to-hop path) decode straight from the zero-copy
/// tokenizer into a [`Plan`] — no intermediate XML tree for operator
/// nodes and no deep-cloning data items out of one. Anything else falls
/// back to `from_wire_tree`, which also produces the real error for
/// malformed input.
pub fn from_wire(s: &str) -> Result<Plan, CodecError> {
    if let Some(plan) = plan_from_canonical(s) {
        return Ok(plan);
    }
    from_wire_tree(s)
}

/// The tree-building decode path: lenient parse, whitespace trim, then
/// [`plan_from_xml`] — the fallback for non-canonical input.
fn from_wire_tree(s: &str) -> Result<Plan, CodecError> {
    let mut root = mqp_xml::parse_document(s)?;
    // Pretty-printed plans carry inter-element whitespace; it is not
    // data (verbatim items keep their own text intact because trimming
    // only removes whitespace-only nodes... which *could* matter inside
    // data items, so only trim operator levels).
    trim_operator_whitespace(&mut root);
    plan_from_xml(&root)
}

/// What [`plan_from_tokens`] should do with verbatim data items: build
/// them as XML trees, or validate-and-skip them. `Skip` makes the
/// decoder a *validator* — it accepts exactly the same inputs (the
/// skip/build equivalence is property-tested in `mqp-xml`) while doing
/// none of the item allocation, which is how the envelope layer
/// validates its `<original>` section without materializing it.
pub enum ItemSink<'a> {
    /// Materialize items through this builder.
    Build(&'a mut mqp_xml::TreeBuilder),
    /// Validate items but build nothing (data leaves decode with empty
    /// item lists — use only when the decoded plan is discarded).
    Skip,
}

impl ItemSink<'_> {
    fn item(
        &mut self,
        tok: &mut mqp_xml::Tokenizer<'_>,
        name: &str,
        out: &mut mqp_xml::Batch,
    ) -> Result<(), mqp_xml::NotCanonical> {
        match self {
            ItemSink::Build(tb) => out.push_item(tb.build(tok, name)?),
            ItemSink::Skip => mqp_xml::skip_subtree(tok, name)?,
        }
        Ok(())
    }
}

/// Decodes a whole canonical document as a plan, or `None` to fall
/// back (non-canonical bytes *or* anything the token decoder cannot
/// express an error for — the fallback rediscovers the precise error).
pub fn plan_from_canonical(s: &str) -> Option<Plan> {
    let mut tok = mqp_xml::Tokenizer::new(s);
    let Ok(Some(mqp_xml::Token::Open(name))) = tok.next_token() else {
        return None;
    };
    let mut tb = mqp_xml::TreeBuilder::new();
    let plan = plan_from_tokens(&mut tok, &mut ItemSink::Build(&mut tb), name).ok()?;
    matches!(tok.next_token(), Ok(None)).then_some(plan)
}

/// Decodes the operator element whose `Open(name)` token was just
/// consumed. Mirrors [`plan_from_xml`] exactly — same attribute
/// handling, same tolerance for stray text at operator level (ignored),
/// same verbatim treatment of data items (routed through `items`) —
/// but any problem at all yields `Err` so the caller can fall back to
/// the tree path for diagnosis.
pub fn plan_from_tokens(
    tok: &mut mqp_xml::Tokenizer<'_>,
    items: &mut ItemSink<'_>,
    name: &str,
) -> Result<Plan, mqp_xml::NotCanonical> {
    use mqp_xml::{NotCanonical, Token};

    // Attributes arrive before we know the children.
    let mut attrs: Vec<(&str, std::borrow::Cow<'_, str>)> = Vec::new();
    let self_closed = loop {
        match tok.next_token()?.ok_or(NotCanonical)? {
            Token::Attr { name, value } => {
                if attrs.iter().any(|(n, _)| *n == name) {
                    return Err(NotCanonical);
                }
                attrs.push((name, value));
            }
            Token::OpenEnd => break false,
            Token::SelfClose => break true,
            _ => return Err(NotCanonical),
        }
    };
    let attr = |key: &str| {
        attrs
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, v)| v.as_ref())
    };

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
                    match tok.next_token()?.ok_or(NotCanonical)? {
                        Token::Open(n) => items.item(tok, n, &mut out)?,
                        Token::Text(_) => {} // formatting; ignored like plan_from_xml
                        Token::Close("data") => break,
                        _ => return Err(NotCanonical),
                    }
                }
            }
            return Ok(Plan::Data { items: out, meta });
        }
        "url" => {
            let href = attr("href").ok_or(NotCanonical)?.to_owned();
            let collection = match attr("collection") {
                Some(c) => Some(Path::parse(c).map_err(|_| NotCanonical)?),
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
            let urn = Urn::parse(attr("name").ok_or(NotCanonical)?).map_err(|_| NotCanonical)?;
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
    // stray text (plan_from_xml never looks at it either).
    let mut kids: Vec<Plan> = Vec::new();
    let mut or_alts: Vec<OrAlt> = Vec::new();
    let is_or = name == "or";
    if !self_closed {
        loop {
            match tok.next_token()?.ok_or(NotCanonical)? {
                Token::Open(n) => {
                    if is_or {
                        or_alts.push(alt_from_tokens(tok, items, n)?);
                    } else {
                        kids.push(plan_from_tokens(tok, items, n)?);
                    }
                }
                Token::Text(_) => {}
                Token::Close(c) if c == name => break,
                _ => return Err(NotCanonical),
            }
        }
    }
    fn only_one(kids: Vec<Plan>) -> Result<Box<Plan>, mqp_xml::NotCanonical> {
        let mut it = kids.into_iter();
        let first = it.next().ok_or(mqp_xml::NotCanonical)?;
        if it.next().is_some() {
            return Err(mqp_xml::NotCanonical);
        }
        Ok(Box::new(first))
    }
    match name {
        "select" => Ok(Plan::Select {
            pred: Predicate::parse(attr("pred").ok_or(NotCanonical)?).map_err(|_| NotCanonical)?,
            input: only_one(kids)?,
        }),
        "project" => Ok(Plan::Project {
            fields: attr("fields")
                .ok_or(NotCanonical)?
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect(),
            input: only_one(kids)?,
        }),
        "join" => {
            let on = JoinCond {
                left_path: Path::parse(attr("left").ok_or(NotCanonical)?)
                    .map_err(|_| NotCanonical)?,
                right_path: Path::parse(attr("right").ok_or(NotCanonical)?)
                    .map_err(|_| NotCanonical)?,
            };
            if kids.len() != 2 {
                return Err(NotCanonical);
            }
            let mut it = kids.into_iter();
            let left = Box::new(it.next().expect("len checked"));
            let right = Box::new(it.next().expect("len checked"));
            Ok(Plan::Join { on, left, right })
        }
        "union" => Ok(Plan::Union(kids)),
        "or" => {
            if or_alts.is_empty() {
                return Err(NotCanonical);
            }
            Ok(Plan::Or(or_alts))
        }
        "agg" => Ok(Plan::Aggregate {
            func: AggFunc::parse(attr("func").ok_or(NotCanonical)?).ok_or(NotCanonical)?,
            path: match attr("path") {
                Some(p) => Some(Path::parse(p).map_err(|_| NotCanonical)?),
                None => None,
            },
            input: only_one(kids)?,
        }),
        "topn" => Ok(Plan::TopN {
            n: attr("n")
                .ok_or(NotCanonical)?
                .parse()
                .map_err(|_| NotCanonical)?,
            key: Path::parse(attr("key").ok_or(NotCanonical)?).map_err(|_| NotCanonical)?,
            ascending: match attr("order").unwrap_or("asc") {
                "asc" => true,
                "desc" => false,
                _ => return Err(NotCanonical),
            },
            input: only_one(kids)?,
        }),
        "display" => Ok(Plan::Display {
            target: attr("target").ok_or(NotCanonical)?.to_owned(),
            input: only_one(kids)?,
        }),
        _ => Err(NotCanonical),
    }
}

/// Consumes the closing tag of a childless leaf; a leaf written long
/// form is not canonical output, so fall back rather than guess.
fn finish_leaf(
    tok: &mut mqp_xml::Tokenizer<'_>,
    name: &str,
    self_closed: bool,
    plan: Plan,
) -> Result<Plan, mqp_xml::NotCanonical> {
    use mqp_xml::{NotCanonical, Token};
    if self_closed {
        return Ok(plan);
    }
    loop {
        match tok.next_token()?.ok_or(NotCanonical)? {
            Token::Text(_) => {}
            Token::Close(c) if c == name => return Ok(plan),
            _ => return Err(NotCanonical),
        }
    }
}

fn alt_from_tokens(
    tok: &mut mqp_xml::Tokenizer<'_>,
    items: &mut ItemSink<'_>,
    name: &str,
) -> Result<OrAlt, mqp_xml::NotCanonical> {
    use mqp_xml::{NotCanonical, Token};
    if name != "alt" {
        return Err(NotCanonical);
    }
    let mut staleness = None;
    let mut plan = None;
    let self_closed = loop {
        match tok.next_token()?.ok_or(NotCanonical)? {
            Token::Attr {
                name: "staleness",
                value,
            } => {
                if staleness.is_some() {
                    return Err(NotCanonical);
                }
                staleness = Some(value.parse().map_err(|_| NotCanonical)?);
            }
            Token::Attr { .. } => return Err(NotCanonical), // foreign attr: fall back
            Token::OpenEnd => break false,
            Token::SelfClose => break true,
            _ => return Err(NotCanonical),
        }
    };
    if !self_closed {
        loop {
            match tok.next_token()?.ok_or(NotCanonical)? {
                Token::Open(n) => {
                    if plan.is_some() {
                        return Err(NotCanonical);
                    }
                    plan = Some(plan_from_tokens(tok, items, n)?);
                }
                Token::Text(_) => {}
                Token::Close("alt") => break,
                _ => return Err(NotCanonical),
            }
        }
    }
    Ok(OrAlt {
        plan: plan.ok_or(NotCanonical)?,
        staleness,
    })
}

/// Removes whitespace-only text nodes from operator elements (not from
/// verbatim data items, whose text is payload).
fn trim_operator_whitespace(e: &mut Element) {
    const OPERATORS: [&str; 11] = [
        "data", "url", "urn", "select", "project", "join", "union", "or", "alt", "agg", "topn",
    ];
    let is_op = OPERATORS.contains(&e.name()) || e.name() == "display";
    if !is_op {
        return; // inside verbatim data — leave untouched
    }
    if e.name() == "data" {
        // Whitespace directly under <data> is formatting; items keep
        // their insides untouched.
        e.children_mut().retain(|c| !c.is_whitespace());
        return;
    }
    e.children_mut().retain(|c| !c.is_whitespace());
    for c in e.children_mut() {
        if let Node::Element(el) = c {
            trim_operator_whitespace(el);
        }
    }
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

    #[test]
    fn pretty_printed_plan_reparses() {
        // Pretty printing is for humans: it indents inside verbatim data
        // items too, so reparsing recovers the plan modulo whitespace in
        // item text. Normalize both sides before comparing.
        fn normalize(p: &mut Plan) {
            if let Plan::Data { items, .. } = p {
                for i in items.iter_mut() {
                    i.trim_whitespace();
                }
            }
            for c in p.children_mut() {
                normalize(c);
            }
        }
        let p = figure3_plan();
        let pretty = mqp_xml::serialize_pretty(&plan_to_xml(&p));
        let mut back = from_wire(&pretty).unwrap();
        let mut expect = p;
        normalize(&mut back);
        normalize(&mut expect);
        assert_eq!(back, expect);
    }

    #[test]
    fn malformed_plans_rejected() {
        for bad in [
            "<mystery/>",
            "<select><data/></select>",                     // missing pred
            "<select pred=\"price &lt;\"><data/></select>", // bad pred
            "<join left=\"a\" right=\"b\"><data/></join>",  // one input
            "<url/>",                                       // missing href
            "<urn name=\"not-a-urn\"/>",
            "<or/>",            // no alternatives
            "<or><data/></or>", // child not alt
            "<topn n=\"x\" key=\"a\"><data/></topn>",
            "<agg func=\"median\"><data/></agg>",
            "<display><data/></display>", // missing target
        ] {
            assert!(from_wire(bad).is_err(), "{bad} should be rejected");
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
