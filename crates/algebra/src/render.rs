//! The parseable plan pretty-printer: the inverse of `mqp-lang`'s query
//! parser, and the human-readable plan form used in error messages and
//! golden traces.
//!
//! [`render`] emits pipeline syntax: a source head (`urn`/`url`/`data`,
//! or an n-ary `join`/`union`/`or` over sub-queries) followed by one
//! `| <stage>` line per enclosing unary operator, innermost first:
//!
//! ```text
//! union (
//!   url "mqp://seller-0/",
//!   url "mqp://seller-1/"
//! )
//! | select "price < 10"
//! | topn 3 by "price" asc
//! ```
//!
//! The output is deterministic (annotations render in `BTreeMap` order)
//! and `mqp_lang::parse_query(render(plan))` reconstructs the plan
//! exactly — property-tested from the lang side. [`Plan::render`] is
//! the method form.
//!
//! Unlike the plan's `Display` form (an indented operator log), this form
//! is concrete syntax: strings are quoted and escaped, predicate /
//! path / URN text round-trips through their own `Display` forms, and
//! data leaves embed their serialized items verbatim.

use std::fmt::Write as _;

use mqp_xml::serialize_into;

use crate::plan::{Annotations, Plan};

/// Renders `plan` as parseable pipeline text. No trailing newline.
pub fn render(plan: &Plan) -> String {
    let mut out = String::new();
    render_into(plan, 0, &mut out);
    out
}

impl Plan {
    /// Pipeline-syntax form of this plan; `mqp-lang` parses it back to
    /// an equal plan. See the [`render`](crate::render) module docs.
    pub fn render(&self) -> String {
        render(self)
    }
}

/// Escapes a string literal body: backslash, quote, and the three
/// whitespace controls. Everything else is verbatim.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// A string literal as the `mqp-lang` lexer reads it back: quoted,
/// with backslash, quote, `\n`, `\r` and `\t` escaped. The policy
/// renderer writes its strings through it too.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Annotation keys render bare when they look like identifiers
/// (`[A-Za-z_][A-Za-z0-9_.-]*`); anything else is quoted. The parser
/// accepts both forms for any key.
fn ident_shaped(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn render_meta(meta: &Annotations, out: &mut String) {
    if meta.is_empty() {
        return;
    }
    out.push_str(" @(");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if ident_shaped(k) {
            out.push_str(k);
        } else {
            out.push_str(&quoted(k));
        }
        out.push('=');
        out.push_str(&quoted(v));
    }
    out.push(')');
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Renders one sub-query at `level` (each level is two spaces). The
/// first line is already indented; embedded newlines re-indent.
fn render_into(plan: &Plan, level: usize, out: &mut String) {
    match plan {
        Plan::Data { items, meta } => {
            indent(out, level);
            let mut text = String::new();
            for item in items {
                serialize_into(item, &mut text);
            }
            out.push_str("data ");
            out.push_str(&quoted(&text));
            render_meta(meta, out);
        }
        Plan::Url(u) => {
            indent(out, level);
            out.push_str("url ");
            out.push_str(&quoted(&u.href));
            if let Some(c) = &u.collection {
                out.push_str(" collection ");
                out.push_str(&quoted(&c.to_string()));
            }
            render_meta(&u.meta, out);
        }
        Plan::Urn(u) => {
            indent(out, level);
            out.push_str("urn ");
            out.push_str(&quoted(&u.urn.to_string()));
            render_meta(&u.meta, out);
        }
        Plan::Union(subs) => {
            indent(out, level);
            out.push_str("union (\n");
            for (i, sub) in subs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                render_into(sub, level + 1, out);
            }
            out.push('\n');
            indent(out, level);
            out.push(')');
        }
        Plan::Or(alts) => {
            indent(out, level);
            out.push_str("or (\n");
            for (i, alt) in alts.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                render_into(&alt.plan, level + 1, out);
                if let Some(s) = alt.staleness {
                    let _ = write!(out, " stale {s}");
                }
            }
            out.push('\n');
            indent(out, level);
            out.push(')');
        }
        Plan::Join { on, left, right } => {
            indent(out, level);
            out.push_str("join (\n");
            render_into(left, level + 1, out);
            out.push_str(",\n");
            render_into(right, level + 1, out);
            out.push('\n');
            indent(out, level);
            let _ = write!(
                out,
                ") on {} = {}",
                quoted(&on.left_path.to_string()),
                quoted(&on.right_path.to_string())
            );
        }
        Plan::Select { pred, input } => {
            render_into(input, level, out);
            out.push('\n');
            indent(out, level);
            out.push_str("| select ");
            out.push_str(&quoted(&pred.to_string()));
        }
        Plan::Project { fields, input } => {
            render_into(input, level, out);
            out.push('\n');
            indent(out, level);
            out.push_str("| project");
            for f in fields {
                out.push(' ');
                out.push_str(&quoted(f));
            }
        }
        Plan::Aggregate { func, path, input } => {
            render_into(input, level, out);
            out.push('\n');
            indent(out, level);
            let _ = write!(out, "| agg {}", func.name());
            if let Some(p) = path {
                out.push_str(" of ");
                out.push_str(&quoted(&p.to_string()));
            }
        }
        Plan::TopN {
            n,
            key,
            ascending,
            input,
        } => {
            render_into(input, level, out);
            out.push('\n');
            indent(out, level);
            let _ = write!(
                out,
                "| topn {n} by {} {}",
                quoted(&key.to_string()),
                if *ascending { "asc" } else { "desc" }
            );
        }
        Plan::Display { target, input } => {
            render_into(input, level, out);
            out.push('\n');
            indent(out, level);
            out.push_str("| display to ");
            out.push_str(&quoted(target));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinCond, OrAlt};

    #[test]
    fn pipeline_layout_reads_top_down() {
        let plan = Plan::top_n(
            3,
            "price",
            true,
            Plan::select(
                "price < 10",
                Plan::union([Plan::url("mqp://a/"), Plan::url("mqp://b/")]),
            ),
        );
        assert_eq!(
            plan.render(),
            "union (\n  url \"mqp://a/\",\n  url \"mqp://b/\"\n)\n\
             | select \"price < 10\"\n\
             | topn 3 by \"price\" asc"
        );
    }

    #[test]
    fn join_or_and_annotations_render() {
        let mut url = crate::plan::UrlRef::new("mqp://s/");
        url.meta.set("area", "x");
        url.meta.set("weird key", "q\"v");
        let plan = Plan::Join {
            on: JoinCond::on("album", "title"),
            left: Box::new(Plan::Or(vec![
                OrAlt::new(Plan::urn("urn:ForSale:pdx")),
                OrAlt::stale(Plan::Url(url), 30),
            ])),
            right: Box::new(Plan::url("mqp://t/")),
        };
        assert_eq!(
            plan.render(),
            "join (\n  or (\n    urn \"urn:ForSale:pdx\",\n    \
             url \"mqp://s/\" @(area=\"x\", \"weird key\"=\"q\\\"v\") stale 30\n  ),\n  \
             url \"mqp://t/\"\n) on \"album\" = \"title\""
        );
    }

    #[test]
    fn escapes_cover_quotes_and_controls() {
        assert_eq!(escape("a\\b\"c\nd\re\tf"), "a\\\\b\\\"c\\nd\\re\\tf");
    }

    #[test]
    fn data_leaf_embeds_serialized_items() {
        let plan = Plan::data(
            ["<item><t>A</t></item>", "<item><t>B</t></item>"].map(|s| mqp_xml::parse(s).unwrap()),
        );
        assert_eq!(
            plan.render(),
            "data \"<item><t>A</t></item><item><t>B</t></item>\" @(cardinality=\"2\")"
        );
    }
}
