//! The query compiler: pipeline text → [`Plan`] (+ optional §4.3
//! preference [`Policy`]).
//!
//! Grammar (see DESIGN.md §13 for the full EBNF):
//!
//! ```text
//! query    := pipeline clause*
//! pipeline := head ( "|" stage )*
//! head     := "urn" STR meta?
//!           | "url" STR ("collection" STR)? meta?
//!           | "data" STR meta?
//!           | "join" "(" pipeline "," pipeline ")" "on" STR "=" STR
//!           | "union" "(" pipeline ("," pipeline)* ")"
//!           | "or" "(" alt ("," alt)* ")"
//! alt      := pipeline ("stale" NUM)?
//! stage    := "select" STR | "project" STR+ | "topn" NUM "by" STR ("asc"|"desc")
//!           | "agg" WORD ("of" STR)? | "display" "to" STR
//! clause   := "prefer" ("current"|"fast") | "within" DUR | "defer" "over" SIZE
//! meta     := "@" "(" (key "=" STR),* ")"
//! ```
//!
//! The parser *is* the code generator — it builds the [`Plan`] directly
//! and keeps a span table keyed by [`mqp_algebra::NodePath`] so the catalog /
//! namespace check pass ([`crate::check`]) can point diagnostics at the
//! exact offending literal. [`mqp_algebra::render`] is the inverse:
//! `parse_query(render(plan)).plan == plan` for every constructible
//! plan (property-tested in `proptests.rs`).

use std::collections::HashMap;

use mqp_algebra::plan::{Annotations, JoinCond, OrAlt, Plan, UrlRef, UrnRef};
use mqp_algebra::predicate::{AggFunc, Predicate};
use mqp_catalog::Preference;
use mqp_core::Policy;
use mqp_namespace::Urn;
use mqp_xml::canon::MAX_DEPTH;
use mqp_xml::xpath::Path;

use crate::cursor::Cursor;
use crate::diag::{Diagnostic, Span};

/// Span table: node path (root = `[]`) → spans of that node's string
/// literals, in render order.
type SpanMap = HashMap<Vec<usize>, Vec<Span>>;

/// Flat span accumulator used *during* parsing. Paths are stored
/// REVERSED (leaf-to-root) so wrapping a subtree under child index `i`
/// is an O(1) push per entry instead of a HashMap re-key — the final
/// [`SpanMap`] is built once in [`parse_query`] by reversing each key.
type SpanAcc = Vec<(Vec<usize>, Vec<Span>)>;

/// A compiled query: the plan, the optional preference-clause policy,
/// and enough source context to keep producing positioned diagnostics
/// during the check pass.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The compiled plan.
    pub plan: Plan,
    /// Policy from trailing `prefer` / `within` / `defer over` clauses;
    /// `None` when the query has none (use the server's own policy).
    pub policy: Option<Policy>,
    src: String,
    spans: SpanMap,
}

impl CompiledQuery {
    /// Builds a diagnostic pointing at the `idx`-th string literal of
    /// the node at `path` (falling back to position 1:1 for
    /// synthesized plans).
    pub(crate) fn diag_at(&self, path: &[usize], idx: usize, message: String) -> Diagnostic {
        let span = self
            .spans
            .get(path)
            .and_then(|s| s.get(idx).or_else(|| s.first()))
            .copied()
            .unwrap_or_else(|| Span::point(0));
        Diagnostic::at(&self.src, span, message)
    }
}

/// Compiles query text. Returns the first error as a positioned
/// diagnostic.
pub fn parse_query(src: &str) -> Result<CompiledQuery, Diagnostic> {
    let mut cur = Cursor::new(src)?;
    let (plan, acc) = parse_pipeline(&mut cur, 0)?;
    let policy = parse_clauses(&mut cur)?;
    cur.expect_eof()?;
    let spans = acc
        .into_iter()
        .map(|(mut k, v)| {
            k.reverse();
            (k, v)
        })
        .collect();
    Ok(CompiledQuery {
        plan,
        policy,
        src: src.to_owned(),
        spans,
    })
}

/// Re-keys a child span accumulator under the child's index in its
/// parent (paths are reversed, so prepending is a push).
fn nest(mut child: SpanAcc, idx: usize) -> SpanAcc {
    for (k, _) in &mut child {
        k.push(idx);
    }
    child
}

/// Parses a pipeline nested inside `depth` parenthesized heads.
fn parse_pipeline(cur: &mut Cursor, depth: usize) -> Result<(Plan, SpanAcc), Diagnostic> {
    let (mut plan, mut spans) = parse_head(cur, depth)?;
    while cur.eat_punct('|') {
        let (kw, kw_span) = cur.expect_word("a stage (select, project, topn, agg, display)")?;
        spans = nest(spans, 0);
        let mut own = Vec::new();
        plan = match kw.as_str() {
            "select" => {
                let (text, span) = cur.expect_str("a predicate")?;
                let pred = Predicate::parse(&text)
                    .map_err(|e| Diagnostic::at(cur.src(), span, format!("bad predicate: {e}")))?;
                own.push(span);
                Plan::Select {
                    pred,
                    input: Box::new(plan),
                }
            }
            "project" => {
                let mut fields = Vec::new();
                while cur.at_str() {
                    let (f, span) = cur.expect_str("a field name")?;
                    own.push(span);
                    fields.push(f);
                }
                if fields.is_empty() {
                    return Err(cur.err("expected at least one quoted field after `project`"));
                }
                Plan::Project {
                    fields,
                    input: Box::new(plan),
                }
            }
            "topn" => {
                let (n, _) = cur.expect_number("a count after `topn`")?;
                cur.expect_keyword("by")?;
                let (key_text, key_span) = cur.expect_str("a sort key path")?;
                let key = Path::parse(&key_text).map_err(|e| {
                    Diagnostic::at(cur.src(), key_span, format!("bad sort key: {e}"))
                })?;
                own.push(key_span);
                let ascending = if cur.eat_word("asc") {
                    true
                } else if cur.eat_word("desc") {
                    false
                } else {
                    return Err(cur.err("expected `asc` or `desc`"));
                };
                Plan::TopN {
                    n: n as usize,
                    key,
                    ascending,
                    input: Box::new(plan),
                }
            }
            "agg" => {
                let (name, name_span) =
                    cur.expect_word("an aggregate function (count, sum, min, max, avg)")?;
                let func = AggFunc::parse(&name).ok_or_else(|| {
                    Diagnostic::at(
                        cur.src(),
                        name_span,
                        format!("unknown aggregate function `{name}`"),
                    )
                })?;
                let path = if cur.eat_word("of") {
                    let (p, span) = cur.expect_str("an aggregate path")?;
                    own.push(span);
                    Some(Path::parse(&p).map_err(|e| {
                        Diagnostic::at(cur.src(), span, format!("bad aggregate path: {e}"))
                    })?)
                } else {
                    None
                };
                Plan::Aggregate {
                    func,
                    path,
                    input: Box::new(plan),
                }
            }
            "display" => {
                cur.expect_keyword("to")?;
                let (target, span) = cur.expect_str("a display target")?;
                own.push(span);
                Plan::Display {
                    target,
                    input: Box::new(plan),
                }
            }
            other => {
                return Err(Diagnostic::at(
                    cur.src(),
                    kw_span,
                    format!(
                        "unknown stage `{other}` (expected select, project, topn, agg, or display)"
                    ),
                ));
            }
        };
        spans.push((Vec::new(), own));
    }
    Ok((plan, spans))
}

fn parse_head(cur: &mut Cursor, depth: usize) -> Result<(Plan, SpanAcc), Diagnostic> {
    let (kw, kw_span) = cur.expect_word("a source (urn, url, data, join, union, or)")?;
    // `join`, `union` and `or` recurse once per level. A plan nested
    // past the XML reader's cap could never be sent, so it is refused
    // here, long before the recursion could exhaust the stack.
    let inner = depth + 1;
    if matches!(kw.as_str(), "join" | "union" | "or") && inner > MAX_DEPTH {
        return Err(Diagnostic::at(
            cur.src(),
            kw_span,
            format!("`{kw}` nests deeper than {MAX_DEPTH} levels"),
        ));
    }
    let mut spans = SpanAcc::new();
    let mut own = Vec::new();
    let plan = match kw.as_str() {
        "urn" => {
            let (text, span) = cur.expect_str("a URN like \"urn:ForSale:Portland-CDs\"")?;
            let urn = Urn::parse(&text)
                .map_err(|e| Diagnostic::at(cur.src(), span, format!("bad URN: {e}")))?;
            own.push(span);
            let meta = parse_meta(cur)?;
            Plan::Urn(UrnRef { urn, meta })
        }
        "url" => {
            let (href, span) = cur.expect_str("a URL like \"mqp://seller-1/\"")?;
            own.push(span);
            let collection = if cur.eat_word("collection") {
                let (c, c_span) = cur.expect_str("a collection path")?;
                own.push(c_span);
                Some(Path::parse(&c).map_err(|e| {
                    Diagnostic::at(cur.src(), c_span, format!("bad collection path: {e}"))
                })?)
            } else {
                None
            };
            let meta = parse_meta(cur)?;
            Plan::Url(UrlRef {
                href,
                collection,
                meta,
            })
        }
        "data" => {
            let (text, span) = cur.expect_str("serialized XML items")?;
            own.push(span);
            let items = mqp_xml::parse_items(&text).map_err(|e| {
                Diagnostic::at(
                    cur.src(),
                    span,
                    format!("data items are not canonical XML at byte {}", e.offset),
                )
            })?;
            let meta = parse_meta(cur)?;
            // Built directly (not via `Plan::data`, which injects a
            // cardinality annotation): the text's own annotations must
            // round-trip verbatim.
            Plan::Data { items, meta }
        }
        "join" => {
            cur.expect_punct('(')?;
            let (left, left_spans) = parse_pipeline(cur, inner)?;
            cur.expect_punct(',')?;
            let (right, right_spans) = parse_pipeline(cur, inner)?;
            cur.expect_punct(')')?;
            cur.expect_keyword("on")?;
            let (l, l_span) = cur.expect_str("the left join path")?;
            cur.expect_punct('=')?;
            let (r, r_span) = cur.expect_str("the right join path")?;
            let left_path = Path::parse(&l)
                .map_err(|e| Diagnostic::at(cur.src(), l_span, format!("bad join path: {e}")))?;
            let right_path = Path::parse(&r)
                .map_err(|e| Diagnostic::at(cur.src(), r_span, format!("bad join path: {e}")))?;
            own.push(l_span);
            own.push(r_span);
            spans.extend(nest(left_spans, 0));
            spans.extend(nest(right_spans, 1));
            Plan::Join {
                on: JoinCond {
                    left_path,
                    right_path,
                },
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        "union" => {
            cur.expect_punct('(')?;
            let mut subs = Vec::new();
            loop {
                let (sub, sub_spans) = parse_pipeline(cur, inner)?;
                spans.extend(nest(sub_spans, subs.len()));
                subs.push(sub);
                if !cur.eat_punct(',') {
                    break;
                }
            }
            cur.expect_punct(')')?;
            Plan::Union(subs)
        }
        "or" => {
            cur.expect_punct('(')?;
            let mut alts = Vec::new();
            loop {
                let (sub, sub_spans) = parse_pipeline(cur, inner)?;
                spans.extend(nest(sub_spans, alts.len()));
                let staleness = if cur.eat_word("stale") {
                    let (s, s_span) = cur.expect_number("a staleness bound in minutes")?;
                    Some(u32::try_from(s).map_err(|_| {
                        Diagnostic::at(cur.src(), s_span, "staleness bound too large".to_owned())
                    })?)
                } else {
                    None
                };
                alts.push(OrAlt {
                    plan: sub,
                    staleness,
                });
                if !cur.eat_punct(',') {
                    break;
                }
            }
            cur.expect_punct(')')?;
            Plan::Or(alts)
        }
        other => {
            return Err(Diagnostic::at(
                cur.src(),
                kw_span,
                format!("unknown source `{other}` (expected urn, url, data, join, union, or or)"),
            ));
        }
    };
    spans.push((Vec::new(), own));
    Ok((plan, spans))
}

/// `@(key="value", ...)` — keys may be bare words or quoted strings.
fn parse_meta(cur: &mut Cursor) -> Result<Annotations, Diagnostic> {
    let mut meta = Annotations::new();
    if !cur.eat_punct('@') {
        return Ok(meta);
    }
    cur.expect_punct('(')?;
    if cur.eat_punct(')') {
        return Ok(meta);
    }
    loop {
        let key = if cur.at_str() {
            cur.expect_str("an annotation key")?.0
        } else {
            cur.expect_word("an annotation key")?.0
        };
        cur.expect_punct('=')?;
        let (value, _) = cur.expect_str("an annotation value")?;
        meta.set(key, value);
        if !cur.eat_punct(',') {
            break;
        }
    }
    cur.expect_punct(')')?;
    Ok(meta)
}

/// Trailing §4.3 preference clauses. Order-insensitive; later clauses
/// override earlier ones; `None` when there are no clauses at all.
fn parse_clauses(cur: &mut Cursor) -> Result<Option<Policy>, Diagnostic> {
    let mut policy: Option<Policy> = None;
    loop {
        if cur.eat_word("prefer") {
            let (which, span) = cur.expect_word("`current` or `fast` after `prefer`")?;
            let pref = match which.as_str() {
                "current" => Preference::Current,
                "fast" => Preference::Fast,
                other => {
                    return Err(Diagnostic::at(
                        cur.src(),
                        span,
                        format!("unknown preference `{other}` (expected `current` or `fast`)"),
                    ));
                }
            };
            policy.get_or_insert_with(Policy::current).preference = pref;
        } else if cur.eat_word("within") {
            let (minutes, _) = cur.expect_duration()?;
            policy.get_or_insert_with(Policy::current).max_staleness = Some(minutes);
        } else if cur.eat_word("defer") {
            cur.expect_keyword("over")?;
            let (bytes, _) = cur.expect_size()?;
            policy.get_or_insert_with(Policy::current).defer_bytes = bytes;
        } else {
            return Ok(policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_parses_to_the_expected_plan() {
        let q = parse_query(
            "union (\n  url \"mqp://a/\",\n  url \"mqp://b/\"\n)\n| select \"price < 10\"\n| topn 3 by \"price\" asc",
        )
        .unwrap();
        let expected = Plan::top_n(
            3,
            "price",
            true,
            Plan::select(
                "price < 10",
                Plan::union([Plan::url("mqp://a/"), Plan::url("mqp://b/")]),
            ),
        );
        assert_eq!(q.plan, expected);
        assert!(q.policy.is_none());
    }

    #[test]
    fn figure3_query_round_trips_through_render() {
        let text =
            "urn \"urn:ForSale:Portland-CDs\"\n| select \"price < 10\"\n| display to \"client#0\"";
        let q = parse_query(text).unwrap();
        assert_eq!(q.plan.render(), text);
        assert_eq!(parse_query(&q.plan.render()).unwrap().plan, q.plan);
    }

    #[test]
    fn preference_clauses_build_a_policy() {
        let q = parse_query("urn \"urn:X:y\" prefer fast within 30min defer over 4kb").unwrap();
        let p = q.policy.unwrap();
        assert_eq!(p.preference, Preference::Fast);
        assert_eq!(p.max_staleness, Some(30));
        assert_eq!(p.defer_bytes, 4096.0);

        let q = parse_query("urn \"urn:X:y\" within 2h").unwrap();
        assert_eq!(q.policy.unwrap().max_staleness, Some(120));
        assert_eq!(q.policy.unwrap().preference, Preference::Current);
    }

    #[test]
    fn join_or_data_and_annotations_parse() {
        let q = parse_query(
            "join (\n  or (\n    urn \"urn:ForSale:pdx\",\n    url \"mqp://s/\" @(area=\"x\") stale 30\n  ),\n  data \"<item><t>A</t></item>\" @(cardinality=\"1\")\n) on \"album\" = \"title\"",
        )
        .unwrap();
        let Plan::Join { on, left, right } = &q.plan else {
            panic!("expected join");
        };
        assert_eq!(on.left_path.to_string(), "album");
        let Plan::Or(alts) = left.as_ref() else {
            panic!("expected or");
        };
        assert_eq!(alts[1].staleness, Some(30));
        let Plan::Data { items, meta } = right.as_ref() else {
            panic!("expected data");
        };
        assert_eq!(items.len(), 1);
        assert_eq!(meta.get("cardinality"), Some("1"));
        // And the whole thing round-trips.
        assert_eq!(parse_query(&q.plan.render()).unwrap().plan, q.plan);
    }

    #[test]
    fn errors_are_positioned() {
        let err = parse_query("urn \"not a urn\"").unwrap_err();
        assert!(err.message.starts_with("bad URN"), "{err}");
        assert_eq!((err.line, err.col), (1, 5));

        let err = parse_query("url \"mqp://a/\" | grep \"x\"").unwrap_err();
        assert!(err.message.contains("unknown stage `grep`"), "{err}");

        let err = parse_query("url \"mqp://a/\" nonsense").unwrap_err();
        assert!(err.message.contains("unexpected trailing input"), "{err}");
    }
}
