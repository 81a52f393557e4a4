//! The sanity/type pass: resolves a compiled query's names against a
//! live [`Catalog`] and [`Namespace`] before the plan is submitted.
//!
//! What it catches (each with a diagnostic pointing at the offending
//! literal, courtesy of the span table [`parse_query`] kept):
//!
//! * interest-area URNs whose cells name namespace nodes that do not
//!   exist ([`mqp_namespace::InterestArea::valid_in`]);
//! * named URNs the catalog cannot resolve to any server;
//! * `project` fields, `topn` keys, and `agg of` paths that no item of
//!   a *statically known* input can satisfy — checked only when the
//!   stage's whole subtree is `data` literals (remote sources have
//!   unknown shape until runtime, so they are left to the engine).
//!
//! [`parse_query`]: crate::query::parse_query

use mqp_algebra::Plan;
use mqp_catalog::Catalog;
use mqp_namespace::{Namespace, Urn};
use mqp_xml::xpath::Path;
use mqp_xml::Element;

use crate::diag::Diagnostic;
use crate::query::CompiledQuery;

/// Checks `query` against the catalog and namespace. Returns the first
/// problem as a positioned diagnostic.
pub fn check_query(
    query: &CompiledQuery,
    catalog: &Catalog,
    ns: &Namespace,
) -> Result<(), Diagnostic> {
    let mut path = Vec::new();
    check_node(query, &query.plan, catalog, ns, &mut path)
}

fn check_node(
    query: &CompiledQuery,
    plan: &Plan,
    catalog: &Catalog,
    ns: &Namespace,
    path: &mut Vec<usize>,
) -> Result<(), Diagnostic> {
    match plan {
        Plan::Urn(u) => match &u.urn {
            Urn::InterestArea(area) => {
                if !area.valid_in(ns) {
                    return Err(query.diag_at(
                        path,
                        0,
                        format!(
                            "interest area `{}` names nodes outside the namespace",
                            u.urn
                        ),
                    ));
                }
            }
            named @ Urn::Named { .. } => {
                if catalog.resolve_named(named).is_empty() {
                    return Err(query.diag_at(
                        path,
                        0,
                        format!("unknown URN `{named}` (no catalog entry resolves it)"),
                    ));
                }
            }
        },
        Plan::Select { input, .. } | Plan::Display { input, .. } => {
            descend(query, input, catalog, ns, path)?;
        }
        Plan::Project { fields, input } => {
            if let Some(items) = literal_items(input) {
                for (idx, field) in fields.iter().enumerate() {
                    if !items.iter().any(|item| item.field(field).is_some()) {
                        return Err(query.diag_at(
                            path,
                            idx,
                            format!("no input item has a field named `{field}`"),
                        ));
                    }
                }
            }
            descend(query, input, catalog, ns, path)?;
        }
        Plan::TopN { key, input, .. } => {
            check_path_applies(query, path, 0, key, input, "sort key")?;
            descend(query, input, catalog, ns, path)?;
        }
        Plan::Aggregate {
            path: agg, input, ..
        } => {
            if let Some(agg) = agg {
                check_path_applies(query, path, 0, agg, input, "aggregate path")?;
            }
            descend(query, input, catalog, ns, path)?;
        }
        Plan::Join { left, right, .. } => {
            path.push(0);
            check_node(query, left, catalog, ns, path)?;
            path.pop();
            path.push(1);
            check_node(query, right, catalog, ns, path)?;
            path.pop();
        }
        Plan::Union(subs) => {
            for (i, sub) in subs.iter().enumerate() {
                path.push(i);
                check_node(query, sub, catalog, ns, path)?;
                path.pop();
            }
        }
        Plan::Or(alts) => {
            for (i, alt) in alts.iter().enumerate() {
                path.push(i);
                check_node(query, &alt.plan, catalog, ns, path)?;
                path.pop();
            }
        }
        Plan::Data { .. } | Plan::Url(_) => {}
    }
    Ok(())
}

/// Recurses into a unary stage's input (child index 0).
fn descend(
    query: &CompiledQuery,
    input: &Plan,
    catalog: &Catalog,
    ns: &Namespace,
    path: &mut Vec<usize>,
) -> Result<(), Diagnostic> {
    path.push(0);
    let out = check_node(query, input, catalog, ns, path);
    path.pop();
    out
}

fn check_path_applies(
    query: &CompiledQuery,
    node_path: &[usize],
    span_idx: usize,
    xpath: &Path,
    input: &Plan,
    what: &str,
) -> Result<(), Diagnostic> {
    if let Some(items) = literal_items(input) {
        if !items.iter().any(|item| xpath.first_value(item).is_some()) {
            return Err(query.diag_at(
                node_path,
                span_idx,
                format!("{what} `{xpath}` matches nothing in any input item"),
            ));
        }
    }
    Ok(())
}

/// All items of a subtree made purely of `data` literals and
/// item-preserving combinators; `None` as soon as a remote source (url,
/// urn) or an item-reshaping stage appears.
fn literal_items(plan: &Plan) -> Option<Vec<&Element>> {
    match plan {
        Plan::Data { items, .. } => Some(items.iter().collect()),
        Plan::Select { input, .. } => literal_items(input),
        Plan::Union(subs) => {
            let mut all = Vec::new();
            for sub in subs {
                all.extend(literal_items(sub)?);
            }
            Some(all)
        }
        Plan::Or(alts) => {
            let mut all = Vec::new();
            for alt in alts {
                all.extend(literal_items(&alt.plan)?);
            }
            Some(all)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use mqp_catalog::ServerId;
    use mqp_namespace::{Hierarchy, Namespace};

    fn ns() -> Namespace {
        Namespace::new([
            Hierarchy::new("Location").with(["USA/OR/Portland", "USA/WA/Seattle"]),
            Hierarchy::new("Merchandise").with(["Music/CDs", "Furniture/Chairs"]),
        ])
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.map_urn("urn:ForSale:Portland-CDs", ServerId::new("idx-pdx"), None);
        cat
    }

    #[test]
    fn known_names_pass() {
        let q = parse_query(
            "union (\n  urn \"urn:ForSale:Portland-CDs\",\n  urn \"urn:InterestArea:(USA.OR.Portland,Music.CDs)\"\n)",
        )
        .unwrap();
        check_query(&q, &catalog(), &ns()).unwrap();
    }

    #[test]
    fn unknown_urn_and_area_point_at_their_literals() {
        let q = parse_query("urn \"urn:ForSale:Nowhere\"").unwrap();
        let err = check_query(&q, &catalog(), &ns()).unwrap_err();
        assert!(err.message.contains("unknown URN"), "{err}");
        assert_eq!((err.line, err.col), (1, 5));

        let q = parse_query(
            "join (\n  urn \"urn:ForSale:Portland-CDs\",\n  urn \"urn:InterestArea:(Mars,Music)\"\n) on \"a\" = \"a\"",
        )
        .unwrap();
        let err = check_query(&q, &catalog(), &ns()).unwrap_err();
        assert!(err.message.contains("outside the namespace"), "{err}");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn fields_and_paths_check_against_literal_data_only() {
        let q = parse_query(
            "data \"<item><title>A</title><price>3</price></item>\"\n| project \"title\" \"artist\"",
        )
        .unwrap();
        let err = check_query(&q, &catalog(), &ns()).unwrap_err();
        assert!(err.message.contains("field named `artist`"), "{err}");
        assert_eq!(err.col, 19); // points at "artist", not "title"

        let q = parse_query("data \"<item><price>3</price></item>\"\n| topn 2 by \"weight\" desc")
            .unwrap();
        let err = check_query(&q, &catalog(), &ns()).unwrap_err();
        assert!(err.message.contains("sort key `weight`"), "{err}");

        // Remote sources have unknown shape: no field complaints.
        let q = parse_query("url \"mqp://s/\"\n| project \"anything\"").unwrap();
        check_query(&q, &catalog(), &ns()).unwrap();
    }
}
