//! The pre-batching, materializing tree-walker — frozen as a test
//! oracle (compiled only under `cfg(test)`).
//!
//! This is the evaluator the batched engine replaced, kept verbatim so
//! that the equivalence property tests in `proptests.rs` have an
//! oracle: for any plan over any collections, [`legacy::eval`](eval)
//! and the batched [`crate::eval`] must produce identical item
//! sequences.
//!
//! Its cost profile is the old one on purpose: `Data` leaves deep-copy
//! every item per evaluation, resolver results are materialized into
//! owned `Vec<Element>`s (the whole-collection clone the old store
//! handed out), predicates re-parse literals per item, join keys build
//! a `Vec<String>` per item, and dedup is `Vec::contains` linear scans.
//! Do not "fix" those: an oracle that shares no technique with the
//! engine it checks is the point.

use std::collections::HashMap;

use mqp_algebra::plan::Plan;
use mqp_algebra::predicate::{AggFunc, Predicate};
use mqp_xml::xpath::{NodeTest, Path, Predicate as PathPred, Step};
use mqp_xml::{Element, Node};

use crate::eval::{EvalError, NoResolver, Resolver};

// ----------------------------------------------------------------------
// The old path matcher: per-step frontier vectors, raw string compares
// per node (the interner existed but paths didn't use it — exactly the
// state the batched engine replaced), and owned `String` values even
// for plain text fields.
// ----------------------------------------------------------------------

fn test_element(e: &Element, test: &NodeTest) -> bool {
    match test {
        NodeTest::Name(n) => e.name() == n.as_str(),
        NodeTest::Any => true,
        NodeTest::Text => false,
    }
}

fn passes_all(e: &Element, preds: &[PathPred], position: usize) -> bool {
    preds.iter().all(|p| passes(e, p, position))
}

fn passes(e: &Element, pred: &PathPred, position: usize) -> bool {
    match pred {
        PathPred::Position(n) => position == *n,
        PathPred::Attr(name, op, lit) => match e.get_attr(name.as_str()) {
            Some(v) => op.apply(v, lit),
            None => false,
        },
        PathPred::Field(name, op, lit) => match e.field(name.as_str()) {
            Some(v) => op.apply(&v, lit),
            None => false,
        },
        PathPred::OwnText(op, lit) => op.apply(e.deep_text().trim(), lit),
    }
}

fn select_elements<'a>(path: &Path, root: &'a Element) -> Vec<&'a Element> {
    let mut current: Vec<&'a Element> = Vec::new();
    let mut steps = path.steps.iter();
    if path.absolute {
        let Some(first) = steps.next() else {
            return vec![root];
        };
        if matches!(first.test, NodeTest::Text) {
            return Vec::new();
        }
        if test_element(root, &first.test) && passes_all(root, &first.predicates, 0) {
            current.push(root);
        }
    } else {
        current.push(root);
    }
    for step in steps.clone() {
        if matches!(step.test, NodeTest::Text) {
            return Vec::new();
        }
    }
    let remaining: Vec<&Step> = if path.absolute {
        steps.collect()
    } else {
        path.steps.iter().collect()
    };
    for step in remaining {
        let mut next = Vec::new();
        for ctx in current {
            let mut idx = 0usize;
            for child in ctx.child_elements() {
                if test_element(child, &step.test) {
                    idx += 1;
                    if passes_all(child, &step.predicates, idx) {
                        next.push(child);
                    }
                }
            }
        }
        current = next;
    }
    current
}

fn select_values(path: &Path, root: &Element) -> Vec<String> {
    if let Some(last) = path.steps.last() {
        if matches!(last.test, NodeTest::Text) {
            let prefix = Path {
                absolute: path.absolute,
                steps: path.steps[..path.steps.len() - 1].to_vec(),
            };
            return select_elements(&prefix, root)
                .into_iter()
                .map(|e| e.direct_text().into_owned())
                .collect();
        }
    }
    select_elements(path, root)
        .into_iter()
        .map(|e| e.deep_text().into_owned())
        .collect()
}

fn first_value(path: &Path, root: &Element) -> Option<String> {
    select_values(path, root)
        .into_iter()
        .next()
        .map(|s| s.trim().to_owned())
}

/// Evaluates `plan` to an owned collection of items, materializing at
/// every step (see module docs). Same semantics as [`crate::eval`].
pub fn eval(plan: &Plan, resolver: &impl Resolver) -> Result<Vec<Element>, EvalError> {
    match plan {
        Plan::Data { items, .. } => Ok(items.to_vec()),
        Plan::Url(u) => resolver
            .resolve_url(u)
            .map(|b| b.to_vec())
            .ok_or_else(|| EvalError::UnresolvedUrl(u.href.clone())),
        Plan::Urn(u) => resolver
            .resolve_urn(u)
            .map(|b| b.to_vec())
            .ok_or_else(|| EvalError::UnresolvedUrn(u.urn.to_string())),
        Plan::Select { pred, input } => {
            let items = eval(input, resolver)?;
            Ok(items.into_iter().filter(|i| eval_pred(pred, i)).collect())
        }
        Plan::Project { fields, input } => {
            let items = eval(input, resolver)?;
            Ok(items.iter().map(|i| project_item(i, fields)).collect())
        }
        Plan::Join { on, left, right } => {
            let l = eval(left, resolver)?;
            let r = eval(right, resolver)?;
            Ok(hash_join(&l, &r, &on.left_path, &on.right_path))
        }
        Plan::Union(inputs) => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(eval(i, resolver)?);
            }
            Ok(out)
        }
        Plan::Or(alts) => {
            let first = alts.first().ok_or(EvalError::EmptyOr)?;
            eval(&first.plan, resolver)
        }
        Plan::Aggregate { func, path, input } => {
            let items = eval(input, resolver)?;
            Ok(vec![aggregate(*func, path.as_ref(), &items)])
        }
        Plan::TopN {
            n,
            key,
            ascending,
            input,
        } => {
            let items = eval(input, resolver)?;
            Ok(top_n(items, *n, key, *ascending))
        }
        Plan::Display { input, .. } => eval(input, resolver),
    }
}

/// [`eval`] with no resolution (all leaves verbatim data).
pub fn eval_const(plan: &Plan) -> Result<Vec<Element>, EvalError> {
    eval(plan, &NoResolver)
}

/// The old predicate evaluation: `select_values` collects a
/// `Vec<String>` of candidate values per item, and `Op::apply`
/// re-parses the comparison literal per value. (The current
/// `Predicate::eval` streams borrowed values; compiled predicates
/// additionally pre-parse the literal.)
fn eval_pred(pred: &Predicate, item: &Element) -> bool {
    match pred {
        Predicate::True => true,
        Predicate::Cmp { path, op, value } => select_values(path, item)
            .iter()
            .any(|v| op.apply(v.trim(), value)),
        Predicate::And(ps) => ps.iter().all(|p| eval_pred(p, item)),
        Predicate::Or(ps) => ps.iter().any(|p| eval_pred(p, item)),
        Predicate::Not(p) => !eval_pred(p, item),
    }
}

/// Projection with per-child string compares (the old matcher).
fn project_item(item: &Element, fields: &[String]) -> Element {
    let mut out = Element::new(item.name());
    for (k, v) in item.attrs() {
        out.set_attr(k.clone(), v.clone());
    }
    for c in item.child_elements() {
        if fields.iter().any(|f| f == c.name()) {
            out.push_child(Node::Element(c.clone()));
        }
    }
    out
}

fn num_key(trimmed: &str) -> Option<u64> {
    let n: f64 = trimmed.parse().ok()?;
    Some(if n.is_nan() {
        f64::NAN.to_bits()
    } else {
        n.to_bits()
    })
}

#[derive(Default)]
struct JoinIndex {
    num: HashMap<u64, Vec<usize>>,
    text: HashMap<String, Vec<usize>>,
}

impl JoinIndex {
    fn lookup(&self, value: &str) -> Option<&[usize]> {
        let t = value.trim();
        match num_key(t) {
            Some(bits) => self.num.get(&bits),
            None => self.text.get(t),
        }
        .map(Vec::as_slice)
    }
}

/// The old hash join: `select_values` allocates a `Vec<String>` of keys
/// per item, and per-item dedup is `Vec::contains` (O(n²) on
/// high-fanout keys).
fn hash_join(
    left: &[Element],
    right: &[Element],
    left_path: &Path,
    right_path: &Path,
) -> Vec<Element> {
    let (build, probe, build_path, probe_path, build_is_left) = if left.len() <= right.len() {
        (left, right, left_path, right_path, true)
    } else {
        (right, left, right_path, left_path, false)
    };
    let mut index = JoinIndex::default();
    let mut seen_num: Vec<u64> = Vec::new();
    let mut seen_text: Vec<String> = Vec::new();
    for (i, item) in build.iter().enumerate() {
        seen_num.clear();
        seen_text.clear();
        for v in select_values(build_path, item) {
            let t = v.trim();
            match num_key(t) {
                Some(bits) => {
                    if !seen_num.contains(&bits) {
                        index.num.entry(bits).or_default().push(i);
                        seen_num.push(bits);
                    }
                }
                None => {
                    if !seen_text.iter().any(|s| s == t) {
                        index.text.entry(t.to_owned()).or_default().push(i);
                        seen_text.push(t.to_owned());
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut matched: Vec<usize> = Vec::new();
    for probe_item in probe {
        matched.clear();
        for v in select_values(probe_path, probe_item) {
            if let Some(idxs) = index.lookup(&v) {
                for &i in idxs {
                    if !matched.contains(&i) {
                        matched.push(i);
                    }
                }
            }
        }
        matched.sort_unstable();
        for &i in &matched {
            let (l, r) = if build_is_left {
                (&build[i], probe_item)
            } else {
                (probe_item, &build[i])
            };
            out.push(
                Element::new("tuple")
                    .child(Node::Element(l.clone()))
                    .child(Node::Element(r.clone())),
            );
        }
    }
    out
}

fn aggregate(func: AggFunc, path: Option<&Path>, items: &[Element]) -> Element {
    let numbers = || -> Vec<f64> {
        items
            .iter()
            .flat_map(|i| match path {
                Some(p) => select_values(p, i),
                None => vec![i.deep_text().into_owned()],
            })
            .filter_map(|v| v.trim().parse::<f64>().ok())
            .collect()
    };
    let text = match func {
        AggFunc::Count => items.len().to_string(),
        AggFunc::Sum => format_num(numbers().iter().sum()),
        AggFunc::Min => numbers()
            .into_iter()
            .fold(None::<f64>, |m, v| Some(m.map_or(v, |m| m.min(v))))
            .map(format_num)
            .unwrap_or_default(),
        AggFunc::Max => numbers()
            .into_iter()
            .fold(None::<f64>, |m, v| Some(m.map_or(v, |m| m.max(v))))
            .map(format_num)
            .unwrap_or_default(),
        AggFunc::Avg => {
            let ns = numbers();
            if ns.is_empty() {
                String::new()
            } else {
                format_num(ns.iter().sum::<f64>() / ns.len() as f64)
            }
        }
    };
    Element::new(func.name()).text(text)
}

fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn top_n(mut items: Vec<Element>, n: usize, key: &Path, ascending: bool) -> Vec<Element> {
    #[derive(PartialEq, PartialOrd)]
    enum K {
        Num(f64),
        Str(String),
        Missing,
    }
    let key_of = |e: &Element| -> K {
        match first_value(key, e) {
            Some(v) => match v.parse::<f64>() {
                Ok(n) => K::Num(n),
                Err(_) => K::Str(v),
            },
            None => K::Missing,
        }
    };
    let mut keyed: Vec<(K, usize, Element)> = items
        .drain(..)
        .enumerate()
        .map(|(i, e)| (key_of(&e), i, e))
        .collect();
    keyed.sort_by(|a, b| {
        let ord = match (&a.0, &b.0) {
            (K::Num(x), K::Num(y)) => x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal),
            (K::Str(x), K::Str(y)) => x.cmp(y),
            (K::Num(_), K::Str(_)) => std::cmp::Ordering::Less,
            (K::Str(_), K::Num(_)) => std::cmp::Ordering::Greater,
            (K::Missing, K::Missing) => std::cmp::Ordering::Equal,
            (K::Missing, _) => std::cmp::Ordering::Greater,
            (_, K::Missing) => std::cmp::Ordering::Less,
        };
        let ord = if ascending { ord } else { ord.reverse() };
        ord.then(a.1.cmp(&b.1))
    });
    keyed.into_iter().take(n).map(|(_, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_xml::parse;

    /// Spot-check agreement with the batched engine (the exhaustive
    /// check is the proptest in `proptests.rs`).
    #[test]
    fn legacy_matches_batched_on_a_mixed_plan() {
        let data: Vec<Element> = (0..20)
            .map(|i| {
                parse(&format!(
                    "<item><title>T{}</title><price>{}</price></item>",
                    i % 7,
                    i
                ))
                .unwrap()
            })
            .collect();
        let songs: Vec<Element> = (0..10)
            .map(|i| parse(&format!("<song><album>T{}</album></song>", i % 5)).unwrap())
            .collect();
        let plan = Plan::top_n(
            5,
            "tuple/item/price",
            true,
            Plan::join(
                mqp_algebra::plan::JoinCond::on("album", "title"),
                Plan::data(songs),
                Plan::select("price < 15", Plan::data(data)),
            ),
        );
        let legacy = eval_const(&plan).unwrap();
        let batched = crate::eval_const(&plan).unwrap();
        assert_eq!(legacy, batched.to_vec());
        assert!(!legacy.is_empty());
    }
}
