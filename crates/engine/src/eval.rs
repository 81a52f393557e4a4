//! Batched, clone-free plan evaluation over shared item collections.
//!
//! The evaluator's currency is the [`Batch`]: `Arc<Element>` item
//! handles shared between `data` leaves, resolver results, and operator
//! inputs/outputs. Handle-shuffling operators (`select`, `union`, `or`,
//! `topn`, `display`) never touch item bytes; only the constructors
//! (`project`, `join`, `agg`) build new items. The evaluator walks the
//! [`Plan`] itself: paths are interned-name matchers from parse time,
//! and each predicate parsed its literal when it was built, so the
//! per-item tests allocate nothing and no separate compile pass runs.
//!
//! The pre-batching tree-walker is preserved verbatim in the
//! test-only `legacy` module as the equivalence oracle for the
//! property tests in `proptests.rs`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use mqp_algebra::plan::{Plan, UrlRef, UrnRef};
use mqp_algebra::predicate::AggFunc;
use mqp_xml::xpath::Path;
use mqp_xml::{Batch, Element, Name, Node};

/// Supplies data for `Url`/`Urn` leaves during evaluation. The peer
/// layer implements this against its local store; a URL is resolvable
/// when it points at this peer (or the policy allows fetching), a URN
/// when the local catalog maps it to local data.
///
/// Resolvers *lend*: the returned [`Batch`] shares handles with the
/// store, so resolution costs reference-count bumps, not item copies.
pub trait Resolver {
    /// Items behind a URL leaf, or `None` if not locally resolvable.
    fn resolve_url(&self, url: &UrlRef) -> Option<Batch>;

    /// Items behind a URN leaf, or `None` if not locally resolvable.
    fn resolve_urn(&self, urn: &UrnRef) -> Option<Batch>;
}

/// A resolver that resolves nothing: evaluation succeeds only on plans
/// whose leaves are all verbatim data.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoResolver;

impl Resolver for NoResolver {
    fn resolve_url(&self, _url: &UrlRef) -> Option<Batch> {
        None
    }

    fn resolve_urn(&self, _urn: &UrnRef) -> Option<Batch> {
        None
    }
}

/// Evaluation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A URL leaf the resolver could not supply.
    UnresolvedUrl(String),
    /// A URN leaf the resolver could not supply.
    UnresolvedUrn(String),
    /// An `Or` with no alternatives (forbidden by the codec, but plans
    /// can be built programmatically).
    EmptyOr,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnresolvedUrl(u) => write!(f, "unresolved URL {u}"),
            EvalError::UnresolvedUrn(u) => write!(f, "unresolved URN {u}"),
            EvalError::EmptyOr => write!(f, "empty or-node"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `plan` to a batch of items.
///
/// * `Or` evaluates its **first** alternative (the conjoint-union
///   semantics of §4.2 say any single alternative suffices; picking
///   among them is the policy manager's job *before* evaluation —
///   by the time a plan reaches the engine the choice is positional).
/// * `Display` is transparent: it evaluates its input (shipping the
///   result to the target is the peer layer's job).
pub fn eval(plan: &Plan, resolver: &impl Resolver) -> Result<Batch, EvalError> {
    eval_node(plan, resolver)
}

/// Evaluates a plan that must not need any resolution (all leaves are
/// verbatim data). Convenience for tests and for reducing sub-plans that
/// have already been fully bound.
pub fn eval_const(plan: &Plan) -> Result<Batch, EvalError> {
    eval(plan, &NoResolver)
}

/// A plan wrapped for [`CompiledPlan::eval`], which is [`eval`].
///
/// Kept only for the benchmark package: its layer probe
/// (`benchmark/src/probes.rs`, the `engine.compile_us` metric) and its
/// trace replay (`benchmark/src/replay.rs`, the `engine.compile` stage)
/// time a compile step before evaluating. The engine has no such step.
#[derive(Debug)]
pub struct CompiledPlan<'p>(&'p Plan);

/// Wraps `plan` for [`CompiledPlan::eval`]; does no work (see
/// [`CompiledPlan`]).
pub fn compile(plan: &Plan) -> CompiledPlan<'_> {
    CompiledPlan(plan)
}

impl CompiledPlan<'_> {
    /// Evaluates the wrapped plan against `resolver`.
    pub fn eval(&self, resolver: &impl Resolver) -> Result<Batch, EvalError> {
        eval(self.0, resolver)
    }
}

/// Evaluates `plan`, borrowing the batch straight out of a `Data` leaf
/// instead of cloning it — the fusion that lets `select`-over-`data`
/// (the Figure 4(b) reduction) and `join` inputs read the leaf's
/// handles without even a reference-count pass.
fn eval_leaf_borrowed<'n>(
    plan: &'n Plan,
    resolver: &impl Resolver,
) -> Result<std::borrow::Cow<'n, Batch>, EvalError> {
    match plan {
        Plan::Data { items, .. } => Ok(std::borrow::Cow::Borrowed(items)),
        _ => eval_node(plan, resolver).map(std::borrow::Cow::Owned),
    }
}

fn eval_node(plan: &Plan, resolver: &impl Resolver) -> Result<Batch, EvalError> {
    match plan {
        Plan::Data { items, .. } => Ok(items.clone()),
        Plan::Url(u) => resolver
            .resolve_url(u)
            .ok_or_else(|| EvalError::UnresolvedUrl(u.href.clone())),
        Plan::Urn(u) => resolver
            .resolve_urn(u)
            .ok_or_else(|| EvalError::UnresolvedUrn(u.urn.to_string())),
        Plan::Select { pred, input } => {
            let items = eval_leaf_borrowed(input, resolver)?;
            Ok(items
                .handles()
                .iter()
                .filter(|h| pred.eval(h))
                .cloned()
                .collect())
        }
        Plan::Project { fields, input } => {
            let items = eval_leaf_borrowed(input, resolver)?;
            let fields: Vec<Name> = fields.iter().map(Name::from).collect();
            let mut out = Batch::with_capacity(items.len());
            for i in items.iter() {
                out.push_item(project_item(i, &fields));
            }
            Ok(out)
        }
        Plan::Join { on, left, right } => {
            let l = eval_leaf_borrowed(left, resolver)?;
            let r = eval_leaf_borrowed(right, resolver)?;
            Ok(hash_join(&l, &r, &on.left_path, &on.right_path))
        }
        Plan::Union(inputs) => {
            let mut out = Batch::new();
            for i in inputs {
                out.extend(eval_node(i, resolver)?);
            }
            Ok(out)
        }
        Plan::Or(alts) => eval_node(&alts.first().ok_or(EvalError::EmptyOr)?.plan, resolver),
        Plan::Aggregate { func, path, input } => {
            let items = eval_leaf_borrowed(input, resolver)?;
            let mut out = Batch::with_capacity(1);
            out.push_item(aggregate(*func, path.as_ref(), &items));
            Ok(out)
        }
        Plan::TopN {
            n,
            key,
            ascending,
            input,
        } => {
            let items = eval_node(input, resolver)?;
            Ok(top_n(items, *n, key, *ascending))
        }
        Plan::Display { input, .. } => eval_node(input, resolver),
    }
}

/// Projection: keeps the item's name and attributes, and only the direct
/// child elements whose names are listed. Field names are interned once
/// per node evaluation, so the per-child scan is pointer compares.
fn project_item(item: &Element, fields: &[Name]) -> Element {
    let mut out = Element::new(item.interned_name().clone());
    for (k, v) in item.attrs() {
        out.set_attr(k.clone(), v.clone());
    }
    for c in item.child_elements() {
        if fields.iter().any(|f| c.interned_name() == f) {
            out.push_child(Node::Element(c.clone()));
        }
    }
    out
}

/// Join-key normalization: numeric values compare numerically
/// (`"1.0"` joins `"1"`), everything else exactly (after trim).
///
/// Numeric keys are the parsed `f64`'s bit pattern (NaNs collapsed to
/// one), which identifies exactly the values the old
/// `format!("#num:{n}")` key did — Rust's float formatting is
/// round-trippable, so distinct non-NaN floats never share a rendering
/// and `-0.0` keeps its sign — without building a `String` per value.
fn num_key(trimmed: &str) -> Option<u64> {
    let n: f64 = trimmed.parse().ok()?;
    Some(if n.is_nan() {
        f64::NAN.to_bits()
    } else {
        n.to_bits()
    })
}

/// Per-probe/per-build dedup sets sized for the common case: join keys
/// per item are almost always one or two, so membership starts as a
/// linear scan over a tiny vector (no hashing, cache-resident) and
/// spills into a `HashSet` past [`SPILL`] so adversarial high-fanout
/// items stay near-linear instead of degrading to O(n²).
const SPILL: usize = 8;

#[derive(Default)]
struct SmallSet<T> {
    vec: Vec<T>,
    set: HashSet<T>,
}

impl<T: Eq + Hash + Copy> SmallSet<T> {
    /// Inserts `v`; returns whether it was new.
    fn insert(&mut self, v: T) -> bool {
        if self.set.is_empty() {
            if self.vec.contains(&v) {
                return false;
            }
            if self.vec.len() < SPILL {
                self.vec.push(v);
                return true;
            }
            self.set.extend(self.vec.drain(..));
        }
        self.set.insert(v)
    }

    fn clear(&mut self) {
        self.vec.clear();
        self.set.clear();
    }
}

/// [`SmallSet`] for string keys: membership tests borrow (`&str`), the
/// owned copy is only made for genuinely new keys.
#[derive(Default)]
struct SmallTextSet {
    vec: Vec<String>,
    set: HashSet<String>,
}

impl SmallTextSet {
    fn insert(&mut self, v: &str) -> bool {
        if self.set.is_empty() {
            if self.vec.iter().any(|s| s == v) {
                return false;
            }
            if self.vec.len() < SPILL {
                self.vec.push(v.to_owned());
                return true;
            }
            self.set.extend(self.vec.drain(..));
        }
        if self.set.contains(v) {
            return false;
        }
        self.set.insert(v.to_owned())
    }

    fn clear(&mut self) {
        self.vec.clear();
        self.set.clear();
    }
}

/// The build-side index. Numeric and string keys hash separately so
/// the probe side can look up with a borrowed `&str` (no per-probe key
/// allocation); string keys additionally *borrow from the build batch*
/// when their value is a plain text field (the overwhelmingly common
/// case), so indexing allocates nothing per key either. Mixed-content
/// values — whose text only exists as a temporary concatenation — fall
/// into the small owned side table.
///
/// Hashing is the interner's multiply-rotate FxHash: the index lives
/// for one evaluation and is sized by one batch, so the SipHash DoS
/// guarantee buys nothing here (see [`mqp_xml::FxBuildHasher`]) while
/// its per-key cost on short join keys is measurable.
struct JoinIndex<'a> {
    num: HashMap<u64, Vec<usize>, mqp_xml::FxBuildHasher>,
    text: HashMap<&'a str, Vec<usize>, mqp_xml::FxBuildHasher>,
    text_owned: HashMap<String, Vec<usize>, mqp_xml::FxBuildHasher>,
}

impl<'a> JoinIndex<'a> {
    fn with_capacity(n: usize) -> Self {
        JoinIndex {
            num: HashMap::with_capacity_and_hasher(n, Default::default()),
            text: HashMap::with_capacity_and_hasher(n, Default::default()),
            text_owned: HashMap::default(),
        }
    }

    /// Both string tables that may hold `trimmed` (a value can be a
    /// plain text field on one build item and mixed content on
    /// another).
    fn text_matches(&self, trimmed: &str) -> [Option<&[usize]>; 2] {
        [
            self.text.get(trimmed).map(Vec::as_slice),
            (!self.text_owned.is_empty())
                .then(|| self.text_owned.get(trimmed).map(Vec::as_slice))
                .flatten(),
        ]
    }
}

/// Hash equi-join. Output items are `<tuple>` elements containing the
/// matched left and right items, in that order. An item with several
/// values under the key path matches on any of them (existential, like
/// predicates), but each (left, right) pair appears at most once.
///
/// Inputs are borrowed batches; key extraction streams through
/// [`Path::for_each_value`] (no per-item `Vec<String>`), and only the
/// output `<tuple>` wrappers allocate.
fn hash_join(left: &Batch, right: &Batch, left_path: &Path, right_path: &Path) -> Batch {
    use std::borrow::Cow;

    // Build on the smaller side.
    let (build, probe, build_path, probe_path, build_is_left) = if left.len() <= right.len() {
        (left, right, left_path, right_path, true)
    } else {
        (right, left, right_path, left_path, false)
    };
    let mut index = JoinIndex::with_capacity(build.len());
    let mut seen_num = SmallSet::<u64>::default();
    let mut seen_text = SmallTextSet::default();
    for (i, item) in build.iter().enumerate() {
        seen_num.clear();
        seen_text.clear();
        build_path.for_each_value(item, &mut |v| {
            let t = v.trim();
            if let Some(bits) = num_key(t) {
                if seen_num.insert(bits) {
                    index.num.entry(bits).or_default().push(i);
                }
            } else if seen_text.insert(t) {
                match v {
                    // Plain text fields borrow straight from the build
                    // batch.
                    Cow::Borrowed(s) => index.text.entry(s.trim()).or_default().push(i),
                    // Mixed content: the concatenated text is a
                    // temporary, so this key must be owned.
                    Cow::Owned(s) => index
                        .text_owned
                        .entry(s.trim().to_owned())
                        .or_default()
                        .push(i),
                }
            }
        });
    }
    let mut out = Batch::new();
    let mut matched: Vec<usize> = Vec::new();
    let mut matched_seen = SmallSet::<usize>::default();
    // A numeric build key never lands in the text tables (and vice
    // versa), so when one class is absent its classification work can
    // be skipped wholesale on the probe side — an all-text join never
    // attempts a float parse per probe value.
    let no_num_keys = index.num.is_empty();
    let tuple_name = Name::new("tuple");
    for probe_item in probe.iter() {
        matched.clear();
        matched_seen.clear();
        probe_path.for_each_value(probe_item, &mut |v| {
            let t = v.trim();
            let hits = if no_num_keys {
                index.text_matches(t)
            } else {
                match num_key(t) {
                    Some(bits) => [index.num.get(&bits).map(Vec::as_slice), None],
                    None => index.text_matches(t),
                }
            };
            for idxs in hits.into_iter().flatten() {
                for &i in idxs {
                    if matched_seen.insert(i) {
                        matched.push(i);
                    }
                }
            }
        });
        matched.sort_unstable();
        for &i in &matched {
            let (l, r) = if build_is_left {
                (&build[i], probe_item)
            } else {
                (probe_item, &build[i])
            };
            out.push_item(
                Element::new(tuple_name.clone())
                    .child(Node::Element(l.clone()))
                    .child(Node::Element(r.clone())),
            );
        }
    }
    out
}

/// Aggregation to a single result item, named after the function, e.g.
/// `<count>3</count>` or `<sum>42.5</sum>`. Non-numeric values are
/// skipped by numeric aggregates; an empty input yields `<count>0</count>`
/// or an empty-texted element for the others.
fn aggregate(func: AggFunc, path: Option<&Path>, items: &Batch) -> Element {
    let numbers = || -> Vec<f64> {
        let mut out = Vec::new();
        for i in items.iter() {
            match path {
                Some(p) => p.for_each_value(i, &mut |v| {
                    if let Ok(n) = v.trim().parse::<f64>() {
                        out.push(n);
                    }
                }),
                None => {
                    if let Ok(n) = i.deep_text().trim().parse::<f64>() {
                        out.push(n);
                    }
                }
            }
        }
        out
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
    // Integral results print without the trailing ".0" so counts and
    // sums look like the paper's examples.
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Top-n by key value: shuffles item handles, never items. Numeric keys
/// sort numerically; items missing the key sort last. Ties break by
/// original position (stable).
fn top_n(items: Batch, n: usize, key: &Path, ascending: bool) -> Batch {
    #[derive(PartialEq, PartialOrd)]
    enum K {
        Num(f64),
        Str(String),
        Missing,
    }
    let key_of = |e: &Element| -> K {
        match key.first_value(e) {
            Some(v) => match v.parse::<f64>() {
                Ok(n) => K::Num(n),
                Err(_) => K::Str(v),
            },
            None => K::Missing,
        }
    };
    let mut keyed: Vec<(K, usize, Arc<Element>)> = items
        .into_iter()
        .enumerate()
        .map(|(i, h)| (key_of(&h), i, h))
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
    keyed.into_iter().take(n).map(|(_, _, h)| h).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_algebra::plan::JoinCond;
    use mqp_xml::parse;

    fn num(item: &Element, field: &str) -> Option<f64> {
        item.field(field)?.parse().ok()
    }

    fn items(xmls: &[&str]) -> Vec<Element> {
        xmls.iter().map(|s| parse(s).unwrap()).collect()
    }

    fn cds() -> Vec<Element> {
        items(&[
            "<item><title>Physical Graffiti</title><price>12</price></item>",
            "<item><title>Houses of the Holy</title><price>8</price></item>",
            "<item><title>Kashmir Live</title><price>9.5</price></item>",
        ])
    }

    #[test]
    fn select_filters() {
        let p = Plan::select("price < 10", Plan::data(cds()));
        let out = eval_const(&p).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|i| num(i, "price").unwrap() < 10.0));
    }

    #[test]
    fn select_shares_input_handles() {
        let p = Plan::select("price < 10", Plan::data(cds()));
        let out = eval_const(&p).unwrap();
        let Plan::Select { input, .. } = &p else {
            unreachable!()
        };
        let data = input.as_data().unwrap();
        // The surviving items are the *same* allocations as the leaf's.
        assert!(Arc::ptr_eq(&out.handles()[0], &data.handles()[1]));
        assert!(Arc::ptr_eq(&out.handles()[1], &data.handles()[2]));
    }

    #[test]
    fn project_keeps_listed_fields() {
        let p = Plan::project(["title"], Plan::data(cds()));
        let out = eval_const(&p).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out[0].first("title").is_some());
        assert!(out[0].first("price").is_none());
        assert_eq!(out[0].name(), "item");
    }

    #[test]
    fn union_concatenates() {
        let p = Plan::union([Plan::data(cds()), Plan::data(cds())]);
        assert_eq!(eval_const(&p).unwrap().len(), 6);
    }

    #[test]
    fn join_matches_keys() {
        let songs = items(&["<song><title>Kashmir</title><album>Physical Graffiti</album></song>"]);
        let p = Plan::join(
            JoinCond::on("song/album", "item/title"),
            Plan::data(songs),
            Plan::data(cds()),
        );
        // Neither side's items are named song/item at the top — paths are
        // relative to the item element, whose own name is song/item. A
        // relative path starts at the item's children, so use the field
        // names directly instead.
        let out = eval_const(&p).unwrap();
        // 'song/album' relative to a <song> element looks for a child
        // <song> — no match. Expect empty here; the correct paths are
        // tested below.
        assert!(out.is_empty());

        let p2 = Plan::join(
            JoinCond::on("album", "title"),
            Plan::data(items(&[
                "<song><title>Kashmir</title><album>Physical Graffiti</album></song>",
            ])),
            Plan::data(cds()),
        );
        let out2 = eval_const(&p2).unwrap();
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].name(), "tuple");
        let kids: Vec<&Element> = out2[0].child_elements().collect();
        assert_eq!(kids[0].name(), "song");
        assert_eq!(kids[1].name(), "item");
    }

    #[test]
    fn join_numeric_key_normalization() {
        let l = items(&["<a><k>1.0</k></a>"]);
        let r = items(&["<b><k>1</k></b>", "<b><k>01</k></b>"]);
        let p = Plan::join(JoinCond::on("k", "k"), Plan::data(l), Plan::data(r));
        assert_eq!(eval_const(&p).unwrap().len(), 2);
    }

    #[test]
    fn join_left_right_order_independent_of_build_side() {
        // Force build on the right (smaller) and verify tuple order is
        // still (left, right).
        let l = items(&["<l><k>x</k></l>", "<l><k>x</k></l>"]);
        let r = items(&["<r><k>x</k></r>"]);
        let p = Plan::join(JoinCond::on("k", "k"), Plan::data(l), Plan::data(r));
        let out = eval_const(&p).unwrap();
        assert_eq!(out.len(), 2);
        for t in out.iter() {
            let kids: Vec<&Element> = t.child_elements().collect();
            assert_eq!(kids[0].name(), "l");
            assert_eq!(kids[1].name(), "r");
        }
    }

    #[test]
    fn join_duplicate_key_values_pair_once() {
        let l = items(&["<l><k>x</k><k>x</k></l>"]);
        let r = items(&["<r><k>x</k></r>"]);
        let p = Plan::join(JoinCond::on("k", "k"), Plan::data(l), Plan::data(r));
        assert_eq!(eval_const(&p).unwrap().len(), 1);
    }

    #[test]
    fn join_high_fanout_keys_stay_deduped() {
        // One probe item carrying far more than SPILL distinct values,
        // several of them repeated: every build match pairs exactly
        // once, in build order — the small-set-then-hash path.
        let mut probe = String::from("<p>");
        for i in 0..40 {
            probe.push_str(&format!("<k>v{}</k>", i % 20));
        }
        for i in 0..30 {
            probe.push_str(&format!("<k>{}</k>", i % 15)); // numeric keys
        }
        probe.push_str("</p>");
        let build: Vec<String> = (0..20)
            .map(|i| format!("<b><k>v{i}</k><k>{i}</k></b>"))
            .collect();
        let build_items: Vec<Element> = build.iter().map(|s| parse(s).unwrap()).collect();
        let p = Plan::join(
            JoinCond::on("k", "k"),
            Plan::data([parse(&probe).unwrap()]),
            Plan::data(build_items),
        );
        let out = eval_const(&p).unwrap();
        // 20 build items each match (via v0..v19 or 0..14), once each.
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn aggregates() {
        let d = Plan::data(cds());
        let count = eval_const(&Plan::aggregate(AggFunc::Count, None, d.clone())).unwrap();
        assert_eq!(count[0].name(), "count");
        assert_eq!(count[0].deep_text(), "3");
        let sum = eval_const(&Plan::aggregate(AggFunc::Sum, Some("price"), d.clone())).unwrap();
        assert_eq!(sum[0].deep_text(), "29.5");
        let min = eval_const(&Plan::aggregate(AggFunc::Min, Some("price"), d.clone())).unwrap();
        assert_eq!(min[0].deep_text(), "8");
        let max = eval_const(&Plan::aggregate(AggFunc::Max, Some("price"), d.clone())).unwrap();
        assert_eq!(max[0].deep_text(), "12");
        let avg = eval_const(&Plan::aggregate(AggFunc::Avg, Some("price"), d)).unwrap();
        let v: f64 = avg[0].deep_text().parse().unwrap();
        assert!((v - 29.5 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_empty_input() {
        let count = eval_const(&Plan::aggregate(AggFunc::Count, None, Plan::data([]))).unwrap();
        assert_eq!(count[0].deep_text(), "0");
        let min = eval_const(&Plan::aggregate(AggFunc::Min, Some("x"), Plan::data([]))).unwrap();
        assert_eq!(min[0].deep_text(), "");
    }

    #[test]
    fn aggregate_skips_nan_free_text_but_accepts_nan_literal() {
        // "NaN" parses as f64::NAN: min/max fold must not poison the
        // whole aggregate — f64::min/max ignore the NaN side.
        let d = Plan::data(items(&[
            "<i><p>5</p></i>",
            "<i><p>NaN</p></i>",
            "<i><p>2</p></i>",
            "<i><p>junk</p></i>",
        ]));
        let min = eval_const(&Plan::aggregate(AggFunc::Min, Some("p"), d.clone())).unwrap();
        assert_eq!(min[0].deep_text(), "2");
        let max = eval_const(&Plan::aggregate(AggFunc::Max, Some("p"), d.clone())).unwrap();
        assert_eq!(max[0].deep_text(), "5");
        // count counts items (not numeric values).
        let count = eval_const(&Plan::aggregate(AggFunc::Count, None, d)).unwrap();
        assert_eq!(count[0].deep_text(), "4");
    }

    #[test]
    fn top_n_ascending_and_descending() {
        let cheap2 = eval_const(&Plan::top_n(2, "price", true, Plan::data(cds()))).unwrap();
        assert_eq!(cheap2.len(), 2);
        assert_eq!(num(&cheap2[0], "price"), Some(8.0));
        assert_eq!(num(&cheap2[1], "price"), Some(9.5));
        let dear1 = eval_const(&Plan::top_n(1, "price", false, Plan::data(cds()))).unwrap();
        assert_eq!(num(&dear1[0], "price"), Some(12.0));
    }

    #[test]
    fn top_n_missing_keys_sort_last() {
        let mixed = items(&["<i><p>5</p></i>", "<i/>", "<i><p>1</p></i>"]);
        let out = eval_const(&Plan::top_n(3, "p", true, Plan::data(mixed))).unwrap();
        assert_eq!(num(&out[0], "p"), Some(1.0));
        assert_eq!(num(&out[1], "p"), Some(5.0));
        assert!(out[2].first("p").is_none());
    }

    #[test]
    fn top_n_nan_keys_and_ties_are_position_stable() {
        // NaN keys compare Equal to everything numeric (partial_cmp →
        // None → Equal), so ordering falls back to original position;
        // exact ties likewise. Both the batched and legacy evaluators
        // must agree on this order.
        let mixed = items(&[
            "<i id=\"a\"><p>NaN</p></i>",
            "<i id=\"b\"><p>1</p></i>",
            "<i id=\"c\"><p>NaN</p></i>",
            "<i id=\"d\"><p>1</p></i>",
        ]);
        let plan = Plan::top_n(4, "p", true, Plan::data(mixed));
        let out = eval_const(&plan).unwrap();
        let ids: Vec<&str> = out.iter().map(|e| e.get_attr("id").unwrap()).collect();
        let legacy: Vec<Element> = crate::legacy::eval_const(&plan).unwrap();
        let legacy_ids: Vec<&str> = legacy.iter().map(|e| e.get_attr("id").unwrap()).collect();
        assert_eq!(ids, legacy_ids);
        // Ties (and NaN's Equal comparisons) preserve input order.
        assert_eq!(ids, ["a", "b", "c", "d"]);
    }

    #[test]
    fn or_evaluates_first_alternative() {
        let p = Plan::or([Plan::data(cds()), Plan::url("http://unreachable/")]);
        assert_eq!(eval_const(&p).unwrap().len(), 3);
    }

    #[test]
    fn empty_or_errors() {
        assert_eq!(eval_const(&Plan::Or(Vec::new())), Err(EvalError::EmptyOr));
    }

    #[test]
    fn display_is_transparent() {
        let p = Plan::display("c:1", Plan::data(cds()));
        assert_eq!(eval_const(&p).unwrap().len(), 3);
    }

    #[test]
    fn unresolved_leaves_error() {
        assert!(matches!(
            eval_const(&Plan::url("http://x/")),
            Err(EvalError::UnresolvedUrl(_))
        ));
        assert!(matches!(
            eval_const(&Plan::urn("urn:ForSale:Portland-CDs")),
            Err(EvalError::UnresolvedUrn(_))
        ));
    }

    #[test]
    fn resolver_supplies_urls() {
        struct Fixed(Batch);
        impl Resolver for Fixed {
            fn resolve_url(&self, _u: &UrlRef) -> Option<Batch> {
                Some(self.0.clone())
            }
            fn resolve_urn(&self, _u: &UrnRef) -> Option<Batch> {
                None
            }
        }
        let p = Plan::select("price < 10", Plan::url("http://seller/"));
        let out = eval(&p, &Fixed(cds().into_iter().collect())).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn figure4b_reduction_semantics() {
        // Figure 4(b): the seller substitutes its CD data for its URL and
        // evaluates the select locally.
        let seller_data = cds();
        let plan = Plan::select("price < 10", Plan::data(seller_data));
        let reduced = eval_const(&plan).unwrap();
        assert_eq!(reduced.len(), 2);
        // The reduced result becomes a constant data leaf — without
        // copying the shared items.
        let constant = Plan::data_shared(reduced);
        assert!(constant.is_fully_evaluated());
    }

    #[test]
    fn compiled_plan_reusable_across_evals() {
        let p = Plan::select("price < 10", Plan::data(cds()));
        let compiled = compile(&p);
        assert_eq!(compiled.eval(&NoResolver).unwrap().len(), 2);
        assert_eq!(compiled.eval(&NoResolver).unwrap().len(), 2);
    }

    #[test]
    fn small_set_spills_past_cap() {
        let mut s = SmallSet::<u64>::default();
        for i in 0..100 {
            assert!(s.insert(i));
            assert!(!s.insert(i));
        }
        for i in 0..100 {
            assert!(!s.insert(i));
        }
        s.clear();
        assert!(s.insert(0));

        let mut t = SmallTextSet::default();
        for i in 0..100 {
            assert!(t.insert(&format!("k{i}")));
            assert!(!t.insert(&format!("k{i}")));
        }
        t.clear();
        assert!(t.insert("k0"));
    }
}
