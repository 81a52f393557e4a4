//! The plan tree: operators, leaves, annotations, and structural
//! utilities (addressing, substitution, traversal).

use std::collections::BTreeMap;
use std::fmt;

use mqp_namespace::Urn;
use mqp_xml::xpath::Path;
use mqp_xml::{Batch, Element};

use crate::predicate::{AggFunc, Predicate};

/// Key/value annotations carried on plan leaves (paper §5.1:
/// "S could annotate B with its cardinality, the unique cardinality of
/// the join column, or even a histogram"). Stored sorted so the XML wire
/// form is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Annotations(BTreeMap<String, String>);

impl Annotations {
    /// Empty annotation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a string annotation.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), value.into());
    }

    /// Gets a string annotation.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// All annotations in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// True if no annotations are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Declared cardinality of the underlying collection, if announced.
    pub fn cardinality(&self) -> Option<u64> {
        self.get("cardinality")?.parse().ok()
    }

    /// Announces the cardinality (§5.1).
    pub fn set_cardinality(&mut self, n: u64) {
        self.set("cardinality", n.to_string());
    }

    /// Declared unique cardinality of the join column, if announced.
    pub fn distinct(&self) -> Option<u64> {
        self.get("distinct")?.parse().ok()
    }

    /// Declared serialized byte size, if announced.
    pub fn byte_size(&self) -> Option<u64> {
        self.get("bytes")?.parse().ok()
    }
}

impl<K: Into<String>, V: Into<String>> FromIterator<(K, V)> for Annotations {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        Annotations(
            iter.into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }
}

/// A resource location: the paper's `(http://10.3.4.5, /data[id=245])`
/// pairs — a server address plus an XPath collection identifier (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct UrlRef {
    /// Server address, e.g. `http://10.1.2.3:9020/`.
    pub href: String,
    /// Collection identifier at that server, e.g. `/data[@id='245']`.
    /// `None` means the server's default collection.
    pub collection: Option<Path>,
    /// Statistics annotations (§5.1).
    pub meta: Annotations,
}

impl UrlRef {
    /// A URL leaf with the default collection.
    pub fn new(href: impl Into<String>) -> Self {
        UrlRef {
            href: href.into(),
            collection: None,
            meta: Annotations::new(),
        }
    }

    /// A URL leaf naming a specific collection.
    pub fn with_collection(href: impl Into<String>, path: &str) -> Self {
        UrlRef {
            href: href.into(),
            collection: Some(Path::parse(path).expect("malformed collection path")),
            meta: Annotations::new(),
        }
    }
}

/// An abstract resource name plus annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct UrnRef {
    /// The parsed URN.
    pub urn: Urn,
    /// Statistics / routing annotations.
    pub meta: Annotations,
}

impl UrnRef {
    /// Wraps a URN.
    pub fn new(urn: Urn) -> Self {
        UrnRef {
            urn,
            meta: Annotations::new(),
        }
    }
}

/// Equi-join condition: items pair up when the values under `left_path`
/// and `right_path` compare equal (numeric-aware, like predicates).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCond {
    /// Field path into left items.
    pub left_path: Path,
    /// Field path into right items.
    pub right_path: Path,
}

impl JoinCond {
    /// Builds a join condition from path literals; panics on malformed
    /// paths (intended for statically known paths).
    pub fn on(left: &str, right: &str) -> Self {
        JoinCond {
            left_path: Path::parse(left).expect("malformed join path"),
            right_path: Path::parse(right).expect("malformed join path"),
        }
    }
}

/// One alternative of an `Or` (conjoint union, §4.2), optionally tagged
/// with a staleness bound in minutes (§4.3: `…@R{30}`).
#[derive(Debug, Clone, PartialEq)]
pub struct OrAlt {
    /// The alternative sub-plan.
    pub plan: Plan,
    /// Upper bound on how out-of-date this alternative may be, in
    /// minutes; `None` when unknown/unstated, `Some(0)` means current.
    pub staleness: Option<u32>,
}

impl OrAlt {
    /// Alternative with no staleness statement.
    pub fn new(plan: Plan) -> Self {
        OrAlt {
            plan,
            staleness: None,
        }
    }

    /// Alternative with a staleness bound.
    pub fn stale(plan: Plan, minutes: u32) -> Self {
        OrAlt {
            plan,
            staleness: Some(minutes),
        }
    }
}

/// A mutant query plan tree.
///
/// The paper calls plans "graphs"; common sub-expressions are expressed
/// here by repeating the subtree (value semantics), which keeps
/// substitution and the XML codec simple and is how the prototype's XML
/// serialization behaves anyway (XML is a tree).
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Verbatim XML data: a constant collection of items, held as a
    /// shared [`Batch`] so substitution, evaluation, and forwarding
    /// shuffle `Arc` handles instead of deep-copying trees.
    Data {
        /// The items.
        items: Batch,
        /// Statistics annotations.
        meta: Annotations,
    },
    /// A resource location.
    Url(UrlRef),
    /// An abstract resource name.
    Urn(UrnRef),
    /// Selection.
    Select {
        /// Filter predicate.
        pred: Predicate,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Projection onto a set of direct child fields.
    Project {
        /// Child-element names to keep.
        fields: Vec<String>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Equi-join; output items are `<tuple>` elements containing the two
    /// matched items.
    Join {
        /// Join condition.
        on: JoinCond,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Bag union of any number of inputs.
    Union(Vec<Plan>),
    /// Conjoint union (§4.2): *either* alternative holds the necessary
    /// data; a server may rewrite `A | B` to `A` or to `B`.
    Or(Vec<OrAlt>),
    /// Aggregation to a single item.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Field path aggregated over (ignored by `count`).
        path: Option<Path>,
        /// Input plan.
        input: Box<Plan>,
    },
    /// Keep the `n` smallest/largest items by `key`.
    TopN {
        /// How many items to keep.
        n: usize,
        /// Sort key path.
        key: Path,
        /// Sort direction.
        ascending: bool,
        /// Input plan.
        input: Box<Plan>,
    },
    /// The display pseudo-operator: tags the plan with the network
    /// address that should receive the final result (§2).
    Display {
        /// Result destination, e.g. `129.95.50.105:9020`.
        target: String,
        /// The query proper.
        input: Box<Plan>,
    },
}

impl Plan {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Constant data leaf from owned items (wraps each in an `Arc`).
    pub fn data(items: impl IntoIterator<Item = Element>) -> Plan {
        Plan::data_shared(items.into_iter().collect())
    }

    /// Constant data leaf from an already-shared batch — the clone-free
    /// path the reduce step uses to feed evaluation results straight
    /// back into the plan.
    pub fn data_shared(items: Batch) -> Plan {
        let mut meta = Annotations::new();
        meta.set_cardinality(items.len() as u64);
        Plan::Data { items, meta }
    }

    /// URL leaf.
    pub fn url(href: impl Into<String>) -> Plan {
        Plan::Url(UrlRef::new(href))
    }

    /// URN leaf from its text form; panics on a malformed URN literal.
    pub fn urn(urn: &str) -> Plan {
        Plan::Urn(UrnRef::new(Urn::parse(urn).expect("malformed URN literal")))
    }

    /// Selection; `pred` is the compact predicate text. Panics on a
    /// malformed literal.
    pub fn select(pred: &str, input: Plan) -> Plan {
        Plan::Select {
            pred: Predicate::parse(pred).expect("malformed predicate literal"),
            input: Box::new(input),
        }
    }

    /// Projection.
    pub fn project<S: Into<String>>(fields: impl IntoIterator<Item = S>, input: Plan) -> Plan {
        Plan::Project {
            fields: fields.into_iter().map(Into::into).collect(),
            input: Box::new(input),
        }
    }

    /// Equi-join.
    pub fn join(on: JoinCond, left: Plan, right: Plan) -> Plan {
        Plan::Join {
            on,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Bag union.
    pub fn union(inputs: impl IntoIterator<Item = Plan>) -> Plan {
        Plan::Union(inputs.into_iter().collect())
    }

    /// Conjoint union of plain alternatives.
    pub fn or(alts: impl IntoIterator<Item = Plan>) -> Plan {
        Plan::Or(alts.into_iter().map(OrAlt::new).collect())
    }

    /// Aggregate.
    pub fn aggregate(func: AggFunc, path: Option<&str>, input: Plan) -> Plan {
        Plan::Aggregate {
            func,
            path: path.map(|p| Path::parse(p).expect("malformed aggregate path")),
            input: Box::new(input),
        }
    }

    /// Top-n by key.
    pub fn top_n(n: usize, key: &str, ascending: bool, input: Plan) -> Plan {
        Plan::TopN {
            n,
            key: Path::parse(key).expect("malformed key path"),
            ascending,
            input: Box::new(input),
        }
    }

    /// Display wrapper.
    pub fn display(target: impl Into<String>, input: Plan) -> Plan {
        Plan::Display {
            target: target.into(),
            input: Box::new(input),
        }
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Immediate children, in a stable order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Data { .. } | Plan::Url(_) | Plan::Urn(_) => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Display { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::Union(inputs) => inputs.iter().collect(),
            Plan::Or(alts) => alts.iter().map(|a| &a.plan).collect(),
        }
    }

    /// Mutable immediate children, same order as [`Plan::children`].
    pub fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Data { .. } | Plan::Url(_) | Plan::Urn(_) => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::TopN { input, .. }
            | Plan::Display { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
            Plan::Union(inputs) => inputs.iter_mut().collect(),
            Plan::Or(alts) => alts.iter_mut().map(|a| &mut a.plan).collect(),
        }
    }

    /// Operator name (used by the codec and displays).
    pub fn op_name(&self) -> &'static str {
        match self {
            Plan::Data { .. } => "data",
            Plan::Url(_) => "url",
            Plan::Urn(_) => "urn",
            Plan::Select { .. } => "select",
            Plan::Project { .. } => "project",
            Plan::Join { .. } => "join",
            Plan::Union(_) => "union",
            Plan::Or(_) => "or",
            Plan::Aggregate { .. } => "agg",
            Plan::TopN { .. } => "topn",
            Plan::Display { .. } => "display",
        }
    }

    /// Total node count of the plan tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Depth-first pre-order traversal.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Plan)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// All URN leaves in the plan.
    pub fn urns(&self) -> Vec<&UrnRef> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let Plan::Urn(u) = p {
                out.push(u);
            }
        });
        out
    }

    /// All URL leaves in the plan.
    pub fn urls(&self) -> Vec<&UrlRef> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let Plan::Url(u) = p {
                out.push(u);
            }
        });
        out
    }

    /// True when the plan (ignoring a `Display` wrapper) has been reduced
    /// to a constant piece of XML data — the termination condition of
    /// mutant query evaluation (§2).
    pub fn is_fully_evaluated(&self) -> bool {
        match self {
            Plan::Display { input, .. } => matches!(**input, Plan::Data { .. }),
            Plan::Data { .. } => true,
            _ => false,
        }
    }

    /// The display target, if the plan carries one at its root.
    pub fn target(&self) -> Option<&str> {
        match self {
            Plan::Display { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Sub-plan at `path` (empty path = the plan itself).
    pub fn get(&self, path: &NodePath) -> Option<&Plan> {
        let mut cur = self;
        for &i in &path.0 {
            cur = *cur.children().get(i)?;
        }
        Some(cur)
    }

    /// Replaces the sub-plan at `path`, returning the old sub-plan.
    /// Returns `Err(new)` (giving the replacement back) when the path
    /// does not exist.
    pub fn replace(&mut self, path: &NodePath, new: Plan) -> Result<Plan, Plan> {
        let mut cur: &mut Plan = self;
        for &i in &path.0 {
            let kids = cur.children_mut();
            let Some(slot) = kids.into_iter().nth(i) else {
                return Err(new);
            };
            cur = slot;
        }
        Ok(std::mem::replace(cur, new))
    }

    /// Paths of every node matching `pred`, in pre-order.
    pub fn find_all(&self, pred: &impl Fn(&Plan) -> bool) -> Vec<NodePath> {
        let mut out = Vec::new();
        fn rec(
            plan: &Plan,
            pred: &impl Fn(&Plan) -> bool,
            prefix: &mut Vec<usize>,
            out: &mut Vec<NodePath>,
        ) {
            if pred(plan) {
                out.push(NodePath(prefix.clone()));
            }
            for (i, c) in plan.children().into_iter().enumerate() {
                prefix.push(i);
                rec(c, pred, prefix, out);
                prefix.pop();
            }
        }
        rec(self, pred, &mut Vec::new(), &mut out);
        out
    }

    /// The constant items, if this node is a `Data` leaf.
    pub fn as_data(&self) -> Option<&Batch> {
        match self {
            Plan::Data { items, .. } => Some(items),
            _ => None,
        }
    }

    /// Renders the plan as an indented operator tree for logs/examples.
    fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Plan::Data { items, .. } => {
                out.push_str(&format!("data ({} items)\n", items.len()));
            }
            Plan::Url(u) => {
                out.push_str(&format!(
                    "url {}{}\n",
                    u.href,
                    u.collection
                        .as_ref()
                        .map(|p| format!(" {p}"))
                        .unwrap_or_default()
                ));
            }
            Plan::Urn(u) => out.push_str(&format!("urn {}\n", u.urn)),
            Plan::Select { pred, .. } => out.push_str(&format!("select {pred}\n")),
            Plan::Project { fields, .. } => {
                out.push_str(&format!("project {}\n", fields.join(",")));
            }
            Plan::Join { on, .. } => {
                out.push_str(&format!("join {} = {}\n", on.left_path, on.right_path));
            }
            Plan::Union(_) => out.push_str("union\n"),
            Plan::Or(alts) => {
                let tags: Vec<String> = alts
                    .iter()
                    .map(|a| match a.staleness {
                        Some(m) => format!("{{{m}}}"),
                        None => "{}".to_owned(),
                    })
                    .collect();
                out.push_str(&format!("or {}\n", tags.join(" | ")));
            }
            Plan::Aggregate { func, path, .. } => {
                let p = path.as_ref().map(|p| format!(" {p}")).unwrap_or_default();
                out.push_str(&format!("agg {func}{p}\n"));
            }
            Plan::TopN {
                n, key, ascending, ..
            } => {
                let dir = if *ascending { "asc" } else { "desc" };
                out.push_str(&format!("topn {n} by {key} {dir}\n"));
            }
            Plan::Display { target, .. } => out.push_str(&format!("display -> {target}\n")),
        }
        for c in self.children() {
            c.render_into(depth + 1, out);
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_tree().trim_end())
    }
}

/// Address of a node inside a plan: the child indices on the way down
/// from the root. Empty = the root.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct NodePath(pub Vec<usize>);

impl fmt::Display for NodePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "/");
        }
        for i in &self.0 {
            write!(f, "/{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_xml::parse;

    /// The plan of Figure 3: CD search joining favorite songs with track
    /// listings and Portland for-sale lists.
    pub(crate) fn figure3_plan() -> Plan {
        let favorites = Plan::data([
            parse("<song><title>Alabama Song</title></song>").unwrap(),
            parse("<song><title>Kashmir</title></song>").unwrap(),
        ]);
        let listings = Plan::urn("urn:CD:TrackListings");
        let forsale = Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs"));
        let inner = Plan::join(
            JoinCond::on("song/title", "track/title"),
            favorites,
            listings,
        );
        let outer = Plan::join(
            JoinCond::on("tuple/track/album", "item/title"),
            inner,
            forsale,
        );
        Plan::display("129.95.50.105:9020", outer)
    }

    #[test]
    fn figure3_structure() {
        let p = figure3_plan();
        assert_eq!(p.op_name(), "display");
        assert_eq!(p.target(), Some("129.95.50.105:9020"));
        assert_eq!(p.urns().len(), 2);
        assert_eq!(p.node_count(), 7);
        assert!(!p.is_fully_evaluated());
    }

    #[test]
    fn node_path_addressing() {
        let p = figure3_plan();
        let root = p.get(&NodePath::default()).unwrap();
        assert_eq!(root.op_name(), "display");
        let outer = p.get(&NodePath(vec![0])).unwrap();
        assert_eq!(outer.op_name(), "join");
        let favorites = p.get(&NodePath(vec![0, 0, 0])).unwrap();
        assert_eq!(favorites.op_name(), "data");
        assert!(p.get(&NodePath(vec![0, 9])).is_none());
    }

    #[test]
    fn replace_substitutes_subplan() {
        let mut p = figure3_plan();
        // Resolve the ForSale URN (under select) to a union of two URLs,
        // as in Figure 4(a).
        let path = NodePath(vec![0, 1, 0]);
        assert_eq!(p.get(&path).unwrap().op_name(), "urn");
        let union = Plan::union([
            Plan::url("http://10.1.2.3:9020/"),
            Plan::url("http://10.2.3.4:9020/"),
        ]);
        let old = p.replace(&path, union).unwrap();
        assert_eq!(old.op_name(), "urn");
        assert_eq!(p.get(&path).unwrap().op_name(), "union");
        assert_eq!(p.urns().len(), 1);
        assert_eq!(p.urls().len(), 2);
    }

    #[test]
    fn replace_bad_path_returns_new_back() {
        let mut p = Plan::data([]);
        let res = p.replace(&NodePath(vec![3]), Plan::url("http://x/"));
        assert!(res.is_err());
    }

    #[test]
    fn find_all_urns_in_preorder() {
        let p = figure3_plan();
        let urn_paths = p.find_all(&|n| matches!(n, Plan::Urn(_)));
        assert_eq!(urn_paths.len(), 2);
        assert_eq!(urn_paths[0], NodePath(vec![0, 0, 1]));
        assert_eq!(urn_paths[1], NodePath(vec![0, 1, 0]));
    }

    #[test]
    fn fully_evaluated_detection() {
        assert!(Plan::data([]).is_fully_evaluated());
        assert!(Plan::display("c:1", Plan::data([])).is_fully_evaluated());
        assert!(!Plan::display("c:1", Plan::url("http://x/")).is_fully_evaluated());
        assert!(!Plan::union([Plan::data([])]).is_fully_evaluated());
    }

    #[test]
    fn data_constructor_sets_cardinality() {
        let p = Plan::data([parse("<i/>").unwrap(), parse("<i/>").unwrap()]);
        match &p {
            Plan::Data { meta, .. } => assert_eq!(meta.cardinality(), Some(2)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn or_alt_staleness() {
        let or = Plan::Or(vec![
            OrAlt::stale(Plan::url("http://r/"), 30),
            OrAlt::new(Plan::union([
                Plan::url("http://r/"),
                Plan::url("http://s/"),
            ])),
        ]);
        match &or {
            Plan::Or(alts) => {
                assert_eq!(alts[0].staleness, Some(30));
                assert_eq!(alts[1].staleness, None);
            }
            _ => unreachable!(),
        }
        assert_eq!(or.children().len(), 2);
    }

    #[test]
    fn render_tree_readable() {
        let s = figure3_plan().render_tree();
        assert!(s.contains("display -> 129.95.50.105:9020"), "{s}");
        assert!(s.contains("select price < 10"), "{s}");
        assert!(s.contains("urn urn:ForSale:Portland-CDs"), "{s}");
        // Indentation reflects depth.
        assert!(s.lines().any(|l| l.starts_with("      ")), "{s}");
    }

    #[test]
    fn node_path_display() {
        let b = NodePath(vec![0, 1, 2]);
        assert_eq!(b.to_string(), "/0/1/2");
        assert_eq!(NodePath::default().to_string(), "/");
    }

    #[test]
    fn annotations_typed_accessors() {
        let mut m = Annotations::new();
        m.set_cardinality(42);
        m.set("distinct", "7");
        m.set("bytes", "1000");
        assert_eq!(m.cardinality(), Some(42));
        assert_eq!(m.distinct(), Some(7));
        assert_eq!(m.byte_size(), Some(1000));
        assert_eq!(m.get("histogram"), None);
    }
}
