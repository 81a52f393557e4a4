//! Categorization hierarchies and category paths.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use mqp_xml::Name;

/// A path from a hierarchy's root to a category, e.g. `USA/OR/Portland`.
/// The empty path is the all-inclusive top category `*` (paper §3.1).
///
/// Paths are meaningful relative to a [`Hierarchy`]; [`CategoryPath`]
/// itself is purely lexical so URN decoding can stay lexical (§3.4).
///
/// Segments are interned [`Name`]s: a federation of 100k peers repeats
/// the same few hundred category names across every interest area,
/// catalog entry, and query coordinate, so each distinct segment is one
/// shared allocation and cloning a path bumps reference counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CategoryPath(Vec<Name>);

impl CategoryPath {
    /// The top category `*`.
    pub fn top() -> Self {
        CategoryPath(Vec::new())
    }

    /// Builds a path from segments.
    pub fn new<S: Into<Name>>(segments: impl IntoIterator<Item = S>) -> Self {
        CategoryPath(segments.into_iter().map(Into::into).collect())
    }

    /// Number of levels below the root (0 for `*`).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// True for the all-inclusive top category.
    pub fn is_top(&self) -> bool {
        self.0.is_empty()
    }

    /// The path segments.
    pub(crate) fn segments(&self) -> &[Name] {
        &self.0
    }

    /// Final segment, if any (`Portland` for `USA/OR/Portland`).
    pub fn leaf(&self) -> Option<&str> {
        self.0.last().map(Name::as_str)
    }

    /// The immediate parent (`USA/OR` for `USA/OR/Portland`); `None` for
    /// the top category.
    pub fn parent(&self) -> Option<CategoryPath> {
        if self.0.is_empty() {
            None
        } else {
            Some(CategoryPath(self.0[..self.0.len() - 1].to_vec()))
        }
    }

    /// Extends the path by one segment.
    pub(crate) fn child(&self, segment: impl Into<Name>) -> CategoryPath {
        let mut v = self.0.clone();
        v.push(segment.into());
        CategoryPath(v)
    }

    /// True if `self` is the same as or an ancestor of `other` — i.e. the
    /// category `self` *covers* the category `other` (prefix relation).
    pub fn covers(&self, other: &CategoryPath) -> bool {
        self.0.len() <= other.0.len() && self.0[..] == other.0[..self.0.len()]
    }

    /// True if one of the two covers the other (they lie on one root
    /// path); exactly when the two categories share items.
    pub(crate) fn comparable(&self, other: &CategoryPath) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The more specific of two comparable paths; `None` if incomparable.
    /// This is the intersection of the two categories as item sets.
    pub fn intersect(&self, other: &CategoryPath) -> Option<CategoryPath> {
        if self.covers(other) {
            Some(other.clone())
        } else if other.covers(self) {
            Some(self.clone())
        } else {
            None
        }
    }

    /// Generalizes the path by dropping its last `levels` segments
    /// (paper §3.5: "rewrite `USA/OR/Portland` into `USA/OR`, with a
    /// possible loss of precision, but no loss of recall").
    pub fn generalize(&self, levels: usize) -> CategoryPath {
        let keep = self.0.len().saturating_sub(levels);
        CategoryPath(self.0[..keep].to_vec())
    }
}

impl fmt::Display for CategoryPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            f.write_str("*")
        } else {
            for (i, seg) in self.0.iter().enumerate() {
                if i > 0 {
                    f.write_str("/")?;
                }
                f.write_str(seg.as_str())?;
            }
            Ok(())
        }
    }
}

impl FromStr for CategoryPath {
    type Err = std::convert::Infallible;

    /// Parses `USA/OR/Portland` or `*`. Never fails: the lexical form of
    /// every string is some path; validity against a hierarchy is a
    /// separate check ([`Hierarchy::contains`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "*" {
            return Ok(CategoryPath::top());
        }
        Ok(CategoryPath(
            s.split('/')
                .filter(|p| !p.is_empty())
                .map(Name::new)
                .collect(),
        ))
    }
}

impl From<&str> for CategoryPath {
    fn from(s: &str) -> Self {
        s.parse().expect("infallible")
    }
}

/// One categorization hierarchy ("dimension"), e.g. Location or
/// Merchandise. A rooted tree of named categories; the root is the
/// all-inclusive `*`.
///
/// Stored as a sorted map from path to child names, which keeps
/// enumeration deterministic (important for reproducible simulations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    name: String,
    /// Every known category path (excluding the root), mapped to its
    /// children's leaf names. The root's children live under `top()`.
    children: BTreeMap<CategoryPath, Vec<Name>>,
}

impl Hierarchy {
    /// Creates an empty hierarchy (just the `*` root) with a dimension
    /// name, e.g. `"Location"`.
    pub fn new(name: impl Into<String>) -> Self {
        let mut children = BTreeMap::new();
        children.insert(CategoryPath::top(), Vec::new());
        Hierarchy {
            name: name.into(),
            children,
        }
    }

    /// The dimension name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Adds a category (and all missing ancestors). Idempotent.
    pub fn add(&mut self, path: impl Into<CategoryPath>) {
        let path = path.into();
        let mut cur = CategoryPath::top();
        for seg in path.segments() {
            let kids = self.children.entry(cur.clone()).or_default();
            if !kids.iter().any(|k| k == seg) {
                kids.push(seg.clone());
                kids.sort();
            }
            cur = cur.child(seg.clone());
            self.children.entry(cur.clone()).or_default();
        }
    }

    /// Bulk [`Hierarchy::add`]; returns `self` for chaining.
    pub fn with(mut self, paths: impl IntoIterator<Item = &'static str>) -> Self {
        for p in paths {
            self.add(p);
        }
        self
    }

    /// True if the path names a known category (the root always exists).
    pub fn contains(&self, path: &CategoryPath) -> bool {
        path.is_top() || self.children.contains_key(path)
    }

    /// Leaf names of the immediate subcategories of `path` — the category
    /// server query of §3.2 ("What are the immediate subcategories of
    /// Furniture?").
    pub(crate) fn subcategories(&self, path: &CategoryPath) -> &[Name] {
        self.children
            .get(path)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Full paths of the immediate subcategories of `path`.
    pub fn subcategory_paths(&self, path: &CategoryPath) -> Vec<CategoryPath> {
        self.subcategories(path)
            .iter()
            .map(|s| path.child(s.clone()))
            .collect()
    }

    /// Leaf categories (no children).
    pub fn leaves(&self) -> Vec<CategoryPath> {
        self.children
            .iter()
            .filter(|(_, kids)| kids.is_empty())
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Number of categories (excluding the root).
    pub fn len(&self) -> usize {
        self.children.len() - 1
    }

    /// True if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rewrites `path` to its nearest known ancestor (possibly the root):
    /// the approximation rule of §3.5. Returns the path unchanged when it
    /// is already known.
    pub fn generalize_to_known(&self, path: &CategoryPath) -> CategoryPath {
        let mut p = path.clone();
        while !self.contains(&p) {
            match p.parent() {
                Some(parent) => p = parent,
                None => return CategoryPath::top(),
            }
        }
        p
    }
}

/// An ordered set of dimensions: the multi-hierarchic namespace of §3.1.
/// Cell and area coordinates are aligned with this dimension order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Namespace {
    dimensions: Vec<Hierarchy>,
}

impl Namespace {
    /// Creates a namespace from dimensions; order is significant.
    pub fn new(dimensions: impl IntoIterator<Item = Hierarchy>) -> Self {
        Namespace {
            dimensions: dimensions.into_iter().collect(),
        }
    }

    /// The dimensions in coordinate order.
    pub fn dimensions(&self) -> &[Hierarchy] {
        &self.dimensions
    }

    /// Number of dimensions.
    pub(crate) fn arity(&self) -> usize {
        self.dimensions.len()
    }

    /// Looks a dimension up by name.
    pub fn dimension(&self, name: &str) -> Option<&Hierarchy> {
        self.dimensions.iter().find(|d| d.name() == name)
    }

    /// Validates that every coordinate of `cell` names a known category.
    pub(crate) fn validates_cell(&self, cell: &crate::area::Cell) -> bool {
        cell.coords().len() == self.arity()
            && cell
                .coords()
                .iter()
                .zip(&self.dimensions)
                .all(|(c, d)| d.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn location() -> Hierarchy {
        Hierarchy::new("Location").with([
            "USA/OR/Portland",
            "USA/OR/Eugene",
            "USA/WA/Seattle",
            "USA/WA/Vancouver",
            "France",
        ])
    }

    #[test]
    fn path_parse_and_display() {
        let p: CategoryPath = "USA/OR/Portland".into();
        assert_eq!(p.depth(), 3);
        assert_eq!(p.to_string(), "USA/OR/Portland");
        assert_eq!(CategoryPath::top().to_string(), "*");
        let t: CategoryPath = "*".into();
        assert!(t.is_top());
    }

    #[test]
    fn covers_is_prefix_relation() {
        let usa: CategoryPath = "USA".into();
        let or: CategoryPath = "USA/OR".into();
        let pdx: CategoryPath = "USA/OR/Portland".into();
        let fr: CategoryPath = "France".into();
        assert!(CategoryPath::top().covers(&pdx));
        assert!(usa.covers(&pdx));
        assert!(or.covers(&pdx));
        assert!(pdx.covers(&pdx));
        assert!(!pdx.covers(&or));
        assert!(!usa.covers(&fr));
        assert!(!fr.covers(&usa));
    }

    #[test]
    fn intersect_picks_more_specific() {
        let usa: CategoryPath = "USA".into();
        let pdx: CategoryPath = "USA/OR/Portland".into();
        let fr: CategoryPath = "France".into();
        assert_eq!(usa.intersect(&pdx), Some(pdx.clone()));
        assert_eq!(pdx.intersect(&usa), Some(pdx.clone()));
        assert_eq!(usa.intersect(&fr), None);
    }

    #[test]
    fn generalize_drops_levels() {
        let pdx: CategoryPath = "USA/OR/Portland".into();
        assert_eq!(pdx.generalize(1).to_string(), "USA/OR");
        assert_eq!(pdx.generalize(9), CategoryPath::top());
    }

    #[test]
    fn hierarchy_add_creates_ancestors() {
        let h = location();
        assert!(h.contains(&"USA".into()));
        assert!(h.contains(&"USA/OR".into()));
        assert!(h.contains(&"USA/OR/Portland".into()));
        assert!(!h.contains(&"USA/CA".into()));
        // USA, USA/OR, Portland, Eugene, USA/WA, Seattle, Vancouver, France
        assert_eq!(h.len(), 8);
    }

    #[test]
    fn subcategories_sorted() {
        let h = location();
        assert_eq!(h.subcategories(&"USA/OR".into()), ["Eugene", "Portland"]);
        assert_eq!(h.subcategories(&CategoryPath::top()), ["France", "USA"]);
        assert!(h.subcategories(&"France".into()).is_empty());
    }

    #[test]
    fn leaves_have_no_children() {
        let h = location();
        let leaves = h.leaves();
        assert!(leaves.contains(&"USA/OR/Portland".into()));
        assert!(leaves.contains(&"France".into()));
        assert!(!leaves.contains(&"USA".into()));
    }

    #[test]
    fn generalize_to_known_walks_up() {
        let h = location();
        let unknown: CategoryPath = "USA/OR/Portland/Hawthorne".into();
        assert_eq!(
            h.generalize_to_known(&unknown).to_string(),
            "USA/OR/Portland"
        );
        let alien: CategoryPath = "Atlantis/Deep".into();
        assert!(h.generalize_to_known(&alien).is_top());
    }

    #[test]
    fn add_is_idempotent() {
        let mut h = location();
        let before = h.clone();
        h.add("USA/OR/Portland");
        assert_eq!(h, before);
    }

    #[test]
    fn namespace_lookup() {
        let ns = Namespace::new([
            location(),
            Hierarchy::new("Merchandise").with(["Furniture/Chairs"]),
        ]);
        assert_eq!(ns.arity(), 2);
        assert_eq!(ns.dimensions()[1].name(), "Merchandise");
        assert!(ns.dimension("Absent").is_none());
        assert!(ns
            .dimension("Location")
            .unwrap()
            .contains(&"USA/OR/Portland".into()));
    }
}
