//! The XML tree model: [`Element`] and [`Node`].
//!
//! The model is deliberately small: elements with ordered attributes and
//! mixed children (elements and text). It has no comments, processing
//! instructions or prolog — mutant query plans never carry them, the
//! reader rejects them, and their absence keeps structural equality
//! meaningful for plan reduction.

use std::borrow::Cow;
use std::fmt;

use crate::intern::Name;

/// A child of an [`Element`]: either a nested element or a text run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// A run of character data (already entity-decoded).
    Text(String),
}

impl Node {
    /// Returns the contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// Returns the contained text, if this node is a text run.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Element(_) => None,
            Node::Text(t) => Some(t),
        }
    }
}

impl From<Element> for Node {
    fn from(e: Element) -> Self {
        Node::Element(e)
    }
}

impl From<String> for Node {
    fn from(t: String) -> Self {
        Node::Text(t)
    }
}

impl From<&str> for Node {
    fn from(t: &str) -> Self {
        Node::Text(t.to_owned())
    }
}

/// An XML element: a name, ordered `(name, value)` attributes, and
/// ordered mixed children.
///
/// Element and attribute names are interned [`Name`]s — deduplicated
/// `Arc<str>`s — so a parsed document allocates per *distinct* name,
/// not per node, and cloning a subtree copies no name bytes.
///
/// Attribute order is preserved so serialization is deterministic; lookup
/// is linear, which is faster than hashing for the handful of attributes
/// plan nodes carry.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Element {
    name: Name,
    attributes: Vec<(Name, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<Name>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The tag name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tag name as its interned handle (cheap to clone and compare).
    pub fn interned_name(&self) -> &Name {
        &self.name
    }

    // ------------------------------------------------------------------
    // Builder-style construction
    // ------------------------------------------------------------------

    /// Adds (or replaces) an attribute; returns `self` for chaining.
    pub fn attr(mut self, name: impl Into<Name>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Appends a child node; returns `self` for chaining.
    pub fn child(mut self, node: impl Into<Node>) -> Self {
        self.children.push(node.into());
        self
    }

    /// Appends a text child; returns `self` for chaining. An empty
    /// string appends nothing: XML has no empty text node, and an
    /// element holding one would serialize as `<a></a>`, which the
    /// canonical wire grammar does not accept.
    pub fn text(self, text: impl Into<String>) -> Self {
        let text = text.into();
        if text.is_empty() {
            return self;
        }
        self.child(Node::Text(text))
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Sets an attribute, replacing an existing one of the same name.
    pub fn set_attr(&mut self, name: impl Into<Name>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Removes an attribute, returning its value if present.
    pub fn remove_attr(&mut self, name: &str) -> Option<String> {
        let idx = self.attributes.iter().position(|(n, _)| n == name)?;
        Some(self.attributes.remove(idx).1)
    }

    /// Appends a child node.
    pub fn push_child(&mut self, node: impl Into<Node>) {
        self.children.push(node.into());
    }

    /// Replaces the children wholesale.
    pub fn set_children(&mut self, children: Vec<Node>) {
        self.children = children;
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Attribute value by name.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> &[(Name, String)] {
        &self.attributes
    }

    /// All children in document order.
    pub fn children(&self) -> &[Node] {
        &self.children
    }

    /// Mutable access to children.
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        &mut self.children
    }

    /// Iterator over element children only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First element child with the given tag name.
    pub fn first(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All element children with the given tag name. (Deliberately
    /// does *not* intern `name`: lookups with arbitrary caller strings
    /// must not populate the interner pool.)
    pub fn all(&self, name: &str) -> impl Iterator<Item = &Element> {
        let name = name.to_owned();
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenated text content of this element's *direct* text
    /// children. Borrows when there is at most one text child (the
    /// common case for data fields); allocates only for mixed content.
    pub fn direct_text(&self) -> Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(Node::as_text);
        let Some(first) = texts.next() else {
            return Cow::Borrowed("");
        };
        let Some(second) = texts.next() else {
            return Cow::Borrowed(first);
        };
        let mut out = String::with_capacity(first.len() + second.len());
        out.push_str(first);
        out.push_str(second);
        for t in texts {
            out.push_str(t);
        }
        Cow::Owned(out)
    }

    /// Concatenated text content of the whole subtree (like XPath
    /// `string()`). Borrows along single-child chains — `<price>9.50
    /// </price>` costs nothing — and allocates only for genuinely mixed
    /// subtrees.
    pub fn deep_text(&self) -> Cow<'_, str> {
        match self.children.as_slice() {
            [] => Cow::Borrowed(""),
            [Node::Text(t)] => Cow::Borrowed(t),
            [Node::Element(e)] => e.deep_text(),
            _ => {
                let mut out = String::new();
                self.collect_text(&mut out);
                Cow::Owned(out)
            }
        }
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c {
                Node::Text(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
            }
        }
    }

    /// Text content of the first child element with the given name,
    /// trimmed. The most common accessor when reading data bundles such as
    /// `<item><price>9.50</price>…</item>`.
    pub fn field(&self, name: &str) -> Option<String> {
        self.first(name).map(|e| e.deep_text().trim().to_owned())
    }

    /// Parses [`Element::field`] as `f64`.
    pub fn field_f64(&self, name: &str) -> Option<f64> {
        self.field(name)?.parse().ok()
    }

    /// Number of nodes in the subtree (elements + text runs), a cheap
    /// proxy for plan size used by tests and heuristics.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                Node::Element(e) => e.subtree_size(),
                Node::Text(_) => 1,
            })
            .sum::<usize>()
    }

    /// Exact length in bytes of [`crate::serialize()`]'s output for this
    /// element, computed without allocating the string. The network
    /// simulator charges message sizes with this.
    pub fn serialized_len(&self) -> usize {
        // "<" name attrs ">" children "</" name ">"  (or "<" name attrs "/>")
        let attrs: usize = self
            .attributes
            .iter()
            .map(|(n, v)| 1 + n.len() + 2 + escaped_len(v, true) + 1)
            .sum();
        if self.children.is_empty() {
            1 + self.name.len() + attrs + 2
        } else {
            let kids: usize = self
                .children
                .iter()
                .map(|c| match c {
                    Node::Element(e) => e.serialized_len(),
                    Node::Text(t) => escaped_len(t, false),
                })
                .sum();
            (1 + self.name.len() + attrs + 1) + kids + (2 + self.name.len() + 1)
        }
    }
}

/// Length of `s` after XML escaping. `in_attr` additionally escapes
/// quotes, matching the serializer exactly.
pub(crate) fn escaped_len(s: &str, in_attr: bool) -> usize {
    s.chars()
        .map(|c| match c {
            '&' => 5,             // &amp;
            '<' => 4,             // &lt;
            '>' => 4,             // &gt;
            '"' if in_attr => 6,  // &quot;
            '\'' if in_attr => 6, // &apos;
            c => c.len_utf8(),
        })
        .sum()
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::serialize(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("item")
            .attr("id", "245")
            .child(Element::new("name").text("golf clubs"))
            .child(Element::new("price").text("99.95"))
    }

    #[test]
    fn builder_and_access() {
        let e = sample();
        assert_eq!(e.name(), "item");
        assert_eq!(e.get_attr("id"), Some("245"));
        assert_eq!(e.field("name").as_deref(), Some("golf clubs"));
        assert_eq!(e.field_f64("price"), Some(99.95));
        assert!(e.first("missing").is_none());
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("a").attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.get_attr("k"), Some("2"));
        assert_eq!(e.attrs().len(), 1);
    }

    #[test]
    fn remove_attr_returns_value() {
        let mut e = Element::new("a").attr("k", "1");
        assert_eq!(e.remove_attr("k"), Some("1".into()));
        assert_eq!(e.remove_attr("k"), None);
    }

    #[test]
    fn direct_vs_deep_text() {
        let e = Element::new("a")
            .text("x")
            .child(Element::new("b").text("y"))
            .text("z");
        assert_eq!(e.direct_text(), "xz");
        assert_eq!(e.deep_text(), "xyz");
    }

    #[test]
    fn subtree_size_counts_all_nodes() {
        assert_eq!(sample().subtree_size(), 5); // item, name, text, price, text
    }

    #[test]
    fn serialized_len_matches_serializer() {
        let e = sample();
        assert_eq!(e.serialized_len(), crate::serialize(&e).len());
        let tricky = Element::new("t").attr("q", "a\"b'c<d>e&f").text("x<y>&z");
        assert_eq!(tricky.serialized_len(), crate::serialize(&tricky).len());
        let empty = Element::new("e").attr("a", "1");
        assert_eq!(empty.serialized_len(), crate::serialize(&empty).len());
    }

    #[test]
    fn all_filters_by_name() {
        let e = Element::new("r")
            .child(Element::new("x"))
            .child(Element::new("y"))
            .child(Element::new("x"));
        assert_eq!(e.all("x").count(), 2);
    }
}
