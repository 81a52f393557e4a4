//! Shared item batches: the currency of clone-free evaluation.
//!
//! A [`Batch`] is an ordered collection of `Arc<Element>` item handles.
//! Everything that moves whole items around — `data` plan leaves, store
//! lookups, operator inputs/outputs — shuffles handles instead of
//! deep-copying trees: cloning a batch or filtering it into another
//! batch bumps reference counts, never item bytes. Items only
//! materialize as fresh trees at the two real boundaries: operators
//! that *construct* new items (project, join, aggregate) and the wire
//! serializer (which reads through the handles without cloning at
//! all).
//!
//! Equality and hashing are by item value (two batches with equal items
//! are equal regardless of sharing), so plans holding batches keep
//! their value semantics.

use std::ops::Index;
use std::sync::Arc;

use crate::node::Element;

/// An ordered, shareable collection of XML items (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Batch {
    items: Vec<Arc<Element>>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// An empty batch with room for `n` handles.
    pub fn with_capacity(n: usize) -> Self {
        Batch {
            items: Vec::with_capacity(n),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the batch holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends an already-shared item handle (reference-count bump).
    pub fn push(&mut self, item: Arc<Element>) {
        self.items.push(item);
    }

    /// Wraps and appends an owned item (the construction boundary:
    /// one `Arc` allocation, no tree copy).
    pub fn push_item(&mut self, item: Element) {
        self.items.push(Arc::new(item));
    }

    /// Iterates the items.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Element> + Clone {
        self.items.iter().map(|a| a.as_ref())
    }

    /// The shared handles themselves.
    pub fn handles(&self) -> &[Arc<Element>] {
        &self.items
    }

    /// Mutable iteration with copy-on-write semantics: a handle shared
    /// with another batch is detached (`Arc::make_mut`) before being
    /// handed out, so mutation never bleeds into other holders.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Element> {
        self.items.iter_mut().map(Arc::make_mut)
    }

    /// Item by position.
    pub fn get(&self, i: usize) -> Option<&Element> {
        self.items.get(i).map(|a| a.as_ref())
    }

    /// First item, if any.
    pub fn first(&self) -> Option<&Element> {
        self.get(0)
    }

    /// Appends every handle of `other` (reference-count bumps only).
    pub fn extend_shared(&mut self, other: &Batch) {
        self.items.extend(other.items.iter().cloned());
    }

    /// Deep-copies the items out into owned trees. This is the
    /// *materializing* escape hatch — only tests (the engine's `legacy`
    /// oracle among them) should need it.
    pub fn to_vec(&self) -> Vec<Element> {
        self.iter().cloned().collect()
    }
}

impl Index<usize> for Batch {
    type Output = Element;

    fn index(&self, i: usize) -> &Element {
        &self.items[i]
    }
}

impl From<Vec<Element>> for Batch {
    fn from(items: Vec<Element>) -> Self {
        items.into_iter().collect()
    }
}

impl From<Vec<Arc<Element>>> for Batch {
    fn from(items: Vec<Arc<Element>>) -> Self {
        Batch { items }
    }
}

impl FromIterator<Element> for Batch {
    fn from_iter<T: IntoIterator<Item = Element>>(iter: T) -> Self {
        Batch {
            items: iter.into_iter().map(Arc::new).collect(),
        }
    }
}

impl FromIterator<Arc<Element>> for Batch {
    fn from_iter<T: IntoIterator<Item = Arc<Element>>>(iter: T) -> Self {
        Batch {
            items: iter.into_iter().collect(),
        }
    }
}

impl Extend<Element> for Batch {
    fn extend<T: IntoIterator<Item = Element>>(&mut self, iter: T) {
        self.items.extend(iter.into_iter().map(Arc::new));
    }
}

impl Extend<Arc<Element>> for Batch {
    fn extend<T: IntoIterator<Item = Arc<Element>>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

impl IntoIterator for Batch {
    type Item = Arc<Element>;
    type IntoIter = std::vec::IntoIter<Arc<Element>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Element;
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, Arc<Element>>, fn(&'a Arc<Element>) -> &'a Element>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().map(|a| a.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(name: &str) -> Element {
        Element::new(name).text("x")
    }

    #[test]
    fn collects_and_indexes() {
        let b: Batch = [item("a"), item("b")].into_iter().collect();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].name(), "a");
        assert_eq!(b.get(1).unwrap().name(), "b");
        assert!(b.get(2).is_none());
        assert_eq!(b.first().unwrap().name(), "a");
    }

    #[test]
    fn clone_shares_storage() {
        let b: Batch = [item("a")].into_iter().collect();
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.handles()[0], &c.handles()[0]));
        assert_eq!(b, c);
    }

    #[test]
    fn equality_is_by_value_not_identity() {
        let b: Batch = [item("a")].into_iter().collect();
        let c: Batch = [item("a")].into_iter().collect();
        assert!(!Arc::ptr_eq(&b.handles()[0], &c.handles()[0]));
        assert_eq!(b, c);
    }

    #[test]
    fn extend_shared_bumps_refcounts() {
        let mut b: Batch = [item("a")].into_iter().collect();
        let other: Batch = [item("b")].into_iter().collect();
        b.extend_shared(&other);
        assert_eq!(b.len(), 2);
        assert!(Arc::ptr_eq(&b.handles()[1], &other.handles()[0]));
    }

    #[test]
    fn to_vec_materializes() {
        let b: Batch = [item("a"), item("b")].into_iter().collect();
        let v = b.to_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].name(), "a");
    }

    #[test]
    fn iterates_by_reference_and_value() {
        let b: Batch = [item("a"), item("b")].into_iter().collect();
        let names: Vec<&str> = b.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["a", "b"]);
        let names2: Vec<&str> = (&b).into_iter().map(|e| e.name()).collect();
        assert_eq!(names2, ["a", "b"]);
        assert_eq!(b.into_iter().count(), 2);
    }
}
