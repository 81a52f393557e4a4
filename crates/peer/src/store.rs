//! The local data store: named collections of XML items, each placed in
//! an interest area.

use std::collections::BTreeMap;

use mqp_namespace::InterestArea;
use mqp_xml::xpath::Path;
use mqp_xml::{Batch, Element};

/// One named collection — the paper's unit of publication: an index
/// entry references it as `(http://host, /data[@id='NAME'])` (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    /// Collection identifier (the `@id` in the XPath reference).
    pub name: String,
    /// The interest area the collection's items fall in.
    pub area: InterestArea,
    /// The items, as a shared batch: lookups lend handles out of this
    /// batch instead of cloning the collection.
    pub items: Batch,
}

/// A stored collection and its serialized size, kept current by every
/// mutation so statistics never re-measure the items.
#[derive(Debug, Clone)]
struct Stored {
    collection: Collection,
    /// Σ `serialized_len` over `collection.items`.
    bytes: usize,
}

impl Stored {
    fn stats(&self) -> (usize, usize) {
        (self.collection.items.len(), self.bytes)
    }
}

/// A peer's local collections.
#[derive(Debug, Clone, Default)]
pub struct LocalStore {
    collections: BTreeMap<String, Stored>,
}

impl LocalStore {
    /// Empty store.
    pub fn new() -> Self {
        LocalStore::default()
    }

    /// Adds (or replaces) a collection.
    pub fn put(&mut self, collection: Collection) {
        let bytes = measure(&collection.items).1;
        self.collections
            .insert(collection.name.clone(), Stored { collection, bytes });
    }

    /// Appends items to an existing collection (creating it with the
    /// given area if absent).
    pub fn extend(
        &mut self,
        name: &str,
        area: &InterestArea,
        items: impl IntoIterator<Item = Element>,
    ) {
        let s = self
            .collections
            .entry(name.to_owned())
            .or_insert_with(|| Stored {
                collection: Collection {
                    name: name.to_owned(),
                    area: area.clone(),
                    items: Batch::new(),
                },
                bytes: 0,
            });
        let c = &mut s.collection;
        c.area = c.area.union(area);
        let bytes = &mut s.bytes;
        c.items
            .extend(items.into_iter().inspect(|i| *bytes += i.serialized_len()));
    }

    /// A collection by name.
    pub fn get(&self, name: &str) -> Option<&Collection> {
        self.collections.get(name).map(|s| &s.collection)
    }

    /// All collections, in name order.
    fn collections(&self) -> impl Iterator<Item = &Collection> {
        self.collections.values().map(|s| &s.collection)
    }

    /// Total number of items across collections.
    pub fn len(&self) -> usize {
        self.collections().map(|c| c.items.len()).sum()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Union of all collection areas: the peer's *base interest area*.
    pub fn area(&self) -> InterestArea {
        self.collections()
            .fold(InterestArea::empty(), |acc, c| acc.union(&c.area))
    }

    /// Items behind a URL collection reference: `None` path = all items;
    /// `/data[@id='NAME']` = that collection; any other XPath selects
    /// from the synthetic `<data>` document containing every collection
    /// item.
    ///
    /// The store *lends*: the returned batch shares the collections'
    /// item handles (reference-count bumps). Only the general-XPath
    /// arm, which selects arbitrary *sub*-elements, materializes — a
    /// sub-element has no handle of its own.
    pub(crate) fn items_for(&self, collection: Option<&Path>) -> Option<Batch> {
        match collection {
            None => {
                let mut out = Batch::with_capacity(self.len());
                for c in self.collections() {
                    out.extend_shared(&c.items);
                }
                Some(out)
            }
            Some(path) => {
                // Fast path: /data[@id='NAME'] — lends the whole
                // collection.
                if let Some(name) = collection_id(path) {
                    return self.get(&name).map(|c| c.items.clone());
                }
                // General: evaluate against <data><collection …>items…</…></data>.
                let mut doc = Element::new("data");
                for c in self.collections() {
                    for i in c.items.iter() {
                        doc.push_child(mqp_xml::Node::Element(i.clone()));
                    }
                }
                let sel: Batch = path.select_elements(&doc).into_iter().cloned().collect();
                Some(sel)
            }
        }
    }

    /// Items whose collection area overlaps `area` (lent handles).
    pub(crate) fn items_overlapping(&self, area: &InterestArea) -> Batch {
        let mut out = Batch::new();
        for c in self.collections() {
            if c.area.overlaps(area) {
                out.extend_shared(&c.items);
            }
        }
        out
    }

    /// `(rows, serialized bytes)` of what [`LocalStore::items_for`]
    /// would lend, read from the kept statistics; only a general XPath
    /// still selects, then measures.
    pub(crate) fn stats_for(&self, collection: Option<&Path>) -> Option<(usize, usize)> {
        match collection {
            None => Some(sum(self.collections.values().map(Stored::stats))),
            Some(path) => match collection_id(path) {
                Some(name) => self.collections.get(&name).map(Stored::stats),
                None => self.items_for(collection).map(|b| measure(&b)),
            },
        }
    }

    /// `(rows, serialized bytes)` of what
    /// [`LocalStore::items_overlapping`] would lend.
    pub(crate) fn stats_overlapping(&self, area: &InterestArea) -> (usize, usize) {
        sum(self
            .collections
            .values()
            .filter(|s| s.collection.area.overlaps(area))
            .map(Stored::stats))
    }
}

/// `(rows, serialized bytes)` of a batch, measured item by item.
fn measure(items: &Batch) -> (usize, usize) {
    (items.len(), items.iter().map(Element::serialized_len).sum())
}

fn sum(stats: impl Iterator<Item = (usize, usize)>) -> (usize, usize) {
    stats.fold((0, 0), |(r, b), (rows, bytes)| (r + rows, b + bytes))
}

/// Extracts `NAME` from the canonical `/data[@id='NAME']` reference.
fn collection_id(path: &Path) -> Option<String> {
    if !path.absolute || path.steps.len() != 1 {
        return None;
    }
    let step = &path.steps[0];
    if !matches!(&step.test, mqp_xml::xpath::NodeTest::Name(n) if n.as_str() == "data") {
        return None;
    }
    match step.predicates.as_slice() {
        [mqp_xml::xpath::Predicate::Attr(a, mqp_xml::xpath::Op::Eq, v)] if a.as_str() == "id" => {
            Some(v.clone())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_xml::parse;

    fn store() -> LocalStore {
        let mut s = LocalStore::new();
        s.put(Collection {
            name: "cds".to_owned(),
            area: InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]]),
            items: vec![
                parse("<item><title>A</title><price>8</price></item>").unwrap(),
                parse("<item><title>B</title><price>12</price></item>").unwrap(),
            ]
            .into(),
        });
        s.put(Collection {
            name: "chairs".to_owned(),
            area: InterestArea::parse(&[&["USA/OR/Portland", "Furniture/Chairs"]]),
            items: vec![parse("<item><title>armchair</title></item>").unwrap()].into(),
        });
        s
    }

    #[test]
    fn default_collection_is_everything() {
        let s = store();
        assert_eq!(s.items_for(None).unwrap().len(), 3);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn named_collection_reference() {
        let s = store();
        let p = Path::parse("/data[@id='cds']").unwrap();
        assert_eq!(s.items_for(Some(&p)).unwrap().len(), 2);
        let missing = Path::parse("/data[@id='nope']").unwrap();
        assert!(s.items_for(Some(&missing)).is_none());
    }

    #[test]
    fn general_xpath_reference() {
        let s = store();
        let p = Path::parse("item[price < 10]").unwrap();
        assert_eq!(s.items_for(Some(&p)).unwrap().len(), 1);
    }

    #[test]
    fn area_is_union() {
        let s = store();
        let a = s.area();
        assert!(a.overlaps(&InterestArea::parse(&[&["USA/OR/Portland", "Music"]])));
        assert!(a.overlaps(&InterestArea::parse(&[&["USA/OR/Portland", "Furniture"]])));
        assert!(!a.overlaps(&InterestArea::parse(&[&["France", "*"]])));
    }

    #[test]
    fn items_overlapping_filters_by_area() {
        let s = store();
        let music = InterestArea::parse(&[&["USA/OR", "Music"]]);
        assert_eq!(s.items_overlapping(&music).len(), 2);
        let everything = InterestArea::parse(&[&["USA", "*"]]);
        assert_eq!(s.items_overlapping(&everything).len(), 3);
    }

    #[test]
    fn extend_unions_area() {
        let mut s = store();
        let more = InterestArea::parse(&[&["USA/OR/Eugene", "Music/CDs"]]);
        s.extend(
            "cds",
            &more,
            [parse("<item><title>C</title></item>").unwrap()],
        );
        assert_eq!(s.get("cds").unwrap().items.len(), 3);
        assert!(s.get("cds").unwrap().area.overlaps(&more));
    }

    /// Every statistics query equals measuring the batch its lending
    /// twin returns.
    fn assert_stats_agree(s: &LocalStore) {
        let paths = [
            None,
            Some("/data[@id='cds']"),
            Some("/data[@id='chairs']"),
            Some("/data[@id='nope']"),
            Some("item[price < 10]"),
        ];
        for p in paths {
            let path = p.map(|p| Path::parse(p).unwrap());
            let lent = s.items_for(path.as_ref()).map(|b| measure(&b));
            assert_eq!(s.stats_for(path.as_ref()), lent, "{p:?}");
        }
        for area in [
            InterestArea::parse(&[&["USA/OR", "Music"]]),
            InterestArea::parse(&[&["USA", "*"]]),
            InterestArea::parse(&[&["France", "*"]]),
        ] {
            let lent = measure(&s.items_overlapping(&area));
            assert_eq!(s.stats_overlapping(&area), lent, "{area}");
        }
    }

    #[test]
    fn stats_agree_with_lending() {
        let mut s = store();
        assert_stats_agree(&s);
        assert_eq!(s.stats_for(None).unwrap().0, 3);

        // A collection grown by `extend`, and one created by it.
        s.extend(
            "cds",
            &InterestArea::parse(&[&["USA/OR/Eugene", "Music/CDs"]]),
            [parse("<item><title>C</title><price>3</price></item>").unwrap()],
        );
        s.extend(
            "lamps",
            &InterestArea::parse(&[&["USA/OR/Portland", "Furniture/Lamps"]]),
            [parse("<item><title>desk lamp</title></item>").unwrap()],
        );
        assert_stats_agree(&s);
        assert_eq!(s.stats_for(None).unwrap().0, 5);

        // A collection replaced by `put`: its old size is forgotten.
        s.put(Collection {
            name: "cds".to_owned(),
            area: InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]]),
            items: vec![parse("<item><title>Z</title><price>1</price></item>").unwrap()].into(),
        });
        assert_stats_agree(&s);
        let z = "<item><title>Z</title><price>1</price></item>".len();
        let cds = Path::parse("/data[@id='cds']").unwrap();
        assert_eq!(s.stats_for(Some(&cds)), Some((1, z)));
    }
}
