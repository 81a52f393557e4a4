//! The world the crate's unit tests share: a two-dimension namespace
//! and four peers — a client, a meta-index, and two CD sellers.

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_catalog::durable::{DurableCatalog, MemDisk, SharedDisk};
use mqp_catalog::CatalogEntry;
use mqp_core::QueryOutcome;
use mqp_namespace::{Hierarchy, InterestArea, Namespace, Urn};
use mqp_xml::parse;

use crate::peer::Peer;

pub(crate) fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland", "USA/WA/Seattle"]),
        Hierarchy::new("Merchandise").with(["Music/CDs", "Furniture/Chairs"]),
    ])
}

pub(crate) fn pdx_cds() -> InterestArea {
    InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]])
}

/// client (node 0) routing to meta (node 1), which indexes seller-1
/// (node 2: A at 8, B at 12) and seller-2 (node 3: C at 9).
pub(crate) fn world() -> Vec<Peer> {
    let client = Peer::new("client", ns()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns());
    let mut s1 = Peer::new("seller-1", ns());
    s1.add_collection(
        "cds",
        pdx_cds(),
        [
            parse("<item><title>A</title><price>8</price></item>").unwrap(),
            parse("<item><title>B</title><price>12</price></item>").unwrap(),
        ],
    );
    let mut s2 = Peer::new("seller-2", ns());
    s2.add_collection(
        "cds",
        pdx_cds(),
        [parse("<item><title>C</title><price>9</price></item>").unwrap()],
    );
    meta.catalog_mut().register(s1.base_entry());
    meta.catalog_mut().register(s2.base_entry());
    vec![client, meta, s1, s2]
}

/// [`world`] with a *durable* seller-1 that also knows the meta-index,
/// so a restarted seller has someone to re-announce to.
pub(crate) fn durable_world() -> Vec<Peer> {
    let mut peers = world();
    peers[2]
        .catalog_mut()
        .register(CatalogEntry::index("meta", pdx_cds()));
    peers[2].enable_durability(DurableCatalog::new(SharedDisk::new(MemDisk::new())));
    peers
}

/// CDs in Portland under 10: A and C in [`world`].
pub(crate) fn cheap_cds() -> Plan {
    Plan::select("price < 10", Plan::Urn(UrnRef::new(Urn::area(pdx_cds()))))
}

pub(crate) fn titles(q: &QueryOutcome) -> Vec<String> {
    let mut t: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
    t.sort();
    t
}
