//! "Of Mice and Men" (paper Figure 1): gene-expression repositories
//! described by Organism × CellType interest areas.

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_catalog::CatalogEntry;
use mqp_namespace::{Cell, Hierarchy, InterestArea, Namespace, Urn};
use mqp_net::Topology;
use mqp_peer::{Peer, SimHarness};
use mqp_xml::Element;

/// The organism hierarchy of Figure 1 (Coelomata down to species).
pub(crate) fn organism_hierarchy() -> Hierarchy {
    Hierarchy::new("Organism").with([
        "Coelomata/Protostomia/DrosophilaMelanogaster",
        "Coelomata/Deuterostomia/Mammalia/Eutheria/Primates/HomoSapiens",
        "Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia/Murinae/MusMusculus",
        "Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia/Murinae/RattusNorvegicus",
    ])
}

/// The cell-type hierarchy of Figure 1.
pub(crate) fn cell_type_hierarchy() -> Hierarchy {
    Hierarchy::new("CellType").with([
        "Neural/Neurons/Association",
        "Neural/Neurons/Sensory",
        "Neural/Neurons/Motor",
        "Neural/Glial",
        "Connective/Bone/Osteoblasts",
        "Connective/Bone/Osteoclasts",
        "Connective/Adipose",
        "Muscle/Cardiac/Autorhythmic",
        "Muscle/Cardiac/Contractile",
        "Muscle/Smooth",
        "Muscle/Skeletal",
        "Epithelial/Cilliated",
        "Epithelial/Secretory",
    ])
}

/// The full namespace.
pub fn namespace() -> Namespace {
    Namespace::new([organism_hierarchy(), cell_type_hierarchy()])
}

/// The three research groups of Figure 1, with their interest areas.
pub fn group_areas() -> Vec<(&'static str, InterestArea)> {
    vec![
        // "one for neural cells in fruit flies"
        (
            "fly-lab",
            InterestArea::of(Cell::parse([
                "Coelomata/Protostomia/DrosophilaMelanogaster",
                "Neural",
            ])),
        ),
        // "a second for connective and muscle cell in rodents"
        (
            "rodent-lab",
            InterestArea::new([
                Cell::parse([
                    "Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia",
                    "Connective",
                ]),
                Cell::parse([
                    "Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia",
                    "Muscle",
                ]),
            ]),
        ),
        // "a third with all cell types for humans"
        (
            "human-lab",
            InterestArea::of(Cell::parse([
                "Coelomata/Deuterostomia/Mammalia/Eutheria/Primates/HomoSapiens",
                "*",
            ])),
        ),
    ]
}

/// The figure's query: "a query related to cardiac muscle cells in
/// mammals".
pub fn cardiac_mammal_area() -> InterestArea {
    InterestArea::of(Cell::parse([
        "Coelomata/Deuterostomia/Mammalia",
        "Muscle/Cardiac",
    ]))
}

/// A MIAME-flavoured expression record (the paper cites MIAME
/// [BHQ+01]; we keep the two categorization attributes plus a few
/// measurement fields).
pub(crate) fn expression_record(group: &str, organism: &str, cell_type: &str, i: usize) -> Element {
    Element::new("experiment")
        .child(Element::new("lab").text(group))
        .child(Element::new("organism").text(organism))
        .child(Element::new("cellType").text(cell_type))
        .child(Element::new("gene").text(format!("G{:04}", i * 37 % 9973)))
        .child(Element::new("expression").text(format!("{:.3}", (i as f64 * 0.7).sin().abs())))
}

/// Builds the Figure-1 world: a client, an NIH-style meta-index server
/// covering everything (§6: "Government agencies, such as the NIH,
/// would provide meta-index services"), and the three labs as base
/// servers hosting `records_per_group` records spread over their
/// areas' leaf cells.
pub fn build(records_per_group: usize) -> (SimHarness, usize) {
    let ns = namespace();
    let mut peers = Vec::new();
    peers.push(Peer::new("client", ns.clone()).with_default_route("nih-meta"));
    let mut meta = Peer::new("nih-meta", ns.clone());
    for (name, area) in group_areas() {
        meta.catalog_mut().register(CatalogEntry::base(name, area));
    }
    peers.push(meta);
    for (name, area) in group_areas() {
        let mut lab = Peer::new(name, ns.clone());
        // Spread records over the area's cells, at their most specific
        // known coordinates.
        for (ci, cell) in area.cells().iter().enumerate() {
            let organism = cell.coords()[0].to_string();
            let cell_type = if cell.coords()[1].is_top() {
                "Muscle/Cardiac".to_owned() // humans: include cardiac data
            } else {
                cell.coords()[1].to_string()
            };
            let items: Vec<Element> = (0..records_per_group)
                .map(|i| expression_record(name, &organism, &cell_type, i * (ci + 1)))
                .collect();
            lab.add_collection(&format!("expr-{ci}"), InterestArea::of(cell.clone()), items);
        }
        peers.push(lab);
    }
    let n = peers.len();
    (
        SimHarness::new(
            Topology::clustered(n, 3, 2_000, 60_000).with_bandwidth(50.0),
            peers,
        ),
        0,
    )
}

/// The cardiac-mammal discovery plan.
pub fn cardiac_query() -> Plan {
    Plan::Urn(UrnRef::new(Urn::area(cardiac_mammal_area())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_cover_relationships() {
        let q = cardiac_mammal_area();
        let groups = group_areas();
        let fly = &groups[0].1;
        let rodent = &groups[1].1;
        let human = &groups[2].1;
        // "route the query to the second or third site … but can ignore
        // the first site".
        assert!(!fly.overlaps(&q));
        assert!(rodent.overlaps(&q));
        assert!(human.overlaps(&q));
        // Neither lab *covers* the mammal-wide query on its own.
        assert!(!rodent.covers(&q));
        assert!(!human.covers(&q));
    }

    #[test]
    fn namespace_contains_figure_nodes() {
        let ns = namespace();
        let org = ns.dimension("Organism").unwrap();
        assert!(org.contains(&"Coelomata/Deuterostomia/Mammalia".into()));
        let ct = ns.dimension("CellType").unwrap();
        assert!(ct.contains(&"Muscle/Cardiac/Autorhythmic".into()));
        let deepest = org.leaves().iter().map(|p| p.depth()).max();
        assert_eq!(deepest, Some(7));
    }

    #[test]
    fn cardiac_query_reaches_both_relevant_labs() {
        let (mut h, client) = build(5);
        let qid = h.submit(client, cardiac_query());
        h.run(100_000);
        let done = h.take_completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert_eq!(q.qid, qid);
        assert!(q.failure.is_none(), "{:?}", q.failure);
        // Records from rodent-lab and human-lab; none from fly-lab.
        let labs: std::collections::BTreeSet<String> =
            q.items.iter().filter_map(|i| i.field("lab")).collect();
        assert!(labs.contains("rodent-lab"), "{labs:?}");
        assert!(labs.contains("human-lab"), "{labs:?}");
        assert!(!labs.contains("fly-lab"), "{labs:?}");
    }

    #[test]
    fn records_are_deterministic() {
        assert_eq!(
            expression_record("x", "o", "c", 3),
            expression_record("x", "o", "c", 3)
        );
    }
}
