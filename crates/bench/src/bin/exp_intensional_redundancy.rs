//! E7 — §4.1–4.2 (Examples 1–3): intensional statements eliminate
//! redundant server visits. Replicated catalogs with and without the
//! statements; the binding alternatives license single-site routes.

#![forbid(unsafe_code)]

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_bench::{f2, print_table};
use mqp_catalog::ServerId;
use mqp_core::Policy;
use mqp_namespace::{Cell, Hierarchy, InterestArea, Namespace, Urn};
use mqp_net::Topology;
use mqp_peer::{Peer, SimHarness};
use mqp_xml::Element;

fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["Oregon/Portland", "Oregon/Eugene"]),
        Hierarchy::new("Merchandise").with(["SportingGoods/GolfClubs", "Music/CDs"]),
    ])
}

fn pdx_golf() -> InterestArea {
    InterestArea::of(Cell::parse(["Oregon/Portland", "SportingGoods/GolfClubs"]))
}

fn golf_item(i: usize) -> Element {
    Element::new("item")
        .child(Element::new("name").text(format!("putter-{i}")))
        .child(Element::new("price").text(format!("{}", 20 + i)))
}

/// Builds a world with `replicas` servers all holding the same golf
/// data; optionally the meta server knows the pairwise equality
/// statements that make all but one redundant.
fn run(replicas: usize, with_statements: bool) -> (u64, u64, usize) {
    let client = Peer::new("client", ns())
        .with_default_route("meta")
        .with_policy(Policy::fast());
    let mut meta = Peer::new("meta", ns()).with_policy(Policy::fast());
    let mut peers = vec![];
    let items: Vec<Element> = (0..25).map(golf_item).collect();
    for r in 0..replicas {
        let mut p = Peer::new(format!("R{r}"), ns()).with_policy(Policy::fast());
        p.add_collection("golf", pdx_golf(), items.clone());
        meta.catalog_mut().register(p.base_entry());
        peers.push(p);
    }
    if with_statements {
        // One coverage statement: R0 holds exactly what all the other
        // replicas hold (Example 2's union form) — so the binding
        // licenses the single-site alternative {R0}.
        let rhs: Vec<String> = (1..replicas)
            .map(|r| format!("base[Oregon.Portland, SportingGoods]@R{r}"))
            .collect();
        meta.catalog_mut().add_statement(
            format!(
                "base[Oregon.Portland, SportingGoods]@R0 = {}",
                rhs.join(" U ")
            )
            .parse()
            .unwrap(),
        );
    }
    let mut all = vec![client, meta];
    all.extend(peers);
    let n = all.len();
    let mut h = SimHarness::new(Topology::uniform(n, 15_000), all);
    h.submit(0, Plan::Urn(UrnRef::new(Urn::area(pdx_golf()))));
    h.run(1_000_000);
    let q = h.take_completed().pop().unwrap();
    assert!(q.failure.is_none(), "{:?}", q.failure);
    // Distinct putters (the answer is complete either way — replicas
    // hold identical data, so dedup by name).
    let mut names: Vec<String> = q.items.iter().filter_map(|i| i.field("name")).collect();
    names.sort();
    names.dedup();
    (q.hops, q.mqp_bytes, names.len())
}

fn main() {
    let mut rows = Vec::new();
    for &replicas in &[2usize, 4, 8] {
        let (h0, b0, n0) = run(replicas, false);
        let (h1, b1, n1) = run(replicas, true);
        assert_eq!(n0, n1, "statements must not lose answers");
        rows.push(vec![
            replicas.to_string(),
            h0.to_string(),
            h1.to_string(),
            (b0 / 1024).to_string(),
            (b1 / 1024).to_string(),
            f2(b0 as f64 / b1 as f64),
            n1.to_string(),
        ]);
    }
    print_table(
        "intensional statements vs redundant replica visits (Example 1)",
        &[
            "replicas",
            "hops w/o",
            "hops with",
            "KiB w/o",
            "KiB with",
            "saving x",
            "distinct answers",
        ],
        &rows,
    );

    // Example 3's delayed-replica binding, shown directly.
    let mut catalog = mqp_catalog::Catalog::new();
    catalog.register(mqp_catalog::CatalogEntry::base(
        "R",
        InterestArea::parse(&[&["Portland", "*"]]),
    ));
    catalog.register(mqp_catalog::CatalogEntry::base(
        "S",
        InterestArea::parse(&[&["Portland", "*"]]),
    ));
    catalog.add_statement(
        "base[Portland, *]@R >= base[Portland, *]@S{30}"
            .parse()
            .unwrap(),
    );
    let binding = catalog.bind_area(&InterestArea::parse(&[&["Portland", "CDs"]]));
    println!("\nExample 3 binding for [Portland, CDs]:");
    for (i, alt) in binding.alternatives.iter().enumerate() {
        let servers: Vec<&str> = alt.servers.iter().map(|(s, _)| s.as_str()).collect();
        println!(
            "  alt {i}: {{{}}} staleness<={} min  ({})",
            servers.join(" U "),
            alt.staleness,
            alt.note
        );
    }
    let fast = binding.choose(mqp_catalog::Preference::Fast).unwrap();
    let current = binding.choose(mqp_catalog::Preference::Current).unwrap();
    assert_eq!(fast.alternative.servers[0].0, ServerId::new("R"));
    assert_eq!(current.alternative.servers.len(), 2);
    println!(
        "\nfast preference -> R alone (<=30 min stale); current preference \
         -> R U S (current): exactly the paper's binding\n  \
         base[Portland, CDs]@R{{30}} | (base[Portland, CDs]@R U \
         base[Portland, CDs]@S){{0}}"
    );
}
