//! The P2P garage sale (paper §2): sellers, consignment shops, index
//! and meta-index servers over a Location × Merchandise namespace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_catalog::CatalogEntry;
use mqp_namespace::{Cell, Hierarchy, InterestArea, Namespace, Urn};
use mqp_net::Topology;
use mqp_peer::{Peer, SimHarness};
use mqp_xml::Element;

/// City coordinates in the location hierarchy (Figure 5's world plus a
/// little more of it).
pub const CITIES: [&str; 8] = [
    "USA/OR/Portland",
    "USA/OR/Eugene",
    "USA/WA/Seattle",
    "USA/WA/Vancouver",
    "USA/CA/SanFrancisco",
    "USA/CA/LosAngeles",
    "France/IDF/Paris",
    "France/PACA/Marseille",
];

/// Leaf merchandise categories (eBay-style, §3.1).
pub const CATEGORIES: [&str; 8] = [
    "Furniture/Chairs",
    "Furniture/Tables",
    "Electronics/TV",
    "Electronics/VCR",
    "Music/CDs",
    "Music/Vinyl",
    "SportingGoods/GolfClubs",
    "Books/Paperbacks",
];

/// The garage-sale namespace: Location (country/state/city) ×
/// Merchandise (department/category).
pub fn namespace() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(CITIES),
        Hierarchy::new("Merchandise").with(CATEGORIES),
    ])
}

/// World-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct GarageConfig {
    /// Number of seller (base) peers.
    pub sellers: usize,
    /// Items per seller.
    pub items_per_seller: usize,
    /// Number of city-level index servers (authoritative for
    /// `[city, *]`).
    pub index_servers: usize,
    /// Number of top-level meta-index servers (cover `[country, *]`).
    pub meta_servers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GarageConfig {
    fn default() -> Self {
        GarageConfig {
            sellers: 20,
            items_per_seller: 10,
            index_servers: 4,
            meta_servers: 2,
            seed: 42,
        }
    }
}

/// A generated world plus the metadata experiments need.
pub struct GarageWorld {
    /// The harness: node 0 is the client, then meta servers, then index
    /// servers, then sellers.
    pub harness: SimHarness,
    /// Node id of the client peer.
    pub client: usize,
    /// Seller areas by node id (ground truth for recall).
    pub(crate) seller_areas: Vec<(usize, InterestArea)>,
}

/// Builds a garage-sale world. Sellers specialize: each picks a home
/// city and one or two merchandise categories ("data are stored, grouped,
/// replicated and queried according to … categorization hierarchies that
/// are natural for the application", §3.1). City-level index servers are
/// authoritative for `[city, *]`; meta-index servers cover `[country,*]`
/// and know every index server; the client knows one meta server.
pub fn build(config: GarageConfig) -> GarageWorld {
    let ns = namespace();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_peers = 1 + config.meta_servers + config.index_servers + config.sellers;
    let mut peers: Vec<Peer> = Vec::with_capacity(n_peers);

    // Client.
    peers.push(Peer::new("client", ns.clone()).with_default_route("meta-0"));

    // Meta-index servers: country-level coverage, authoritative.
    for m in 0..config.meta_servers {
        let country = if m % 2 == 0 { "USA" } else { "France" };
        let mut p = Peer::new(format!("meta-{m}"), ns.clone());
        // Meta servers know each other so cross-country queries route.
        for other in 0..config.meta_servers {
            if other != m {
                let oc = if other % 2 == 0 { "USA" } else { "France" };
                p.catalog_mut().register(
                    CatalogEntry::meta_index(
                        format!("meta-{other}"),
                        InterestArea::parse(&[&[oc, "*"]]),
                    )
                    .authoritative(),
                );
            }
        }
        let _ = country;
        peers.push(p);
    }

    // Index servers: authoritative for one city each (round-robin).
    for i in 0..config.index_servers {
        let city = CITIES[i % CITIES.len()];
        let p = Peer::new(format!("index-{i}"), ns.clone());
        peers.push(p);
        // Every meta server covering the city's country learns about
        // this index server.
        let country = city.split('/').next().unwrap();
        for m in 0..config.meta_servers {
            let mc = if m % 2 == 0 { "USA" } else { "France" };
            if mc == country {
                peers[1 + m].catalog_mut().register(
                    CatalogEntry::index(format!("index-{i}"), InterestArea::parse(&[&[city, "*"]]))
                        .authoritative(),
                );
            }
        }
    }

    // Sellers.
    let mut seller_areas = Vec::new();
    for s in 0..config.sellers {
        let city = CITIES[rng.gen_range(0..CITIES.len())];
        let n_cats = 1 + rng.gen_range(0..2usize);
        let id = format!("seller-{s}");
        let mut p = Peer::new(id.clone(), ns.clone());
        let mut area = InterestArea::empty();
        for c in 0..n_cats {
            let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
            let cell_area = InterestArea::of(Cell::parse([city, cat]));
            let items: Vec<Element> = (0..config.items_per_seller)
                .map(|i| item(&mut rng, &id, city, cat, i))
                .collect();
            p.add_collection(&format!("c{c}"), cell_area.clone(), items);
            area = area.union(&cell_area);
        }
        let node = peers.len();
        peers.push(p);
        seller_areas.push((node, area.clone()));
        // Register with the city's index server if one exists, else
        // directly with a covering meta server (§3.3 registration).
        let mut registered = false;
        for i in 0..config.index_servers {
            if CITIES[i % CITIES.len()] == city {
                peers[1 + config.meta_servers + i]
                    .catalog_mut()
                    .register(CatalogEntry::base(format!("seller-{s}"), area.clone()));
                registered = true;
                break;
            }
        }
        if !registered {
            let country = city.split('/').next().unwrap();
            for m in 0..config.meta_servers {
                let mc = if m % 2 == 0 { "USA" } else { "France" };
                if mc == country {
                    peers[1 + m]
                        .catalog_mut()
                        .register(CatalogEntry::base(format!("seller-{s}"), area.clone()));
                }
            }
        }
    }

    // Wide-area topology: one LAN cluster per city-ish region.
    let topology = Topology::clustered(n_peers, CITIES.len().min(n_peers), 1_000, 40_000)
        .with_bandwidth(100.0);
    GarageWorld {
        harness: SimHarness::new(topology, peers),
        client: 0,
        seller_areas,
    }
}

fn item(rng: &mut StdRng, seller: &str, city: &str, category: &str, i: usize) -> Element {
    let price = (rng.gen_range(100..20_000) as f64) / 100.0;
    let condition = ["mint", "good", "fair", "poor"][rng.gen_range(0..4usize)];
    Element::new("item")
        .child(Element::new("name").text(format!(
            "{} #{i}",
            category.rsplit('/').next().unwrap_or(category)
        )))
        .child(Element::new("seller").text(seller))
        .child(Element::new("location").text(city))
        .child(Element::new("category").text(category))
        .child(Element::new("price").text(format!("{price:.2}")))
        .child(Element::new("condition").text(condition))
        .child(Element::new("quantity").text("1"))
}

/// A random discovery query: an interest-area URN for one (city ×
/// category) cell, optionally filtered on price.
pub fn random_query(rng: &mut StdRng, max_price: Option<f64>) -> Plan {
    let city = CITIES[rng.gen_range(0..CITIES.len())];
    let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
    query_for(city, cat, max_price)
}

/// The discovery query for a specific cell.
pub fn query_for(city: &str, category: &str, max_price: Option<f64>) -> Plan {
    let area = InterestArea::of(Cell::parse([city, category]));
    let urn = Plan::Urn(UrnRef::new(Urn::area(area)));
    match max_price {
        Some(p) => Plan::select(&format!("price < {p}"), urn),
        None => urn,
    }
}

/// Ground truth: seller nodes whose area overlaps the query area.
pub fn true_holders(world: &GarageWorld, area: &InterestArea) -> Vec<usize> {
    world
        .seller_areas
        .iter()
        .filter(|(_, a)| a.overlaps(area))
        .map(|(n, _)| *n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_deterministically() {
        let w1 = build(GarageConfig::default());
        let w2 = build(GarageConfig::default());
        assert_eq!(w1.seller_areas.len(), w2.seller_areas.len());
        for ((n1, a1), (n2, a2)) in w1.seller_areas.iter().zip(&w2.seller_areas) {
            assert_eq!(n1, n2);
            assert_eq!(a1, a2);
        }
        assert_eq!(w1.harness.len(), 1 + 2 + 4 + 20);
    }

    #[test]
    fn sellers_hold_items_in_their_area() {
        let w = build(GarageConfig::default());
        for (node, area) in &w.seller_areas {
            let peer = w.harness.peer(*node);
            assert!(!peer.store().is_empty());
            assert!(peer.store().area().overlaps(area));
        }
    }

    #[test]
    fn end_to_end_garage_query() {
        let mut w = build(GarageConfig {
            sellers: 12,
            ..GarageConfig::default()
        });
        // Query a cell some seller actually serves (pick from ground
        // truth to avoid a vacuous test).
        let (_, area) = w.seller_areas[0].clone();
        let cell = area.cells()[0].clone();
        let city = cell.coords()[0].to_string();
        let cat = cell.coords()[1].to_string();
        let qid = w.harness.submit(w.client, query_for(&city, &cat, None));
        w.harness.run(100_000);
        let done = w.harness.take_completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert_eq!(q.qid, qid);
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert!(!q.items.is_empty());
        // All result items belong to the queried category.
        for item in &q.items {
            assert_eq!(item.field("category").as_deref(), Some(cat.as_str()));
            assert_eq!(item.field("location").as_deref(), Some(city.as_str()));
        }
    }

    #[test]
    fn random_queries_are_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(
                random_query(&mut r1, Some(50.0)),
                random_query(&mut r2, Some(50.0))
            );
        }
    }

    #[test]
    fn true_holders_match_overlap() {
        let w = build(GarageConfig::default());
        let (node, area) = &w.seller_areas[3];
        let holders = true_holders(&w, area);
        assert!(holders.contains(node));
    }
}
