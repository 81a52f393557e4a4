//! The six-digit scale world: a synthetic garage-sale federation sized
//! for 100k–1M peers in one process.
//!
//! [`garage`](crate::garage) builds every peer eagerly, which is fine at
//! tens of peers and hopeless at a million. This module builds the same
//! *shape* of world — client → meta-index → city index servers → sellers
//! — lazily: the [`SimHarness::lazy`] factory constructs a peer the
//! first time a message or timer touches it, so world setup is O(active
//! peers) no matter how many sellers the directory names.
//!
//! Determinism without materialization: each seller's city, category,
//! and item are pure functions of `(seed, seller_index)`, so ground
//! truth (who holds what) is computable by hashing, never by building
//! peers. Two worlds with the same config agree on everything.
//!
//! Node layout (fixed):
//!
//! | node | id | role |
//! |---|---|---|
//! | 0 | `client` | submits queries; default route → `meta` |
//! | 1 | `meta` | meta-index: authoritative `[city, *]` entry per city |
//! | 2..2+cities | `city-<k>` | index server for city `k` |
//! | 2+cities.. | `seller-<s>` | base peer, one collection, one item |
//!
//! Seller names are scheme-generated ([`Directory::with_generated_tail`])
//! so the directory costs O(named heads), not O(sellers).

use std::sync::Arc;

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_catalog::{CatalogEntry, ServerId};
use mqp_namespace::{Cell, Hierarchy, InterestArea, Namespace, Urn};
use mqp_net::{splitmix64, NodeId, Topology};
use mqp_peer::{Directory, Peer, SimHarness};
use mqp_xml::Element;

pub use crate::garage::CATEGORIES;

/// Average sellers per city when [`ScaleConfig::cities`] is auto.
const SELLERS_PER_CITY: usize = 16;

/// Scale-world parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Number of seller (base) peers.
    pub sellers: usize,
    /// Number of cities / index servers; `0` = auto
    /// (`sellers / 16`, at least one).
    pub cities: usize,
    /// Seed for the hash assigning sellers to cities and categories.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            sellers: 1_000,
            cities: 0,
            seed: 42,
        }
    }
}

/// A lazily materialized scale world.
pub struct ScaleWorld {
    /// The harness (lazy: only touched nodes exist).
    pub harness: SimHarness,
    /// Node id of the client peer (0).
    pub client: NodeId,
    /// Number of cities (= index servers).
    pub cities: usize,
    /// Number of sellers.
    pub sellers: usize,
    seed: u64,
}

/// Stream `stream` of the world's hash for input `s`: SplitMix64 is the
/// world's only source of randomness, so ground truth never needs an
/// RNG state.
pub(crate) fn mix(seed: u64, stream: u64, s: u64) -> u64 {
    splitmix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ splitmix64(s))
}

fn city_name(k: usize) -> String {
    format!("C{k}")
}

/// The scale namespace: a flat synthetic city list × the garage
/// merchandise taxonomy.
pub fn namespace(cities: usize) -> Namespace {
    let mut location = Hierarchy::new("Location");
    for k in 0..cities {
        location.add(city_name(k).as_str());
    }
    Namespace::new([location, Hierarchy::new("Merchandise").with(CATEGORIES)])
}

/// Resolved city count: `cities`, or one per 16 sellers when it is `0`.
pub(crate) fn resolve_cities(sellers: usize, cities: usize) -> usize {
    if cities > 0 {
        cities
    } else {
        (sellers / SELLERS_PER_CITY).max(1)
    }
}

/// The city seller `s` lives in (hash-assigned).
pub(crate) fn city_of(seed: u64, cities: usize, s: usize) -> usize {
    (mix(seed, 1, s as u64) % cities as u64) as usize
}

/// The category seller `s` sells (hash-assigned).
pub(crate) fn category_of(seed: u64, s: usize) -> usize {
    (mix(seed, 2, s as u64) % CATEGORIES.len() as u64) as usize
}

/// The interest area for one (city × category) cell.
pub(crate) fn cell_area(city: usize, category: usize) -> InterestArea {
    InterestArea::of(Cell::parse([
        city_name(city).as_str(),
        CATEGORIES[category],
    ]))
}

impl ScaleWorld {
    /// The node hosting seller `s`.
    pub fn seller_node(&self, s: usize) -> NodeId {
        2 + self.cities + s
    }

    /// The city seller `s` lives in (hash-assigned).
    pub fn seller_city(&self, s: usize) -> usize {
        city_of(self.seed, self.cities, s)
    }

    /// The category seller `s` sells (hash-assigned).
    pub fn seller_category(&self, s: usize) -> usize {
        category_of(self.seed, s)
    }

    /// The discovery query for one (city × category) cell.
    pub fn query(&self, city: usize, category: usize) -> Plan {
        Plan::Urn(UrnRef::new(Urn::area(cell_area(city, category))))
    }

    /// Ground truth from hashes alone: seller nodes in `city` selling
    /// `category`. O(sellers) scan, zero peers materialized.
    pub fn true_holders(&self, city: usize, category: usize) -> Vec<NodeId> {
        (0..self.sellers)
            .filter(|&s| self.seller_city(s) == city && self.seller_category(s) == category)
            .map(|s| self.seller_node(s))
            .collect()
    }
}

/// One seller's single item, derived from the hash stream.
pub(crate) fn item(seed: u64, s: usize, category: &str) -> Element {
    let cents = 100 + mix(seed, 3, s as u64) % 19_900;
    Element::new("item")
        .child(Element::new("name").text(format!("lot-{s}")))
        .child(Element::new("seller").text(format!("seller-{s}")))
        .child(Element::new("category").text(category))
        .child(Element::new("price").text(format!("{}.{:02}", cents / 100, cents % 100)))
}

/// The directory: `client`, `meta` and the city servers, then
/// `extra_head`, then `sellers` scheme-named `seller-<s>` peers — so it
/// costs O(named heads), not O(sellers).
pub(crate) fn directory(cities: usize, extra_head: Vec<ServerId>, sellers: usize) -> Directory {
    let mut named: Vec<ServerId> = vec!["client".into(), "meta".into()];
    named.extend((0..cities).map(|k| format!("city-{k}").into()));
    named.extend(extra_head);
    Directory::with_generated_tail(named, "seller-", sellers)
}

/// One cluster per city over the whole directory.
pub(crate) fn topology(directory: &Directory, cities: usize) -> Topology {
    let n = directory.len();
    Topology::clustered(n, cities.min(n), 1_000, 40_000).with_bandwidth(100.0)
}

/// The per-node peer builder, in the scale layout: `client`(0),
/// `meta`(1), `city-<k>` (2..2+cities), then `seller-<s>`. Its only
/// super-linear cost is the index server's O(sellers) membership scan,
/// paid once, on the first city server built.
pub(crate) fn peers(sellers: usize, cities: usize, seed: u64) -> impl FnMut(NodeId) -> Peer {
    let ns = Arc::new(namespace(cities));
    // City → resident sellers, built once on the first index-server
    // touch (O(sellers)), then every further index costs only its own
    // residents — materializing *all* peers is O(sellers + cities), not
    // O(cities × sellers).
    let mut residents: Option<Vec<Vec<u32>>> = None;
    move |node: NodeId| -> Peer {
        let ns = Arc::clone(&ns);
        match node {
            0 => Peer::new("client", ns).with_default_route("meta"),
            1 => {
                // Meta-index: one authoritative index entry per city.
                let mut p = Peer::new("meta", ns);
                for k in 0..cities {
                    p.catalog_mut().register(
                        CatalogEntry::index(
                            format!("city-{k}"),
                            InterestArea::of(Cell::parse([city_name(k).as_str(), "*"])),
                        )
                        .authoritative(),
                    );
                }
                p
            }
            _ if node < 2 + cities => {
                // City index server: index the base areas of its
                // resident sellers (from the shared membership map).
                let k = node - 2;
                let map = residents.get_or_insert_with(|| {
                    let mut map = vec![Vec::new(); cities];
                    for s in 0..sellers {
                        map[city_of(seed, cities, s)].push(s as u32);
                    }
                    map
                });
                let mut p = Peer::new(format!("city-{k}"), ns);
                for &s in &map[k] {
                    let s = s as usize;
                    p.catalog_mut().register(CatalogEntry::base(
                        format!("seller-{s}"),
                        cell_area(k, category_of(seed, s)),
                    ));
                }
                p
            }
            _ => {
                let s = node - 2 - cities;
                let (k, c) = (city_of(seed, cities, s), category_of(seed, s));
                let mut p = Peer::new(format!("seller-{s}"), ns);
                p.add_collection("lot", cell_area(k, c), [item(seed, s, CATEGORIES[c])]);
                p
            }
        }
    }
}

/// Builds the world. O(cities) work up front (directory heads +
/// namespace); every peer waits for first touch.
pub fn build(config: ScaleConfig) -> ScaleWorld {
    let ScaleConfig {
        sellers,
        cities,
        seed,
    } = config;
    let cities = resolve_cities(sellers, cities);
    let directory = directory(cities, Vec::new(), sellers);
    let topology = topology(&directory, cities);
    ScaleWorld {
        harness: SimHarness::lazy(topology, directory, peers(sellers, cities, seed)),
        client: 0,
        cities,
        sellers,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_is_pure_and_deterministic() {
        let w1 = build(ScaleConfig::default());
        let w2 = build(ScaleConfig::default());
        assert_eq!(w1.cities, 1_000 / SELLERS_PER_CITY);
        for s in [0, 17, 999] {
            assert_eq!(w1.seller_city(s), w2.seller_city(s));
            assert_eq!(w1.seller_category(s), w2.seller_category(s));
        }
        // No peer was built to answer any of that.
        assert_eq!(w1.harness.materialized(), 0);
    }

    #[test]
    fn query_materializes_only_the_route() {
        let mut w = build(ScaleConfig {
            sellers: 400,
            ..ScaleConfig::default()
        });
        // Query the cell seller 0 actually serves, so truth is non-empty.
        let (city, cat) = (w.seller_city(0), w.seller_category(0));
        let truth = w.true_holders(city, cat);
        assert!(truth.contains(&w.seller_node(0)));

        let qid = w.harness.submit(w.client, w.query(city, cat));
        w.harness.run(1_000_000);
        let done = w.harness.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].qid, qid);
        assert!(done[0].failure.is_none(), "{:?}", done[0].failure);
        // One item per holder, all in the queried category.
        assert_eq!(done[0].items.len(), truth.len());
        for item in &done[0].items {
            assert_eq!(item.field("category").as_deref(), Some(CATEGORIES[cat]));
        }
        // Client + meta + one index + the holders — not the other 390+.
        let expect = 3 + truth.len();
        assert_eq!(w.harness.materialized(), expect);
        assert_eq!(w.harness.len(), 2 + w.cities + 400);
    }

    #[test]
    fn different_seeds_shuffle_the_world() {
        let a = build(ScaleConfig {
            seed: 1,
            ..ScaleConfig::default()
        });
        let b = build(ScaleConfig {
            seed: 2,
            ..ScaleConfig::default()
        });
        let cities_a: Vec<usize> = (0..100).map(|s| a.seller_city(s)).collect();
        let cities_b: Vec<usize> = (0..100).map(|s| b.seller_city(s)).collect();
        assert_ne!(cities_a, cities_b);
    }

    #[test]
    fn hash_assignment_spreads_sellers() {
        let w = build(ScaleConfig {
            sellers: 3_200,
            ..ScaleConfig::default()
        });
        let mut per_city = vec![0usize; w.cities];
        for s in 0..w.sellers {
            per_city[w.seller_city(s)] += 1;
        }
        // Every city inhabited, none pathologically overloaded.
        assert!(per_city.iter().all(|&c| c > 0));
        assert!(per_city.iter().all(|&c| c < 16 * 8));
    }
}
