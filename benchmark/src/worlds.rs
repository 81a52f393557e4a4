//! The four worlds. Each is built from the seed alone; the ground
//! truth (item count per plan) falls out of the generator, and the
//! amount of work per query is the same for every seed — the seed
//! moves *which* items are cheap, the query order and the prices'
//! digits, never how many items match or how wide they print, so byte
//! and frame counts repeat across seeds.

use std::time::Duration;

use mqp_algebra::plan::{JoinCond, Plan, UrnRef};
use mqp_catalog::{CatalogEntry, DurableCatalog, MemDisk, SharedDisk};
use mqp_core::Policy;
use mqp_namespace::{Hierarchy, InterestArea, Namespace, Urn};
use mqp_net::NodeId;
use mqp_peer::node::RetryPolicy;
use mqp_peer::tcp::TcpConfig;
use mqp_peer::Peer;
use mqp_xml::Element;

use crate::stats::Rng;

/// What is fixed about a workload: its name, why it exists, and the
/// load its paced and flood phases apply. Rates and windows are
/// constants on purpose (README.md says how each was chosen).
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Open-loop offered rate of the paced phase, queries per second.
    pub paced_qps: f64,
    /// Closed-loop window of the flood phase.
    pub flood_window: usize,
    /// Untimed-latency warm-up queries (part of `setup_s`).
    pub warm_up: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "route_small",
        why: "5 hops of ~0.5 KB frames: the socket host loop and per-message cost do the work, the engine none",
        paced_qps: 1000.0,
        flood_window: 16,
        warm_up: 200,
    },
    Spec {
        name: "bulk_join",
        why: "3 hops of a ~1 MB join envelope: parse, evaluate and serialize do the work, per-message cost none",
        paced_qps: 12.0,
        flood_window: 3,
        warm_up: 24,
    },
    Spec {
        name: "or_churn",
        why: "kill/restart under load: timeout, Or-prune, re-route and link reconnect, so recovery cost shows",
        paced_qps: 1000.0,
        flood_window: 16,
        warm_up: 200,
    },
    Spec {
        name: "reg_mix",
        why: "area reads beside a registration stream on a 30k-entry durable index: scans, WAL and compaction",
        paced_qps: 150.0,
        flood_window: 8,
        warm_up: 200,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Ground truth for one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Result items a correct answer carries.
    pub items: usize,
    /// Hops of the churn-free path (`None`: retries may change it).
    pub hops: Option<u64>,
}

/// Kill/restart schedule keyed to the submit index (or_churn).
pub struct Churn {
    /// A victim falls at every `every`-th submit …
    pub every: usize,
    /// … and rejoins this many submits later.
    pub down_for: usize,
    /// Victims in rotation.
    pub victims: Vec<NodeId>,
}

/// The registration stream of reg_mix.
pub struct Writes {
    /// The durable index the stream registers at.
    pub target: NodeId,
    /// Fresh ghost registrations per second.
    pub per_s: f64,
    /// The data-holding seller the index does not know at start; it is
    /// registered over the wire half-way through the paced phase.
    pub late: CatalogEntry,
    seed: u64,
}

impl Writes {
    /// The `n`-th fresh ghost: a new server, so `Catalog::register`
    /// scans the whole catalog and appends.
    pub fn ghost(&self, n: usize) -> CatalogEntry {
        ghost_entry(self.seed, GHOSTS + n)
    }
}

pub struct World {
    /// Peer `i` sits at node `i`; node 0 is the client peer.
    pub peers: Vec<Peer>,
    pub cfg: TcpConfig,
    pub plans: Vec<Plan>,
    /// Ground truth, parallel to `plans`.
    pub expect: Vec<Expect>,
    /// The load: submit `i` sends `plans[cycle[i % cycle.len()]]`.
    pub cycle: Vec<usize>,
    /// The peer the recovery cycles kill and restart.
    pub pivot: NodeId,
    /// Plans whose answer must pass through the pivot; recovery cycle
    /// `j` asks `probes[j % probes.len()]`.
    pub probes: Vec<usize>,
    pub churn: Option<Churn>,
    pub writes: Option<Writes>,
}

impl World {
    pub fn plan_at(&self, submit: usize) -> usize {
        self.cycle[submit % self.cycle.len()]
    }
}

pub fn build(name: &str, seed: u64) -> World {
    match name {
        "route_small" => route_small(seed),
        "bulk_join" => bulk_join(seed),
        "or_churn" => or_churn(seed),
        "reg_mix" => reg_mix(seed),
        other => panic!("unknown workload {other:?}"),
    }
}

const CDS: &str = "Music/CDs";
/// What ghosts sell: never CDs, so no query ever binds one.
const OTHER: [&str; 7] = [
    "Music/Vinyl",
    "Furniture/Chairs",
    "Furniture/Tables",
    "Electronics/TV",
    "Electronics/VCR",
    "Books/Paperbacks",
    "SportingGoods/GolfClubs",
];

fn city(k: usize) -> String {
    format!("C{k:02}")
}

fn cds_in(k: usize) -> InterestArea {
    InterestArea::parse(&[&[city(k).as_str(), CDS]])
}

fn namespace(cities: usize) -> Namespace {
    let mut loc = Hierarchy::new("Location");
    for k in 0..cities {
        loc.add(city(k).as_str());
    }
    let mut merch = Hierarchy::new("Merchandise").with([CDS]);
    for c in OTHER {
        merch.add(c);
    }
    Namespace::new([loc, merch])
}

fn area_query(area: InterestArea) -> Plan {
    Plan::Urn(UrnRef::new(Urn::area(area)))
}

/// `n` items of which exactly `cheap` cost less than `limit` dollars.
/// Every price prints five characters wide (`07.45`) whatever the seed.
fn priced_items(rng: &mut Rng, tag: &str, n: usize, cheap: usize, limit: usize) -> Vec<Element> {
    assert!((2..=99).contains(&limit) && cheap <= n);
    let mut is_cheap = vec![false; n];
    is_cheap[..cheap].fill(true);
    rng.shuffle(&mut is_cheap);
    (0..n)
        .map(|i| {
            let dollars = if is_cheap[i] {
                1 + rng.below(limit - 1)
            } else {
                limit + rng.below(100 - limit)
            };
            Element::new("item")
                .child(Element::new("title").text(format!("{tag}-{i:05}")))
                .child(Element::new("price").text(format!("{dollars:02}.{:02}", rng.below(100))))
        })
        .collect()
}

/// client, meta, 4 city indexes, 8 sellers × 10 items (5 under $20).
fn route_small(seed: u64) -> World {
    const CITIES: usize = 4;
    let ns = namespace(CITIES);
    let mut rng = Rng::stream(seed, 1);
    let client = Peer::new("client", ns.clone()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns.clone());
    let mut indexes = Vec::new();
    let mut sellers = Vec::new();
    for k in 0..CITIES {
        let mut index = Peer::new(format!("city-{k}"), ns.clone());
        meta.catalog_mut().register(
            CatalogEntry::index(
                format!("city-{k}"),
                InterestArea::parse(&[&[city(k).as_str(), "*"]]),
            )
            .authoritative(),
        );
        for s in [2 * k, 2 * k + 1] {
            let mut seller = Peer::new(format!("seller-{s}"), ns.clone());
            let items = priced_items(&mut rng, &format!("s{s}"), 10, 5, 20);
            seller.add_collection("cds", cds_in(k), items);
            index.catalog_mut().register(seller.base_entry());
            sellers.push(seller);
        }
        indexes.push(index);
    }
    let mut peers = vec![client, meta];
    peers.extend(indexes);
    peers.extend(sellers);

    let plans: Vec<Plan> = (0..CITIES)
        .map(|k| Plan::select("price < 20", area_query(cds_in(k))))
        .collect();
    let cycle = rng.permutation(CITIES);
    World {
        peers,
        cfg: TcpConfig::default(),
        expect: vec![
            Expect {
                items: 10,
                hops: Some(5)
            };
            CITIES
        ],
        // Fixed whatever the seed: a link's reconnect jitter is seeded
        // by its two node ids, so a wandering pivot would make
        // `recover_s` a function of the seed.
        pivot: 2,
        probes: vec![0],
        plans,
        cycle,
        churn: None,
        writes: None,
    }
}

/// client, `songs` (10 000), `cds` (10 000, exactly 2 500 under $10).
/// Both sites run with `defer_bytes` = 64 MB: at the default 64 KB both
/// defer and the query strands with "no route" (README.md, limitations).
fn bulk_join(seed: u64) -> World {
    const N: usize = 10_000;
    const CHEAP: usize = 2_500;
    let ns = namespace(1);
    let mut rng = Rng::stream(seed, 2);
    let policy = Policy::current().with_defer_bytes(64e6);
    let client = Peer::new("client", ns.clone());
    let mut songs = Peer::new("songs", ns.clone()).with_policy(policy);
    let albums = rng.permutation(N);
    songs.add_collection(
        "songs",
        InterestArea::parse(&[&[city(0).as_str(), OTHER[0]]]),
        (0..N).map(|i| {
            Element::new("song")
                .child(Element::new("name").text(format!("song-{i:05}")))
                .child(Element::new("album").text(format!("cds-{:05}", albums[i])))
        }),
    );
    let mut cds = Peer::new("cds", ns).with_policy(policy);
    cds.add_collection(
        "cds",
        cds_in(0),
        priced_items(&mut rng, "cds", N, CHEAP, 10),
    );
    let plan = Plan::join(
        JoinCond::on("album", "title"),
        Plan::url("mqp://songs/"),
        Plan::select("price < 10", Plan::url("mqp://cds/")),
    );
    World {
        peers: vec![client, songs, cds],
        cfg: TcpConfig::default(),
        plans: vec![plan],
        expect: vec![Expect {
            items: CHEAP,
            hops: Some(3),
        }],
        cycle: vec![0],
        pivot: 2,
        probes: vec![0],
        churn: None,
        writes: None,
    }
}

/// The E13 soak world at 6 seller pairs, with its retry and backoff
/// settings: sellers `2p` and `2p + 1` share city `p`, one item each.
fn or_churn(seed: u64) -> World {
    const PAIRS: usize = 6;
    let ns = namespace(PAIRS);
    let mut rng = Rng::stream(seed, 3);
    let client = Peer::new("client", ns.clone()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns.clone());
    let mut peers = Vec::new();
    for j in 0..2 * PAIRS {
        let mut s = Peer::new(format!("seller-{j}"), ns.clone());
        let items = priced_items(&mut rng, &format!("s{j}"), 1, 0, 20);
        s.add_collection("cds", cds_in(j / 2), items);
        meta.catalog_mut().register(s.base_entry());
        peers.push(s);
    }
    peers.splice(0..0, [client, meta]);

    // Plans per pair: Or over the pair, direct URL to the odd member,
    // the pair's city area.
    let seller = |j: usize| Plan::url(format!("mqp://seller-{j}/"));
    let mut plans = Vec::new();
    let mut expect = Vec::new();
    for p in 0..PAIRS {
        plans.push(Plan::or([seller(2 * p), seller(2 * p + 1)]));
        plans.push(seller(2 * p + 1));
        plans.push(area_query(cds_in(p)));
        let e = |items| Expect { items, hops: None };
        expect.extend([e(1), e(1), e(2)]);
    }
    // Round-robin Or / URL / area as `exp_socket_soak::plan_for`: Or
    // and URL walk every pair, area only second-half (never churned)
    // pairs; the seed orders the pairs.
    let half = PAIRS / 2;
    let mut first: Vec<usize> = (0..half).collect();
    let mut second: Vec<usize> = (half..PAIRS).collect();
    rng.shuffle(&mut first);
    rng.shuffle(&mut second);
    let order: Vec<usize> = first.iter().chain(&second).copied().collect();
    let cycle: Vec<usize> = (0..PAIRS)
        .flat_map(|i| {
            [
                3 * order[i],
                3 * order[i] + 1,
                3 * second[i % second.len()] + 2,
            ]
        })
        .collect();
    // A never-churned pair, the same for every seed (see route_small).
    let quiet = PAIRS - 1;
    World {
        peers,
        cfg: TcpConfig {
            retry: Some(RetryPolicy {
                timeout_us: 250_000,
                max_retries: 8,
            }),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            ..TcpConfig::default()
        },
        plans,
        expect,
        cycle,
        // A never-churned odd seller, asked for by URL.
        pivot: 2 + 2 * quiet + 1,
        probes: vec![3 * quiet + 1],
        // The issue's 400/200 brings a victim back within 0.2 s at the
        // paced rate — before the 250 ms timeout fires — and the paced
        // tail becomes a ramp. 1 500/1 000 has ~3.7 % of queries meet a
        // dead peer, three quarters of them for the full timeout, which
        // puts p99 on the retry plateau.
        churn: Some(Churn {
            every: 1_500,
            down_for: 1_000,
            victims: first.iter().map(|p| 2 + 2 * p).collect(),
        }),
        writes: None,
    }
}

/// Ghost base entries pre-registered at the reg_mix index.
pub const GHOSTS: usize = 30_000;
const REG_CITIES: usize = 64;

/// Ghost `n`: a server nobody runs, selling something other than CDs
/// in one of the 63 cities that are not the read city.
fn ghost_entry(seed: u64, n: usize) -> CatalogEntry {
    let mut rng = Rng::stream(seed, 0x6057 + n as u64);
    let k = 1 + rng.below(REG_CITIES - 1);
    let cat = OTHER[rng.below(OTHER.len())];
    CatalogEntry::base(
        format!("ghost-{n:06}"),
        InterestArea::parse(&[&[city(k).as_str(), cat]]),
    )
}

/// client, meta, one durable index (MemDisk, sync every op, snapshot
/// every 64) holding 30 000 ghosts, two sellers in the read city and
/// one late seller elsewhere.
fn reg_mix(seed: u64) -> World {
    let ns = namespace(REG_CITIES);
    let mut rng = Rng::stream(seed, 4);
    let client = Peer::new("client", ns.clone()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns.clone());
    meta.catalog_mut().register(
        CatalogEntry::index("index", InterestArea::parse(&[&["*", "*"]])).authoritative(),
    );
    let mut index = Peer::new("index", ns.clone());
    let late_city = 1 + rng.below(REG_CITIES - 1);
    let mut sellers = Vec::new();
    for (s, k) in [(0, 0), (1, 0), (2, late_city)] {
        let mut seller = Peer::new(format!("seller-{s}"), ns.clone());
        let items = priced_items(&mut rng, &format!("s{s}"), 10, 5, 20);
        seller.add_collection("cds", cds_in(k), items);
        sellers.push(seller);
    }
    for n in 0..GHOSTS {
        index.catalog_mut().register(ghost_entry(seed, n));
    }
    index.catalog_mut().register(sellers[0].base_entry());
    index.catalog_mut().register(sellers[1].base_entry());
    // Seeds the snapshot with the catalog built so far; from here on
    // wire registrations are journaled.
    index.enable_durability(DurableCatalog::new(SharedDisk::new(MemDisk::new())));
    let late = sellers[2].base_entry();
    let mut peers = vec![client, meta, index];
    peers.extend(sellers);
    World {
        peers,
        cfg: TcpConfig {
            backoff_cap: Duration::from_millis(100),
            ..TcpConfig::default()
        },
        plans: vec![area_query(cds_in(0)), area_query(cds_in(late_city))],
        expect: vec![
            Expect {
                items: 20,
                hops: Some(5),
            },
            Expect {
                items: 10,
                hops: Some(4),
            },
        ],
        cycle: vec![0],
        pivot: 2,
        // The third cycle asks for the late seller's city, so a
        // WAL-recovered registration is what answers it.
        probes: vec![0, 0, 1],
        churn: None,
        writes: Some(Writes {
            target: 2,
            per_s: 200.0,
            late,
            seed,
        }),
    }
}
