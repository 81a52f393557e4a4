//! The CD search of Figures 3–4: favourite songs ⋈ track listings ⋈
//! Portland for-sale lists, `price < $10`.
//!
//! The paper uses CDDB/FreeDB as the track-listing service; our
//! substitute is a synthetic track-listing collection served by a
//! dedicated peer (`trackdb`), which exercises the same plan shape and
//! routing behaviour.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mqp_algebra::plan::{JoinCond, Plan};
use mqp_namespace::{Cell, Hierarchy, InterestArea, Namespace};
use mqp_net::Topology;
use mqp_peer::{Peer, SimHarness};
use mqp_xml::Element;

/// World parameters.
#[derive(Debug, Clone, Copy)]
pub struct CdConfig {
    /// Number of albums in the track-listing service.
    pub albums: usize,
    /// Tracks per album.
    pub tracks_per_album: usize,
    /// Number of favourite songs on the client.
    pub favorites: usize,
    /// Number of Portland CD sellers.
    pub sellers: usize,
    /// Fraction of albums each seller stocks (0..=1).
    pub stock_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CdConfig {
    fn default() -> Self {
        CdConfig {
            albums: 40,
            tracks_per_album: 8,
            favorites: 5,
            sellers: 2,
            stock_fraction: 0.5,
            seed: 7,
        }
    }
}

/// Minimal namespace for the scenario.
pub fn namespace() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland"]),
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ])
}

fn pdx_cds() -> InterestArea {
    InterestArea::of(Cell::parse(["USA/OR/Portland", "Music/CDs"]))
}

/// A generated CD world.
pub struct CdWorld {
    /// node 0 = client, 1 = meta, 2 = trackdb, 3.. = sellers.
    pub harness: SimHarness,
    /// The client node.
    pub client: usize,
    /// The Figure-3 query plan (favourites inlined as verbatim data).
    pub plan: Plan,
    /// Album titles the client's favourite songs appear on (ground
    /// truth for the join).
    pub favorite_albums: Vec<String>,
}

/// Builds the world and the Figure-3 plan.
pub fn build(config: CdConfig) -> CdWorld {
    let ns = namespace();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Track listings.
    let mut tracks: Vec<Element> = Vec::new();
    let mut all_songs: Vec<(String, String)> = Vec::new(); // (song, album)
    for a in 0..config.albums {
        let album = format!("Album-{a:03}");
        for t in 0..config.tracks_per_album {
            let song = format!("Song-{a:03}-{t}");
            tracks.push(
                Element::new("track")
                    .child(Element::new("title").text(&song))
                    .child(Element::new("album").text(&album)),
            );
            all_songs.push((song, album.clone()));
        }
    }

    // Favourites: a random sample of known songs.
    let mut favorite_albums = Vec::new();
    let mut favorites = Vec::new();
    for _ in 0..config.favorites {
        let (song, album) = all_songs[rng.gen_range(0..all_songs.len())].clone();
        if !favorite_albums.contains(&album) {
            favorite_albums.push(album.clone());
        }
        favorites.push(Element::new("song").child(Element::new("title").text(song)));
    }

    // Peers.
    let mut peers = Vec::new();
    peers.push(Peer::new("client", ns.clone()).with_default_route("meta"));
    let mut meta = Peer::new("meta", ns.clone());
    meta.catalog_mut()
        .map_urn("urn:CD:TrackListings", "trackdb", None);
    peers.push(meta);
    let mut trackdb = Peer::new("trackdb", ns.clone());
    trackdb.add_collection("tracks", pdx_cds(), tracks);
    peers.push(trackdb);
    for s in 0..config.sellers {
        let id = format!("cd-seller-{s}");
        let mut seller = Peer::new(id.clone(), ns.clone());
        let mut stock: Vec<Element> = Vec::new();
        for a in 0..config.albums {
            if !rng.gen_bool(config.stock_fraction) {
                continue;
            }
            let price = (rng.gen_range(300..2500) as f64) / 100.0;
            stock.push(
                Element::new("item")
                    .child(Element::new("title").text(format!("Album-{a:03}")))
                    .child(Element::new("price").text(format!("{price:.2}")))
                    .child(Element::new("location").text("USA/OR/Portland")),
            );
        }
        seller.add_collection("cds", pdx_cds(), stock);
        // The meta server maps the ForSale URN to every seller (§3.4's
        // "union of two seller URLs").
        peers[1].catalog_mut().map_urn(
            "urn:ForSale:Portland-CDs",
            id.clone(),
            Some("/data[@id='cds']".to_owned()),
        );
        peers.push(seller);
    }

    // The Figure-3 plan.
    let plan = figure3_plan(favorites);

    let n = peers.len();
    CdWorld {
        harness: SimHarness::new(
            Topology::clustered(n, 2, 1_500, 45_000).with_bandwidth(100.0),
            peers,
        ),
        client: 0,
        plan,
        favorite_albums,
    }
}

/// The exact plan of Figure 3 over the given favourite-song items.
pub(crate) fn figure3_plan(favorites: Vec<Element>) -> Plan {
    let inner = Plan::join(
        JoinCond::on("title", "title"),
        Plan::data(favorites),
        Plan::urn("urn:CD:TrackListings"),
    );
    Plan::join(
        JoinCond::on("track/album", "title"),
        inner,
        Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_end_to_end() {
        let mut w = build(CdConfig::default());
        let qid = w.harness.submit(w.client, w.plan.clone());
        w.harness.run(100_000);
        let done = w.harness.take_completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert_eq!(q.qid, qid);
        assert!(q.failure.is_none(), "{:?}", q.failure);
        // Every result joins a favourite album with a sub-$10 listing.
        for t in &q.items {
            assert_eq!(t.name(), "tuple");
            let price: f64 = mqp_xml::xpath::values(t, "item/price")[0].parse().unwrap();
            assert!(price < 10.0);
            let album = mqp_xml::xpath::values(t, "item/title")[0].clone();
            assert!(w.favorite_albums.contains(&album), "{album}");
        }
        // The MQP visited: client → meta → trackdb → sellers (≥4 hops +
        // result).
        assert!(q.hops >= 4, "hops = {}", q.hops);
    }

    #[test]
    fn results_monotone_in_price_cut() {
        // Raising the price cut can only add results.
        let run = |cut: f64| {
            let mut w = build(CdConfig::default());
            let plan = match w.plan.clone() {
                Plan::Join { on, left, right } => {
                    let relaxed = match *right {
                        Plan::Select { input, .. } => {
                            Plan::select(&format!("price < {cut}"), *input)
                        }
                        other => other,
                    };
                    Plan::Join {
                        on,
                        left,
                        right: Box::new(relaxed),
                    }
                }
                other => other,
            };
            w.harness.submit(w.client, plan);
            w.harness.run(100_000);
            w.harness.take_completed().pop().unwrap().items.len()
        };
        let cheap = run(5.0);
        let mid = run(10.0);
        let all = run(100.0);
        assert!(cheap <= mid && mid <= all, "{cheap} {mid} {all}");
        assert!(all >= 1);
    }

    #[test]
    fn deterministic_world() {
        let w1 = build(CdConfig::default());
        let w2 = build(CdConfig::default());
        assert_eq!(w1.plan, w2.plan);
        assert_eq!(w1.favorite_albums, w2.favorite_albums);
    }
}
