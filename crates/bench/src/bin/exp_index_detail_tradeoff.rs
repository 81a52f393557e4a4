//! E10 — §3.2: the index-detail tradeoff. "There is a tradeoff between
//! a server's index area, and the detail of the indices it maintains…
//! Meta-index servers can afford to cover much larger interest areas
//! than index servers, because they only maintain multi-hierarchic
//! namespace indices."
//!
//! We sweep how many city-level index servers exist (0 = meta-only
//! routing) and measure catalog sizes, registration traffic, and query
//! routing cost.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use mqp_bench::{f2, mean, print_table};
use mqp_workloads::garage::{build, random_query, GarageConfig};

fn main() {
    let mut rows = Vec::new();
    for &index_servers in &[0usize, 2, 4, 8] {
        let mut w = build(GarageConfig {
            sellers: 120,
            items_per_seller: 4,
            index_servers,
            meta_servers: 2,
            seed: 42,
        });
        // Catalog footprint: the *hotspot* — the largest catalog any
        // single routing server must maintain and keep updated.
        let hotspot_catalog: usize = (1..1 + 2 + index_servers)
            .map(|n| w.harness.peer(n).catalog().size())
            .max()
            .unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(3);
        let (mut hops, mut bytes, mut lat) = (Vec::new(), Vec::new(), Vec::new());
        let mut answered = 0usize;
        for _ in 0..25 {
            let q = random_query(&mut rng, None);
            w.harness.submit(w.client, q);
            w.harness.run(10_000_000);
        }
        for q in w.harness.take_completed() {
            if q.failure.is_none() {
                answered += 1;
                hops.push(q.hops as f64);
                bytes.push(q.mqp_bytes as f64 / 1024.0);
                lat.push(q.latency_us as f64 / 1000.0);
            }
        }
        rows.push(vec![
            index_servers.to_string(),
            hotspot_catalog.to_string(),
            format!("{answered}/25"),
            f2(mean(&hops)),
            f2(mean(&bytes)),
            f2(mean(&lat)),
        ]);
    }
    print_table(
        "index detail vs routing cost (120 sellers, 25 queries)",
        &[
            "city index servers",
            "hotspot catalog entries",
            "answered",
            "mean hops",
            "mean MQP KiB",
            "mean latency ms",
        ],
        &rows,
    );
    println!(
        "\nshape check: with no city indexes every seller registers at the \
         country meta servers — one fat catalog hotspot that must absorb \
         every update; adding city-level index servers spreads the \
         entries (hotspot shrinks) at the price of ~1 extra routing hop \
         through the added level. That is §3.2's tradeoff: richer, \
         narrower indexes route from smaller catalogs; broad meta-index \
         coverage concentrates state."
    );
}
