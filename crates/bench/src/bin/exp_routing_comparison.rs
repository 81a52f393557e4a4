//! E5 — §1/§6: catalog-routed discovery vs. the Napster, Gnutella, and
//! DHT architectures, on the same discovery workload: messages, bytes,
//! latency, recall, and load imbalance as the population grows.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_baselines::{CentralIndex, Chord, Flooding};
use mqp_bench::{f2, mean, print_table};
use mqp_namespace::{Cell, InterestArea, Urn};
use mqp_net::Topology;
use mqp_workloads::garage::{build, true_holders, GarageConfig, CATEGORIES, CITIES};

const LAT: u64 = 20_000; // µs, uniform

/// Keys for the baselines: the exact (city, category) cell string —
/// what a flat "filename" namespace would use (§3).
fn key(city: &str, cat: &str) -> String {
    format!("{city}|{cat}")
}

fn main() {
    let mut rows = Vec::new();
    let (populations, n_queries): (&[usize], usize) = if mqp_bench::golden_scale() {
        (&[32, 128], 10)
    } else {
        (&[32, 128, 512], 30)
    };
    for &n in populations {
        // A common assignment of content: seller i (nodes 1..) holds one
        // (city, category) cell.
        let mut rng = StdRng::seed_from_u64(1);
        let placement: Vec<(usize, String, String)> = (1..n)
            .map(|node| {
                let city = CITIES[rng.gen_range(0..CITIES.len())].to_owned();
                let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_owned();
                (node, city, cat)
            })
            .collect();
        let mut query_cells = Vec::new();
        let mut qrng = StdRng::seed_from_u64(2);
        for _ in 0..n_queries {
            let (_, city, cat) = &placement[qrng.gen_range(0..placement.len())];
            query_cells.push((city.clone(), cat.clone()));
        }
        let queries = &query_cells;

        // --- MQP catalog routing ---
        {
            let mut w = build(GarageConfig {
                sellers: n - 1,
                items_per_seller: 3,
                index_servers: 8,
                meta_servers: 2,
                seed: 1,
            });
            let mut msgs = Vec::new();
            let mut bytes = Vec::new();
            let mut lat = Vec::new();
            let mut recall = Vec::new();
            for (city, cat) in queries {
                let area = InterestArea::of(Cell::parse([city.as_str(), cat.as_str()]));
                let truth = true_holders(&w, &area);
                let before = w.harness.net.stats().clone();
                let plan = Plan::Urn(UrnRef::new(Urn::area(area)));
                w.harness.submit(w.client, plan);
                w.harness.run(10_000_000);
                let out = w.harness.take_completed().pop().unwrap();
                let after = w.harness.net.stats();
                msgs.push((after.messages_sent - before.messages_sent) as f64);
                bytes.push((after.bytes_sent - before.bytes_sent) as f64);
                lat.push(out.latency_us as f64 / 1000.0);
                // Recall: items from every true holder? Approximate via
                // sellers named in results.
                let sellers_seen: std::collections::BTreeSet<String> =
                    out.items.iter().filter_map(|i| i.field("seller")).collect();
                let r = if truth.is_empty() {
                    1.0
                } else {
                    truth
                        .iter()
                        .filter(|t| sellers_seen.contains(w.harness.peer(**t).id().as_str()))
                        .count() as f64
                        / truth.len() as f64
                };
                recall.push(r);
            }
            rows.push(row("catalog (MQP)", n, &msgs, &bytes, &lat, &recall, {
                let s = w.harness.net.stats();
                s.receive_imbalance()
            }));
        }

        // --- Napster: central index ---
        {
            let mut c = CentralIndex::new(Topology::uniform(n, LAT));
            for (node, city, cat) in &placement {
                c.publish(*node, &key(city, cat));
            }
            let (mut msgs, mut bytes, mut lat, mut recall) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (city, cat) in queries {
                let r = c.query(n - 1, &key(city, cat));
                msgs.push(r.messages as f64);
                bytes.push(r.bytes as f64);
                lat.push(r.latency_us as f64 / 1000.0);
                recall.push(r.recall(&c.truth(&key(city, cat))));
            }
            let imb = c.stats().receive_imbalance();
            rows.push(row(
                "central (Napster)",
                n,
                &msgs,
                &bytes,
                &lat,
                &recall,
                imb,
            ));
        }

        // --- Gnutella: flooding, horizon 4 ---
        {
            let mut f = Flooding::new(Topology::uniform(n, LAT), 4, 3);
            for (node, city, cat) in &placement {
                f.publish(*node, &key(city, cat));
            }
            let (mut msgs, mut bytes, mut lat, mut recall) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (city, cat) in queries {
                let r = f.query(0, &key(city, cat), 4);
                msgs.push(r.messages as f64);
                bytes.push(r.bytes as f64);
                lat.push(r.latency_us as f64 / 1000.0);
                recall.push(r.recall(&f.truth(&key(city, cat))));
            }
            let imb = f.stats().receive_imbalance();
            rows.push(row("flooding h=4", n, &msgs, &bytes, &lat, &recall, imb));
        }

        // --- Chord DHT ---
        {
            let mut c = Chord::new(Topology::uniform(n, LAT));
            for (node, city, cat) in &placement {
                c.publish(*node, &key(city, cat));
            }
            let (mut msgs, mut bytes, mut lat, mut recall) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (city, cat) in queries {
                let r = c.query(0, &key(city, cat));
                msgs.push(r.messages as f64);
                bytes.push(r.bytes as f64);
                lat.push(r.latency_us as f64 / 1000.0);
                recall.push(r.recall(&c.truth(&key(city, cat))));
            }
            let imb = c.stats().receive_imbalance();
            rows.push(row("chord DHT", n, &msgs, &bytes, &lat, &recall, imb));
        }
    }

    print_table(
        &format!("routing comparison: mean per query over {n_queries} discovery queries"),
        &[
            "architecture",
            "n",
            "msgs",
            "KiB",
            "latency ms",
            "recall",
            "imbalance",
        ],
        &rows,
    );
    println!(
        "\nshape check (paper §1/§6): the central index is cheap but its \
         imbalance explodes with n (bottleneck); flooding's messages \
         explode with n, though its 4-hop horizon still reaches every \
         match at these sizes (recall 1.00); the DHT stays O(log n) but \
         only answers exact keys; catalog routing keeps full recall with \
         messages growing far slower than n — at the cost of shipping \
         plans, not 16-byte keys."
    );
}

#[allow(clippy::too_many_arguments)]
fn row(
    name: &str,
    n: usize,
    msgs: &[f64],
    bytes: &[f64],
    lat: &[f64],
    recall: &[f64],
    imbalance: f64,
) -> Vec<String> {
    vec![
        name.to_string(),
        n.to_string(),
        f2(mean(msgs)),
        f2(mean(bytes) / 1024.0),
        f2(mean(lat)),
        f2(mean(recall)),
        f2(imbalance),
    ]
}
