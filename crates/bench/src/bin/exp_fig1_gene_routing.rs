//! E1 — Figure 1 ("Of Mice and Men"): interest-area routing over the
//! gene-expression namespace. Regenerates the figure's routing decision
//! table and measures that the irrelevant repository receives zero
//! traffic.

#![forbid(unsafe_code)]

use mqp_bench::print_table;
use mqp_workloads::gene::{build, cardiac_mammal_area, cardiac_query, group_areas};

fn main() {
    let q = cardiac_mammal_area();
    let rows: Vec<Vec<String>> = group_areas()
        .iter()
        .map(|(name, area)| {
            vec![
                name.to_string(),
                area.to_string(),
                if area.overlaps(&q) { "route" } else { "skip" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 1: routing a [Mammalia, Muscle/Cardiac] query",
        &["repository", "interest area", "decision"],
        &rows,
    );

    for records in [5usize, 50, 500] {
        let (mut h, client) = build(records);
        h.submit(client, cardiac_query());
        h.run(1_000_000);
        let done = h.take_completed();
        let qd = &done[0];
        let stats = h.net.stats();
        print_table(
            &format!("measured run ({records} records/cell)"),
            &["metric", "value"],
            &[
                vec!["records returned".into(), qd.items.len().to_string()],
                vec!["hops".into(), qd.hops.to_string()],
                vec!["MQP bytes".into(), qd.mqp_bytes.to_string()],
                vec![
                    "latency (ms)".into(),
                    format!("{:.1}", qd.latency_us as f64 / 1000.0),
                ],
                vec![
                    "messages to fly-lab".into(),
                    stats.per_node[2].1.to_string(),
                ],
                vec![
                    "failure".into(),
                    qd.failure.clone().unwrap_or_else(|| "none".into()),
                ],
            ],
        );
        assert_eq!(stats.per_node[2].1, 0, "fly-lab must receive nothing");
    }
}
