//! E13 — DESIGN.md §10: the six-digit scale sweep. One process runs
//! 1k → 10k → 100k-peer federations (stretch: 1M behind
//! `MQP_EXP_SCALE=stretch`) through MQP catalog routing, sparse
//! flooding, and Chord — clean and under churn — then measures the two
//! capacity floors: peers per GB of resident memory and scheduler
//! events per second.
//!
//! Everything printed to stdout is deterministic (event counts, peer
//! counts, recall, message counts); machine-dependent values (RSS,
//! wall time) are elided at golden scale; at full scale the two
//! capacity numbers must clear their floors or the run fails.

#![forbid(unsafe_code)]

use mqp_baselines::{Chord, Flooding};
use mqp_bench::{f2, fmt_ms, mean, print_table, scale_report};
use mqp_net::{FaultPlan, NodeId};
use mqp_peer::RetryPolicy;
use mqp_workloads::scale::{build, ScaleConfig, ScaleWorld, CATEGORIES};

/// Master seed for world assignment and fault schedules.
const SEED: u64 = 0x5CA1E;
/// Per-message loss under the churn variant.
const LOSS: f64 = 0.02;
/// Crash downtime before a churned seller rejoins (µs).
const DOWNTIME_US: u64 = 5_000_000;
/// Horizon churn events are spread over (µs).
const HORIZON_US: u64 = 60_000_000;
/// Flooding horizon (hops).
const FLOOD_HORIZON: u32 = 4;
/// Scheduler-soak event target at full scale.
const SOAK_EVENTS: u64 = 2_000_000;
/// Capacity floor: fully-materialized peers one GB of RSS must hold.
const PEERS_PER_GB_FLOOR: f64 = 100_000.0;
/// Capacity floor: scheduler events per second `SimNet`'s binary heap
/// must sustain under the soak — under half its slowest measured soak
/// and above the fastest soak of the bucket queue it replaced
/// (DESIGN.md §10).
const EVENTS_PER_SEC_FLOOR: f64 = 4_400_000.0;

fn stretch_scale() -> bool {
    std::env::var("MQP_EXP_SCALE")
        .map(|v| v == "stretch")
        .unwrap_or(false)
}

/// The shared query stream for one world size: (city, category) cells
/// that some seller actually serves, spread across the seller range.
fn query_cells(w: &ScaleWorld, n_queries: usize) -> Vec<(usize, usize)> {
    (0..n_queries)
        .map(|q| {
            let s = q * w.sellers / n_queries;
            (w.seller_city(s), w.seller_category(s))
        })
        .collect()
}

fn flood_key(city: usize, cat: usize) -> String {
    format!("C{city}|{}", CATEGORIES[cat])
}

struct SweepRow {
    arch: &'static str,
    completed: usize,
    recall: f64,
    msgs: f64,
    materialized: Option<usize>,
    events: u64,
    peak_queue: u64,
}

impl SweepRow {
    fn cells(&self, peers: usize, n_queries: usize) -> Vec<String> {
        vec![
            self.arch.to_owned(),
            peers.to_string(),
            format!("{}/{n_queries}", self.completed),
            f2(self.recall),
            f2(self.msgs),
            self.materialized
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_owned()),
            self.events.to_string(),
            self.peak_queue.to_string(),
        ]
    }
}

/// Runs the MQP discovery queries against a fresh lazy world; `faults`
/// switches on the churn variant (loss + seller crashes, with retry).
fn run_mqp(sellers: usize, cells: &[(usize, usize)], faults: bool) -> SweepRow {
    let mut w = build(ScaleConfig {
        sellers,
        cities: 0,
        seed: SEED,
    });
    if faults {
        let eligible: Vec<NodeId> = (0..sellers.min(10_000)).map(|s| w.seller_node(s)).collect();
        let crashes = (sellers / 10).clamp(4, 200);
        w.harness.retry = Some(RetryPolicy {
            timeout_us: 300_000,
            max_retries: 3,
        });
        w.harness.net.set_fault_plan(
            FaultPlan::new(SEED ^ 0xC4)
                .with_loss(LOSS)
                .with_generated_churn(&eligible, crashes, HORIZON_US, DOWNTIME_US),
        );
    }
    let mut msgs = Vec::new();
    let mut recall = Vec::new();
    let mut completed = 0;
    for &(city, cat) in cells {
        let truth: Vec<String> = w
            .true_holders(city, cat)
            .iter()
            .map(|&node| format!("seller-{}", node - 2 - w.cities))
            .collect();
        let before = w.harness.net.stats().messages_sent;
        w.harness.submit(w.client, w.query(city, cat));
        w.harness.run(10_000_000);
        msgs.push((w.harness.net.stats().messages_sent - before) as f64);
        if let Some(out) = w.harness.take_completed().pop() {
            if out.failure.is_none() {
                completed += 1;
            }
            let seen: std::collections::BTreeSet<String> =
                out.items.iter().filter_map(|i| i.field("seller")).collect();
            let r = if truth.is_empty() {
                1.0
            } else {
                truth.iter().filter(|t| seen.contains(*t)).count() as f64 / truth.len() as f64
            };
            recall.push(r);
        } else {
            recall.push(0.0);
        }
    }
    // The accounting identity holds even mid-churn: every sent message
    // is delivered, dropped, lost, or still queued.
    let stats = w.harness.net.stats();
    assert!(
        stats.balances(w.harness.net.in_flight()),
        "message accounting identity violated at {sellers} sellers"
    );
    SweepRow {
        arch: if faults { "MQP + churn" } else { "MQP" },
        completed,
        recall: mean(&recall),
        msgs: mean(&msgs),
        materialized: Some(w.harness.materialized()),
        events: stats.events_processed,
        peak_queue: stats.peak_queue_depth,
    }
}

/// Sparse-overlay flooding over the same placement: each seller
/// publishes its (city × category) key; queries flood from node 0.
fn run_flood(w: &ScaleWorld, cells: &[(usize, usize)], faults: bool) -> SweepRow {
    let sellers = w.sellers;
    let topology = mqp_net::Topology::clustered(sellers, w.cities.min(sellers), 1_000, 40_000)
        .with_bandwidth(100.0);
    let mut f = Flooding::sparse(topology, 4, SEED);
    if faults {
        let eligible: Vec<NodeId> = (0..sellers.min(10_000)).collect();
        let crashes = (sellers / 10).clamp(4, 200);
        f = f.with_faults(
            FaultPlan::new(SEED ^ 0xC4)
                .with_loss(LOSS)
                .with_generated_churn(&eligible, crashes, HORIZON_US, DOWNTIME_US),
        );
    }
    for s in 0..sellers {
        f.publish(s, &flood_key(w.seller_city(s), w.seller_category(s)));
    }
    let (mut msgs, mut recall) = (Vec::new(), Vec::new());
    let mut completed = 0;
    for &(city, cat) in cells {
        let key = flood_key(city, cat);
        let r = f.query(0, &key, FLOOD_HORIZON);
        if !r.holders.is_empty() {
            completed += 1;
        }
        recall.push(r.recall(&f.truth(&key)));
        msgs.push(r.messages as f64);
    }
    let stats = f.stats();
    SweepRow {
        arch: if faults {
            "flood h=4 + churn"
        } else {
            "flood h=4"
        },
        completed,
        recall: mean(&recall),
        msgs: mean(&msgs),
        materialized: None,
        events: stats.events_processed,
        peak_queue: stats.peak_queue_depth,
    }
}

/// Chord over the same placement: keys are the exact cell strings.
fn run_chord(w: &ScaleWorld, cells: &[(usize, usize)]) -> SweepRow {
    let sellers = w.sellers;
    let topology = mqp_net::Topology::clustered(sellers, w.cities.min(sellers), 1_000, 40_000)
        .with_bandwidth(100.0);
    let mut c = Chord::new(topology);
    for s in 0..sellers {
        c.publish(s, &flood_key(w.seller_city(s), w.seller_category(s)));
    }
    let (mut msgs, mut recall) = (Vec::new(), Vec::new());
    let mut completed = 0;
    for &(city, cat) in cells {
        let key = flood_key(city, cat);
        let r = c.query(0, &key);
        if !r.holders.is_empty() {
            completed += 1;
        }
        recall.push(r.recall(&c.truth(&key)));
        msgs.push(r.messages as f64);
    }
    let stats = c.stats();
    SweepRow {
        arch: "chord DHT",
        completed,
        recall: mean(&recall),
        msgs: mean(&msgs),
        materialized: None,
        events: stats.events_processed,
        peak_queue: stats.peak_queue_depth,
    }
}

fn main() {
    let golden = mqp_bench::golden_scale();
    let stretch = stretch_scale();
    let sizes: &[usize] = if golden {
        &[400]
    } else if stretch {
        &[1_000, 10_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let n_queries = if golden { 4 } else { 12 };
    let (soak_n, soak_window, soak_target) = if golden {
        (1_000, 64, 20_000)
    } else {
        (10_000, 256, SOAK_EVENTS)
    };

    // Memory probe first, at the largest size, before any other phase
    // allocates: freed allocations stay in the process's RSS, so a
    // later delta would undercount and flatter the bytes-per-peer
    // number.
    let probe_sellers = *sizes.last().unwrap();
    let report = scale_report::measure(probe_sellers, soak_n, soak_window, soak_target);
    print_table(
        "scale: memory at full materialization",
        &["sellers", "peers", "bytes/peer", "peers/GB"],
        &[vec![
            report.sellers.to_string(),
            report.peers.to_string(),
            fmt_ms(report.bytes_per_peer),
            fmt_ms(report.peers_per_gb),
        ]],
    );

    // Discovery sweep across sizes and architectures.
    let mut rows = Vec::new();
    for &sellers in sizes {
        let w = build(ScaleConfig {
            sellers,
            cities: 0,
            seed: SEED,
        });
        let peers = w.harness.len();
        let cells = query_cells(&w, n_queries);
        rows.push(run_mqp(sellers, &cells, false).cells(peers, n_queries));
        rows.push(run_mqp(sellers, &cells, true).cells(peers, n_queries));
        rows.push(run_flood(&w, &cells, false).cells(peers, n_queries));
        rows.push(run_flood(&w, &cells, true).cells(peers, n_queries));
        rows.push(run_chord(&w, &cells).cells(peers, n_queries));
    }
    print_table(
        &format!("scale sweep: {n_queries} discovery queries per size"),
        &[
            "architecture",
            "peers",
            "done",
            "recall",
            "msgs",
            "matl",
            "events",
            "peak q",
        ],
        &rows,
    );

    // Scheduler soak: raw event-queue throughput (measured up top
    // with the memory probe; the event count is deterministic).
    print_table(
        "scale: scheduler soak",
        &["nodes", "events", "events/sec"],
        &[vec![
            soak_n.to_string(),
            report.soak_events.to_string(),
            fmt_ms(report.events_per_sec),
        ]],
    );

    println!(
        "\nshape check (DESIGN.md §10): MQP materializes only the peers a \
         query touches while recall stays 1.0 clean; flooding's horizon \
         caps recall as the world grows; Chord stays exact-match. The \
         memory and soak numbers are held to the capacity floors at full scale."
    );

    if !golden {
        // A zero RSS delta means `/proc/self/status` was unreadable:
        // there is no memory number to hold to the floor.
        assert!(
            report.peers_per_gb == 0.0 || report.peers_per_gb >= PEERS_PER_GB_FLOOR,
            "{:.0} peers/GB is under the {PEERS_PER_GB_FLOOR:.0} floor",
            report.peers_per_gb
        );
        assert!(
            report.events_per_sec >= EVENTS_PER_SEC_FLOOR,
            "{:.0} scheduler events/sec is under the {EVENTS_PER_SEC_FLOOR:.0} floor",
            report.events_per_sec
        );
    }
}
