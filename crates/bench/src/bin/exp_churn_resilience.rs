//! E11 — churn resilience: recall and provenance-audit integrity as
//! message loss and peer churn grow, MQP catalog routing (with the
//! timeout/retry + Or-alternative fallback of DESIGN.md §6) vs. the
//! flooding and Chord baselines under the *same* deterministic fault
//! schedule.
//!
//! The paper's mobility argument (§2, §5.1) is that any peer can parse,
//! mutate, and forward an MQP; this experiment exercises that claim
//! under the conditions that make P2P hard. Two runs with the same seed
//! produce byte-identical output — enforced by the `experiments` CI job.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mqp_baselines::{Chord, Flooding};
use mqp_bench::{f2, mean, print_table};
use mqp_namespace::{Cell, InterestArea};
use mqp_net::{FaultPlan, NodeId, Topology};
use mqp_peer::RetryPolicy;
use mqp_workloads::garage::{build, true_holders, GarageConfig, CATEGORIES, CITIES};

/// Per-message loss probability — nonzero at every churn rate.
const LOSS: f64 = 0.02;
/// Delay jitter bound (fraction of base transit time).
const JITTER: f64 = 0.5;
/// Per-message duplication probability.
const DUPLICATE: f64 = 0.01;
/// Crash downtime before a churned peer rejoins (µs).
const DOWNTIME_US: u64 = 5_000_000;
/// Horizon churn events are spread over (µs).
const HORIZON_US: u64 = 60_000_000;
/// Master seed; every derived RNG and fault plan hangs off it.
const SEED: u64 = 0xC1D8;

fn key(city: &str, cat: &str) -> String {
    format!("{city}|{cat}")
}

fn main() {
    let golden = mqp_bench::golden_scale();
    // ≥ 500 simulated peers at full scale (1 client + 2 meta + 8 index
    // + sellers).
    let sellers = if golden { 69 } else { 520 };
    let n = 1 + 2 + 8 + sellers;
    let queries = if golden { 10 } else { 40 };
    let churn_rates: &[f64] = &[0.0, 0.1, 0.25, 0.5];

    // One shared query stream: (city, category) cells.
    let mut qrng = StdRng::seed_from_u64(SEED ^ 1);
    let cells: Vec<(String, String)> = (0..queries)
        .map(|_| {
            (
                CITIES[qrng.gen_range(0..CITIES.len())].to_owned(),
                CATEGORIES[qrng.gen_range(0..CATEGORIES.len())].to_owned(),
            )
        })
        .collect();

    let mut rows = Vec::new();
    for (ri, &rate) in churn_rates.iter().enumerate() {
        let plan_seed = SEED.wrapping_add(ri as u64);
        // Crashable population: everything but the client (node 0) and
        // the meta-index servers (nodes 1–2) — those model the §3.2
        // well-known bootstrap infrastructure.
        let eligible: Vec<NodeId> = (3..n).collect();
        let crashes = (eligible.len() as f64 * rate) as usize;
        let fault_plan = || {
            FaultPlan::new(plan_seed)
                .with_loss(LOSS)
                .with_jitter(JITTER)
                .with_duplication(DUPLICATE)
                .with_generated_churn(&eligible, crashes, HORIZON_US, DOWNTIME_US)
        };

        // --- MQP catalog routing, with retry + Or fallback ---
        {
            let mut w = build(GarageConfig {
                sellers,
                items_per_seller: 3,
                index_servers: 8,
                meta_servers: 2,
                seed: 1,
            });
            w.harness.retry = Some(RetryPolicy {
                timeout_us: 300_000,
                max_retries: 3,
            });
            w.harness.net.set_fault_plan(fault_plan());
            let mut recall = Vec::new();
            let mut audits = (0u64, 0u64); // (clean, audited)
            let mut failed = 0u64;
            let mut stranded = 0u64;
            for (city, cat) in &cells {
                let area = InterestArea::of(Cell::parse([city.as_str(), cat.as_str()]));
                let truth = true_holders(&w, &area);
                w.harness
                    .submit(w.client, mqp_workloads::garage::query_for(city, cat, None));
                w.harness.run(10_000_000);
                let Some(out) = w.harness.take_completed().pop() else {
                    stranded += 1;
                    recall.push(0.0);
                    continue;
                };
                if out.failure.is_some() {
                    failed += 1;
                }
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
                if let Some(clean) = out.audit_clean {
                    audits.1 += 1;
                    if clean {
                        audits.0 += 1;
                    }
                }
            }
            let st = w.harness.net.stats();
            rows.push(vec![
                "catalog (MQP)".to_owned(),
                f2(rate),
                f2(mean(&recall)),
                format!("{}/{}", audits.0, audits.1),
                (failed + stranded).to_string(),
                st.retries.to_string(),
                (st.messages_dropped + st.messages_lost).to_string(),
                st.messages_duplicated.to_string(),
            ]);
        }

        // Common content placement for the discovery baselines.
        let mut prng = StdRng::seed_from_u64(SEED ^ 2);
        let placement: Vec<(NodeId, String, String)> = (1..n)
            .map(|node| {
                (
                    node,
                    CITIES[prng.gen_range(0..CITIES.len())].to_owned(),
                    CATEGORIES[prng.gen_range(0..CATEGORIES.len())].to_owned(),
                )
            })
            .collect();

        // --- Gnutella flooding, horizon 4 ---
        {
            // Index construction runs fault-free for every architecture
            // (the MQP catalog is likewise registered at build time);
            // the fault schedule starts with the query phase.
            let mut f = Flooding::new(Topology::uniform(n, 20_000), 4, 3);
            for (node, city, cat) in &placement {
                f.publish(*node, &key(city, cat));
            }
            let mut f = f.with_faults(fault_plan());
            let mut recall = Vec::new();
            for (city, cat) in &cells {
                let k = key(city, cat);
                let truth = f.truth(&k);
                let r = f.query(0, &k, 4);
                recall.push(r.recall(&truth));
            }
            let st = f.stats();
            rows.push(vec![
                "flooding h=4".to_owned(),
                f2(rate),
                f2(mean(&recall)),
                "-".to_owned(),
                "-".to_owned(),
                st.retries.to_string(),
                (st.messages_dropped + st.messages_lost).to_string(),
                st.messages_duplicated.to_string(),
            ]);
        }

        // --- Chord DHT ---
        {
            let mut c = Chord::new(Topology::uniform(n, 20_000));
            for (node, city, cat) in &placement {
                c.publish(*node, &key(city, cat));
            }
            let mut c = c.with_faults(fault_plan());
            let mut recall = Vec::new();
            for (city, cat) in &cells {
                let k = key(city, cat);
                let truth = c.truth(&k);
                let r = c.query(0, &k);
                recall.push(r.recall(&truth));
            }
            let st = c.stats();
            rows.push(vec![
                "chord DHT".to_owned(),
                f2(rate),
                f2(mean(&recall)),
                "-".to_owned(),
                "-".to_owned(),
                st.retries.to_string(),
                (st.messages_dropped + st.messages_lost).to_string(),
                st.messages_duplicated.to_string(),
            ]);
        }
    }

    print_table(
        &format!(
            "churn resilience: {n} peers, {queries} queries, loss {LOSS}, \
             jitter {JITTER}, duplication {DUPLICATE}",
        ),
        &[
            "architecture",
            "churn",
            "recall",
            "audit ok",
            "failed",
            "retries",
            "drop+loss",
            "dups",
        ],
        &rows,
    );
    println!(
        "\nshape check (§2/§5.1 under adversity): catalog routing fails \
         queries at every churn level above 0.00, and at 0.50 its recall \
         is the lowest of the three (DESIGN.md §8, \"What free acks were \
         hiding\"); the queries it completes stay audit-clean, every \
         detour provenance-visible; flooding's redundancy buys recall at \
         high message cost; the DHT, retrying along its single path per \
         key, keeps recall at 0.93 or better through churn."
    );
}
