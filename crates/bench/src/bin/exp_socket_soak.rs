//! E13 — socket soak: the real-TCP driver (`mqp_peer::tcp`) serving a
//! sustained query stream across hundreds of peers while peers are
//! killed and restarted under it (DESIGN.md §11).
//!
//! The world is the paper's market: a client peer, a meta index, and
//! seller *pairs* — two sellers registered per city, so every Or query
//! over a pair has a live alternative when one member is down. The
//! churn schedule kills exactly one seller at a time, always the even
//! member of a first-half pair, and restarts it at the next window
//! boundary; queries that hit the dead seller must complete anyway via
//! the protocol's own timeout → §4.2 Or-prune → re-route machinery,
//! unchanged from the simulator.
//!
//! The workload interleaves three shapes round-robin:
//!
//! * **Or-pair** — `or(url even, url odd)` over every pair in turn;
//!   the only shape that ever meets the dead seller, by design.
//! * **URL** — direct to an odd (never-killed) seller.
//! * **area** — a city URN over a second-half (never-churned) pair,
//!   resolved at the meta index, answered by both members.
//!
//! Every query must complete (zero failures), every completion must be
//! §5.1 audit-clean, and after shutdown the transport's frame
//! accounting identity must balance exactly — all enforced here. The
//! golden-trace test runs this at `MQP_EXP_SCALE=golden`, twice,
//! byte-identical (timing-dependent counters are elided at golden
//! scale).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_bench::{f2, fmt_ms, golden_scale, paired, print_table};
use mqp_core::QueryOutcome;
use mqp_namespace::Urn;
use mqp_peer::node::RetryPolicy;
use mqp_peer::tcp::{TcpCluster, TcpConfig};

/// Maximum queries in flight; submission pauses to collect past this.
const WINDOW: usize = 64;

/// Node id of the even seller of pair `p` — the only kind of peer the
/// churn schedule ever kills.
fn victim(p: usize) -> usize {
    2 + 2 * p
}

/// The `i`-th query of the stream. Or-pair queries cycle all pairs (and
/// so periodically meet the dead seller); URL and area queries only
/// name peers the schedule never kills, keeping their completion
/// independent of churn timing.
fn plan_for(i: usize, pairs: usize) -> Plan {
    let p = (i / 3) % pairs;
    match i % 3 {
        0 => Plan::or([
            Plan::url(format!("mqp://seller-{}/", 2 * p)),
            Plan::url(format!("mqp://seller-{}/", 2 * p + 1)),
        ]),
        1 => Plan::url(format!("mqp://seller-{}/", 2 * p + 1)),
        _ => Plan::Urn(UrnRef::new(Urn::area(paired::area(
            pairs / 2 + p % (pairs - pairs / 2),
        )))),
    }
}

fn main() {
    let golden = golden_scale();
    let pairs = if golden { 10 } else { 124 };
    let queries = if golden { 240 } else { 20_000 };
    let churn_every = if golden { 30 } else { 500 };
    let peers = 2 + 2 * pairs;
    let first_half = pairs / 2;

    let cfg = TcpConfig {
        retry: Some(RetryPolicy {
            timeout_us: 250_000,
            max_retries: 8,
        }),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(100),
        ..TcpConfig::default()
    };
    let (cluster, mut client) = TcpCluster::with_config(paired::world(pairs), cfg);

    let start = Instant::now();
    let mut done: Vec<QueryOutcome> = Vec::with_capacity(queries);
    let mut downed: Option<usize> = None;
    let mut kills = 0u64;
    for i in 0..queries {
        if i % churn_every == 0 {
            // One peer down at a time: the previous victim rejoins
            // (fresh port, same protocol state) before the next falls.
            if let Some(v) = downed.take() {
                cluster.restart(v);
            }
            let v = victim(kills as usize % first_half);
            cluster.kill(v);
            downed = Some(v);
            kills += 1;
        }
        client.submit(0, &plan_for(i, pairs));
        while i + 1 - done.len() >= WINDOW {
            done.extend(client.collect(1, Duration::from_secs(60)));
        }
    }
    if let Some(v) = downed.take() {
        cluster.restart(v);
    }
    done.extend(client.collect(queries - done.len(), Duration::from_secs(120)));
    let wall = start.elapsed();
    let stats = cluster.shutdown(&mut client);

    let completed = done.len();
    let failed = done.iter().filter(|q| q.failure.is_some()).count();
    let clean = done.iter().filter(|q| q.audit_clean == Some(true)).count();
    let clean_pct = 100.0 * clean as f64 / completed.max(1) as f64;
    let retries: u64 = done.iter().map(|q| q.retries).sum();
    let balanced = stats.balances(0);
    let dropped = stats.dropped_backpressure + stats.dropped_disconnected + stats.abandoned;
    let qps = completed as f64 / wall.as_secs_f64();

    // Timing-dependent counters are elided at golden scale so the
    // golden-trace double run is byte-identical.
    let nat = |v: u64| {
        if golden {
            "-".to_owned()
        } else {
            v.to_string()
        }
    };
    print_table(
        &format!("socket soak: {peers} peers, {queries} queries, kill/restart churn"),
        &["metric", "value"],
        &[
            vec!["peers".into(), peers.to_string()],
            vec!["queries".into(), queries.to_string()],
            vec!["window".into(), WINDOW.to_string()],
            vec!["churn_every".into(), churn_every.to_string()],
            vec!["kills".into(), kills.to_string()],
            vec!["completed".into(), completed.to_string()],
            vec!["failed".into(), failed.to_string()],
            vec!["audit_clean_pct".into(), f2(clean_pct)],
            vec![
                "balanced".into(),
                if balanced { "yes" } else { "no" }.into(),
            ],
            vec!["retries".into(), nat(retries)],
            vec!["connects".into(), nat(stats.connects)],
            vec!["frames_sent".into(), nat(stats.frames_sent)],
            vec!["dropped".into(), nat(dropped)],
            vec!["wall_ms".into(), fmt_ms(wall.as_secs_f64() * 1e3)],
            vec!["throughput_qps".into(), fmt_ms(qps)],
        ],
    );
    println!(
        "\nshape check (DESIGN.md §11): every query completes over real \
         sockets despite {kills} kills — Or queries detour around the dead \
         seller via the protocol's own timeout/prune/re-route machinery, \
         audit-clean, and the transport's frame accounting identity \
         balances exactly after shutdown."
    );

    assert_eq!(completed, queries, "soak stranded queries");
    assert_eq!(failed, 0, "soak queries failed");
    assert_eq!(clean, completed, "soak completions not all audit-clean");
    assert!(balanced, "frame accounting identity broken: {stats:?}");
}
