//! # mqp-bench — the experiment harness
//!
//! One binary per paper figure / claim (see DESIGN.md §3 for the
//! experiment index and what each one found):
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_fig1_gene_routing` | Figure 1 routing decisions |
//! | `exp_fig2_pipeline` | Figure 2 stage costs |
//! | `exp_fig3_mqp_trace` | Figures 3–4 hop-by-hop evaluation |
//! | `exp_fig5_namespace_routing` | Figure 5 / §3.4 routing + caches |
//! | `exp_routing_comparison` | §1/§6 catalog vs. Napster/Gnutella/DHT |
//! | `exp_rewrite_ablation` | §2 absorption rewrite |
//! | `exp_intensional_redundancy` | §4.2 Examples 1–3 |
//! | `exp_currency_latency` | §4.3 tradeoff |
//! | `exp_provenance_spoofing` | §5.1 spoofing detection |
//! | `exp_index_detail_tradeoff` | §3.2 index vs. meta-index detail |
//! | `exp_churn_resilience` | §2/§5.1 recall + audits under churn |
//! | `exp_threaded_throughput` | DESIGN.md §8 real-thread scaling |
//! | `exp_scale` | DESIGN.md §10 six-digit sweep + capacity floors |
//! | `exp_socket_soak` | DESIGN.md §11 real-TCP cluster soak under churn |
//! | `exp_crash_recovery` | DESIGN.md §12 WAL crash recovery under disk faults |
//! | `exp_lang` | DESIGN.md §13 `.mqpq` / `.mqpp` front-end |
//! | `exp_moas` | DESIGN.md §14 multi-origin binding defense (E16) |
//!
//! Run any of them with
//! `cargo run -p mqp-bench --release --bin <name>`. Performance is
//! measured separately, by the `benchmark/` package.

/// True when the `exp_*` binaries should run at the reduced, fully
/// deterministic *golden* scale (`MQP_EXP_SCALE=golden`): smaller
/// sweeps, and wall-clock measurements elided. The golden-trace
/// regression tests (`crates/bench/tests/golden.rs`) snapshot every
/// binary's stdout at this scale under `tests/golden/`.
pub fn golden_scale() -> bool {
    std::env::var("MQP_EXP_SCALE")
        .map(|v| v == "golden")
        .unwrap_or(false)
}

/// Formats a wall-clock measurement (milliseconds): elided under
/// [`golden_scale`] so snapshots stay byte-identical across machines.
pub fn fmt_ms(ms: f64) -> String {
    if golden_scale() {
        "-".to_owned()
    } else {
        f2(ms)
    }
}

/// Prints a fixed-width ASCII table (the format the golden snapshots pin).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Memory and scheduler probes behind the scale sweep (`exp_scale`,
/// DESIGN.md §10). Everything here separates cleanly into a
/// deterministic part (event and peer counts) and a machine-dependent
/// part (RSS, wall time) so the golden snapshots can keep the former
/// and elide the latter.
pub mod probe {
    use std::time::Instant;

    use mqp_net::{SimNet, Topology};
    use mqp_workloads::scale::ScaleWorld;

    /// Resident set size of this process in bytes (`VmRSS` from
    /// `/proc/self/status`); `None` off Linux.
    pub(crate) fn rss_bytes() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }

    /// Forces every peer in a lazy scale world into existence (the
    /// honest denominator for a bytes-per-peer measurement) and returns
    /// how many exist afterwards.
    pub(crate) fn materialize_all(w: &mut ScaleWorld) -> usize {
        for node in 0..w.harness.len() {
            w.harness.peer_mut(node);
        }
        w.harness.materialized()
    }

    /// Calendar-queue soak: keeps `window` messages circulating among
    /// `n` nodes until `target_events` scheduler events have been
    /// processed, then lets the queue drain. Returns the exact event
    /// count (deterministic) and the wall seconds it took (not).
    pub(crate) fn scheduler_soak(n: usize, window: usize, target_events: u64) -> (u64, f64) {
        let mut net: SimNet<u32> = SimNet::new(Topology::uniform(n, 1_000));
        let t0 = Instant::now();
        for i in 0..window {
            net.send(i % n, (i + 1) % n, 16, 0);
        }
        while let Some(d) = net.step() {
            if net.stats().events_processed < target_events {
                // Deterministic pointer chase: a fixed odd stride visits
                // every node, so the soak spreads across the topology.
                net.send(d.to, (d.to + 7) % n, 16, d.payload.wrapping_add(1));
            }
        }
        (net.stats().events_processed, t0.elapsed().as_secs_f64())
    }
}

/// The measured capacity numbers `exp_scale` prints and holds to its
/// floors.
pub mod scale_report {
    use crate::probe;

    /// One scale measurement: memory at full materialization plus the
    /// scheduler soak.
    pub struct ScaleReport {
        /// Sellers in the probed world.
        pub sellers: usize,
        /// Total peers materialized (client + meta + indexes + sellers).
        pub peers: usize,
        /// RSS delta per peer; 0 when `/proc/self/status` is missing.
        pub bytes_per_peer: f64,
        /// 1 GB / bytes_per_peer.
        pub peers_per_gb: f64,
        /// Exact (deterministic) soak event count.
        pub soak_events: u64,
        /// Soak throughput (machine-dependent).
        pub events_per_sec: f64,
    }

    /// Measures a fresh world. Call this *before* anything else
    /// allocates heavily: freed allocations stay in the process RSS, so
    /// a late delta undercounts and flatters bytes-per-peer.
    pub fn measure(
        sellers: usize,
        soak_n: usize,
        soak_window: usize,
        soak_target: u64,
    ) -> ScaleReport {
        let (peers, bytes_per_peer, peers_per_gb) = {
            let mut w = mqp_workloads::scale::build(mqp_workloads::scale::ScaleConfig {
                sellers,
                cities: 0,
                seed: 0x5CA1E,
            });
            let before = probe::rss_bytes().unwrap_or(0);
            let peers = probe::materialize_all(&mut w);
            let after = probe::rss_bytes().unwrap_or(0);
            let delta = after.saturating_sub(before);
            if delta == 0 || peers == 0 {
                (peers, 0.0, 0.0)
            } else {
                let per_peer = delta as f64 / peers as f64;
                (peers, per_peer, 1e9 / per_peer)
            }
        };
        let (soak_events, soak_wall) = probe::scheduler_soak(soak_n, soak_window, soak_target);
        ScaleReport {
            sellers,
            peers,
            bytes_per_peer,
            peers_per_gb,
            soak_events,
            events_per_sec: if soak_wall > 0.0 {
                soak_events as f64 / soak_wall
            } else {
                0.0
            },
        }
    }
}

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }
}
