//! E16 — DESIGN.md §14: the multi-origin binding defense under
//! adversarial registration churn. Sweeps hijacker fraction × cluster
//! size over the [`mqp_workloads::adversary`] world (seeded binding
//! hijackers, registration flappers, and honest mirrors as hard
//! negatives), running every configuration twice — defense off, then
//! defense on — and reports:
//!
//! * detection **precision / recall** against seeded ground truth, and
//!   how many honest mirrors were (wrongly) quarantined;
//! * **time to quarantine** (simulated µs from a hijacker's first
//!   observed registration to the strike that quarantined it);
//! * the **poisoned-answer rate** a client sees with the defense off
//!   vs. on;
//! * **verification overhead**: the extra messages and bytes the
//!   count-probe rounds cost (defense-on minus defense-off traffic for
//!   the identical registration schedule).
//!
//! Everything printed is deterministic (simulated time, seeded worlds),
//! so the whole stdout is golden-snapshotted at
//! `MQP_EXP_SCALE=golden`, and the 5%-hijacker rows must clear the
//! precision / recall floors below or the run fails.

#![forbid(unsafe_code)]

use mqp_bench::{f2, print_table};
use mqp_workloads::adversary::{build, AdversaryConfig, DetectionReport};

/// Master seed for world assignment and attacker placement.
const SEED: u64 = 0xD15EA5E;
/// Quarantine precision floor (true hijackers / all quarantined) at the
/// flagship 5%-hijacker workload.
const PRECISION_FLOOR: f64 = 0.95;
/// Quarantine recall floor (detected hijackers / all hijackers) there.
const RECALL_FLOOR: f64 = 0.90;

struct MoasRow {
    peers: usize,
    fraction: f64,
    detection: DetectionReport,
    poisoned_off: f64,
    poisoned_on: f64,
    verify_msgs: u64,
    verify_bytes: u64,
}

/// Runs one configuration twice — defense off, then on — over the
/// identical registration schedule, and diffs the traffic.
fn run_pair(sellers: usize, fraction: f64) -> MoasRow {
    let config = AdversaryConfig {
        sellers,
        cities: 0,
        seed: SEED,
        hijacker_fraction: fraction,
        defense: false,
    };
    let mut off = build(config);
    off.run_schedule();
    let off_msgs = off.harness.net.stats().messages_sent;
    let off_bytes = off.harness.net.stats().bytes_sent;
    let poisoned_off = off.run_queries();

    let mut on = build(AdversaryConfig {
        defense: true,
        ..config
    });
    let peers = on.harness.len();
    on.run_schedule();
    let on_msgs = on.harness.net.stats().messages_sent;
    let on_bytes = on.harness.net.stats().bytes_sent;
    let detection = on.detection_report();
    let poisoned_on = on.run_queries();

    MoasRow {
        peers,
        fraction,
        detection,
        poisoned_off: poisoned_off.rate(),
        poisoned_on: poisoned_on.rate(),
        verify_msgs: on_msgs - off_msgs,
        verify_bytes: on_bytes - off_bytes,
    }
}

impl MoasRow {
    fn cells(&self) -> Vec<String> {
        vec![
            self.peers.to_string(),
            format!("{:.0}%", self.fraction * 100.0),
            format!("{}/{}", self.detection.detected, self.detection.hijackers),
            f2(self.detection.precision),
            f2(self.detection.recall),
            self.detection.mirrors_quarantined.to_string(),
            f2(self.detection.mean_time_to_quarantine_us / 1_000.0),
            f2(self.poisoned_off),
            f2(self.poisoned_on),
            self.verify_msgs.to_string(),
            self.verify_bytes.to_string(),
        ]
    }
}

fn main() {
    let golden = mqp_bench::golden_scale();
    let sizes: &[usize] = if golden { &[400] } else { &[1_000, 10_000] };
    let fractions: &[f64] = if golden {
        &[0.05, 0.10]
    } else {
        &[0.02, 0.05, 0.10]
    };

    let mut rows = Vec::new();
    for &sellers in sizes {
        for &fraction in fractions {
            let row = run_pair(sellers, fraction);
            // Hard negatives are non-negotiable at every configuration:
            // an honest mirror in quarantine means the defense is
            // confusing redundancy with hijacking.
            assert_eq!(
                row.detection.mirrors_quarantined, 0,
                "honest mirrors quarantined at {sellers} sellers / {fraction} fraction"
            );
            // The floors hold at the flagship 5% fraction.
            if (fraction - 0.05).abs() < 1e-9 {
                assert!(
                    row.detection.precision >= PRECISION_FLOOR,
                    "precision {} below floor at {sellers} sellers",
                    row.detection.precision
                );
                assert!(
                    row.detection.recall >= RECALL_FLOOR,
                    "recall {} below floor at {sellers} sellers",
                    row.detection.recall
                );
                assert!(
                    row.poisoned_on <= row.poisoned_off,
                    "defense increased poisoning at {sellers} sellers"
                );
            }
            rows.push(row.cells());
        }
    }

    print_table(
        "moas: defense under adversarial registration churn",
        &[
            "peers",
            "hijack",
            "detected",
            "prec",
            "recall",
            "mirrorsQ",
            "ttq ms",
            "poison off",
            "poison on",
            "verify msgs",
            "verify bytes",
        ],
        &rows,
    );

    println!(
        "\nshape check (DESIGN.md §14): conflicting registrations trigger \
         count-probe verification rounds; hijackers holding divergent data \
         accumulate strikes and land in quarantine (precision/recall vs \
         seeded ground truth above), honest mirrors answer consistently and \
         stay trusted, and quarantine prunes the poisoned Or-alternatives a \
         defenseless client would have consumed. The verify columns are the \
         whole price: probe frames riding the existing wire protocol."
    );
}
