//! Deterministic fault injection: the adversarial schedule every
//! resilience experiment runs under.
//!
//! A [`FaultPlan`] turns the perfectly reliable [`SimNet`](crate::SimNet)
//! into a lossy, jittery, churning network — while keeping DESIGN.md §5
//! invariant 6 intact: all randomness flows from one seeded `StdRng`
//! whose draws depend only on the send sequence, so identical seeds and
//! identical send sequences yield byte-identical delivery traces.
//!
//! Three independent knobs, each drawn per message at *send* time (never
//! at delivery time, where heap ordering could leak into the draw
//! order):
//!
//! * **loss** — the message vanishes on the wire (counted in
//!   [`NetStats::messages_lost`](crate::NetStats));
//! * **jitter** — extra delay, uniform in `[0, jitter_frac × base
//!   transit]`, which is also what produces reordering between messages
//!   on the same link;
//! * **duplication** — a second copy is enqueued with its own jitter
//!   draw (counted in
//!   [`NetStats::messages_duplicated`](crate::NetStats)).
//!
//! Peer **churn** is a pre-computed schedule of crash/join events
//! ([`ChurnEvent`]) applied as the simulated clock passes each event
//! time; crashes reuse the `fail`/`recover` machinery, so messages to a
//! crashed node drop exactly as manual failure injection always did.
//!
//! Self-sends (`from == to`) bypass all fault knobs: they model local
//! work, not wire traffic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::topology::NodeId;

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Simulated time (µs) the change takes effect.
    pub at: u64,
    /// The node that crashes or rejoins.
    pub node: NodeId,
    /// `false` = crash (node starts dropping deliveries), `true` =
    /// rejoin (node accepts deliveries again).
    pub up: bool,
}

/// Seeded disk-fault knobs, consumed by
/// `mqp_catalog::durable::FaultyDisk` when a crash experiment wants
/// each crash to also exercise the durable catalog's recovery path.
/// They live beside the wire faults but never reach the simulator:
/// disk faults change what a crashed node *remembers*, not what the
/// network delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskFaults {
    /// Mixed into each node's disk RNG (derive per-node seeds from it).
    pub seed: u64,
    /// A crash keeps a seeded prefix of the unsynced WAL tail instead
    /// of dropping it whole — the torn/short-write case.
    pub torn_tail: bool,
    /// Flip one seeded byte of the WAL on read-back (latent sector
    /// corruption surfacing at recovery time).
    pub corrupt_read: bool,
    /// Every Nth fsync fails transiently (0 = never); the WAL layer's
    /// retry helper is expected to absorb these.
    pub sync_fail_period: u64,
}

/// A complete, seeded fault model for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw (loss, jitter, duplication).
    pub seed: u64,
    /// Per-message loss probability on non-self links, in `[0, 1]`.
    pub loss: f64,
    /// Maximum extra delay as a fraction of the link's base transit
    /// time; the draw is uniform in `[0, jitter_frac × base]`.
    pub jitter_frac: f64,
    /// Per-message duplication probability on non-self links.
    pub duplicate: f64,
    /// Crash/join schedule, applied in `(at, node)` order.
    pub churn: Vec<ChurnEvent>,
}

impl FaultPlan {
    /// A fault plan with every knob off — identical behavior to a
    /// reliable network, but with the RNG plumbing installed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            jitter_frac: 0.0,
            duplicate: 0.0,
            churn: Vec::new(),
        }
    }

    /// Sets the per-message loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss = p;
        self
    }

    /// Sets the jitter bound (fraction of base transit time).
    pub fn with_jitter(mut self, frac: f64) -> Self {
        assert!(frac >= 0.0, "jitter fraction must be non-negative");
        self.jitter_frac = frac;
        self
    }

    /// Sets the per-message duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability out of range"
        );
        self.duplicate = p;
        self
    }

    /// Installs an explicit churn schedule (sorted internally).
    pub fn with_churn(mut self, mut events: Vec<ChurnEvent>) -> Self {
        events.sort_by_key(|e| (e.at, e.node, e.up));
        self.churn = events;
        self
    }

    /// Generates a crash/rejoin schedule over the `eligible` nodes:
    /// `crashes` crash events at seeded-uniform times in
    /// `[0, horizon_us)`, each followed by a rejoin `downtime_us` later
    /// (omitted when the crash would outlive the horizon — a permanent
    /// departure). Deterministic in `seed`; the draw order is fixed, so
    /// the schedule is independent of anything the simulation does.
    pub fn with_generated_churn(
        mut self,
        eligible: &[NodeId],
        crashes: usize,
        horizon_us: u64,
        downtime_us: u64,
    ) -> Self {
        assert!(!eligible.is_empty() || crashes == 0, "no eligible nodes");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6368_7572_6e21); // "churn!"
        let mut events = Vec::with_capacity(crashes * 2);
        for _ in 0..crashes {
            let node = eligible[rng.gen_range(0..eligible.len())];
            let at = rng.gen_range(0..horizon_us.max(1));
            events.push(ChurnEvent {
                at,
                node,
                up: false,
            });
            let back = at.saturating_add(downtime_us);
            if back < horizon_us {
                events.push(ChurnEvent {
                    at: back,
                    node,
                    up: true,
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.node, e.up));
        self.churn = events;
        self
    }
}

/// The live state [`SimNet`](crate::SimNet) keeps for an installed plan.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    rng: StdRng,
    next_churn: usize,
}

/// What the send-time draws decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendFate {
    /// Extra delay added to the base transit time.
    pub(crate) jitter_us: u64,
    /// The message is lost on the wire.
    pub(crate) lost: bool,
    /// Extra delay for the duplicate copy, if one was drawn.
    pub(crate) duplicate_jitter_us: Option<u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        let mut plan = plan;
        plan.churn.sort_by_key(|e| (e.at, e.node, e.up));
        FaultState {
            plan,
            rng,
            next_churn: 0,
        }
    }

    /// Draws the fate of one message. The draw order is fixed (jitter,
    /// loss, duplication, duplicate-jitter) and each knob only consumes
    /// randomness when enabled, so traces are stable under adding a
    /// disabled knob.
    pub(crate) fn fate(&mut self, base_transit_us: u64) -> SendFate {
        let max_jitter = (base_transit_us as f64 * self.plan.jitter_frac) as u64;
        let jitter_us = if max_jitter > 0 {
            self.rng.gen_range(0..=max_jitter)
        } else {
            0
        };
        let lost = self.plan.loss > 0.0 && self.rng.gen_bool(self.plan.loss);
        let duplicate = self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate);
        let duplicate_jitter_us = if duplicate {
            Some(if max_jitter > 0 {
                self.rng.gen_range(0..=max_jitter)
            } else {
                0
            })
        } else {
            None
        };
        SendFate {
            jitter_us,
            lost,
            duplicate_jitter_us,
        }
    }

    /// Churn events that take effect at or before `t`, in order.
    /// Advances the schedule cursor.
    pub(crate) fn churn_until(&mut self, t: u64) -> &[ChurnEvent] {
        let start = self.next_churn;
        while self.next_churn < self.plan.churn.len() && self.plan.churn[self.next_churn].at <= t {
            self.next_churn += 1;
        }
        &self.plan.churn[start..self.next_churn]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_knobs() {
        let p = FaultPlan::new(7)
            .with_loss(0.25)
            .with_jitter(1.5)
            .with_duplication(0.1);
        assert_eq!(p.seed, 7);
        assert_eq!(p.loss, 0.25);
        assert_eq!(p.jitter_frac, 1.5);
        assert_eq!(p.duplicate, 0.1);
    }

    #[test]
    fn generated_churn_is_deterministic_and_sorted() {
        let gen = || {
            FaultPlan::new(99)
                .with_generated_churn(&[3, 4, 5, 6], 10, 1_000_000, 100_000)
                .churn
        };
        let a = gen();
        assert_eq!(a, gen());
        assert!(a
            .windows(2)
            .all(|w| (w[0].at, w[0].node) <= (w[1].at, w[1].node)));
        // Every crash either has a matching rejoin or outlives the horizon.
        let downs = a.iter().filter(|e| !e.up).count();
        let ups = a.iter().filter(|e| e.up).count();
        assert_eq!(downs, 10);
        assert!(ups <= downs);
    }

    #[test]
    fn fate_draws_are_deterministic() {
        let plan = FaultPlan::new(5)
            .with_loss(0.3)
            .with_jitter(2.0)
            .with_duplication(0.2);
        let run = || {
            let mut st = FaultState::new(plan.clone());
            (0..50).map(|i| st.fate(1_000 + i * 10)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn churn_cursor_yields_in_order_once() {
        let plan = FaultPlan::new(0).with_churn(vec![
            ChurnEvent {
                at: 50,
                node: 1,
                up: false,
            },
            ChurnEvent {
                at: 10,
                node: 2,
                up: false,
            },
            ChurnEvent {
                at: 60,
                node: 2,
                up: true,
            },
        ]);
        let mut st = FaultState::new(plan);
        let first: Vec<ChurnEvent> = st.churn_until(50).to_vec();
        assert_eq!(first.len(), 2);
        assert_eq!((first[0].at, first[0].node), (10, 2));
        assert_eq!((first[1].at, first[1].node), (50, 1));
        assert!(st.churn_until(50).is_empty());
        assert_eq!(st.churn_until(u64::MAX).len(), 1);
    }

    #[test]
    #[should_panic(expected = "loss probability out of range")]
    fn loss_out_of_range_panics() {
        let _ = FaultPlan::new(0).with_loss(1.5);
    }
}
