//! The discrete-event simulator core.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use crate::fault::{FaultPlan, FaultState};
use crate::stats::NetStats;
use crate::topology::Topology;

pub use crate::topology::NodeId;

/// A message delivered by [`SimNet::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Simulated delivery time in microseconds.
    pub at: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload size charged to the network.
    pub bytes: usize,
    /// The payload.
    pub payload: P,
    /// True for local timer events scheduled with [`SimNet::schedule`]
    /// — they carry no bytes and are invisible to message accounting.
    pub timer: bool,
}

/// One scheduled event; ordered by `(at, seq)` only, so ties break in
/// send order — the property that makes runs reproducible.
struct Event<P> {
    at: u64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    bytes: usize,
    payload: P,
    /// Timer events bypass fault injection and message accounting.
    timer: bool,
}

impl<P> PartialEq for Event<P> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<P> Eq for Event<P> {}

impl<P> PartialOrd for Event<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Event<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event network over a [`Topology`].
///
/// Drive it caller-side:
///
/// ```
/// use mqp_net::{SimNet, Topology};
///
/// let mut net: SimNet<&'static str> = SimNet::new(Topology::uniform(3, 1_000));
/// net.send(0, 1, 64, "hello");
/// while let Some(d) = net.step() {
///     if d.payload == "hello" {
///         net.send(d.to, 2, 64, "onward");
///     }
/// }
/// assert_eq!(net.stats().messages_delivered, 2);
/// assert_eq!(net.now(), 2_000);
/// ```
///
/// With a [`FaultPlan`] installed (see [`SimNet::set_fault_plan`]) the
/// network injects seeded loss, jitter, duplication, and churn — still
/// byte-for-byte deterministic for a given seed and send sequence.
pub struct SimNet<P> {
    topology: Topology,
    queue: BinaryHeap<Reverse<Event<P>>>,
    now: u64,
    seq: u64,
    down: HashSet<NodeId>,
    stats: NetStats,
    faults: Option<FaultState>,
    /// Non-timer messages currently queued (in flight).
    in_flight: usize,
    /// Plan-driven churn transitions applied by [`SimNet::step`], for
    /// the host to drain ([`SimNet::drain_churn`]) — how a driver
    /// learns "node 7 just crashed / just rejoined" so it can run the
    /// node's own crash/recovery machinery (durable catalog replay).
    churn_log: Vec<crate::fault::ChurnEvent>,
}

impl<P> SimNet<P> {
    /// A fresh network at time 0.
    pub fn new(topology: Topology) -> Self {
        let stats = NetStats::new(topology.len());
        SimNet {
            topology,
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            down: HashSet::new(),
            stats,
            faults: None,
            in_flight: 0,
            churn_log: Vec::new(),
        }
    }

    /// Builds a network with a fault plan installed.
    pub fn with_faults(topology: Topology, plan: FaultPlan) -> Self {
        let mut net = SimNet::new(topology);
        net.set_fault_plan(plan);
        net
    }

    /// Installs (or replaces) the fault plan. Messages already in
    /// flight keep the fate they were drawn at send time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// The simulated clock (µs): time of the last delivery (or 0).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable statistics — hosts use this to record protocol-level
    /// events (retries) the raw network cannot see.
    pub fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }

    /// Schedules a local timer at `node`, firing `delay_us` from now.
    /// Timers are not messages: they carry no bytes, bypass fault
    /// injection, and are skipped silently (not counted as drops) if
    /// the node is down when they fire.
    pub fn schedule(&mut self, node: NodeId, delay_us: u64, payload: P) {
        self.queue.push(Reverse(Event {
            at: self.now + delay_us,
            seq: self.seq,
            from: node,
            to: node,
            bytes: 0,
            payload,
            timer: true,
        }));
        self.seq += 1;
        self.note_depth();
    }

    fn enqueue_msg(&mut self, at: u64, from: NodeId, to: NodeId, bytes: usize, payload: P) {
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            from,
            to,
            bytes,
            payload,
            timer: false,
        }));
        self.seq += 1;
        self.in_flight += 1;
        self.note_depth();
    }

    fn note_depth(&mut self) {
        let depth = self.queue.len() as u64;
        if depth > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = depth;
        }
    }

    /// Delivers the next event, advancing the clock. Messages to down
    /// nodes are dropped (counted) and the next live delivery is
    /// returned; timers at down nodes are discarded silently. `None`
    /// when the queue is empty.
    pub fn step(&mut self) -> Option<Delivery<P>> {
        loop {
            // Apply churn that takes effect before (or exactly at) the
            // next event: a node crashed at t drops deliveries at t.
            let next_at = self.queue.peek()?.0.at;
            if let Some(f) = &mut self.faults {
                for ev in f.churn_until(next_at) {
                    if ev.up {
                        self.down.remove(&ev.node);
                    } else {
                        self.down.insert(ev.node);
                    }
                    self.churn_log.push(*ev);
                }
            }
            let Reverse(ev) = self.queue.pop().expect("peeked above");
            self.now = self.now.max(ev.at);
            self.stats.events_processed += 1;
            if ev.timer {
                if self.down.contains(&ev.to) {
                    continue; // dead node's timer: discard silently
                }
                return Some(Delivery {
                    at: ev.at,
                    from: ev.from,
                    to: ev.to,
                    bytes: 0,
                    payload: ev.payload,
                    timer: true,
                });
            }
            self.in_flight -= 1;
            if self.down.contains(&ev.to) {
                self.stats.messages_dropped += 1;
                continue;
            }
            self.stats.messages_delivered += 1;
            self.stats.bytes_delivered += ev.bytes as u64;
            self.stats.per_node[ev.to].1 += 1;
            return Some(Delivery {
                at: ev.at,
                from: ev.from,
                to: ev.to,
                bytes: ev.bytes,
                payload: ev.payload,
                timer: false,
            });
        }
    }

    /// Runs the network dry, discarding deliveries. Returns how many
    /// were delivered.
    pub fn drain(&mut self) -> usize {
        let mut n = 0;
        while self.step().is_some() {
            n += 1;
        }
        n
    }

    /// Marks a node down: deliveries to it are dropped until
    /// [`SimNet::recover`].
    pub fn fail(&mut self, node: NodeId) {
        self.down.insert(node);
    }

    /// Brings a node back.
    pub fn recover(&mut self, node: NodeId) {
        self.down.remove(&node);
    }

    /// True if the node is currently down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// Number of messages waiting in flight (timers excluded).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Drains the log of plan-driven churn transitions applied since
    /// the last drain, in application order. Manual [`SimNet::fail`] /
    /// [`SimNet::recover`] calls are not logged — the caller made those
    /// itself and can run its own crash/recovery hooks directly.
    pub fn drain_churn(&mut self) -> Vec<crate::fault::ChurnEvent> {
        std::mem::take(&mut self.churn_log)
    }
}

impl<P: Clone> SimNet<P> {
    /// Sends a message; it will be delivered after the topology's
    /// transit time (plus any fault-plan jitter), unless the fault plan
    /// loses it or the destination is down at delivery time. Self-sends
    /// bypass fault injection entirely.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: usize, payload: P) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.per_node[from].0 += 1;
        let base = self.topology.transit_time(from, to, bytes);
        let fate = match &mut self.faults {
            Some(f) if from != to => Some(f.fate(base)),
            _ => None,
        };
        let Some(fate) = fate else {
            self.enqueue_msg(self.now + base, from, to, bytes, payload);
            return;
        };
        // The fate is fully drawn before any copy is constructed: the
        // payload is cloned only when both the duplicate *and* the
        // original actually enter the queue. (The duplicate keeps the
        // earlier sequence number either way, so traces are unchanged.)
        if let Some(dup_jitter) = fate.duplicate_jitter_us {
            // The duplicate is a full extra copy: counted as sent so
            // the accounting identity stays exact.
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            self.stats.per_node[from].0 += 1;
            self.stats.messages_duplicated += 1;
            let dup_at = self.now + base + dup_jitter;
            if fate.lost {
                self.stats.messages_lost += 1;
                self.enqueue_msg(dup_at, from, to, bytes, payload);
            } else {
                self.enqueue_msg(dup_at, from, to, bytes, payload.clone());
                self.enqueue_msg(self.now + base + fate.jitter_us, from, to, bytes, payload);
            }
            return;
        }
        if fate.lost {
            self.stats.messages_lost += 1;
            return;
        }
        self.enqueue_msg(self.now + base + fate.jitter_us, from, to, bytes, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChurnEvent;

    fn net(n: usize, lat: u64) -> SimNet<u32> {
        SimNet::new(Topology::uniform(n, lat))
    }

    #[test]
    fn delivery_order_by_time_then_seq() {
        let mut s = SimNet::new(Topology::clustered(4, 2, 10, 1000));
        s.send(0, 1, 0, 1); // inter: at 1000
        s.send(0, 2, 0, 2); // intra: at 10
        s.send(0, 2, 0, 3); // intra: at 10, later seq
        let d1 = s.step().unwrap();
        let d2 = s.step().unwrap();
        let d3 = s.step().unwrap();
        assert_eq!((d1.payload, d1.at), (2, 10));
        assert_eq!((d2.payload, d2.at), (3, 10));
        assert_eq!((d3.payload, d3.at), (1, 1000));
        assert_eq!(s.now(), 1000);
    }

    #[test]
    fn clock_advances_with_chained_sends() {
        let mut s = net(3, 100);
        s.send(0, 1, 0, 0);
        let d = s.step().unwrap();
        assert_eq!(d.at, 100);
        s.send(d.to, 2, 0, 1);
        let d2 = s.step().unwrap();
        assert_eq!(d2.at, 200);
    }

    #[test]
    fn failed_node_drops() {
        let mut s = net(2, 10);
        s.fail(1);
        s.send(0, 1, 5, 7);
        assert!(s.step().is_none());
        assert_eq!(s.stats().messages_dropped, 1);
        assert_eq!(s.stats().messages_delivered, 0);
        s.recover(1);
        s.send(0, 1, 5, 8);
        assert_eq!(s.step().unwrap().payload, 8);
    }

    #[test]
    fn stats_account_bytes_and_per_node() {
        let mut s = net(3, 10);
        s.send(0, 1, 100, 0);
        s.send(1, 2, 50, 1);
        s.drain();
        let st = s.stats();
        assert_eq!(st.messages_sent, 2);
        assert_eq!(st.bytes_sent, 150);
        assert_eq!(st.bytes_delivered, 150);
        assert_eq!(st.per_node[0], (1, 0));
        assert_eq!(st.per_node[1], (1, 1));
        assert_eq!(st.per_node[2], (0, 1));
    }

    #[test]
    fn determinism_same_sends_same_trace() {
        let run = || {
            let mut s = SimNet::new(Topology::clustered(10, 3, 5, 500).with_bandwidth(1.0));
            for i in 0..10usize {
                s.send(i, (i * 7 + 3) % 10, i * 13, i as u32);
            }
            let mut trace = Vec::new();
            while let Some(d) = s.step() {
                trace.push((d.at, d.from, d.to, d.payload));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn self_send_is_instant() {
        let mut s = net(2, 1000);
        s.send(0, 0, 10, 9);
        let d = s.step().unwrap();
        assert_eq!(d.at, 0);
    }

    #[test]
    fn total_loss_loses_everything_nonlocal() {
        let mut s = net(3, 100);
        s.set_fault_plan(FaultPlan::new(1).with_loss(1.0));
        s.send(0, 1, 10, 1);
        s.send(1, 2, 10, 2);
        s.send(2, 2, 10, 3); // self-send: immune
        assert_eq!(s.step().unwrap().payload, 3);
        assert!(s.step().is_none());
        let st = s.stats();
        assert_eq!(st.messages_sent, 3);
        assert_eq!(st.messages_lost, 2);
        assert_eq!(st.messages_delivered, 1);
        assert_eq!(s.in_flight(), 0);
        assert!(st.balances(s.in_flight()));
    }

    #[test]
    fn duplication_delivers_twice_and_balances() {
        let mut s = net(2, 100);
        s.set_fault_plan(FaultPlan::new(1).with_duplication(1.0));
        s.send(0, 1, 10, 7);
        let d1 = s.step().unwrap();
        let d2 = s.step().unwrap();
        assert_eq!((d1.payload, d2.payload), (7, 7));
        assert!(s.step().is_none());
        let st = s.stats();
        assert_eq!(st.messages_sent, 2); // original + copy
        assert_eq!(st.messages_duplicated, 1);
        assert_eq!(st.messages_delivered, 2);
        assert!(st.balances(s.in_flight()));
    }

    #[test]
    fn jitter_delays_but_preserves_payloads() {
        let mut s = net(2, 1_000);
        s.set_fault_plan(FaultPlan::new(3).with_jitter(2.0));
        for i in 0..20u32 {
            s.send(0, 1, 0, i);
        }
        let mut got = Vec::new();
        while let Some(d) = s.step() {
            assert!(d.at >= 1_000 && d.at <= 3_000, "at = {}", d.at);
            got.push(d.payload);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // With 20 messages over a 2x jitter window, at least one pair
        // reorders for this seed (a fixed, reproducible property).
        assert_ne!(got, sorted, "expected reordering under jitter");
    }

    #[test]
    fn churn_schedule_crashes_and_rejoins() {
        let mut s = net(2, 100);
        s.set_fault_plan(FaultPlan::new(0).with_churn(vec![
            ChurnEvent {
                at: 150,
                node: 1,
                up: false,
            },
            ChurnEvent {
                at: 350,
                node: 1,
                up: true,
            },
        ]));
        s.send(0, 1, 1, 1); // delivered at 100, before crash
        assert_eq!(s.step().unwrap().payload, 1);
        s.send(0, 1, 1, 2); // delivered at 200: node down -> dropped
        assert!(s.step().is_none());
        assert!(s.is_down(1));
        assert_eq!(s.stats().messages_dropped, 1);
        // Clock is at 200; next send lands at 300, still down.
        s.send(0, 1, 1, 3);
        assert!(s.step().is_none());
        // Now at 300; next send lands at 400, after the rejoin.
        s.send(0, 1, 1, 4);
        assert_eq!(s.step().unwrap().payload, 4);
        assert!(!s.is_down(1));
        assert!(s.stats().balances(s.in_flight()));
        // Both plan-driven transitions were logged, in order, and the
        // drain is consumed exactly once.
        let log = s.drain_churn();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].node, log[0].up), (1, false));
        assert_eq!((log[1].node, log[1].up), (1, true));
        assert!(s.drain_churn().is_empty());
    }

    #[test]
    fn manual_fail_recover_not_in_churn_log() {
        let mut s = net(2, 10);
        s.fail(1);
        s.recover(1);
        s.send(0, 1, 1, 1);
        s.drain();
        assert!(s.drain_churn().is_empty());
    }

    #[test]
    fn timers_fire_in_order_and_skip_dead_nodes() {
        let mut s = net(2, 100);
        s.schedule(0, 500, 10);
        s.schedule(1, 300, 20);
        s.fail(1);
        let d = s.step().unwrap();
        assert!(d.timer);
        assert_eq!((d.payload, d.at), (10, 500));
        assert!(s.step().is_none());
        // Timers never touch message accounting.
        let st = s.stats();
        assert_eq!(st.messages_sent, 0);
        assert_eq!(st.messages_dropped, 0);
        assert_eq!(s.in_flight(), 0);
    }

    /// Payload that counts how many times it is cloned.
    #[derive(Debug)]
    struct CountClones(std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for CountClones {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            CountClones(std::rc::Rc::clone(&self.0))
        }
    }

    #[test]
    fn duplicate_fault_path_clones_only_when_both_copies_fly() {
        // Both fates are drawn before any copy is constructed, so a
        // duplicate whose original is lost moves the payload instead of
        // cloning it.
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let payload = || CountClones(std::rc::Rc::clone(&clones));

        // No faults: never clones.
        let mut s: SimNet<CountClones> = net_with(2, 100, None);
        s.send(0, 1, 8, payload());
        assert_eq!(s.drain(), 1);
        assert_eq!(clones.get(), 0);

        // Duplicate + original both fly: exactly one clone.
        let mut s = net_with(2, 100, Some(FaultPlan::new(1).with_duplication(1.0)));
        s.send(0, 1, 8, payload());
        assert_eq!(s.drain(), 2);
        assert_eq!(clones.get(), 1);

        // Original lost, duplicate flies alone: zero clones.
        let mut s = net_with(
            2,
            100,
            Some(FaultPlan::new(1).with_duplication(1.0).with_loss(1.0)),
        );
        s.send(0, 1, 8, payload());
        assert_eq!(s.drain(), 1);
        assert_eq!(clones.get(), 1); // unchanged from the run above
        assert!(s.stats().balances(s.in_flight()));
    }

    fn net_with(n: usize, lat: u64, plan: Option<FaultPlan>) -> SimNet<CountClones> {
        let mut s = SimNet::new(Topology::uniform(n, lat));
        if let Some(p) = plan {
            s.set_fault_plan(p);
        }
        s
    }

    #[test]
    fn events_processed_and_peak_depth_counters() {
        let mut s = net(3, 100);
        s.send(0, 1, 1, 1);
        s.send(0, 2, 1, 2);
        s.schedule(1, 50, 9);
        assert_eq!(s.stats().peak_queue_depth, 3);
        s.fail(2); // the message to 2 will be dropped, still an event
        assert_eq!(s.drain(), 2); // timer + delivery to node 1
        let st = s.stats();
        assert_eq!(st.events_processed, 3);
        assert_eq!(st.messages_dropped, 1);
        assert!(st.balances(s.in_flight()));
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let mut s = SimNet::with_faults(
                Topology::clustered(10, 3, 50, 2_000),
                FaultPlan::new(77)
                    .with_loss(0.2)
                    .with_jitter(1.0)
                    .with_duplication(0.15)
                    .with_generated_churn(&[4, 5, 6, 7, 8, 9], 3, 100_000, 10_000),
            );
            for i in 0..40usize {
                s.send(i % 10, (i * 3 + 1) % 10, i, i as u32);
            }
            let mut trace = Vec::new();
            while let Some(d) = s.step() {
                trace.push((d.at, d.from, d.to, d.payload));
            }
            (trace, s.stats().clone(), s.now())
        };
        assert_eq!(run(), run());
    }

    use proptest::prelude::*;

    /// One driver call: a timer, a message, or a step.
    #[derive(Debug, Clone)]
    enum Op {
        Schedule {
            node: NodeId,
            delay: u64,
        },
        Send {
            from: NodeId,
            to: NodeId,
            bytes: usize,
        },
        Step,
    }

    /// Timer delays mixing same-instant bursts, near-ties, typical
    /// transit times, retry deadlines and far-future churn timers.
    fn arb_delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            0u64..5,
            0u64..50_000,
            0u64..600_000_000,
            (u64::MAX / 4 - 10)..=(u64::MAX / 4),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..6, arb_delay()).prop_map(|(node, delay)| Op::Schedule { node, delay }),
            (0usize..6, 0usize..6, 0usize..4_000).prop_map(|(from, to, bytes)| Op::Send {
                from,
                to,
                bytes
            }),
            Just(Op::Step),
            Just(Op::Step),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For arbitrary interleavings of `schedule`, `send` and `step`,
        /// every delivery is the pending event with the least
        /// `(at, seq)` — checked against a sorted `Vec` of the pending
        /// pairs. Each payload is its event's `seq`.
        #[test]
        fn steps_deliver_in_time_then_seq_order(
            ops in proptest::collection::vec(arb_op(), 1..300),
        ) {
            let mut s: SimNet<u64> =
                SimNet::new(Topology::clustered(6, 2, 10, 1_000).with_bandwidth(1.0));
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            // The next delivery must be the oracle's least pair, and the
            // clock must stand at its time.
            fn expect(s: &mut SimNet<u64>, pending: &mut Vec<(u64, u64)>) {
                let got = s.step().map(|d| (d.at, d.payload));
                let want = (!pending.is_empty()).then(|| pending.remove(0));
                prop_assert_eq!(got, want);
                if let Some((at, _)) = want {
                    prop_assert_eq!(s.now(), at);
                }
            }
            for op in ops {
                let at = match op {
                    Op::Schedule { node, delay } => {
                        // A popped far-future timer parks the clock out
                        // there; the cap keeps `now + delay` in range.
                        let delay = delay.min((u64::MAX / 2).saturating_sub(s.now()));
                        s.schedule(node, delay, seq);
                        s.now() + delay
                    }
                    Op::Send { from, to, bytes } => {
                        s.send(from, to, bytes, seq);
                        s.now() + s.topology.transit_time(from, to, bytes)
                    }
                    Op::Step => {
                        expect(&mut s, &mut pending);
                        continue;
                    }
                };
                let slot = pending.partition_point(|&p| p < (at, seq));
                pending.insert(slot, (at, seq));
                seq += 1;
            }
            while !pending.is_empty() {
                expect(&mut s, &mut pending);
            }
            prop_assert!(s.step().is_none());
        }
    }
}
