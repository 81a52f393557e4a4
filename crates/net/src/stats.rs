//! Network accounting: the numbers the routing experiments report.

/// Aggregate counters for a simulation run.
///
/// The counters satisfy an exact identity at every instant (tested in
/// `sim.rs` and `tests/resilience.rs`):
///
/// ```text
/// messages_sent = messages_delivered + messages_dropped
///               + messages_lost + in_flight
/// ```
///
/// where `in_flight` is [`SimNet::in_flight`](crate::SimNet::in_flight).
/// Duplicate copies injected by a fault plan are counted in
/// `messages_sent` (and tallied separately in `messages_duplicated`),
/// so the identity holds under duplication too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network (including fault-injected
    /// duplicate copies).
    pub messages_sent: u64,
    /// Messages delivered to a live node.
    pub messages_delivered: u64,
    /// Messages dropped because the destination was down.
    pub messages_dropped: u64,
    /// Messages lost on the wire by the fault plan.
    pub messages_lost: u64,
    /// Extra copies injected by the fault plan's duplication knob.
    pub messages_duplicated: u64,
    /// Protocol-level retransmissions recorded by the host (the
    /// harness's timeout/retry machinery, Chord's hop retransmits).
    pub retries: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Events popped from the scheduler: deliveries, drops, and timer
    /// firings alike. The scheduler-throughput numerator for
    /// `exp_scale`'s events/sec metric.
    pub events_processed: u64,
    /// High-water mark of the scheduler queue (messages + timers
    /// simultaneously pending) — the traffic the scheduler is sized by
    /// (DESIGN.md §10).
    pub peak_queue_depth: u64,
    /// Per-node (sent, received) message counts; indexed by node id.
    pub per_node: Vec<(u64, u64)>,
}

impl NetStats {
    pub(crate) fn new(n: usize) -> Self {
        NetStats {
            per_node: vec![(0, 0); n],
            ..Default::default()
        }
    }

    /// The exact accounting identity: every sent message is delivered,
    /// dropped (dead destination), lost (fault plan), or still in
    /// flight.
    pub fn balances(&self, in_flight: usize) -> bool {
        self.messages_sent
            == self.messages_delivered
                + self.messages_dropped
                + self.messages_lost
                + in_flight as u64
    }

    /// The busiest receiver: `(node, received)` — used to spot central
    /// bottlenecks (the Napster problem, §1).
    pub fn hottest_receiver(&self) -> Option<(usize, u64)> {
        self.per_node
            .iter()
            .enumerate()
            .map(|(i, (_, r))| (i, *r))
            .max_by_key(|&(i, r)| (r, std::cmp::Reverse(i)))
    }

    /// Mean messages received per node.
    fn mean_received(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        let total: u64 = self.per_node.iter().map(|(_, r)| r).sum();
        total as f64 / self.per_node.len() as f64
    }

    /// Receive-load imbalance: hottest / mean (1.0 = perfectly even).
    pub fn receive_imbalance(&self) -> f64 {
        let mean = self.mean_received();
        if mean == 0.0 {
            return 0.0;
        }
        self.hottest_receiver()
            .map(|(_, r)| r as f64)
            .unwrap_or(0.0)
            / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hottest_receiver_and_imbalance() {
        let mut s = NetStats::new(3);
        s.per_node[0] = (5, 8);
        s.per_node[1] = (1, 1);
        s.per_node[2] = (0, 0);
        assert_eq!(s.hottest_receiver(), Some((0, 8)));
        assert!((s.mean_received() - 3.0).abs() < 1e-9);
        assert!((s.receive_imbalance() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats() {
        let s = NetStats::new(0);
        assert_eq!(s.hottest_receiver(), None);
        assert_eq!(s.mean_received(), 0.0);
        assert_eq!(s.receive_imbalance(), 0.0);
    }

    #[test]
    fn balance_identity() {
        let mut s = NetStats::new(2);
        s.messages_sent = 10;
        s.messages_delivered = 5;
        s.messages_dropped = 2;
        s.messages_lost = 1;
        assert!(s.balances(2));
        assert!(!s.balances(3));
        // Retries and duplicates do not enter the identity directly.
        s.retries = 4;
        s.messages_duplicated = 3;
        assert!(s.balances(2));
    }
}
