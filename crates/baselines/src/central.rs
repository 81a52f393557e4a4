//! The "Napster" baseline: a centralized index server (paper §1).
//!
//! All publishes and queries flow through node 0. Strengths: 2-message
//! queries, perfect recall. Weakness the experiments surface: the index
//! receives *every* message — `NetStats::receive_imbalance` grows
//! linearly with population (the "bottlenecks at the centralized index"
//! of §1), and a single failure disables search entirely.

use std::collections::HashMap;

use mqp_net::{NodeId, SimNet, Topology};

use crate::common::DiscoveryResult;

/// Messages of the central-index protocol.
#[derive(Debug, Clone)]
enum Msg {
    Publish { key: String },
    Query { key: String },
    Reply { holders: Vec<NodeId> },
}

fn msg_bytes(m: &Msg) -> usize {
    match m {
        Msg::Publish { key } => key.len() + 8,
        Msg::Query { key } => key.len() + 8,
        Msg::Reply { holders } => holders.len() * 8 + 8,
    }
}

/// A central-index network. Node 0 is the index; nodes `1..n` are
/// ordinary peers.
pub struct CentralIndex {
    net: SimNet<Msg>,
    index: HashMap<String, Vec<NodeId>>,
    truth: HashMap<String, Vec<NodeId>>,
}

/// The index node's id.
pub(crate) const INDEX_NODE: NodeId = 0;

impl CentralIndex {
    /// Builds a central-index deployment over the topology.
    pub fn new(topology: Topology) -> Self {
        CentralIndex {
            net: SimNet::new(topology),
            index: HashMap::new(),
            truth: HashMap::new(),
        }
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &mqp_net::NetStats {
        self.net.stats()
    }

    /// Publishes `key` from `node`: one message to the index.
    pub fn publish(&mut self, node: NodeId, key: &str) {
        self.truth.entry(key.to_owned()).or_default().push(node);
        let m = Msg::Publish {
            key: key.to_owned(),
        };
        let b = msg_bytes(&m);
        self.net.send(node, INDEX_NODE, b, m);
        self.drain_publishes();
    }

    fn drain_publishes(&mut self) {
        while let Some(d) = self.net.step() {
            if let Msg::Publish { key } = d.payload {
                self.index.entry(key).or_default().push(d.from);
            }
        }
    }

    /// True holders of a key (ground truth for recall).
    pub fn truth(&self, key: &str) -> Vec<NodeId> {
        self.truth.get(key).cloned().unwrap_or_default()
    }

    /// Runs one query from `client`.
    pub fn query(&mut self, client: NodeId, key: &str) -> DiscoveryResult {
        let before = self.net.stats().clone();
        let start = self.net.now();
        let q = Msg::Query {
            key: key.to_owned(),
        };
        let b = msg_bytes(&q);
        self.net.send(client, INDEX_NODE, b, q);
        let mut holders = Vec::new();
        let mut last = start;
        while let Some(d) = self.net.step() {
            last = d.at;
            match d.payload {
                Msg::Query { key } => {
                    let hs = self.index.get(&key).cloned().unwrap_or_default();
                    let reply = Msg::Reply { holders: hs };
                    let rb = msg_bytes(&reply);
                    self.net.send(INDEX_NODE, d.from, rb, reply);
                }
                Msg::Reply { holders: hs } => holders = hs,
                Msg::Publish { key } => {
                    self.index.entry(key).or_default().push(d.from);
                }
            }
        }
        let after = self.net.stats();
        DiscoveryResult {
            holders,
            messages: after.messages_sent - before.messages_sent,
            bytes: after.bytes_sent - before.bytes_sent,
            latency_us: last.saturating_sub(start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> CentralIndex {
        let mut c = CentralIndex::new(Topology::uniform(n, 10_000));
        c.publish(1, "cds");
        c.publish(2, "cds");
        c.publish(3, "chairs");
        c
    }

    #[test]
    fn query_finds_all_holders_in_two_messages() {
        let mut c = world(5);
        let r = c.query(4, "cds");
        assert_eq!(r.holders, vec![1, 2]);
        assert_eq!(r.messages, 2);
        assert!((r.recall(&c.truth("cds")) - 1.0).abs() < 1e-9);
        // Round trip: 2 × 10ms.
        assert_eq!(r.latency_us, 20_000);
    }

    #[test]
    fn missing_key_returns_empty() {
        let mut c = world(5);
        let r = c.query(4, "boats");
        assert!(r.holders.is_empty());
        assert_eq!(r.messages, 2);
    }

    #[test]
    fn index_failure_kills_search() {
        let mut c = world(5);
        c.net.fail(INDEX_NODE); // the single point of failure
        let r = c.query(4, "cds");
        assert!(r.holders.is_empty());
    }

    #[test]
    fn index_is_the_hotspot() {
        let mut c = world(20);
        for client in 4..20 {
            c.query(client, "cds");
        }
        let (node, _) = c.stats().hottest_receiver().unwrap();
        assert_eq!(node, INDEX_NODE);
        assert!(c.stats().receive_imbalance() > 2.0);
    }
}
