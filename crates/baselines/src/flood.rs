//! The "Gnutella" baseline: query flooding with a horizon (paper §1:
//! "queries are broadcast to a node's neighbors (which then broadcast
//! them to all of their neighbors, and so on, up to a fixed number of
//! steps, called the horizon)").

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use mqp_net::{FaultPlan, NodeId, SimNet, Topology};

use crate::common::DiscoveryResult;

/// Flooding protocol messages.
#[derive(Debug, Clone)]
enum Msg {
    Query {
        key: String,
        ttl: u32,
        origin: NodeId,
    },
    Hit {
        holder: NodeId,
    },
}

fn msg_bytes(m: &Msg) -> usize {
    match m {
        Msg::Query { key, .. } => key.len() + 16,
        Msg::Hit { .. } => 16,
    }
}

/// A flooding network: a random `degree`-regular-ish overlay (seeded,
/// deterministic); each node stores its own keys; queries flood up to
/// `horizon` hops and holders answer the origin directly.
pub struct Flooding {
    net: SimNet<Msg>,
    neighbors: Vec<Vec<NodeId>>,
    keys: HashMap<NodeId, HashSet<String>>,
    truth: HashMap<String, Vec<NodeId>>,
}

impl Flooding {
    /// Builds the overlay: each node links to `degree` random others
    /// (undirected union), seeded for reproducibility.
    pub fn new(topology: Topology, degree: usize, seed: u64) -> Self {
        let n = topology.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut neighbors: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
        let all: Vec<NodeId> = (0..n).collect();
        for v in 0..n {
            let mut others: Vec<NodeId> = all.iter().copied().filter(|&u| u != v).collect();
            others.shuffle(&mut rng);
            for &u in others.iter().take(degree) {
                neighbors[v].insert(u);
                neighbors[u].insert(v);
            }
        }
        let neighbors = neighbors
            .into_iter()
            .map(|s| {
                let mut v: Vec<NodeId> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        Flooding {
            net: SimNet::new(topology),
            neighbors,
            keys: HashMap::new(),
            truth: HashMap::new(),
        }
    }

    /// Builds the overlay by sampling instead of shuffling: each node
    /// draws `degree` distinct random partners by rejection, O(n·degree)
    /// total, where [`Flooding::new`]'s per-node shuffle is O(n²). The
    /// 100k–1M-node scale sweeps use this; the resulting overlay is a
    /// different (but equally valid and still seeded-deterministic)
    /// random graph, so existing experiments keep `new` and their
    /// recorded traces.
    pub fn sparse(topology: Topology, degree: usize, seed: u64) -> Self {
        let n = topology.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            let want = degree.min(n.saturating_sub(1));
            let mut picked = 0;
            // Rejection sampling with a guard: collisions are rare while
            // degree ≪ n, and the guard keeps tiny worlds terminating.
            let mut budget = 16 * degree + 64;
            while picked < want && budget > 0 {
                budget -= 1;
                let u = rng.gen_range(0..n);
                if u == v || neighbors[v].contains(&u) {
                    continue;
                }
                neighbors[v].push(u);
                neighbors[u].push(v);
                picked += 1;
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        Flooding {
            net: SimNet::new(topology),
            neighbors,
            keys: HashMap::new(),
            truth: HashMap::new(),
        }
    }

    /// Installs a fault plan (loss/jitter/duplication/churn) on the
    /// underlying network, so resilience comparisons against the MQP
    /// harness run under identical adversarial schedules.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.net.set_fault_plan(plan);
        self
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &mqp_net::NetStats {
        self.net.stats()
    }

    /// Publishes a key at a node (local only — pure P2P keeps no
    /// remote index).
    pub fn publish(&mut self, node: NodeId, key: &str) {
        self.keys.entry(node).or_default().insert(key.to_owned());
        self.truth.entry(key.to_owned()).or_default().push(node);
    }

    /// True holders of a key.
    pub fn truth(&self, key: &str) -> Vec<NodeId> {
        self.truth.get(key).cloned().unwrap_or_default()
    }

    /// Floods a query from `client` with the given horizon (TTL).
    pub fn query(&mut self, client: NodeId, key: &str, horizon: u32) -> DiscoveryResult {
        let before = self.net.stats().clone();
        let start = self.net.now();
        let mut seen: HashSet<NodeId> = HashSet::new();
        seen.insert(client);
        // The client "receives" the query at itself, then floods.
        let mut holders = Vec::new();
        if self.keys.get(&client).is_some_and(|ks| ks.contains(key)) {
            holders.push(client);
        }
        for &nb in &self.neighbors[client].clone() {
            let m = Msg::Query {
                key: key.to_owned(),
                ttl: horizon,
                origin: client,
            };
            let b = msg_bytes(&m);
            self.net.send(client, nb, b, m);
        }
        let mut last = start;
        while let Some(d) = self.net.step() {
            last = d.at;
            match d.payload {
                Msg::Query { key, ttl, origin } => {
                    if !seen.insert(d.to) {
                        continue; // duplicate suppression
                    }
                    if self.keys.get(&d.to).is_some_and(|ks| ks.contains(&key)) {
                        let hit = Msg::Hit { holder: d.to };
                        let hb = msg_bytes(&hit);
                        self.net.send(d.to, origin, hb, hit);
                    }
                    if ttl > 1 {
                        for &nb in &self.neighbors[d.to].clone() {
                            if nb != d.from {
                                let m = Msg::Query {
                                    key: key.clone(),
                                    ttl: ttl - 1,
                                    origin,
                                };
                                let b = msg_bytes(&m);
                                self.net.send(d.to, nb, b, m);
                            }
                        }
                    }
                }
                Msg::Hit { holder } => {
                    if !holders.contains(&holder) {
                        holders.push(holder);
                    }
                }
            }
        }
        holders.sort_unstable();
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

    fn world(n: usize, degree: usize) -> Flooding {
        Flooding::new(Topology::uniform(n, 5_000), degree, 42)
    }

    #[test]
    fn overlay_is_symmetric_and_connected_enough() {
        let f = world(20, 3);
        for v in 0..20 {
            assert!(f.neighbors[v].len() >= 3);
            for &u in &f.neighbors[v] {
                assert!(f.neighbors[u].contains(&v));
            }
        }
    }

    #[test]
    fn nearby_content_found() {
        let mut f = world(10, 3);
        // Put the key on a direct neighbor of node 0.
        let nb = f.neighbors[0][0];
        f.publish(nb, "cds");
        let r = f.query(0, "cds", 2);
        assert_eq!(r.holders, vec![nb]);
        assert!(r.messages >= 3); // flood + hit
    }

    #[test]
    fn horizon_limits_recall() {
        // A big sparse network: horizon 1 must miss most holders.
        let mut f = Flooding::new(Topology::uniform(200, 1_000), 2, 7);
        for node in (10..200).step_by(10) {
            f.publish(node, "rare");
        }
        let truth = f.truth("rare");
        let near = f.query(0, "rare", 1);
        let far = f.query(0, "rare", 8);
        assert!(near.recall(&truth) < far.recall(&truth));
        assert!(near.messages < far.messages);
    }

    #[test]
    fn message_cost_grows_with_horizon() {
        let mut f = world(100, 4);
        f.publish(50, "x");
        let m1 = f.query(0, "x", 1).messages;
        let m3 = f.query(0, "x", 3).messages;
        let m5 = f.query(0, "x", 5).messages;
        assert!(m1 < m3, "{m1} !< {m3}");
        assert!(m3 <= m5, "{m3} !<= {m5}");
    }

    #[test]
    fn client_own_content_counts() {
        let mut f = world(5, 2);
        f.publish(0, "mine");
        let r = f.query(0, "mine", 1);
        assert!(r.holders.contains(&0));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut f = world(50, 3);
            f.publish(17, "k");
            f.publish(33, "k");
            let r = f.query(0, "k", 4);
            (r.holders.clone(), r.messages, r.latency_us)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sparse_overlay_symmetric_and_queries_work() {
        let mut f = Flooding::sparse(Topology::uniform(500, 1_000), 4, 11);
        for v in 0..500 {
            assert!(f.neighbors[v].len() >= 4, "node {v} under-connected");
            for &u in &f.neighbors[v] {
                assert!(f.neighbors[u].contains(&v), "{u} !~ {v}");
            }
        }
        for node in (25..500).step_by(25) {
            f.publish(node, "k");
        }
        let r = f.query(0, "k", 6);
        assert!(r.recall(&f.truth("k")) > 0.5, "sparse overlay finds most");
        // Determinism: same seed, same overlay, same result.
        let mut g = Flooding::sparse(Topology::uniform(500, 1_000), 4, 11);
        for node in (25..500).step_by(25) {
            g.publish(node, "k");
        }
        assert_eq!(g.query(0, "k", 6).holders, r.holders);
    }

    #[test]
    fn loss_degrades_recall_deterministically() {
        let run = |loss: f64| {
            let mut f = Flooding::new(Topology::uniform(100, 1_000), 3, 7)
                .with_faults(FaultPlan::new(9).with_loss(loss));
            for node in (5..100).step_by(5) {
                f.publish(node, "k");
            }
            let r = f.query(0, "k", 6);
            (r.recall(&f.truth("k")), r.holders.clone())
        };
        let (clean, _) = run(0.0);
        let (lossy, holders_a) = run(0.5);
        let (_, holders_b) = run(0.5);
        assert!((clean - 1.0).abs() < 1e-9);
        assert!(lossy < clean, "loss must cost recall: {lossy} !< {clean}");
        assert_eq!(holders_a, holders_b, "same seed, same holders");
    }
}
