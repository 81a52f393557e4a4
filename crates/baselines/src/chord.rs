//! A Chord-style DHT baseline (paper §6: "Systems such as CAN, Chord,
//! Pastry, and Tapestry offer a scalable hashtable interface with
//! extremely fast lookups (usually logarithmic in the number of
//! hosts)").
//!
//! We model the *stabilized* state: node identifiers are hashes of the
//! node index, finger tables are computed from the full membership (as
//! stabilization would converge to), and lookups route greedily through
//! fingers — the canonical `O(log n)` hop bound, which the tests assert.
//! Key→holder mappings are stored at the key's successor.

use std::collections::HashMap;

use mqp_net::{FaultPlan, NodeId, SimNet, Topology};

use crate::common::{fnv1a, DiscoveryResult};

const M: u32 = 64; // identifier bits

/// Lost lookup hops are retransmitted this many times before the whole
/// lookup fails — the minimal recovery a real Chord node performs.
const MAX_RETRANSMITS: u32 = 3;

/// Chord protocol messages.
#[derive(Debug, Clone)]
enum Msg {
    /// One routing hop (24 bytes on the wire: key hash + origin).
    Lookup,
    Store {
        key: String,
        holder: NodeId,
    },
    Reply {
        holders: Vec<NodeId>,
    },
}

fn msg_bytes(m: &Msg) -> usize {
    match m {
        Msg::Lookup => 24,
        Msg::Store { key, .. } => key.len() + 16,
        Msg::Reply { holders } => holders.len() * 8 + 8,
    }
}

/// A stabilized Chord ring over the topology's nodes.
pub struct Chord {
    net: SimNet<Msg>,
    /// `ring[i]` = (id-space position, node); sorted by position.
    ring: Vec<(u64, NodeId)>,
    /// Finger tables, deduplicated: the distinct successors of
    /// `pos(v) + 2^k` for k in 0..M, first occurrence first (so
    /// `fingers[v][0]` is still the immediate successor). Nearby
    /// targets share a successor, so ~log n entries survive instead of
    /// M=64 — the difference between 512 B and ~140 B per node at 100k
    /// peers. Routing is unchanged: `closest_preceding` scans the whole
    /// table and picks the best candidate, so dropping duplicates
    /// cannot change its answer.
    fingers: Vec<Vec<NodeId>>,
    /// Key storage at each node: key → holders.
    storage: Vec<HashMap<String, Vec<NodeId>>>,
    truth: HashMap<String, Vec<NodeId>>,
    positions: Vec<u64>,
}

impl Chord {
    /// Builds the ring.
    pub fn new(topology: Topology) -> Self {
        let n = topology.len();
        assert!(n > 0, "chord needs at least one node");
        let positions: Vec<u64> = (0..n).map(|i| fnv1a(&format!("node-{i}"))).collect();
        let mut ring: Vec<(u64, NodeId)> =
            positions.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        ring.sort_unstable();
        let fingers = (0..n)
            .map(|v| {
                let mut table: Vec<NodeId> = Vec::new();
                for k in 0..M {
                    let target = positions[v].wrapping_add(1u64.wrapping_shl(k));
                    let s = successor_of(&ring, target);
                    if !table.contains(&s) {
                        table.push(s);
                    }
                }
                table.shrink_to_fit();
                table
            })
            .collect();
        Chord {
            net: SimNet::new(topology),
            ring,
            fingers,
            storage: vec![HashMap::new(); n],
            truth: HashMap::new(),
            positions,
        }
    }

    /// Installs a fault plan on the underlying network, so resilience
    /// comparisons against the MQP harness run under identical
    /// adversarial schedules. Lookup hops retransmit on loss (up to
    /// `MAX_RETRANSMITS`, counted in `stats().retries`); a hop whose
    /// retransmits are exhausted fails the lookup.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.net.set_fault_plan(plan);
        self
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &mqp_net::NetStats {
        self.net.stats()
    }

    /// The node responsible for a key.
    pub fn successor(&self, key: &str) -> NodeId {
        successor_of(&self.ring, fnv1a(key))
    }

    /// Publishes `key` at `holder`: routes a store to the successor,
    /// counting the messages it costs. Under faults the store can be
    /// lost (the key is simply not indexed — a recall hit the churn
    /// experiment measures).
    pub fn publish(&mut self, holder: NodeId, key: &str) -> u64 {
        self.truth.entry(key.to_owned()).or_default().push(holder);
        let before = self.net.stats().messages_sent;
        let key_hash = fnv1a(key);
        // Route like a lookup, then store at the responsible node.
        if let Some(responsible) = self.route_sync(holder, key_hash) {
            let m = Msg::Store {
                key: key.to_owned(),
                holder,
            };
            let b = msg_bytes(&m);
            self.net.send(holder, responsible, b, m);
            while let Some(d) = self.net.step() {
                if let Msg::Store { key, holder } = d.payload {
                    let holders = self.storage[d.to].entry(key).or_default();
                    if !holders.contains(&holder) {
                        holders.push(holder); // duplicate deliveries are idempotent
                    }
                }
            }
        }
        self.net.stats().messages_sent - before
    }

    /// Greedy finger routing, charging one message per hop and
    /// retransmitting lost hops. Returns the responsible node, or
    /// `None` when a hop's retransmit budget is exhausted (dead or
    /// unreachable finger). (Synchronous helper used by publish/query.)
    fn route_sync(&mut self, from: NodeId, key_hash: u64) -> Option<NodeId> {
        let mut cur = from;
        let mut hops = 0;
        while !self.is_responsible(cur, key_hash) {
            let next = self.closest_preceding(cur, key_hash);
            if next == cur {
                break;
            }
            if !self.hop(cur, next) {
                return None;
            }
            cur = next;
            hops += 1;
            assert!(hops <= self.ring.len(), "routing loop");
        }
        Some(cur)
    }

    /// One lookup hop `from → to`, retransmitting until delivered or
    /// the budget runs out. Returns whether the hop got through.
    fn hop(&mut self, from: NodeId, to: NodeId) -> bool {
        let mut attempt = 0;
        loop {
            let m = Msg::Lookup;
            let b = msg_bytes(&m);
            self.net.send(from, to, b, m);
            // Drain the hop (delivery keeps the clock moving).
            let mut delivered = false;
            while let Some(d) = self.net.step() {
                if matches!(d.payload, Msg::Lookup) && d.to == to {
                    delivered = true;
                    break;
                }
            }
            if delivered {
                return true;
            }
            if attempt == MAX_RETRANSMITS {
                return false;
            }
            attempt += 1;
            self.net.stats_mut().retries += 1;
        }
    }

    fn is_responsible(&self, node: NodeId, key_hash: u64) -> bool {
        successor_of(&self.ring, key_hash) == node
    }

    /// The finger of `node` closest to (but not past) `key_hash`, in
    /// ring order; falls back to the immediate successor finger.
    fn closest_preceding(&self, node: NodeId, key_hash: u64) -> NodeId {
        let pos = self.positions[node];
        let mut best = self.fingers[node][0];
        let mut best_dist = u64::MAX;
        for &f in &self.fingers[node] {
            if f == node {
                continue;
            }
            let fpos = self.positions[f];
            // Distance remaining from finger to key, going clockwise.
            let dist = key_hash.wrapping_sub(fpos);
            // Only fingers that don't overshoot (clockwise between node
            // and key).
            let from_node = fpos.wrapping_sub(pos);
            let to_key = key_hash.wrapping_sub(pos);
            if from_node != 0 && from_node <= to_key && dist < best_dist {
                best = f;
                best_dist = dist;
            }
        }
        best
    }

    /// True holders of a key.
    pub fn truth(&self, key: &str) -> Vec<NodeId> {
        self.truth.get(key).cloned().unwrap_or_default()
    }

    /// Looks a key up from `client`. The client only learns holders it
    /// actually receives: a failed lookup or a lost reply yields an
    /// empty answer.
    pub fn query(&mut self, client: NodeId, key: &str) -> DiscoveryResult {
        let before = self.net.stats().clone();
        let start = self.net.now();
        let key_hash = fnv1a(key);
        let mut holders: Vec<NodeId> = Vec::new();
        let mut last = start;
        if let Some(responsible) = self.route_sync(client, key_hash) {
            let known = self.storage[responsible]
                .get(key)
                .cloned()
                .unwrap_or_default();
            // Reply hop back to the client; it counts only if delivered.
            let reply = Msg::Reply {
                holders: known.clone(),
            };
            let b = msg_bytes(&reply);
            self.net.send(responsible, client, b, reply);
            while let Some(d) = self.net.step() {
                last = d.at;
                if matches!(d.payload, Msg::Reply { .. }) && d.to == client {
                    holders = known.clone();
                }
            }
        }
        holders.sort_unstable();
        holders.dedup();
        let after = self.net.stats();
        DiscoveryResult {
            holders,
            messages: after.messages_sent - before.messages_sent,
            bytes: after.bytes_sent - before.bytes_sent,
            latency_us: last.saturating_sub(start),
        }
    }
}

/// The first ring node at or after `target` (clockwise, wrapping).
fn successor_of(ring: &[(u64, NodeId)], target: u64) -> NodeId {
    match ring.binary_search_by(|(p, _)| p.cmp(&target)) {
        Ok(i) => ring[i].1,
        Err(i) if i < ring.len() => ring[i].1,
        Err(_) => ring[0].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> Chord {
        Chord::new(Topology::uniform(n, 5_000))
    }

    #[test]
    fn successor_is_consistent() {
        let c = world(32);
        for key in ["cds", "chairs", "golf"] {
            let s1 = c.successor(key);
            let s2 = c.successor(key);
            assert_eq!(s1, s2);
            assert!(s1 < 32);
        }
    }

    #[test]
    fn publish_then_query_finds_holders() {
        let mut c = world(16);
        c.publish(3, "cds");
        c.publish(7, "cds");
        let r = c.query(11, "cds");
        let mut h = r.holders.clone();
        h.sort_unstable();
        assert_eq!(h, vec![3, 7]);
        assert!((r.recall(&c.truth("cds")) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_key_empty() {
        let mut c = world(8);
        let r = c.query(0, "nothing");
        assert!(r.holders.is_empty());
    }

    #[test]
    fn lookups_are_logarithmic() {
        // Hop count (messages − 1 reply) stays within 2·log2(n) + 4.
        for &n in &[16usize, 64, 256] {
            let mut c = world(n);
            c.publish(1, "k");
            let mut worst = 0u64;
            for client in (0..n).step_by(n / 8) {
                let r = c.query(client, "k");
                worst = worst.max(r.messages.saturating_sub(1));
            }
            let bound = 2 * (n as f64).log2().ceil() as u64 + 4;
            assert!(worst <= bound, "n={n}: {worst} hops > bound {bound}");
        }
    }

    #[test]
    fn loss_triggers_retransmits_and_can_fail_lookups() {
        let run = || {
            let mut c = Chord::new(Topology::uniform(64, 5_000))
                .with_faults(FaultPlan::new(4).with_loss(0.4));
            for n in [3usize, 9, 27] {
                c.publish(n, "k");
            }
            let mut found = 0;
            for client in 0..16 {
                let r = c.query(client, "k");
                if !r.holders.is_empty() {
                    found += 1;
                }
            }
            (found, c.stats().retries, c.stats().messages_lost)
        };
        let (found, retries, lost) = run();
        assert!(lost > 0, "40% loss must lose something");
        assert!(retries > 0, "lost hops must retransmit");
        assert!(found > 0, "retransmits must save some lookups");
        assert_eq!(run(), (found, retries, lost), "deterministic under faults");
    }

    #[test]
    fn exact_match_only_no_ranges() {
        // The paper's DHT critique: "CDs" and "cds" are different keys.
        let mut c = world(16);
        c.publish(3, "CDs");
        let r = c.query(0, "cds");
        assert!(r.holders.is_empty());
    }
}
