//! The deterministic simulation driver: a population of sans-IO
//! [`PeerNode`]s over the `mqp-net` discrete-event simulator. Every
//! experiment (DESIGN.md §3) runs through this.
//!
//! The harness owns no protocol logic — parsing, forwarding, acking,
//! retrying, and completing all live in [`PeerNode`] (DESIGN.md §8).
//! Its `apply` is the wall-clock host's, with [`SimNet`] as the sink:
//!
//! * [`Effect::Send`] and [`Effect::Ack`] put the encoded frame on the
//!   simulated network, billed its real length — an ack is a frame
//!   like any other: it takes a round trip, counts as a message, and
//!   the fault plan can lose it;
//! * [`Effect::SetTimer`] becomes a [`SimNet::schedule`]d tick;
//! * [`Effect::Complete`] collects the outcome, deduplicated by query
//!   id. Nothing is told to any other node: a stale copy's watch
//!   expires or is acked on its own, and a second completion of the
//!   same query is absorbed here, as at the host's front-end.
//!
//! Which frames earn an ack is the node's decision, not the harness's:
//! without [`SimHarness::retry`] no node emits one.

use std::collections::HashSet;
use std::sync::Arc;

use mqp_catalog::CatalogEntry;
use mqp_core::{QueryId, QueryOutcome};
use mqp_net::{NodeId, SimNet, Topology};

use crate::node::{Directory, Effect, PeerNode};
use crate::peer::Peer;
use crate::wire::Frame;

pub use crate::node::RetryPolicy;

/// What travels through the simulated network: encoded wire frames,
/// plus local retry-timer ticks (never on the wire; scheduled through
/// [`SimNet::schedule`] at the watching node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimMsg {
    /// An encoded wire frame (see [`crate::wire`]).
    Wire(Vec<u8>),
    /// A local timer tick: the receiving node runs
    /// [`PeerNode::on_tick`].
    Tick,
}

/// How a lazy harness builds the peer for a node the first time it is
/// touched (submitted at, or delivered a message).
type PeerFactory = Box<dyn FnMut(NodeId) -> Peer>;

/// A population of peers on a simulated network.
///
/// Peers materialize lazily when built with [`SimHarness::lazy`]: the
/// harness allocates one pointer-sized slot per node, and a node's
/// [`PeerNode`] (store, catalog, processor) is constructed by the
/// factory the first time the node acts. World setup for a 100k-peer
/// experiment is then O(nodes that actually participate), not O(world).
/// [`SimHarness::new`] materializes everything up front, preserving the
/// original eager behavior exactly.
pub struct SimHarness {
    /// The network (exposed for failure injection and stats).
    pub net: SimNet<SimMsg>,
    nodes: Vec<Option<Box<PeerNode>>>,
    factory: Option<PeerFactory>,
    directory: Arc<Directory>,
    pending: HashSet<QueryId>,
    completed: Vec<QueryOutcome>,
    next_qid: u64,
    /// When true, a completed query teaches the client's route cache
    /// which server finished it (§3.4 caching).
    pub cache_learning: bool,
    /// Timeout/retry policy, installed on every node: the policy is
    /// cluster-wide. `None` (the default) preserves the fire-and-forget
    /// behavior where a lost MQP strands its query; a node without a
    /// policy neither watches nor acks.
    pub retry: Option<RetryPolicy>,
}

impl SimHarness {
    /// Builds a harness; peer `i` sits at network node `i`.
    pub fn new(topology: Topology, peers: Vec<Peer>) -> Self {
        assert_eq!(
            topology.len(),
            peers.len(),
            "topology size must match peer count"
        );
        let directory = Arc::new(Directory::new(
            peers.iter().map(|p| p.id().clone()).collect(),
        ));
        let nodes: Vec<Option<Box<PeerNode>>> = peers
            .into_iter()
            .enumerate()
            .map(|(i, p)| Some(Box::new(PeerNode::new(i, p, Arc::clone(&directory)))))
            .collect();
        SimHarness {
            net: SimNet::new(topology),
            nodes,
            factory: None,
            directory,
            pending: HashSet::new(),
            completed: Vec::new(),
            next_qid: 0,
            cache_learning: false,
            retry: None,
        }
    }

    /// Builds a lazy harness: no peer exists until its node first acts.
    /// The directory supplies every node's id up front (names are
    /// addressing configuration, not state); `factory` builds node
    /// `i`'s peer on first touch and must produce the id
    /// `directory.id_of(i)`.
    pub fn lazy(
        topology: Topology,
        directory: Directory,
        factory: impl FnMut(NodeId) -> Peer + 'static,
    ) -> Self {
        assert_eq!(
            topology.len(),
            directory.len(),
            "topology size must match directory size"
        );
        let n = directory.len();
        SimHarness {
            net: SimNet::new(topology),
            nodes: (0..n).map(|_| None).collect(),
            factory: Some(Box::new(factory)),
            directory: Arc::new(directory),
            pending: HashSet::new(),
            completed: Vec::new(),
            next_qid: 0,
            cache_learning: false,
            retry: None,
        }
    }

    /// Materializes (if needed) and returns the protocol node at `node`.
    fn ensure(&mut self, node: NodeId) -> &mut PeerNode {
        if self.nodes[node].is_none() {
            let factory = self
                .factory
                .as_mut()
                .expect("node not materialized and no factory installed");
            let peer = factory(node);
            debug_assert_eq!(
                *peer.id(),
                self.directory.id_of(node),
                "factory produced a peer whose id disagrees with the directory"
            );
            let mut pn = Box::new(PeerNode::new(node, peer, Arc::clone(&self.directory)));
            pn.set_retry(self.retry);
            pn.set_cache_learning(self.cache_learning);
            self.nodes[node] = Some(pn);
        }
        self.nodes[node].as_mut().expect("just materialized")
    }

    /// Number of peers actually constructed so far (equals [`len`] for
    /// eager harnesses).
    ///
    /// [`len`]: SimHarness::len
    pub fn materialized(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Installs a retry policy; returns `self` for chaining.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Peer by node id. Panics on a lazy harness if the node has not
    /// materialized yet — use [`SimHarness::peer_mut`] to force it.
    pub fn peer(&self, node: NodeId) -> &Peer {
        self.nodes[node]
            .as_ref()
            .expect("peer not materialized; touch it via peer_mut first")
            .peer()
    }

    /// Mutable peer by node id (materializes lazily).
    pub fn peer_mut(&mut self, node: NodeId) -> &mut Peer {
        self.ensure(node).peer_mut()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the harness has no peers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Pushes the public `retry`/`cache_learning` knobs into every
    /// node. Cheap; called at each submit/run so tests can flip the
    /// fields between calls, as they always could.
    fn sync_config(&mut self) {
        for n in self.nodes.iter_mut().flatten() {
            n.set_retry(self.retry);
            n.set_cache_learning(self.cache_learning);
        }
    }

    /// Sends a registration message (counted as network traffic); the
    /// receiving peer adds the entry to its catalog on delivery.
    pub fn send_registration(&mut self, from: NodeId, to: NodeId, entry: CatalogEntry) {
        self.send_frame(from, to, Frame::Register(entry).encode());
    }

    /// Pushes a policy rule set to `to` (hot reload; counted as network
    /// traffic). The receiving peer
    /// installs the rules on delivery; envelopes already in flight keep
    /// their accounting.
    pub fn push_policy(&mut self, from: NodeId, to: NodeId, rules: mqp_core::RuleSet) {
        self.send_frame(from, to, Frame::Policy(rules).encode());
    }

    /// §3.3's complementary *pull* process: `index` asks every peer in
    /// `from` for its base entry; each reply is a registration message
    /// (all traffic counted). Returns how many entries were pulled.
    pub fn pull_registrations(&mut self, index: NodeId, from: &[NodeId]) -> usize {
        let mut pulled = 0;
        for &node in from {
            let entry = self.ensure(node).peer().base_entry();
            if entry.area.is_empty() {
                continue;
            }
            // The probe doubles as an introduction: the index server
            // announces it indexes the base server's area (so the base
            // peer learns a route), and the base server replies with
            // its entry.
            let intro =
                CatalogEntry::index(self.ensure(index).peer().id().clone(), entry.area.clone());
            self.send_registration(index, node, intro);
            self.send_registration(node, index, entry);
            pulled += 1;
        }
        pulled
    }

    /// Submits a query plan at `client`. If the plan is not already
    /// wrapped in `Display`, it is wrapped with a target addressing the
    /// client. Returns the query id.
    pub fn submit(&mut self, client: NodeId, plan: mqp_algebra::plan::Plan) -> QueryId {
        self.sync_config();
        let qid = QueryId::new(self.next_qid);
        self.next_qid += 1;
        self.pending.insert(qid);
        let now = self.net.now();
        let effects = self.ensure(client).submit(qid, plan, now);
        self.apply(client, effects);
        qid
    }

    /// Runs the network until quiescent (or `max_deliveries`). Returns
    /// the number of deliveries handled.
    pub fn run(&mut self, max_deliveries: usize) -> usize {
        self.sync_config();
        let mut handled = 0;
        while handled < max_deliveries {
            let Some(delivery) = self.net.step() else {
                break;
            };
            handled += 1;
            // Churn applied during this step drives the recovery state
            // machine (DESIGN.md §12): a schedule-downed peer crashes
            // (durable peers lose volatile state), a rejoining one
            // replays its journal and re-announces surviving bindings.
            // Volatile peers keep the legacy interface-outage semantics
            // (both calls are no-ops for them). Unmaterialized nodes
            // never acted, so there is nothing to crash or recover.
            for ev in self.net.drain_churn() {
                if self.nodes[ev.node].is_none() {
                    continue;
                }
                if ev.up {
                    let now = self.net.now();
                    let effects = self.ensure(ev.node).recover(now);
                    self.apply(ev.node, effects);
                } else {
                    self.ensure(ev.node).crash();
                }
            }
            let at = delivery.at;
            let to = delivery.to;
            let effects = match delivery.payload {
                SimMsg::Wire(bytes) => self.ensure(to).on_message(delivery.from, &bytes, at),
                SimMsg::Tick => self.ensure(to).on_tick(at),
            };
            self.apply(to, effects);
        }
        handled
    }

    /// Crashes the peer at `node` by hand: network interface down, and
    /// (for durable peers) volatile protocol state dropped with the
    /// journal's disk power-lost. The churn-schedule path does the same
    /// on a clock.
    pub fn crash_node(&mut self, node: NodeId) {
        self.net.fail(node);
        self.ensure(node).crash();
    }

    /// Restarts the peer at `node`: interface up, catalog recovered
    /// from its journal (prefix-consistent replay), surviving bindings
    /// re-announced as `reg` frames.
    pub fn restart_node(&mut self, node: NodeId) {
        self.net.recover(node);
        let now = self.net.now();
        let effects = self.ensure(node).recover(now);
        self.apply(node, effects);
    }

    /// Puts one encoded frame on the simulated network, billed its
    /// length.
    fn send_frame(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        self.net.send(from, to, bytes.len(), SimMsg::Wire(bytes));
    }

    /// Executes a node's effects, in order (the send/schedule sequence
    /// determines event seq numbers and fault draws, so order is part
    /// of the determinism contract).
    fn apply(&mut self, node: NodeId, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, bytes } => self.send_frame(node, to, bytes),
                Effect::Ack { to, qid } => self.send_frame(node, to, Frame::Ack { qid }.encode()),
                Effect::SetTimer { at } => {
                    let delay = at.saturating_sub(self.net.now());
                    self.net.schedule(node, delay, SimMsg::Tick);
                }
                Effect::Retried { .. } => self.net.stats_mut().retries += 1,
                Effect::Complete(outcome) => {
                    if self.pending.remove(&outcome.qid) {
                        self.completed.push(outcome);
                    }
                }
            }
        }
    }

    /// Completed queries so far.
    pub fn completed(&self) -> &[QueryOutcome] {
        &self.completed
    }

    /// Takes the completed-query list, clearing it.
    pub fn take_completed(&mut self) -> Vec<QueryOutcome> {
        std::mem::take(&mut self.completed)
    }

    /// Queries still in flight.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{self, ns, pdx_cds};
    use mqp_algebra::plan::Plan;
    use mqp_namespace::{InterestArea, Urn};
    use mqp_xml::parse;

    /// The shared 4-peer world: client, meta-index, and two sellers.
    fn world() -> SimHarness {
        SimHarness::new(Topology::clustered(4, 2, 1_000, 50_000), fixture::world())
    }

    #[test]
    fn end_to_end_interest_area_query() {
        let mut h = world();
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        let qid = h.submit(0, plan);
        h.run(1000);
        assert_eq!(h.pending_count(), 0);
        let done = h.completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert_eq!(q.qid, qid);
        assert!(q.failure.is_none(), "{:?}", q.failure);
        // Cheap CDs from both sellers.
        let mut titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        titles.sort();
        assert_eq!(titles, ["A", "C"]);
        // Path: client → meta (bind) → seller → seller → client result.
        assert!(q.hops >= 3, "hops = {}", q.hops);
        assert!(q.latency_us > 0);
        assert!(q.mqp_bytes > 0);
    }

    #[test]
    fn unknown_area_gets_stuck() {
        let mut h = world();
        let nowhere = InterestArea::parse(&[&["France", "Cheese"]]);
        let plan = Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(nowhere)));
        h.submit(0, plan);
        h.run(1000);
        let done = h.completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].failure.is_some());
        assert!(done[0].items.is_empty());
    }

    #[test]
    fn cache_learning_shortens_second_query() {
        let mut h = world();
        h.cache_learning = true;
        let q = || {
            Plan::select(
                "price < 10",
                Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
            )
        };
        h.submit(0, q());
        h.run(1000);
        let first = h.take_completed().pop().unwrap();
        h.submit(0, q());
        h.run(1000);
        let second = h.take_completed().pop().unwrap();
        assert!(first.failure.is_none() && second.failure.is_none());
        // The client learned the completing server; the second query
        // skips ahead (strictly fewer or equal hops, and must not grow).
        assert!(
            second.hops <= first.hops,
            "{} > {}",
            second.hops,
            first.hops
        );
    }

    #[test]
    fn registration_messages_populate_catalogs() {
        let client = Peer::new("client", ns());
        let idx = Peer::new("idx", ns());
        let mut seller = Peer::new("seller", ns());
        seller.add_collection(
            "cds",
            pdx_cds(),
            [parse("<item><price>1</price></item>").unwrap()],
        );
        let entry = seller.base_entry();
        let mut h = SimHarness::new(Topology::uniform(3, 100), vec![client, idx, seller]);
        assert_eq!(h.peer(1).catalog().entries().len(), 0);
        h.send_registration(2, 1, entry);
        h.run(10);
        assert_eq!(h.peer(1).catalog().entries().len(), 1);
        assert!(h.net.stats().messages_delivered >= 1);
    }

    #[test]
    fn failed_server_leads_to_partial_or_stuck() {
        let mut h = world();
        // Kill seller-1 (node 2).
        h.net.fail(2);
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        h.submit(0, plan);
        h.run(1000);
        // The MQP died at the failed node: without a retry policy,
        // nothing completes and the query stays pending.
        assert_eq!(h.completed().len(), 0);
        assert_eq!(h.pending_count(), 1);
        assert!(h.net.stats().messages_dropped >= 1);
    }

    #[test]
    fn retry_detours_to_or_alternative_around_dead_server() {
        let mut h = world().with_retry(RetryPolicy::default());
        h.net.fail(2); // seller-1 is dead for the whole run
                       // Either seller alone satisfies the query (§4.2 Or).
        let plan = Plan::or([Plan::url("mqp://seller-1/"), Plan::url("mqp://seller-2/")]);
        h.submit(0, plan);
        h.run(10_000);
        assert_eq!(h.pending_count(), 0);
        let done = h.completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        // The forward to seller-1 timed out; the client reran routing
        // excluding it, landed on seller-2, which committed its own
        // alternative and completed.
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.items[0].field("title").as_deref(), Some("C"));
        assert!(
            q.retries >= 1,
            "expected a detour, got {} retries",
            q.retries
        );
        // Invariant 7: the detour is audit-clean.
        assert_eq!(q.audit_clean, Some(true));
        assert_eq!(h.net.stats().retries, q.retries);
    }

    #[test]
    fn retries_exhaust_into_failure_when_no_alternative_exists() {
        let mut h = world().with_retry(RetryPolicy {
            timeout_us: 200_000,
            max_retries: 2,
        });
        h.net.fail(2); // seller-1 holds data nothing else replicates
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        h.submit(0, plan);
        h.run(100_000);
        // The query no longer strands: it completes with an explicit
        // failure after the retry budget is spent.
        assert_eq!(h.pending_count(), 0);
        let done = h.completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert!(q.failure.as_deref().unwrap_or("").contains("retries"));
        assert!(q.retries >= 1);
    }

    #[test]
    fn retry_reaches_server_that_rejoins_mid_query() {
        use mqp_net::{ChurnEvent, FaultPlan};
        // Seller-1 is down from the start but rejoins at t = 300ms;
        // the retry loop keeps knocking and eventually gets through.
        let mut h = world().with_retry(RetryPolicy {
            timeout_us: 250_000,
            max_retries: 5,
        });
        h.net.set_fault_plan(FaultPlan::new(1).with_churn(vec![
            ChurnEvent {
                at: 1,
                node: 2,
                up: false,
            },
            ChurnEvent {
                at: 300_000,
                node: 2,
                up: true,
            },
        ]));
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        h.submit(0, plan);
        h.run(100_000);
        assert_eq!(h.pending_count(), 0);
        let done = h.completed();
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert!(q.failure.is_none(), "{:?}", q.failure);
        let mut titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        titles.sort();
        assert_eq!(titles, ["A", "C"]);
        assert!(q.retries >= 1);
        assert_eq!(q.audit_clean, Some(true));
    }

    /// An ack is a frame, so it can be lost. The meta-index is cut off
    /// for exactly the instant seller-1's ack reaches it: the forward
    /// itself was delivered and the query completes on time, but meta
    /// cannot know that — it times out, records the detour and
    /// re-routes a second copy around seller-1. Nobody tells anybody
    /// the query is finished; the stale copy runs its course and its
    /// result is absorbed at the client by `pending`.
    #[test]
    fn lost_ack_retries_a_delivered_forward_and_the_stale_copy_is_absorbed() {
        use mqp_net::{ChurnEvent, FaultPlan};
        let run = |plan: FaultPlan| {
            let mut h = SimHarness::new(Topology::uniform(4, 10_000), fixture::world())
                .with_retry(RetryPolicy::default());
            h.net.set_fault_plan(plan);
            h.submit(0, fixture::cheap_cds());
            h.run(10_000);
            assert_eq!(h.net.in_flight(), 0);
            h
        };
        let clean = run(FaultPlan::new(1));
        // 10 ms a hop: client → meta → seller-1, whose ack is back at
        // meta at 30 ms; → seller-2 → the result at the client at 40 ms.
        let cut = |at, up| ChurnEvent { at, node: 1, up };
        let h = run(FaultPlan::new(1).with_churn(vec![cut(29_500, false), cut(30_500, true)]));

        let stats = h.net.stats();
        assert_eq!(stats.messages_dropped, 1, "exactly the ack: {stats:?}");
        assert_eq!(stats.retries, 1, "meta must time out and re-route");
        assert!(stats.balances(0), "{stats:?}");
        // One completion, and it is the original's: on time, complete,
        // audit-clean, no retry on its meter.
        assert_eq!(h.pending_count(), 0);
        assert_eq!(h.completed(), clean.completed());
        let [q] = h.completed() else { unreachable!() };
        assert_eq!(fixture::titles(q), ["A", "C"]);
        assert_eq!((q.audit_clean, q.retries), (Some(true), 0));
        // The stale copy travelled on long after (meta's watch fired at
        // 510 ms) and delivered a second result to the client.
        assert!(h.net.now() > 540_000, "stale copy ended at {}", h.net.now());
        assert_eq!(stats.per_node[0].1, clean.net.stats().per_node[0].1 + 1);
    }
}

#[cfg(test)]
mod durable_tests {
    use super::*;
    use crate::fixture::{self, cheap_cds, titles};

    fn durable_world() -> SimHarness {
        SimHarness::new(
            Topology::clustered(4, 2, 1_000, 50_000),
            fixture::durable_world(),
        )
    }

    #[test]
    fn durable_seller_recovers_catalog_and_reregisters_after_crash() {
        let mut h = durable_world();
        h.submit(0, cheap_cds());
        h.run(1_000);
        let first = h.take_completed().pop().expect("first query completes");
        assert!(first.failure.is_none(), "{:?}", first.failure);
        assert_eq!(titles(&first), ["A", "C"]);

        // Power loss at seller-1: the in-memory catalog is gone, only
        // the journal survives.
        h.crash_node(2);
        assert!(
            h.peer(2).catalog().entries().is_empty(),
            "crash must wipe the volatile catalog"
        );

        // Restart: prefix-consistent replay restores both the seller's
        // own base entry and its knowledge of the meta-index, and the
        // surviving bindings go back out as reg frames (real,
        // counted traffic).
        let sent_before = h.net.stats().messages_sent;
        h.restart_node(2);
        let entries = h.peer(2).catalog().entries();
        assert!(entries.iter().any(|e| e.server.as_str() == "seller-1"));
        assert!(entries.iter().any(|e| e.server.as_str() == "meta"));
        assert!(
            h.net.stats().messages_sent > sent_before,
            "recovery must re-announce over the network"
        );
        h.run(100); // deliver the re-announcements (idempotent at meta)

        // The recovered peer serves again, audit-clean.
        h.submit(0, cheap_cds());
        h.run(1_000);
        let second = h.take_completed().pop().expect("second query completes");
        assert!(second.failure.is_none(), "{:?}", second.failure);
        assert_eq!(titles(&second), ["A", "C"]);
        assert_eq!(second.audit_clean, Some(true));
        assert!(
            h.net.stats().balances(h.net.in_flight()),
            "accounting identity must hold with re-announcement traffic: {:?}",
            h.net.stats()
        );
    }

    #[test]
    fn churn_schedule_drives_the_same_recovery_machine() {
        use mqp_net::{ChurnEvent, FaultPlan};
        // Seller-1 power-cycles on the fault plan's clock instead of by
        // hand; the run loop's churn drain must crash and recover it.
        let mut h = durable_world();
        h.net.set_fault_plan(FaultPlan::new(7).with_churn(vec![
            ChurnEvent {
                at: 200_000,
                node: 2,
                up: false,
            },
            ChurnEvent {
                at: 400_000,
                node: 2,
                up: true,
            },
        ]));
        h.submit(0, cheap_cds());
        h.run(1_000);
        let first = h.take_completed().pop().expect("pre-churn query");
        assert_eq!(titles(&first), ["A", "C"]);
        // Idle ticks to advance the clock through the churn window.
        while h.net.now() < 500_000 {
            h.net.schedule(0, 10_000, SimMsg::Tick);
            h.run(10);
        }
        let entries = h.peer(2).catalog().entries();
        assert!(
            entries.iter().any(|e| e.server.as_str() == "seller-1"),
            "rejoin must recover the journaled catalog: {entries:?}"
        );
        h.submit(0, cheap_cds());
        h.run(1_000);
        let second = h.take_completed().pop().expect("post-churn query");
        assert!(second.failure.is_none(), "{:?}", second.failure);
        assert_eq!(titles(&second), ["A", "C"]);
    }
}

#[cfg(test)]
mod lazy_tests {
    use super::*;
    use crate::fixture::{ns, pdx_cds};
    use mqp_algebra::plan::Plan;
    use mqp_catalog::ServerId;
    use mqp_namespace::Urn;
    use mqp_xml::parse;

    /// 2 named peers (client, idx) + 4 scheme-named sellers, built on
    /// demand. Only seller-0 is indexed, so sellers 1..4 never
    /// materialize.
    #[test]
    fn lazy_world_materializes_only_participants() {
        let shared_ns = Arc::new(ns());
        let dir = Directory::with_generated_tail(
            vec![ServerId::new("client"), ServerId::new("idx")],
            "seller-",
            4,
        );
        assert_eq!(dir.len(), 6);
        assert_eq!(dir.id_of(0), ServerId::new("client"));
        assert_eq!(dir.id_of(3), ServerId::new("seller-1"));
        assert_eq!(dir.node_of(&ServerId::new("seller-3")), Some(5));
        assert_eq!(dir.node_of(&ServerId::new("seller-4")), None);
        assert_eq!(dir.node_of(&ServerId::new("seller-01")), None);

        let mut h = SimHarness::lazy(Topology::uniform(6, 1_000), dir, move |node| match node {
            0 => Peer::new("client", Arc::clone(&shared_ns)).with_default_route("idx"),
            1 => {
                let mut idx = Peer::new("idx", Arc::clone(&shared_ns));
                idx.catalog_mut()
                    .register(CatalogEntry::base("seller-0", pdx_cds()));
                idx
            }
            n => {
                let mut s = Peer::new(format!("seller-{}", n - 2), Arc::clone(&shared_ns));
                s.add_collection(
                    "cds",
                    pdx_cds(),
                    [parse("<item><title>A</title><price>8</price></item>").unwrap()],
                );
                s
            }
        });
        assert_eq!(h.materialized(), 0);
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        h.submit(0, plan);
        h.run(1_000);
        let done = h.completed();
        assert_eq!(done.len(), 1);
        assert!(done[0].failure.is_none(), "{:?}", done[0].failure);
        assert_eq!(done[0].items.len(), 1);
        // client + idx + seller-0 acted; sellers 1..4 were never built.
        assert_eq!(h.materialized(), 3);
        assert_eq!(h.len(), 6);
    }
}

#[cfg(test)]
mod pull_tests {
    use super::*;
    use crate::peer::Peer;
    use mqp_namespace::{Hierarchy, Namespace};
    use mqp_xml::parse;

    #[test]
    fn pull_registrations_harvests_base_entries() {
        let ns = Namespace::new([Hierarchy::new("L").with(["A/B"])]);
        let idx = Peer::new("idx", ns.clone());
        let mut s1 = Peer::new("s1", ns.clone());
        s1.add_collection(
            "c",
            mqp_namespace::InterestArea::parse(&[&["A/B"]]),
            [parse("<i/>").unwrap()],
        );
        let s2 = Peer::new("s2", ns.clone()); // empty: skipped
        let mut h = SimHarness::new(Topology::uniform(3, 100), vec![idx, s1, s2]);
        let pulled = h.pull_registrations(0, &[1, 2]);
        assert_eq!(pulled, 1);
        h.run(100);
        // The index learned the base entry; the base learned the index.
        assert_eq!(h.peer(0).catalog().entries().len(), 1);
        assert!(h
            .peer(1)
            .catalog()
            .entries()
            .iter()
            .any(|e| e.server.as_str() == "idx"));
        assert!(h.net.stats().messages_delivered >= 2);
    }
}
