//! The sans-IO protocol core: one [`PeerNode`] per participating peer,
//! driving the full MQP peer protocol — envelope processing, catalog
//! registration, result delivery, ack bookkeeping, and timeout/retry —
//! as a pure event machine. A node never touches a socket, a channel,
//! or a clock: hosts feed it events ([`PeerNode::on_message`],
//! [`PeerNode::on_tick`], [`PeerNode::submit`]) and execute the
//! [`Effect`]s it returns.
//!
//! The node makes every protocol decision, acks included: it acks a
//! tracked frame only under a retry policy (without one nobody watches,
//! so nobody waits), and a frame it delivered to itself is settled in
//! place, never acked over a transport.
//!
//! Three hosts run this one core (DESIGN.md §8): the deterministic
//! simulator ([`SimHarness`](crate::harness::SimHarness)) and the
//! wall-clock host under its two transports,
//! [`ThreadedCluster`](crate::cluster::ThreadedCluster) and
//! [`TcpCluster`](crate::tcp::TcpCluster). They differ only in how they
//! move bytes and keep time; none injects knowledge a node does not
//! hold itself, and none decides anything.

use std::collections::HashMap;
use std::sync::Arc;

use mqp_algebra::plan::{Plan, UrlRef};
use mqp_algebra::predicate::AggFunc;
use mqp_catalog::{classify, CatalogEntry, Level, Observation, ServerId};
use mqp_core::{Action, Mqp, Outcome, QueryId, QueryOutcome, VisitRecord};
use mqp_namespace::InterestArea;
use mqp_net::NodeId;

use crate::peer::Peer;
use crate::wire::{Frame, Meter, MqpFrame, ResultFrame};

/// Timeout/retry knobs for in-flight MQP and result hops. With a policy
/// installed, every forward with a known query id arms a watch at the
/// sending node; if no acknowledgement arrives before the deadline, the
/// sender re-routes around the presumed-dead hop (recording the detour
/// in provenance, DESIGN.md invariant 7) and retries, up to
/// `max_retries` times.
///
/// The watch lives at the sending peer: if *that* peer crashes while
/// its only copy is in flight, the timer dies with it and the query
/// strands (DESIGN.md §6, liveness caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long a forward may stay unacknowledged (µs).
    pub timeout_us: u64,
    /// Retries per forward before the query is failed.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            // Comfortably above the widest-area round trip the built-in
            // topologies produce, including jitter.
            timeout_us: 500_000,
            max_retries: 3,
        }
    }
}

/// Maps peer names to transport addresses. This is addressing
/// configuration (who sits where), not distributed state: every driver
/// builds it once at startup, exactly as a deployment would distribute a
/// membership list.
///
/// Two representations coexist: an explicit head of named peers
/// (clients, index servers, …) and an optional *generated tail* whose
/// ids follow a `<prefix><k>` scheme. A 1M-seller world stores the
/// handful of head ids plus one prefix string — O(named) memory —
/// instead of a million `ServerId`s and a million hash-map slots.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    named: Vec<ServerId>,
    index: HashMap<ServerId, NodeId>,
    /// When set, nodes `named.len()..len` are named `<prefix><k>` with
    /// `k` counting from zero.
    tail_prefix: Option<String>,
    len: usize,
}

impl Directory {
    /// Builds the directory; peer `i` sits at node `i`.
    pub fn new(ids: Vec<ServerId>) -> Self {
        let index = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), i))
            .collect();
        let len = ids.len();
        Directory {
            named: ids,
            index,
            tail_prefix: None,
            len,
        }
    }

    /// A directory with `named` explicit peers at the head and `tail`
    /// scheme-named peers after them: node `named.len() + k` is
    /// `"<prefix><k>"`. The tail is never materialized.
    pub fn with_generated_tail(
        named: Vec<ServerId>,
        prefix: impl Into<String>,
        tail: usize,
    ) -> Self {
        let mut d = Directory::new(named);
        d.tail_prefix = Some(prefix.into());
        d.len += tail;
        d
    }

    /// Transport address of a peer.
    pub(crate) fn node_of(&self, id: &ServerId) -> Option<NodeId> {
        if let Some(&n) = self.index.get(id) {
            return Some(n);
        }
        let prefix = self.tail_prefix.as_deref()?;
        let digits = id.as_str().strip_prefix(prefix)?;
        if digits.len() > 1 && digits.starts_with('0') {
            return None; // non-canonical: id_of never emits leading zeros
        }
        let k: usize = digits.parse().ok()?;
        let node = self.named.len().checked_add(k)?;
        (node < self.len).then_some(node)
    }

    /// Peer name at an address. Tail names are generated on demand, so
    /// this returns an owned (cheaply cloned, interned) id.
    pub(crate) fn id_of(&self, node: NodeId) -> ServerId {
        if let Some(id) = self.named.get(node) {
            return id.clone();
        }
        assert!(node < self.len, "node {node} out of directory range");
        let prefix = self
            .tail_prefix
            .as_deref()
            .expect("node beyond named ids in a directory with no generated tail");
        ServerId::new(format!("{prefix}{}", node - self.named.len()))
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What a [`PeerNode`] asks its host to do. Effects are returned in
/// execution order; drivers must apply them in order (the simulator's
/// determinism depends on it).
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Ship `bytes` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The encoded wire frame (see [`crate::wire`]).
        bytes: Vec<u8>,
    },
    /// A query reached a terminal state at this node. Drivers route the
    /// outcome to the submitting front-end (and deduplicate by query
    /// id: under duplication faults more than one peer can complete the
    /// same query).
    Complete(QueryOutcome),
    /// Call [`PeerNode::on_tick`] at (or after) `at`; the node armed a
    /// retry watch expiring then.
    SetTimer {
        /// Absolute deadline on the driving clock (µs).
        at: u64,
    },
    /// Acknowledge to node `to` that its tracked forward of `qid` was
    /// received here. Hosts ship it as an `ack` frame. The node emits
    /// one only under a retry policy, and never to itself.
    Ack {
        /// The original sender being acknowledged.
        to: NodeId,
        /// The acknowledged query.
        qid: QueryId,
    },
    /// A timeout-driven retry happened (transport-level observability:
    /// the simulator counts it in `NetStats::retries`).
    Retried {
        /// The retried query.
        qid: QueryId,
    },
}

/// One armed retry watch: an unacknowledged forward (MQP or result
/// hop), with the frame to resend.
#[derive(Debug, Clone)]
struct Watch {
    qid: QueryId,
    deadline: u64,
    to: NodeId,
    attempts: u32,
    frame: Frame,
}

/// Client-side state for a query this node submitted.
#[derive(Debug, Clone)]
struct ClientQuery {
    /// The interest area of the query's first interest-area URN, if
    /// any (what §3.4 cache learning keys on).
    area: Option<InterestArea>,
}

/// One in-flight verification probe (DESIGN.md §14): a `count(σ(B))`
/// sub-query sent to one claimant of a contested area.
#[derive(Debug, Clone)]
struct Probe {
    area_key: String,
    server: ServerId,
}

/// One verification round over a contested area's full claimant set.
#[derive(Debug, Clone)]
struct Round {
    expected: usize,
    got: Vec<Observation>,
    started_at: u64,
}

/// Verification query ids live in their own namespace (the high bit no
/// workload qid ever sets), so probe traffic can never collide with
/// driver-allocated query ids.
const VQID_BASE: u64 = 1 << 63;

/// A round whose probes went unanswered this long (a claimant crashed
/// mid-probe) is abandoned so the area can be re-verified.
const ROUND_TTL_US: u64 = 10_000_000;

/// A peer participating in the MQP protocol: one [`Peer`] (store +
/// catalog + processor) plus its per-query protocol state — pending
/// retries, registration handling, ack bookkeeping, and client-side
/// route-cache learning.
pub struct PeerNode {
    node: NodeId,
    peer: Peer,
    directory: Arc<Directory>,
    retry: Option<RetryPolicy>,
    cache_learning: bool,
    /// Armed watches in arming order (re-arming moves to the back,
    /// mirroring a fresh timer). At most a handful per node.
    watches: Vec<Watch>,
    /// Queries this node submitted and has not yet seen complete.
    client: HashMap<QueryId, ClientQuery>,
    /// In-flight verification probes, by verification query id.
    verify: HashMap<QueryId, Probe>,
    /// Open verification rounds, by contested area key.
    rounds: HashMap<String, Round>,
    /// Allocator for this node's verification query ids.
    vqid_counter: u64,
}

impl PeerNode {
    /// Wraps a peer as a protocol node at transport address `node`.
    pub fn new(node: NodeId, peer: Peer, directory: Arc<Directory>) -> Self {
        PeerNode {
            node,
            peer,
            directory,
            retry: None,
            cache_learning: false,
            watches: Vec::new(),
            client: HashMap::new(),
            verify: HashMap::new(),
            rounds: HashMap::new(),
            vqid_counter: 0,
        }
    }

    /// The wrapped peer.
    pub fn peer(&self) -> &Peer {
        &self.peer
    }

    /// The wrapped peer, mutably (world setup, catalog seeding).
    pub fn peer_mut(&mut self) -> &mut Peer {
        &mut self.peer
    }

    /// Installs (or clears) the timeout/retry policy. The policy is
    /// cluster-wide: every node of one cluster runs the same one. A node
    /// without a policy neither arms watches nor acks, since no node
    /// watches for its acks either.
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Enables §3.4 route-cache learning for queries this node submits.
    pub(crate) fn set_cache_learning(&mut self, on: bool) {
        self.cache_learning = on;
    }

    /// Earliest armed watch deadline, if any — hosts without a
    /// scheduled-timer transport (the threaded worker loop) use this to
    /// bound their receive timeout.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.watches.iter().map(|w| w.deadline).min()
    }

    /// Simulated power loss. For a peer with a durable catalog
    /// (DESIGN.md §12) this drops all volatile protocol state — armed
    /// watches, client bookkeeping, the in-memory catalog — and crashes
    /// the journal's disk (unsynced WAL tail lost, possibly torn). For
    /// a legacy volatile peer it is deliberately a no-op: the pre-
    /// durability kill semantics model an interface outage with memory
    /// intact, and the existing churn tests and golden traces pin that.
    pub fn crash(&mut self) {
        if self.peer.crash_volatile() {
            self.watches.clear();
            self.client.clear();
            self.verify.clear();
            self.rounds.clear();
        }
    }

    /// Restart after a crash: recovers the catalog from the journal
    /// (prefix-consistent replay) and re-announces this peer's own
    /// surviving bindings as untracked [`Frame::Register`] frames to
    /// every index/meta-index server the recovered catalog knows, plus
    /// the bootstrap route. Without a journal: nothing to replay, no
    /// effects — the same recovery state machine, degenerate case.
    pub fn recover(&mut self, now: u64) -> Vec<Effect> {
        if !self.peer.recover_catalog() {
            return Vec::new();
        }
        self.peer.set_clock(now);
        let me = self.peer.id().clone();
        let mine: Vec<CatalogEntry> = self
            .peer
            .catalog()
            .entries()
            .iter()
            .filter(|e| e.server == me)
            .map(|e| (**e).clone())
            .collect();
        // Announcement targets, deduped in catalog order; the bootstrap
        // route last (a seller's recovered catalog often holds nothing
        // but its own entries).
        let mut targets: Vec<ServerId> = Vec::new();
        for e in self.peer.catalog().entries() {
            if matches!(e.level, Level::Index | Level::MetaIndex)
                && e.server != me
                && !targets.contains(&e.server)
            {
                targets.push(e.server.clone());
            }
        }
        if let Some(boot) = self.peer.default_route() {
            if *boot != me && !targets.contains(boot) {
                targets.push(boot.clone());
            }
        }
        let mut effects = Vec::new();
        for target in &targets {
            let Some(node) = self.directory.node_of(target) else {
                continue;
            };
            for entry in &mine {
                effects.push(Effect::Send {
                    to: node,
                    bytes: Frame::Register(entry.clone()).encode(),
                });
            }
        }
        effects
    }

    /// Submits a query plan at this node: wraps it in a `Display`
    /// targeting this peer (`<id>#<qid>`), records client-side state,
    /// and emits the initial self-delivery (processing starts at the
    /// submitting peer itself, which is also how the paper's "this
    /// query's client may well become the next query's server" reads).
    pub fn submit(&mut self, qid: QueryId, plan: Plan, now: u64) -> Vec<Effect> {
        let target = format!("{}#{}", self.peer.id(), qid);
        let plan = match plan {
            Plan::Display { input, .. } => Plan::display(target, *input),
            other => Plan::display(target, other),
        };
        let meter = Meter {
            submitted_at: now,
            ..Meter::default()
        };
        // Track the query's interest area for cache learning.
        let area = plan.urns().iter().find_map(|u| u.urn.as_area().cloned());
        let wire = match outbound(&Mqp::new(plan)) {
            Ok(wire) => wire,
            Err(reason) => return vec![failed(qid, meter, now, reason)],
        };
        self.client.insert(qid, ClientQuery { area });
        let frame = Frame::Mqp(MqpFrame {
            qid: Some(qid),
            meter: Meter {
                mqp_bytes: wire.len() as u64,
                ..meter
            },
            envelope: wire,
        });
        // The initial self-delivery is deliberately untracked: there is
        // no previous hop to retry from.
        vec![Effect::Send {
            to: self.node,
            bytes: frame.encode(),
        }]
    }

    /// A wire frame arrived from `from`. Returns the effects to apply,
    /// in order.
    pub fn on_message(&mut self, from: NodeId, bytes: &[u8], now: u64) -> Vec<Effect> {
        // Bytes from the network cannot be trusted to be a frame. One
        // that is not is dropped unacknowledged: to a watching sender
        // that is a lost frame, and it re-routes.
        let Ok(frame) = Frame::decode(bytes) else {
            return Vec::new();
        };
        match frame {
            // A re-announcement after crash recovery is a registration
            // like any other.
            Frame::Register(entry) => {
                let subject = entry.server.clone();
                match self.peer.register_entry_from(entry, from as u64, now) {
                    Some((area_key, claimants)) => {
                        self.open_verification(&subject, &area_key, &claimants, now)
                    }
                    None => Vec::new(),
                }
            }
            Frame::Ack { qid } => {
                self.on_ack(from, qid);
                Vec::new()
            }
            // This node is the submitting front-end's peer: a plan it
            // cannot read is a failed query, reported under its qid.
            Frame::Submit { qid, plan } => match Mqp::from_wire(&plan) {
                Ok(mqp) => self.submit(qid, mqp.plan().clone(), now),
                Err(e) => {
                    let meter = Meter {
                        submitted_at: now,
                        ..Meter::default()
                    };
                    let reason = format!("malformed submitted plan: {e}");
                    vec![failed(qid, meter, now, reason)]
                }
            },
            // Hot policy reload: takes effect from the next processing
            // step; in-flight envelopes keep their meters and watches
            // untouched.
            Frame::Policy(rules) => {
                self.peer.set_rules(rules);
                Vec::new()
            }
            // Hello is the stream handshake, transport business; a node
            // receiving one does nothing.
            Frame::Hello { .. } => Vec::new(),
            Frame::Result(rf) => self.acked(from, Some(rf.qid), |n, fx| {
                n.handle_result(rf, now, fx);
            }),
            // An envelope nobody here can process was not delivered: no
            // ack, so a watching sender re-routes as for a lost frame.
            Frame::Mqp(mf) => match Mqp::from_wire(&mf.envelope) {
                Ok(mqp) => self.acked(from, mf.qid, |n, fx| n.handle_mqp(mqp, mf, now, fx)),
                Err(_) => Vec::new(),
            },
        }
    }

    /// Handles a delivered frame that carries query id `qid` from
    /// `from`, with the ack it earns. A remote sender is acked first,
    /// and only under a retry policy: without one no sender watches. A
    /// frame this node sent itself earns no ack; the watch it aimed at
    /// itself is disarmed once `handle` has run, so a self-aimed watch
    /// `handle` armed for the same query goes too, as an ack arriving
    /// through a transport on the frame's heels would have done.
    fn acked(
        &mut self,
        from: NodeId,
        qid: Option<QueryId>,
        handle: impl FnOnce(&mut Self, &mut Vec<Effect>),
    ) -> Vec<Effect> {
        let mut effects = Vec::new();
        match qid {
            Some(qid) if from != self.node && self.retry.is_some() => {
                effects.push(Effect::Ack { to: from, qid });
                handle(self, &mut effects);
            }
            Some(qid) if from == self.node => {
                handle(self, &mut effects);
                self.on_ack(from, qid);
            }
            _ => handle(self, &mut effects),
        }
        effects
    }

    /// Node `acker` confirmed receipt of this node's tracked forward of
    /// `qid`: disarm the watch if it was indeed aimed at `acker`.
    fn on_ack(&mut self, acker: NodeId, qid: QueryId) {
        self.watches.retain(|w| !(w.qid == qid && w.to == acker));
    }

    /// The driving clock passed `now`: fire every expired watch, in
    /// arming order. Ticks with nothing expired are no-ops.
    pub fn on_tick(&mut self, now: u64) -> Vec<Effect> {
        let Some(policy) = self.retry else {
            return Vec::new();
        };
        let mut effects = Vec::new();
        let mut i = 0;
        while i < self.watches.len() {
            if self.watches[i].deadline > now {
                i += 1;
                continue;
            }
            let w = self.watches.remove(i);
            if w.attempts >= policy.max_retries {
                let dead = self.directory.id_of(w.to);
                effects.push(Effect::Complete(mk_outcome(
                    w.qid,
                    frame_meter(&w.frame),
                    now,
                    mqp_xml::Batch::new(),
                    Some(format!(
                        "gave up after {} retries; last hop {dead} unresponsive",
                        w.attempts
                    )),
                    frame_audit(&w.frame),
                )));
                continue;
            }
            effects.push(Effect::Retried { qid: w.qid });
            match w.frame {
                Frame::Mqp(mut mf) => match self.reroute(&mf.envelope, w.to, now) {
                    Ok((next, wire)) => {
                        mf.meter.mqp_bytes += wire.len() as u64;
                        mf.meter.retries += 1;
                        mf.envelope = wire;
                        self.tracked_send(
                            Some(w.qid),
                            next,
                            Frame::Mqp(mf),
                            w.attempts + 1,
                            now,
                            &mut effects,
                        );
                    }
                    Err(reason) => effects.push(failed(w.qid, mf.meter, now, reason)),
                },
                // A result hop has a fixed destination (the client):
                // resend as-is.
                Frame::Result(mut rf) => {
                    rf.meter.retries += 1;
                    self.tracked_send(
                        Some(w.qid),
                        w.to,
                        Frame::Result(rf),
                        w.attempts + 1,
                        now,
                        &mut effects,
                    );
                }
                _ => {}
            }
        }
        effects
    }

    /// The §4.2 fallback for a tracked envelope `wire` that hop `to`
    /// never acknowledged: the next hop and the envelope to send there,
    /// or why the query cannot go on.
    fn reroute(&mut self, wire: &str, to: NodeId, now: u64) -> Result<(NodeId, String), String> {
        let mut mqp =
            Mqp::from_wire(wire).map_err(|e| format!("tracked envelope does not reparse: {e}"))?;
        let dead = self.directory.id_of(to);
        // Drop Or-alternatives that require the dead server (when
        // others survive), then re-route.
        let pruned = mqp_core::rewrite::prune_server_alternatives(mqp.plan_mut(), &dead);
        // The detour is provenance-visible (invariant 7).
        mqp.record(VisitRecord {
            server: self.peer.id().clone(),
            action: Action::Retried,
            detail: if pruned > 0 {
                format!("timeout waiting on {dead}; pruned {pruned} alternative(s), rerouting")
            } else {
                format!("timeout waiting on {dead}; rerouting")
            },
            at: now,
            staleness: 0,
        });
        // Re-resolution: route again, excluding the dead hop — the
        // catalog's remaining alternatives take over. With no
        // alternative, resend to the same hop (it may be mid-churn and
        // rejoin).
        let next = self
            .peer
            .route_excluding(mqp.plan(), &mqp.visited(), &dead)
            .and_then(|s| self.directory.node_of(&s))
            .unwrap_or(to);
        Ok((next, outbound(&mqp)?))
    }

    /// Sends `frame` and, when a retry policy is active and the frame
    /// carries a query id, arms a watch at this node.
    fn tracked_send(
        &mut self,
        qid: Option<QueryId>,
        to: NodeId,
        frame: Frame,
        attempts: u32,
        now: u64,
        effects: &mut Vec<Effect>,
    ) {
        let bytes = frame.encode();
        if let (Some(policy), Some(qid)) = (self.retry, qid) {
            let deadline = now + policy.timeout_us;
            // Re-arming replaces the previous watch for this query.
            self.watches.retain(|w| w.qid != qid);
            self.watches.push(Watch {
                qid,
                deadline,
                to,
                attempts,
                frame,
            });
            effects.push(Effect::SetTimer { at: deadline });
        }
        effects.push(Effect::Send { to, bytes });
    }

    /// Opens a verification round for a contested area (DESIGN.md §14):
    /// asks the installed rules what to do about the newly conflicting
    /// `subject` (summary quarantine, verify, or nothing), then sends
    /// each claimant a `count(σ(B))` probe — an ordinary MQP riding the
    /// existing wire frames, displayed back to this peer under a
    /// verification query id. Fire-and-forget: probes are untracked, and
    /// a round whose answers never arrive expires after [`ROUND_TTL_US`].
    fn open_verification(
        &mut self,
        subject: &ServerId,
        area_key: &str,
        claimants: &[ServerId],
        now: u64,
    ) -> Vec<Effect> {
        let effects = Vec::new();
        let (quarantine, verify) = self.peer.trust_decision(subject);
        if quarantine {
            self.peer.quarantine_server(subject, now);
            return effects;
        }
        if !verify {
            return effects;
        }
        if let Some(open) = self.rounds.get(area_key) {
            if now.saturating_sub(open.started_at) < ROUND_TTL_US {
                return effects; // one round per area at a time
            }
            // A claimant never answered: abandon the stale round.
            self.verify.retain(|_, p| p.area_key != area_key);
            self.rounds.remove(area_key);
        }
        let me = self.peer.id().clone();
        let mut effects = effects;
        let mut expected = 0;
        for server in claimants {
            let Some(node) = self.directory.node_of(server) else {
                continue;
            };
            self.vqid_counter += 1;
            let vqid = QueryId::new(VQID_BASE | ((self.node as u64) << 24) | self.vqid_counter);
            let mut url = UrlRef::new(server.to_url());
            url.meta.set("area", area_key);
            let plan = Plan::display(
                format!("{me}#{vqid}"),
                Plan::aggregate(AggFunc::Count, None, Plan::Url(url)),
            );
            let wire = Mqp::new(plan).to_wire();
            let frame = Frame::Mqp(MqpFrame {
                qid: Some(vqid),
                meter: Meter {
                    submitted_at: now,
                    hops: 0,
                    mqp_bytes: wire.len() as u64,
                    retries: 0,
                },
                envelope: wire,
            });
            self.verify.insert(
                vqid,
                Probe {
                    area_key: area_key.to_owned(),
                    server: server.clone(),
                },
            );
            expected += 1;
            effects.push(Effect::Send {
                to: node,
                bytes: frame.encode(),
            });
        }
        if expected > 0 {
            self.rounds.insert(
                area_key.to_owned(),
                Round {
                    expected,
                    got: Vec::new(),
                    started_at: now,
                },
            );
        }
        effects
    }

    /// A probe answer came back: fold it into its round, and when the
    /// round is complete, classify the claimant set and apply the
    /// verdicts (journaled trust transitions) at the wrapped peer.
    fn absorb_probe(&mut self, probe: Probe, rf: &ResultFrame, now: u64) {
        // A malformed or empty answer reads as zero qualifying items.
        let count = mqp_xml::parse_items(&rf.items)
            .ok()
            .and_then(|items| items.first()?.deep_text().trim().parse::<u64>().ok())
            .unwrap_or(0);
        let fresh = self.peer.catalog().trust().is_fresh(&probe.server, now);
        let Some(round) = self.rounds.get_mut(&probe.area_key) else {
            return;
        };
        round.got.push(Observation {
            server: probe.server,
            count,
            fingerprint: mqp_catalog::trust::fingerprint(rf.items.as_bytes()),
            fresh,
        });
        if round.got.len() < round.expected {
            return;
        }
        let round = self.rounds.remove(&probe.area_key).expect("round present");
        let verdicts = classify(&round.got);
        self.peer.apply_trust_round(&verdicts, now);
    }

    fn handle_result(&mut self, rf: ResultFrame, now: u64, effects: &mut Vec<Effect>) {
        // A verification probe answer is protocol-internal: absorb it
        // into its round instead of surfacing a client completion.
        if let Some(probe) = self.verify.remove(&rf.qid) {
            self.absorb_probe(probe, &rf, now);
            return;
        }
        // §3.4 cache learning, applied once — when the first result for
        // a query this node submitted arrives.
        if let Some(cq) = self.client.remove(&rf.qid) {
            if self.cache_learning {
                if let (Some(area), Some(by)) = (&cq.area, &rf.bound_by) {
                    if self.peer.id() != by {
                        self.peer.catalog_mut().record_route(area, by.clone());
                    }
                }
            }
        }
        // A payload that does not decode is a failed query, not an
        // empty answer.
        let (items, failure) = match mqp_xml::parse_items(&rf.items) {
            Ok(items) => (items, None),
            Err(e) => (
                mqp_xml::Batch::new(),
                Some(format!("malformed result payload: {e}")),
            ),
        };
        effects.push(Effect::Complete(mk_outcome(
            rf.qid,
            rf.meter,
            now,
            items,
            failure,
            rf.audit_clean,
        )));
    }

    fn handle_mqp(&mut self, mut mqp: Mqp, mf: MqpFrame, now: u64, effects: &mut Vec<Effect>) {
        self.peer.set_clock(now);
        let outcome = self.peer.process(&mut mqp);
        match outcome {
            Outcome::Complete { target, items } => {
                // §3.4 cache learning: remember the server that *bound*
                // the URN (an index/meta server that knows the area),
                // not whoever happened to finish the reduction.
                let bound_by = mqp
                    .provenance()
                    .iter()
                    .find(|v| v.action == Action::Bound)
                    .map(|v| v.server.clone());
                // §5.1 audit at the completing server: every source of
                // the original plan must be accounted for by some visit
                // — detours included.
                let audit_clean = mqp
                    .original()
                    .map(|orig| mqp_core::unaccounted_sources(orig, mqp.provenance()).is_empty());
                let client_node = target
                    .as_deref()
                    .and_then(|t| t.rsplit_once('#'))
                    .and_then(|(client, _)| self.directory.node_of(&ServerId::new(client)));
                let items_xml: String = items.iter().map(mqp_xml::serialize).collect();
                match (client_node, mf.qid) {
                    (Some(client), Some(qid)) => {
                        let mut meter = mf.meter;
                        meter.hops += 1;
                        self.tracked_send(
                            Some(qid),
                            client,
                            Frame::Result(ResultFrame {
                                qid,
                                meter,
                                audit_clean,
                                bound_by,
                                items: items_xml,
                            }),
                            0,
                            now,
                            effects,
                        );
                    }
                    (_, qid) => {
                        // No routable target: record completion in
                        // place.
                        if let Some(qid) = qid {
                            effects.push(Effect::Complete(mk_outcome(
                                qid,
                                mf.meter,
                                now,
                                items,
                                None,
                                audit_clean,
                            )));
                        }
                    }
                }
            }
            Outcome::Forward { to } => {
                let sendable = self
                    .directory
                    .node_of(&to)
                    .ok_or_else(|| format!("route to unknown server {to}"))
                    .and_then(|next| Ok((next, outbound(&mqp)?)));
                let (next, wire) = match sendable {
                    Ok(sendable) => sendable,
                    Err(reason) => {
                        if let Some(qid) = mf.qid {
                            effects.push(failed(qid, mf.meter, now, reason));
                        }
                        return;
                    }
                };
                let mut meter = mf.meter;
                meter.hops += 1;
                meter.mqp_bytes += wire.len() as u64;
                self.tracked_send(
                    mf.qid,
                    next,
                    Frame::Mqp(MqpFrame {
                        qid: mf.qid,
                        meter,
                        envelope: wire,
                    }),
                    0,
                    now,
                    effects,
                );
            }
            Outcome::Stuck { reason } => {
                if let Some(qid) = mf.qid {
                    effects.push(failed(qid, mf.meter, now, reason));
                }
            }
        }
    }
}

/// The one place a travelling [`Meter`] becomes a [`QueryOutcome`]:
/// latency is measured from the meter's submission stamp, and the
/// carried counters are reported as-is.
fn mk_outcome(
    qid: QueryId,
    meter: Meter,
    now: u64,
    items: mqp_xml::Batch,
    failure: Option<String>,
    audit_clean: Option<bool>,
) -> QueryOutcome {
    QueryOutcome {
        qid,
        items,
        failure,
        latency_us: now.saturating_sub(meter.submitted_at),
        hops: meter.hops,
        mqp_bytes: meter.mqp_bytes,
        retries: meter.retries,
        audit_clean,
    }
}

/// A query that ends at this node with `reason`, no items and no audit.
fn failed(qid: QueryId, meter: Meter, now: u64, reason: String) -> Effect {
    Effect::Complete(mk_outcome(
        qid,
        meter,
        now,
        mqp_xml::Batch::new(),
        Some(reason),
        None,
    ))
}

/// The wire form of an envelope this node sends, or why no peer could
/// read it. Wrapping a submitted plan in its `Display` and binding a
/// URN both deepen a plan; one grown past the reader's nesting cap
/// fails its query here instead of being dropped by the next hop.
fn outbound(mqp: &Mqp) -> Result<String, String> {
    let wire = mqp.to_wire();
    if mqp_xml::canon::within_depth_cap(&wire) {
        Ok(wire)
    } else {
        Err("envelope nests too deep for any peer to read".to_owned())
    }
}

fn frame_meter(frame: &Frame) -> Meter {
    match frame {
        Frame::Mqp(f) => f.meter,
        Frame::Result(f) => f.meter,
        _ => Meter::default(),
    }
}

fn frame_audit(frame: &Frame) -> Option<bool> {
    match frame {
        // A failed result hop still carries the completing server's
        // audit verdict.
        Frame::Result(f) => f.audit_clean,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{ns, pdx_cds};
    use mqp_namespace::Urn;
    use mqp_xml::parse;

    fn directory(ids: &[&str]) -> Arc<Directory> {
        Arc::new(Directory::new(
            ids.iter().map(|s| ServerId::new(*s)).collect(),
        ))
    }

    fn seller_node(node: NodeId, dir: &Arc<Directory>) -> PeerNode {
        let mut p = Peer::new(dir.id_of(node), ns());
        p.add_collection(
            "cds",
            pdx_cds(),
            [parse("<item><title>A</title><price>8</price></item>").unwrap()],
        );
        PeerNode::new(node, p, Arc::clone(dir))
    }

    /// A submit at a data-holding peer completes locally: the node
    /// self-sends the envelope, processes it, and sends itself the
    /// result, which becomes a `Complete` effect.
    #[test]
    fn submit_process_complete_locally() {
        let dir = directory(&["solo"]);
        let mut n = seller_node(0, &dir);
        let qid = QueryId::new(0);
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        let fx = n.submit(qid, plan, 100);
        let [Effect::Send { to, bytes }] = &fx[..] else {
            panic!("expected one Send, got {fx:?}");
        };
        assert_eq!(*to, 0);
        let fx = n.on_message(0, bytes, 100);
        // The result goes to this node itself: no ack, no watch.
        let [Effect::Send { to: 0, bytes }] = &fx[..] else {
            panic!("expected the result self-send, got {fx:?}");
        };
        let fx = n.on_message(0, bytes, 250);
        let done = fx
            .iter()
            .find_map(|e| match e {
                Effect::Complete(o) => Some(o.clone()),
                _ => None,
            })
            .expect("complete");
        assert_eq!(done.qid, qid);
        assert!(done.failure.is_none());
        assert_eq!(done.items.len(), 1);
        assert_eq!(done.latency_us, 150);
        assert_eq!(done.hops, 1);
    }

    /// Tracked forwards arm a watch; the ack from the receiver disarms
    /// it; an unacked forward retries on tick and eventually fails.
    #[test]
    fn watch_arms_retries_and_exhausts() {
        let dir = directory(&["a", "b"]);
        let mut a = seller_node(0, &dir);
        a.set_retry(Some(RetryPolicy {
            timeout_us: 1_000,
            max_retries: 1,
        }));
        let qid = QueryId::new(3);
        let mut fx = Vec::new();
        a.tracked_send(
            Some(qid),
            1,
            Frame::Mqp(MqpFrame {
                qid: Some(qid),
                meter: Meter {
                    submitted_at: 0,
                    hops: 1,
                    mqp_bytes: 10,
                    retries: 0,
                },
                envelope: Mqp::new(Plan::display("a#3", Plan::url("mqp://b/"))).to_wire(),
            }),
            0,
            0,
            &mut fx,
        );
        assert!(matches!(fx[0], Effect::SetTimer { at: 1_000, .. }));
        assert_eq!(a.next_deadline(), Some(1_000));
        // Nothing expired yet.
        assert!(a.on_tick(500).is_empty());
        // First expiry: a retry (re-sent, re-armed).
        let fx = a.on_tick(1_000);
        assert!(fx.iter().any(|e| matches!(e, Effect::Retried { .. })));
        assert!(fx.iter().any(|e| matches!(e, Effect::Send { to: 1, .. })));
        assert_eq!(a.next_deadline(), Some(2_000));
        // Second expiry: budget spent, explicit failure.
        let fx = a.on_tick(2_000);
        let done = fx
            .iter()
            .find_map(|e| match e {
                Effect::Complete(o) => Some(o.clone()),
                _ => None,
            })
            .expect("failure outcome");
        assert_eq!(done.qid, qid);
        assert!(done.failure.as_deref().unwrap().contains("retries"));
        assert_eq!(done.retries, 1);
        assert_eq!(a.next_deadline(), None);
    }

    /// The node decides acks. Without a retry policy nothing is acked:
    /// no sender watches. With one, a remote sender gets one `Ack`; a
    /// tracked frame the node sent itself earns none, and the watch it
    /// aimed at itself is disarmed in place.
    #[test]
    fn acks_only_remote_senders_under_a_policy() {
        let dir = directory(&["a", "b"]);
        let forward = |qid: u64| {
            Frame::Mqp(MqpFrame {
                qid: Some(QueryId::new(qid)),
                meter: Meter::default(),
                envelope: Mqp::new(Plan::display("b#1", Plan::url("mqp://a/"))).to_wire(),
            })
            .encode()
        };
        let acks = |fx: &[Effect]| -> Vec<Effect> {
            fx.iter()
                .filter(|e| matches!(e, Effect::Ack { .. }))
                .cloned()
                .collect()
        };
        let mut a = seller_node(0, &dir);
        assert_eq!(acks(&a.on_message(1, &forward(1), 5)), vec![]);

        a.set_retry(Some(RetryPolicy::default()));
        let fx = a.on_message(1, &forward(2), 10);
        let qid = QueryId::new(2);
        assert_eq!(acks(&fx), vec![Effect::Ack { to: 1, qid }]);
        assert_eq!(fx[0], Effect::Ack { to: 1, qid }, "the ack goes first");

        // A tracked result this node sends itself.
        let qid = QueryId::new(3);
        let result = Frame::Result(ResultFrame {
            qid,
            meter: Meter::default(),
            audit_clean: None,
            bound_by: None,
            items: String::new(),
        });
        let mut fx = Vec::new();
        a.tracked_send(Some(qid), 0, result, 0, 20, &mut fx);
        let [Effect::SetTimer { .. }, Effect::Send { to: 0, bytes }] = &fx[..] else {
            panic!("expected a watched self-send, got {fx:?}");
        };
        assert!(a.watches.iter().any(|w| w.qid == qid && w.to == 0));
        let fx = a.on_message(0, bytes, 30);
        assert_eq!(acks(&fx), vec![]);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Complete(o) if o.qid == qid)));
        assert!(
            a.watches.iter().all(|w| w.qid != qid),
            "self watch disarmed"
        );
    }

    /// An ack from the watched hop disarms; an ack from anyone else
    /// does not.
    #[test]
    fn ack_bookkeeping_is_hop_precise() {
        let dir = directory(&["a", "b", "c"]);
        let mut a = seller_node(0, &dir);
        a.set_retry(Some(RetryPolicy::default()));
        let qid = QueryId::new(1);
        let mut fx = Vec::new();
        a.tracked_send(
            Some(qid),
            1,
            Frame::Mqp(MqpFrame {
                qid: Some(qid),
                meter: Meter::default(),
                envelope: Mqp::new(Plan::display("a#1", Plan::url("mqp://b/"))).to_wire(),
            }),
            0,
            0,
            &mut fx,
        );
        a.on_ack(2, qid); // wrong hop: still armed
        assert!(a.next_deadline().is_some());
        a.on_ack(1, qid); // the watched hop: disarmed
        assert!(a.next_deadline().is_none());
    }

    /// Bytes that are not a frame are dropped: no effects, no panic.
    #[test]
    fn undecodable_frame_is_dropped() {
        let dir = directory(&["a", "b"]);
        let mut a = seller_node(0, &dir);
        for junk in [&b"\xff\xfe garbage"[..], b"", b"mqp 1 2\n", b"nope 1\n<x/>"] {
            assert_eq!(a.on_message(1, junk, 5), Vec::new(), "{junk:?}");
        }
    }

    /// An `mqp` frame whose envelope does not parse was not delivered:
    /// in particular it is not acknowledged, so the sender's watch
    /// treats it as lost.
    #[test]
    fn malformed_envelope_is_dropped_unacknowledged() {
        let dir = directory(&["a", "b"]);
        let mut a = seller_node(0, &dir);
        a.set_retry(Some(RetryPolicy::default()));
        let good = Mqp::new(Plan::display("b#4", Plan::url("mqp://a/"))).to_wire();
        let frame = |envelope: &str| {
            Frame::Mqp(MqpFrame {
                qid: Some(QueryId::new(4)),
                meter: Meter::default(),
                envelope: envelope.to_owned(),
            })
            .encode()
        };
        assert_eq!(a.on_message(1, &frame(&good[..good.len() / 2]), 5), vec![]);
        assert_eq!(a.on_message(1, &frame("<mqp>not a plan</mqp>"), 5), vec![]);
        // The whole envelope, for contrast, is acknowledged first.
        let fx = a.on_message(1, &frame(&good), 5);
        assert!(matches!(fx[0], Effect::Ack { to: 1, .. }), "{fx:?}");
    }

    /// A front-end's `sub` frame carrying an unreadable plan fails that
    /// query at this node, which is its client.
    #[test]
    fn malformed_submitted_plan_fails_the_query() {
        let dir = directory(&["a", "b"]);
        let mut a = seller_node(0, &dir);
        let frame = Frame::Submit {
            qid: QueryId::new(7),
            plan: "<mqp><plan><select".to_owned(),
        };
        let fx = a.on_message(2, &frame.encode(), 40);
        let [Effect::Complete(out)] = &fx[..] else {
            panic!("expected one completion, got {fx:?}");
        };
        assert_eq!(out.qid, QueryId::new(7));
        assert!(out.items.is_empty());
        let why = out.failure.as_deref().expect("a failure");
        assert!(why.contains("malformed submitted plan"), "{why}");
        assert!(a.client.is_empty(), "no client state for a dead query");
    }

    /// A plan grown past the reader's nesting cap fails its query at
    /// the node that grew it, with retry armed and without a panic:
    /// once when the submit's `Display` wrap deepens it, once when
    /// binding its URN does. A tracked envelope that no longer reads
    /// fails its query on retry.
    #[test]
    fn plans_grown_too_deep_fail_where_they_grow() {
        let dir = directory(&["a", "b", "c"]);
        let mut a = PeerNode::new(0, Peer::new("a", ns()), Arc::clone(&dir));
        a.set_retry(Some(RetryPolicy::default()));
        for (node, seller) in [(1, "b"), (2, "c")] {
            let entry = CatalogEntry::base(seller, pdx_cds());
            a.on_message(node, &Frame::Register(entry).encode(), 0);
        }
        // Selects over a URN; with `<mqp><plan>` that is `levels + 3`
        // elements deep.
        let deep = |levels: usize| {
            let urn = Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds())));
            (0..levels).fold(urn, |p, _| Plan::select("price < 10", p))
        };
        let submit = |plan: Plan| {
            let plan = Mqp::without_original(plan).to_wire();
            Frame::Submit {
                qid: QueryId::new(9),
                plan,
            }
            .encode()
        };
        let failure = |fx: &[Effect]| {
            fx.iter().find_map(|e| match e {
                Effect::Complete(o) => o.failure.clone(),
                _ => None,
            })
        };
        // 64 deep reads, 65 does not: the wrap fails the query.
        assert!(Mqp::from_wire(&Mqp::without_original(deep(62)).to_wire()).is_err());
        let why = failure(&a.on_message(3, &submit(deep(61)), 10)).expect("wrap fails");
        assert!(why.contains("too deep"), "{why}");
        assert!(a.client.is_empty(), "no client state for a dead query");
        // A display keeps its depth through the wrap, so the envelope
        // goes out; binding its URN to two sellers then deepens it.
        let fx = a.on_message(3, &submit(Plan::display("x", deep(60))), 20);
        let [Effect::Send { to: 0, bytes }] = &fx[..] else {
            panic!("expected the self-delivery, got {fx:?}");
        };
        let fx = a.on_message(0, bytes, 30);
        let why = failure(&fx).expect("binding fails the query");
        assert!(why.contains("too deep"), "{why}");
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::Send { .. })),
            "{fx:?}"
        );
        assert_eq!(a.next_deadline(), None, "nothing sent, nothing watched");
        // The retry path reports an unreadable tracked envelope.
        let qid = QueryId::new(5);
        let torn = Frame::Mqp(MqpFrame {
            qid: Some(qid),
            meter: Meter::default(),
            envelope: "<mqp>".to_owned(),
        });
        a.tracked_send(Some(qid), 1, torn, 0, 0, &mut Vec::new());
        let fx = a.on_tick(a.next_deadline().expect("armed"));
        let why = failure(&fx).expect("retry fails the query");
        assert!(why.contains("does not reparse"), "{why}");
    }

    /// A registration frame lands in the catalog; with no conflict to
    /// verify, the node has nothing for its host to do.
    #[test]
    fn registration_applies_to_the_catalog() {
        let dir = directory(&["a", "b"]);
        let mut a = PeerNode::new(0, Peer::new("a", ns()), Arc::clone(&dir));
        let entry = CatalogEntry::base("b", pdx_cds());
        let fx = a.on_message(1, &Frame::Register(entry.clone()).encode(), 5);
        assert_eq!(fx, vec![]);
        let entries = a.peer().catalog().entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(*entries[0], entry);
    }

    /// A registration whose arity is not the namespace's touches
    /// neither the catalog nor the journal, and so cannot block a
    /// well-formed registration of the same server.
    #[test]
    fn registration_of_another_arity_is_dropped() {
        use mqp_catalog::{DurableCatalog, MemDisk, SharedDisk};
        use mqp_namespace::InterestArea;
        let dir = directory(&["a", "b"]);
        let disk = SharedDisk::new(MemDisk::new());
        let mut p = Peer::new("a", ns());
        p.enable_durability(DurableCatalog::new(disk.clone()));
        let mut a = PeerNode::new(0, p, Arc::clone(&dir));
        let wal = || disk.with(|d| d.wal_read().unwrap());
        let before = wal();
        let unary = CatalogEntry::base("b", InterestArea::parse(&[&["Oregon/Portland"]]));
        assert_eq!(a.on_message(1, &Frame::Register(unary).encode(), 5), vec![]);
        assert!(a.peer().catalog().entries().is_empty());
        assert_eq!(wal(), before);
        let entry = CatalogEntry::base("b", pdx_cds());
        a.on_message(1, &Frame::Register(entry.clone()).encode(), 6);
        assert_eq!(a.peer().catalog().entries().len(), 1);
        assert_eq!(*a.peer().catalog().entries()[0], entry);
        assert_ne!(wal(), before);
    }

    /// A registration stream far shorter than the index's snapshot is
    /// journaled without re-encoding the snapshot, and every record of
    /// it survives a crash.
    #[test]
    fn registrations_into_a_large_durable_index_do_not_rewrite_its_snapshot() {
        use mqp_catalog::{DurableCatalog, MemDisk, SharedDisk};
        let dir = directory(&["idx", "b"]);
        let disk = SharedDisk::new(MemDisk::new());
        let mut p = Peer::new("idx", ns());
        for i in 0..5_000 {
            p.catalog_mut()
                .register(CatalogEntry::base(format!("seed-{i:04}"), pdx_cds()));
        }
        p.enable_durability(DurableCatalog::new(disk.clone()));
        let mut idx = PeerNode::new(0, p, Arc::clone(&dir));
        let snapshot = || disk.with(|d| d.snapshot_read().unwrap());
        let seeded = snapshot();
        let late = |i: u64| CatalogEntry::base(format!("late-{i:03}"), pdx_cds());
        for i in 0..200 {
            idx.on_message(1, &Frame::Register(late(i)).encode(), i);
        }
        assert!(snapshot() == seeded, "the snapshot was rewritten");
        idx.crash();
        idx.recover(200);
        let catalog = idx.peer().catalog();
        assert_eq!(catalog.entries().len(), 5_200);
        for i in 0..200 {
            let server = late(i).server;
            assert!(catalog.entries().iter().any(|e| e.server == server));
        }
    }

    /// A result payload that does not decode fails the query; it must
    /// not read as a successful answer with zero items.
    #[test]
    fn torn_result_payload_fails_the_query() {
        let dir = directory(&["a", "b"]);
        let mut a = PeerNode::new(0, Peer::new("a", ns()), Arc::clone(&dir));
        a.set_retry(Some(RetryPolicy::default()));
        let mut outcome = |items: &str| {
            let frame = Frame::Result(ResultFrame {
                qid: QueryId::new(3),
                meter: Meter::default(),
                audit_clean: Some(true),
                bound_by: None,
                items: items.to_owned(),
            });
            let fx = a.on_message(1, &frame.encode(), 5);
            match &fx[..] {
                [Effect::Ack { to: 1, .. }, Effect::Complete(o)] => o.clone(),
                other => panic!("expected ack + completion, got {other:?}"),
            }
        };
        let whole = outcome("<item><t>A</t></item><item><t>B</t></item>");
        assert_eq!(whole.failure, None);
        let expect = ["<item><t>A</t></item>", "<item><t>B</t></item>"].map(|s| parse(s).unwrap());
        assert!(whole.items.iter().eq(expect.iter()));
        let torn = outcome("<item><t>A</t>");
        assert!(torn.items.is_empty());
        let why = torn.failure.expect("a torn payload is a failure");
        assert!(
            why.contains("malformed result payload") && why.contains("byte 14"),
            "{why}"
        );
    }

    // ------------------------------------------------------------------
    // Multi-origin binding defense (DESIGN.md §14)
    // ------------------------------------------------------------------

    /// Delivers every `Send` effect until the network drains, dropping
    /// non-transport effects — a four-line driver for defense tests.
    fn drain(nodes: &mut [PeerNode], seed: Vec<(NodeId, Effect)>, now: u64) {
        let mut queue: Vec<(NodeId, NodeId, Vec<u8>)> = seed
            .into_iter()
            .filter_map(|(from, e)| match e {
                Effect::Send { to, bytes } => Some((from, to, bytes)),
                _ => None,
            })
            .collect();
        while !queue.is_empty() {
            let (from, to, bytes) = queue.remove(0);
            for e in nodes[to].on_message(from, &bytes, now) {
                if let Effect::Send { to: next, bytes } = e {
                    queue.push((to, next, bytes));
                }
            }
        }
    }

    /// Registers `entry` at verifier node 0 and drains the resulting
    /// verification round (probes out, answers back, verdicts applied).
    fn register_at_verifier(nodes: &mut [PeerNode], from: NodeId, entry: CatalogEntry, now: u64) {
        let fx = nodes[0].on_message(from, &Frame::Register(entry).encode(), now);
        let seed = fx.into_iter().map(|e| (0, e)).collect();
        drain(nodes, seed, now);
    }

    /// A seller node holding `items` for the Portland-CDs area.
    fn defense_seller(node: NodeId, dir: &Arc<Directory>, items: &[&str]) -> PeerNode {
        let mut p = Peer::new(dir.id_of(node), ns());
        p.add_collection("stock", pdx_cds(), items.iter().map(|s| parse(s).unwrap()));
        PeerNode::new(node, p, Arc::clone(dir))
    }

    /// End-to-end verification rounds at a defended verifier: honest
    /// mirrors with identical answers stay trusted; a hijacker serving
    /// different data for the same area draws strikes on every
    /// conflicting registration and lands in quarantine, after which
    /// bindings stop offering it.
    #[test]
    fn conflicting_registrations_verify_and_quarantine_the_hijacker() {
        use mqp_catalog::TrustLevel;
        let dir = directory(&["verifier", "honest", "mirror", "hijack"]);
        let mut nodes = vec![
            {
                let mut p = Peer::new("verifier", ns());
                p.enable_defense();
                PeerNode::new(0, p, Arc::clone(&dir))
            },
            defense_seller(1, &dir, &["<item><t>A</t></item>", "<item><t>B</t></item>"]),
            defense_seller(2, &dir, &["<item><t>A</t></item>", "<item><t>B</t></item>"]),
            defense_seller(3, &dir, &["<item><t>X</t></item>"]),
        ];
        let honest = CatalogEntry::base("honest", pdx_cds());
        let mirror = CatalogEntry::base("mirror", pdx_cds());
        let hijack = CatalogEntry::base("hijack", pdx_cds());
        // Lone claimant: no conflict, no round.
        register_at_verifier(&mut nodes, 1, honest, 1_000);
        assert!(nodes[0].rounds.is_empty() && nodes[0].verify.is_empty());
        // Second claimant with identical data: a round runs, both clear.
        register_at_verifier(&mut nodes, 2, mirror, 2_000);
        let book = nodes[0].peer().catalog().trust();
        assert_eq!(book.level_of(&ServerId::new("honest")), TrustLevel::Trusted);
        assert_eq!(book.level_of(&ServerId::new("mirror")), TrustLevel::Trusted);
        // The hijacker's divergent answers draw a strike per round.
        register_at_verifier(&mut nodes, 3, hijack.clone(), 3_000);
        assert_eq!(
            nodes[0]
                .peer()
                .catalog()
                .trust()
                .level_of(&ServerId::new("hijack")),
            TrustLevel::Probation
        );
        register_at_verifier(&mut nodes, 3, hijack, 4_000);
        let book = nodes[0].peer().catalog().trust();
        assert_eq!(
            book.level_of(&ServerId::new("hijack")),
            TrustLevel::Quarantined
        );
        // Honest claimants cleared again each round.
        assert_eq!(book.level_of(&ServerId::new("honest")), TrustLevel::Trusted);
        assert_eq!(book.level_of(&ServerId::new("mirror")), TrustLevel::Trusted);
        assert!(nodes[0].rounds.is_empty() && nodes[0].verify.is_empty());
        // The quarantined claimant vanishes from fresh bindings while
        // clean alternatives survive.
        let binding = nodes[0].peer().catalog().bind_area(&pdx_cds());
        assert!(binding
            .alternatives
            .iter()
            .all(|a| a.servers.iter().all(|(s, _)| *s != ServerId::new("hijack"))));
        assert!(!binding.alternatives.is_empty());
    }

    /// The laundering fix end-to-end: trust transitions are journaled,
    /// so a quarantined hijacker stays quarantined across the
    /// verifier's crash/recovery even though the WAL also replays the
    /// hijacker's (re-admitting) registrations.
    #[test]
    fn quarantine_survives_verifier_crash_and_recovery() {
        use mqp_catalog::{DurableCatalog, MemDisk, SharedDisk, TrustLevel};
        let dir = directory(&["verifier", "honest", "mirror", "hijack"]);
        let mut nodes = vec![
            {
                let mut p = Peer::new("verifier", ns());
                p.enable_defense();
                p.enable_durability(DurableCatalog::new(SharedDisk::new(MemDisk::new())));
                PeerNode::new(0, p, Arc::clone(&dir))
            },
            defense_seller(1, &dir, &["<item><t>A</t></item>", "<item><t>B</t></item>"]),
            defense_seller(2, &dir, &["<item><t>A</t></item>", "<item><t>B</t></item>"]),
            defense_seller(3, &dir, &["<item><t>X</t></item>"]),
        ];
        register_at_verifier(
            &mut nodes,
            1,
            CatalogEntry::base("honest", pdx_cds()),
            1_000,
        );
        register_at_verifier(
            &mut nodes,
            2,
            CatalogEntry::base("mirror", pdx_cds()),
            2_000,
        );
        let hijack = CatalogEntry::base("hijack", pdx_cds());
        register_at_verifier(&mut nodes, 3, hijack.clone(), 3_000);
        register_at_verifier(&mut nodes, 3, hijack.clone(), 4_000);
        assert_eq!(
            nodes[0]
                .peer()
                .catalog()
                .trust()
                .level_of(&ServerId::new("hijack")),
            TrustLevel::Quarantined
        );
        // Power loss at the verifier, then recovery from the journal:
        // every registration comes back.
        let entries = |n: &PeerNode| -> Vec<CatalogEntry> {
            let entries = n.peer().catalog().entries();
            entries.iter().map(|e| (**e).clone()).collect()
        };
        let before = entries(&nodes[0]);
        assert_eq!(before.len(), 3);
        nodes[0].crash();
        assert!(entries(&nodes[0]).is_empty());
        nodes[0].recover(5_000);
        assert_eq!(entries(&nodes[0]), before);
        let book = nodes[0].peer().catalog().trust();
        assert!(book.is_enabled(), "defense must re-arm after recovery");
        assert_eq!(
            book.level_of(&ServerId::new("hijack")),
            TrustLevel::Quarantined
        );
        // And the hijacker cannot launder itself by registering again:
        // the replayed strikes keep outweighing it.
        register_at_verifier(&mut nodes, 3, hijack, 6_000);
        assert_eq!(
            nodes[0]
                .peer()
                .catalog()
                .trust()
                .level_of(&ServerId::new("hijack")),
            TrustLevel::Quarantined
        );
    }
}
