//! The one wall-clock host: a worker thread per sans-IO [`PeerNode`],
//! generic over a [`Transport`], plus the [`Cluster`] handle and the
//! [`Client`] front-end every real driver shares (DESIGN.md §8).
//!
//! The host executes effects and decides nothing: acks the node emits
//! travel as `ack` frames, retry deadlines bound the receive wait
//! against the wall clock, and completions reach the front-end over a
//! results channel (driver plumbing, not peer traffic). A driver adds
//! only a way to move frames: [`Mesh`](crate::cluster::Mesh) or
//! [`Tcp`](crate::tcp::Tcp).

use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mqp_algebra::plan::Plan;
use mqp_catalog::CatalogEntry;
use mqp_core::{Mqp, QueryId, QueryOutcome, RuleSet};
use mqp_net::{NodeId, SocketStats};

use crate::node::{Directory, Effect, PeerNode, RetryPolicy};
use crate::peer::Peer;
use crate::wire::Frame;

/// Longest a worker waits for a frame before re-checking control.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// How long a stopping worker keeps serving after the last frame it
/// processed (the shutdown drain window).
const DRAIN_QUIET: Duration = Duration::from_millis(50);

/// What a driver supplies: a way to move encoded wire frames between
/// the nodes of one cluster. The host owns everything else — control,
/// timers, effects, stop-drain, kill/restart.
pub trait Transport: Send + 'static {
    /// Hands one frame to the transport for node `to`; `false` when it
    /// was dropped on the spot. A lost frame is lost as on a real
    /// network: retry watches, if armed, recover it.
    fn send(&mut self, to: NodeId, bytes: Vec<u8>) -> bool;

    /// The next delivered frame and its sender, waiting at most `wait`.
    /// May come back empty sooner, never later.
    fn recv(&mut self, wait: Duration) -> Option<(NodeId, Vec<u8>)>;

    /// Gives frames still queued a bounded chance to leave and abandons
    /// the rest; `true` when none was abandoned.
    fn flush(&mut self) -> bool;

    /// Off the network: nothing arrives, what is queued is abandoned.
    fn go_down(&mut self);

    /// Back on the network. Frames addressed here while down are lost.
    fn come_up(&mut self);
}

/// The counter block behind [`SocketStats`]: one per cluster, shared.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) frames_enqueued: AtomicU64,
    pub(crate) frames_sent: AtomicU64,
    pub(crate) dropped_backpressure: AtomicU64,
    pub(crate) dropped_disconnected: AtomicU64,
    pub(crate) abandoned: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) frames_received: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) frames_local: AtomicU64,
    pub(crate) connects: AtomicU64,
    pub(crate) disconnects: AtomicU64,
    pub(crate) retries: AtomicU64,
}

impl Counters {
    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SocketStats {
        let get = |field: &AtomicU64| field.load(Ordering::Relaxed);
        SocketStats {
            frames_enqueued: get(&self.frames_enqueued),
            frames_sent: get(&self.frames_sent),
            dropped_backpressure: get(&self.dropped_backpressure),
            dropped_disconnected: get(&self.dropped_disconnected),
            abandoned: get(&self.abandoned),
            bytes_sent: get(&self.bytes_sent),
            frames_received: get(&self.frames_received),
            bytes_received: get(&self.bytes_received),
            frames_local: get(&self.frames_local),
            connects: get(&self.connects),
            disconnects: get(&self.disconnects),
            retries: get(&self.retries),
        }
    }
}

/// Operator actions, delivered out of band of the frame transport.
enum Ctl {
    Kill,
    Restart,
    Stop,
}

/// What one worker thread owns: the protocol core and its surroundings.
struct Worker<T> {
    node: PeerNode,
    transport: T,
    outcomes: Sender<QueryOutcome>,
    counters: Arc<Counters>,
    epoch: Instant,
    /// Modeled per-envelope service time for `mqp` frames — what
    /// `exp_threaded_throughput` sets to show stalls overlapping.
    service_delay: Duration,
}

impl<T: Transport> Worker<T> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The worker loop: control, one receive bounded by the node's next
    /// retry deadline, the frame's effects, expired watches.
    fn run(mut self, ctl: Receiver<Ctl>) {
        let mut down = false;
        // Once a stop is seen: when the last frame was done with.
        let mut stopping: Option<Instant> = None;
        loop {
            // Control first: a pending kill must take effect before the
            // next frame.
            loop {
                match ctl.try_recv() {
                    Ok(Ctl::Kill) => {
                        self.transport.go_down();
                        self.node.crash();
                        down = true;
                    }
                    Ok(Ctl::Restart) if down => {
                        self.transport.come_up();
                        down = false;
                        let effects = self.node.recover(self.now_us());
                        self.apply(effects);
                    }
                    Ok(Ctl::Restart) => {}
                    // With the cluster handle gone nothing can restart
                    // or stop this worker, so that is a stop too.
                    Ok(Ctl::Stop) | Err(TryRecvError::Disconnected) => {
                        stopping.get_or_insert_with(Instant::now);
                        break;
                    }
                    // A killed peer sleeps until control unparks it.
                    // Parked, not blocked in `recv`: a first blocked
                    // receiver makes the channel allocate its waiter
                    // list — small, late, outliving the thread — which
                    // pins the arena a recovered catalog lived in.
                    Err(TryRecvError::Empty) if down => std::thread::park_timeout(IDLE_WAIT),
                    Err(TryRecvError::Empty) => break,
                }
            }
            if down {
                return; // stopped while down: links died at the kill
            }
            let until_tick = match self.node.next_deadline() {
                Some(d) => Duration::from_micros(d.saturating_sub(self.now_us())),
                None => IDLE_WAIT,
            };
            let mut wait = until_tick.min(IDLE_WAIT);
            if let Some(since) = stopping {
                wait = wait.min(DRAIN_QUIET.saturating_sub(since.elapsed()));
            }
            match self.transport.recv(wait) {
                Some((from, bytes)) => {
                    match Frame::kind(&bytes) {
                        // Not the end yet: frames behind the stop, and
                        // the self-sends they cause, carry completions
                        // the front-end is still owed.
                        "stop" => stopping = Some(Instant::now()),
                        kind => {
                            if kind == "mqp" && !self.service_delay.is_zero() {
                                std::thread::sleep(self.service_delay);
                            }
                            let effects = self.node.on_message(from, &bytes, self.now_us());
                            self.apply(effects);
                        }
                    }
                    // The quiet clock runs from the end of the work, so
                    // a long evaluation never passes for silence.
                    if let Some(since) = &mut stopping {
                        *since = Instant::now();
                    }
                }
                None if stopping.is_some_and(|since| since.elapsed() >= DRAIN_QUIET) => {
                    self.transport.flush();
                    self.transport.go_down();
                    return;
                }
                None => {}
            }
            let now = self.now_us();
            if self.node.next_deadline().is_some_and(|d| d <= now) {
                let effects = self.node.on_tick(now);
                self.apply(effects);
            }
        }
    }

    /// Executes a node's effects against the transport, in order.
    fn apply(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, bytes } => {
                    self.transport.send(to, bytes);
                }
                Effect::Ack { to, qid } => {
                    self.transport.send(to, Frame::Ack { qid }.encode());
                }
                Effect::Complete(outcome) => {
                    let _ = self.outcomes.send(outcome);
                }
                Effect::Retried { .. } => Counters::add(&self.counters.retries, 1),
                // The node's watch list is the timer state: the loop
                // polls `next_deadline`.
                Effect::SetTimer { .. } => {}
            }
        }
    }
}

/// A population of peers on real OS threads: one worker per peer, peer
/// `i` at node `i`, and a [`Client`] front-end at node `n`.
pub struct Cluster<T> {
    workers: Vec<(Sender<Ctl>, JoinHandle<()>)>,
    counters: Arc<Counters>,
    transport: PhantomData<fn() -> T>,
}

impl<T: Transport> Cluster<T> {
    /// Spawns one worker per peer, and a client at node `n`, over what
    /// `transport` makes: called per node, on this thread, with the
    /// counter block that node's traffic counts into.
    pub(crate) fn spawn(
        peers: Vec<Peer>,
        retry: Option<RetryPolicy>,
        service_delay: Duration,
        mut transport: impl FnMut(NodeId, Arc<Counters>) -> T,
    ) -> (Cluster<T>, Client<T>) {
        let n = peers.len();
        let directory = Arc::new(Directory::new(
            peers.iter().map(|p| p.id().clone()).collect(),
        ));
        let counters = Arc::new(Counters::default());
        let (tx, rx) = channel();
        let epoch = Instant::now();
        let workers = peers
            .into_iter()
            .enumerate()
            .map(|(i, peer)| {
                let mut node = PeerNode::new(i, peer, Arc::clone(&directory));
                node.set_retry(retry);
                let worker = Worker {
                    node,
                    transport: transport(i, Arc::clone(&counters)),
                    outcomes: tx.clone(),
                    counters: Arc::clone(&counters),
                    epoch,
                    service_delay,
                };
                let (ctl_tx, ctl_rx) = channel();
                let thread = std::thread::Builder::new()
                    .name(format!("mqp-peer-{i}"))
                    .spawn(move || worker.run(ctl_rx))
                    .expect("spawn worker");
                (ctl_tx, thread)
            })
            .collect();
        // The front-end's frames are driver plumbing, not peer traffic:
        // they count into a block of their own, never the cluster's.
        let client = Client {
            transport: transport(n, Arc::default()),
            outcomes: rx,
            next_qid: 0,
            seen: HashSet::new(),
        };
        let cluster = Cluster {
            workers,
            counters,
            transport: PhantomData,
        };
        (cluster, client)
    }

    /// Cuts peer `i` off the network: connections drop, queued frames
    /// are abandoned, every frame sent to it while down is lost. A
    /// volatile `PeerNode` — store, catalog, watches — survives, like
    /// the simulator's `fail`; a durable one loses its memory (process
    /// death) and keeps only what its disk carries. Asynchronous: the
    /// worker notices before its next frame.
    pub fn kill(&self, i: NodeId) {
        self.tell(i, Ctl::Kill);
    }

    /// Brings a killed peer back. A durable peer first recovers its
    /// catalog from the journal (prefix-consistent replay) and
    /// re-announces the surviving bindings as `reg` frames, which
    /// leave like any other; watches that expired while down fire on
    /// the first tick after. A no-op if the peer is up.
    pub fn restart(&self, i: NodeId) {
        self.tell(i, Ctl::Restart);
    }

    fn tell(&self, i: NodeId, ctl: Ctl) {
        let (tx, thread) = &self.workers[i];
        let _ = tx.send(ctl);
        thread.thread().unpark(); // it sleeps parked while down
    }

    /// Transport accounting so far.
    pub fn stats(&self) -> SocketStats {
        self.counters.snapshot()
    }

    /// Stops every worker and joins the threads. `framed_stop(i)` sends
    /// worker `i` a `stop` frame behind whatever the front-end sent it
    /// before; the out-of-band stop is the backstop that also reaches
    /// peers currently killed.
    pub(crate) fn join(self, mut framed_stop: impl FnMut(NodeId)) -> SocketStats {
        for i in 0..self.workers.len() {
            framed_stop(i);
            self.tell(i, Ctl::Stop);
        }
        for (_, thread) in self.workers {
            let _ = thread.join();
        }
        self.counters.snapshot()
    }
}

/// The front-end: submits plans into a cluster and collects outcomes,
/// from any thread — cluster and client are separable.
pub struct Client<T> {
    pub(crate) transport: T,
    outcomes: Receiver<QueryOutcome>,
    next_qid: u64,
    /// Outcome dedup: under retries the same query can complete twice.
    seen: HashSet<QueryId>,
}

impl<T: Transport> Client<T> {
    /// Delivers one frame to worker `node` before returning; `false`
    /// if the worker is unreachable (killed, or gone).
    pub(crate) fn send(&mut self, node: NodeId, frame: &Frame) -> bool {
        self.transport.send(node, frame.encode()) && self.transport.flush()
    }

    /// Submits `plan` at worker `client` (the peer that becomes the
    /// query's client). Returns the query id; the outcome arrives
    /// later via [`Client::poll`] / [`Client::collect`].
    pub fn submit(&mut self, client: NodeId, plan: &Plan) -> QueryId {
        let qid = QueryId::new(self.next_qid);
        self.next_qid += 1;
        let frame = Frame::Submit {
            qid,
            plan: Mqp::without_original(plan.clone()).to_wire(),
        };
        assert!(self.send(client, &frame), "worker {client} is gone");
        qid
    }

    /// Pushes a policy rule set to worker `node` (hot reload); `false`
    /// if unreachable. Queries already in flight at the worker keep
    /// their accounting; its next processing step sees the new rules.
    pub fn push_policy(&mut self, node: NodeId, rules: &RuleSet) -> bool {
        self.send(node, &Frame::Policy(rules.clone()))
    }

    /// Delivers a catalog registration to worker `node` — the `Register`
    /// frame the simulator's `send_registration` ships, so adversarial
    /// schedules run identically on every driver. `false` if unreachable.
    pub fn register(&mut self, node: NodeId, entry: &CatalogEntry) -> bool {
        self.send(node, &Frame::Register(entry.clone()))
    }

    /// Non-blocking: the next completed outcome, if any.
    pub fn poll(&mut self) -> Option<QueryOutcome> {
        loop {
            let outcome = self.outcomes.try_recv().ok()?;
            if self.seen.insert(outcome.qid) {
                return Some(outcome);
            }
        }
    }

    /// Blocking: collects `n` distinct outcomes or gives up after
    /// `timeout` without progress.
    pub fn collect(&mut self, n: usize, timeout: Duration) -> Vec<QueryOutcome> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Ok(outcome) = self.outcomes.recv_timeout(timeout) else {
                break;
            };
            if self.seen.insert(outcome.qid) {
                out.push(outcome);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    //! The driver suite: every test runs once per transport.
    use super::*;
    use crate::fixture::{cheap_cds, durable_world, ns, pdx_cds, titles, world};

    /// Gives an async kill/restart time to take effect.
    fn settle() {
        std::thread::sleep(Duration::from_millis(120));
    }

    macro_rules! driver_suite {
        ($name:ident, $cluster:ty) => {
            mod $name {
                use super::*;

                #[test]
                fn end_to_end() {
                    let (cluster, mut client) = <$cluster>::new(world());
                    let qid = client.submit(0, &cheap_cds());
                    let done = client.collect(1, Duration::from_secs(10));
                    assert_eq!(done.len(), 1);
                    let q = &done[0];
                    assert_eq!(q.qid, qid);
                    assert!(q.failure.is_none(), "{:?}", q.failure);
                    assert_eq!(titles(q), ["A", "C"]);
                    assert!(q.hops >= 3);
                    let stats = cluster.shutdown(&mut client);
                    assert!(stats.frames_sent > 0);
                    assert!(stats.bytes_sent > 0);
                    assert!(stats.frames_received > 0);
                    assert!(stats.bytes_received > 0);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }

                #[test]
                fn many_concurrent_queries_all_complete() {
                    let (cluster, mut client) = <$cluster>::new(world());
                    let plan = cheap_cds();
                    let qids: Vec<QueryId> = (0..24).map(|_| client.submit(0, &plan)).collect();
                    let done = client.collect(qids.len(), Duration::from_secs(10));
                    assert_eq!(done.len(), qids.len());
                    let mut got: Vec<QueryId> = done.iter().map(|q| q.qid).collect();
                    got.sort();
                    assert_eq!(got, qids);
                    for q in &done {
                        assert!(q.failure.is_none(), "{:?}", q.failure);
                        assert_eq!(q.items.len(), 2);
                    }
                    let stats = cluster.shutdown(&mut client);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }

                /// The shutdown-ordering guarantee: a stop sent right
                /// behind a burst of submissions must not outrace their
                /// deliveries. With a single self-routing peer every
                /// delivery is a self-send queued behind the stop, so
                /// without the stop-drain no outcome would survive.
                #[test]
                fn stop_drains_behind_submissions() {
                    let mut solo = Peer::new("solo", ns());
                    let item = "<item><title>A</title><price>8</price></item>";
                    solo.add_collection("cds", pdx_cds(), [mqp_xml::parse(item).unwrap()]);
                    let (cluster, mut client) = <$cluster>::new(vec![solo]);
                    let k = 8;
                    for _ in 0..k {
                        client.submit(0, &Plan::url("mqp://solo/"));
                    }
                    // No collect before shutdown: the outcomes must ride
                    // the drain.
                    let stats = cluster.shutdown(&mut client);
                    let done = client.collect(k, Duration::from_millis(100));
                    assert_eq!(done.len(), k, "outcomes lost at teardown");
                    // Self-sends: short-circuited on sockets, real
                    // channel traffic on the mesh.
                    assert!(stats.frames_local + stats.frames_sent >= k as u64);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }

                #[test]
                fn poll_is_nonblocking_and_dedups() {
                    let (cluster, mut client) = <$cluster>::new(world());
                    assert!(client.poll().is_none());
                    let qid = client.submit(0, &Plan::url("mqp://seller-2/"));
                    let deadline = Instant::now() + Duration::from_secs(10);
                    let outcome = loop {
                        if let Some(o) = client.poll() {
                            break o;
                        }
                        assert!(Instant::now() < deadline, "query never completed");
                        std::thread::sleep(Duration::from_millis(5));
                    };
                    assert_eq!(outcome.qid, qid);
                    assert!(client.poll().is_none());
                    let stats = cluster.shutdown(&mut client);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }

                /// Kill/restart drives the recovery state machine: a
                /// durable seller loses its in-memory catalog at kill,
                /// recovers it from the journal at restart, and serves
                /// again audit-clean.
                #[test]
                fn durable_peer_survives_kill_restart() {
                    let (cluster, mut client) = <$cluster>::new(durable_world());
                    client.submit(0, &cheap_cds());
                    let before = client.collect(1, Duration::from_secs(10));
                    assert_eq!(before.len(), 1);
                    assert!(before[0].failure.is_none(), "{:?}", before[0].failure);

                    cluster.kill(2);
                    settle();
                    cluster.restart(2);
                    settle();

                    client.submit(0, &cheap_cds());
                    let done = client.collect(1, Duration::from_secs(10));
                    assert_eq!(done.len(), 1, "query stranded across durable restart");
                    let q = &done[0];
                    assert!(q.failure.is_none(), "{:?}", q.failure);
                    assert_eq!(titles(q), ["A", "C"]);
                    assert_eq!(q.audit_clean, Some(true));
                    let stats = cluster.shutdown(&mut client);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }

                /// A volatile peer keeps the interface-outage semantics
                /// through the same kill/restart: protocol state
                /// survives in memory, so it serves with no journal.
                #[test]
                fn volatile_peer_keeps_state_across_kill_restart() {
                    let (cluster, mut client) = <$cluster>::new(world());
                    cluster.kill(2);
                    settle();
                    cluster.restart(2);
                    settle();
                    let qid = client.submit(0, &Plan::url("mqp://seller-1/"));
                    let done = client.collect(1, Duration::from_secs(10));
                    assert_eq!(done.len(), 1);
                    assert_eq!(done[0].qid, qid);
                    assert!(done[0].failure.is_none(), "{:?}", done[0].failure);
                    assert_eq!(done[0].items.len(), 2);
                    let stats = cluster.shutdown(&mut client);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }
            }
        };
    }

    driver_suite!(mesh, crate::ThreadedCluster);
    driver_suite!(tcp, crate::TcpCluster);
}
