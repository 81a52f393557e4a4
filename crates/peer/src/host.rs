//! The one wall-clock host: a worker thread per sans-IO [`PeerNode`],
//! generic over a [`Transport`], plus the [`Cluster`] handle and the
//! [`Client`] front-end every real driver shares (DESIGN.md §8).
//!
//! Every worker wakes through one inbox: transports deliver frames
//! into it and the [`Cluster`] handle sends kill, restart and stop
//! into it, so control takes effect in order with the frames around
//! it. A worker that waits on its sockets instead of its inbox is
//! woken by a byte on its end of a wake pipe, which the handle writes
//! behind every control event. The host executes effects and decides
//! nothing: acks the node emits travel as `ack` frames, retry
//! deadlines bound the wait against the wall clock, and completions
//! reach the front-end over a results channel (driver plumbing, not
//! peer traffic). A driver adds only a way to move frames:
//! [`Mesh`](crate::cluster::Mesh) or [`Tcp`](crate::tcp::Tcp).

use std::collections::HashSet;
use std::io::Write;
use std::marker::PhantomData;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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

/// How long a stopping worker keeps serving after the last event it
/// took (the shutdown drain window).
const DRAIN_QUIET: Duration = Duration::from_millis(50);

/// What wakes a worker: a frame a transport delivered, or an operator
/// action from the [`Cluster`] handle. One queue carries both, so each
/// takes effect after everything queued ahead of it.
pub(crate) enum Event {
    /// Wire bytes and the node they came from.
    Frame(NodeId, Vec<u8>),
    Kill,
    Restart,
    Stop,
}

/// What a driver supplies: a way to move encoded wire frames between
/// the nodes of one cluster, delivering each into its destination's
/// inbox. The host owns everything else — control, timers, effects,
/// stop-drain, kill/restart.
pub trait Transport: Send + 'static {
    /// Hands one frame to the transport for node `to`; `false` when it
    /// was dropped on the spot. A lost frame is lost as on a real
    /// network: retry watches, if armed, recover it.
    fn send(&mut self, to: NodeId, bytes: Vec<u8>) -> bool;

    /// Moves what frames it can into the inbox, and says how long the
    /// host may then wait on the inbox before pumping again. `wait` is
    /// the host's own bound (the node's next deadline, what is left of
    /// the drain window, otherwise `Duration::MAX`): a transport that
    /// can block on its own sources until something arrives does so
    /// for at most `wait` and returns zero; one whose frames land in
    /// the inbox directly returns `wait`. A blocking transport must
    /// also return once its wake end (given at spawn) turns readable.
    fn pump(&mut self, wait: Duration) -> Duration;

    /// Gives frames still queued a bounded chance to leave and abandons
    /// the rest; `true` when none was abandoned.
    fn flush(&mut self) -> bool;

    /// Off the network: nothing arrives, what is queued is abandoned.
    /// Frames already in the inbox are the host's to drop.
    fn go_down(&mut self) {}

    /// Back on the network.
    fn come_up(&mut self) {}
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

    /// The worker loop: fire expired watches, take the next event — a
    /// frame or an operator action — and apply its effects. Only an
    /// empty inbox pumps the transport, bounded by the node's next
    /// retry deadline and what is left of the drain window, then waits
    /// on the inbox for what the transport returns.
    fn run(mut self, inbox: Receiver<Event>) {
        let mut down = false;
        // Once a stop is taken: when the last event was done with.
        let mut stopping: Option<Instant> = None;
        loop {
            let now = self.now_us();
            if !down && self.node.next_deadline().is_some_and(|d| d <= now) {
                let effects = self.node.on_tick(now);
                self.apply(effects);
            }
            let next = if down {
                // Off the network: no pump, no deadline, just the inbox.
                inbox.recv().map_err(RecvTimeoutError::from)
            } else if let Ok(event) = inbox.try_recv() {
                Ok(event)
            } else {
                let mut wait = Duration::MAX;
                if let Some(d) = self.node.next_deadline() {
                    wait = Duration::from_micros(d.saturating_sub(self.now_us()));
                }
                if let Some(since) = stopping {
                    wait = wait.min(DRAIN_QUIET.saturating_sub(since.elapsed()));
                }
                inbox.recv_timeout(self.transport.pump(wait))
            };
            match next {
                Ok(Event::Frame(from, bytes)) if !down => {
                    if Frame::kind(&bytes) == "mqp" && !self.service_delay.is_zero() {
                        std::thread::sleep(self.service_delay);
                    }
                    let effects = self.node.on_message(from, &bytes, self.now_us());
                    self.apply(effects);
                }
                Ok(Event::Kill) if !down => {
                    self.transport.go_down();
                    self.node.crash();
                    down = true;
                }
                Ok(Event::Restart) if down => {
                    self.transport.come_up();
                    down = false;
                    let effects = self.node.recover(self.now_us());
                    self.apply(effects);
                }
                Ok(Event::Stop) if down => return, // links died at the kill
                // Not the end yet: frames behind the stop, and the
                // self-sends they cause, carry completions the
                // front-end is still owed.
                Ok(Event::Stop) => stopping = Some(Instant::now()),
                // A frame reaching a down peer is lost; a kill of a down
                // peer or a restart of an up one changes nothing.
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => match stopping {
                    Some(since) if since.elapsed() >= DRAIN_QUIET => break,
                    _ => continue,
                },
                // Every sender is gone: nothing can reach this worker.
                Err(RecvTimeoutError::Disconnected) => return,
            }
            // The quiet clock runs from the end of the work, so a long
            // evaluation never passes for silence.
            if let Some(since) = &mut stopping {
                *since = Instant::now();
            }
        }
        // The drain is over.
        self.transport.flush();
        self.transport.go_down();
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
    /// Worker `i`'s inbox is `inboxes[i]`.
    inboxes: Arc<[Sender<Event>]>,
    /// The handle's ends of the wake pipes, worker `i`'s at index `i`.
    wakes: Vec<UnixStream>,
    threads: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    transport: PhantomData<fn() -> T>,
}

impl<T: Transport> Cluster<T> {
    /// Spawns one worker per peer, and a client at node `n`, over what
    /// `transport` makes: called per node, on this thread, with the
    /// counter block that node's traffic counts into, every worker's
    /// inbox (node `i`'s at index `i`; the front-end has none) and the
    /// node's nonblocking end of its wake pipe (the front-end has none).
    pub(crate) fn spawn(
        peers: Vec<Peer>,
        retry: Option<RetryPolicy>,
        service_delay: Duration,
        mut transport: impl FnMut(NodeId, Arc<Counters>, &Arc<[Sender<Event>]>, Option<UnixStream>) -> T,
    ) -> (Cluster<T>, Client<T>) {
        let n = peers.len();
        let directory = Arc::new(Directory::new(
            peers.iter().map(|p| p.id().clone()).collect(),
        ));
        let counters = Arc::new(Counters::default());
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let inboxes: Arc<[Sender<Event>]> = inboxes.into();
        let (wakes, wake_ends): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| {
                let (wake, end) = UnixStream::pair().expect("wake pipe");
                wake.set_nonblocking(true).expect("nonblocking wake");
                end.set_nonblocking(true).expect("nonblocking wake");
                (wake, end)
            })
            .unzip();
        let (tx, rx) = channel();
        let epoch = Instant::now();
        let threads = peers
            .into_iter()
            .zip(receivers.into_iter().zip(wake_ends))
            .enumerate()
            .map(|(i, (peer, (inbox, wake)))| {
                let mut node = PeerNode::new(i, peer, Arc::clone(&directory));
                node.set_retry(retry);
                let worker = Worker {
                    node,
                    transport: transport(i, Arc::clone(&counters), &inboxes, Some(wake)),
                    outcomes: tx.clone(),
                    counters: Arc::clone(&counters),
                    epoch,
                    service_delay,
                };
                std::thread::Builder::new()
                    .name(format!("mqp-peer-{i}"))
                    .spawn(move || worker.run(inbox))
                    .expect("spawn worker")
            })
            .collect();
        // The front-end's frames are driver plumbing, not peer traffic:
        // they count into a block of their own, never the cluster's.
        let client = Client {
            transport: transport(n, Arc::default(), &inboxes, None),
            outcomes: rx,
            next_qid: 0,
            seen: HashSet::new(),
        };
        let cluster = Cluster {
            inboxes,
            wakes,
            threads,
            counters,
            transport: PhantomData,
        };
        (cluster, client)
    }

    /// Cuts peer `i` off the network: connections drop, queued frames
    /// are abandoned, every frame that reaches it while down is lost. A
    /// volatile `PeerNode` — store, catalog, watches — survives, like
    /// the simulator's `fail`; a durable one loses its memory (process
    /// death) and keeps only what its disk carries. Asynchronous but in
    /// order: frames already in its inbox are served, none behind.
    pub fn kill(&self, i: NodeId) {
        self.signal(i, Event::Kill);
    }

    /// Brings a killed peer back. A durable peer first recovers its
    /// catalog from the journal (prefix-consistent replay) and
    /// re-announces the surviving bindings as `reg` frames, which
    /// leave like any other; watches that expired while down fire on
    /// the first tick after. A no-op if the peer is up.
    pub fn restart(&self, i: NodeId) {
        self.signal(i, Event::Restart);
    }

    /// Transport accounting so far.
    pub fn stats(&self) -> SocketStats {
        self.counters.snapshot()
    }

    /// Stops every worker — each stop queues behind the frames in its
    /// inbox, the drain window covers those still on their way — and
    /// joins the threads.
    pub(crate) fn join(mut self) -> SocketStats {
        let threads = std::mem::take(&mut self.threads);
        let counters = Arc::clone(&self.counters);
        drop(self); // sends the stops
        for thread in threads {
            let _ = thread.join();
        }
        counters.snapshot()
    }
}

impl<T> Cluster<T> {
    /// Queues `event` for worker `i`, then wakes it wherever it waits.
    /// The byte follows the event, so a worker that reads it finds the
    /// event already queued; a full pipe already holds a wake-up.
    fn signal(&self, i: NodeId, event: Event) {
        let _ = self.inboxes[i].send(event);
        let _ = (&self.wakes[i]).write(&[0]);
    }
}

/// A handle dropped without a shutdown still stops its workers: the
/// transports hold inbox senders, so no inbox ever disconnects.
impl<T> Drop for Cluster<T> {
    fn drop(&mut self) {
        for i in 0..self.inboxes.len() {
            self.signal(i, Event::Stop);
        }
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

                /// A kill wakes a waiting worker at once, so the query
                /// right behind a recovery cycle meets the restarted
                /// incarnation, never the dying one. No retry policy:
                /// a query the dying one took and forwarded would be
                /// abandoned with its links and never come back.
                #[test]
                fn kill_reaches_a_waiting_worker_at_once() {
                    const META: NodeId = 1;
                    let (cluster, mut client) = <$cluster>::new(world());
                    for cycle in 0..20 {
                        cluster.kill(META);
                        std::thread::sleep(Duration::from_millis(30));
                        cluster.restart(META);
                        client.submit(0, &cheap_cds());
                        let done = client.collect(1, Duration::from_secs(10));
                        assert_eq!(done.len(), 1, "cycle {cycle}: query stranded");
                        assert!(done[0].failure.is_none(), "{:?}", done[0].failure);
                        assert_eq!(titles(&done[0]), ["A", "C"]);
                    }
                    let stats = cluster.shutdown(&mut client);
                    assert!(stats.balances(0), "unbalanced: {stats:?}");
                }
            }
        };
    }

    driver_suite!(mesh, crate::ThreadedCluster);
    driver_suite!(tcp, crate::TcpCluster);
}
