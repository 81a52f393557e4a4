//! The socket transport: real TCP under the shared
//! [`host`](crate::host), moving [`wire`](crate::wire) frames in the
//! length-prefixed [`framing`](crate::framing) grammar over loopback
//! (or any) sockets. Where the mpsc [`Mesh`](crate::cluster::Mesh)
//! gives every message free, lossless, unbounded delivery, this
//! transport gets only what TCP gives a real deployment and fills the
//! gap the way one would (DESIGN.md §11): a `hello` frame attributes
//! each connection to its caller; links are lazy, unidirectional and
//! reconnect on a jittered [`Retrier`], for peers and front-end alike;
//! write queues are bounded and drop-newest, so a slow or dead
//! destination costs a counter, never a blocked protocol thread; going
//! down cuts every connection and coming up binds a fresh port. Every
//! frame handed over lands in exactly one of `frames_sent`,
//! `dropped_backpressure`, `dropped_disconnected`, `abandoned` or a
//! live queue — the [`SocketStats::balances`] identity. An idle worker
//! blocks in `poll(2)` on its own sockets and its wake pipe, so a
//! frame or a control event wakes it the moment it arrives.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mqp_net::{NodeId, Retrier, SocketStats};

use crate::framing::{encode_frame, FrameDecoder};
use crate::host::{Client, Cluster, Counters, Event, Transport};
use crate::node::RetryPolicy;
use crate::peer::Peer;
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::wire::Frame;

/// Frames a single link buffers before drop-newest kicks in.
const WRITE_QUEUE_CAP: usize = 1024;
/// Budget for one blocking connect attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(100);
/// Budget for a flush: what has not left by then is abandoned.
const FLUSH_BOUND: Duration = Duration::from_millis(200);
/// Seed decorrelating reconnect jitter across links.
const JITTER_SEED: u64 = 0x5eed_50c7;

/// Tuning knobs for a [`TcpCluster`]. The defaults suit loopback
/// clusters from a handful to several hundred peers.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Retry policy installed on every peer (None: no watches, no acks).
    pub retry: Option<RetryPolicy>,
    /// Consecutive failed connects before a link gives up and drops
    /// frames as `dropped_disconnected` instead of queueing (0: never
    /// give up — churn-tolerant, the default).
    pub max_link_attempts: u32,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            retry: None,
            max_link_attempts: 0,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(250),
        }
    }
}

/// Where each node is listening *right now*. Slots go empty when a peer
/// goes down and are republished (with a fresh port) when it comes up,
/// so connectors always dial the current incarnation. Shared by every
/// node of a cluster: the socket analogue of the mesh's channel vector.
type AddrTable = Arc<Vec<Mutex<Option<SocketAddr>>>>;

fn addr_slot(addrs: &AddrTable, node: NodeId) -> MutexGuard<'_, Option<SocketAddr>> {
    addrs[node].lock().expect("addr slot poisoned")
}

/// One lazy outbound connection to a fixed destination, with its
/// bounded write queue and reconnect state.
struct Link {
    to: NodeId,
    /// The established connection and how much of the hello it has
    /// taken. The hello flushes before anything queued and counts in
    /// `bytes_sent`, but — transport-internal — never as a frame.
    conn: Option<(TcpStream, usize)>,
    /// Reconnect pacing and the `max_link_attempts` budget; once dead,
    /// enqueues drop as disconnected.
    retry: Retrier,
    /// Framed (length-prefixed) frames awaiting flush.
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written (reset on disconnect:
    /// the replacement connection resends the frame from byte 0 and the
    /// old connection's receiver discards the partial tail at EOF).
    cursor: usize,
}

/// Writes `bytes[*cursor..]` until done (`Ok(true)`) or the socket
/// would block (`Ok(false)`); `Err(())` means the connection died.
fn write_from(
    stream: &mut TcpStream,
    bytes: &[u8],
    cursor: &mut usize,
    stats: &Counters,
) -> Result<bool, ()> {
    while *cursor < bytes.len() {
        match stream.write(&bytes[*cursor..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                *cursor += n;
                Counters::add(&stats.bytes_sent, n as u64);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(true)
}

impl Link {
    fn new(to: NodeId, cfg: &TcpConfig, me: NodeId) -> Self {
        Link {
            to,
            conn: None,
            retry: Retrier::new(
                cfg.backoff_base,
                cfg.backoff_cap,
                JITTER_SEED ^ ((me as u64) << 32) ^ to as u64,
                cfg.max_link_attempts,
            ),
            queue: VecDeque::new(),
            cursor: 0,
        }
    }

    /// Connect if needed, then flush. Returns true on real progress
    /// (connected, bytes moved); failures schedule a retry and return
    /// false so the poll loop can idle.
    fn advance(&mut self, addrs: &AddrTable, stats: &Counters, hello: &[u8]) -> bool {
        if self.retry.is_dead() || self.queue.is_empty() {
            return false;
        }
        if self.conn.is_none() {
            if self.retry.next_attempt_in() != Some(Duration::ZERO) {
                return false;
            }
            // A destination that is down (no published listener) is a
            // failed attempt too, otherwise an addr-less link would
            // spin without ever backing off or going dead.
            let addr = *addr_slot(addrs, self.to);
            let Some(stream) =
                addr.and_then(|addr| TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok())
            else {
                self.note_failure(stats);
                return false;
            };
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).expect("set_nonblocking");
            Counters::add(&stats.connects, 1);
            self.retry.success();
            self.conn = Some((stream, 0));
        }
        match self.pump(stats, hello) {
            Ok(progressed) => progressed,
            Err(()) => {
                self.conn = None;
                self.cursor = 0; // resend the interrupted frame whole
                self.note_failure(stats);
                true
            }
        }
    }

    /// Flushes hello then queued frames onto the live connection;
    /// `Ok(true)` if bytes moved, `Err(())` if the connection died (EOF,
    /// reset, write error).
    fn pump(&mut self, stats: &Counters, hello: &[u8]) -> Result<bool, ()> {
        let (stream, hello_cursor) = self.conn.as_mut().expect("pump without connection");
        // EOF probe: the destination never sends application data on
        // our outbound connection, so any read resolves to "still up"
        // (WouldBlock) or "gone" (EOF / error).
        let mut probe = [0u8; 256];
        loop {
            match stream.read(&mut probe) {
                Ok(0) => return Err(()),
                Ok(_) => continue, // stray bytes: ignore, it is our send channel
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        let before = (*hello_cursor, self.queue.len(), self.cursor);
        if write_from(stream, hello, hello_cursor, stats)? {
            while let Some(front) = self.queue.front() {
                if !write_from(stream, front, &mut self.cursor, stats)? {
                    break;
                }
                self.queue.pop_front();
                self.cursor = 0;
                Counters::add(&stats.frames_sent, 1);
            }
        }
        Ok(before != (*hello_cursor, self.queue.len(), self.cursor))
    }

    /// A failed connect or a dropped connection: back off, and once the
    /// budget is exhausted shed the queue as disconnected. That fires
    /// once — a dead link never advances again.
    fn note_failure(&mut self, stats: &Counters) {
        Counters::add(&stats.disconnects, 1);
        if self.retry.failure() {
            self.shed(&stats.dropped_disconnected);
        }
    }

    /// Tear down at kill/shutdown: whatever is still queued is
    /// abandoned, never silently lost from the identity.
    fn abandon(&mut self, stats: &Counters) {
        if self.conn.take().is_some() {
            Counters::add(&stats.disconnects, 1);
        }
        self.shed(&stats.abandoned);
    }

    fn shed(&mut self, counter: &AtomicU64) {
        Counters::add(counter, self.queue.len() as u64);
        self.queue.clear();
        self.cursor = 0;
    }
}

/// An accepted connection being decoded; `from` is set by its hello.
struct Inbound {
    stream: TcpStream,
    decoder: FrameDecoder,
    from: Option<NodeId>,
}

/// One node's sockets: listener, accepted connections and outbound
/// links, delivering what they decode into the node's inbox.
pub struct Tcp {
    me: NodeId,
    addrs: AddrTable,
    stats: Arc<Counters>,
    cfg: TcpConfig,
    /// Pre-framed hello announcing this node, sent first on every
    /// outbound connection.
    hello: Vec<u8>,
    listener: Option<TcpListener>,
    inbound: Vec<Inbound>,
    links: HashMap<NodeId, Link>,
    /// Where decoded frames go. Self-sends short-circuit into it
    /// instead of dialing our own listener.
    inbox: Sender<Event>,
    /// The worker's end of its wake pipe: a byte here means a control
    /// event is queued. `None` for the front-end, and once the handle
    /// is gone.
    wake: Option<UnixStream>,
    /// Scratch for socket reads.
    buf: Box<[u8; 16384]>,
}

impl Tcp {
    /// Drains the wake pipe; true if it held a wake-up, or closed (the
    /// handle is gone, its stop queued first).
    fn take_wakeups(&mut self) -> bool {
        let Some(wake) = &mut self.wake else {
            return false;
        };
        let mut woken = false;
        loop {
            match wake.read(&mut self.buf[..]) {
                Ok(n) if n > 0 => woken = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return woken,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                _ => {
                    self.wake = None;
                    return true;
                }
            }
        }
    }

    fn accept_new(&mut self) -> bool {
        let before = self.inbound.len();
        // Any error ends this poll's accepting: `WouldBlock` says nobody
        // is waiting, and whoever else is can wait one poll.
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            stream.set_nonblocking(true).expect("nonblocking conn");
            stream.set_nodelay(true).ok();
            self.inbound.push(Inbound {
                stream,
                decoder: FrameDecoder::new(),
                from: None,
            });
        }
        self.inbound.len() > before
    }

    fn read_inbound(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.inbound.len() {
            let conn = &mut self.inbound[i];
            let mut dead = false;
            loop {
                match conn.stream.read(&mut self.buf[..]) {
                    Ok(n) if n > 0 => {
                        progressed = true;
                        Counters::add(&self.stats.bytes_received, n as u64);
                        conn.decoder.push(&self.buf[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // EOF or a hard error: decode what arrived, then drop.
                    _ => {
                        dead = true;
                        break;
                    }
                }
            }
            loop {
                match conn.decoder.next() {
                    Ok(Some(payload)) => {
                        Counters::add(&self.stats.frames_received, 1);
                        match conn.from {
                            None => match Frame::decode(&payload) {
                                // First frame on a connection must be the
                                // hello that attributes the rest, naming a
                                // node of this cluster: an ack owed to any
                                // other would index past the address table.
                                Ok(Frame::Hello { node, .. }) if node < self.addrs.len() => {
                                    conn.from = Some(node)
                                }
                                _ => {
                                    dead = true;
                                    break;
                                }
                            },
                            Some(from) => {
                                let _ = self.inbox.send(Event::Frame(from, payload));
                            }
                        }
                    }
                    Ok(None) => break,
                    // Corrupt length prefix: the decoder refuses to
                    // resynchronize, so the only safe move is to cut the
                    // connection and let retries re-cover.
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.inbound.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        progressed
    }

    fn advance_links(&mut self) -> bool {
        let mut progressed = false;
        for link in self.links.values_mut() {
            progressed |= link.advance(&self.addrs, &self.stats, &self.hello);
        }
        progressed
    }

    /// Blocks until a connected link with frames queued can write, a
    /// queued link's backoff expires, or `bound` passes — and, when
    /// `reading`, until the wake pipe, the listener or an inbound
    /// connection turns readable.
    fn block(&self, mut bound: Duration, reading: bool) {
        let mut fds = Vec::new();
        if reading {
            fds.extend(self.wake.iter().map(|wake| PollFd::new(wake, POLLIN)));
            fds.extend(self.listener.iter().map(|l| PollFd::new(l, POLLIN)));
            fds.extend(self.inbound.iter().map(|c| PollFd::new(&c.stream, POLLIN)));
        }
        for link in self.links.values().filter(|link| !link.queue.is_empty()) {
            match &link.conn {
                Some((stream, _)) => fds.push(PollFd::new(stream, POLLOUT)),
                None => bound = bound.min(link.retry.next_attempt_in().unwrap_or(bound)),
            }
        }
        poll::wait(&mut fds, bound);
    }
}

impl Transport for Tcp {
    fn send(&mut self, to: NodeId, bytes: Vec<u8>) -> bool {
        if to == self.me {
            Counters::add(&self.stats.frames_local, 1);
            let _ = self.inbox.send(Event::Frame(to, bytes));
            return true;
        }
        let link = self
            .links
            .entry(to)
            .or_insert_with(|| Link::new(to, &self.cfg, self.me));
        // Every frame handed to the transport counts as enqueued, even
        // the ones dropped on the spot — that is what makes the balance
        // identity an identity.
        Counters::add(&self.stats.frames_enqueued, 1);
        if link.retry.is_dead() {
            Counters::add(&self.stats.dropped_disconnected, 1);
            return false;
        }
        if link.queue.len() >= WRITE_QUEUE_CAP {
            Counters::add(&self.stats.dropped_backpressure, 1);
            return false;
        }
        link.queue.push_back(encode_frame(&bytes));
        true
    }

    /// One sweep — drain the wake pipe, flush links, accept, read. A
    /// sweep that moved nothing blocks in `poll` until one of those
    /// has work, a queued link's backoff expires, or the host's `wait`
    /// passes; the next sweep does the work. The host then takes from
    /// the inbox without waiting.
    fn pump(&mut self, wait: Duration) -> Duration {
        let mut progressed = self.take_wakeups();
        progressed |= self.advance_links();
        progressed |= self.accept_new();
        progressed |= self.read_inbound();
        if !progressed {
            self.block(wait, true);
        }
        Duration::ZERO
    }

    /// Pumps every link until its queue is empty, its destination is
    /// down, or `FLUSH_BOUND` passes, waiting in `poll` between sweeps
    /// for a link to turn writable or its backoff to expire; a link
    /// left with frames is abandoned whole, reconnect state included.
    fn flush(&mut self) -> bool {
        let deadline = Instant::now() + FLUSH_BOUND;
        loop {
            self.advance_links();
            let pending =
                |link: &Link| !link.queue.is_empty() && addr_slot(&self.addrs, link.to).is_some();
            let now = Instant::now();
            if !self.links.values().any(pending) || now >= deadline {
                break;
            }
            self.block(deadline - now, false);
        }
        let before = self.links.len();
        self.links.retain(|_, link| {
            let clean = link.queue.is_empty();
            if !clean {
                link.abandon(&self.stats);
            }
            clean
        });
        self.links.len() == before
    }

    fn go_down(&mut self) {
        *addr_slot(&self.addrs, self.me) = None;
        self.listener = None;
        self.inbound.clear();
        for (_, mut link) in self.links.drain() {
            link.abandon(&self.stats);
        }
    }

    fn come_up(&mut self) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        *addr_slot(&self.addrs, self.me) = Some(listener.local_addr().expect("listener addr"));
        self.listener = Some(listener);
    }
}

/// Peers on real OS threads and real TCP sockets, each behind its own
/// loopback listener.
pub type TcpCluster = Cluster<Tcp>;

/// The front-end of a [`TcpCluster`]: dials out like a peer, never listens.
pub type TcpClient = Client<Tcp>;

impl Cluster<Tcp> {
    /// Spawns one socket-backed worker per peer with default tuning.
    /// Peer `i` sits at node `i`; the [`TcpClient`] holds node `n`.
    pub fn new(peers: Vec<Peer>) -> (TcpCluster, TcpClient) {
        Self::with_config(peers, TcpConfig::default())
    }

    /// Spawns with explicit tuning.
    pub fn with_config(peers: Vec<Peer>, cfg: TcpConfig) -> (TcpCluster, TcpClient) {
        let n = peers.len();
        let addrs: AddrTable = Arc::new((0..=n).map(|_| Mutex::new(None)).collect());
        Cluster::spawn(
            peers,
            cfg.retry,
            Duration::ZERO,
            |me, stats, inboxes, wake| {
                let hello = Frame::Hello { node: me };
                let mut tcp = Tcp {
                    me,
                    addrs: addrs.clone(),
                    stats,
                    cfg: cfg.clone(),
                    hello: encode_frame(&hello.encode()),
                    listener: None,
                    inbound: Vec::new(),
                    links: HashMap::new(),
                    // The front-end never listens: its inbox is a dead end.
                    inbox: inboxes.get(me).cloned().unwrap_or_else(|| channel().0),
                    wake,
                    buf: Box::new([0; 16384]),
                };
                // Peers bind here, on the spawning thread, so every one is
                // reachable the moment the constructor returns.
                if me < n {
                    tcp.come_up();
                }
                tcp
            },
        )
    }

    /// Stops every worker — each drains the frames in flight ahead of
    /// its stop — and joins the threads. Returns final stats.
    /// `_client` is not read: its sends flushed before they returned.
    pub fn shutdown(self, _client: &mut TcpClient) -> SocketStats {
        self.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{cheap_cds, ns, pdx_cds, titles, world};
    use crate::wire::{Meter, MqpFrame, ResultFrame};
    use mqp_algebra::plan::Plan;
    use mqp_core::{Mqp, QueryId};

    /// An idle peer answers at once: its worker blocks in `poll` on
    /// its sockets, so a frame wakes it when it lands, not when a sleep
    /// next ends. Eleven round trips to a one-peer cluster, each after
    /// 20 ms of silence; the median takes under a millisecond.
    #[test]
    fn idle_peer_answers_without_a_nap() {
        let mut solo = Peer::new("solo", ns());
        let item = "<item><title>A</title><price>8</price></item>";
        solo.add_collection("cds", pdx_cds(), [mqp_xml::parse(item).unwrap()]);
        let (cluster, mut client) = TcpCluster::new(vec![solo]);
        let mut round_trips: Vec<Duration> = (0..11)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(20));
                let start = Instant::now();
                client.submit(0, &Plan::url("mqp://solo/"));
                let done = client.collect(1, Duration::from_secs(5));
                assert_eq!(done.len(), 1, "query stranded");
                start.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "median {median:?} of {round_trips:?}"
        );
        let stats = cluster.shutdown(&mut client);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    /// Bytes from the network cannot kill a peer. A stranger dials the
    /// meta-index's listener directly, introduces itself, and sends a
    /// frame of garbage, an `mqp` frame whose envelope is cut short, a
    /// `res` frame of 1 MB of nested `<a>` and an `mqp` envelope of
    /// 100 000 nested `<union>` — nesting that would recurse a 2 MiB
    /// worker stack away without the reader's depth cap. The peer takes
    /// all five off the socket; the deep result fails its query id and
    /// nothing else is answered. It goes on serving: the next query
    /// through it completes audit-clean and the accounting identity
    /// holds at shutdown. (Here, not in `tests/socket.rs`: only this
    /// module can read the address table.)
    #[test]
    fn hostile_frames_on_a_raw_socket_leave_the_peer_serving() {
        const META: NodeId = 1;
        let (cluster, mut client) = TcpCluster::new(world());
        let addr = addr_slot(&client.transport.addrs, META).expect("meta listens");
        let envelope = Mqp::new(cheap_cds()).to_wire();
        let truncated = Frame::Mqp(MqpFrame {
            qid: Some(QueryId::new(77)),
            meter: Meter::default(),
            envelope: envelope[..envelope.len() / 2].to_owned(),
        });
        let hello = Frame::Hello { node: 3 };
        let deep_result = Frame::Result(ResultFrame {
            qid: QueryId::new(78),
            meter: Meter::default(),
            audit_clean: None,
            bound_by: None,
            items: "<a>".repeat((1 << 20) / 3),
        });
        let deep_envelope = Frame::Mqp(MqpFrame {
            qid: Some(QueryId::new(79)),
            meter: Meter::default(),
            envelope: format!("<mqp><plan>{}", "<union>".repeat(100_000)),
        });
        let before = cluster.stats().frames_received;
        let mut raw = TcpStream::connect(addr).expect("dial meta");
        for payload in [
            hello.encode(),
            b"\xff\xfe\x00 junk".to_vec(),
            truncated.encode(),
            deep_result.encode(),
            deep_envelope.encode(),
        ] {
            raw.write_all(&encode_frame(&payload)).expect("raw write");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.stats().frames_received < before + 5 {
            assert!(Instant::now() < deadline, "meta never read the frames");
            std::thread::sleep(Duration::from_millis(5));
        }
        let deep = client.collect(1, Duration::from_secs(10));
        assert_eq!(deep.len(), 1, "the deep result did not fail its query");
        assert_eq!(deep[0].qid, QueryId::new(78));
        let why = deep[0].failure.as_deref().unwrap_or_default();
        assert!(why.contains("malformed result payload"), "{why}");

        let qid = client.submit(0, &cheap_cds());
        let done = client.collect(1, Duration::from_secs(10));
        assert_eq!(done.len(), 1, "meta stopped serving");
        assert_eq!(done[0].qid, qid);
        assert_eq!(titles(&done[0]), ["A", "C"]);
        assert_eq!(done[0].audit_clean, Some(true));
        drop(raw);
        let stats = cluster.shutdown(&mut client);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    /// Stopping a peer is host control, never a frame. A stranger dials
    /// the meta-index's listener, introduces itself as a peer and sends
    /// the bytes `stop\n`: they do not decode, so the node drops them,
    /// and the next query through it completes.
    #[test]
    fn stranger_stop_frame_leaves_the_peer_serving() {
        const META: NodeId = 1;
        let (cluster, mut client) = TcpCluster::new(world());
        let addr = addr_slot(&client.transport.addrs, META).expect("meta listens");
        let hello = Frame::Hello { node: 3 };
        let mut raw = TcpStream::connect(addr).expect("dial meta");
        for payload in [hello.encode(), b"stop\n".to_vec()] {
            raw.write_all(&encode_frame(&payload)).expect("raw write");
        }
        std::thread::sleep(Duration::from_millis(300));

        let qid = client.submit(0, &cheap_cds());
        let done = client.collect(1, Duration::from_secs(5));
        assert_eq!(done.len(), 1, "meta stopped serving");
        assert_eq!(done[0].qid, qid);
        assert_eq!(titles(&done[0]), ["A", "C"]);
        drop(raw);
        let stats = cluster.shutdown(&mut client);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    /// A cluster dropped without `shutdown` still stops its workers:
    /// within seconds META has unpublished its address on the way out.
    #[test]
    fn dropped_cluster_stops_its_workers() {
        const META: NodeId = 1;
        let (cluster, client) = TcpCluster::new(world());
        let addrs = Arc::clone(&client.transport.addrs);
        assert!(addr_slot(&addrs, META).is_some(), "meta listens");
        drop(cluster);
        let deadline = Instant::now() + Duration::from_secs(5);
        while addr_slot(&addrs, META).is_some() {
            assert!(Instant::now() < deadline, "meta still serving");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A hello naming a node outside the cluster cuts the connection.
    /// Under a retry policy the tracked `mqp` frame behind it would earn
    /// an ack to that node, and dialing it would index past the address
    /// table and kill the worker thread. The peer goes on serving.
    #[test]
    fn out_of_range_hello_is_refused() {
        const META: NodeId = 1;
        let cfg = TcpConfig {
            retry: Some(RetryPolicy::default()),
            ..TcpConfig::default()
        };
        let (cluster, mut client) = TcpCluster::with_config(world(), cfg);
        let addr = addr_slot(&client.transport.addrs, META).expect("meta listens");
        let hello = Frame::Hello { node: 1 << 40 };
        let tracked = Frame::Mqp(MqpFrame {
            qid: Some(QueryId::new(77)),
            meter: Meter::default(),
            envelope: Mqp::new(cheap_cds()).to_wire(),
        });
        let before = cluster.stats().frames_received;
        let mut raw = TcpStream::connect(addr).expect("dial meta");
        for payload in [hello.encode(), tracked.encode()] {
            raw.write_all(&encode_frame(&payload)).expect("raw write");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.stats().frames_received < before + 1 {
            assert!(Instant::now() < deadline, "meta never read the hello");
            std::thread::sleep(Duration::from_millis(5));
        }

        let qid = client.submit(0, &cheap_cds());
        let done = client.collect(1, Duration::from_secs(10));
        assert_eq!(done.len(), 1, "meta stopped serving");
        assert_eq!(done[0].qid, qid);
        assert_eq!(titles(&done[0]), ["A", "C"]);
        assert_eq!(done[0].audit_clean, Some(true));
        drop(raw);
        let stats = cluster.shutdown(&mut client);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }
}
