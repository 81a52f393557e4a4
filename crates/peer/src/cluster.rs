//! The in-process transport: every node holds the sender half of every
//! worker's inbox under the shared [`host`](crate::host). Delivery is
//! free, lossless, unbounded and instant, so nothing ever queues here,
//! `flush` has nothing to do and `pump` nothing to move: the worker
//! blocks on its inbox, where control arrives too. A frame that reaches
//! a killed peer is dropped by its worker.

use std::os::unix::net::UnixStream;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use mqp_net::{NodeId, SocketStats};

use crate::host::{Client, Cluster, Counters, Event, Transport};
use crate::node::RetryPolicy;
use crate::peer::Peer;

/// One node's end of the mesh. Every frame it delivers counts as
/// enqueued, sent and received at once, so the [`SocketStats`] identity
/// holds here as on sockets.
pub struct Mesh {
    me: NodeId,
    inboxes: Arc<[Sender<Event>]>,
    stats: Arc<Counters>,
    /// Never read — the inbox wakes this worker — but kept open, so the
    /// handle's wake-ups land in a live pipe.
    _wake: Option<UnixStream>,
}

impl Transport for Mesh {
    fn send(&mut self, to: NodeId, bytes: Vec<u8>) -> bool {
        let len = bytes.len() as u64;
        Counters::add(&self.stats.frames_enqueued, 1);
        // No inbox: the front-end's node, or a worker that has exited.
        let Some(Ok(())) = self
            .inboxes
            .get(to)
            .map(|inbox| inbox.send(Event::Frame(self.me, bytes)))
        else {
            Counters::add(&self.stats.dropped_disconnected, 1);
            return false;
        };
        Counters::add(&self.stats.frames_sent, 1);
        Counters::add(&self.stats.bytes_sent, len);
        Counters::add(&self.stats.frames_received, 1);
        Counters::add(&self.stats.bytes_received, len);
        true
    }

    fn pump(&mut self, wait: Duration) -> Duration {
        wait
    }

    fn flush(&mut self) -> bool {
        true
    }
}

/// Peers on real OS threads, fully connected over in-process channels.
pub type ThreadedCluster = Cluster<Mesh>;

/// The front-end of a [`ThreadedCluster`].
pub type MqpClient = Client<Mesh>;

impl Cluster<Mesh> {
    /// Spawns one worker per peer. Peer `i` sits at node `i`; the
    /// returned [`MqpClient`] holds node `n`.
    pub fn new(peers: Vec<Peer>) -> (ThreadedCluster, MqpClient) {
        Self::with_config(peers, None, Duration::ZERO)
    }

    /// Spawns with a retry policy and/or a modeled per-envelope service
    /// delay for `mqp` frames.
    pub fn with_config(
        peers: Vec<Peer>,
        retry: Option<RetryPolicy>,
        service_delay: Duration,
    ) -> (ThreadedCluster, MqpClient) {
        Cluster::spawn(peers, retry, service_delay, |me, stats, inboxes, wake| {
            Mesh {
                me,
                inboxes: Arc::clone(inboxes),
                stats,
                _wake: wake,
            }
        })
    }

    /// Stops every worker — each drains what is queued ahead of its
    /// stop first — and joins the threads. Returns final stats.
    /// `_client` is not read: every submission is in an inbox already.
    pub fn shutdown(self, _client: &MqpClient) -> SocketStats {
        self.join()
    }
}
