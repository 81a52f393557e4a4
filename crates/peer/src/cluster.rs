//! The in-process transport: [`mqp_net::threaded`]'s mpsc mesh under
//! the shared [`host`](crate::host). Delivery is free, lossless and
//! unbounded, so nothing ever queues and `flush` has nothing to do; a
//! kill is modeled by discarding, at restart, whatever the inbox
//! collected meanwhile.

use std::sync::Arc;
use std::time::Duration;

use mqp_net::threaded::{mesh, Endpoint};
use mqp_net::{NodeId, SocketStats};

use crate::host::{Client, Cluster, Counters, Transport};
use crate::node::RetryPolicy;
use crate::peer::Peer;
use crate::wire::Frame;

/// One node's end of the mpsc mesh. Every frame it accepts counts as
/// enqueued and sent at once, so the [`SocketStats`] identity holds
/// here as on sockets.
pub struct Mesh {
    endpoint: Endpoint,
    stats: Arc<Counters>,
}

impl Transport for Mesh {
    fn send(&mut self, to: NodeId, bytes: Vec<u8>) -> bool {
        let len = bytes.len() as u64;
        Counters::add(&self.stats.frames_enqueued, 1);
        // A dropped endpoint is a worker that has exited.
        if !self.endpoint.send(to, bytes) {
            Counters::add(&self.stats.dropped_disconnected, 1);
            return false;
        }
        Counters::add(&self.stats.frames_sent, 1);
        Counters::add(&self.stats.bytes_sent, len);
        true
    }

    fn recv(&mut self, wait: Duration) -> Option<(NodeId, Vec<u8>)> {
        let envelope = self.endpoint.recv_timeout(wait)?;
        Counters::add(&self.stats.frames_received, 1);
        Counters::add(&self.stats.bytes_received, envelope.bytes() as u64);
        Some((envelope.from, envelope.payload))
    }

    fn flush(&mut self) -> bool {
        true
    }

    fn go_down(&mut self) {}

    fn come_up(&mut self) {
        while self.endpoint.try_recv().is_some() {}
    }
}

/// Peers on real OS threads, fully connected over the mpsc mesh.
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
        let mut endpoints = mesh(peers.len() + 1).into_iter();
        Cluster::spawn(peers, retry, service_delay, |_, stats| Mesh {
            endpoint: endpoints.next().expect("one endpoint per node"),
            stats,
        })
    }

    /// Stops every worker — each drains what is queued ahead of its
    /// `stop` first — and joins the threads. Returns final stats.
    pub fn shutdown(self, client: &MqpClient) -> SocketStats {
        self.join(|i| {
            client.transport.endpoint.send(i, Frame::Stop.encode());
        })
    }
}
