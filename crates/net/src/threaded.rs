//! An in-process transport over `std::sync::mpsc` channels, for running
//! peers on real OS threads. It carries the serialized wire bytes of
//! every message, so the byte count is a property of the payload.
//! `mqp_peer::ThreadedCluster` drives the sans-IO `PeerNode` protocol
//! core over these endpoints.

use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::time::Duration;

use crate::topology::NodeId;

/// A message received from the threaded transport: real wire bytes
/// plus addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The serialized wire bytes.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Size on the wire — derived from the payload, never asserted.
    pub fn bytes(&self) -> usize {
        self.payload.len()
    }
}

/// One node's endpoint: can send to any node and receive its own mail.
pub struct Endpoint {
    id: NodeId,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
}

impl Endpoint {
    /// Sends wire bytes to `to`. Returns `false` if the destination's
    /// endpoint has been dropped (node "down").
    pub fn send(&self, to: NodeId, payload: Vec<u8>) -> bool {
        self.senders[to]
            .send(Envelope {
                from: self.id,
                to,
                payload,
            })
            .is_ok()
    }

    /// Blocking receive with timeout. `None` on timeout or when all
    /// senders are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.inbox.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_recv().ok()
    }
}

/// Creates a fully connected in-process transport with `n` endpoints.
pub fn mesh(n: usize) -> Vec<Endpoint> {
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(id, inbox)| Endpoint {
            id,
            senders: senders.clone(),
            inbox,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mesh_roundtrip_across_threads() {
        let mut eps = mesh(3);
        let c = eps.remove(2);
        let b = eps.remove(1);
        let a = eps.remove(0);
        let h1 = thread::spawn(move || {
            // B relays whatever it gets to C.
            let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
            let mut relayed = env.payload.clone();
            relayed.extend_from_slice(b" via b");
            b.send(2, relayed);
        });
        let h2 = thread::spawn(move || {
            let env = c.recv_timeout(Duration::from_secs(5)).unwrap();
            (env.from, env.payload)
        });
        assert!(a.send(1, b"hello".to_vec()));
        h1.join().unwrap();
        let (from, payload) = h2.join().unwrap();
        assert_eq!(from, 1);
        assert_eq!(payload, b"hello via b");
    }

    #[test]
    fn byte_count_is_derived_from_payload() {
        let eps = mesh(1);
        assert!(eps[0].try_recv().is_none());
        assert!(eps[0].send(0, vec![42; 7]));
        let env = eps[0].try_recv().unwrap();
        assert_eq!(env.bytes(), 7);
        assert_eq!(env.payload, vec![42; 7]);
    }

    #[test]
    fn send_to_dropped_endpoint_fails() {
        let mut eps = mesh(2);
        let a = eps.remove(0);
        drop(eps); // drop endpoint 1 (its receiver)
        assert!(!a.send(1, Vec::new()));
    }
}
