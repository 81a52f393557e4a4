//! # mqp-peer — the peer protocol core, its simulator and its host
//!
//! Ties the pieces together in three layers (DESIGN.md §8):
//!
//! * [`Peer`] — one peer's knowledge: a local data store, a catalog, a
//!   namespace copy (for its category-server role), and a mutant-query
//!   `Processor`; it implements `ServerContext` so the processor can
//!   bind, reduce, and route plans against this peer's knowledge.
//! * [`PeerNode`] — the **sans-IO protocol core**: one `Peer` plus its
//!   per-query protocol state (retry watches, ack bookkeeping,
//!   registration handling, client-side route-cache learning), exposed
//!   as a pure event machine — `on_message`/`on_tick`/`submit` return
//!   [`Effect`]s for a host to execute. No sockets, no channels, no
//!   clocks.
//! * What runs it: [`SimHarness`] feeds `PeerNode`s from the `mqp-net`
//!   discrete-event simulator (deterministic; the substrate for every
//!   experiment in DESIGN.md §3), and the one wall-clock [`host`] —
//!   a worker loop that takes frames, kills, restarts and stops from
//!   one inbox, an `Effect` executor, stop-drain, a [`host::Cluster`]
//!   handle and a [`host::Client`] front-end with many queries in
//!   flight — runs the identical nodes on real OS threads over either
//!   of two [`host::Transport`]s: [`ThreadedCluster`]/[`MqpClient`],
//!   whose mesh sends straight into the workers' inboxes ([`cluster`]),
//!   and [`TcpCluster`]/[`TcpClient`] on real TCP sockets ([`tcp`]:
//!   length-prefixed [`framing`], reconnecting links, bounded write
//!   queues). `tests/equivalence.rs` pins all three to identical
//!   outcomes.
//!
//! Peer roles (§3.2) are configuration, not types: a peer with local
//! collections is a *base server*; one with catalog entries it answers
//! routing queries from is an *index* or *meta-index* server; one that
//! can answer namespace questions is a *category server*. A single peer
//! may do all four — "this query's client may well become the next
//! query's server" (§1).

#![deny(unsafe_code)]

pub mod cluster;
#[cfg(test)]
mod fixture;
pub mod framing;
pub mod harness;
pub mod host;
pub mod node;
pub mod peer;
#[allow(unsafe_code)]
mod poll;
pub mod store;
pub mod tcp;
pub mod wire;

pub use cluster::{MqpClient, ThreadedCluster};
pub use harness::{SimHarness, SimMsg};
pub use mqp_core::{QueryId, QueryOutcome};
pub use node::{Directory, Effect, PeerNode, RetryPolicy};
pub use peer::Peer;
pub use store::{Collection, LocalStore};
pub use tcp::{TcpClient, TcpCluster, TcpConfig};
