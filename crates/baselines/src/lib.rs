//! # mqp-baselines — comparator architectures (paper §1, §6)
//!
//! The paper positions its catalog-routed MQP design against the P2P
//! architectures of its day. To reproduce those comparisons we implement
//! all three over the same `mqp-net` simulator, answering the same
//! discovery question — *which servers hold items for this key?* — so
//! the routing benchmarks (DESIGN.md §3, E5) measure messages, bytes,
//! latency, and recall on equal footing:
//!
//! * [`CentralIndex`] — the "Napster" (hybrid) approach: one index
//!   server; every publish and every query goes through it.
//! * [`Flooding`] — the "Gnutella" (pure) approach: queries broadcast
//!   to neighbors up to a fixed *horizon*; recall degrades with rare
//!   content beyond the horizon.
//! * [`Chord`] — a DHT baseline (§6 discusses CAN/Chord/Pastry/
//!   Tapestry): ring + finger tables, `O(log n)` lookup hops, exact
//!   key match only (the paper's point: "what about range queries, or
//!   joins?").

#![forbid(unsafe_code)]

pub mod central;
pub mod chord;
pub mod common;
pub mod flood;

pub use central::CentralIndex;
pub use chord::Chord;
pub use common::{fnv1a, DiscoveryResult};
pub use flood::Flooding;
