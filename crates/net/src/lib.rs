//! # mqp-net — the network substrate
//!
//! The paper's prototype ran on a real wide-area testbed that we do not
//! have; every claim it makes about routing is about *message counts,
//! bytes shipped, hops, and latency* — quantities a deterministic
//! simulator measures exactly. This crate provides:
//!
//! * [`SimNet`] — a discrete-event network simulator, generic over the
//!   payload type. Latency comes from a [`Topology`] (uniform or
//!   clustered — wide-area links between clusters, LAN links within);
//!   transfer time is `bytes / bandwidth`; all accounting (messages,
//!   bytes, hops, drops, losses, duplicates) is collected in
//!   [`NetStats`]. Same seed and same send sequence ⇒ identical event
//!   trace (property-tested).
//! * [`FaultPlan`] — deterministic fault injection (DESIGN.md §6):
//!   seeded per-message loss, delay jitter (which produces reordering),
//!   duplication, and a crash/join churn schedule ([`ChurnEvent`]).
//!   Installed with [`SimNet::set_fault_plan`]; hosts can also schedule
//!   local timers with [`SimNet::schedule`] to build timeout/retry
//!   policies on top.
//! * Failure injection: [`SimNet::fail`] / [`SimNet::recover`] — sends
//!   to a down node are counted and dropped, which is how the
//!   availability experiments exercise the "R may be unavailable"
//!   scenario of §4.2 Example 3. Churn schedules drive the same
//!   machinery on a clock.
//! * [`threaded`] — a `std::sync::mpsc` transport carrying real wire
//!   bytes (`Envelope::payload`), over which `mqp_peer`'s
//!   `ThreadedCluster` drives the same sans-IO peer protocol on real
//!   OS threads.
//! * [`backoff`] — the shared pieces every real-socket driver needs:
//!   the [`Retrier`] state machine (jittered exponential backoff for
//!   reconnect pacing, attempt budget, pacing deadline, dead state;
//!   shared by TCP link reconnect and the durable catalog's WAL fsync
//!   retries), and [`SocketStats`],
//!   sender-side frame accounting with an exact balance identity (the
//!   socket-path analogue of
//!   [`NetStats::balances`](stats::NetStats::balances)). Used by
//!   `mqp_peer::tcp`.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod fault;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod topology;

pub use backoff::{splitmix64, Retrier, SocketStats};
pub use fault::{ChurnEvent, DiskFaults, FaultPlan};
pub use sim::{Delivery, NodeId, SimNet};
pub use stats::NetStats;
pub use topology::Topology;
