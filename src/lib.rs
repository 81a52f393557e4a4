//! # mqp — Mutant Query Plans and distributed catalogs for P2P systems
//!
//! A reproduction of *"Distributed Query Processing and Catalogs for
//! Peer-to-Peer Systems"* (Papadimos, Maier, Tufte — CIDR 2003) as a
//! Rust workspace. This facade crate re-exports the public API of every
//! component crate; see the README for the architecture overview and
//! DESIGN.md for the per-experiment index.
//!
//! Quick tour (see `examples/quickstart.rs` for the runnable version):
//!
//! ```
//! use mqp::algebra::plan::Plan;
//! use mqp::core::Mqp;
//!
//! // Build the Figure-3 style plan: select cheap CDs from an abstract
//! // resource, display the answer back to the client.
//! let plan = Plan::display(
//!     "client#0",
//!     Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs")),
//! );
//!
//! // Serialize it as a travelling mutant query plan…
//! let wire = Mqp::new(plan).to_wire();
//! assert!(wire.starts_with("<mqp>"));
//!
//! // …and any peer can parse it back and keep mutating it.
//! let back = Mqp::from_wire(&wire).unwrap();
//! assert_eq!(back.plan().urns().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub use mqp_algebra as algebra;
pub use mqp_baselines as baselines;
pub use mqp_catalog as catalog;
pub use mqp_core as core;
pub use mqp_engine as engine;
pub use mqp_lang as lang;
pub use mqp_namespace as namespace;
pub use mqp_net as net;
pub use mqp_peer as peer;
pub use mqp_workloads as workloads;
pub use mqp_xml as xml;
