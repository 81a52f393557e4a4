//! # mqp-catalog — distributed catalogs over multi-hierarchic namespaces
//! (paper §3–§4)
//!
//! Each peer keeps a local catalog: which servers it knows, what interest
//! areas they serve, at which level (base / index / meta-index), plus
//! named-URN mappings and *intensional statements* about replication and
//! index coverage. The catalog answers three questions during mutant
//! query processing:
//!
//! 1. **Resolution** (§3.4): which known servers hold data for this
//!    interest area? → [`Catalog::base_entries_overlapping`].
//! 2. **Routing** (§3.4): if I can't resolve it, who should see the plan
//!    next? → [`Catalog::route_for`].
//! 3. **Binding with alternatives** (§4.2): what `Or` alternatives do
//!    the intensional statements license, and how stale may each be?
//!    → [`Catalog::bind_area`].
//!
//! Peer roles (§3.2) are represented by [`Level`] plus the
//! `authoritative` flag on entries (§3.3); category servers are a peer
//! behaviour built on [`mqp_namespace::Hierarchy`] and live in
//! `mqp-peer`.

//!
//! The catalog is also the only peer state worth persisting:
//! [`durable`] journals every mutation to a checksummed write-ahead log
//! with compacted snapshots, and recovers a prefix-consistent catalog
//! after a crash (DESIGN.md §12).

#![forbid(unsafe_code)]

pub mod binding;
pub mod durable;
pub mod entry;
pub mod intension;
pub mod store;
pub mod trust;

pub use binding::{BindChoice, Binding, BindingAlternative, Preference};
pub use durable::{
    CatalogOp, Disk, DiskError, DurableCatalog, DurableStats, FaultyDisk, MemDisk, NullDisk,
    RecoveryReport, SharedDisk,
};
pub use entry::{CatalogEntry, Level, ServerId};
pub use intension::{HoldingRef, IntensionalStatement, Rel};
pub use store::Catalog;
pub use trust::{classify, ConflictClass, Observation, TrustBook, TrustLevel, TrustRecord};
