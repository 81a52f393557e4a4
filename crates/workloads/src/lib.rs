//! # mqp-workloads — the paper's scenarios as deterministic generators
//!
//! Three workloads, matching the paper's running examples:
//!
//! * [`garage`] — the P2P garage sale (§2): a Location × Merchandise
//!   namespace, consignment-shop sellers with locality, index and
//!   meta-index peers, and interest-area queries. The workhorse for the
//!   routing and scaling experiments.
//! * [`gene`] — "Of Mice and Men" (Figure 1): gene-expression
//!   repositories over Organism × CellType hierarchies; three research
//!   groups with the paper's exact interest areas, and the mammalian
//!   cardiac-cell query the figure routes.
//! * [`cd`] — the CD search of Figures 3–4: favourite songs ⋈ a
//!   track-listing service ⋈ Portland for-sale lists with
//!   `price < $10`, including the CDDB/FreeDB substitute (a synthetic
//!   track-listing collection served by a peer).
//!
//! All generators are seeded and deterministic: the same config yields
//! byte-identical worlds, so experiments are reproducible.
//!
//! A fourth generator, [`adversary`], layers seeded attacker
//! populations (binding hijackers, registration flappers, honest
//! mirrors) over the [`scale`] federation to exercise the multi-origin
//! binding defense (DESIGN.md §14, experiment E16): its honest peers
//! come from the scale world's own per-node builder, wrapped, not
//! copied.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod cd;
pub mod garage;
pub mod gene;
pub mod scale;
