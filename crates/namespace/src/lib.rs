//! # mqp-namespace — multi-hierarchic namespaces (paper §3.1, Figure 5)
//!
//! The paper's distributed catalogs rest on *multi-hierarchic
//! namespaces*: a set of independent categorization hierarchies
//! ("dimensions", e.g. Location × Merchandise). Within one hierarchy an
//! item belongs to exactly one *most-specific category* and to all of its
//! ancestors. An *interest cell* picks one category per dimension; an
//! *interest area* is a set of cells. Cover/overlap relations over areas
//! drive both catalog indexing and query routing.
//!
//! This crate implements:
//! * [`Hierarchy`] — one categorization hierarchy (a rooted tree whose
//!   root is the all-inclusive `*` category).
//! * [`CategoryPath`] — a path from the root, e.g. `USA/OR/Portland`.
//! * [`Namespace`] — an ordered set of dimensions.
//! * [`Cell`] / [`InterestArea`] — with `covers`, `overlaps`,
//!   `intersect`, and canonicalization.
//! * [`urn`] — the purely lexical URN codec of §3.4
//!   (`urn:InterestArea:(USA.OR.Portland,Furniture)+…`) plus named
//!   resource URNs (`urn:ForSale:Portland-CDs`).
//! * Category generalization (§3.5): rewriting an unknown category to an
//!   ancestor, losing precision but not recall.

#![forbid(unsafe_code)]

pub mod area;
pub mod hierarchy;
pub mod urn;

pub use area::{Cell, InterestArea};
pub use hierarchy::{CategoryPath, Hierarchy, Namespace};
pub use urn::Urn;

#[cfg(test)]
mod proptests;
