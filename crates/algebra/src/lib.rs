//! # mqp-algebra — the mutant-query-plan algebra (paper §2, Figures 3–4)
//!
//! A mutant query plan is "an algebraic query plan graph, encoded in XML,
//! that may also include verbatim XML-encoded data, references to
//! resource locations (URLs), and references to abstract resource names
//! (URNs)". This crate defines that algebra:
//!
//! * [`Plan`] — the operator tree: `Select`, `Project`, `Join`, `Union`,
//!   the `Or` conjoint union of §4.2, `Aggregate`, `TopN`, and the
//!   `Display` pseudo-operator carrying the plan's `target`. Leaves are
//!   [`Plan::Data`] (verbatim XML), [`Plan::Url`], and [`Plan::Urn`].
//! * [`Predicate`] — the selection language (comparisons over XPath
//!   field paths, `and`/`or`/`not`), with a parser for the compact text
//!   form used in plan XML attributes.
//! * [`codec`] — the XML wire format: [`codec::to_wire`] and the one
//!   decoder, [`codec::from_wire`], over canonical XML only
//!   (property-tested round trip).
//! * [`render`] — the parseable pipeline pretty-printer (`mqp-lang`'s
//!   concrete syntax), used in error messages and golden traces.
//! * Structural utilities: node addressing ([`NodePath`]), substitution
//!   (how servers splice results over evaluated sub-plans), leaf
//!   collection, and size accounting.
//!
//! Evaluation lives in `mqp-engine`; mutation policy in `mqp-core`.

#![forbid(unsafe_code)]

pub mod codec;
pub mod plan;
pub mod predicate;
pub mod render;

pub use codec::{plan_to_xml, CodecError};
pub use plan::{Annotations, JoinCond, NodePath, Plan, UrlRef, UrnRef};
pub use predicate::{AggFunc, Predicate};

#[cfg(test)]
mod proptests;
