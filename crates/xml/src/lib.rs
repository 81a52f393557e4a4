//! # mqp-xml — XML substrate for mutant query plans
//!
//! The CIDR 2003 paper serializes query plans, verbatim data, and partial
//! results as XML, and its prototype used the Niagara XML engine. This
//! crate is our stand-in substrate: a small, dependency-free XML tree
//! model ([`Element`], [`Node`]), a serializer with correct escaping,
//! one reader — the zero-copy [`canon`] tokenizer for exactly what that
//! serializer emits, behind [`parse()`] and [`parse_items`] — and an
//! XPath-subset evaluator ([`xpath::Path`]) used for collection
//! identifiers (e.g. `/data[@id='245']`) and value extraction inside
//! predicates.
//!
//! Design goals:
//! * **Round-trip fidelity** — `parse(serialize(e)) == e` for any tree at
//!   most 64 elements deep ([`canon::within_depth_cap`]), and
//!   `serialize(parse(s)) == s` for any `s` [`parse()`] accepts (both
//!   property-tested).
//! * **Determinism** — attribute order is preserved, no hash-map ordering
//!   leaks into the wire format, so simulator runs are reproducible.
//! * **Cheap size accounting** — [`Element::serialized_len`] lets the
//!   network layer charge bytes without materializing strings.

#![forbid(unsafe_code)]

pub mod batch;
pub mod canon;
pub mod error;
pub mod intern;
pub mod node;
mod parse;
pub mod serialize;
pub mod xpath;

pub use batch::Batch;
pub use canon::{skip_subtree, NotCanonical, Token, Tokenizer, TreeBuilder};
pub use error::{ParseError, Result};
pub use intern::{FxBuildHasher, Name};
pub use node::{Element, Node};
pub use parse::{parse, parse_canonical, parse_items};
pub use serialize::{serialize, serialize_into};

#[cfg(test)]
mod proptests;
