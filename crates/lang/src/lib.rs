//! `mqp-lang` — the textual front-end to the mutant-query algebra: a
//! **query language** compiled to [`Plan`](mqp_algebra::Plan)s and a
//! **policy DSL** compiled to hot-reloadable
//! [`RuleSet`](mqp_core::RuleSet)s, sharing one lexer and one
//! positioned-diagnostics core.
//!
//! The paper's §4 examples write mutant query plans as XML trees; this
//! crate gives them a surface syntax a person can type:
//!
//! ```text
//! urn "urn:ForSale:Portland-CDs"
//! | select "price < 10"
//! | topn 5 by "price" asc
//! prefer fast within 30min
//! ```
//!
//! compiles to exactly the plan the builder API would produce, and
//! [`mqp_algebra::render`] is its inverse: `parse_query(render(plan))
//! == plan` for every constructible plan (property-tested). The policy
//! DSL (`when bytes over 64kb then defer`) compiles to the same
//! [`RuleSet`](mqp_core::RuleSet) the `policy` wire frame ships, so a
//! file edit can retarget a live cluster without restarting it.
//!
//! Pipeline: `lex` → `cursor` → (`query` | `policy`) parser →
//! algebra / rules, with [`check`] as an optional catalog+namespace
//! sanity pass between parse and submit. Every error anywhere in the
//! pipeline is a [`Diagnostic`] with line/column and a caret underline.

pub mod check;
mod cursor;
pub mod diag;
mod lex;
pub mod policy;
pub mod query;

pub use check::check_query;
pub use diag::{Diagnostic, Span};
pub use policy::{parse_policy, render_policy, CompiledPolicy};
pub use query::{parse_query, CompiledQuery};

#[cfg(test)]
mod proptests;
