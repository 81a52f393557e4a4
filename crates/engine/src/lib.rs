//! # mqp-engine — batched local evaluation of mutant-query sub-plans
//!
//! The paper's prototype used the Niagara XML engine; this crate is the
//! substitute: an in-memory evaluator for the `mqp-algebra` operators
//! over collections of XML items, plus the cardinality/byte cost model
//! the Figure-2 *optimizer* and *policy manager* consult before deciding
//! which locally-evaluable sub-plans to reduce.
//!
//! * [`eval()`](eval::eval) — walks a plan and evaluates it to a shared
//!   [`mqp_xml::Batch`] of items, resolving `Url`/`Urn` leaves through a
//!   caller-supplied [`Resolver`] (the peer layer backs this with its
//!   local store and catalog, which *lends* `Arc` handles instead of
//!   cloning collections). There is no compile pass: paths are matchers
//!   from parse time and predicates read their literals when built.
//! * `legacy` — the pre-batching materializing evaluator, compiled
//!   only under `cfg(test)`: the equivalence oracle for the property
//!   tests.
//! * [`cost`] — size estimation: annotated statistics when present
//!   (paper §5.1), System-R-style defaults otherwise.

pub mod cost;
pub mod eval;
#[cfg(test)]
mod legacy;

pub use cost::{estimate, Estimate};
pub use eval::{compile, eval, eval_const, CompiledPlan, EvalError, NoResolver, Resolver};

#[cfg(test)]
mod proptests;
