//! # mqp-core — the mutant query processor (the paper's contribution)
//!
//! "A server can choose to mutate an incoming MQP in two ways. It can
//! resolve a URN to one or more URLs, or a URL to its corresponding
//! data. The server can also reduce the MQP by evaluating a sub-graph of
//! the plan that contains only data at the leaves, and substituting the
//! results in place of the sub-plan." (§2)
//!
//! This crate implements that server-side pipeline (Figure 2) and the
//! surrounding machinery:
//!
//! * [`Mqp`] — the travelling envelope: the plan, its provenance trail
//!   (§5.1), and optionally the original plan, XML-serializable end to
//!   end.
//! * [`rewrite`] — plan rewrites: select-pushdown through union/or,
//!   union consolidation/flattening, `Or` commitment (`A | B → A`), and
//!   the *absorption* rewrite `(A ⋈ X) ⋈ B → (A ⋈ B) ⋈ X` that trades
//!   local work for smaller shipped plans (§2).
//! * [`policy`] — the policy manager: which locally-evaluable sub-plans
//!   to reduce (deferment, §5.1), and which `Or` alternative to commit
//!   under a completeness/currency/latency preference (§4.3).
//! * [`processor`] — the Figure-2 loop: parse → resolve → rewrite →
//!   optimize → policy → evaluate → substitute → route.
//! * [`provenance`] — visit records, spoofing detection, and
//!   verification queries (§5.1).
//! * [`constraints`] — the ordering and transfer policies of §5.2
//!   ("do not bind X until Y is bound"; "only pass through servers on
//!   this list"), enforced by the processor.

#![forbid(unsafe_code)]

pub mod constraints;
pub mod mqp;
pub mod policy;
pub mod processor;
pub mod provenance;
pub mod query;
pub mod rewrite;
pub mod rules;

pub use constraints::Constraints;
pub use mqp::Mqp;
pub use policy::Policy;
pub use processor::{Outcome, Processor, ServerContext};
pub use provenance::{unaccounted_sources, verification_query, Action, VisitRecord};
pub use query::{QueryId, QueryOutcome};
pub use rules::{Cond, Decision, Rule, RuleAction, RuleCtx, RuleSet};
