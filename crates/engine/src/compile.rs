//! The one-time plan compile pass.
//!
//! Evaluation is split in two: [`compile`] walks the plan *once*,
//! turning every predicate and path into matcher form — interned-`Name`
//! node tests (pointer/ID comparison per item node), pre-parsed
//! comparison literals, project field lists as interned names — and the
//! resulting [`CompiledPlan`] is then applied to whole item batches.
//! The compile cost is proportional to plan *nodes*; the payoff repeats
//! per *item*, and data-bundle batches run to the tens of thousands of
//! items per plan node.
//!
//! A [`CompiledPlan`] borrows the plan it was compiled from (data
//! leaves are referenced, not copied), so compiling allocates only the
//! matcher skeleton.
//!
//! [`CompileCache`] adds per-peer reuse across hops and queries:
//! predicates are cached by source text, so the same query shape
//! arriving at a peer twice (multi-hop reduction, retries, repeated
//! workload queries) skips even the compile walk for its predicates.

use std::collections::HashMap;
use std::sync::Arc;

use mqp_algebra::plan::{Plan, UrlRef, UrnRef};
use mqp_algebra::predicate::{AggFunc, CompiledPredicate, Predicate};
use mqp_xml::xpath::Path;
use mqp_xml::{Batch, Name};

/// A plan compiled for batched evaluation (see module docs). Borrows
/// the source plan; obtain one via [`compile`] or [`compile_cached`]
/// and evaluate it with [`CompiledPlan::eval`].
#[derive(Debug)]
pub struct CompiledPlan<'p> {
    pub(crate) root: CNode<'p>,
}

/// Compiled operator tree. Paths already *are* matchers (interned at
/// parse time), so they are borrowed; predicates gain pre-parsed
/// literals; project fields become interned names.
#[derive(Debug)]
pub(crate) enum CNode<'p> {
    Data(&'p Batch),
    Url(&'p UrlRef),
    Urn(&'p UrnRef),
    Select {
        pred: Arc<CompiledPredicate>,
        input: Box<CNode<'p>>,
    },
    Project {
        fields: Vec<Name>,
        input: Box<CNode<'p>>,
    },
    Join {
        left_path: &'p Path,
        right_path: &'p Path,
        left: Box<CNode<'p>>,
        right: Box<CNode<'p>>,
    },
    Union(Vec<CNode<'p>>),
    /// The first `Or` alternative (the engine's positional §4.2
    /// semantics — see [`crate::eval::eval`]); `None` for an empty
    /// `Or`, which evaluation reports as an error.
    OrFirst(Option<Box<CNode<'p>>>),
    Aggregate {
        func: AggFunc,
        path: Option<&'p Path>,
        input: Box<CNode<'p>>,
    },
    TopN {
        n: usize,
        key: &'p Path,
        ascending: bool,
        input: Box<CNode<'p>>,
    },
    Display(Box<CNode<'p>>),
}

/// Per-peer compile cache: compiled predicates keyed by their source
/// text. Bounded — a hostile stream of distinct predicates resets the
/// cache rather than growing it.
#[derive(Debug, Clone, Default)]
pub struct CompileCache {
    preds: HashMap<String, Arc<CompiledPredicate>>,
}

/// Entries kept before the cache resets.
const CACHE_CAP: usize = 256;

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// Number of cached predicates (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    fn predicate(&mut self, pred: &Predicate) -> Arc<CompiledPredicate> {
        let key = pred.to_string();
        if let Some(hit) = self.preds.get(&key) {
            return Arc::clone(hit);
        }
        let compiled = Arc::new(pred.compile());
        if self.preds.len() >= CACHE_CAP {
            self.preds.clear();
        }
        self.preds.insert(key, Arc::clone(&compiled));
        compiled
    }
}

/// Compiles `plan` for batched evaluation (no cross-call caching).
pub fn compile(plan: &Plan) -> CompiledPlan<'_> {
    CompiledPlan {
        root: compile_node(plan, &mut None),
    }
}

/// Compiles `plan`, reusing and populating `cache` for predicate
/// compilations (the per-peer caching layer).
pub fn compile_cached<'p>(plan: &'p Plan, cache: &mut CompileCache) -> CompiledPlan<'p> {
    let mut cache = Some(cache);
    CompiledPlan {
        root: compile_node(plan, &mut cache),
    }
}

fn compile_node<'p>(plan: &'p Plan, cache: &mut Option<&mut CompileCache>) -> CNode<'p> {
    match plan {
        Plan::Data { items, .. } => CNode::Data(items),
        Plan::Url(u) => CNode::Url(u),
        Plan::Urn(u) => CNode::Urn(u),
        Plan::Select { pred, input } => CNode::Select {
            pred: match cache {
                Some(c) => c.predicate(pred),
                None => Arc::new(pred.compile()),
            },
            input: Box::new(compile_node(input, cache)),
        },
        Plan::Project { fields, input } => CNode::Project {
            fields: fields.iter().map(Name::from).collect(),
            input: Box::new(compile_node(input, cache)),
        },
        Plan::Join { on, left, right } => CNode::Join {
            left_path: &on.left_path,
            right_path: &on.right_path,
            left: Box::new(compile_node(left, cache)),
            right: Box::new(compile_node(right, cache)),
        },
        Plan::Union(inputs) => {
            CNode::Union(inputs.iter().map(|i| compile_node(i, cache)).collect())
        }
        Plan::Or(alts) => {
            CNode::OrFirst(alts.first().map(|a| Box::new(compile_node(&a.plan, cache))))
        }
        Plan::Aggregate { func, path, input } => CNode::Aggregate {
            func: *func,
            path: path.as_ref(),
            input: Box::new(compile_node(input, cache)),
        },
        Plan::TopN {
            n,
            key,
            ascending,
            input,
        } => CNode::TopN {
            n: *n,
            key,
            ascending: *ascending,
            input: Box::new(compile_node(input, cache)),
        },
        Plan::Display { input, .. } => CNode::Display(Box::new(compile_node(input, cache))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_shares_compiled_predicates() {
        let mut cache = CompileCache::new();
        let p1 = Plan::select("price < 10", Plan::data([]));
        let p2 = Plan::select("price < 10", Plan::url("http://x/"));
        let c1 = compile_cached(&p1, &mut cache);
        let c2 = compile_cached(&p2, &mut cache);
        assert_eq!(cache.len(), 1);
        let (CNode::Select { pred: a, .. }, CNode::Select { pred: b, .. }) = (&c1.root, &c2.root)
        else {
            panic!("expected selects");
        };
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn cache_caps_instead_of_growing() {
        let mut cache = CompileCache::new();
        for i in 0..(CACHE_CAP + 10) {
            let p = Plan::select(&format!("f{i} < {i}"), Plan::data([]));
            let _ = compile_cached(&p, &mut cache);
        }
        assert!(cache.len() <= CACHE_CAP);
        assert!(!cache.is_empty());
    }
}
