//! The Figure-2 processing loop: parse → resolve URNs → rewrite →
//! find locally-evaluable sub-plans → policy → evaluate → substitute →
//! route onward.

use std::cell::RefCell;

use mqp_algebra::codec::wire_size;
use mqp_algebra::plan::{NodePath, Plan, UrlRef, UrnRef};
use mqp_catalog::ServerId;
use mqp_engine::{compile_cached, estimate, CompileCache, Resolver};
use mqp_namespace::{InterestArea, Urn};
use mqp_xml::Batch;

use crate::mqp::Mqp;
use crate::policy::Policy;
use crate::provenance::{Action, VisitRecord};
use crate::rewrite;
use crate::rules::{RuleCtx, RuleSet};

/// What the processor needs from its host peer. `mqp-peer` implements
/// this against the local store, catalog, and network identity.
pub trait ServerContext {
    /// This server's identity.
    fn id(&self) -> ServerId;

    /// Current simulated time (µs), stamped into provenance.
    fn now(&self) -> u64 {
        0
    }

    /// Local items behind a URL, if that URL points at data this server
    /// holds (its own address, or content it replicates). Returned as a
    /// shared [`Batch`]: the store *lends* item handles, it never
    /// copies collections.
    fn local_url_data(&self, url: &UrlRef) -> Option<Batch>;

    /// `(rows, serialized bytes)` of the items behind a URL — the
    /// statistics the cost model and the policy read. `Some` exactly
    /// when [`ServerContext::local_url_data`] is. The default lends the
    /// items and measures them (the reference); a host that keeps
    /// per-collection statistics answers without lending.
    fn local_url_stats(&self, url: &UrlRef) -> Option<(usize, usize)> {
        self.local_url_data(url)
            .map(|items| (items.len(), items.iter().map(|i| i.serialized_len()).sum()))
    }

    /// Binds a URN to a replacement sub-plan using the local catalog
    /// (URN → URLs / `Or` alternatives, §3.4/§4.2). Returns the
    /// replacement, a human-readable detail for provenance, and the
    /// staleness bound of the binding information.
    fn bind_urn(&self, urn: &UrnRef) -> Option<(Plan, String, u32)>;

    /// Picks the next server for a plan this server cannot finish
    /// (§3.4), avoiding `visited` (loop prevention).
    fn route(&self, plan: &Plan, visited: &[ServerId]) -> Option<ServerId>;
}

/// Result of one server's processing step.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The plan reduced to constant data; ship `items` to `target`.
    Complete {
        /// The display target, if the plan carried one.
        target: Option<String>,
        /// The final result items, still sharing the evaluation's item
        /// handles (they materialize only at the wire).
        items: Batch,
    },
    /// The plan still needs other servers; forward the MQP to `to`.
    Forward {
        /// Next hop.
        to: ServerId,
    },
    /// No progress is possible: unresolvable names and no route.
    Stuck {
        /// Why.
        reason: String,
    },
}

/// The mutant query processor: one instance per server, parameterized by
/// a [`Policy`].
#[derive(Debug, Clone, Default)]
pub struct Processor {
    /// The policy manager's knobs.
    pub policy: Policy,
    /// Hot-reloadable rule overrides (the `.mqpp` DSL target). Empty by
    /// default, in which case every decision is exactly [`Policy`]'s —
    /// the golden-trace invariant.
    rules: RuleSet,
    /// Per-peer compile cache: predicates of queries this server has
    /// seen (across hops, retries, and repeated workload shapes) skip
    /// re-compilation. Interior-mutable because processing borrows the
    /// processor shared.
    compile_cache: RefCell<CompileCache>,
}

/// Adapts a [`ServerContext`] to the engine's [`Resolver`]: URLs come
/// from local data; URNs are never resolved directly (they must be
/// bound to URLs first, as in the paper's pipeline).
struct CtxResolver<'a, C: ServerContext + ?Sized>(&'a C);

impl<C: ServerContext + ?Sized> Resolver for CtxResolver<'_, C> {
    fn resolve_url(&self, url: &UrlRef) -> Option<Batch> {
        self.0.local_url_data(url)
    }

    fn resolve_urn(&self, _urn: &UrnRef) -> Option<Batch> {
        None
    }
}

impl Processor {
    /// Creates a processor with the given policy and no rule overrides.
    pub fn new(policy: Policy) -> Self {
        Processor {
            policy,
            rules: RuleSet::default(),
            compile_cache: RefCell::new(CompileCache::new()),
        }
    }

    /// Installs (or clears, with an empty set) the rule overrides. This
    /// is the hot-reload entry point: it can be called between
    /// processing steps while queries are in flight — the next
    /// [`Processor::process`] call sees the new rules, and nothing else
    /// about the processor (policy, compile cache) changes.
    pub fn set_rules(&mut self, rules: RuleSet) {
        self.rules = rules;
    }

    /// The currently installed rule overrides.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The facts the rule engine gets to see for this envelope, captured
    /// as the plan arrived at this peer: the union of its unbound URN
    /// interest areas, the maximum staleness tag among its Or
    /// alternatives, and this peer's id. Bytes are filled in per
    /// reduction candidate.
    fn rule_ctx(&self, mqp: &Mqp, ctx: &impl ServerContext) -> RuleCtx {
        if self.rules.is_empty() {
            return RuleCtx::default();
        }
        let mut area: Option<InterestArea> = None;
        for u in mqp.plan().urns() {
            if let Urn::InterestArea(a) = &u.urn {
                area = Some(match area {
                    Some(acc) => acc.union(a),
                    None => a.clone(),
                });
            }
        }
        let mut staleness: Option<u32> = None;
        mqp.plan().walk(&mut |p| {
            if let Plan::Or(alts) = p {
                for alt in alts {
                    if let Some(s) = alt.staleness {
                        staleness = Some(staleness.map_or(s, |x| x.max(s)));
                    }
                }
            }
        });
        RuleCtx {
            area,
            staleness,
            bytes: None,
            role: ctx.id().to_string(),
            trust: None,
        }
    }

    /// Processes an MQP at this server, mutating it in place, and says
    /// what to do next. Implements the full Figure-2 pipeline.
    pub fn process(&self, mqp: &mut Mqp, ctx: &impl ServerContext) -> Outcome {
        let me = ctx.id();
        let now = ctx.now();
        let mut acted = false;

        // Rule facts are captured once, as the envelope arrived here
        // (before binding rewrites the areas away). With no rules
        // loaded this is free and every decision below is exactly the
        // base policy's.
        let rctx = self.rule_ctx(mqp, ctx);

        // 1. Bind URNs the local catalog can resolve (§3.4).
        acted |= self.bind_urns(mqp, ctx, now) > 0;

        // 2. Cheap normalizations: select pushdown + consolidation.
        acted |= rewrite::normalize(mqp.plan_mut()) > 0;

        // 3. Commit Or nodes whose chosen alternative is locally
        //    evaluable (A | B → A, §4.2).
        acted |= self.commit_ready_ors(mqp, ctx, now, &rctx) > 0;

        // 4. Absorption where profitable (§2).
        let absorbed = rewrite::absorb(mqp.plan_mut(), &|p| self.locally_evaluable(p, ctx));
        if absorbed > 0 {
            acted = true;
            mqp.record(VisitRecord {
                server: me.clone(),
                action: Action::Rewrote,
                detail: format!("absorption x{absorbed}"),
                at: now,
                staleness: 0,
            });
        }

        // 5. Reduce locally evaluable sub-plans the policy approves.
        acted |= self.reduce(mqp, ctx, now, &rctx) > 0;

        // 6. Done? The final items keep sharing the plan's handles.
        if mqp.plan().is_fully_evaluated() {
            let target = mqp.plan().target().map(str::to_owned);
            let items = match mqp.plan() {
                Plan::Display { input, .. } => input.as_data().cloned().unwrap_or_default(),
                plan => plan.as_data().cloned().unwrap_or_default(),
            };
            return Outcome::Complete { target, items };
        }

        // 7. Route onward. §5.2 transfer policy: disallowed servers are
        //    treated as already-visited so routing skips over them. A
        //    `route via` rule override is tried first, subject to the
        //    same visited/allowed discipline, then normal routing.
        let mut visited = mqp.visited();
        let mut rule_route = self
            .rules
            .decide(&self.policy, &rctx)
            .route
            .filter(|next| *next != me && !visited.contains(next));
        let route = loop {
            let candidate = match rule_route.take() {
                Some(next) => Some(next),
                None => ctx.route(mqp.plan(), &visited),
            };
            match candidate {
                Some(next) if !mqp.constraints().server_allowed(&next) => {
                    visited.push(next);
                }
                other => break other,
            }
        };
        match route {
            Some(next) => {
                if !acted {
                    mqp.record(VisitRecord {
                        server: me,
                        action: Action::Forwarded,
                        detail: format!("to {next}"),
                        at: now,
                        staleness: 0,
                    });
                }
                Outcome::Forward { to: next }
            }
            None => Outcome::Stuck {
                reason: format!(
                    "no route from {me}: {} unresolved URN(s), {} remote URL(s)",
                    mqp.plan().urns().len(),
                    count_remote_urls(mqp.plan(), ctx),
                ),
            },
        }
    }

    /// Step 1: URN binding. Returns the number of URNs bound.
    fn bind_urns(&self, mqp: &mut Mqp, ctx: &impl ServerContext, now: u64) -> usize {
        let me = ctx.id();
        let mut bound = 0;
        loop {
            let urn_paths = mqp.plan().find_all(&|p| matches!(p, Plan::Urn(_)));
            let mut progressed = false;
            let unbound: Vec<String> = mqp
                .plan()
                .urns()
                .iter()
                .map(|u| u.urn.to_string())
                .collect();
            for path in urn_paths {
                let Some(Plan::Urn(u)) = mqp.plan().get(&path) else {
                    continue;
                };
                let urn_str = u.urn.to_string();
                // §5.2 ordering policy: some bindings must wait.
                if !mqp.constraints().may_bind(&urn_str, &unbound) {
                    continue;
                }
                if let Some((replacement, detail, staleness)) = ctx.bind_urn(u) {
                    mqp.plan_mut()
                        .replace(&path, replacement)
                        .expect("path from find_all is valid");
                    mqp.record(VisitRecord {
                        server: me.clone(),
                        action: Action::Bound,
                        detail: format!("{urn_str} -> {detail}"),
                        at: now,
                        staleness,
                    });
                    bound += 1;
                    progressed = true;
                    break; // paths shifted; re-find
                }
            }
            if !progressed {
                return bound;
            }
        }
    }

    /// Step 3: commit `Or` nodes whose policy-chosen alternative is
    /// locally evaluable. Returns how many were committed. Rules may
    /// override the effective policy, and a `choose` action overrides
    /// the Or-commitment preference specifically.
    fn commit_ready_ors(
        &self,
        mqp: &mut Mqp,
        ctx: &impl ServerContext,
        now: u64,
        rctx: &RuleCtx,
    ) -> usize {
        let me = ctx.id();
        let decision = self.rules.decide(&self.policy, rctx);
        let mut or_policy = decision.policy;
        if let Some(p) = decision.or_preference {
            or_policy.preference = p;
        }
        let mut committed = 0;
        loop {
            let or_paths = mqp.plan().find_all(&|p| matches!(p, Plan::Or(_)));
            let mut progressed = false;
            for path in or_paths {
                let Some(Plan::Or(alts)) = mqp.plan().get(&path) else {
                    continue;
                };
                let choice = or_policy.choose_or(alts);
                let chosen = &alts[choice];
                if !self.locally_evaluable(&chosen.plan, ctx) {
                    continue;
                }
                let staleness = chosen.staleness.unwrap_or(0);
                let replacement = chosen.plan.clone();
                mqp.plan_mut()
                    .replace(&path, replacement)
                    .expect("path from find_all is valid");
                mqp.record(VisitRecord {
                    server: me.clone(),
                    action: Action::Rewrote,
                    detail: format!("committed or@{path} to alternative {choice}"),
                    at: now,
                    staleness,
                });
                committed += 1;
                progressed = true;
                break;
            }
            if !progressed {
                return committed;
            }
        }
    }

    /// Step 5: reduce maximal locally-evaluable sub-plans (§2). Returns
    /// how many sub-plans were reduced. Rules see each candidate's byte
    /// estimate and may force evaluation or deferment; a reduction that
    /// completes the plan is never deferred (it must leave the network),
    /// so it is never priced either.
    fn reduce(&self, mqp: &mut Mqp, ctx: &impl ServerContext, now: u64, rctx: &RuleCtx) -> usize {
        let me = ctx.id();
        let resolver = CtxResolver(ctx);
        let mut reduced = 0;
        loop {
            let candidates = self.maximal_evaluable(mqp.plan(), ctx);
            let mut progressed = false;
            for path in candidates {
                let Some(sub) = mqp.plan().get(&path) else {
                    continue;
                };
                // A bare Data leaf is already reduced.
                if matches!(sub, Plan::Data { .. }) {
                    continue;
                }
                let completes = self.reduction_completes_plan(mqp.plan(), &path);
                if !completes && !self.approves(sub, ctx, rctx) {
                    // Deferment (§5.1): annotate instead of evaluating.
                    self.annotate_deferred(mqp, &path, ctx, now);
                    continue;
                }
                let evaluated =
                    compile_cached(sub, &mut self.compile_cache.borrow_mut()).eval(&resolver);
                match evaluated {
                    Ok(items) => {
                        // Name every source the reduction consumed so
                        // provenance audits (§5.1) can account for
                        // them. Built only now that the record will
                        // actually be written — a failed eval never
                        // pays for the formatting.
                        let mut sources: Vec<String> =
                            sub.urls().iter().map(|u| u.href.clone()).collect();
                        sources.extend(sub.urns().iter().map(|u| u.urn.to_string()));
                        let detail = if sources.is_empty() {
                            format!("reduced {} at {path}", sub.op_name())
                        } else {
                            format!(
                                "reduced {} at {path} over {}",
                                sub.op_name(),
                                sources.join(" ")
                            )
                        };
                        mqp.plan_mut()
                            .replace(&path, Plan::data_shared(items))
                            .expect("path from maximal_evaluable is valid");
                        mqp.record(VisitRecord {
                            server: me.clone(),
                            action: Action::Evaluated,
                            detail,
                            at: now,
                            staleness: 0,
                        });
                        reduced += 1;
                        progressed = true;
                        break;
                    }
                    Err(_) => continue, // raced local-data assumption; skip
                }
            }
            if !progressed {
                return reduced;
            }
        }
    }

    /// Prices a reduction that does not complete the plan: may it be
    /// evaluated here, or should it be deferred (§5.1)? Rules see the
    /// estimated result bytes and may force either way; otherwise the
    /// policy weighs them against the sub-plan's own wire size.
    fn approves(&self, sub: &Plan, ctx: &impl ServerContext, rctx: &RuleCtx) -> bool {
        let sub_est = local_aware_estimate(sub, ctx);
        let decision = self
            .rules
            .decide(&self.policy, &rctx.with_bytes(sub_est.bytes));
        match decision.force {
            Some(force_eval) => force_eval,
            None => decision
                .policy
                .should_evaluate(sub_est, wire_size(sub), false),
        }
    }

    /// True when `plan` can be evaluated entirely at this server: all
    /// leaves are data or local URLs, and it contains no uncommitted
    /// `Or` and no `Display`.
    fn locally_evaluable(&self, plan: &Plan, ctx: &impl ServerContext) -> bool {
        match plan {
            Plan::Data { .. } => true,
            Plan::Url(u) => ctx.local_url_stats(u).is_some(),
            Plan::Urn(_) | Plan::Or(_) | Plan::Display { .. } => false,
            _ => plan
                .children()
                .iter()
                .all(|c| self.locally_evaluable(c, ctx)),
        }
    }

    /// Paths of maximal locally-evaluable sub-plans (never descending
    /// into an evaluable node).
    fn maximal_evaluable(&self, plan: &Plan, ctx: &impl ServerContext) -> Vec<NodePath> {
        let mut out = Vec::new();
        self.collect_maximal(plan, ctx, &mut Vec::new(), &mut out);
        out
    }

    fn collect_maximal(
        &self,
        plan: &Plan,
        ctx: &impl ServerContext,
        prefix: &mut Vec<usize>,
        out: &mut Vec<NodePath>,
    ) {
        if self.locally_evaluable(plan, ctx) {
            out.push(NodePath(prefix.clone()));
            return;
        }
        for (i, c) in plan.children().into_iter().enumerate() {
            prefix.push(i);
            self.collect_maximal(c, ctx, prefix, out);
            prefix.pop();
        }
    }

    /// Would reducing the sub-plan at `path` make the whole plan fully
    /// evaluated? True when every node outside the sub-plan is just the
    /// `Display` wrapper above it.
    fn reduction_completes_plan(&self, plan: &Plan, path: &NodePath) -> bool {
        matches!(
            (plan, path.0.as_slice()),
            (_, []) | (Plan::Display { .. }, [0])
        )
    }

    /// §5.1 deferment: annotate the deferred sub-plan's local URL leaves
    /// with their actual cardinalities so later servers can plan better.
    fn annotate_deferred(
        &self,
        mqp: &mut Mqp,
        path: &NodePath,
        ctx: &impl ServerContext,
        now: u64,
    ) {
        let Some(sub) = mqp.plan().get(path) else {
            return;
        };
        // Collect (relative url-leaf paths, cardinalities).
        let url_paths = sub.find_all(&|p| matches!(p, Plan::Url(_)));
        let mut annotated = 0;
        let mut updates: Vec<(NodePath, u64)> = Vec::new();
        for up in url_paths {
            if let Some(Plan::Url(u)) = sub.get(&up) {
                if u.meta.cardinality().is_none() {
                    if let Some((rows, _)) = ctx.local_url_stats(u) {
                        let mut abs = path.clone();
                        abs.0.extend(up.0.iter().copied());
                        updates.push((abs, rows as u64));
                    }
                }
            }
        }
        for (abs, card) in updates {
            if let Some(Plan::Url(u)) = mqp.plan().get(&abs) {
                let mut u2 = u.clone();
                u2.meta.set_cardinality(card);
                let _ = mqp.plan_mut().replace(&abs, Plan::Url(u2));
                annotated += 1;
            }
        }
        if annotated > 0 {
            mqp.record(VisitRecord {
                server: ctx.id(),
                action: Action::Rewrote,
                detail: format!("deferred {path}; annotated {annotated} leaf cardinalities"),
                at: now,
                staleness: 0,
            });
        }
    }
}

/// Estimates a sub-plan's result with *actual* local statistics: URL
/// leaves this server holds data for get their true cardinality and byte
/// size before the cost model runs (the Figure-2 optimizer consults the
/// local catalog, not just annotations).
fn local_aware_estimate(sub: &Plan, ctx: &impl ServerContext) -> mqp_engine::Estimate {
    let mut annotated = sub.clone();
    let url_paths = annotated.find_all(&|p| matches!(p, Plan::Url(_)));
    for up in url_paths {
        if let Some(Plan::Url(u)) = annotated.get(&up) {
            if let Some((rows, bytes)) = ctx.local_url_stats(u) {
                let mut u2 = u.clone();
                u2.meta.set_cardinality(rows as u64);
                u2.meta.set("bytes", bytes.to_string());
                let _ = annotated.replace(&up, Plan::Url(u2));
            }
        }
    }
    estimate(&annotated)
}

fn count_remote_urls(plan: &Plan, ctx: &impl ServerContext) -> usize {
    plan.urls()
        .iter()
        .filter(|u| ctx.local_url_stats(u).is_none())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_algebra::plan::JoinCond;
    use mqp_xml::parse;
    use std::collections::HashMap;

    /// A toy server context: local collections keyed by URL, URN
    /// bindings, and a static routing table.
    struct TestCtx {
        id: ServerId,
        local: HashMap<String, Batch>,
        bindings: HashMap<String, Plan>,
        next: Option<ServerId>,
    }

    impl TestCtx {
        fn new(id: &str) -> Self {
            TestCtx {
                id: ServerId::new(id),
                local: HashMap::new(),
                bindings: HashMap::new(),
                next: None,
            }
        }

        fn with_local(mut self, url: &str, xmls: &[&str]) -> Self {
            self.local.insert(
                url.to_owned(),
                xmls.iter().map(|s| parse(s).unwrap()).collect(),
            );
            self
        }

        fn with_binding(mut self, urn: &str, plan: Plan) -> Self {
            self.bindings.insert(urn.to_owned(), plan);
            self
        }

        fn with_next(mut self, id: &str) -> Self {
            self.next = Some(ServerId::new(id));
            self
        }
    }

    impl ServerContext for TestCtx {
        fn id(&self) -> ServerId {
            self.id.clone()
        }

        fn local_url_data(&self, url: &UrlRef) -> Option<Batch> {
            self.local.get(&url.href).cloned()
        }

        fn bind_urn(&self, urn: &UrnRef) -> Option<(Plan, String, u32)> {
            self.bindings
                .get(&urn.urn.to_string())
                .map(|p| (p.clone(), "test binding".to_owned(), 0))
        }

        fn route(&self, _plan: &Plan, visited: &[ServerId]) -> Option<ServerId> {
            self.next.clone().filter(|n| !visited.contains(n))
        }
    }

    fn cds() -> &'static [&'static str] {
        &[
            "<item><title>A</title><price>12</price></item>",
            "<item><title>B</title><price>8</price></item>",
            "<item><title>C</title><price>9.5</price></item>",
        ]
    }

    #[test]
    fn fully_local_query_completes() {
        let ctx = TestCtx::new("s1").with_local("mqp://s1/", cds());
        let plan = Plan::display(
            "client:1",
            Plan::select("price < 10", Plan::url("mqp://s1/")),
        );
        let mut mqp = Mqp::new(plan);
        let out = Processor::default().process(&mut mqp, &ctx);
        match out {
            Outcome::Complete { target, items } => {
                assert_eq!(target.as_deref(), Some("client:1"));
                assert_eq!(items.len(), 2);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        // Provenance shows the reduction.
        assert!(mqp
            .provenance()
            .iter()
            .any(|v| v.action == Action::Evaluated));
    }

    #[test]
    fn urn_binds_then_forwards_when_remote() {
        // Figure 4(a): the URN resolves to a union of two seller URLs,
        // the select is pushed through, and the plan goes to a seller.
        let binding = Plan::union([Plan::url("mqp://seller1/"), Plan::url("mqp://seller2/")]);
        let ctx = TestCtx::new("meta")
            .with_binding("urn:ForSale:Portland-CDs", binding)
            .with_next("seller1");
        let plan = Plan::display(
            "client:1",
            Plan::select("price < 10", Plan::urn("urn:ForSale:Portland-CDs")),
        );
        let mut mqp = Mqp::new(plan);
        let out = Processor::default().process(&mut mqp, &ctx);
        assert_eq!(
            out,
            Outcome::Forward {
                to: ServerId::new("seller1")
            }
        );
        // Select was pushed through the union (Figure 4(a)).
        match mqp.plan() {
            Plan::Display { input, .. } => match input.as_ref() {
                Plan::Union(parts) => {
                    assert!(parts.iter().all(|p| matches!(p, Plan::Select { .. })));
                }
                other => panic!("expected union, got {other}"),
            },
            other => panic!("expected display, got {other}"),
        }
        assert!(mqp.provenance().iter().any(|v| v.action == Action::Bound));
    }

    #[test]
    fn partial_reduction_at_seller_then_forward() {
        // Figure 4(b): seller1 reduces its own branch, forwards the rest.
        let plan = Plan::display(
            "client:1",
            Plan::union([
                Plan::select("price < 10", Plan::url("mqp://seller1/")),
                Plan::select("price < 10", Plan::url("mqp://seller2/")),
            ]),
        );
        let ctx = TestCtx::new("seller1")
            .with_local("mqp://seller1/", cds())
            .with_next("seller2");
        let mut mqp = Mqp::new(plan);
        let out = Processor::default().process(&mut mqp, &ctx);
        assert_eq!(
            out,
            Outcome::Forward {
                to: ServerId::new("seller2")
            }
        );
        // One branch reduced to data.
        match mqp.plan() {
            Plan::Display { input, .. } => match input.as_ref() {
                Plan::Union(parts) => {
                    assert!(parts.iter().any(|p| matches!(p, Plan::Data { .. })));
                    assert!(parts.iter().any(|p| matches!(p, Plan::Select { .. })));
                }
                other => panic!("expected union, got {other}"),
            },
            other => panic!("expected display, got {other}"),
        }
    }

    #[test]
    fn second_seller_completes_union() {
        // Continue from a partially reduced plan at seller2.
        let reduced = Plan::data([parse("<item><price>8</price></item>").unwrap()]);
        let plan = Plan::display(
            "client:1",
            Plan::union([
                reduced,
                Plan::select("price < 10", Plan::url("mqp://seller2/")),
            ]),
        );
        let ctx = TestCtx::new("seller2").with_local("mqp://seller2/", cds());
        let mut mqp = Mqp::new(plan);
        match Processor::default().process(&mut mqp, &ctx) {
            Outcome::Complete { items, .. } => assert_eq!(items.len(), 1 + 2),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn or_committed_when_local() {
        let ctx = TestCtx::new("r").with_local("mqp://r/", cds());
        let plan = Plan::display(
            "client:1",
            Plan::or([Plan::url("mqp://r/"), Plan::url("mqp://s/")]),
        );
        let mut mqp = Mqp::new(plan);
        match Processor::default().process(&mut mqp, &ctx) {
            Outcome::Complete { items, .. } => assert_eq!(items.len(), 3),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn or_left_uncommitted_when_remote() {
        let ctx = TestCtx::new("m").with_next("r");
        let plan = Plan::display(
            "client:1",
            Plan::or([Plan::url("mqp://r/"), Plan::url("mqp://s/")]),
        );
        let mut mqp = Mqp::new(plan);
        assert!(matches!(
            Processor::default().process(&mut mqp, &ctx),
            Outcome::Forward { .. }
        ));
        assert_eq!(mqp.plan().find_all(&|p| matches!(p, Plan::Or(_))).len(), 1);
    }

    #[test]
    fn stuck_without_route() {
        let ctx = TestCtx::new("m"); // no bindings, no next
        let plan = Plan::display("client:1", Plan::urn("urn:ForSale:Portland-CDs"));
        let mut mqp = Mqp::new(plan);
        match Processor::default().process(&mut mqp, &ctx) {
            Outcome::Stuck { reason } => assert!(reason.contains("unresolved"), "{reason}"),
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn deferment_annotates_cardinality() {
        // A local collection so big the policy declines to ship its
        // reduction (defer_factor small).
        let big: Vec<String> = (0..50)
            .map(|i| format!("<item><k>{i}</k><pad>xxxxxxxxxxxxxxxxxxxxxxxx</pad></item>"))
            .collect();
        let big_refs: Vec<&str> = big.iter().map(String::as_str).collect();
        let ctx = TestCtx::new("s")
            .with_local("mqp://s/", &big_refs)
            .with_next("t");
        // Join with a remote side: reducing the local scan would inline
        // all 50 items; policy defers at factor 0 (never evaluate unless
        // completing).
        let plan = Plan::display(
            "client:1",
            Plan::join(
                JoinCond::on("k", "k"),
                Plan::url("mqp://s/"),
                Plan::url("mqp://t/"),
            ),
        );
        let processor = Processor::new(Policy::default().with_defer_bytes(0.0));
        let mut mqp = Mqp::new(plan);
        let out = processor.process(&mut mqp, &ctx);
        assert!(matches!(out, Outcome::Forward { .. }));
        // The local URL leaf now carries its true cardinality (§5.1).
        let urls = mqp.plan().urls();
        let local = urls.iter().find(|u| u.href == "mqp://s/").unwrap();
        assert_eq!(local.meta.cardinality(), Some(50));
    }

    #[test]
    fn forwarded_envelope_reserializes_rewrites_that_report_zero() {
        // Consolidation repositions a lone data leaf inside a union
        // while counting zero simplifications; the forwarded wire still
        // reflects the post-rewrite plan.
        let ctx = TestCtx::new("relay").with_next("next");
        let plan = Plan::display(
            "client#1",
            Plan::union([
                Plan::url("mqp://other/"),
                Plan::data([parse("<i><k>1</k></i>").unwrap()]),
            ]),
        );
        let mut mqp = Mqp::from_wire(&Mqp::new(plan).to_wire()).unwrap();
        let out = Processor::default().process(&mut mqp, &ctx);
        assert!(matches!(out, Outcome::Forward { .. }));
        assert_eq!(mqp.to_wire(), mqp_xml::serialize(&mqp.to_xml()));
        // The data leaf moved to the front of the union on the wire too.
        assert!(mqp.to_wire().contains("<union><data"), "{}", mqp.to_wire());
    }

    #[test]
    fn loop_prevention_via_visited() {
        let ctx = TestCtx::new("a").with_next("b");
        let plan = Plan::display("c:1", Plan::url("mqp://elsewhere/"));
        let mut mqp = Mqp::new(plan);
        // Pretend we already visited b.
        mqp.record(VisitRecord {
            server: ServerId::new("b"),
            action: Action::Forwarded,
            detail: String::new(),
            at: 0,
            staleness: 0,
        });
        assert!(matches!(
            Processor::default().process(&mut mqp, &ctx),
            Outcome::Stuck { .. }
        ));
    }

    #[test]
    fn join_across_two_local_collections() {
        let ctx = TestCtx::new("s")
            .with_local(
                "mqp://s/songs",
                &[
                    "<song><album>A1</album></song>",
                    "<song><album>A2</album></song>",
                ],
            )
            .with_local(
                "mqp://s/cds",
                &["<item><title>A1</title><price>5</price></item>"],
            );
        let plan = Plan::display(
            "c:1",
            Plan::join(
                JoinCond::on("album", "title"),
                Plan::url("mqp://s/songs"),
                Plan::url("mqp://s/cds"),
            ),
        );
        let mut mqp = Mqp::new(plan);
        match Processor::default().process(&mut mqp, &ctx) {
            Outcome::Complete { items, .. } => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].name(), "tuple");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    /// A context with kept statistics, like a peer's store: it answers
    /// `local_url_stats` from its own table and records every lend.
    struct CountingCtx {
        inner: TestCtx,
        stats: HashMap<String, (usize, usize)>,
        lends: RefCell<Vec<String>>,
    }

    impl CountingCtx {
        fn new(inner: TestCtx) -> Self {
            let stats = inner
                .local
                .iter()
                .map(|(url, items)| {
                    let bytes = items.iter().map(|i| i.serialized_len()).sum();
                    (url.clone(), (items.len(), bytes))
                })
                .collect();
            CountingCtx {
                inner,
                stats,
                lends: RefCell::new(Vec::new()),
            }
        }
    }

    impl ServerContext for CountingCtx {
        fn id(&self) -> ServerId {
            self.inner.id()
        }

        fn local_url_data(&self, url: &UrlRef) -> Option<Batch> {
            self.lends.borrow_mut().push(url.href.clone());
            self.inner.local_url_data(url)
        }

        fn local_url_stats(&self, url: &UrlRef) -> Option<(usize, usize)> {
            self.stats.get(&url.href).copied()
        }

        fn bind_urn(&self, urn: &UrnRef) -> Option<(Plan, String, u32)> {
            self.inner.bind_urn(urn)
        }

        fn route(&self, plan: &Plan, visited: &[ServerId]) -> Option<ServerId> {
            self.inner.route(plan, visited)
        }
    }

    #[test]
    fn completing_reduction_lends_each_collection_once() {
        // Neither finding the evaluable sub-plan nor the policy lends:
        // a completing reduction is not priced, and locality is a
        // statistic. The only lends are the evaluation's, one per leaf.
        let ctx = CountingCtx::new(
            TestCtx::new("s")
                .with_local(
                    "mqp://s/songs",
                    &[
                        "<song><album>A</album></song>",
                        "<song><album>B</album></song>",
                    ],
                )
                .with_local("mqp://s/cds", cds()),
        );
        let plan = Plan::display(
            "c:1",
            Plan::join(
                JoinCond::on("album", "title"),
                Plan::url("mqp://s/songs"),
                Plan::select("price < 10", Plan::url("mqp://s/cds")),
            ),
        );
        let mut mqp = Mqp::new(plan);
        match Processor::default().process(&mut mqp, &ctx) {
            Outcome::Complete { items, .. } => assert_eq!(items.len(), 1),
            other => panic!("expected Complete, got {other:?}"),
        }
        let mut lends = ctx.lends.take();
        lends.sort();
        assert_eq!(lends, ["mqp://s/cds", "mqp://s/songs"]);
    }

    #[test]
    fn default_stats_measure_what_is_lent() {
        let ctx = TestCtx::new("s").with_local("mqp://s/", cds());
        let bytes = cds().iter().map(|s| s.len()).sum();
        assert_eq!(
            ctx.local_url_stats(&UrlRef::new("mqp://s/")),
            Some((3, bytes))
        );
        assert_eq!(ctx.local_url_stats(&UrlRef::new("mqp://t/")), None);
    }

    use crate::rules::{Cond, Rule, RuleAction, RuleSet};
    use mqp_algebra::plan::OrAlt;
    use mqp_catalog::Preference;

    fn with_rules(rules: RuleSet) -> Processor {
        let mut p = Processor::default();
        p.set_rules(rules);
        p
    }

    #[test]
    fn choose_rule_overrides_or_preference_only() {
        // Both alternatives are local; the default Current policy picks
        // the fresh two-site union, a `choose fast` rule flips to the
        // stale single-site one without touching the base policy.
        let ctx = TestCtx::new("s").with_local("mqp://s/a", cds()).with_local(
            "mqp://s/b",
            &["<item><title>Z</title><price>1</price></item>"],
        );
        let plan = |_| {
            Plan::display(
                "c:1",
                Plan::Or(vec![
                    OrAlt::new(Plan::union([
                        Plan::url("mqp://s/a"),
                        Plan::url("mqp://s/b"),
                    ])),
                    OrAlt::stale(Plan::url("mqp://s/b"), 30),
                ]),
            )
        };
        let base = Processor::default();
        let mut mqp = Mqp::new(plan(()));
        let Outcome::Complete { items, .. } = base.process(&mut mqp, &ctx) else {
            panic!("expected Complete");
        };
        assert_eq!(items.len(), 4); // union of both collections

        let fast = with_rules(RuleSet::new(vec![Rule::new(
            vec![Cond::Always],
            vec![RuleAction::Choose(Preference::Fast)],
        )]));
        let mut mqp = Mqp::new(plan(()));
        let Outcome::Complete { items, .. } = fast.process(&mut mqp, &ctx) else {
            panic!("expected Complete");
        };
        assert_eq!(items.len(), 1); // single-site stale alternative
        assert_eq!(fast.policy.preference, Preference::Current);
    }

    #[test]
    fn force_defer_rule_defers_but_never_blocks_completion() {
        // A tiny reduction the base policy would evaluate: forcing
        // deferment leaves it unreduced (the plan forwards), except when
        // the reduction would complete the plan.
        let rules = RuleSet::new(vec![Rule::new(
            vec![Cond::RoleIs("s".to_string())],
            vec![RuleAction::ForceDefer],
        )]);
        let p = with_rules(rules);

        // Completing reduction: still evaluates.
        let ctx = TestCtx::new("s").with_local("mqp://s/", cds());
        let mut mqp = Mqp::new(Plan::display(
            "c:1",
            Plan::select("price < 10", Plan::url("mqp://s/")),
        ));
        assert!(matches!(
            p.process(&mut mqp, &ctx),
            Outcome::Complete { .. }
        ));

        // Non-completing reduction (a remote leaf keeps the plan
        // travelling): the local select is deferred, not evaluated.
        let ctx = TestCtx::new("s")
            .with_local("mqp://s/", cds())
            .with_next("elsewhere");
        let mut mqp = Mqp::new(Plan::display(
            "c:1",
            Plan::union([
                Plan::select("price < 10", Plan::url("mqp://s/")),
                Plan::url("mqp://far/"),
            ]),
        ));
        assert!(matches!(p.process(&mut mqp, &ctx), Outcome::Forward { .. }));
        assert!(!mqp
            .provenance()
            .iter()
            .any(|v| v.action == Action::Evaluated));

        // The same plan under no rules evaluates the local branch.
        let mut mqp = Mqp::new(Plan::display(
            "c:1",
            Plan::union([
                Plan::select("price < 10", Plan::url("mqp://s/")),
                Plan::url("mqp://far/"),
            ]),
        ));
        assert!(matches!(
            Processor::default().process(&mut mqp, &ctx),
            Outcome::Forward { .. }
        ));
        assert!(mqp
            .provenance()
            .iter()
            .any(|v| v.action == Action::Evaluated));
    }

    #[test]
    fn route_via_rule_overrides_next_hop() {
        let ctx = TestCtx::new("meta").with_next("seller1");
        let plan = Plan::display("c:1", Plan::url("mqp://far/"));

        let mut mqp = Mqp::new(plan.clone());
        assert_eq!(
            Processor::default().process(&mut mqp, &ctx),
            Outcome::Forward {
                to: ServerId::new("seller1")
            }
        );

        let p = with_rules(RuleSet::new(vec![Rule::new(
            vec![Cond::Always],
            vec![RuleAction::RouteVia(ServerId::new("idx-override"))],
        )]));
        let mut mqp = Mqp::new(plan.clone());
        assert_eq!(
            p.process(&mut mqp, &ctx),
            Outcome::Forward {
                to: ServerId::new("idx-override")
            }
        );

        // An already-visited override target falls back to normal
        // routing instead of looping.
        let mut mqp = Mqp::new(plan);
        mqp.record(VisitRecord {
            server: ServerId::new("idx-override"),
            action: Action::Forwarded,
            detail: String::new(),
            at: 0,
            staleness: 0,
        });
        assert_eq!(
            p.process(&mut mqp, &ctx),
            Outcome::Forward {
                to: ServerId::new("seller1")
            }
        );
    }
}
