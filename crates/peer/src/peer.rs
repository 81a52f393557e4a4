//! The peer node: local store + catalog + processor, implementing
//! `ServerContext`.

use std::cell::Cell;
use std::sync::Arc;

use mqp_algebra::plan::{Plan, UrlRef, UrnRef};
use mqp_catalog::durable::{CatalogOp, DurableCatalog};
use mqp_catalog::{Catalog, CatalogEntry, ConflictClass, Level, ServerId, TrustLevel};
use mqp_core::{Action, Cond, Policy, Processor, RuleCtx, ServerContext, VisitRecord};
use mqp_namespace::{CategoryPath, InterestArea, Namespace, Urn};
use mqp_xml::Element;

use crate::store::{Collection, LocalStore};

/// A peer in the MQP network. See the crate docs for the role model.
#[derive(Debug, Clone)]
pub struct Peer {
    id: ServerId,
    store: LocalStore,
    catalog: Catalog,
    /// Shared: every peer in a world references the same namespace, so
    /// 100k peers hold 100k `Arc` pointers, not 100k hierarchy copies.
    namespace: Arc<Namespace>,
    processor: Processor,
    /// Last-resort route when the catalog knows nothing (the hardwired
    /// bootstrap server of §3.2).
    default_route: Option<ServerId>,
    /// Simulated clock, set by the harness before each processing step.
    clock_us: Cell<u64>,
    /// Crash-consistent catalog journal (DESIGN.md §12). `None` = the
    /// legacy volatile peer: a kill models an interface outage and the
    /// catalog survives in memory, which is what the pre-durability
    /// tests and golden traces pin.
    durable: Option<DurableCatalog>,
    /// Multi-origin binding defense armed (DESIGN.md §14). Kept
    /// alongside the trust book's own flag so recovery from a crash can
    /// re-arm the recovered book — otherwise a quarantined hijacker
    /// could launder its binding through crash/rejoin.
    defense: bool,
}

impl Peer {
    /// Creates a peer with an empty store and catalog. Pass an
    /// `Arc<Namespace>` to share one namespace across peers (a plain
    /// [`Namespace`] converts implicitly).
    pub fn new(id: impl Into<ServerId>, namespace: impl Into<Arc<Namespace>>) -> Self {
        Peer {
            id: id.into(),
            store: LocalStore::new(),
            catalog: Catalog::new(),
            namespace: namespace.into(),
            processor: Processor::default(),
            default_route: None,
            clock_us: Cell::new(0),
            durable: None,
            defense: false,
        }
    }

    /// Sets the processing policy; returns `self` for chaining.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.processor = Processor::new(policy);
        self
    }

    /// Sets the bootstrap route; returns `self` for chaining.
    pub fn with_default_route(mut self, to: impl Into<ServerId>) -> Self {
        self.default_route = Some(to.into());
        self
    }

    /// This peer's id.
    pub fn id(&self) -> &ServerId {
        &self.id
    }

    /// The bootstrap route, if configured.
    pub(crate) fn default_route(&self) -> Option<&ServerId> {
        self.default_route.as_ref()
    }

    /// The local store.
    pub fn store(&self) -> &LocalStore {
        &self.store
    }

    /// The catalog (mutable, for registration and cache updates).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Installs hot-reloaded policy rules on the processor (the
    /// `policy` wire frame lands here). The base [`Policy`] is
    /// untouched; an empty set restores pure
    /// base-policy behavior.
    pub fn set_rules(&mut self, rules: mqp_core::RuleSet) {
        self.processor.set_rules(rules);
    }

    /// Sets the simulated clock (harness use).
    pub(crate) fn set_clock(&self, us: u64) {
        self.clock_us.set(us);
    }

    // ------------------------------------------------------------------
    // Durability (DESIGN.md §12)
    // ------------------------------------------------------------------

    /// Turns on catalog durability over `journal`, seeding it with a
    /// snapshot of whatever the catalog already holds. From here on,
    /// registrations arriving over the wire, [`Peer::add_collection`]
    /// and [`Peer::publish_urn`] are journaled;
    /// direct [`Peer::catalog_mut`] mutations are deliberately not (the
    /// volatile escape hatch for caches and test scaffolding).
    pub fn enable_durability(&mut self, mut journal: DurableCatalog) {
        // Seeding can only fail on a faulty disk; the journal recovers
        // whatever prefix survives, which is the contract anyway.
        let _ = journal.seed(&self.catalog);
        self.durable = Some(journal);
    }

    /// Journals one op (best-effort past the fsync retry budget:
    /// degraded durability must not take the live peer down) and
    /// compacts when the WAL has grown past its threshold.
    fn journal(&mut self, op: CatalogOp) {
        if let Some(d) = self.durable.as_mut() {
            let _ = d.log(&op);
            let _ = d.maybe_compact(&self.catalog);
        }
    }

    /// Registers an entry in the catalog, journaling it when durable —
    /// the path `reg` frames take at the receiving peer.
    fn register_entry(&mut self, entry: CatalogEntry) {
        self.catalog.register(entry.clone());
        self.journal(CatalogOp::Register(entry));
    }

    /// Simulated power loss. With a journal: the disk crashes (unsynced
    /// WAL tail lost, possibly torn) and the in-memory catalog is
    /// dropped; returns `true`. Without one this is a no-op returning
    /// `false` — the legacy kill models an interface outage, with
    /// protocol state surviving in memory.
    pub(crate) fn crash_volatile(&mut self) -> bool {
        let Some(d) = self.durable.as_mut() else {
            return false;
        };
        d.crash();
        self.catalog = Catalog::new();
        true
    }

    /// Crash recovery: replays snapshot + WAL into a fresh catalog,
    /// truncating at the first torn record (prefix consistency). `false`
    /// when durability is off or the disk is unreadable.
    pub(crate) fn recover_catalog(&mut self) -> bool {
        let Some(Ok((catalog, _))) = self.durable.as_mut().map(DurableCatalog::recover) else {
            return false;
        };
        self.catalog = catalog;
        // Re-arm the defense: the recovered book carries the journaled
        // trust records, but `enabled` is peer configuration, not
        // catalog state.
        if self.defense {
            self.catalog.trust_mut().set_enabled(true);
        }
        true
    }

    // ------------------------------------------------------------------
    // Multi-origin binding defense (DESIGN.md §14)
    // ------------------------------------------------------------------

    /// Arms the multi-origin binding defense: registrations are scored
    /// for provenance, conflicting claimant sets are verified, and
    /// quarantined servers are shunned by binding/routing. Off by
    /// default — legacy worlds behave exactly as before.
    pub fn enable_defense(&mut self) {
        self.defense = true;
        self.catalog.trust_mut().set_enabled(true);
    }

    /// Registers an entry that arrived from transport node `registrar`,
    /// recording provenance in the trust book when the defense is armed.
    /// Returns the contested area key and its full claimant set when the
    /// registration leaves a base-level area with multiple claimants —
    /// the trigger for a verification round. An area whose arity is not
    /// this peer's namespace's is dropped unregistered and unjournaled,
    /// so it cannot claim the entry's arity ahead of a well-formed one.
    pub(crate) fn register_entry_from(
        &mut self,
        entry: CatalogEntry,
        registrar: u64,
        now: u64,
    ) -> Option<(String, Vec<ServerId>)> {
        let arity = self.namespace.dimensions().len();
        if entry.area.cells().iter().any(|c| c.arity() != arity) {
            return None;
        }
        let observed = self.defense && entry.level == Level::Base;
        let server = entry.server.clone();
        let area_key = mqp_namespace::urn::encode_area(&entry.area);
        self.register_entry(entry);
        if !observed {
            return None;
        }
        let n = self
            .catalog
            .trust_mut()
            .observe(&server, registrar, &area_key, now);
        if n < 2 {
            return None;
        }
        let claimants = self.catalog.trust().claimants(&area_key).to_vec();
        Some((area_key, claimants))
    }

    /// Applies one verification round's verdicts to the trust book and
    /// journals every record whose level transitioned, so quarantine
    /// survives crash/recovery (the binding-laundering fix).
    pub(crate) fn apply_trust_round(
        &mut self,
        verdicts: &[(ServerId, ConflictClass)],
        now: u64,
    ) -> Vec<(ServerId, TrustLevel, TrustLevel)> {
        let transitions = self.catalog.trust_mut().apply_round(verdicts, now);
        let recs: Vec<_> = transitions
            .iter()
            .filter_map(|(s, _, _)| self.catalog.trust().record(s).cloned())
            .collect();
        for rec in recs {
            self.journal(CatalogOp::Trust(rec));
        }
        transitions
    }

    /// Administrative quarantine (the `quarantine` policy action),
    /// journaled like any other trust transition.
    pub(crate) fn quarantine_server(&mut self, server: &ServerId, now: u64) -> bool {
        if !self.catalog.trust_mut().force_quarantine(server, now) {
            return false;
        }
        if let Some(rec) = self.catalog.trust().record(server).cloned() {
            self.journal(CatalogOp::Trust(rec));
        }
        true
    }

    /// What the hot-reloaded rules say to do about a conflicting
    /// claimant: `(quarantine, verify)`. Without any `trust-below` rule
    /// installed the built-in default applies — verify, never summarily
    /// quarantine.
    pub(crate) fn trust_decision(&self, subject: &ServerId) -> (bool, bool) {
        let rules = self.processor.rules();
        let has_trust_rules = rules
            .rules
            .iter()
            .any(|r| r.conds.iter().any(|c| matches!(c, Cond::TrustBelow(_))));
        if !has_trust_rules {
            return (false, true);
        }
        let ctx = RuleCtx {
            role: self.id.as_str().to_owned(),
            ..RuleCtx::default()
        }
        .with_trust(self.catalog.trust().level_of(subject));
        let d = rules.decide(&Policy::default(), &ctx);
        (d.quarantine, d.verify)
    }

    /// Prunes Or-alternatives backed by quarantined bindings — exactly
    /// like dead hops (DESIGN.md invariant 7), with a `Distrusted`
    /// provenance record so §5.1 audits stay clean.
    fn prune_distrusted(&self, mqp: &mut mqp_core::Mqp) {
        let book = self.catalog.trust();
        if !book.is_enabled() || book.is_empty() {
            return;
        }
        for q in book.quarantined() {
            let n = mqp_core::rewrite::prune_server_alternatives(mqp.plan_mut(), &q);
            if n > 0 {
                mqp.record(VisitRecord {
                    server: self.id.clone(),
                    action: Action::Distrusted,
                    detail: format!("pruned {n} alternative(s) backed by {q}"),
                    at: self.clock_us.get(),
                    staleness: 0,
                });
            }
        }
    }

    /// Publishes a collection: stores it and registers this peer as a
    /// base server for its area in the local catalog (self-knowledge —
    /// the peer can then bind interest-area URNs to itself).
    pub fn add_collection(
        &mut self,
        name: &str,
        area: InterestArea,
        items: impl IntoIterator<Item = Element>,
    ) {
        self.store.put(Collection {
            name: name.to_owned(),
            area: area.clone(),
            items: items.into_iter().collect(),
        });
        self.register_entry(CatalogEntry::base(self.id.clone(), area));
    }

    /// Maps a named URN (e.g. `urn:ForSale:Portland-CDs`) to one of this
    /// peer's collections.
    pub fn publish_urn(&mut self, urn: &str, collection: &str) {
        let collection = Some(format!("/data[@id='{collection}']"));
        self.catalog
            .map_urn(urn, self.id.clone(), collection.clone());
        self.journal(CatalogOp::MapUrn {
            urn: urn.to_owned(),
            server: self.id.clone(),
            collection,
        });
    }

    /// The entry another peer should register to know about this peer's
    /// base data.
    pub fn base_entry(&self) -> CatalogEntry {
        CatalogEntry::base(self.id.clone(), self.store.area())
    }

    /// Category-server query (§3.2): immediate subcategories of a
    /// category in a dimension.
    pub fn subcategories(&self, dimension: &str, path: &CategoryPath) -> Vec<CategoryPath> {
        self.namespace
            .dimension(dimension)
            .map(|d| d.subcategory_paths(path))
            .unwrap_or_default()
    }

    /// Processes an MQP envelope at this peer (harness use). With the
    /// defense armed, alternatives backed by quarantined bindings are
    /// pruned before processing.
    pub fn process(&self, mqp: &mut mqp_core::Mqp) -> mqp_core::Outcome {
        self.prune_distrusted(mqp);
        self.processor.process(mqp, self)
    }

    /// Re-resolution after a failed forward: routes `plan` as
    /// [`ServerContext::route`] would, but additionally skipping
    /// `exclude` (the next-hop presumed crashed). Falls back to the
    /// catalog's alternatives for the plan's interest areas — the
    /// mobility argument of §2: any peer can re-route an in-flight MQP.
    pub(crate) fn route_excluding(
        &self,
        plan: &Plan,
        visited: &[ServerId],
        exclude: &ServerId,
    ) -> Option<ServerId> {
        let mut avoid: Vec<ServerId> = visited.to_vec();
        if !avoid.contains(exclude) {
            avoid.push(exclude.clone());
        }
        ServerContext::route(self, plan, &avoid)
    }

    /// True when `url` addresses this peer, so its data is local.
    fn holds(&self, url: &UrlRef) -> bool {
        ServerId::from_url(&url.href).is_some_and(|host| host == self.id)
    }

    /// Decodes the `area` annotation on a URL, if present.
    fn url_area(url: &UrlRef) -> Option<InterestArea> {
        let spec = url.meta.get("area")?;
        mqp_namespace::urn::decode_area(spec).ok()
    }
}

impl ServerContext for Peer {
    fn id(&self) -> ServerId {
        self.id.clone()
    }

    fn now(&self) -> u64 {
        self.clock_us.get()
    }

    fn local_url_data(&self, url: &UrlRef) -> Option<mqp_xml::Batch> {
        if !self.holds(url) {
            return None;
        }
        // Area-scoped references (from interest-area bindings) return
        // only overlapping collections; collection references return
        // that collection; bare references return everything.
        if let Some(area) = Self::url_area(url) {
            return Some(self.store.items_overlapping(&area));
        }
        self.store.items_for(url.collection.as_ref())
    }

    /// The same scoping as `local_url_data`, answered from the store's
    /// kept statistics instead of lent items.
    fn local_url_stats(&self, url: &UrlRef) -> Option<(usize, usize)> {
        if !self.holds(url) {
            return None;
        }
        if let Some(area) = Self::url_area(url) {
            return Some(self.store.stats_overlapping(&area));
        }
        self.store.stats_for(url.collection.as_ref())
    }

    fn bind_urn(&self, urn: &UrnRef) -> Option<(Plan, String, u32)> {
        match &urn.urn {
            Urn::Named { .. } => {
                let hits = self.catalog.resolve_named(&urn.urn);
                if hits.is_empty() {
                    return None;
                }
                let detail = hits
                    .iter()
                    .map(|(s, c)| match c {
                        Some(c) => format!("{}{}", s.to_url(), c),
                        None => s.to_url(),
                    })
                    .collect::<Vec<_>>()
                    .join(" U ");
                let urls: Vec<Plan> = hits
                    .into_iter()
                    .map(|(s, c)| {
                        let mut u = UrlRef::new(s.to_url());
                        if let Some(c) = c {
                            u.collection = mqp_xml::xpath::Path::parse(&c).ok();
                        }
                        Plan::Url(u)
                    })
                    .collect();
                let plan = if urls.len() == 1 {
                    urls.into_iter().next().unwrap()
                } else {
                    Plan::union(urls)
                };
                Some((plan, detail, 0))
            }
            Urn::InterestArea(area) => {
                let binding = self.catalog.bind_area(area);
                let plan = binding.to_plan()?;
                let detail = format!("{} alternative(s) for {}", binding.alternatives.len(), area);
                Some((plan, detail, 0))
            }
        }
    }

    fn route(&self, plan: &Plan, visited: &[ServerId]) -> Option<ServerId> {
        // 1. A remote URL names a server that can definitely make
        //    progress — go there (Figure 4: "forwards the plan to one of
        //    the seller servers").
        for url in plan.urls() {
            if let Some(host) = ServerId::from_url(&url.href) {
                if host != self.id && !visited.contains(&host) {
                    return Some(host);
                }
            }
        }
        // 2. Unbound interest-area URNs: ask the catalog for the best
        //    index/meta-index server for their (unioned) area.
        let mut area = InterestArea::empty();
        for u in plan.urns() {
            if let Some(a) = u.urn.as_area() {
                area = area.union(a);
            }
        }
        if !area.is_empty() {
            if let Some(next) = self.catalog.route_for(&area, visited) {
                return Some(next);
            }
        }
        // 3. Named URNs or nothing better: bootstrap route.
        self.default_route
            .clone()
            .filter(|d| !visited.contains(d) && *d != self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{ns, pdx_cds};
    use mqp_core::{Mqp, Outcome};
    use mqp_xml::parse;

    fn seller() -> Peer {
        let mut p = Peer::new("seller-1", ns());
        p.add_collection(
            "cds",
            pdx_cds(),
            [
                parse("<item><title>A</title><price>8</price></item>").unwrap(),
                parse("<item><title>B</title><price>12</price></item>").unwrap(),
            ],
        );
        p.add_collection(
            "chairs",
            InterestArea::parse(&[&["USA/OR/Portland", "Furniture/Chairs"]]),
            [parse("<item><title>armchair</title><price>5</price></item>").unwrap()],
        );
        p
    }

    #[test]
    fn local_url_data_scopes_by_area() {
        let p = seller();
        // Bare self URL: everything.
        let bare = UrlRef::new("mqp://seller-1/");
        assert_eq!(p.local_url_data(&bare).unwrap().len(), 3);
        // Area-scoped: only CDs.
        let mut scoped = UrlRef::new("mqp://seller-1/");
        scoped
            .meta
            .set("area", mqp_namespace::urn::encode_area(&pdx_cds()));
        assert_eq!(p.local_url_data(&scoped).unwrap().len(), 2);
        // Collection reference.
        let by_collection = UrlRef::with_collection("mqp://seller-1/", "/data[@id='chairs']");
        assert_eq!(p.local_url_data(&by_collection).unwrap().len(), 1);
        // Other host: not local.
        let other = UrlRef::new("mqp://elsewhere/");
        assert!(p.local_url_data(&other).is_none());
        // General XPath over every collection's items.
        let general = UrlRef::with_collection("mqp://seller-1/", "item[price < 10]");
        assert_eq!(p.local_url_data(&general).unwrap().len(), 2);

        // The kept statistics agree with measuring what is lent, case
        // for case (and are `None` exactly where lending is).
        for url in [&bare, &scoped, &by_collection, &other, &general] {
            let lent = p
                .local_url_data(url)
                .map(|b| (b.len(), b.iter().map(Element::serialized_len).sum()));
            assert_eq!(p.local_url_stats(url), lent, "{}", url.href);
        }
    }

    #[test]
    fn interest_area_query_completes_locally() {
        let p = seller();
        let urn = Urn::area(pdx_cds());
        let plan = Plan::display(
            "client#0",
            Plan::select("price < 10", Plan::Urn(mqp_algebra::plan::UrnRef::new(urn))),
        );
        let mut mqp = Mqp::new(plan);
        match p.process(&mut mqp) {
            Outcome::Complete { items, .. } => {
                // Only the cheap CD: the armchair (price 5) is outside
                // the query's interest area.
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].field("title").as_deref(), Some("A"));
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn named_urn_binding() {
        let mut p = seller();
        p.publish_urn("urn:ForSale:Portland-CDs", "cds");
        let plan = Plan::display("client#0", Plan::urn("urn:ForSale:Portland-CDs"));
        let mut mqp = Mqp::new(plan);
        match p.process(&mut mqp) {
            Outcome::Complete { items, .. } => assert_eq!(items.len(), 2),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn routing_prefers_remote_url() {
        let p = Peer::new("router", ns()).with_default_route("bootstrap");
        let plan = Plan::select("true", Plan::url("mqp://target/"));
        assert_eq!(p.route(&plan, &[]).unwrap(), ServerId::new("target"));
        // Visited target falls through to default route.
        assert_eq!(
            p.route(&plan, &[ServerId::new("target")]).unwrap(),
            ServerId::new("bootstrap")
        );
    }

    #[test]
    fn routing_uses_catalog_for_area_urns() {
        let mut p = Peer::new("router", ns());
        p.catalog_mut().register(
            CatalogEntry::index("idx-music", InterestArea::parse(&[&["*", "Music"]]))
                .authoritative(),
        );
        let plan = Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds())));
        assert_eq!(p.route(&plan, &[]).unwrap(), ServerId::new("idx-music"));
    }

    #[test]
    fn category_server_role() {
        let p = Peer::new("cat", ns());
        let subs = p.subcategories("Merchandise", &CategoryPath::top());
        let names: Vec<String> = subs.iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["Furniture", "Music"]);
        assert!(p.subcategories("Nope", &CategoryPath::top()).is_empty());
    }

    #[test]
    fn base_entry_reflects_store() {
        let p = seller();
        let e = p.base_entry();
        assert!(e.area.overlaps(&pdx_cds()));
        assert_eq!(e.server, ServerId::new("seller-1"));
    }
}
