//! The per-peer catalog store: entries, named-URN mappings, intensional
//! statements, the binding algorithm, routing, and the route cache.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mqp_namespace::{CategoryPath, InterestArea, Urn};

use crate::binding::{Binding, BindingAlternative};
use crate::entry::{CatalogEntry, Level, ServerId};
use crate::intension::IntensionalStatement;
use crate::trust::TrustBook;

/// A peer's local catalog (paper §2: "we resolve URNs by consulting a
/// catalog, which we maintain locally at each peer. A catalog contains
/// mappings from URNs to (sets of) URLs, or from URNs to servers that
/// know how to resolve them.").
///
/// Entries are `Arc`-shared: in a large federation the same index- and
/// meta-index entries are replicated into thousands of peer catalogs,
/// so registration can hand the same allocation to every subscriber.
/// Merging a re-registration copies-on-write ([`Arc::make_mut`]) only
/// when the merge actually changes the entry.
///
/// Two indexes over the entry positions sit beside the insertion-ordered
/// entry list (DESIGN.md §4): a `(server, level)` slot map, so a
/// registration finds the entry it merges into without a scan, and
/// per-dimension coordinate postings, so binding and routing read only
/// the entries whose coordinates can overlap the query. The list's order
/// — what [`Catalog::entries`], snapshots and goldens observe — is the
/// order of first registration; the indexes never reorder it.
#[derive(Debug, Clone)]
pub struct Catalog {
    entries: Vec<Arc<CatalogEntry>>,
    /// `(server, level)` → position in `entries`. The std keyed hasher,
    /// not FxHash: server ids arrive in other peers' `reg` frames, and
    /// ids crafted to collide must not turn registration into a scan.
    slot: HashMap<(ServerId, Level), u32>,
    /// Overlap candidates: positions in `entries` by cell coordinate.
    postings: Postings,
    statements: Vec<IntensionalStatement>,
    /// Named-URN mappings: `urn:ForSale:Portland-CDs` → servers (+
    /// collection ids).
    urn_map: BTreeMap<String, Vec<(ServerId, Option<String>)>>,
    /// Route cache (§3.4: "peers maintain caches of index and meta-index
    /// servers for interest areas, so that they can route plans more
    /// efficiently in the future").
    route_cache: BTreeMap<String, ServerId>,
    /// Binding provenance + quarantine state (DESIGN.md §14). Empty
    /// and disarmed unless a peer enables the multi-origin defense.
    trust: TrustBook,
}

impl Default for Catalog {
    /// Same as [`Catalog::new`]: the route cache is on by default.
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog; its route cache holds 256 routes.
    pub fn new() -> Self {
        Catalog {
            entries: Vec::new(),
            slot: HashMap::new(),
            postings: Postings::default(),
            statements: Vec::new(),
            urn_map: BTreeMap::new(),
            route_cache: BTreeMap::new(),
            trust: TrustBook::new(),
        }
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers (or refreshes) an entry. Entries are keyed by
    /// `(server, level)`: a re-registration replaces the server's area
    /// at that level (areas are unioned — a server's declared interest
    /// can grow).
    ///
    /// Accepts an `Arc` so a world builder can share one allocation
    /// across every catalog that learns the entry; a plain
    /// [`CatalogEntry`] converts implicitly.
    pub fn register(&mut self, entry: impl Into<Arc<CatalogEntry>>) {
        let entry = entry.into();
        let pos = match self.slot.entry((entry.server.clone(), entry.level)) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let pos = position(self.entries.len());
                slot.insert(pos);
                self.postings.post(pos, &entry.area, None);
                self.entries.push(entry);
                return;
            }
        };
        let existing = &mut self.entries[pos as usize];
        let area = existing.area.union(&entry.area);
        let authoritative = existing.authoritative || entry.authoritative;
        let collection = entry
            .collection
            .clone()
            .or_else(|| existing.collection.clone());
        if area == existing.area
            && authoritative == existing.authoritative
            && collection == existing.collection
        {
            // Refresh with nothing new: keep sharing the allocation.
            return;
        }
        if area != existing.area {
            self.postings.post(pos, &area, Some(&existing.area));
        }
        let e = Arc::make_mut(existing);
        e.area = area;
        e.authoritative = authoritative;
        e.collection = collection;
    }

    /// Removes all entries for a server (e.g. when it leaves). The
    /// survivors keep their order; their positions shift, so both
    /// indexes are rebuilt in one pass over them.
    pub(crate) fn unregister(&mut self, server: &ServerId) {
        let before = self.entries.len();
        self.entries.retain(|e| &e.server != server);
        if self.entries.len() != before {
            self.slot.clear();
            self.postings = Postings::default();
            for (pos, e) in self.entries.iter().enumerate() {
                let pos = position(pos);
                self.slot.insert((e.server.clone(), e.level), pos);
                self.postings.post(pos, &e.area, None);
            }
        }
        self.route_cache.retain(|_, s| s != server);
    }

    /// Records an intensional statement (§4.2: "whenever a server
    /// registers an interest area with a meta-index server, it can also
    /// provide intensional statements that the meta-index server can
    /// retain").
    pub fn add_statement(&mut self, stmt: IntensionalStatement) {
        if !self.statements.contains(&stmt) {
            self.statements.push(stmt);
        }
    }

    /// Maps a named URN to a server (+ optional collection id).
    pub fn map_urn(&mut self, urn: &str, server: impl Into<ServerId>, collection: Option<String>) {
        let list = self.urn_map.entry(urn.to_owned()).or_default();
        let pair = (server.into(), collection);
        if !list.contains(&pair) {
            list.push(pair);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// All entries.
    pub fn entries(&self) -> &[Arc<CatalogEntry>] {
        &self.entries
    }

    /// The trust book (read side): levels, records, claimants.
    pub fn trust(&self) -> &TrustBook {
        &self.trust
    }

    /// The trust book (write side): observe registrations, apply
    /// verdict rounds, arm the defense.
    pub fn trust_mut(&mut self) -> &mut TrustBook {
        &mut self.trust
    }

    /// Approximate in-memory footprint: number of entries + statements +
    /// URN mappings. Used by the index-detail experiments (E10).
    pub fn size(&self) -> usize {
        self.entries.len()
            + self.statements.len()
            + self.urn_map.values().map(Vec::len).sum::<usize>()
    }

    /// The catalog's durable content as a replayable op sequence —
    /// exactly what a `durable` snapshot writes. Entries in insertion
    /// order, then statements, then URN mappings in map order:
    /// deterministic, and replaying into an empty catalog reproduces
    /// the durable state. The route cache is
    /// deliberately volatile — routes are re-learned, not recovered.
    pub fn snapshot_ops(&self) -> Vec<crate::durable::CatalogOp> {
        use crate::durable::CatalogOp;
        let mut ops = Vec::with_capacity(self.size());
        for e in &self.entries {
            ops.push(CatalogOp::Register((**e).clone()));
        }
        for s in &self.statements {
            ops.push(CatalogOp::Statement(s.clone()));
        }
        for (urn, list) in &self.urn_map {
            for (server, collection) in list {
                ops.push(CatalogOp::MapUrn {
                    urn: urn.clone(),
                    server: server.clone(),
                    collection: collection.clone(),
                });
            }
        }
        for rec in self.trust.records() {
            ops.push(CatalogOp::Trust(rec.clone()));
        }
        ops
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves a named URN to its mapped servers.
    pub fn resolve_named(&self, urn: &Urn) -> Vec<(ServerId, Option<String>)> {
        match urn {
            Urn::Named { .. } => self
                .urn_map
                .get(&urn.to_string())
                .cloned()
                .unwrap_or_default(),
            Urn::InterestArea(_) => Vec::new(),
        }
    }

    /// Base entries whose area overlaps the query area — the servers
    /// that *might* hold pertinent items (§3.1).
    pub fn base_entries_overlapping(&self, area: &InterestArea) -> Vec<&CatalogEntry> {
        let mut v = self.overlapping(area, |level| level == Level::Base);
        // Deterministic order: most specific first, then by id.
        v.sort_by(|a, b| {
            b.area
                .specificity()
                .cmp(&a.area.specificity())
                .then_with(|| a.server.cmp(&b.server))
        });
        v
    }

    /// The binding algorithm of §4.2: the default union of overlapping
    /// base servers, plus every alternative the intensional statements
    /// license. Alternative 0 is always the default (staleness 0).
    pub fn bind_area(&self, area: &InterestArea) -> Binding {
        let default_servers = self
            .base_entries_overlapping(area)
            .iter()
            .map(|e| e.server.clone())
            .collect();
        self.bind_servers(area, default_servers)
    }

    /// [`Catalog::bind_area`] past the catalog lookup: the binding over
    /// `default_servers`, the overlapping base servers in
    /// [`Catalog::base_entries_overlapping`] order.
    fn bind_servers(&self, area: &InterestArea, mut default_servers: Vec<ServerId>) -> Binding {
        // Quarantined servers are shunned exactly like dead hops: only
        // when a non-quarantined survivor remains (a poisoned answer
        // beats no answer).
        if !self.trust.is_empty() {
            let kept: Vec<ServerId> = default_servers
                .iter()
                .filter(|s| !self.trust.excluded(s))
                .cloned()
                .collect();
            if !kept.is_empty() {
                default_servers = kept;
            }
        }
        let mut alternatives = Vec::new();
        if !default_servers.is_empty() {
            alternatives.push(BindingAlternative {
                servers: default_servers
                    .iter()
                    .map(|s| (s.clone(), Level::Base))
                    .collect(),
                staleness: 0,
                note: "default: union of overlapping base servers".to_owned(),
            });
        }

        for stmt in &self.statements {
            if !stmt.lhs_answers(area) {
                continue;
            }
            let subsumed = stmt.subsumed_servers(area);
            if subsumed.is_empty() {
                continue;
            }
            // Replace the subsumed servers with the lhs holder. Whatever
            // of the default the statement does not speak about stays.
            let mut servers: Vec<(ServerId, Level)> = default_servers
                .iter()
                .filter(|s| !subsumed.contains(s))
                .map(|s| (s.clone(), Level::Base))
                .collect();
            let lhs_pair = (stmt.lhs.server.clone(), stmt.lhs.level);
            if !servers.contains(&lhs_pair) {
                servers.push(lhs_pair);
            }
            let alt = BindingAlternative {
                servers,
                staleness: stmt.lhs_staleness(),
                note: format!("via statement: {stmt}"),
            };
            if !alternatives
                .iter()
                .any(|a: &BindingAlternative| a.servers == alt.servers)
            {
                alternatives.push(alt);
            }
        }

        // Statement-licensed alternatives touching a quarantined
        // server are dropped while any clean alternative survives.
        if !self.trust.is_empty()
            && alternatives.iter().any(|a: &BindingAlternative| {
                a.servers.iter().all(|(s, _)| !self.trust.excluded(s))
            })
        {
            alternatives.retain(|a| a.servers.iter().all(|(s, _)| !self.trust.excluded(s)));
        }

        Binding {
            area: area.clone(),
            alternatives,
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Where to forward a plan whose area this catalog cannot fully
    /// bind (§3.4). Consults the route cache, then picks the best
    /// index/meta-index entry overlapping the area:
    ///
    /// 1. entries covering the whole area beat partial overlaps;
    /// 2. more specific areas beat broader ones (avoids flooding
    ///    high-level servers, §3.4);
    /// 3. authoritative beats non-authoritative (§3.3);
    /// 4. `Index` beats `MetaIndex` (richer indices route better);
    /// 5. server id breaks ties (determinism).
    ///
    /// `exclude` lists servers the plan already visited (loop
    /// avoidance).
    pub fn route_for(&self, area: &InterestArea, exclude: &[ServerId]) -> Option<ServerId> {
        let key = cache_key(area);
        if let Some(s) = self.route_cache.get(&key) {
            if !exclude.contains(s) && !self.trust.excluded(s) {
                return Some(s.clone());
            }
        }
        let routes = self.overlapping(area, |level| {
            matches!(level, Level::Index | Level::MetaIndex)
        });
        self.pick_route(&routes, area, exclude, true)
            .or_else(|| self.pick_route(&routes, area, exclude, false))
    }

    /// The choice behind [`Catalog::route_for`] among the overlapping
    /// index and meta-index entries. With `shun` set, quarantined
    /// servers are skipped — the caller falls back to a second pass
    /// without it, so quarantine (like the visited-set) never strands a
    /// plan with zero next hops.
    fn pick_route(
        &self,
        routes: &[&CatalogEntry],
        area: &InterestArea,
        exclude: &[ServerId],
        shun: bool,
    ) -> Option<ServerId> {
        routes
            .iter()
            .filter(|e| !exclude.contains(&e.server))
            .filter(|e| !(shun && self.trust.excluded(&e.server)))
            .max_by(|a, b| {
                let cover = |e: &&&CatalogEntry| e.area.covers(area);
                cover(a)
                    .cmp(&cover(b))
                    .then(a.area.specificity().cmp(&b.area.specificity()))
                    .then(a.authoritative.cmp(&b.authoritative))
                    .then((a.level == Level::Index).cmp(&(b.level == Level::Index)))
                    .then(b.server.cmp(&a.server)) // reversed: smaller id wins
            })
            .map(|e| e.server.clone())
    }

    /// The entries at a level `keep` accepts whose area overlaps `area`,
    /// in insertion order: the postings name the candidates and
    /// [`InterestArea::overlaps`] is the exact filter.
    fn overlapping(&self, area: &InterestArea, keep: impl Fn(Level) -> bool) -> Vec<&CatalogEntry> {
        self.postings
            .candidates(area)
            .into_iter()
            .map(|pos| &*self.entries[pos as usize])
            .filter(|e| keep(e.level) && e.area.overlaps(area))
            .collect()
    }

    /// Records that `server` successfully handled `area` (populates the
    /// cache used by [`Catalog::route_for`]).
    pub fn record_route(&mut self, area: &InterestArea, server: ServerId) {
        if self.route_cache.len() >= ROUTE_CACHE_CAP
            && !self.route_cache.contains_key(&cache_key(area))
        {
            // Evict the lexicographically first entry: cheap, deterministic.
            if let Some(k) = self.route_cache.keys().next().cloned() {
                self.route_cache.remove(&k);
            }
        }
        self.route_cache.insert(cache_key(area), server);
    }
}

/// Routes the route cache holds before it evicts one.
const ROUTE_CACHE_CAP: usize = 256;

fn cache_key(area: &InterestArea) -> String {
    mqp_namespace::urn::encode_area(area)
}

/// An entry position as the indexes store it: `u32` keeps a posting at
/// four bytes.
fn position(pos: usize) -> u32 {
    u32::try_from(pos).expect("a catalog holds fewer than 2^32 entries")
}

/// Per-dimension coordinate postings: `dims[d]` maps every coordinate an
/// entry's cell holds in dimension `d` to the positions of those
/// entries. A position can outlive its coordinate — a merge whose union
/// drops a covered cell leaves that cell's postings — so a lookup yields
/// a superset of the overlapping entries, and the caller filters exactly.
#[derive(Debug, Clone, Default)]
struct Postings {
    dims: Vec<BTreeMap<CategoryPath, Vec<u32>>>,
    /// Entries holding a zero-arity cell: it has no coordinate to post
    /// under, and overlaps exactly the zero-arity query cells.
    nullary: Vec<u32>,
}

impl Postings {
    /// Posts `pos` under every coordinate of `area`'s cells, skipping
    /// those already posted for `old`, the area it grew from.
    fn post(&mut self, pos: u32, area: &InterestArea, old: Option<&InterestArea>) {
        let old = old.map_or(&[][..], InterestArea::cells);
        for cell in area.cells().iter().filter(|c| !old.contains(c)) {
            if cell.arity() == 0 {
                push_once(&mut self.nullary, pos);
                continue;
            }
            if self.dims.len() < cell.arity() {
                self.dims.resize_with(cell.arity(), BTreeMap::new);
            }
            for (d, coord) in cell.coords().iter().enumerate() {
                if old.iter().any(|c| c.coords().get(d) == Some(coord)) {
                    continue;
                }
                match self.dims[d].get_mut(coord) {
                    Some(list) => push_once(list, pos),
                    None => {
                        self.dims[d].insert(coord.clone(), vec![pos]);
                    }
                }
            }
        }
    }

    /// Positions of every entry that may overlap `area`, ascending (so
    /// in insertion order) and without repeats. Cells of different
    /// arity never overlap, and an entry cell of arity `k` is posted in
    /// all of dimensions `0..k`, so for each query cell any one of its
    /// dimensions yields a complete candidate set: the one with the
    /// fewest candidates is taken.
    fn candidates(&self, area: &InterestArea) -> Vec<u32> {
        let mut out = Vec::new();
        for cell in area.cells() {
            let coords = cell.coords();
            if coords.is_empty() {
                out.extend_from_slice(&self.nullary);
                continue;
            }
            if coords.len() > self.dims.len() {
                continue; // no entry holds a cell this wide
            }
            let (mut fewest, mut best) = (usize::MAX, 0);
            for (d, coord) in coords.iter().enumerate() {
                let n = self.count(d, coord, fewest);
                if n < fewest {
                    (fewest, best) = (n, d);
                }
            }
            for list in self.lists(best, &coords[best]) {
                out.extend_from_slice(list);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The posting lists of dimension `d` under a coordinate comparable
    /// with `coord`: each strict ancestor (a point lookup, `*`
    /// included), then `coord` and its descendants. Those are
    /// contiguous under `CategoryPath`'s lexicographic order, so one
    /// range scan covers them, stopping at the first key `coord` does
    /// not cover.
    fn lists<'a>(
        &'a self,
        d: usize,
        coord: &'a CategoryPath,
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        let map = &self.dims[d];
        let ancestors = (1..=coord.depth()).filter_map(move |up| map.get(&coord.generalize(up)));
        let below = map
            .range(coord..)
            .take_while(move |(k, _)| coord.covers(k))
            .map(|(_, list)| list);
        ancestors.chain(below).map(Vec::as_slice)
    }

    /// How many positions [`Postings::lists`] yields, counted no further
    /// than `limit`.
    fn count(&self, d: usize, coord: &CategoryPath, limit: usize) -> usize {
        let mut n = 0;
        for list in self.lists(d, coord) {
            n += list.len();
            if n >= limit {
                break;
            }
        }
        n
    }
}

/// Appends `pos` unless it is already last: one area posts a position
/// under a coordinate its cells share only once.
fn push_once(list: &mut Vec<u32>, pos: u32) {
    if list.last() != Some(&pos) {
        list.push(pos);
    }
}

/// The catalog before its indexes: registration, binding and routing as
/// full scans of the entry list, kept verbatim as the oracle the indexed
/// paths are property-tested against. Do not index it: an oracle that
/// shares the technique it checks proves nothing.
#[cfg(test)]
mod linear {
    use super::*;

    /// The linear `find` [`Catalog::register`] replaced.
    pub(super) fn register(entries: &mut Vec<Arc<CatalogEntry>>, entry: Arc<CatalogEntry>) {
        if let Some(existing) = entries
            .iter_mut()
            .find(|e| e.server == entry.server && e.level == entry.level)
        {
            let area = existing.area.union(&entry.area);
            let authoritative = existing.authoritative || entry.authoritative;
            let collection = entry
                .collection
                .clone()
                .or_else(|| existing.collection.clone());
            if area == existing.area
                && authoritative == existing.authoritative
                && collection == existing.collection
            {
                return;
            }
            let e = Arc::make_mut(existing);
            e.area = area;
            e.authoritative = authoritative;
            e.collection = collection;
        } else {
            entries.push(entry);
        }
    }

    pub(super) fn base_entries_overlapping<'a>(
        entries: &'a [Arc<CatalogEntry>],
        area: &InterestArea,
    ) -> Vec<&'a CatalogEntry> {
        let mut v: Vec<&CatalogEntry> = entries
            .iter()
            .filter(|e| e.level == Level::Base && e.area.overlaps(area))
            .map(|e| &**e)
            .collect();
        v.sort_by(|a, b| {
            b.area
                .specificity()
                .cmp(&a.area.specificity())
                .then_with(|| a.server.cmp(&b.server))
        });
        v
    }

    fn pick_route(
        c: &Catalog,
        area: &InterestArea,
        exclude: &[ServerId],
        shun: bool,
    ) -> Option<ServerId> {
        c.entries
            .iter()
            .filter(|e| {
                matches!(e.level, Level::Index | Level::MetaIndex)
                    && e.area.overlaps(area)
                    && !exclude.contains(&e.server)
                    && !(shun && c.trust.excluded(&e.server))
            })
            .max_by(|a, b| {
                let cover = |e: &&Arc<CatalogEntry>| e.area.covers(area);
                cover(a)
                    .cmp(&cover(b))
                    .then(a.area.specificity().cmp(&b.area.specificity()))
                    .then(a.authoritative.cmp(&b.authoritative))
                    .then((a.level == Level::Index).cmp(&(b.level == Level::Index)))
                    .then(b.server.cmp(&a.server)) // reversed: smaller id wins
            })
            .map(|e| e.server.clone())
    }

    /// [`Catalog::bind_area`] with the default found by a scan.
    pub(super) fn bind_area(c: &Catalog, area: &InterestArea) -> Binding {
        let servers = base_entries_overlapping(&c.entries, area)
            .iter()
            .map(|e| e.server.clone())
            .collect();
        c.bind_servers(area, servers)
    }

    /// [`Catalog::route_for`] with both passes scanning.
    pub(super) fn route_for(
        c: &Catalog,
        area: &InterestArea,
        exclude: &[ServerId],
    ) -> Option<ServerId> {
        if let Some(s) = c.route_cache.get(&cache_key(area)) {
            if !exclude.contains(s) && !c.trust.excluded(s) {
                return Some(s.clone());
            }
        }
        pick_route(c, area, exclude, true).or_else(|| pick_route(c, area, exclude, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_namespace::InterestArea;

    fn area(cells: &[&[&str]]) -> InterestArea {
        InterestArea::parse(cells)
    }

    /// The catalog of §4.2 Example 1: meta-index server M knows R
    /// ([Portland, Recreation]) and S ([Oregon, Sporting Goods]).
    fn example1_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(CatalogEntry::base(
            "R",
            area(&[&["Oregon/Portland", "Recreation"]]),
        ));
        c.register(CatalogEntry::base(
            "S",
            area(&[&["Oregon", "Recreation/SportingGoods"]]),
        ));
        c
    }

    #[test]
    fn default_binding_unions_overlapping_bases() {
        let c = example1_catalog();
        let q = area(&[&["Oregon/Portland", "Recreation/SportingGoods/GolfClubs"]]);
        let b = c.bind_area(&q);
        assert_eq!(b.alternatives.len(), 1);
        let servers: Vec<&str> = b.alternatives[0]
            .servers
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        assert_eq!(servers, ["R", "S"]);
    }

    #[test]
    fn example1_statement_licenses_single_server() {
        let mut c = example1_catalog();
        c.add_statement(
            "base[Oregon.Portland, Recreation.SportingGoods]@R = \
             base[Oregon.Portland, Recreation.SportingGoods]@S"
                .parse()
                .unwrap(),
        );
        let q = area(&[&["Oregon/Portland", "Recreation/SportingGoods/GolfClubs"]]);
        let b = c.bind_area(&q);
        // Default (R ∪ S) plus the licensed R-only alternative.
        assert_eq!(b.alternatives.len(), 2);
        assert_eq!(b.alternatives[1].servers.len(), 1);
        assert_eq!(b.alternatives[1].servers[0].0.as_str(), "R");
        assert_eq!(b.alternatives[1].staleness, 0);
    }

    #[test]
    fn example3_containment_with_delay() {
        // base[Portland, *]@R >= base[Portland, *]@S{30}
        let mut c = Catalog::new();
        c.register(CatalogEntry::base("R", area(&[&["Portland", "*"]])));
        c.register(CatalogEntry::base("S", area(&[&["Portland", "*"]])));
        c.add_statement(
            "base[Portland, *]@R >= base[Portland, *]@S{30}"
                .parse()
                .unwrap(),
        );
        let q = area(&[&["Portland", "CDs"]]);
        let b = c.bind_area(&q);
        assert_eq!(b.alternatives.len(), 2);
        // Default: both, current.
        assert_eq!(b.alternatives[0].fanout(), 2);
        assert_eq!(b.alternatives[0].staleness, 0);
        // Alternative: R alone, up to 30 minutes stale.
        assert_eq!(b.alternatives[1].fanout(), 1);
        assert_eq!(b.alternatives[1].staleness, 30);
    }

    #[test]
    fn example2_index_coverage_routes_to_index_server() {
        let mut c = Catalog::new();
        for s in ["S", "T", "U"] {
            c.register(CatalogEntry::base(s, area(&[&["Oregon", "GolfClubs"]])));
        }
        c.add_statement(
            "index[Oregon, GolfClubs]@R = base[Oregon, GolfClubs]@S U \
             base[Oregon, GolfClubs]@T U base[Oregon, GolfClubs]@U"
                .parse()
                .unwrap(),
        );
        let q = area(&[&["Oregon/Portland", "GolfClubs/Putters"]]);
        let b = c.bind_area(&q);
        assert_eq!(b.alternatives.len(), 2);
        let idx_alt = &b.alternatives[1];
        assert_eq!(idx_alt.fanout(), 1);
        assert_eq!(idx_alt.servers[0].0.as_str(), "R");
        assert_eq!(idx_alt.servers[0].1, Level::Index);
    }

    #[test]
    fn statement_not_covering_query_ignored() {
        let mut c = example1_catalog();
        c.add_statement(
            // Statement about Eugene doesn't help a Portland query.
            "base[Oregon.Eugene, Recreation]@R = base[Oregon.Eugene, Recreation]@S"
                .parse()
                .unwrap(),
        );
        let q = area(&[&["Oregon/Portland", "Recreation/SportingGoods"]]);
        assert_eq!(c.bind_area(&q).alternatives.len(), 1);
    }

    #[test]
    fn unknown_area_binds_empty() {
        let c = example1_catalog();
        let q = area(&[&["France", "Cheese"]]);
        assert!(c.bind_area(&q).alternatives.is_empty());
    }

    #[test]
    fn named_urn_resolution() {
        let mut c = Catalog::new();
        let urn = Urn::named("ForSale", "Portland-CDs");
        c.map_urn(
            "urn:ForSale:Portland-CDs",
            "seller-1",
            Some("/data[@id='245']".to_owned()),
        );
        c.map_urn("urn:ForSale:Portland-CDs", "seller-2", None);
        let hits = c.resolve_named(&urn);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0.as_str(), "seller-1");
        assert_eq!(hits[0].1.as_deref(), Some("/data[@id='245']"));
        assert!(c
            .resolve_named(&Urn::named("ForSale", "Nothing"))
            .is_empty());
    }

    #[test]
    fn register_merges_same_server_level() {
        let mut c = Catalog::new();
        c.register(CatalogEntry::base("R", area(&[&["Portland", "CDs"]])));
        c.register(CatalogEntry::base("R", area(&[&["Portland", "Books"]])));
        assert_eq!(c.entries().len(), 1);
        let q = area(&[&["Portland", "Books"]]);
        assert!(!c.bind_area(&q).alternatives.is_empty());
    }

    #[test]
    fn unregister_removes_server() {
        let mut c = example1_catalog();
        c.unregister(&ServerId::new("R"));
        let q = area(&[&["Oregon/Portland", "Recreation"]]);
        let b = c.bind_area(&q);
        assert_eq!(b.alternatives.len(), 1);
        assert_eq!(b.alternatives[0].servers[0].0.as_str(), "S");
    }

    #[test]
    fn route_prefers_covering_authoritative_specific() {
        let mut c = Catalog::new();
        c.register(CatalogEntry::meta_index("broad", area(&[&["*", "*"]])));
        c.register(CatalogEntry::meta_index("usa", area(&[&["USA", "*"]])).authoritative());
        c.register(CatalogEntry::index(
            "or-music",
            area(&[&["USA/OR", "Music"]]),
        ));
        let q = area(&[&["USA/OR/Portland", "Music/CDs"]]);
        // or-music covers the query, is most specific, and is an index.
        assert_eq!(c.route_for(&q, &[]).unwrap().as_str(), "or-music");
        // Excluding it falls back to the authoritative USA meta-index.
        assert_eq!(
            c.route_for(&q, &[ServerId::new("or-music")])
                .unwrap()
                .as_str(),
            "usa"
        );
        // Excluding both leaves the broad one.
        assert_eq!(
            c.route_for(&q, &[ServerId::new("or-music"), ServerId::new("usa")])
                .unwrap()
                .as_str(),
            "broad"
        );
    }

    #[test]
    fn route_cache_hit_and_eviction() {
        // No entries: only the cache can answer `route_for`.
        let mut c = Catalog::new();
        let cities: Vec<String> = (0..=ROUTE_CACHE_CAP).map(|i| format!("USA/C{i}")).collect();
        let areas: Vec<InterestArea> = cities.iter().map(|c| area(&[&[c, "Music"]])).collect();
        assert!(c.route_for(&areas[0], &[]).is_none());
        c.record_route(&areas[0], ServerId::new("x"));
        assert_eq!(c.route_for(&areas[0], &[]).unwrap().as_str(), "x");
        for a in &areas[1..] {
            c.record_route(a, ServerId::new("y")); // the last one evicts one
        }
        let present = areas
            .iter()
            .filter(|a| c.route_for(a, &[]).is_some())
            .count();
        assert_eq!(present, ROUTE_CACHE_CAP);
    }

    #[test]
    fn cached_route_respected_by_route_for() {
        let mut c = Catalog::new();
        c.register(CatalogEntry::index("idx", area(&[&["USA", "*"]])));
        let q = area(&[&["USA/OR", "Music"]]);
        c.record_route(&q, ServerId::new("fastpath"));
        assert_eq!(c.route_for(&q, &[]).unwrap().as_str(), "fastpath");
        // Excluded cache entry falls through to catalog entries.
        assert_eq!(
            c.route_for(&q, &[ServerId::new("fastpath")])
                .unwrap()
                .as_str(),
            "idx"
        );
    }

    #[test]
    fn catalog_size_counts_components() {
        let mut c = example1_catalog();
        c.map_urn("urn:X:y", "s", None);
        c.add_statement("base[A]@R = base[A]@S".parse().unwrap());
        assert_eq!(c.size(), 2 + 1 + 1);
    }

    #[test]
    fn default_agrees_with_new() {
        assert_eq!(
            format!("{:?}", Catalog::default()),
            format!("{:?}", Catalog::new())
        );
    }

    fn servers(b: &Binding) -> Vec<&str> {
        b.alternatives.first().map_or(Vec::new(), |a| {
            a.servers.iter().map(|(s, _)| s.as_str()).collect()
        })
    }

    /// Asserts every indexed query path agrees with the linear oracle.
    fn assert_matches_oracle(c: &Catalog, q: &InterestArea) {
        assert_eq!(
            c.base_entries_overlapping(q),
            linear::base_entries_overlapping(c.entries(), q),
            "base entries for {q}"
        );
        assert_eq!(c.bind_area(q), linear::bind_area(c, q), "binding for {q}");
        assert_eq!(
            c.route_for(q, &[]),
            linear::route_for(c, q, &[]),
            "route for {q}"
        );
    }

    #[test]
    fn merge_adding_a_cell_is_found_through_it() {
        let mut c = Catalog::new();
        c.register(CatalogEntry::base("R", area(&[&["Portland", "CDs"]])));
        c.register(CatalogEntry::index("I", area(&[&["Portland", "CDs"]])));
        c.register(CatalogEntry::base("R", area(&[&["Seattle", "Books"]])));
        c.register(CatalogEntry::index("I", area(&[&["Seattle", "*"]])));
        assert_eq!(c.entries().len(), 2);
        let q = area(&[&["Seattle", "Books/Paperbacks"]]);
        assert_eq!(servers(&c.bind_area(&q)), ["R"]);
        assert_eq!(c.route_for(&q, &[]).unwrap().as_str(), "I");
        assert_matches_oracle(&c, &q);
    }

    #[test]
    fn reregister_after_unregister_lands_last_and_is_found() {
        let mut c = Catalog::new();
        for s in ["A", "B", "C"] {
            c.register(CatalogEntry::base(s, area(&[&["Portland", "CDs"]])));
        }
        c.unregister(&ServerId::new("A"));
        c.register(CatalogEntry::base("A", area(&[&["Eugene", "CDs"]])));
        c.register(CatalogEntry::index("A", area(&[&["Eugene", "*"]])));
        let order: Vec<&str> = c.entries().iter().map(|e| e.server.as_str()).collect();
        assert_eq!(order, ["B", "C", "A", "A"]);
        let q = area(&[&["Eugene", "CDs"]]);
        assert_eq!(servers(&c.bind_area(&q)), ["A"]);
        assert_eq!(c.route_for(&q, &[]).unwrap().as_str(), "A");
        assert_matches_oracle(&c, &q);
        assert_matches_oracle(&c, &area(&[&["Portland", "CDs"]]));
    }

    #[test]
    fn top_query_returns_every_base_entry_in_oracle_order() {
        let mut c = Catalog::new();
        let cells: [&[&str]; 6] = [
            &["Oregon/Portland", "Music/CDs"],
            &["*", "Books"],
            &["Oregon", "*"],
            &["Washington/Seattle", "Music"],
            &["Oregon/Portland", "Music/CDs"],
            &["*", "*"],
        ];
        for (i, cell) in cells.iter().enumerate() {
            c.register(CatalogEntry::base(format!("s{}", 5 - i), area(&[cell])));
        }
        c.register(CatalogEntry::index("idx", area(&[&["Oregon", "Music"]])));
        let top = area(&[&["*", "*"]]);
        assert_eq!(c.base_entries_overlapping(&top).len(), cells.len());
        assert_matches_oracle(&c, &top);
    }

    /// Zero-arity and mismatched-arity cells never overlap an entry of
    /// another arity, and nothing panics on the way: a zero-arity query
    /// finds only zero-arity entries, exactly as the oracle does.
    #[test]
    fn zero_and_mismatched_arity_cells_neither_match_nor_panic() {
        use mqp_namespace::Cell;
        let nullary = InterestArea::of(Cell::new([]));
        let mut c = Catalog::new();
        c.register(CatalogEntry::base("two", area(&[&["Oregon", "CDs"]])));
        c.register(CatalogEntry::index("one", area(&[&["Oregon"]])));
        c.register(CatalogEntry::base("three", area(&[&["*", "*", "*"]])));
        let queries = [
            nullary.clone(),
            area(&[&["Oregon"]]),
            area(&[&["*", "*"]]),
            area(&[&["Oregon", "CDs", "Used"]]),
            area(&[&["*", "*", "*", "*"]]),
            InterestArea::empty(),
        ];
        let found = |c: &Catalog, q: &InterestArea| -> Vec<String> {
            c.base_entries_overlapping(q)
                .iter()
                .map(|e| e.server.to_string())
                .collect()
        };
        let want: [&[&str]; 6] = [&[], &[], &["two"], &["three"], &[], &[]];
        for (q, want) in queries.iter().zip(want) {
            assert_eq!(found(&c, q), want, "query {q}");
            assert_matches_oracle(&c, q);
        }
        assert_eq!(c.route_for(&queries[1], &[]).unwrap().as_str(), "one");
        assert_eq!(c.route_for(&queries[2], &[]), None);

        c.register(CatalogEntry::base("zero", nullary.clone()));
        assert_eq!(found(&c, &nullary), ["zero"]);
        for q in &queries {
            assert_matches_oracle(&c, q);
        }
    }

    mod properties {
        use super::*;
        use mqp_namespace::{CategoryPath, Cell};
        use proptest::prelude::*;

        const SERVERS: [&str; 6] = ["s0", "s1", "s2", "s3", "s4", "s5"];

        /// Paths over a two-letter alphabet, `*` included, so ancestors,
        /// descendants and disjoint siblings all occur.
        fn arb_path() -> impl Strategy<Value = CategoryPath> {
            proptest::collection::vec(proptest::sample::select(vec!["A", "B"]), 0..3)
                .prop_map(|segs| CategoryPath::new(segs.into_iter().map(str::to_owned)))
        }

        /// Mostly two-dimensional cells; now and then arity 0, 1 or 3.
        fn arb_cell() -> impl Strategy<Value = Cell> {
            (
                proptest::sample::select(vec![0usize, 1, 2, 2, 2, 2, 2, 3]),
                proptest::collection::vec(arb_path(), 3),
            )
                .prop_map(|(arity, mut coords)| {
                    coords.truncate(arity);
                    Cell::new(coords)
                })
        }

        fn arb_area() -> impl Strategy<Value = InterestArea> {
            proptest::collection::vec(arb_cell(), 0..4).prop_map(InterestArea::new)
        }

        #[derive(Debug, Clone)]
        enum Op {
            Register {
                server: usize,
                level: u8,
                area: InterestArea,
                authoritative: bool,
                collection: Option<u8>,
            },
            Unregister(usize),
            Quarantine(usize),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            let register = (
                0..SERVERS.len(),
                0u8..3,
                arb_area(),
                any::<bool>(),
                proptest::option::of(0u8..2),
            )
                .prop_map(
                    |(server, level, area, authoritative, collection)| Op::Register {
                        server,
                        level,
                        area,
                        authoritative,
                        collection,
                    },
                )
                .boxed();
            prop_oneof![
                register.clone(),
                register.clone(),
                register,
                (0..SERVERS.len()).prop_map(Op::Unregister),
                (0..SERVERS.len()).prop_map(Op::Quarantine),
            ]
        }

        /// A query area and a visited-set to exclude.
        fn arb_query() -> impl Strategy<Value = (InterestArea, Vec<ServerId>)> {
            (
                arb_area(),
                proptest::collection::vec(
                    (0..SERVERS.len()).prop_map(|s| ServerId::new(SERVERS[s])),
                    0..3,
                ),
            )
        }

        proptest! {
            /// After every step of an arbitrary register / unregister /
            /// quarantine sequence, the indexed catalog holds the same
            /// entries in the same order as the linear oracle, and
            /// answers overlap, binding and routing queries identically
            /// — both route passes included, since quarantine arms the
            /// shun pass and `exclude` can empty it.
            #[test]
            fn index_agrees_with_linear_oracle(
                ops in proptest::collection::vec(arb_op(), 1..24),
                queries in proptest::collection::vec(arb_query(), 1..6),
            ) {
                let mut c = Catalog::new();
                let mut oracle: Vec<Arc<CatalogEntry>> = Vec::new();
                for (step, op) in ops.iter().enumerate() {
                    match op {
                        Op::Register { server, level, area, authoritative, collection } => {
                            let entry = Arc::new(CatalogEntry {
                                server: ServerId::new(SERVERS[*server]),
                                level: [Level::Base, Level::Index, Level::MetaIndex][*level as usize],
                                area: area.clone(),
                                collection: collection.map(|k| format!("/data[@id='{k}']")),
                                authoritative: *authoritative,
                            });
                            linear::register(&mut oracle, Arc::clone(&entry));
                            c.register(entry);
                        }
                        Op::Unregister(server) => {
                            let server = ServerId::new(SERVERS[*server]);
                            oracle.retain(|e| e.server != server);
                            c.unregister(&server);
                        }
                        Op::Quarantine(server) => {
                            c.trust_mut().set_enabled(true);
                            c.trust_mut().force_quarantine(&ServerId::new(SERVERS[*server]), step as u64);
                        }
                    }
                    prop_assert_eq!(c.entries(), &oracle[..], "after step {}: {:?}", step, op);
                    let want: Vec<_> = oracle
                        .iter()
                        .map(|e| crate::durable::CatalogOp::Register((**e).clone()))
                        .chain(c.trust().records().cloned().map(crate::durable::CatalogOp::Trust))
                        .collect();
                    prop_assert_eq!(c.snapshot_ops(), want);
                    for (q, exclude) in &queries {
                        prop_assert_eq!(
                            c.base_entries_overlapping(q),
                            linear::base_entries_overlapping(&oracle, q),
                            "step {} query {}", step, q
                        );
                        prop_assert_eq!(c.bind_area(q), linear::bind_area(&c, q), "step {} query {}", step, q);
                        prop_assert_eq!(
                            c.route_for(q, exclude),
                            linear::route_for(&c, q, exclude),
                            "step {} query {} exclude {:?}", step, q, exclude
                        );
                    }
                }
            }
        }
    }
}
