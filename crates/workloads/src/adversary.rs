//! The adversarial registration-churn world (DESIGN.md §14, experiment
//! E16): the lazy scale federation of [`scale`] with an
//! attacker population layered on top.
//!
//! Three adversary classes, all seeded and deterministic:
//!
//! * **Hijackers** — register conflicting base bindings for cells real
//!   sellers serve, holding *wrong* data (marked with a `<poison/>`
//!   field so poisoned answers are mechanically countable).
//! * **Flappers** — hijackers that keep re-registering after being
//!   struck, probing the quarantine state machine's memory.
//! * **Honest mirrors** — the hard negative class: extra peers holding
//!   *exact copies* of a seller's data who register the same cell.
//!   Multi-origin and conflicting by the catalog's lights, but
//!   verifiably consistent — a defense that quarantines them is broken.
//!
//! Every contested cell keeps at least two honest claimants (its real
//! holders plus a mirror), so a verification round's majority can never
//! tie in the hijacker's favor.
//!
//! Node layout: `client`(0), `meta`(1), `city-<k>` index servers
//! (2..2+C, the defense verifiers), then the named attacker head
//! (`hijack-<cell>` / `mirror-<cell>`), then the scheme-named seller
//! tail — so ten-thousand-seller worlds stay O(touched peers). Every
//! node outside the attacker head is built by the scale world's own
//! peer builder (shifted past the head for sellers), so the federation
//! under attack is the §10 scale world peer for peer.

use std::sync::Arc;

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_catalog::{CatalogEntry, ServerId};
use mqp_namespace::Urn;
use mqp_net::NodeId;
use mqp_peer::{Peer, SimHarness};
use mqp_xml::Element;

use crate::scale::{self, cell_area, mix, CATEGORIES};

/// Every `FLAP_EVERY`-th hijacker keeps flapping after the second
/// strike.
const FLAP_EVERY: usize = 3;

/// Deliveries budget per schedule wave — far above what any built world
/// needs; the net quiesces long before.
const WAVE_BUDGET: usize = 50_000_000;

/// Adversary-world parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryConfig {
    /// Number of honest seller (base) peers.
    pub sellers: usize,
    /// Number of cities / index servers; `0` = auto (`sellers / 16`).
    pub cities: usize,
    /// Seed for all role assignment and data derivation.
    pub seed: u64,
    /// Fraction of populated cells that get a hijacker (e.g. `0.05`).
    pub hijacker_fraction: f64,
    /// Arm the multi-origin binding defense at every index server.
    pub defense: bool,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            sellers: 1_000,
            cities: 0,
            seed: 0xD15EA5E,
            hijacker_fraction: 0.05,
            defense: true,
        }
    }
}

/// One cell the schedule drives registrations for.
#[derive(Debug, Clone)]
pub(crate) struct CellPlan {
    /// Cell index (`city * CATEGORIES.len() + category`).
    pub(crate) cell: usize,
    /// City index.
    pub(crate) city: usize,
    /// Category index.
    pub(crate) category: usize,
    /// Seller indices really holding this cell.
    pub(crate) holders: Vec<usize>,
    /// The hijacker's node, when this cell is contested.
    pub(crate) hijacker: Option<NodeId>,
    /// The honest mirror's node.
    pub(crate) mirror: NodeId,
}

/// Detection quality after the schedule ran (ground truth from seeded
/// roles, observed state from the index servers' trust books).
#[derive(Debug, Clone, Default)]
pub struct DetectionReport {
    /// Hijackers in the world (the positive class).
    pub hijackers: usize,
    /// Hijackers quarantined (true positives).
    pub detected: usize,
    /// Non-hijackers quarantined (false positives).
    pub(crate) false_positives: usize,
    /// Honest mirrors quarantined — must be zero for a sound defense.
    pub mirrors_quarantined: usize,
    /// `detected / quarantined` (1.0 when nothing is quarantined).
    pub precision: f64,
    /// `detected / hijackers` (1.0 when there are no hijackers).
    pub recall: f64,
    /// Mean µs from a hijacker's first observed registration to the
    /// strike that quarantined it (over detected hijackers).
    pub mean_time_to_quarantine_us: f64,
}

/// Poisoned-answer exposure: one discovery query per scheduled cell.
#[derive(Debug, Clone, Default)]
pub struct PoisonReport {
    /// Queries submitted (contested + hard-negative cells).
    pub(crate) queries: usize,
    /// Queries whose answer contained at least one poisoned item.
    pub(crate) poisoned: usize,
}

impl PoisonReport {
    /// Fraction of answers poisoned.
    pub fn rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.poisoned as f64 / self.queries as f64
        }
    }
}

/// The built world.
pub struct AdversaryWorld {
    /// The lazy harness.
    pub harness: SimHarness,
    /// Client node (0).
    pub(crate) client: NodeId,
    /// Honest seller count.
    pub(crate) sellers: usize,
    /// Cells with a hijacker.
    pub(crate) contested: Vec<CellPlan>,
    /// Hard-negative cells: mirrored, never hijacked.
    pub(crate) mirrored: Vec<CellPlan>,
}

/// A hijacker's forged inventory for a cell: wrong items, wrong
/// cardinality (2–3 where honest holders keep one lot each), each
/// carrying the `<poison/>` marker ground truth counts.
fn poison_items(seed: u64, cell: usize, category: &str) -> Vec<Element> {
    let n = 2 + (mix(seed, 4, cell as u64) % 2) as usize;
    (0..n)
        .map(|i| {
            Element::new("item")
                .child(Element::new("name").text(format!("fake-{cell}-{i}")))
                .child(Element::new("category").text(category))
                .child(Element::new("poison").text("1"))
                .child(Element::new("price").text("0.01"))
        })
        .collect()
}

impl AdversaryWorld {
    /// The node hosting city `k`'s index server (a defense verifier).
    pub(crate) fn city_node(&self, k: usize) -> NodeId {
        2 + k
    }

    /// The discovery query for a scheduled cell.
    pub(crate) fn query(&self, plan: &CellPlan) -> Plan {
        Plan::Urn(UrnRef::new(Urn::area(cell_area(plan.city, plan.category))))
    }

    /// Drives the adversarial registration schedule to quiescence:
    ///
    /// 1. honest refresh — every holder and mirror of a scheduled cell
    ///    re-registers with its city index (seeding claimant sets);
    /// 2. hijack — each contested cell's hijacker registers its forged
    ///    binding (first verification round, first strike);
    /// 3. churn — every hijacker re-registers (second strike →
    ///    quarantine);
    /// 4. flap — every `FLAP_EVERY`-th hijacker keeps going.
    ///
    /// Each wave runs the network dry, so verification rounds complete
    /// before the next wave begins.
    pub fn run_schedule(&mut self) {
        let mut scheduled: Vec<CellPlan> = self.contested.clone();
        scheduled.extend(self.mirrored.iter().cloned());
        // Wave 1: honest claimants.
        for plan in &scheduled {
            let to = self.city_node(plan.city);
            let area = cell_area(plan.city, plan.category);
            for &s in &plan.holders {
                let from = self.seller_node(s);
                let entry = CatalogEntry::base(format!("seller-{s}"), area.clone());
                self.harness.send_registration(from, to, entry);
            }
            self.harness.send_registration(
                plan.mirror,
                to,
                CatalogEntry::base(format!("mirror-{}", plan.cell), area.clone()),
            );
        }
        self.harness.run(WAVE_BUDGET);
        // Waves 2 and 3: hijack, then churn.
        for _ in 0..2 {
            for plan in &self.contested {
                let Some(h) = plan.hijacker else { continue };
                let entry = CatalogEntry::base(
                    format!("hijack-{}", plan.cell),
                    cell_area(plan.city, plan.category),
                );
                self.harness
                    .send_registration(h, self.city_node(plan.city), entry);
            }
            self.harness.run(WAVE_BUDGET);
        }
        // Wave 4: flappers.
        for (i, plan) in self.contested.iter().enumerate() {
            if i % FLAP_EVERY != 0 {
                continue;
            }
            let Some(h) = plan.hijacker else { continue };
            let entry = CatalogEntry::base(
                format!("hijack-{}", plan.cell),
                cell_area(plan.city, plan.category),
            );
            self.harness
                .send_registration(h, self.city_node(plan.city), entry);
        }
        self.harness.run(WAVE_BUDGET);
    }

    /// The node hosting seller `s` (after the named attacker head).
    pub(crate) fn seller_node(&self, s: usize) -> NodeId {
        self.harness.len() - self.sellers + s
    }

    /// Scores detection against seeded ground truth by scanning every
    /// materialized index server's trust book.
    pub fn detection_report(&self) -> DetectionReport {
        let mut report = DetectionReport {
            hijackers: self.contested.len(),
            ..DetectionReport::default()
        };
        let hijacker_ids: Vec<ServerId> = self
            .contested
            .iter()
            .filter(|p| p.hijacker.is_some())
            .map(|p| ServerId::new(format!("hijack-{}", p.cell)))
            .collect();
        let mirror_ids: Vec<ServerId> = self
            .contested
            .iter()
            .chain(self.mirrored.iter())
            .map(|p| ServerId::new(format!("mirror-{}", p.cell)))
            .collect();
        // Only cities hosting scheduled cells ever materialize their
        // index server; the rest have nothing to report.
        let mut scheduled_cities: Vec<usize> = self
            .contested
            .iter()
            .chain(self.mirrored.iter())
            .map(|p| p.city)
            .collect();
        scheduled_cities.sort_unstable();
        scheduled_cities.dedup();
        let mut ttq_sum = 0.0;
        for k in scheduled_cities {
            let book = self.harness.peer(self.city_node(k)).catalog().trust();
            for q in book.quarantined() {
                if hijacker_ids.contains(&q) {
                    report.detected += 1;
                    if let Some(rec) = book.record(&q) {
                        ttq_sum += rec.last_strike_at.saturating_sub(rec.first_seen) as f64;
                    }
                } else {
                    report.false_positives += 1;
                    if mirror_ids.contains(&q) {
                        report.mirrors_quarantined += 1;
                    }
                }
            }
        }
        let quarantined = report.detected + report.false_positives;
        report.precision = if quarantined == 0 {
            1.0
        } else {
            report.detected as f64 / quarantined as f64
        };
        report.recall = if report.hijackers == 0 {
            1.0
        } else {
            report.detected as f64 / report.hijackers as f64
        };
        report.mean_time_to_quarantine_us = if report.detected == 0 {
            0.0
        } else {
            ttq_sum / report.detected as f64
        };
        report
    }

    /// Submits one discovery query per scheduled cell and counts
    /// poisoned answers.
    pub fn run_queries(&mut self) -> PoisonReport {
        let mut report = PoisonReport::default();
        let cells: Vec<Plan> = self
            .contested
            .iter()
            .chain(self.mirrored.iter())
            .map(|p| self.query(p))
            .collect();
        for plan in cells {
            self.harness.submit(self.client, plan);
            report.queries += 1;
        }
        self.harness.run(WAVE_BUDGET);
        for outcome in self.harness.take_completed() {
            let poisoned = outcome.items.iter().any(|i| i.field("poison").is_some());
            if poisoned {
                report.poisoned += 1;
            }
        }
        report
    }
}

/// Builds the world. One O(sellers) pass assigns roles and picks
/// contested/mirrored cells; every peer then waits for first touch.
/// Honest peers come from the scale world's builder, so the federation
/// under the attackers is the §10 scale world itself.
pub fn build(config: AdversaryConfig) -> AdversaryWorld {
    let sellers = config.sellers;
    let seed = config.seed;
    let cities = scale::resolve_cities(sellers, config.cities);
    let ncat = CATEGORIES.len();

    // Ground truth: holders per cell, then the seeded contested /
    // hard-negative choice over populated cells.
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); cities * ncat];
    for s in 0..sellers {
        holders[scale::city_of(seed, cities, s) * ncat + scale::category_of(seed, s)].push(s);
    }
    let threshold = (config.hijacker_fraction * 1_000_000.0) as u64;
    let mut contested_cells = Vec::new();
    let mut mirrored_cells = Vec::new();
    for (cell, held) in holders.iter().enumerate() {
        if held.is_empty() {
            continue;
        }
        let roll = mix(seed, 5, cell as u64) % 1_000_000;
        if roll < threshold {
            contested_cells.push(cell);
        } else if roll < threshold.saturating_mul(2) {
            mirrored_cells.push(cell);
        }
    }

    // The attacker head sits between the city servers and the seller
    // tail; attacker node ids are fixed by push order.
    let first = 2 + cities;
    let mut attackers: Vec<ServerId> = Vec::new();
    let mut contested = Vec::new();
    let mut mirrored = Vec::new();
    for &cell in &contested_cells {
        let hijack_node = first + attackers.len();
        attackers.push(format!("hijack-{cell}").into());
        let mirror_node = first + attackers.len();
        attackers.push(format!("mirror-{cell}").into());
        contested.push(CellPlan {
            cell,
            city: cell / ncat,
            category: cell % ncat,
            holders: holders[cell].clone(),
            hijacker: Some(hijack_node),
            mirror: mirror_node,
        });
    }
    for &cell in &mirrored_cells {
        let mirror_node = first + attackers.len();
        attackers.push(format!("mirror-{cell}").into());
        mirrored.push(CellPlan {
            cell,
            city: cell / ncat,
            category: cell % ncat,
            holders: holders[cell].clone(),
            hijacker: None,
            mirror: mirror_node,
        });
    }
    let head = first + attackers.len();
    let directory = scale::directory(cities, attackers, sellers);

    // Role lookup for the factory: node → (cell, is_hijacker).
    let mut attacker_role: Vec<(NodeId, usize, bool)> = Vec::new();
    for p in &contested {
        attacker_role.push((p.hijacker.unwrap(), p.cell, true));
        attacker_role.push((p.mirror, p.cell, false));
    }
    for p in &mirrored {
        attacker_role.push((p.mirror, p.cell, false));
    }
    attacker_role.sort_unstable();
    let defense = config.defense;

    let ns = Arc::new(scale::namespace(cities));
    let mut honest = scale::peers(sellers, cities, seed);
    let factory = move |node: NodeId| -> Peer {
        if node < first {
            // Seed registrations never read the trust book, so arming
            // the defense after them builds the same city server.
            let mut p = honest(node);
            if defense && node >= 2 {
                p.enable_defense();
            }
            return p;
        }
        if node >= head {
            return honest(node - (head - first));
        }
        let i = attacker_role
            .binary_search_by_key(&node, |&(n, _, _)| n)
            .expect("attacker node has a role");
        let (_, cell, is_hijacker) = attacker_role[i];
        let (city, cat) = (cell / ncat, cell % ncat);
        let area = cell_area(city, cat);
        let ns = Arc::clone(&ns);
        if is_hijacker {
            let mut p = Peer::new(format!("hijack-{cell}"), ns);
            p.add_collection("loot", area, poison_items(seed, cell, CATEGORIES[cat]));
            p
        } else {
            // Exact copy of the cell's first holder: the honest
            // mirror answers every probe like the original.
            let mut p = Peer::new(format!("mirror-{cell}"), ns);
            let s = *holders[cell].first().expect("mirrored cells are populated");
            p.add_collection("copy", area, [scale::item(seed, s, CATEGORIES[cat])]);
            p
        }
    };

    let topology = scale::topology(&directory, cities);
    AdversaryWorld {
        harness: SimHarness::lazy(topology, directory, factory),
        client: 0,
        sellers,
        contested,
        mirrored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_catalog::TrustLevel;

    fn small() -> AdversaryConfig {
        AdversaryConfig {
            sellers: 400,
            seed: 7,
            hijacker_fraction: 0.10,
            ..AdversaryConfig::default()
        }
    }

    #[test]
    fn world_is_deterministic_and_has_both_classes() {
        let a = build(small());
        let b = build(small());
        assert!(!a.contested.is_empty(), "need contested cells at 10%");
        assert!(!a.mirrored.is_empty(), "need hard negatives");
        assert_eq!(a.contested.len(), b.contested.len());
        assert_eq!(a.mirrored.len(), b.mirrored.len());
        assert_eq!(a.harness.len(), b.harness.len());
        // Ground truth needs no peers.
        assert_eq!(a.harness.materialized(), 0);
    }

    #[test]
    fn honest_peers_are_the_scale_worlds() {
        let plain_cfg = AdversaryConfig {
            hijacker_fraction: 0.0,
            defense: false,
            ..small()
        };
        let mut plain = build(plain_cfg);
        let mut attacked = build(small());
        let mut sw = scale::build(scale::ScaleConfig {
            sellers: plain_cfg.sellers,
            cities: plain_cfg.cities,
            seed: plain_cfg.seed,
        });
        assert!(plain.contested.is_empty() && plain.mirrored.is_empty());
        assert_eq!(plain.harness.len(), sw.harness.len());
        assert!(attacked.harness.len() > sw.harness.len());

        fn same(w: &mut AdversaryWorld, node: NodeId, sw: &mut scale::ScaleWorld, at: NodeId) {
            let (a, b) = (w.harness.peer_mut(node), sw.harness.peer_mut(at));
            assert_eq!(a.base_entry(), b.base_entry(), "node {node}");
            assert_eq!(a.catalog().entries(), b.catalog().entries(), "node {node}");
        }
        // Client, meta and every city server sit at the same node ids;
        // sellers sit after the attacker head, if there is one.
        for node in 0..2 + sw.cities {
            same(&mut plain, node, &mut sw, node);
            same(&mut attacked, node, &mut sw, node);
        }
        for s in (0..plain_cfg.sellers).step_by(16) {
            let at = sw.seller_node(s);
            let (p, a) = (plain.seller_node(s), attacked.seller_node(s));
            same(&mut plain, p, &mut sw, at);
            same(&mut attacked, a, &mut sw, at);
        }
    }

    #[test]
    fn defense_quarantines_hijackers_but_never_mirrors() {
        let mut w = build(small());
        w.run_schedule();
        let report = w.detection_report();
        assert!(report.hijackers > 0);
        assert_eq!(
            report.mirrors_quarantined, 0,
            "honest mirrors must never be quarantined"
        );
        assert!(
            report.recall >= 0.9,
            "recall {} too low ({}/{})",
            report.recall,
            report.detected,
            report.hijackers
        );
        assert!(
            report.precision >= 0.95,
            "precision {} too low",
            report.precision
        );
        assert!(report.mean_time_to_quarantine_us > 0.0);
        // Honest holders stay trusted everywhere.
        for plan in &w.contested {
            let book = w.harness.peer(w.city_node(plan.city)).catalog().trust();
            for &s in &plan.holders {
                assert_eq!(
                    book.level_of(&ServerId::new(format!("seller-{s}"))),
                    TrustLevel::Trusted
                );
            }
        }
    }

    #[test]
    fn defense_off_poisons_answers_and_defense_on_stops_them() {
        let mut off = build(AdversaryConfig {
            defense: false,
            ..small()
        });
        off.run_schedule();
        assert_eq!(
            off.detection_report().detected,
            0,
            "no defense, no detections"
        );
        let poisoned_off = off.run_queries();
        assert!(
            poisoned_off.poisoned > 0,
            "undefended contested cells must surface poison"
        );

        let mut on = build(small());
        on.run_schedule();
        let poisoned_on = on.run_queries();
        assert!(
            poisoned_on.rate() < poisoned_off.rate(),
            "defense must reduce poisoning ({} !< {})",
            poisoned_on.rate(),
            poisoned_off.rate()
        );
    }

    #[test]
    fn verification_costs_traffic_only_when_armed() {
        let mut on = build(small());
        on.run_schedule();
        let on_stats = on.harness.net.stats().clone();
        let mut off = build(AdversaryConfig {
            defense: false,
            ..small()
        });
        off.run_schedule();
        let off_stats = off.harness.net.stats().clone();
        assert!(on_stats.messages_sent > off_stats.messages_sent);
        assert!(on_stats.bytes_sent > off_stats.bytes_sent);
    }
}
