//! Trust scoring and quarantine for multi-origin bindings (DESIGN.md
//! §14, ROADMAP item 2).
//!
//! A catalog at scale sees many servers claim the same interest area —
//! some legitimately (mirrors, §4.2 intensional equivalences), some
//! maliciously (a spoofed `reg` frame diverting answers). This module
//! is the defense layer: every binding gains provenance aggregates
//! ([`TrustRecord`]), a conflict [`classify`]-er sorts same-area
//! multi-origin sets into [`ConflictClass`]es from `count(σ(B))`-style
//! cross-check observations, and a quarantine state machine
//! ([`TrustLevel`]: `Trusted → Probation → Quarantined`, with decay
//! back on sustained consistency) tells binding and routing which
//! servers to shun.
//!
//! **Order independence is the design invariant.** Every field of a
//! [`TrustRecord`] is a commutative aggregate (min, max, count, set
//! union) over the event multiset, and [`classify`] is a pure function
//! of one verification round's observations — so any permutation of
//! the same events yields the same final trust states (property-tested
//! below). That is what makes the defense driver-agnostic: sim,
//! threaded and tcp deliver the same frames in different orders, and
//! must still quarantine the same servers.
//!
//! The book is **disabled by default**: legacy worlds pay nothing and
//! every pre-existing golden trace stays byte-identical. Enabling it
//! only arms bookkeeping — strikes still require a verification round
//! (or an administrative `quarantine` policy action) to accrue.

use std::collections::BTreeMap;

use crate::entry::ServerId;

// ----------------------------------------------------------------------
// Levels and conflict classes
// ----------------------------------------------------------------------

/// The quarantine state machine. Ordered so that `a < b` means "less
/// trusted than": `Quarantined < Probation < Trusted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrustLevel {
    /// Excluded from binding and routing wherever survivors remain.
    Quarantined,
    /// Under observation: still served, but policy may demand
    /// verification before its answers are trusted.
    Probation,
    /// The default: no unresolved inconsistency on record.
    Trusted,
}

impl TrustLevel {
    /// Wire/DSL name (`trusted`, `probation`, `quarantined`).
    pub fn name(self) -> &'static str {
        match self {
            TrustLevel::Quarantined => "quarantined",
            TrustLevel::Probation => "probation",
            TrustLevel::Trusted => "trusted",
        }
    }

    /// Parses a wire/DSL name.
    pub fn parse(s: &str) -> Option<TrustLevel> {
        match s {
            "quarantined" => Some(TrustLevel::Quarantined),
            "probation" => Some(TrustLevel::Probation),
            "trusted" => Some(TrustLevel::Trusted),
            _ => None,
        }
    }
}

/// What the conflict detector concluded about one claimant in one
/// verification round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictClass {
    /// Agrees with the majority: an honest replica. Clears a strike.
    Mirror,
    /// Disagrees, but has not re-registered recently — likely a
    /// forgotten binding, not an attack. Probation at worst.
    Stale,
    /// Disagrees *and* is actively re-registering: the hijack
    /// signature. Accrues a strike.
    Suspect,
}

// ----------------------------------------------------------------------
// Per-server provenance aggregates
// ----------------------------------------------------------------------

/// Strike weight: one `Suspect` verdict outweighs one `Mirror` clear,
/// so a flapper cannot stay `Trusted` by alternating.
const STRIKE_WEIGHT: u64 = 2;
/// Net penalty at which a server is quarantined.
const QUARANTINE_AT: u64 = 4;

/// Provenance metadata for one server's bindings — every field is a
/// commutative aggregate over the registration/verdict event multiset,
/// so replay order cannot change the final record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustRecord {
    /// The server whose bindings this record scores.
    pub(crate) server: ServerId,
    /// Smallest registrar node id ever observed announcing it (min).
    pub(crate) registrar: u64,
    /// Earliest registration sim-time (min, µs).
    pub first_seen: u64,
    /// Latest registration sim-time (max, µs).
    pub(crate) last_seen: u64,
    /// Total registrations observed (count).
    pub(crate) registrations: u64,
    /// `Suspect` verdicts (count).
    pub(crate) strikes: u64,
    /// `Mirror` verdicts (count).
    pub(crate) clears: u64,
    /// `Stale` verdicts (count).
    pub(crate) stale_marks: u64,
    /// Latest sim-time a strike landed (max, µs) — with `first_seen`,
    /// this bounds time-to-quarantine.
    pub last_strike_at: u64,
    /// Area keys (`encode_area`) this server has claimed (set union,
    /// kept sorted).
    pub(crate) areas: Vec<String>,
}

impl TrustRecord {
    fn new(server: ServerId) -> Self {
        TrustRecord {
            server,
            registrar: u64::MAX,
            first_seen: u64::MAX,
            last_seen: 0,
            registrations: 0,
            strikes: 0,
            clears: 0,
            stale_marks: 0,
            last_strike_at: 0,
            areas: Vec::new(),
        }
    }

    /// Net penalty: strikes weigh [`STRIKE_WEIGHT`], any staleness on
    /// record weighs one, and every clear repays one.
    fn penalty(&self) -> u64 {
        (self.strikes * STRIKE_WEIGHT + u64::from(self.stale_marks > 0)).saturating_sub(self.clears)
    }

    /// The quarantine state machine, derived (never stored): zero net
    /// penalty is `Trusted`; a strike-driven penalty reaching
    /// `QUARANTINE_AT` is `Quarantined`; anything between is
    /// `Probation`. Because clears keep counting, a quarantined server
    /// that returns to sustained consistency decays back through
    /// `Probation` to `Trusted`.
    pub(crate) fn level(&self) -> TrustLevel {
        if self.penalty() == 0 {
            TrustLevel::Trusted
        } else if self.strikes * STRIKE_WEIGHT >= self.clears + QUARANTINE_AT {
            TrustLevel::Quarantined
        } else {
            TrustLevel::Probation
        }
    }
}

// ----------------------------------------------------------------------
// The conflict classifier
// ----------------------------------------------------------------------

/// One claimant's answer to the `count(σ(B))` cross-check probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// The claimant that answered.
    pub server: ServerId,
    /// Cardinality it reported for the contested area.
    pub count: u64,
    /// Content fingerprint of its answer items.
    pub fingerprint: u64,
    /// Whether the claimant registered recently relative to the
    /// contest (computed by the caller from its book — carried in the
    /// observation so classification stays a pure function).
    pub fresh: bool,
}

/// Classifies one verification round. The majority `(count,
/// fingerprint)` group — ties broken toward more claimants, then
/// smaller count, then smaller fingerprint, so the outcome is a pure
/// function of the observation multiset — is `Mirror`; dissenters are
/// `Suspect` if fresh, `Stale` otherwise.
pub fn classify(obs: &[Observation]) -> Vec<(ServerId, ConflictClass)> {
    if obs.is_empty() {
        return Vec::new();
    }
    let mut groups: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for o in obs {
        *groups.entry((o.count, o.fingerprint)).or_default() += 1;
    }
    let majority = groups
        .iter()
        .max_by(|a, b| {
            a.1.cmp(b.1)
                .then(b.0 .0.cmp(&a.0 .0)) // reversed: smaller count wins ties
                .then(b.0 .1.cmp(&a.0 .1)) // reversed: smaller fingerprint wins
        })
        .map(|(k, _)| *k)
        .expect("non-empty");
    obs.iter()
        .map(|o| {
            let class = if (o.count, o.fingerprint) == majority {
                ConflictClass::Mirror
            } else if o.fresh {
                ConflictClass::Suspect
            } else {
                ConflictClass::Stale
            };
            (o.server.clone(), class)
        })
        .collect()
}

/// FNV-1a content fingerprint — the "σ(B) fingerprint" the probes
/// compare. Stable, dependency-free, and cheap enough to run over
/// every probe answer.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ----------------------------------------------------------------------
// The book
// ----------------------------------------------------------------------

/// A server re-registering within this window of the latest claim is
/// "fresh" — its disagreement reads as hijack, not staleness (µs).
pub(crate) const FRESH_WINDOW_US: u64 = 60_000_000;

/// The per-catalog trust book: provenance records by server plus the
/// claim index that detects same-area multi-origin sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrustBook {
    enabled: bool,
    servers: BTreeMap<ServerId, TrustRecord>,
    /// Area key (`encode_area`) → base-level claimants, kept sorted.
    claims: BTreeMap<String, Vec<ServerId>>,
}

impl TrustBook {
    /// An empty, disabled book.
    pub fn new() -> Self {
        TrustBook::default()
    }

    /// Whether the defense is armed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Arms (or disarms) the defense. Disarmed books keep their
    /// records but exclude nothing.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when no server has a record — the cheap gate legacy worlds
    /// take on every binding.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Observes one base-level registration: merges the commutative
    /// aggregates and indexes the claim. Returns the full (sorted)
    /// claimant set for the area — length ≥ 2 means a multi-origin
    /// conflict worth verifying.
    pub fn observe(&mut self, server: &ServerId, registrar: u64, area_key: &str, at: u64) -> usize {
        let rec = self
            .servers
            .entry(server.clone())
            .or_insert_with(|| TrustRecord::new(server.clone()));
        rec.registrar = rec.registrar.min(registrar);
        rec.first_seen = rec.first_seen.min(at);
        rec.last_seen = rec.last_seen.max(at);
        rec.registrations += 1;
        if let Err(i) = rec.areas.binary_search_by(|a| a.as_str().cmp(area_key)) {
            rec.areas.insert(i, area_key.to_owned());
        }
        let claimants = self.claims.entry(area_key.to_owned()).or_default();
        if let Err(i) = claimants.binary_search(server) {
            claimants.insert(i, server.clone());
        }
        claimants.len()
    }

    /// The sorted claimant set for an area key.
    pub fn claimants(&self, area_key: &str) -> &[ServerId] {
        self.claims.get(area_key).map_or(&[], Vec::as_slice)
    }

    /// The provenance record for a server, if any event ever touched it.
    pub fn record(&self, server: &ServerId) -> Option<&TrustRecord> {
        self.servers.get(server)
    }

    /// All records, in server order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &TrustRecord> {
        self.servers.values()
    }

    /// The server's current level (`Trusted` when unrecorded).
    pub fn level_of(&self, server: &ServerId) -> TrustLevel {
        self.servers
            .get(server)
            .map_or(TrustLevel::Trusted, TrustRecord::level)
    }

    /// Whether binding/routing should shun this server *now*: armed
    /// and quarantined.
    pub(crate) fn excluded(&self, server: &ServerId) -> bool {
        self.enabled && self.level_of(server) == TrustLevel::Quarantined
    }

    /// Every currently quarantined server, in id order.
    pub fn quarantined(&self) -> Vec<ServerId> {
        self.servers
            .values()
            .filter(|r| r.level() == TrustLevel::Quarantined)
            .map(|r| r.server.clone())
            .collect()
    }

    /// Whether `server` looks freshly (re-)registered relative to
    /// `now` — the staleness signal [`classify`] consumes.
    pub fn is_fresh(&self, server: &ServerId, now: u64) -> bool {
        self.servers
            .get(server)
            .is_some_and(|r| r.last_seen + FRESH_WINDOW_US >= now)
    }

    /// Applies one round of verdicts. Returns the servers whose level
    /// *changed*, with old and new level — the transitions a durable
    /// peer journals.
    pub fn apply_round(
        &mut self,
        verdicts: &[(ServerId, ConflictClass)],
        at: u64,
    ) -> Vec<(ServerId, TrustLevel, TrustLevel)> {
        let mut transitions = Vec::new();
        for (server, class) in verdicts {
            let rec = self
                .servers
                .entry(server.clone())
                .or_insert_with(|| TrustRecord::new(server.clone()));
            let before = rec.level();
            match class {
                ConflictClass::Mirror => rec.clears += 1,
                ConflictClass::Stale => rec.stale_marks += 1,
                ConflictClass::Suspect => {
                    rec.strikes += 1;
                    rec.last_strike_at = rec.last_strike_at.max(at);
                }
            }
            let after = rec.level();
            if before != after {
                transitions.push((server.clone(), before, after));
            }
        }
        transitions
    }

    /// Administrative quarantine (the `quarantine` policy action):
    /// lands strikes until the level reads `Quarantined`.
    pub fn force_quarantine(&mut self, server: &ServerId, at: u64) -> bool {
        let rec = self
            .servers
            .entry(server.clone())
            .or_insert_with(|| TrustRecord::new(server.clone()));
        let before = rec.level();
        while rec.level() != TrustLevel::Quarantined {
            rec.strikes += 1;
            rec.last_strike_at = rec.last_strike_at.max(at);
        }
        before != TrustLevel::Quarantined
    }

    /// Installs a record verbatim (WAL replay): merges the commutative
    /// aggregates with whatever is already on book and re-indexes the
    /// record's claims, so recovery cannot launder a quarantine away.
    pub(crate) fn install(&mut self, record: TrustRecord) {
        for area in &record.areas {
            let claimants = self.claims.entry(area.clone()).or_default();
            if let Err(i) = claimants.binary_search(&record.server) {
                claimants.insert(i, record.server.clone());
            }
        }
        match self.servers.entry(record.server.clone()) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(record);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let rec = o.get_mut();
                rec.registrar = rec.registrar.min(record.registrar);
                rec.first_seen = rec.first_seen.min(record.first_seen);
                rec.last_seen = rec.last_seen.max(record.last_seen);
                rec.registrations = rec.registrations.max(record.registrations);
                rec.strikes = rec.strikes.max(record.strikes);
                rec.clears = rec.clears.max(record.clears);
                rec.stale_marks = rec.stale_marks.max(record.stale_marks);
                rec.last_strike_at = rec.last_strike_at.max(record.last_strike_at);
                for area in record.areas {
                    if let Err(i) = rec.areas.binary_search(&area) {
                        rec.areas.insert(i, area);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(s: &str) -> ServerId {
        ServerId::new(s)
    }

    fn obs(server: &str, count: u64, fp: u64, fresh: bool) -> Observation {
        Observation {
            server: sid(server),
            count,
            fingerprint: fp,
            fresh,
        }
    }

    #[test]
    fn level_names_roundtrip() {
        for l in [
            TrustLevel::Trusted,
            TrustLevel::Probation,
            TrustLevel::Quarantined,
        ] {
            assert_eq!(TrustLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TrustLevel::parse("bogus"), None);
        assert!(TrustLevel::Quarantined < TrustLevel::Probation);
        assert!(TrustLevel::Probation < TrustLevel::Trusted);
    }

    #[test]
    fn classifier_majority_is_mirror_dissent_splits_on_freshness() {
        let verdicts = classify(&[
            obs("origin", 10, 0xAA, true),
            obs("mirror", 10, 0xAA, true),
            obs("hijack", 3, 0xBB, true),
            obs("sleepy", 7, 0xCC, false),
        ]);
        let of = |s: &str| verdicts.iter().find(|(id, _)| id == &sid(s)).unwrap().1;
        assert_eq!(of("origin"), ConflictClass::Mirror);
        assert_eq!(of("mirror"), ConflictClass::Mirror);
        assert_eq!(of("hijack"), ConflictClass::Suspect);
        assert_eq!(of("sleepy"), ConflictClass::Stale);
    }

    #[test]
    fn classifier_tie_breaks_deterministically() {
        // 1-vs-1 disagreement: the smaller (count, fingerprint) group
        // is the designated majority — arbitrary but stable, and the
        // workloads guarantee ≥ 2 honest claimants so real conflicts
        // never ride this edge.
        let a = classify(&[obs("x", 5, 1, true), obs("y", 9, 2, true)]);
        let b = classify(&[obs("y", 9, 2, true), obs("x", 5, 1, true)]);
        let of = |vs: &[(ServerId, ConflictClass)], s: &str| {
            vs.iter().find(|(id, _)| id == &sid(s)).unwrap().1
        };
        assert_eq!(of(&a, "x"), of(&b, "x"));
        assert_eq!(of(&a, "y"), of(&b, "y"));
        assert_eq!(of(&a, "x"), ConflictClass::Mirror);
        assert_eq!(of(&a, "y"), ConflictClass::Suspect);
    }

    #[test]
    fn two_strikes_quarantine_and_clears_decay_back() {
        let mut book = TrustBook::new();
        book.set_enabled(true);
        let h = sid("hijack");
        book.observe(&h, 9, "+a", 1_000);
        assert_eq!(book.level_of(&h), TrustLevel::Trusted);

        let t = book.apply_round(&[(h.clone(), ConflictClass::Suspect)], 2_000);
        assert_eq!(
            t,
            vec![(h.clone(), TrustLevel::Trusted, TrustLevel::Probation)]
        );
        let t = book.apply_round(&[(h.clone(), ConflictClass::Suspect)], 3_000);
        assert_eq!(
            t,
            vec![(h.clone(), TrustLevel::Probation, TrustLevel::Quarantined)]
        );
        assert!(book.excluded(&h));
        assert_eq!(book.quarantined(), vec![h.clone()]);

        // Sustained consistency: clears walk it back down to Trusted.
        book.apply_round(&[(h.clone(), ConflictClass::Mirror)], 4_000);
        assert_eq!(book.level_of(&h), TrustLevel::Probation);
        book.apply_round(&[(h.clone(), ConflictClass::Mirror)], 5_000);
        book.apply_round(&[(h.clone(), ConflictClass::Mirror)], 6_000);
        assert_eq!(book.level_of(&h), TrustLevel::Probation);
        book.apply_round(&[(h.clone(), ConflictClass::Mirror)], 7_000);
        assert_eq!(book.level_of(&h), TrustLevel::Trusted);
        assert!(!book.excluded(&h));
        book.apply_round(&[(h.clone(), ConflictClass::Mirror)], 8_000);
        assert_eq!(book.level_of(&h), TrustLevel::Trusted);
    }

    #[test]
    fn stale_marks_reach_probation_never_quarantine() {
        let mut book = TrustBook::new();
        book.set_enabled(true);
        let s = sid("sleepy");
        for at in 0..10 {
            book.apply_round(&[(s.clone(), ConflictClass::Stale)], at);
        }
        assert_eq!(book.level_of(&s), TrustLevel::Probation);
        assert!(!book.excluded(&s));
    }

    #[test]
    fn disabled_book_excludes_nothing() {
        let mut book = TrustBook::new();
        let h = sid("hijack");
        book.force_quarantine(&h, 1);
        assert_eq!(book.level_of(&h), TrustLevel::Quarantined);
        assert!(!book.excluded(&h), "disarmed books never exclude");
        book.set_enabled(true);
        assert!(book.excluded(&h));
    }

    #[test]
    fn observe_indexes_claims_and_reports_conflicts() {
        let mut book = TrustBook::new();
        assert_eq!(book.observe(&sid("origin"), 2, "+a", 10), 1);
        assert_eq!(book.observe(&sid("origin"), 2, "+a", 20), 1);
        assert_eq!(book.observe(&sid("mirror"), 3, "+a", 30), 2);
        assert_eq!(book.observe(&sid("hijack"), 9, "+a", 40), 3);
        assert_eq!(book.claimants("+a").len(), 3);
        assert_eq!(book.claimants("+other"), &[] as &[ServerId]);
        let rec = book.record(&sid("origin")).unwrap();
        assert_eq!(rec.registrations, 2);
        assert_eq!(rec.first_seen, 10);
        assert_eq!(rec.last_seen, 20);
        assert_eq!(rec.registrar, 2);
        assert_eq!(rec.areas, vec!["+a".to_owned()]);
    }

    #[test]
    fn freshness_window() {
        let mut book = TrustBook::new();
        let s = sid("s");
        book.observe(&s, 1, "+a", 1_000_000);
        assert!(book.is_fresh(&s, 1_000_000 + FRESH_WINDOW_US));
        assert!(!book.is_fresh(&s, 1_000_001 + FRESH_WINDOW_US));
        assert!(!book.is_fresh(&sid("unknown"), 0));
    }

    #[test]
    fn install_merges_and_survives_enable_cycle() {
        let mut book = TrustBook::new();
        let h = sid("hijack");
        book.observe(&h, 9, "+a", 100);
        book.apply_round(&[(h.clone(), ConflictClass::Suspect)], 200);
        book.apply_round(&[(h.clone(), ConflictClass::Suspect)], 300);
        let rec = book.record(&h).unwrap().clone();

        // Replay into a fresh book (the recover path): same level,
        // claims re-indexed.
        let mut fresh = TrustBook::new();
        fresh.install(rec.clone());
        fresh.set_enabled(true);
        assert_eq!(fresh.level_of(&h), TrustLevel::Quarantined);
        assert_eq!(fresh.claimants("+a"), std::slice::from_ref(&h));

        // Installing the same record again is idempotent.
        fresh.install(rec);
        assert_eq!(fresh.record(&h).unwrap().strikes, 2);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
    }

    mod properties {
        use super::*;
        use mqp_net::splitmix64;
        use proptest::prelude::*;

        /// One trust-relevant event: a registration observation or a
        /// full verdict round.
        #[derive(Debug, Clone)]
        enum Ev {
            Obs {
                server: usize,
                registrar: u64,
                area: usize,
                at: u64,
            },
            Round {
                verdicts: Vec<(usize, u8)>,
                at: u64,
            },
        }

        const SERVERS: [&str; 4] = ["origin", "mirror", "hijack", "flapper"];
        const AREAS: [&str; 3] = ["+a", "+b", "+c"];

        fn arb_ev() -> impl Strategy<Value = Ev> {
            prop_oneof![
                (
                    0usize..SERVERS.len(),
                    0u64..16,
                    0usize..AREAS.len(),
                    0u64..1_000_000
                )
                    .prop_map(|(server, registrar, area, at)| Ev::Obs {
                        server,
                        registrar,
                        area,
                        at
                    }),
                (
                    proptest::collection::vec((0usize..SERVERS.len(), 0u8..3), 1..4),
                    0u64..1_000_000
                )
                    .prop_map(|(verdicts, at)| Ev::Round { verdicts, at }),
            ]
        }

        fn apply(events: &[Ev]) -> TrustBook {
            let mut book = TrustBook::new();
            book.set_enabled(true);
            for ev in events {
                match ev {
                    Ev::Obs {
                        server,
                        registrar,
                        area,
                        at,
                    } => {
                        book.observe(
                            &ServerId::new(SERVERS[*server]),
                            *registrar,
                            AREAS[*area],
                            *at,
                        );
                    }
                    Ev::Round { verdicts, at } => {
                        let vs: Vec<_> = verdicts
                            .iter()
                            .map(|(s, c)| {
                                let class = match c {
                                    0 => ConflictClass::Mirror,
                                    1 => ConflictClass::Stale,
                                    _ => ConflictClass::Suspect,
                                };
                                (ServerId::new(SERVERS[*s]), class)
                            })
                            .collect();
                        book.apply_round(&vs, *at);
                    }
                }
            }
            book
        }

        proptest! {
            /// The tentpole invariant: any permutation of the same
            /// event multiset yields the same final trust states.
            #[test]
            fn trust_state_is_order_independent(
                events in proptest::collection::vec(arb_ev(), 0..24),
                seed in 0u64..1_000,
            ) {
                let baseline = apply(&events);
                // Seeded Fisher–Yates permutation of the same events.
                let mut shuffled = events.clone();
                for i in (1..shuffled.len()).rev() {
                    let j = (splitmix64(seed ^ (i as u64)) as usize) % (i + 1);
                    shuffled.swap(i, j);
                }
                let permuted = apply(&shuffled);
                prop_assert_eq!(baseline, permuted);
            }

            /// Classification is itself permutation-invariant over the
            /// observation multiset.
            #[test]
            fn classify_is_order_independent(
                mut obs in proptest::collection::vec(
                    (0usize..SERVERS.len(), 0u64..5, 0u64..5, any::<bool>()).prop_map(
                        |(s, count, fp, fresh)| Observation {
                            server: ServerId::new(SERVERS[s]),
                            count,
                            fingerprint: fp,
                            fresh,
                        }
                    ),
                    1..8
                ),
                seed in 0u64..1_000,
            ) {
                // Canonical multiset order: a server may legitimately
                // appear twice (two probes), so sort by class too.
                let canon = |mut vs: Vec<(ServerId, ConflictClass)>| {
                    vs.sort_by(|a, b| a.0.cmp(&b.0).then(format!("{:?}", a.1).cmp(&format!("{:?}", b.1))));
                    vs
                };
                let baseline = canon(classify(&obs));
                for i in (1..obs.len()).rev() {
                    let j = (splitmix64(seed ^ (i as u64)) as usize) % (i + 1);
                    obs.swap(i, j);
                }
                let permuted = canon(classify(&obs));
                prop_assert_eq!(baseline, permuted);
            }
        }
    }
}
