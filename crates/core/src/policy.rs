//! The policy manager (Figure 2): decides which locally-evaluable
//! sub-plans to reduce, and which `Or` alternative to commit.

use mqp_algebra::plan::{OrAlt, Plan};
use mqp_catalog::Preference;
use mqp_engine::Estimate;

/// Per-server processing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Completeness/currency/latency preference for `Or` commitment
    /// (§4.3's "binary preference").
    pub preference: Preference,
    /// Deferment threshold (§5.1): decline to evaluate a sub-plan whose
    /// estimated result exceeds this many bytes ("S may decline to
    /// evaluate B at this point, because of the size of res(B)") —
    /// another server may later hold enough of the plan to shrink the
    /// result. Reductions that complete the plan are never deferred.
    pub defer_bytes: f64,
    /// Maximum staleness (minutes) the query issuer accepts; `Or`
    /// alternatives above the bound are never chosen.
    pub max_staleness: Option<u32>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            preference: Preference::Current,
            defer_bytes: 64.0 * 1024.0,
            max_staleness: None,
        }
    }
}

impl Policy {
    /// A policy preferring current answers (default).
    pub fn current() -> Self {
        Policy::default()
    }

    /// A policy preferring fast answers (fewest sites).
    pub fn fast() -> Self {
        Policy {
            preference: Preference::Fast,
            ..Policy::default()
        }
    }

    /// Caps acceptable staleness; returns `self` for chaining.
    pub fn with_max_staleness(mut self, minutes: u32) -> Self {
        self.max_staleness = Some(minutes);
        self
    }

    /// Sets the deferment threshold; returns `self` for chaining.
    pub fn with_defer_bytes(mut self, bytes: f64) -> Self {
        self.defer_bytes = bytes;
        self
    }

    /// Should this locally evaluable sub-plan be reduced now?
    ///
    /// * always, when reducing completes the whole plan (the result is
    ///   leaving the network anyway);
    /// * always, when the reduction shrinks the shipped plan (the
    ///   estimated result is no larger than what it replaces);
    /// * otherwise only below the [`Policy::defer_bytes`] threshold.
    pub(crate) fn should_evaluate(
        &self,
        sub: Estimate,
        replaced_bytes: usize,
        completes_plan: bool,
    ) -> bool {
        if completes_plan || sub.bytes <= replaced_bytes as f64 {
            return true;
        }
        sub.bytes <= self.defer_bytes
    }

    /// Picks the `Or` alternative to commit (index into `alts`).
    ///
    /// Alternatives over the staleness cap are excluded (unless all
    /// are). `Current` minimizes (staleness, fanout); `Fast` minimizes
    /// (fanout, staleness). Fanout is the number of remote leaves in the
    /// alternative — the latency proxy of §4.3.
    ///
    /// **Tie-break (guaranteed):** when two alternatives compare equal
    /// on the preference key, the one with the *lowest index* wins —
    /// the index is the final component of the comparison key, so the
    /// choice is a pure function of `(preference, max_staleness, alts)`
    /// and is identical across the sim, threaded, and TCP drivers. DSL
    /// `choose` actions rely on this stability.
    pub(crate) fn choose_or(&self, alts: &[OrAlt]) -> usize {
        let fanout = |p: &Plan| p.urls().len() + p.urns().len();
        let staleness = |a: &OrAlt| a.staleness.unwrap_or(0);
        let eligible: Vec<usize> = match self.max_staleness {
            Some(cap) => {
                let ok: Vec<usize> = (0..alts.len())
                    .filter(|&i| staleness(&alts[i]) <= cap)
                    .collect();
                if ok.is_empty() {
                    (0..alts.len()).collect()
                } else {
                    ok
                }
            }
            None => (0..alts.len()).collect(),
        };
        let key = |i: usize| {
            let a = &alts[i];
            match self.preference {
                Preference::Current => (staleness(a), fanout(&a.plan) as u32, i as u32),
                Preference::Fast => (fanout(&a.plan) as u32, staleness(a), i as u32),
            }
        };
        eligible.into_iter().min_by_key(|&i| key(i)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alts() -> Vec<OrAlt> {
        vec![
            // Current but two sites.
            OrAlt::stale(
                Plan::union([Plan::url("mqp://r/"), Plan::url("mqp://s/")]),
                0,
            ),
            // One site, 30 minutes stale.
            OrAlt::stale(Plan::url("mqp://r/"), 30),
        ]
    }

    #[test]
    fn current_picks_fresh() {
        assert_eq!(Policy::current().choose_or(&alts()), 0);
    }

    #[test]
    fn fast_picks_single_site() {
        assert_eq!(Policy::fast().choose_or(&alts()), 1);
    }

    #[test]
    fn staleness_cap_excludes() {
        // Fast would pick the stale single-site one, but a 10-minute cap
        // rules it out.
        let p = Policy::fast().with_max_staleness(10);
        assert_eq!(p.choose_or(&alts()), 0);
    }

    #[test]
    fn staleness_cap_relaxed_when_nothing_qualifies() {
        let all_stale = vec![
            OrAlt::stale(Plan::url("mqp://r/"), 60),
            OrAlt::stale(Plan::url("mqp://s/"), 45),
        ];
        let p = Policy::current().with_max_staleness(10);
        assert_eq!(p.choose_or(&all_stale), 1); // least stale of the lot
    }

    #[test]
    fn deferment_threshold() {
        let p = Policy::default(); // 64 KiB
        let small = Estimate {
            rows: 10.0,
            bytes: 300.0,
        };
        let huge = Estimate {
            rows: 1e6,
            bytes: 1.28e8,
        };
        assert!(p.should_evaluate(small, 100, false));
        assert!(!p.should_evaluate(huge, 100, false));
        // Completing the plan overrides deferment.
        assert!(p.should_evaluate(huge, 100, true));
        // A reduction that shrinks the plan always proceeds.
        assert!(p.should_evaluate(huge, 2_000_000_000, false));
    }

    #[test]
    fn tie_break_is_lowest_index_for_both_preferences() {
        // Three alternatives with identical staleness and fanout: the
        // key tuples are equal except for the index component, so the
        // first one must win under either preference.
        let tied = vec![
            OrAlt::stale(Plan::url("mqp://a/"), 5),
            OrAlt::stale(Plan::url("mqp://b/"), 5),
            OrAlt::stale(Plan::url("mqp://c/"), 5),
        ];
        assert_eq!(Policy::current().choose_or(&tied), 0);
        assert_eq!(Policy::fast().choose_or(&tied), 0);

        // Tie on the primary key only: Current breaks the staleness tie
        // on fanout, then index; Fast breaks the fanout tie on
        // staleness, then index.
        let partial = vec![
            OrAlt::stale(
                Plan::union([Plan::url("mqp://a/"), Plan::url("mqp://b/")]),
                5,
            ),
            OrAlt::stale(Plan::url("mqp://c/"), 5),
            OrAlt::stale(Plan::url("mqp://d/"), 5),
        ];
        // Same staleness everywhere; alternatives 1 and 2 tie on fanout
        // and staleness — index picks 1.
        assert_eq!(Policy::current().choose_or(&partial), 1);
        assert_eq!(Policy::fast().choose_or(&partial), 1);
    }

    #[test]
    fn choose_or_is_deterministic_across_orderings() {
        // Reversing the list must move the winner with it: the choice
        // depends only on the contents, never on iteration artifacts.
        let a = OrAlt::stale(Plan::url("mqp://one/"), 10);
        let b = OrAlt::stale(
            Plan::union([Plan::url("mqp://two/"), Plan::url("mqp://three/")]),
            0,
        );
        let fwd = vec![a.clone(), b.clone()];
        let rev = vec![b, a];
        let p = Policy::fast();
        assert_eq!(fwd[p.choose_or(&fwd)].plan, rev[p.choose_or(&rev)].plan);
        let p = Policy::current();
        assert_eq!(fwd[p.choose_or(&fwd)].plan, rev[p.choose_or(&rev)].plan);
    }

    #[test]
    fn unknown_staleness_treated_as_current() {
        let alts = vec![
            OrAlt::new(Plan::url("mqp://a/")),
            OrAlt::stale(Plan::url("mqp://b/"), 5),
        ];
        assert_eq!(Policy::current().choose_or(&alts), 0);
    }
}
