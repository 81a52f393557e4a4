//! Bindings: what a catalog says a resource name can be replaced with.
//!
//! A [`Binding`] is a set of [`BindingAlternative`]s — the paper's `Or`
//! (conjoint union, §4.2): each alternative alone suffices for the
//! query's interest area, but they differ in how many servers must be
//! visited (latency), and how stale the answer may be (currency, §4.3).

use mqp_algebra::plan::{OrAlt, Plan, UrlRef};
use mqp_namespace::InterestArea;

use crate::entry::{Level, ServerId};

/// One way to satisfy an interest area.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingAlternative {
    /// Servers to visit; the answer is the union of their holdings.
    /// Each carries the level the binding addresses it at — a base
    /// server supplies data, an index server continues resolution
    /// (§4.2 Example 2 routes to `index[…]@R`).
    pub servers: Vec<(ServerId, Level)>,
    /// Upper bound on answer staleness, in minutes (0 = current).
    pub staleness: u32,
    /// Human-readable derivation, e.g. the statement that licensed it.
    pub note: String,
}

impl BindingAlternative {
    /// Number of distinct servers this alternative visits — the latency
    /// proxy of §4.3 ("the need to visit two sites rather than one").
    pub(crate) fn fanout(&self) -> usize {
        self.servers.len()
    }
}

/// All known ways to satisfy an interest area.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The query area being bound.
    pub(crate) area: InterestArea,
    /// The alternatives; index 0 is the *default* binding (the plain
    /// union of overlapping base servers, always current).
    pub alternatives: Vec<BindingAlternative>,
}

/// Query-issuer preference between the §4.3 tradeoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Minimize staleness first, then fanout: the "current" choice.
    Current,
    /// Minimize fanout first (fewer sites ⇒ lower latency), accepting
    /// staleness: the "fast" choice.
    Fast,
}

/// The outcome of choosing an alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct BindChoice {
    /// Index into [`Binding::alternatives`].
    pub(crate) index: usize,
    /// The chosen alternative (cloned for convenience).
    pub alternative: BindingAlternative,
}

impl Binding {
    /// Chooses an alternative under the given preference.
    pub fn choose(&self, pref: Preference) -> Option<BindChoice> {
        let idx = match pref {
            Preference::Current => {
                self.alternatives
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, a)| (a.staleness, a.fanout()))?
                    .0
            }
            Preference::Fast => {
                self.alternatives
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, a)| (a.fanout(), a.staleness))?
                    .0
            }
        };
        Some(BindChoice {
            index: idx,
            alternative: self.alternatives[idx].clone(),
        })
    }

    /// Converts the binding into plan form: a single alternative becomes
    /// a union of `url` leaves; several become the `Or` of §4.2, each
    /// alternative tagged with its staleness bound.
    ///
    /// Every `url` leaf carries two annotations: `level` (how the
    /// server is being addressed — base data vs. index continuation)
    /// and `area` (the query's interest area, so the serving peer
    /// returns only items from overlapping collections).
    pub fn to_plan(&self) -> Option<Plan> {
        let alts: Vec<OrAlt> = self
            .alternatives
            .iter()
            .map(|a| OrAlt {
                plan: alternative_plan(a, &self.area),
                staleness: Some(a.staleness),
            })
            .collect();
        match alts.len() {
            0 => None,
            1 => Some(alts.into_iter().next().unwrap().plan),
            _ => Some(Plan::Or(alts)),
        }
    }
}

fn alternative_plan(a: &BindingAlternative, area: &InterestArea) -> Plan {
    let urls: Vec<Plan> = a
        .servers
        .iter()
        .map(|(s, level)| {
            let mut u = UrlRef::new(s.to_url());
            u.meta.set("level", level.name());
            u.meta.set("area", mqp_namespace::urn::encode_area(area));
            Plan::Url(u)
        })
        .collect();
    if urls.len() == 1 {
        urls.into_iter().next().unwrap()
    } else {
        Plan::union(urls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alt(servers: &[&str], staleness: u32) -> BindingAlternative {
        BindingAlternative {
            servers: servers
                .iter()
                .map(|s| (ServerId::new(*s), Level::Base))
                .collect(),
            staleness,
            note: String::new(),
        }
    }

    fn example3_binding() -> Binding {
        // §4.3: base[Portland, CDs]@R{30} | (R ∪ S){0}
        Binding {
            area: InterestArea::parse(&[&["Portland", "CDs"]]),
            alternatives: vec![alt(&["R", "S"], 0), alt(&["R"], 30)],
        }
    }

    #[test]
    fn current_prefers_fresh_fast_prefers_few() {
        let b = example3_binding();
        let current = b.choose(Preference::Current).unwrap();
        assert_eq!(current.alternative.servers.len(), 2);
        assert_eq!(current.alternative.staleness, 0);
        let fast = b.choose(Preference::Fast).unwrap();
        assert_eq!(fast.alternative.servers.len(), 1);
        assert_eq!(fast.alternative.staleness, 30);
    }

    #[test]
    fn to_plan_emits_or_with_staleness() {
        let plan = example3_binding().to_plan().unwrap();
        match &plan {
            Plan::Or(alts) => {
                assert_eq!(alts.len(), 2);
                assert_eq!(alts[0].staleness, Some(0));
                assert_eq!(alts[1].staleness, Some(30));
                assert!(matches!(alts[0].plan, Plan::Union(_)));
                assert!(matches!(alts[1].plan, Plan::Url(_)));
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn single_alternative_skips_or() {
        let b = Binding {
            area: InterestArea::parse(&[&["Portland", "CDs"]]),
            alternatives: vec![alt(&["R"], 0)],
        };
        assert!(matches!(b.to_plan(), Some(Plan::Url(_))));
    }

    #[test]
    fn empty_binding_has_no_plan() {
        let b = Binding {
            area: InterestArea::parse(&[&["Portland", "CDs"]]),
            alternatives: vec![],
        };
        assert!(b.alternatives.is_empty());
        assert!(b.to_plan().is_none());
        assert!(b.choose(Preference::Fast).is_none());
    }

    #[test]
    fn url_leaves_carry_level() {
        let b = Binding {
            area: InterestArea::parse(&[&["Portland", "CDs"]]),
            alternatives: vec![BindingAlternative {
                servers: vec![(ServerId::new("R"), Level::Index)],
                staleness: 0,
                note: String::new(),
            }],
        };
        match b.to_plan().unwrap() {
            Plan::Url(u) => {
                assert_eq!(u.href, "mqp://R/");
                assert_eq!(u.meta.get("level"), Some("index"));
            }
            other => panic!("expected Url, got {other:?}"),
        }
    }
}
