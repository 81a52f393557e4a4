//! Provenance: the visit history an MQP carries (paper §5.1,
//! "Maintaining provenance"), plus spoofing detection and verification
//! queries.

use std::fmt;

use mqp_algebra::plan::Plan;
use mqp_algebra::predicate::AggFunc;
use mqp_catalog::ServerId;
use mqp_xml::Element;

/// What a server did to the MQP while holding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Resolved one or more URNs to URLs/alternatives.
    Bound,
    /// Substituted local data for a URL.
    Resolved,
    /// Reduced one or more sub-plans to constant data.
    Evaluated,
    /// Rewrote the plan without evaluating (pushdown, absorption, …).
    Rewrote,
    /// Merely forwarded the plan.
    Forwarded,
    /// Re-sent the plan after a timeout, possibly to a different
    /// server (the §5.1-visible detour a crashed next-hop forces —
    /// DESIGN.md invariant 7).
    Retried,
    /// Pruned Or-alternatives backed by a quarantined binding
    /// (DESIGN.md §14). Like `Retried`, provenance-visible but never
    /// accounts for a source: a defense-pruned run stays audit-clean,
    /// and a spoofed source cannot hide behind a quarantine.
    Distrusted,
}

impl Action {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Action::Bound => "bound",
            Action::Resolved => "resolved",
            Action::Evaluated => "evaluated",
            Action::Rewrote => "rewrote",
            Action::Forwarded => "forwarded",
            Action::Retried => "retried",
            Action::Distrusted => "distrusted",
        }
    }

    /// Parses the wire name.
    fn parse(s: &str) -> Option<Action> {
        Some(match s {
            "bound" => Action::Bound,
            "resolved" => Action::Resolved,
            "evaluated" => Action::Evaluated,
            "rewrote" => Action::Rewrote,
            "forwarded" => Action::Forwarded,
            "retried" => Action::Retried,
            "distrusted" => Action::Distrusted,
            _ => return None,
        })
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One provenance entry: who did what, when (simulated µs), and how
/// current their information was (§5.1: "when it did it, and how current
/// the information was").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitRecord {
    /// The server that acted.
    pub server: ServerId,
    /// What it did.
    pub action: Action,
    /// Free-form detail (which URN, which sub-plan, …).
    pub detail: String,
    /// Simulated timestamp (µs).
    pub at: u64,
    /// Staleness bound of the information used, in minutes.
    pub staleness: u32,
}

impl VisitRecord {
    /// Serializes to the `<visit/>` element used inside MQP envelopes.
    pub(crate) fn to_xml(&self) -> Element {
        Element::new("visit")
            .attr("server", self.server.as_str())
            .attr("action", self.action.name())
            .attr("detail", &self.detail)
            .attr("at", self.at.to_string())
            .attr("staleness", self.staleness.to_string())
    }

    /// Parses a `<visit/>` element.
    pub(crate) fn from_xml(e: &Element) -> Option<VisitRecord> {
        Some(VisitRecord {
            server: ServerId::new(e.get_attr("server")?),
            action: Action::parse(e.get_attr("action")?)?,
            detail: e.get_attr("detail").unwrap_or_default().to_owned(),
            at: e.get_attr("at")?.parse().ok()?,
            staleness: e.get_attr("staleness").unwrap_or("0").parse().ok()?,
        })
    }
}

/// Spoofing analysis (§5.1): sources present in the *original* plan that
/// no visited server claims to have bound or resolved. "If provenance is
/// recorded, the resulting MQP would show that P never visited T (or any
/// other site for B)."
///
/// `Or` nodes are conjoint unions (§4.2): each alternative alone
/// suffices, so the `Or` is accounted for as soon as *one* alternative
/// has every source accounted — visiting the others would be redundant,
/// not evasive. (This is what keeps retry detours audit-clean when a
/// crashed alternative is pruned, DESIGN.md invariant 7.) Only when no
/// alternative is fully accounted are all of them reported.
///
/// Returns the offending source names (URN strings and URL hrefs).
pub fn unaccounted_sources(original: &Plan, visits: &[VisitRecord]) -> Vec<String> {
    let mut missing = Vec::new();
    collect_unaccounted(original, visits, &mut missing);
    missing.sort();
    missing.dedup();
    missing
}

fn source_accounted(src: &str, visits: &[VisitRecord]) -> bool {
    visits.iter().any(|v| {
        matches!(
            v.action,
            Action::Bound | Action::Resolved | Action::Evaluated
        ) && v.detail.contains(src)
    })
}

fn collect_unaccounted(plan: &Plan, visits: &[VisitRecord], out: &mut Vec<String>) {
    match plan {
        Plan::Urn(u) => {
            let s = u.urn.to_string();
            if !source_accounted(&s, visits) {
                out.push(s);
            }
        }
        Plan::Url(u) => {
            if !source_accounted(&u.href, visits) {
                out.push(u.href.clone());
            }
        }
        Plan::Or(alts) => {
            let satisfied = alts.iter().any(|a| {
                let mut m = Vec::new();
                collect_unaccounted(&a.plan, visits, &mut m);
                m.is_empty()
            });
            if !satisfied {
                for a in alts {
                    collect_unaccounted(&a.plan, visits, out);
                }
            }
        }
        _ => {
            for c in plan.children() {
                collect_unaccounted(c, visits, out);
            }
        }
    }
}

/// Builds the verification query of §5.1: `count(sub)` displayed back to
/// `verifier` — sent to the server suspected of having been bypassed, to
/// check whether it really holds no qualifying items.
pub fn verification_query(sub: Plan, verifier: impl Into<String>) -> Plan {
    Plan::display(verifier, Plan::aggregate(AggFunc::Count, None, sub))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(server: &str, action: Action, detail: &str) -> VisitRecord {
        VisitRecord {
            server: ServerId::new(server),
            action,
            detail: detail.to_owned(),
            at: 42,
            staleness: 0,
        }
    }

    #[test]
    fn visit_xml_roundtrip() {
        let v = VisitRecord {
            server: ServerId::new("peer-3"),
            action: Action::Evaluated,
            detail: "reduced select over urn:ForSale:Portland-CDs".to_owned(),
            at: 123456,
            staleness: 30,
        };
        assert_eq!(VisitRecord::from_xml(&v.to_xml()), Some(v));
    }

    #[test]
    fn action_names_roundtrip() {
        for a in [
            Action::Bound,
            Action::Resolved,
            Action::Evaluated,
            Action::Rewrote,
            Action::Forwarded,
            Action::Retried,
            Action::Distrusted,
        ] {
            assert_eq!(Action::parse(a.name()), Some(a));
        }
        assert_eq!(Action::parse("teleported"), None);
    }

    #[test]
    fn spoofed_source_detected() {
        // Original plan unions A (at S) and B (at T). S binds A but
        // spoofs B to empty without visiting T.
        let original = Plan::union([Plan::urn("urn:Data:A"), Plan::urn("urn:Data:B")]);
        let visits = vec![
            visit("S", Action::Bound, "urn:Data:A -> mqp://S/"),
            visit("S", Action::Evaluated, "reduced urn:Data:A"),
            visit("S", Action::Forwarded, "to client"),
        ];
        let missing = unaccounted_sources(&original, &visits);
        assert_eq!(missing, vec!["urn:Data:B".to_owned()]);
    }

    #[test]
    fn honest_processing_has_no_unaccounted_sources() {
        let original = Plan::union([Plan::urn("urn:Data:A"), Plan::urn("urn:Data:B")]);
        let visits = vec![
            visit("S", Action::Bound, "urn:Data:A -> mqp://S/"),
            visit("S", Action::Evaluated, "reduced urn:Data:A"),
            visit("T", Action::Bound, "urn:Data:B -> mqp://T/"),
            visit("T", Action::Evaluated, "reduced urn:Data:B"),
        ];
        assert!(unaccounted_sources(&original, &visits).is_empty());
    }

    #[test]
    fn retry_detours_stay_audit_clean() {
        // Invariant 7 (DESIGN.md §5): a timeout detour adds a Retried
        // record, which is provenance-visible but never accounts for a
        // source — so an honest retried run stays clean, and a spoofed
        // source cannot hide behind a retry.
        let original = Plan::urn("urn:Data:A");
        let honest = vec![
            visit("C", Action::Retried, "timeout waiting on S; rerouting to T"),
            visit("T", Action::Bound, "urn:Data:A -> mqp://T/"),
            visit("T", Action::Evaluated, "reduced urn:Data:A"),
        ];
        assert!(unaccounted_sources(&original, &honest).is_empty());
        let evasive = vec![visit(
            "C",
            Action::Retried,
            "timeout; pretending urn:Data:A handled",
        )];
        assert_eq!(
            unaccounted_sources(&original, &evasive),
            vec!["urn:Data:A".to_owned()]
        );
    }

    #[test]
    fn distrust_prunes_stay_audit_clean() {
        // DESIGN.md §14: pruning a quarantined alternative records
        // Distrusted — visible in the audit trail, but it accounts for
        // nothing. The surviving alternative must still be evaluated
        // honestly, and a spoofed source cannot hide behind the prune.
        let original = Plan::or([Plan::url("mqp://honest/"), Plan::url("mqp://hijack/")]);
        let defended = vec![
            visit(
                "M",
                Action::Distrusted,
                "pruned 1 alternative(s) backed by hijack",
            ),
            visit("honest", Action::Resolved, "mqp://honest/ -> local data"),
            visit("honest", Action::Evaluated, "reduced mqp://honest/"),
        ];
        assert!(unaccounted_sources(&original, &defended).is_empty());
        let evasive = vec![visit(
            "M",
            Action::Distrusted,
            "pruned mqp://honest/ and mqp://hijack/ both",
        )];
        assert_eq!(
            unaccounted_sources(&original, &evasive),
            vec!["mqp://hijack/".to_owned(), "mqp://honest/".to_owned()]
        );
    }

    #[test]
    fn url_sources_checked_too() {
        let original = Plan::union([Plan::url("mqp://T/"), Plan::data([])]);
        let visits = vec![visit("S", Action::Evaluated, "reduced data leaf")];
        assert_eq!(
            unaccounted_sources(&original, &visits),
            vec!["mqp://T/".to_owned()]
        );
    }

    #[test]
    fn or_alternatives_need_only_one_accounted_branch() {
        // §4.2: A | B — evaluating either alternative is honest.
        let original = Plan::or([Plan::url("mqp://R/"), Plan::url("mqp://S/")]);
        let via_s = vec![
            visit("S", Action::Resolved, "mqp://S/ -> local data"),
            visit("S", Action::Evaluated, "reduced mqp://S/"),
        ];
        assert!(unaccounted_sources(&original, &via_s).is_empty());
        // Neither alternative touched: both sources reported.
        let nothing = vec![visit("S", Action::Forwarded, "to client")];
        assert_eq!(
            unaccounted_sources(&original, &nothing),
            vec!["mqp://R/".to_owned(), "mqp://S/".to_owned()]
        );
    }

    #[test]
    fn verification_query_shape() {
        let q = verification_query(
            Plan::select("price < 10", Plan::urn("urn:Data:B")),
            "agency:9020",
        );
        assert_eq!(q.target(), Some("agency:9020"));
        match q {
            Plan::Display { input, .. } => {
                assert!(matches!(
                    *input,
                    Plan::Aggregate {
                        func: AggFunc::Count,
                        ..
                    }
                ));
            }
            _ => panic!("expected display"),
        }
    }
}
