//! Server-side policy rules: the runtime target of the `.mqpp` DSL.
//!
//! A [`RuleSet`] is an *ordered* list of `when <conds> then <actions>`
//! rules compiled by `mqp-lang` (or built programmatically). The
//! processor consults it at each decision point by calling
//! [`RuleSet::decide`] with a [`RuleCtx`] describing the query at hand;
//! the result is a [`Decision`] that starts from the processor's base
//! [`Policy`] and layers on whatever the matching rules prescribe.
//!
//! Evaluation order is fixed and simple: rules are scanned first to
//! last; a rule matches when *all* of its conditions hold (AND); every
//! matching rule applies its actions in order, so a later rule's action
//! overrides an earlier rule's for the same field. An empty `RuleSet`
//! yields the base policy unchanged — this is what keeps golden traces
//! byte-identical when no policy file has been loaded.
//!
//! A rule set has one text form, the `.mqpp` DSL: `mqp-lang` parses and
//! renders it, and the `policy` wire frame carries it.

use mqp_catalog::{Preference, ServerId, TrustLevel};
use mqp_namespace::InterestArea;

use crate::policy::Policy;

/// A single rule condition. All conditions on a rule must hold for the
/// rule to fire.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Always true — used for unconditional base overrides.
    Always,
    /// The query's interest area (union of its unbound URN areas, as the
    /// plan arrived at this peer) is covered by this area.
    AreaWithin(InterestArea),
    /// The candidate reduction's estimated bytes exceed the threshold.
    BytesOver(u64),
    /// The candidate reduction's estimated bytes are below the threshold.
    BytesUnder(u64),
    /// The maximum staleness tag among the plan's Or alternatives
    /// exceeds the threshold (minutes).
    StalenessOver(u32),
    /// The processing peer's id matches a `*`-wildcard glob.
    RoleIs(String),
    /// The subject server's trust level is at or below the given level
    /// (DESIGN.md §14) — `trust-below probation` fires on `Probation`
    /// and `Quarantined`, never on `Trusted`.
    TrustBelow(TrustLevel),
}

/// A single rule action. Actions of matching rules apply in order;
/// later actions win on conflict.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleAction {
    /// Set the effective policy preference (§4.3 current-vs-fast).
    Prefer(Preference),
    /// Set the effective staleness cap (minutes).
    Within(u32),
    /// Set the effective deferment threshold (bytes).
    DeferOver(u64),
    /// Force candidate reductions to be deferred (never blocks a
    /// reduction that completes the plan).
    ForceDefer,
    /// Force candidate reductions to be evaluated.
    ForceEvaluate,
    /// Route this query via the named server when possible.
    RouteVia(ServerId),
    /// Override the preference used for Or-commitment only, leaving the
    /// binding/deferment preference untouched.
    Choose(Preference),
    /// Quarantine the subject server administratively (DESIGN.md §14).
    Quarantine,
    /// Demand a `count(σ(B))` verification round for the subject's
    /// conflicts before its answers are trusted.
    Verify,
}

/// One `when <conds> then <actions>` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Conditions, ANDed.
    pub conds: Vec<Cond>,
    /// Actions, applied in order.
    pub actions: Vec<RuleAction>,
}

/// An ordered set of rules. `Default` is the empty set, which leaves
/// every decision exactly at the base policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    /// Rules in evaluation order.
    pub rules: Vec<Rule>,
}

/// The facts a decision point knows about the query being processed.
#[derive(Debug, Clone, Default)]
pub struct RuleCtx {
    /// Union of the plan's unbound URN interest areas (as the plan
    /// arrived at this peer); `None` when it mentions no areas.
    pub area: Option<InterestArea>,
    /// Estimated bytes of the candidate reduction, when deciding
    /// reduce-vs-defer; `None` at other decision points.
    pub bytes: Option<f64>,
    /// Maximum staleness tag among the plan's Or alternatives.
    pub staleness: Option<u32>,
    /// The processing peer's id.
    pub role: String,
    /// Trust level of the subject server, at trust decision points
    /// (registration conflicts); `None` elsewhere.
    pub trust: Option<TrustLevel>,
}

impl RuleCtx {
    /// Copy of this ctx with the candidate-reduction byte estimate set.
    pub(crate) fn with_bytes(&self, bytes: f64) -> RuleCtx {
        RuleCtx {
            bytes: Some(bytes),
            ..self.clone()
        }
    }

    /// Copy of this ctx with the subject server's trust level set.
    pub fn with_trust(&self, trust: TrustLevel) -> RuleCtx {
        RuleCtx {
            trust: Some(trust),
            ..self.clone()
        }
    }
}

/// The outcome of evaluating a [`RuleSet`] against a [`RuleCtx`].
#[derive(Debug, Clone)]
pub struct Decision {
    /// The effective policy (base policy plus rule overrides).
    pub policy: Policy,
    /// Or-commitment preference override, if any rule set one.
    pub or_preference: Option<Preference>,
    /// `Some(true)` forces evaluation, `Some(false)` forces deferment
    /// (completion-preserving), `None` leaves it to `policy`.
    pub force: Option<bool>,
    /// Routing override, if any rule set one.
    pub route: Option<ServerId>,
    /// A rule demanded administrative quarantine of the subject.
    pub quarantine: bool,
    /// A rule demanded a verification round for the subject.
    pub verify: bool,
}

/// Matches `pat` against `text` where `*` in the pattern matches any
/// (possibly empty) run of characters. Deterministic greedy-with-
/// backtracking scan; no other metacharacters.
fn glob_match(pat: &str, text: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            mark = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

impl Cond {
    /// Whether this condition holds for the given ctx.
    fn matches(&self, ctx: &RuleCtx) -> bool {
        match self {
            Cond::Always => true,
            Cond::AreaWithin(rule_area) => ctx
                .area
                .as_ref()
                .map(|query_area| rule_area.covers(query_area))
                .unwrap_or(false),
            Cond::BytesOver(threshold) => ctx.bytes.map(|b| b > *threshold as f64).unwrap_or(false),
            Cond::BytesUnder(threshold) => {
                ctx.bytes.map(|b| b < *threshold as f64).unwrap_or(false)
            }
            Cond::StalenessOver(minutes) => ctx.staleness.map(|s| s > *minutes).unwrap_or(false),
            Cond::RoleIs(glob) => glob_match(glob, &ctx.role),
            Cond::TrustBelow(level) => ctx.trust.map(|t| t <= *level).unwrap_or(false),
        }
    }
}

impl Rule {
    /// Builds a rule.
    pub fn new(conds: Vec<Cond>, actions: Vec<RuleAction>) -> Rule {
        Rule { conds, actions }
    }

    /// All conditions hold (an empty condition list never fires; use
    /// [`Cond::Always`] for unconditional rules).
    fn matches(&self, ctx: &RuleCtx) -> bool {
        !self.conds.is_empty() && self.conds.iter().all(|c| c.matches(ctx))
    }
}

impl RuleSet {
    /// Builds a set from rules in evaluation order.
    pub fn new(rules: Vec<Rule>) -> RuleSet {
        RuleSet { rules }
    }

    /// True when no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates the set: every matching rule applies its actions in
    /// order on top of `base`. With no rules (or no matches) the
    /// decision is exactly `base` with no overrides.
    pub fn decide(&self, base: &Policy, ctx: &RuleCtx) -> Decision {
        let mut decision = Decision {
            policy: *base,
            or_preference: None,
            force: None,
            route: None,
            quarantine: false,
            verify: false,
        };
        for rule in &self.rules {
            if !rule.matches(ctx) {
                continue;
            }
            for action in &rule.actions {
                match action {
                    RuleAction::Prefer(p) => decision.policy.preference = *p,
                    RuleAction::Within(m) => decision.policy.max_staleness = Some(*m),
                    RuleAction::DeferOver(b) => decision.policy.defer_bytes = *b as f64,
                    RuleAction::ForceDefer => decision.force = Some(false),
                    RuleAction::ForceEvaluate => decision.force = Some(true),
                    RuleAction::RouteVia(s) => decision.route = Some(s.clone()),
                    RuleAction::Choose(p) => decision.or_preference = Some(*p),
                    RuleAction::Quarantine => decision.quarantine = true,
                    RuleAction::Verify => decision.verify = true,
                }
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(loc: &str, cat: &str) -> InterestArea {
        InterestArea::of(mqp_namespace::Cell::parse([loc, cat]))
    }

    fn ctx() -> RuleCtx {
        RuleCtx {
            area: Some(area("USA/OR/Portland", "Merchandise/Music/CDs")),
            bytes: Some(2048.0),
            staleness: Some(45),
            role: "seller-3".to_string(),
            trust: None,
        }
    }

    #[test]
    fn empty_ruleset_is_the_base_policy() {
        let base = Policy::current()
            .with_max_staleness(15)
            .with_defer_bytes(99.0);
        let d = RuleSet::default().decide(&base, &ctx());
        assert_eq!(d.policy.preference, base.preference);
        assert_eq!(d.policy.max_staleness, base.max_staleness);
        assert_eq!(d.policy.defer_bytes, base.defer_bytes);
        assert!(d.or_preference.is_none());
        assert!(d.force.is_none());
        assert!(d.route.is_none());
    }

    #[test]
    fn later_rules_override_earlier_ones() {
        let rs = RuleSet::new(vec![
            Rule::new(
                vec![Cond::Always],
                vec![RuleAction::Prefer(Preference::Fast)],
            ),
            Rule::new(
                vec![Cond::RoleIs("seller-*".to_string())],
                vec![
                    RuleAction::Prefer(Preference::Current),
                    RuleAction::Within(10),
                ],
            ),
        ]);
        let d = rs.decide(&Policy::current(), &ctx());
        assert_eq!(d.policy.preference, Preference::Current);
        assert_eq!(d.policy.max_staleness, Some(10));
    }

    #[test]
    fn conditions_are_anded() {
        let rs = RuleSet::new(vec![Rule::new(
            vec![Cond::RoleIs("seller-*".to_string()), Cond::BytesOver(4096)],
            vec![RuleAction::ForceDefer],
        )]);
        assert!(rs.decide(&Policy::current(), &ctx()).force.is_none());
        let d = rs.decide(&Policy::current(), &ctx().with_bytes(8192.0));
        assert_eq!(d.force, Some(false));
    }

    #[test]
    fn area_condition_uses_cover_not_equality() {
        let rs = RuleSet::new(vec![Rule::new(
            vec![Cond::AreaWithin(area("USA/OR", "*"))],
            vec![RuleAction::Choose(Preference::Fast)],
        )]);
        let d = rs.decide(&Policy::current(), &ctx());
        assert_eq!(d.or_preference, Some(Preference::Fast));
        let mut elsewhere = ctx();
        elsewhere.area = Some(area("USA/WA/Seattle", "Merchandise"));
        assert!(rs
            .decide(&Policy::current(), &elsewhere)
            .or_preference
            .is_none());
        elsewhere.area = None;
        assert!(rs
            .decide(&Policy::current(), &elsewhere)
            .or_preference
            .is_none());
    }

    #[test]
    fn glob_matching_is_star_only() {
        assert!(glob_match("seller-*", "seller-12"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*-pdx", "idx-pdx"));
        assert!(glob_match("a*b*c", "axxbyyc"));
        assert!(!glob_match("seller-*", "idx-pdx"));
        assert!(!glob_match("seller", "seller-1"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn trust_below_is_at_or_below_and_needs_a_subject() {
        let rs = RuleSet::new(vec![Rule::new(
            vec![Cond::TrustBelow(TrustLevel::Probation)],
            vec![RuleAction::Verify],
        )]);
        let base = Policy::current();
        // No trust subject in ctx: never fires.
        assert!(!rs.decide(&base, &ctx()).verify);
        // At or below probation fires; trusted does not.
        assert!(
            !rs.decide(&base, &ctx().with_trust(TrustLevel::Trusted))
                .verify
        );
        assert!(
            rs.decide(&base, &ctx().with_trust(TrustLevel::Probation))
                .verify
        );
        assert!(
            rs.decide(&base, &ctx().with_trust(TrustLevel::Quarantined))
                .verify
        );
    }

    #[test]
    fn quarantine_and_verify_actions_set_decision_flags() {
        let rs = RuleSet::new(vec![Rule::new(
            vec![Cond::TrustBelow(TrustLevel::Quarantined)],
            vec![RuleAction::Quarantine, RuleAction::Verify],
        )]);
        let d = rs.decide(
            &Policy::current(),
            &ctx().with_trust(TrustLevel::Quarantined),
        );
        assert!(d.quarantine);
        assert!(d.verify);
        let d = rs.decide(&Policy::current(), &ctx().with_trust(TrustLevel::Probation));
        assert!(!d.quarantine);
        assert!(!d.verify);
    }
}
