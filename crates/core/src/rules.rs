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
//! The set has its own line-oriented wire codec ([`RuleSet::to_wire`] /
//! [`RuleSet::from_wire`]) so it can travel in a `policy` frame without
//! the peer layer depending on the language front-end.

use std::fmt;

use mqp_catalog::{Preference, ServerId, TrustLevel};
use mqp_namespace::{urn, InterestArea};

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
    BytesOver(f64),
    /// The candidate reduction's estimated bytes are below the threshold.
    BytesUnder(f64),
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
    DeferOver(f64),
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
    pub fn matches(&self, ctx: &RuleCtx) -> bool {
        match self {
            Cond::Always => true,
            Cond::AreaWithin(rule_area) => ctx
                .area
                .as_ref()
                .map(|query_area| rule_area.covers(query_area))
                .unwrap_or(false),
            Cond::BytesOver(threshold) => ctx.bytes.map(|b| b > *threshold).unwrap_or(false),
            Cond::BytesUnder(threshold) => ctx.bytes.map(|b| b < *threshold).unwrap_or(false),
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
    pub fn matches(&self, ctx: &RuleCtx) -> bool {
        !self.conds.is_empty() && self.conds.iter().all(|c| c.matches(ctx))
    }
}

impl RuleSet {
    /// The empty set (identical to `Default`).
    pub fn empty() -> RuleSet {
        RuleSet::default()
    }

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
                    RuleAction::DeferOver(b) => decision.policy.defer_bytes = *b,
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

    /// Compact line codec for the `policy` wire frame: one rule per
    /// line, `<conds> => <actions>`, tokens space-separated.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            let conds: Vec<String> = rule.conds.iter().map(cond_token).collect();
            let acts: Vec<String> = rule.actions.iter().map(action_token).collect();
            out.push_str(&conds.join(" "));
            out.push_str(" => ");
            out.push_str(&acts.join(" "));
            out.push('\n');
        }
        out
    }

    /// Inverse of [`to_wire`](RuleSet::to_wire). A line splits at its
    /// first ` => `: no token holds whitespace, so a `=>` inside a role
    /// glob or a route target stays in its token.
    pub fn from_wire(text: &str) -> Result<RuleSet, String> {
        let mut rules = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (lhs, rhs) = line
                .split_once(" => ")
                .ok_or_else(|| format!("rule line missing ' => ': {line:?}"))?;
            let conds = lhs
                .split_whitespace()
                .map(parse_cond_token)
                .collect::<Result<Vec<_>, _>>()?;
            let actions = rhs
                .split_whitespace()
                .map(parse_action_token)
                .collect::<Result<Vec<_>, _>>()?;
            if conds.is_empty() {
                return Err(format!("rule line has no conditions: {line:?}"));
            }
            if actions.is_empty() {
                return Err(format!("rule line has no actions: {line:?}"));
            }
            rules.push(Rule { conds, actions });
        }
        Ok(RuleSet { rules })
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_wire())
    }
}

fn cond_token(c: &Cond) -> String {
    match c {
        Cond::Always => "always".to_string(),
        Cond::AreaWithin(a) => format!("area={}", urn::encode_area(a)),
        Cond::BytesOver(b) => format!("bytes>{b}"),
        Cond::BytesUnder(b) => format!("bytes<{b}"),
        Cond::StalenessOver(m) => format!("stale>{m}"),
        Cond::RoleIs(g) => format!("role={g}"),
        Cond::TrustBelow(l) => format!("trust<={}", l.name()),
    }
}

fn action_token(a: &RuleAction) -> String {
    match a {
        RuleAction::Prefer(p) => format!("prefer={}", pref_token(*p)),
        RuleAction::Within(m) => format!("within={m}"),
        RuleAction::DeferOver(b) => format!("defer_over={b}"),
        RuleAction::ForceDefer => "force=defer".to_string(),
        RuleAction::ForceEvaluate => "force=eval".to_string(),
        RuleAction::RouteVia(s) => format!("route={s}"),
        RuleAction::Choose(p) => format!("choose={}", pref_token(*p)),
        RuleAction::Quarantine => "quarantine".to_string(),
        RuleAction::Verify => "verify".to_string(),
    }
}

fn pref_token(p: Preference) -> &'static str {
    match p {
        Preference::Current => "current",
        Preference::Fast => "fast",
    }
}

fn parse_pref(s: &str) -> Result<Preference, String> {
    match s {
        "current" => Ok(Preference::Current),
        "fast" => Ok(Preference::Fast),
        other => Err(format!("unknown preference {other:?}")),
    }
}

fn parse_cond_token(tok: &str) -> Result<Cond, String> {
    if tok == "always" {
        return Ok(Cond::Always);
    }
    if let Some(rest) = tok.strip_prefix("area=") {
        let area = urn::decode_area(rest).map_err(|e| format!("bad area in rule: {e:?}"))?;
        return Ok(Cond::AreaWithin(area));
    }
    if let Some(rest) = tok.strip_prefix("bytes>") {
        return rest
            .parse::<f64>()
            .map(Cond::BytesOver)
            .map_err(|e| format!("bad bytes threshold {rest:?}: {e}"));
    }
    if let Some(rest) = tok.strip_prefix("bytes<") {
        return rest
            .parse::<f64>()
            .map(Cond::BytesUnder)
            .map_err(|e| format!("bad bytes threshold {rest:?}: {e}"));
    }
    if let Some(rest) = tok.strip_prefix("stale>") {
        return rest
            .parse::<u32>()
            .map(Cond::StalenessOver)
            .map_err(|e| format!("bad staleness threshold {rest:?}: {e}"));
    }
    if let Some(rest) = tok.strip_prefix("role=") {
        return Ok(Cond::RoleIs(rest.to_string()));
    }
    if let Some(rest) = tok.strip_prefix("trust<=") {
        return TrustLevel::parse(rest)
            .map(Cond::TrustBelow)
            .ok_or_else(|| format!("unknown trust level {rest:?}"));
    }
    Err(format!("unknown rule condition token {tok:?}"))
}

fn parse_action_token(tok: &str) -> Result<RuleAction, String> {
    if let Some(rest) = tok.strip_prefix("prefer=") {
        return parse_pref(rest).map(RuleAction::Prefer);
    }
    if let Some(rest) = tok.strip_prefix("within=") {
        return rest
            .parse::<u32>()
            .map(RuleAction::Within)
            .map_err(|e| format!("bad within minutes {rest:?}: {e}"));
    }
    if let Some(rest) = tok.strip_prefix("defer_over=") {
        return rest
            .parse::<f64>()
            .map(RuleAction::DeferOver)
            .map_err(|e| format!("bad defer_over bytes {rest:?}: {e}"));
    }
    if let Some(rest) = tok.strip_prefix("force=") {
        return match rest {
            "defer" => Ok(RuleAction::ForceDefer),
            "eval" => Ok(RuleAction::ForceEvaluate),
            other => Err(format!("unknown force mode {other:?}")),
        };
    }
    if let Some(rest) = tok.strip_prefix("route=") {
        if rest.is_empty() {
            return Err("empty route target".to_string());
        }
        return Ok(RuleAction::RouteVia(ServerId::new(rest)));
    }
    if let Some(rest) = tok.strip_prefix("choose=") {
        return parse_pref(rest).map(RuleAction::Choose);
    }
    if tok == "quarantine" {
        return Ok(RuleAction::Quarantine);
    }
    if tok == "verify" {
        return Ok(RuleAction::Verify);
    }
    Err(format!("unknown rule action token {tok:?}"))
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
        let d = RuleSet::empty().decide(&base, &ctx());
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
            vec![
                Cond::RoleIs("seller-*".to_string()),
                Cond::BytesOver(4096.0),
            ],
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
    fn wire_codec_round_trips_every_token() {
        let rs = RuleSet::new(vec![
            Rule::new(
                vec![
                    Cond::Always,
                    Cond::AreaWithin(area("USA/OR/Portland", "Merchandise/Music")),
                    Cond::BytesOver(4096.0),
                    Cond::BytesUnder(128.5),
                    Cond::StalenessOver(30),
                    Cond::RoleIs("seller-*".to_string()),
                    Cond::TrustBelow(TrustLevel::Probation),
                ],
                vec![
                    RuleAction::Prefer(Preference::Fast),
                    RuleAction::Within(30),
                    RuleAction::DeferOver(4096.0),
                    RuleAction::ForceDefer,
                    RuleAction::ForceEvaluate,
                    RuleAction::RouteVia(ServerId::new("idx-pdx")),
                    RuleAction::Choose(Preference::Current),
                    RuleAction::Quarantine,
                    RuleAction::Verify,
                ],
            ),
            Rule::new(
                vec![Cond::Always],
                vec![RuleAction::Prefer(Preference::Current)],
            ),
        ]);
        let wire = rs.to_wire();
        let back = RuleSet::from_wire(&wire).expect("round trip");
        assert_eq!(back, rs);
        assert!(RuleSet::from_wire("").expect("empty ok").is_empty());
    }

    #[test]
    fn malformed_wire_lines_are_rejected() {
        assert!(RuleSet::from_wire("always prefer=fast").is_err());
        assert!(RuleSet::from_wire("wat => prefer=fast").is_err());
        assert!(RuleSet::from_wire("always => sideways").is_err());
        assert!(RuleSet::from_wire("=> prefer=fast").is_err());
        assert!(RuleSet::from_wire("always =>").is_err());
        assert!(RuleSet::from_wire("bytes>much => force=defer").is_err());
        assert!(RuleSet::from_wire("trust<=sideways => verify").is_err());
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
