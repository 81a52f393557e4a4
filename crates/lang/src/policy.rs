//! The policy DSL compiler: rule text → [`RuleSet`] for hot-reload
//! into a running peer.
//!
//! Grammar (DESIGN.md §13):
//!
//! ```text
//! policy  := line*
//! line    := "default" ("current"|"fast")      # base preference
//!          | "defer" "over" SIZE               # base defer threshold
//!          | "within" DUR                      # base staleness bound
//!          | "when" cond ("and" cond)* "then" action ("," action)*
//! cond    := "always"
//!          | "area" "within" STR               # an InterestArea URN
//!          | "bytes" ("over"|"under") SIZE
//!          | "staleness" "over" DUR
//!          | "role" "is" STR                   # glob over the peer name
//!          | "trust-below" LEVEL               # trusted|probation|quarantined
//! action  := "prefer" ("current"|"fast") | "within" DUR
//!          | "defer" "over" SIZE | "defer" | "evaluate"
//!          | "route" "via" STR | "choose" ("current"|"fast")
//!          | "quarantine" | "verify"           # binding defense, DESIGN.md §14
//! ```
//!
//! Base lines compile to `when always then …` rules in place, so a
//! policy file is *just* an ordered rule list — evaluation order is
//! exactly textual order, later matches override earlier ones (see
//! [`RuleSet::decide`]). A file of only base lines reproduces a plain
//! [`Policy`](mqp_core::Policy): `default current` compiled and applied
//! to `Policy::current()` is a no-op, which is what keeps golden traces
//! byte-identical under the compiled default (tested below).

use mqp_catalog::{Preference, ServerId, TrustLevel};
use mqp_core::{Cond, Rule, RuleAction, RuleSet};
use mqp_namespace::Urn;

use crate::cursor::Cursor;
use crate::diag::Diagnostic;

/// A compiled policy: its rule set.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// The compiled rules, ready for [`Processor::set_rules`] or a
    /// `policy` wire frame.
    ///
    /// [`Processor::set_rules`]: mqp_core::Processor::set_rules
    pub rules: RuleSet,
}

/// Compiles policy text. Returns the first error as a positioned
/// diagnostic.
pub fn parse_policy(src: &str) -> Result<CompiledPolicy, Diagnostic> {
    let mut cur = Cursor::new(src)?;
    let mut rules = Vec::new();
    while !cur.at_eof() {
        rules.push(parse_line(&mut cur)?);
    }
    Ok(CompiledPolicy {
        rules: RuleSet::new(rules),
    })
}

fn parse_line(cur: &mut Cursor) -> Result<Rule, Diagnostic> {
    // Base lines: sugar for `when always then <one action>`.
    if cur.eat_word("default") {
        return Ok(always(RuleAction::Prefer(parse_preference(cur)?)));
    }
    if cur.eat_word("defer") {
        cur.expect_keyword("over")?;
        let (bytes, _) = cur.expect_size()?;
        return Ok(always(RuleAction::DeferOver(bytes)));
    }
    if cur.eat_word("within") {
        let (minutes, _) = cur.expect_duration()?;
        return Ok(always(RuleAction::Within(minutes)));
    }

    cur.expect_keyword("when")?;
    let mut conds = vec![parse_cond(cur)?];
    while cur.eat_word("and") {
        conds.push(parse_cond(cur)?);
    }
    cur.expect_keyword("then")?;
    let mut actions = vec![parse_action(cur)?];
    while cur.eat_punct(',') {
        actions.push(parse_action(cur)?);
    }
    Ok(Rule { conds, actions })
}

fn always(action: RuleAction) -> Rule {
    Rule {
        conds: vec![Cond::Always],
        actions: vec![action],
    }
}

fn parse_cond(cur: &mut Cursor) -> Result<Cond, Diagnostic> {
    let (kw, kw_span) =
        cur.expect_word("a condition (always, area, bytes, staleness, role, trust-below)")?;
    match kw.as_str() {
        "always" => Ok(Cond::Always),
        "area" => {
            cur.expect_keyword("within")?;
            let (text, span) = cur.expect_str("an interest-area URN")?;
            let urn = Urn::parse(&text)
                .map_err(|e| Diagnostic::at(cur.src(), span, format!("bad URN: {e}")))?;
            match urn.as_area() {
                Some(area) => Ok(Cond::AreaWithin(area.clone())),
                None => Err(Diagnostic::at(
                    cur.src(),
                    span,
                    format!("`{text}` is not an interest-area URN (expected urn:InterestArea:…)"),
                )),
            }
        }
        "bytes" => {
            let over = if cur.eat_word("over") {
                true
            } else if cur.eat_word("under") {
                false
            } else {
                return Err(cur.err("expected `over` or `under` after `bytes`"));
            };
            let (bytes, _) = cur.expect_size()?;
            Ok(if over {
                Cond::BytesOver(bytes)
            } else {
                Cond::BytesUnder(bytes)
            })
        }
        "staleness" => {
            cur.expect_keyword("over")?;
            let (minutes, _) = cur.expect_duration()?;
            Ok(Cond::StalenessOver(minutes))
        }
        "role" => {
            cur.expect_keyword("is")?;
            let (glob, span) = cur.expect_str("a role glob like \"seller-*\"")?;
            if glob.chars().any(char::is_whitespace) || glob.is_empty() {
                return Err(Diagnostic::at(
                    cur.src(),
                    span,
                    "role globs must be non-empty and contain no whitespace",
                ));
            }
            Ok(Cond::RoleIs(glob))
        }
        "trust-below" => {
            let (level, span) = cur.expect_word("a trust level (trusted, probation, quarantined)")?;
            match TrustLevel::parse(&level) {
                Some(l) => Ok(Cond::TrustBelow(l)),
                None => Err(Diagnostic::at(
                    cur.src(),
                    span,
                    format!(
                        "unknown trust level `{level}` (expected trusted, probation, or quarantined)"
                    ),
                )),
            }
        }
        other => Err(Diagnostic::at(
            cur.src(),
            kw_span,
            format!(
                "unknown condition `{other}` (expected always, area, bytes, staleness, role, or trust-below)"
            ),
        )),
    }
}

fn parse_action(cur: &mut Cursor) -> Result<RuleAction, Diagnostic> {
    let (kw, kw_span) = cur.expect_word(
        "an action (prefer, within, defer, evaluate, route, choose, quarantine, verify)",
    )?;
    match kw.as_str() {
        "prefer" => Ok(RuleAction::Prefer(parse_preference(cur)?)),
        "within" => {
            let (minutes, _) = cur.expect_duration()?;
            Ok(RuleAction::Within(minutes))
        }
        "defer" => {
            if cur.eat_word("over") {
                let (bytes, _) = cur.expect_size()?;
                Ok(RuleAction::DeferOver(bytes))
            } else {
                Ok(RuleAction::ForceDefer)
            }
        }
        "evaluate" => Ok(RuleAction::ForceEvaluate),
        "route" => {
            cur.expect_keyword("via")?;
            let (server, span) = cur.expect_str("a server name like \"idx-pdx\"")?;
            if server.chars().any(char::is_whitespace) || server.is_empty() {
                return Err(Diagnostic::at(
                    cur.src(),
                    span,
                    "server names must be non-empty and contain no whitespace",
                ));
            }
            Ok(RuleAction::RouteVia(ServerId::new(server)))
        }
        "choose" => Ok(RuleAction::Choose(parse_preference(cur)?)),
        "quarantine" => Ok(RuleAction::Quarantine),
        "verify" => Ok(RuleAction::Verify),
        other => Err(Diagnostic::at(
            cur.src(),
            kw_span,
            format!(
                "unknown action `{other}` (expected prefer, within, defer, evaluate, route, choose, quarantine, or verify)"
            ),
        )),
    }
}

/// Renders a rule set back to policy DSL text — the left inverse of
/// [`parse_policy`] for any rule set the DSL can express (integral byte
/// thresholds; property-tested in `crate::proptests`). Every rule
/// renders in the explicit `when … then …` form, so rendering is also a
/// fixed point of parse∘render.
pub fn render_policy(rules: &RuleSet) -> String {
    let mut out = String::new();
    for rule in &rules.rules {
        out.push_str("when ");
        for (i, c) in rule.conds.iter().enumerate() {
            if i > 0 {
                out.push_str(" and ");
            }
            out.push_str(&render_cond(c));
        }
        out.push_str(" then ");
        for (i, a) in rule.actions.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&render_action(a));
        }
        out.push('\n');
    }
    out
}

fn render_cond(c: &Cond) -> String {
    match c {
        Cond::Always => "always".to_owned(),
        Cond::AreaWithin(a) => format!("area within \"{}\"", Urn::area(a.clone())),
        Cond::BytesOver(b) => format!("bytes over {}", *b as u64),
        Cond::BytesUnder(b) => format!("bytes under {}", *b as u64),
        Cond::StalenessOver(m) => format!("staleness over {m}min"),
        Cond::RoleIs(glob) => format!("role is \"{glob}\""),
        Cond::TrustBelow(l) => format!("trust-below {}", l.name()),
    }
}

fn render_action(a: &RuleAction) -> String {
    match a {
        RuleAction::Prefer(p) => format!("prefer {}", render_preference(p)),
        RuleAction::Within(m) => format!("within {m}min"),
        RuleAction::DeferOver(b) => format!("defer over {}", *b as u64),
        RuleAction::ForceDefer => "defer".to_owned(),
        RuleAction::ForceEvaluate => "evaluate".to_owned(),
        RuleAction::RouteVia(s) => format!("route via \"{s}\""),
        RuleAction::Choose(p) => format!("choose {}", render_preference(p)),
        RuleAction::Quarantine => "quarantine".to_owned(),
        RuleAction::Verify => "verify".to_owned(),
    }
}

fn render_preference(p: &Preference) -> &'static str {
    match p {
        Preference::Current => "current",
        Preference::Fast => "fast",
    }
}

fn parse_preference(cur: &mut Cursor) -> Result<Preference, Diagnostic> {
    let (which, span) = cur.expect_word("`current` or `fast`")?;
    match which.as_str() {
        "current" => Ok(Preference::Current),
        "fast" => Ok(Preference::Fast),
        other => Err(Diagnostic::at(
            cur.src(),
            span,
            format!("unknown preference `{other}` (expected `current` or `fast`)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_core::{Policy, RuleCtx};

    #[test]
    fn compiled_default_reproduces_the_builtin_policies_exactly() {
        // The golden-trace invariant: applying the compiled default to
        // the matching built-in policy must be an identity.
        for (text, base) in [
            ("default current\ndefer over 64kb", Policy::current()),
            ("default fast", Policy::fast()),
        ] {
            let rules = parse_policy(text).unwrap().rules;
            let decision = rules.decide(&base, &RuleCtx::default());
            assert_eq!(decision.policy, base);
            assert_eq!(decision.or_preference, None);
            assert_eq!(decision.force, None);
            assert_eq!(decision.route, None);
        }
    }

    #[test]
    fn rules_compile_in_textual_order_with_sugar_inlined() {
        let p = parse_policy(
            "# comments are fine\n\
             default fast\n\
             within 2h\n\
             when area within \"urn:InterestArea:(USA.OR.Portland,Merchandise)\" \
               and bytes over 4kb then defer\n\
             when role is \"seller-*\" then route via \"idx-pdx\", choose fast",
        )
        .unwrap();
        let rules = &p.rules.rules;
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].actions, vec![RuleAction::Prefer(Preference::Fast)]);
        assert_eq!(rules[1].actions, vec![RuleAction::Within(120)]);
        assert_eq!(rules[2].conds.len(), 2);
        assert!(matches!(rules[2].conds[1], Cond::BytesOver(b) if b == 4096.0));
        assert_eq!(rules[2].actions, vec![RuleAction::ForceDefer]);
        assert_eq!(
            rules[3].actions,
            vec![
                RuleAction::RouteVia(ServerId::new("idx-pdx")),
                RuleAction::Choose(Preference::Fast),
            ]
        );
        // Compiled rules survive the wire codec (how hot-reload ships them).
        assert_eq!(RuleSet::from_wire(&p.rules.to_wire()).unwrap(), p.rules);
    }

    #[test]
    fn bare_defer_vs_defer_over_disambiguate() {
        let p = parse_policy("when bytes over 1kb then defer\nwhen always then defer over 2kb")
            .unwrap();
        assert_eq!(p.rules.rules[0].actions, vec![RuleAction::ForceDefer]);
        assert_eq!(
            p.rules.rules[1].actions,
            vec![RuleAction::DeferOver(2048.0)]
        );
    }

    #[test]
    fn trust_conditions_and_defense_actions_compile() {
        let p = parse_policy(
            "when trust-below probation then verify\n\
             when trust-below quarantined and role is \"meta\" then quarantine, defer",
        )
        .unwrap();
        let rules = &p.rules.rules;
        assert_eq!(
            rules[0].conds,
            vec![Cond::TrustBelow(mqp_catalog::TrustLevel::Probation)]
        );
        assert_eq!(rules[0].actions, vec![RuleAction::Verify]);
        assert_eq!(
            rules[1].conds[0],
            Cond::TrustBelow(mqp_catalog::TrustLevel::Quarantined)
        );
        assert_eq!(
            rules[1].actions,
            vec![RuleAction::Quarantine, RuleAction::ForceDefer]
        );
        // Hot-reload ships compiled rules over the wire intact.
        assert_eq!(RuleSet::from_wire(&p.rules.to_wire()).unwrap(), p.rules);
        // And the renderer inverts the compiler.
        assert_eq!(
            parse_policy(&render_policy(&p.rules)).unwrap().rules,
            p.rules
        );

        let err = parse_policy("when trust-below sideways then verify").unwrap_err();
        assert!(err.message.contains("unknown trust level"), "{err}");
    }

    #[test]
    fn policy_errors_are_positioned() {
        let err = parse_policy("when area within \"urn:ForSale:pdx\" then defer").unwrap_err();
        assert!(err.message.contains("not an interest-area URN"), "{err}");

        let err = parse_policy("when role is \"two words\" then defer").unwrap_err();
        assert!(err.message.contains("no whitespace"), "{err}");

        let err = parse_policy("when always then teleport").unwrap_err();
        assert!(err.message.contains("unknown action `teleport`"), "{err}");
        assert_eq!(err.line, 1);

        let err = parse_policy("within 9999999999h").unwrap_err();
        assert!(err.message.contains("bad duration"), "{err}");
    }
}
