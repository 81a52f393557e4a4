//! Property tests: the query language is a faithful inverse of the
//! algebra's pretty-printer — `parse_query(plan.render()).plan == plan`
//! for arbitrary constructible plans. The generators mirror
//! `mqp_algebra`'s codec proptests (same leaf shapes, same operator
//! mix) plus arbitrary annotations, so anything the wire codec can
//! carry, the surface syntax can express.

use proptest::prelude::*;

use mqp_algebra::plan::{Annotations, JoinCond, OrAlt, Plan, UrlRef, UrnRef};
use mqp_algebra::predicate::{AggFunc, Predicate};
use mqp_catalog::{Preference, ServerId, TrustLevel};
use mqp_core::{Cond, Rule, RuleAction, RuleSet};
use mqp_namespace::InterestArea;
use mqp_xml::Element;

use crate::policy::{parse_policy, render_policy};
use crate::query::parse_query;

fn arb_item() -> impl Strategy<Value = Element> {
    proptest::collection::vec(("[a-z]{1,6}", "[ -~]{1,10}"), 0..4).prop_map(|fields| {
        let mut e = Element::new("item");
        for (n, v) in fields {
            e.push_child(mqp_xml::Node::Element(Element::new(n).text(v)));
        }
        e
    })
}

fn arb_meta() -> impl Strategy<Value = Annotations> {
    // Keys cover both render paths: bare ident-shaped and arbitrary
    // printable (which render must quote).
    let key = prop_oneof!["[a-z_][a-z0-9_.-]{0,5}", "[ -~]{1,6}"];
    proptest::collection::vec((key, "[ -~]{0,8}"), 0..3).prop_map(|pairs| {
        let mut meta = Annotations::new();
        for (k, v) in pairs {
            meta.set(k, v);
        }
        meta
    })
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        ("[a-z]{1,5}", 0u32..100).prop_map(|(f, n)| Predicate::cmp(
            &f,
            mqp_xml::xpath::Op::Lt,
            n.to_string()
        )),
        ("[a-z]{1,5}", "[a-zA-Z ]{1,6}").prop_map(|(f, v)| Predicate::cmp(
            &f,
            mqp_xml::xpath::Op::Eq,
            v.trim().to_owned()
        )),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Predicate::Or),
            inner.prop_map(|p| Predicate::Not(Box::new(p))),
        ]
    })
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    let leaf = prop_oneof![
        (proptest::collection::vec(arb_item(), 0..3), arb_meta()).prop_map(|(items, meta)| {
            Plan::Data {
                items: items.into_iter().collect(),
                meta,
            }
        }),
        ("[a-z]{1,8}", arb_meta()).prop_map(|(h, meta)| Plan::Url(UrlRef {
            href: format!("http://{h}:9020/"),
            collection: None,
            meta,
        })),
        ("[A-Za-z]{1,6}", "[A-Za-z0-9-]{1,8}", arb_meta()).prop_map(|(nid, nss, meta)| {
            Plan::Urn(UrnRef {
                urn: mqp_namespace::Urn::named(nid, nss),
                meta,
            })
        }),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (arb_pred(), inner.clone()).prop_map(|(p, i)| Plan::Select {
                pred: p,
                input: Box::new(i)
            }),
            (proptest::collection::vec("[a-z]{1,5}", 1..3), inner.clone())
                .prop_map(|(f, i)| Plan::project(f, i)),
            ("[a-z]{1,4}", "[a-z]{1,4}", inner.clone(), inner.clone())
                .prop_map(|(l, r, a, b)| Plan::join(JoinCond::on(&l, &r), a, b)),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Plan::union),
            proptest::collection::vec((inner.clone(), proptest::option::of(0u32..120)), 1..3)
                .prop_map(|alts| Plan::Or(
                    alts.into_iter()
                        .map(|(p, s)| OrAlt {
                            plan: p,
                            staleness: s
                        })
                        .collect()
                )),
            (
                proptest::sample::select(vec![
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Avg
                ]),
                inner.clone()
            )
                .prop_map(|(f, i)| Plan::aggregate(f, Some("price"), i)),
            (1usize..20, any::<bool>(), inner.clone())
                .prop_map(|(n, asc, i)| Plan::top_n(n, "price", asc, i)),
            ("[a-z0-9.:]{1,12}", inner.clone()).prop_map(|(t, i)| Plan::display(t, i)),
        ]
    })
}

fn arb_trust_level() -> impl Strategy<Value = TrustLevel> {
    proptest::sample::select(vec![
        TrustLevel::Trusted,
        TrustLevel::Probation,
        TrustLevel::Quarantined,
    ])
}

/// A role glob or server name: non-empty, any printable ASCII (space,
/// `"` and `\` among it), tab, CR, newline, and non-ASCII.
const ARB_NAME: &str = "[ -~\t\r\né€漢🦀]{1,10}";

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Always),
        proptest::collection::vec(("[A-Z]{1,4}", "[a-z]{1,5}"), 1..3).prop_map(|cells| {
            let cells: Vec<Vec<&str>> = cells
                .iter()
                .map(|(a, b)| vec![a.as_str(), b.as_str()])
                .collect();
            let refs: Vec<&[&str]> = cells.iter().map(Vec::as_slice).collect();
            Cond::AreaWithin(InterestArea::parse(&refs))
        }),
        (0..=u64::MAX).prop_map(Cond::BytesOver),
        (0..=u64::MAX).prop_map(Cond::BytesUnder),
        (0u32..10_000).prop_map(Cond::StalenessOver),
        ARB_NAME.prop_map(Cond::RoleIs),
        arb_trust_level().prop_map(Cond::TrustBelow),
    ]
}

fn arb_action() -> impl Strategy<Value = RuleAction> {
    let pref = proptest::sample::select(vec![Preference::Current, Preference::Fast]);
    prop_oneof![
        pref.clone().prop_map(RuleAction::Prefer),
        (0u32..10_000).prop_map(RuleAction::Within),
        (0..=u64::MAX).prop_map(RuleAction::DeferOver),
        Just(RuleAction::ForceDefer),
        Just(RuleAction::ForceEvaluate),
        ARB_NAME.prop_map(|s| RuleAction::RouteVia(ServerId::new(s))),
        pref.clone().prop_map(RuleAction::Choose),
        Just(RuleAction::Quarantine),
        Just(RuleAction::Verify),
    ]
}

fn arb_ruleset() -> impl Strategy<Value = RuleSet> {
    proptest::collection::vec(
        (
            proptest::collection::vec(arb_cond(), 1..3),
            proptest::collection::vec(arb_action(), 1..3),
        ),
        0..5,
    )
    .prop_map(|rules| {
        RuleSet::new(
            rules
                .into_iter()
                .map(|(conds, actions)| Rule { conds, actions })
                .collect(),
        )
    })
}

/// The committed sources under `queries/`, both kinds.
const SOURCES: [&str; 5] = [
    include_str!("../../../queries/fig2_pipeline.mqpq"),
    include_str!("../../../queries/index_detail.mqpq"),
    include_str!("../../../queries/routing_discovery.mqpq"),
    include_str!("../../../queries/default_policy.mqpp"),
    include_str!("../../../queries/fast_fallback.mqpp"),
];

/// A committed source with up to eight byte edits — overwrite, insert or
/// delete at `at % len` — read back as text the way a peer must. Two
/// bytes in three are the languages' own punctuation.
fn arb_mutated_source() -> impl Strategy<Value = String> {
    let punct = || proptest::sample::select(b"()|\"@=,#:<>/*.\n \\".to_vec());
    let edit = (
        0u8..3,
        0usize..1 << 16,
        prop_oneof![punct(), punct(), 0u8..=255],
    );
    (0..SOURCES.len(), proptest::collection::vec(edit, 1..9)).prop_map(|(file, edits)| {
        let mut src = SOURCES[file].as_bytes().to_vec();
        for (kind, at, byte) in edits {
            let at = at % (src.len() + 1);
            match kind {
                0 if at < src.len() => src[at] = byte,
                1 => src.insert(at, byte),
                _ if at < src.len() => {
                    src.remove(at);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&src).into_owned()
    })
}

/// Neither front-end panics on `src`, and whatever one accepts
/// round-trips through its renderer.
fn parse_both(src: &str) {
    if let Ok(q) = parse_query(src) {
        let text = q.plan.render();
        let back =
            parse_query(&text).unwrap_or_else(|e| panic!("{src:?} rendered as\n{text}\n{e}"));
        assert_eq!(back.plan, q.plan, "{src:?} rendered as\n{text}");
    }
    if let Ok(p) = parse_policy(src) {
        let text = render_policy(&p);
        let back =
            parse_policy(&text).unwrap_or_else(|e| panic!("{src:?} rendered as\n{text}\n{e}"));
        assert_eq!(back, p, "{src:?} rendered as\n{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes, read as text the way a peer must: neither
    /// parser panics, and what one accepts round-trips.
    #[test]
    fn front_ends_survive_arbitrary_input(
        bytes in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    /// Mutated copies of the committed `.mqpq` and `.mqpp` sources,
    /// which reach far deeper into both grammars than random bytes do.
    #[test]
    fn front_ends_survive_mutated_sources(src in arb_mutated_source()) {
        parse_both(&src);
    }

    /// The tentpole invariant: rendering any plan and compiling the
    /// text back yields the *same* plan — structurally, annotations
    /// and all. Queries authored either way are interchangeable.
    #[test]
    fn render_parse_roundtrip(plan in arb_plan()) {
        let text = plan.render();
        let q = parse_query(&text).unwrap_or_else(|e| panic!("rendered text must parse:\n{text}\n{e}"));
        prop_assert_eq!(&q.plan, &plan, "text was:\n{}", text);
    }

    /// Rendering is a fixed point of compile∘render: pretty-printing
    /// the reparsed plan reproduces the text byte for byte (so `.mqpq`
    /// files regenerated from plans are stable).
    #[test]
    fn render_is_stable_under_reparse(plan in arb_plan()) {
        let text = plan.render();
        let reparsed = parse_query(&text).unwrap();
        prop_assert_eq!(reparsed.plan.render(), text);
    }

    /// The policy DSL inverts its renderer for every rule set whose
    /// rules each hold a condition and an action — any glob or server
    /// name, any `u64` threshold, trust conditions and defense actions
    /// included — so every such set survives the `policy` wire frame.
    /// The rendered text is a fixed point of parse∘render (regenerated
    /// `.mqpp` files are stable).
    #[test]
    fn policy_render_parse_roundtrip(rules in arb_ruleset()) {
        let text = render_policy(&rules);
        let compiled = parse_policy(&text)
            .unwrap_or_else(|e| panic!("rendered policy must parse:\n{text}\n{e}"));
        prop_assert_eq!(&compiled, &rules, "text was:\n{}", text);
        prop_assert_eq!(render_policy(&compiled), text);
    }
}
