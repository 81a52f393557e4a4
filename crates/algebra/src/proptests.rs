//! Property tests: the plan ↔ XML codec round-trips for arbitrary
//! generated plans, the decoder holds up against bytes it did not
//! write, and structural utilities respect their contracts.

use proptest::prelude::*;

use mqp_xml::Element;

use crate::codec::{from_wire, to_wire, wire_size};
use crate::plan::{JoinCond, NodePath, OrAlt, Plan, UrlRef};
use crate::predicate::{AggFunc, Predicate};

fn arb_item() -> impl Strategy<Value = Element> {
    // Simple data-bundle items: <item><f0>v</f0>…</item>
    proptest::collection::vec(("[a-z]{1,6}", "[ -~]{1,10}"), 0..4).prop_map(|fields| {
        let mut e = Element::new("item");
        for (n, v) in fields {
            e.push_child(mqp_xml::Node::Element(Element::new(n).text(v)));
        }
        e
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
    // And/Or with 2+ children: a singleton `And([p])` displays as `p`
    // (semantically equal, structurally different), which would be a
    // false round-trip failure.
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
        proptest::collection::vec(arb_item(), 0..3).prop_map(Plan::data),
        "[a-z]{1,8}".prop_map(|h| Plan::url(format!("http://{h}:9020/"))),
        ("[A-Za-z]{1,6}", "[A-Za-z0-9-]{1,8}").prop_map(|(nid, nss)| Plan::Urn(
            crate::plan::UrnRef::new(mqp_namespace::Urn::named(nid, nss))
        )),
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

/// `wire` with one byte deleted (`op` 0), doubled (1) or overwritten
/// with `with` (2) at an arbitrary index; `None` when the result is not
/// UTF-8 (a `&str` decoder cannot be handed it).
fn mutate(wire: &str, op: u8, at: prop::sample::Index, with: u8) -> Option<String> {
    let mut bytes = wire.as_bytes().to_vec();
    let i = at.index(bytes.len());
    match op {
        0 => drop(bytes.remove(i)),
        1 => bytes.insert(i, bytes[i]),
        _ => bytes[i] = with,
    }
    String::from_utf8(bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn codec_roundtrip(plan in arb_plan()) {
        let wire = to_wire(&plan);
        let back = from_wire(&wire).expect("wire must reparse");
        prop_assert_eq!(back, plan);
    }

    /// The decoder is alone now: whatever bytes reach it, it answers
    /// `Ok` or `Err` — it never panics.
    #[test]
    fn decoder_never_panics_on_arbitrary_input(s in "[ -~<>&;/\"'=]{0,96}") {
        let _ = from_wire(&s);
    }

    /// One damaged byte in real wire output: the decoder answers `Ok`
    /// or `Err`, and what it accepts it can write and read back
    /// unchanged.
    #[test]
    fn decoder_survives_one_damaged_byte(
        plan in arb_plan(),
        op in 0u8..3,
        at in any::<prop::sample::Index>(),
        with in 0x20u8..0x7f,
    ) {
        if let Some(damaged) = mutate(&to_wire(&plan), op, at, with) {
            if let Ok(p) = from_wire(&damaged) {
                prop_assert_eq!(from_wire(&to_wire(&p)), Ok(p), "{}", damaged);
            }
        }
    }

    /// The direct serializer ([`crate::codec::write_plan`]) is
    /// byte-identical to serializing the intermediate Element tree —
    /// the invariant that keeps golden wire traces unchanged while the
    /// hot path skips the tree entirely.
    #[test]
    fn direct_serializer_matches_tree_serializer(plan in arb_plan()) {
        let direct = to_wire(&plan);
        let via_tree = mqp_xml::serialize(&crate::codec::plan_to_xml(&plan));
        prop_assert_eq!(direct, via_tree);
    }

    #[test]
    fn wire_size_exact(plan in arb_plan()) {
        prop_assert_eq!(wire_size(&plan), to_wire(&plan).len());
    }

    #[test]
    fn node_count_consistent_with_find_all(plan in arb_plan()) {
        let all = plan.find_all(&|_| true);
        prop_assert_eq!(all.len(), plan.node_count());
        // Every reported path must resolve.
        for p in &all {
            prop_assert!(plan.get(p).is_some());
        }
    }

    #[test]
    fn replace_then_get_returns_new(mut plan in arb_plan()) {
        let paths = plan.find_all(&|_| true);
        let target = paths.last().unwrap().clone(); // deepest-right node
        let marker = Plan::Url(UrlRef::new("http://replaced/"));
        let _old = plan.replace(&target, marker.clone()).unwrap();
        prop_assert_eq!(plan.get(&target).unwrap(), &marker);
    }

    #[test]
    fn pred_display_roundtrip(p in arb_pred()) {
        let shown = p.to_string();
        let back = Predicate::parse(&shown)
            .unwrap_or_else(|e| panic!("{shown}: {e}"));
        prop_assert_eq!(back, p);
    }

    #[test]
    fn root_path_is_identity(plan in arb_plan()) {
        prop_assert_eq!(plan.get(&NodePath::default()), Some(&plan));
    }
}
