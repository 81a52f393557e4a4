//! Property tests: the batched evaluator and the frozen
//! [`crate::legacy`] materializing evaluator produce *identical item
//! sequences* for arbitrary plans over arbitrary collections — the
//! equivalence that lets the clone-free engine replace the tree-walker
//! without touching any golden trace.

use proptest::prelude::*;

use mqp_algebra::plan::{JoinCond, OrAlt, Plan};
use mqp_algebra::predicate::{AggFunc, Predicate};
use mqp_xml::xpath::Op;
use mqp_xml::{Batch, Element};

use crate::{eval_const, legacy};

/// Data-bundle items over a small field/value vocabulary so joins,
/// selects, and top-n keys actually collide: `<item><f0>v</f0>…</item>`
/// with numeric-looking and plain-text values (exercising both compare
/// arms), plus the occasional multi-valued field (existential
/// semantics) and missing field.
fn arb_item() -> impl Strategy<Value = Element> {
    let field = (
        proptest::sample::select(vec!["price", "title", "k", "tag"]),
        prop_oneof![
            (0u32..12).prop_map(|n| n.to_string()),
            (0u32..4).prop_map(|n| format!("{n}.0")),
            proptest::sample::select(vec!["x", "y", "NaN", " pad "]).prop_map(str::to_owned),
        ],
    );
    proptest::collection::vec(field, 0..4).prop_map(|fields| {
        let mut e = Element::new("item");
        for (n, v) in fields {
            e.push_child(mqp_xml::Node::Element(Element::new(n).text(v)));
        }
        e
    })
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    let op = proptest::sample::select(vec![Op::Eq, Op::Ne, Op::Lt, Op::Le, Op::Gt, Op::Ge]);
    let field = proptest::sample::select(vec!["price", "title", "k", "missing"]);
    let leaf = prop_oneof![
        Just(Predicate::True),
        (field.clone(), op.clone(), 0u32..12).prop_map(|(f, o, n)| Predicate::cmp(
            f,
            o,
            n.to_string()
        )),
        (
            field,
            op,
            proptest::sample::select(vec!["x", "y", "NaN", "0"])
        )
            .prop_map(|(f, o, v)| Predicate::cmp(f, o, v)),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Predicate::Or),
            inner.prop_map(|p| Predicate::Not(Box::new(p))),
        ]
    })
}

/// Fully-constant plans (data leaves only — both evaluators resolve
/// nothing), spanning every operator.
fn arb_plan() -> impl Strategy<Value = Plan> {
    let key = proptest::sample::select(vec!["price", "k", "title", "tuple/item/price"]);
    let leaf = proptest::collection::vec(arb_item(), 0..5).prop_map(Plan::data);
    leaf.prop_recursive(3, 20, 3, move |inner| {
        prop_oneof![
            (arb_pred(), inner.clone()).prop_map(|(p, i)| Plan::Select {
                pred: p,
                input: Box::new(i)
            }),
            (
                proptest::collection::vec(
                    proptest::sample::select(vec!["price", "title", "k"]),
                    1..3
                ),
                inner.clone()
            )
                .prop_map(|(f, i)| Plan::project(f, i)),
            (key.clone(), key.clone(), inner.clone(), inner.clone())
                .prop_map(|(l, r, a, b)| Plan::join(JoinCond::on(l, r), a, b)),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Plan::union),
            proptest::collection::vec(inner.clone(), 1..3)
                .prop_map(|alts| Plan::Or(alts.into_iter().map(OrAlt::new).collect())),
            (
                proptest::sample::select(vec![
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Avg
                ]),
                proptest::option::of(Just("price")),
                inner.clone()
            )
                .prop_map(|(f, p, i)| Plan::aggregate(f, p, i)),
            (0usize..6, key.clone(), any::<bool>(), inner.clone())
                .prop_map(|(n, k, asc, i)| Plan::top_n(n, k, asc, i)),
            inner.prop_map(|i| Plan::display("c:1", i)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline equivalence: batched == legacy, item for item, in
    /// order (not just as bags).
    #[test]
    fn batched_eval_matches_legacy(plan in arb_plan()) {
        let batched = eval_const(&plan).expect("const plans evaluate");
        let legacy = legacy::eval_const(&plan).expect("const plans evaluate");
        prop_assert_eq!(batched.to_vec(), legacy);
    }

    /// Predicates, which parse their literal once when built, agree
    /// with the legacy oracle's per-item re-parse, item by item.
    #[test]
    fn predicate_matches_legacy(
        pred in arb_pred(),
        items in proptest::collection::vec(arb_item(), 0..8),
    ) {
        for item in &items {
            prop_assert_eq!(pred.eval(item), legacy::eval_pred(&pred, item));
        }
    }

    /// Select only ever *shares* handles: every output item of a
    /// handle-shuffling pipeline is pointer-identical to some input
    /// item (no hidden copies on the non-constructing path).
    #[test]
    fn shuffling_operators_share_not_copy(items in proptest::collection::vec(arb_item(), 0..6)) {
        let plan = Plan::top_n(
            4,
            "price",
            true,
            Plan::select("price < 8", Plan::union([Plan::data(items), Plan::data([])])),
        );
        let out = eval_const(&plan).unwrap();
        let leaf_handles: Vec<_> = plan
            .find_all(&|p| matches!(p, Plan::Data { .. }))
            .iter()
            .flat_map(|p| plan.get(p).unwrap().as_data().unwrap().handles().to_vec())
            .collect();
        for h in out.handles() {
            prop_assert!(leaf_handles.iter().any(|l| std::sync::Arc::ptr_eq(l, h)));
        }
    }

    /// Batch value-equality survives a serialize/reparse cycle (the
    /// wire boundary materializes, sharing is invisible).
    #[test]
    fn shared_batches_serialize_like_owned(items in proptest::collection::vec(arb_item(), 0..5)) {
        let batch: Batch = items.clone().into_iter().collect();
        let shared = Plan::data_shared(batch);
        let owned = Plan::data(items);
        prop_assert_eq!(
            mqp_algebra::codec::to_wire(&shared),
            mqp_algebra::codec::to_wire(&owned)
        );
    }
}
