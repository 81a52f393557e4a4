//! Cross-crate property tests: the invariants DESIGN.md §5 commits to
//! that span more than one crate — reduction confluence, rewrite
//! soundness on the real evaluator, and whole-harness determinism.

use proptest::prelude::*;

use mqp::algebra::plan::{JoinCond, Plan};
use mqp::core::rewrite;
use mqp::engine::eval_const;
use mqp::xml::Element;

fn arb_items(tag: &'static str) -> impl Strategy<Value = Vec<Element>> {
    proptest::collection::vec((0u32..6, 0u32..50), 0..6).prop_map(move |rows| {
        rows.into_iter()
            .map(|(k, p)| {
                Element::new(tag)
                    .child(Element::new("k").text(k.to_string()))
                    .child(Element::new("price").text(p.to_string()))
            })
            .collect()
    })
}

/// Data-only plans over a small schema, deep enough to exercise every
/// operator the rewrites touch.
fn arb_data_plan() -> impl Strategy<Value = Plan> {
    let leaf = arb_items("i").prop_map(Plan::data);
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (0u32..50, inner.clone()).prop_map(|(c, i)| Plan::select(&format!("price < {c}"), i)),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Plan::union),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Plan::join(
                JoinCond::on("k", "k"),
                a,
                b
            )),
            inner.clone().prop_map(|i| Plan::top_n(3, "price", true, i)),
        ]
    })
}

/// Sorted serialized form: bag equality up to order.
fn bag(items: &mqp::xml::Batch) -> Vec<String> {
    let mut v: Vec<String> = items.iter().map(mqp::xml::serialize).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Normalization (select pushdown + consolidation) never changes
    /// results on the real evaluator.
    #[test]
    fn normalize_preserves_results(plan in arb_data_plan()) {
        let before = eval_const(&plan).unwrap();
        let mut rewritten = plan.clone();
        rewrite::normalize(&mut rewritten);
        let after = eval_const(&rewritten).unwrap();
        prop_assert_eq!(bag(&before), bag(&after));
    }

    /// Reduction confluence: evaluating the whole plan at once equals
    /// reducing an arbitrary evaluable sub-plan to constant data first,
    /// then evaluating the rest — the legality of §2's "reduce the MQP
    /// by evaluating a sub-graph".
    #[test]
    fn reduction_is_confluent(plan in arb_data_plan(), pick in any::<prop::sample::Index>()) {
        let direct = eval_const(&plan).unwrap();
        // Pick any sub-plan (all are evaluable: data-only world).
        let paths = plan.find_all(&|_| true);
        let path = paths[pick.index(paths.len())].clone();
        let mut reduced = plan.clone();
        let sub = reduced.get(&path).unwrap().clone();
        let sub_result = eval_const(&sub).unwrap();
        reduced.replace(&path, Plan::data_shared(sub_result)).unwrap();
        let via_reduction = eval_const(&reduced).unwrap();
        prop_assert_eq!(bag(&direct), bag(&via_reduction));
    }

    /// The MQP envelope codec round-trips any data-only plan together
    /// with provenance.
    #[test]
    fn envelope_roundtrip_data_plans(plan in arb_data_plan()) {
        let mqp = mqp::core::Mqp::new(Plan::display("c#1", plan));
        let back = mqp::core::Mqp::from_wire(&mqp.to_wire()).expect("reparse");
        prop_assert_eq!(back, mqp);
    }

    /// The envelope decoder is alone now: whatever bytes reach it —
    /// arbitrary bytes, read as text the way a peer must — it answers
    /// `Ok` or `Err` and never panics, and an envelope it accepts
    /// writes back and reads back unchanged.
    #[test]
    fn envelope_decoder_never_panics_on_arbitrary_input(
        bytes in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        use mqp::core::Mqp;

        let s = String::from_utf8_lossy(&bytes);
        for input in [s.to_string(), format!("<mqp><plan>{s}</plan></mqp>")] {
            if let Ok(m) = Mqp::from_wire(&input) {
                prop_assert_eq!(Mqp::from_wire(&m.to_wire()), Ok(m), "{}", input);
            }
        }
    }

    /// One byte of a real envelope deleted, doubled or overwritten: the
    /// decoder answers `Ok` or `Err`, and an envelope it accepts can be
    /// written and read back unchanged.
    #[test]
    fn envelope_decoder_survives_one_damaged_byte(
        plan in arb_data_plan(),
        op in 0u8..3,
        at in any::<prop::sample::Index>(),
        with in 0x20u8..0x7f,
    ) {
        use mqp::core::{Action, Constraints, Mqp, VisitRecord};

        let mut m = Mqp::new(Plan::display("c#1", plan))
            .with_constraints(Constraints::none().allow_only(["irs"]));
        m.record(VisitRecord {
            server: mqp::catalog::ServerId::new("meta"),
            action: Action::Bound,
            detail: "urn:A:x -> mqp://s/".to_owned(),
            at: 7,
            staleness: 30,
        });
        let mut bytes = m.to_wire().into_bytes();
        let i = at.index(bytes.len());
        match op {
            0 => drop(bytes.remove(i)),
            1 => bytes.insert(i, bytes[i]),
            _ => bytes[i] = with,
        }
        // Not UTF-8 any more: a `&str` decoder cannot be handed it.
        if let Ok(damaged) = String::from_utf8(bytes) {
            if let Ok(back) = Mqp::from_wire(&damaged) {
                prop_assert_eq!(Mqp::from_wire(&back.to_wire()), Ok(back), "{}", damaged);
            }
        }
    }

    /// DESIGN.md §7: the direct envelope writer is the tree form's
    /// spelling. Under arbitrary interleavings of plan mutation,
    /// provenance appends, and wire round-trips, `to_wire()` stays
    /// byte-identical to serializing the tree form — checked after
    /// *every* step, so a divergence anywhere shows up immediately.
    #[test]
    fn incremental_reserialization_is_byte_identical(
        plan in arb_data_plan(),
        ops in proptest::collection::vec((0u8..4, any::<prop::sample::Index>()), 0..10),
    ) {
        use mqp::catalog::ServerId;
        use mqp::core::{Action, Mqp, VisitRecord};

        let mut m = Mqp::new(Plan::display("c#1", plan));
        for (step, (op, pick)) in ops.into_iter().enumerate() {
            match op {
                // Mutate the plan.
                0 => {
                    let paths = m.plan().find_all(&|_| true);
                    let path = paths[pick.index(paths.len())].clone();
                    let _ = m.plan_mut().replace(&path, Plan::data([]));
                }
                // Append provenance.
                1 => m.record(VisitRecord {
                    server: ServerId::new(format!("s{step}")),
                    action: Action::Rewrote,
                    detail: format!("op {step} @ {}", pick.index(97)),
                    at: step as u64,
                    staleness: (step % 7) as u32,
                }),
                // Round-trip through the wire.
                2 => {
                    let wire = m.to_wire();
                    let back = Mqp::from_wire(&wire).expect("reparse");
                    prop_assert_eq!(&back, &m);
                    prop_assert_eq!(back.to_wire(), wire);
                    m = back;
                }
                // Touch the plan without changing it.
                _ => {
                    let _ = m.plan_mut();
                }
            }
            let full = mqp::xml::serialize(&m.to_xml());
            prop_assert_eq!(m.to_wire(), full);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DESIGN.md invariant 6 extended to the §6 fault model: for *any*
    /// fault-plan seed and knob setting, identical `FaultPlan`s produce
    /// identical delivery traces, statistics, and clocks — loss,
    /// jitter-reordering, duplication, and churn included.
    #[test]
    fn fault_plans_are_deterministic(
        seed in 0u64..=u64::MAX,
        loss in 0u32..40,
        jitter in 0u32..30,
        dup in 0u32..25,
        crashes in 0usize..8,
    ) {
        use mqp::net::{FaultPlan, SimNet, Topology};

        let plan = FaultPlan::new(seed)
            .with_loss(f64::from(loss) / 100.0)
            .with_jitter(f64::from(jitter) / 10.0)
            .with_duplication(f64::from(dup) / 100.0)
            .with_generated_churn(&[5, 6, 7, 8, 9, 10, 11], crashes, 500_000, 50_000);
        let run = || {
            let mut net: SimNet<u32> =
                SimNet::with_faults(Topology::clustered(12, 4, 50, 3_000), plan.clone());
            // A fixed send pattern with reactive re-sends, so the trace
            // depends on delivery order too (not just the send prefix).
            for i in 0..30usize {
                net.send(i % 12, (i * 7 + 2) % 12, 10 + i, i as u32);
            }
            let mut trace = Vec::new();
            while let Some(d) = net.step() {
                if d.payload < 30 && d.payload % 5 == 0 {
                    net.send(d.to, (d.to + 1) % 12, 8, d.payload + 100);
                }
                trace.push((d.at, d.from, d.to, d.payload));
            }
            let balanced = net.stats().balances(net.in_flight());
            (trace, net.stats().clone(), net.now(), balanced)
        };
        let first = run();
        prop_assert!(first.3, "accounting identity broken");
        prop_assert_eq!(first, run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DESIGN.md §8: the sans-IO `PeerNode` never fabricates traffic,
    /// and the driver's accounting identity
    /// `sent = delivered + dropped + lost + in-flight` survives
    /// *arbitrary interleavings* of `on_message` and `on_tick` — here
    /// produced by injecting spurious extra ticks at random nodes and
    /// times into a faulty, retrying run, and checking the identity
    /// after every single delivery. A tick with nothing expired must
    /// be a pure no-op, so the extra ticks cannot change what the
    /// queries themselves do.
    #[test]
    fn node_event_interleavings_preserve_accounting(
        seed in 0u64..=u64::MAX,
        loss in 0u32..25,
        dup in 0u32..20,
        extra_ticks in proptest::collection::vec((0usize..20, 0u64..2_000_000), 0..24),
    ) {
        use mqp::net::FaultPlan;
        use mqp::peer::{RetryPolicy, SimMsg};
        use mqp::workloads::garage::{build, query_for, GarageConfig};

        let mut w = build(GarageConfig {
            sellers: 14,
            items_per_seller: 2,
            ..GarageConfig::default()
        });
        let n = w.harness.len();
        w.harness.retry = Some(RetryPolicy {
            timeout_us: 300_000,
            max_retries: 2,
        });
        w.harness.net.set_fault_plan(
            FaultPlan::new(seed)
                .with_loss(f64::from(loss) / 100.0)
                .with_jitter(0.5)
                .with_duplication(f64::from(dup) / 100.0),
        );
        // Spurious ticks: arbitrary nodes, arbitrary times. The nodes
        // have no watches armed at those instants (or watches with
        // later deadlines), so `on_tick` must emit nothing.
        for &(node, at) in &extra_ticks {
            w.harness.net.schedule(node % n, at, SimMsg::Tick);
        }
        let mut submitted = 0usize;
        for (city, cat) in [
            ("USA/OR/Portland", "Music/CDs"),
            ("USA/WA/Seattle", "Furniture/Chairs"),
            ("France/IDF/Paris", "Books/Paperbacks"),
        ] {
            w.harness.submit(w.client, query_for(city, cat, None));
            submitted += 1;
            // Step one delivery at a time so the identity is checked at
            // every instant, not just at quiescence.
            while w.harness.run(1) == 1 {
                prop_assert!(
                    w.harness.net.stats().balances(w.harness.net.in_flight()),
                    "identity broken mid-run: {:?} with {} in flight",
                    w.harness.net.stats(),
                    w.harness.net.in_flight()
                );
            }
        }
        // Every submission reached a terminal state or stranded — but
        // nothing was double-counted: completed + pending == submitted.
        prop_assert_eq!(
            w.harness.completed().len() + w.harness.pending_count(),
            submitted
        );
        prop_assert_eq!(w.harness.net.in_flight(), 0);
    }
}

/// The whole simulation harness is deterministic: identical worlds and
/// query streams yield identical outcomes, bytes, and clocks.
#[test]
fn harness_runs_are_deterministic() {
    use mqp::workloads::garage::{build, random_query, GarageConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let run = || {
        let mut w = build(GarageConfig {
            sellers: 15,
            items_per_seller: 6,
            ..GarageConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let q = random_query(&mut rng, Some(80.0));
            w.harness.submit(w.client, q);
            w.harness.run(100_000);
        }
        let outcomes: Vec<(mqp::core::QueryId, usize, u64, u64, Option<String>)> = w
            .harness
            .completed()
            .iter()
            .map(|q| (q.qid, q.items.len(), q.hops, q.mqp_bytes, q.failure.clone()))
            .collect();
        let stats = w.harness.net.stats().clone();
        (outcomes, stats.messages_sent, stats.bytes_sent)
    };
    assert_eq!(run(), run());
}

/// Baseline determinism, same idea.
#[test]
fn baseline_runs_are_deterministic() {
    use mqp::baselines::{Chord, Flooding};
    use mqp::net::Topology;

    let chord = |n: usize| {
        let mut c = Chord::new(Topology::uniform(n, 1_000));
        c.publish(1, "k1");
        c.publish(2, "k2");
        let r = c.query(0, "k1");
        (r.holders.clone(), r.messages, r.latency_us)
    };
    assert_eq!(chord(32), chord(32));

    let flood = || {
        let mut f = Flooding::new(Topology::uniform(64, 1_000), 3, 11);
        f.publish(9, "k");
        let r = f.query(0, "k", 4);
        (r.holders.clone(), r.messages, r.latency_us)
    };
    assert_eq!(flood(), flood());
}
