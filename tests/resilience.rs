//! Cross-crate resilience tests: the DESIGN.md §6 fault model driven
//! through the whole stack — net, peer, core provenance, workloads —
//! under adversarial schedules.

use mqp::net::{ChurnEvent, FaultPlan, NodeId, SimNet, Topology};
use mqp::peer::RetryPolicy;
use mqp::workloads::garage::{build, query_for, GarageConfig};

/// The exact accounting identity holds at *every* instant of a faulty
/// run, not just at quiescence (ISSUE 2: "counters must sum").
#[test]
fn fault_accounting_is_exact_throughout() {
    let mut net: SimNet<u32> = SimNet::with_faults(
        Topology::clustered(12, 3, 100, 5_000),
        FaultPlan::new(21)
            .with_loss(0.25)
            .with_jitter(1.0)
            .with_duplication(0.2)
            .with_generated_churn(&[6, 7, 8, 9, 10, 11], 4, 200_000, 20_000),
    );
    for i in 0..60usize {
        net.send(i % 12, (i * 5 + 1) % 12, 40 + i, i as u32);
        assert!(
            net.stats().balances(net.in_flight()),
            "identity broken after send {i}: {:?} with {} in flight",
            net.stats(),
            net.in_flight()
        );
    }
    let mut steps = 0;
    while net.step().is_some() {
        steps += 1;
        assert!(
            net.stats().balances(net.in_flight()),
            "identity broken after delivery {steps}: {:?} with {} in flight",
            net.stats(),
            net.in_flight()
        );
    }
    let st = net.stats();
    assert_eq!(net.in_flight(), 0);
    assert!(st.messages_lost > 0, "25% loss must lose something");
    assert!(st.messages_duplicated > 0, "20% duplication must duplicate");
    assert_eq!(
        st.messages_sent,
        st.messages_delivered + st.messages_dropped + st.messages_lost
    );
}

/// A garage-sale world under loss + churn with retries: for this
/// (deterministic) schedule every submission completes — successfully
/// or with an explicit failure — and every success passes the §5.1
/// provenance audit even when it needed detours (invariant 7). (A
/// schedule that crashes a *watching* peer mid-timeout can still
/// strand its query — the liveness caveat of DESIGN.md §6; the churn
/// experiment counts those.)
#[test]
fn churned_world_completes_every_query_audit_clean() {
    let mut w = build(GarageConfig {
        sellers: 40,
        items_per_seller: 3,
        index_servers: 6,
        meta_servers: 2,
        ..GarageConfig::default()
    });
    let n = w.harness.len();
    w.harness.retry = Some(RetryPolicy {
        timeout_us: 300_000,
        max_retries: 3,
    });
    let eligible: Vec<NodeId> = (3..n).collect();
    w.harness.net.set_fault_plan(
        FaultPlan::new(11)
            .with_loss(0.05)
            .with_jitter(0.5)
            .with_generated_churn(&eligible, 12, 30_000_000, 2_000_000),
    );
    let cells = [
        ("USA/OR/Portland", "Music/CDs"),
        ("USA/WA/Seattle", "Furniture/Chairs"),
        ("USA/CA/LosAngeles", "Electronics/TV"),
        ("France/IDF/Paris", "Books/Paperbacks"),
        ("USA/OR/Portland", "Music/Vinyl"),
        ("USA/WA/Vancouver", "Electronics/VCR"),
    ];
    let mut detours = 0u64;
    for (city, cat) in cells.iter().cycle().take(18) {
        w.harness.submit(w.client, query_for(city, cat, None));
        w.harness.run(10_000_000);
        assert_eq!(
            w.harness.pending_count(),
            0,
            "query stranded with retry policy active"
        );
        let out = w.harness.take_completed().pop().expect("completed");
        detours += out.retries;
        if out.failure.is_none() {
            assert_ne!(
                out.audit_clean,
                Some(false),
                "successful query failed the provenance audit"
            );
        }
    }
    // The schedule above reliably forces at least one detour.
    assert!(detours > 0, "expected retries under churn");
    // A query whose ack was lost travels as two copies, each with its
    // own meter; the outcome reports the copy that finished (see
    // `wire::Meter`), the network counts every copy's retries.
    assert!(w.harness.net.stats().retries >= detours);
    assert!(w.harness.net.stats().balances(w.harness.net.in_flight()));
}

/// Full duplication: every message delivered twice, yet each query
/// completes exactly once and accounting still sums.
#[test]
fn duplicate_deliveries_complete_queries_once() {
    let mut w = build(GarageConfig {
        sellers: 12,
        items_per_seller: 2,
        ..GarageConfig::default()
    });
    w.harness.retry = Some(RetryPolicy::default());
    w.harness
        .net
        .set_fault_plan(FaultPlan::new(5).with_duplication(1.0));
    for (city, cat) in [
        ("USA/OR/Portland", "Music/CDs"),
        ("USA/WA/Seattle", "Furniture/Chairs"),
    ] {
        w.harness.submit(w.client, query_for(city, cat, None));
        w.harness.run(10_000_000);
    }
    let done = w.harness.take_completed();
    assert_eq!(done.len(), 2, "one completion per submission, no more");
    let st = w.harness.net.stats();
    assert!(st.messages_duplicated > 0);
    assert!(st.balances(w.harness.net.in_flight()));
    // No phantom retries: a duplicate re-completion must not leave an
    // armed watch behind, so every network-level retry is attributed
    // to some query's outcome.
    let attributed: u64 = done.iter().map(|q| q.retries).sum();
    assert_eq!(st.retries, attributed, "retry traffic for finished queries");
}

/// Churn events apply exactly at their scheduled simulated times,
/// independent of wall-clock and of how the caller interleaves sends.
#[test]
fn churn_schedule_is_clock_driven() {
    let plan = FaultPlan::new(0).with_churn(vec![
        ChurnEvent {
            at: 1_000,
            node: 1,
            up: false,
        },
        ChurnEvent {
            at: 5_000,
            node: 1,
            up: true,
        },
    ]);
    let mut net: SimNet<&'static str> = SimNet::with_faults(Topology::uniform(3, 500), plan);
    net.send(0, 1, 0, "before"); // arrives at 500: delivered
    assert_eq!(net.step().unwrap().payload, "before");
    net.send(0, 1, 0, "during"); // arrives at 1_000: crash at 1_000 wins
    assert!(net.step().is_none());
    assert!(net.is_down(1));
    // Idle until past the rejoin: a message sent at t=1_000 to node 2
    // keeps the clock honest, then node 1 answers again at 5_500.
    net.send(0, 2, 0, "tick");
    assert_eq!(net.step().unwrap().payload, "tick");
    for _ in 0..9 {
        net.send(0, 2, 0, "tick");
        net.step();
    }
    assert!(net.now() >= 5_000);
    net.send(0, 1, 0, "after");
    assert_eq!(net.step().unwrap().payload, "after");
    assert!(!net.is_down(1));
}

/// The same fault seed drives the same behavior through the *whole*
/// stack: byte-identical query outcomes, stats, and clocks.
#[test]
fn faulty_harness_runs_are_byte_identical() {
    let run = || {
        let mut w = build(GarageConfig {
            sellers: 25,
            items_per_seller: 3,
            ..GarageConfig::default()
        });
        let n = w.harness.len();
        w.harness.retry = Some(RetryPolicy {
            timeout_us: 250_000,
            max_retries: 2,
        });
        let eligible: Vec<NodeId> = (3..n).collect();
        w.harness.net.set_fault_plan(
            FaultPlan::new(33)
                .with_loss(0.1)
                .with_jitter(1.0)
                .with_duplication(0.05)
                .with_generated_churn(&eligible, 8, 20_000_000, 1_000_000),
        );
        for (city, cat) in [
            ("USA/OR/Portland", "Music/CDs"),
            ("USA/WA/Seattle", "Furniture/Chairs"),
            ("France/IDF/Paris", "Books/Paperbacks"),
            ("USA/CA/SanFrancisco", "Electronics/TV"),
        ] {
            w.harness
                .submit(w.client, query_for(city, cat, Some(120.0)));
            w.harness.run(10_000_000);
        }
        let outcomes: Vec<_> = w
            .harness
            .take_completed()
            .into_iter()
            .map(|q| {
                (
                    q.qid,
                    q.items.len(),
                    q.hops,
                    q.mqp_bytes,
                    q.retries,
                    q.latency_us,
                    q.failure,
                    q.audit_clean,
                )
            })
            .collect();
        (outcomes, w.harness.net.stats().clone(), w.harness.net.now())
    };
    assert_eq!(run(), run());
}
