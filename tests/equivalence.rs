//! Host equivalence (DESIGN.md §8, §11): the deterministic simulator
//! (`SimHarness`), the real-thread cluster (`ThreadedCluster`), and the
//! real-socket cluster (`TcpCluster`) drive the *identical* sans-IO
//! `PeerNode` state machine, so for the same topology, world, and
//! fault-free workload all three must produce identical sets of
//! `QueryOutcome`s — same answers, same hop counts, same §5.1 audit
//! verdicts, same failure reasons — and the same frames on the
//! network. Only latency (virtual vs wall clock) may differ.

use std::collections::BTreeMap;
use std::time::Duration;

use mqp::algebra::plan::Plan;
use mqp::core::QueryId;
use mqp::namespace::{Hierarchy, InterestArea, Namespace, Urn};
use mqp::net::Topology;
use mqp::peer::{Peer, RetryPolicy, SimHarness, SimMsg, TcpCluster, ThreadedCluster};
use mqp::xml::parse;

fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland", "USA/WA/Seattle"]),
        Hierarchy::new("Merchandise").with(["Music/CDs", "Furniture/Chairs"]),
    ])
}

fn area(loc: &str, cat: &str) -> InterestArea {
    InterestArea::parse(&[&[loc, cat]])
}

/// A moderately interesting world: client, meta-index, city index, and
/// four sellers across two cities and two categories. Built fresh for
/// each host so neither can leak state into the other.
fn world() -> Vec<Peer> {
    let client = Peer::new("client", ns()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns());
    let mut idx = Peer::new("idx-pdx", ns());
    let mut sellers = Vec::new();
    for (i, (loc, cat, rows)) in [
        ("USA/OR/Portland", "Music/CDs", vec![("A", 8), ("B", 12)]),
        ("USA/OR/Portland", "Music/CDs", vec![("C", 9)]),
        ("USA/WA/Seattle", "Furniture/Chairs", vec![("D", 30)]),
        (
            "USA/OR/Portland",
            "Furniture/Chairs",
            vec![("E", 4), ("F", 40)],
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let id = format!("seller-{i}");
        let mut s = Peer::new(id.clone(), ns());
        s.add_collection(
            "stock",
            area(loc, cat),
            rows.iter().map(|(t, p)| {
                parse(&format!(
                    "<item><title>{t}</title><price>{p}</price></item>"
                ))
                .unwrap()
            }),
        );
        // Portland sellers register with the city index; everyone with
        // the meta server.
        if loc.contains("Portland") {
            idx.catalog_mut().register(s.base_entry());
        }
        meta.catalog_mut().register(s.base_entry());
        sellers.push(s);
    }
    meta.catalog_mut().register(
        mqp::catalog::CatalogEntry::index("idx-pdx", area("USA/OR/Portland", "*")).authoritative(),
    );
    let mut peers = vec![client, meta, idx];
    peers.extend(sellers);
    peers
}

/// The shared workload: successes across both cities, a multi-seller
/// area query, a direct-URL query, and one query that gets stuck.
fn workload() -> Vec<Plan> {
    vec![
        Plan::select(
            "price < 10",
            Plan::Urn(mqp::algebra::plan::UrnRef::new(Urn::area(area(
                "USA/OR/Portland",
                "Music/CDs",
            )))),
        ),
        Plan::Urn(mqp::algebra::plan::UrnRef::new(Urn::area(area(
            "USA/WA/Seattle",
            "Furniture/Chairs",
        )))),
        Plan::select("price < 50", Plan::url("mqp://seller-3/")),
        // Nobody holds French cheese: identical stuck reason expected.
        Plan::Urn(mqp::algebra::plan::UrnRef::new(Urn::area(area(
            "USA/WA/Seattle",
            "Music/CDs",
        )))),
        Plan::or([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]),
    ]
}

/// The host-independent fingerprint of an outcome: everything except
/// what a clock reading enters — latency, and the envelope byte total
/// (visit records are stamped in decimal).
type Fingerprint = (Option<String>, Vec<String>, u64, Option<bool>, u64);

fn fingerprint(q: &mqp::core::QueryOutcome) -> Fingerprint {
    let mut items: Vec<String> = q.items.iter().map(mqp::xml::serialize).collect();
    items.sort();
    (q.failure.clone(), items, q.hops, q.audit_clean, q.retries)
}

#[test]
fn sim_threaded_and_tcp_hosts_agree_on_every_outcome() {
    // --- simulator run ---
    let mut sim_outcomes: BTreeMap<QueryId, Fingerprint> = BTreeMap::new();
    let n = world().len();
    let mut h = SimHarness::new(Topology::uniform(n, 5_000), world());
    for plan in workload() {
        h.submit(0, plan);
        h.run(100_000);
    }
    assert_eq!(h.pending_count(), 0, "simulator stranded a query");
    for q in h.take_completed() {
        sim_outcomes.insert(q.qid, fingerprint(&q));
    }

    // --- threaded run, same world, all queries in flight at once ---
    let (cluster, mut client) = ThreadedCluster::new(world());
    let plans = workload();
    let qids: Vec<QueryId> = plans.iter().map(|p| client.submit(0, p)).collect();
    let done = client.collect(qids.len(), Duration::from_secs(30));
    cluster.shutdown(&client);
    assert_eq!(done.len(), qids.len(), "cluster lost a query");
    let thr_outcomes: BTreeMap<QueryId, Fingerprint> =
        done.iter().map(|q| (q.qid, fingerprint(q))).collect();

    // --- TCP run, same world, real sockets ---
    let (tcp, mut tcp_client) = TcpCluster::new(world());
    let tcp_qids: Vec<QueryId> = plans.iter().map(|p| tcp_client.submit(0, p)).collect();
    let tcp_done = tcp_client.collect(tcp_qids.len(), Duration::from_secs(30));
    let socket_stats = tcp.shutdown(&mut tcp_client);
    assert_eq!(tcp_done.len(), tcp_qids.len(), "tcp cluster lost a query");
    assert!(socket_stats.balances(0), "unbalanced: {socket_stats:?}");
    let tcp_outcomes: BTreeMap<QueryId, Fingerprint> =
        tcp_done.iter().map(|q| (q.qid, fingerprint(q))).collect();

    // Identical sets: same qids, and per qid the same answer items,
    // failure reason, hop count, audit verdict, and retry count —
    // across all three hosts.
    assert_eq!(sim_outcomes.len(), thr_outcomes.len());
    assert_eq!(sim_outcomes.len(), tcp_outcomes.len());
    for (qid, sim_fp) in &sim_outcomes {
        let thr_fp = thr_outcomes
            .get(qid)
            .unwrap_or_else(|| panic!("query {qid} missing from threaded run"));
        assert_eq!(sim_fp, thr_fp, "query {qid} diverged sim vs threaded");
        let tcp_fp = tcp_outcomes
            .get(qid)
            .unwrap_or_else(|| panic!("query {qid} missing from tcp run"));
        assert_eq!(sim_fp, tcp_fp, "query {qid} diverged sim vs tcp");
    }

    // The workload exercised both success and failure paths.
    assert!(sim_outcomes.values().any(|f| f.0.is_none()));
    assert!(sim_outcomes.values().any(|f| f.0.is_some()));
    assert!(sim_outcomes.values().any(|f| f.3 == Some(true)));
}

/// The simulator's network carries the frames the host's transport
/// carries: with no faults, the same queries put the same number of
/// frames and the same number of frame bytes on `SimNet` and on the
/// mpsc mesh — with watches armed (acks travel, timers never fire) and
/// without a retry policy (nothing is acked). The node decides every
/// ack, so neither host has anything to correct for. Every clock
/// reading a frame carries (the meter's submission stamp, each visit's
/// `at`) is written in decimal, so both runs are held inside one decade
/// of their clocks, [1 s, 10 s).
#[test]
fn sim_and_threaded_networks_carry_identical_frames() {
    let watched = RetryPolicy {
        timeout_us: 60_000_000,
        ..RetryPolicy::default()
    };
    let decade = Duration::from_secs(1);
    for retry in [None, Some(watched)] {
        let n = world().len();
        let mut h = SimHarness::new(Topology::uniform(n, 5_000), world());
        h.retry = retry;
        h.net.schedule(0, decade.as_micros() as u64, SimMsg::Tick);
        h.run(1);
        let queries = workload().into_iter().map(|p| h.submit(0, p)).count();
        h.run(100_000);
        assert_eq!(h.pending_count(), 0, "simulator stranded a query");
        assert!(h.completed().iter().all(|q| q.latency_us < 9_000_000));
        let sim = h.net.stats();
        assert_eq!(sim.retries, 0);

        let (cluster, mut client) = ThreadedCluster::with_config(world(), retry, Duration::ZERO);
        std::thread::sleep(decade);
        for plan in workload() {
            client.submit(0, &plan);
        }
        let done = client.collect(queries, 8 * decade);
        let mesh = cluster.shutdown(&client);
        assert_eq!(done.len(), queries, "cluster lost a query");
        assert_eq!(mesh.retries, 0);

        assert_eq!(mesh.frames_sent, sim.messages_sent, "retry {retry:?}");
        assert_eq!(mesh.bytes_sent, sim.bytes_sent, "retry {retry:?}");
    }
}

/// The two hosts also agree under repetition with many queries in
/// flight at once on the threaded side — outcome sets are stable
/// across submission interleavings because fault-free protocol state
/// is per-query.
#[test]
fn threaded_outcomes_are_stable_across_runs() {
    let run = || {
        let (cluster, mut client) = ThreadedCluster::new(world());
        let plans = workload();
        let qids: Vec<QueryId> = (0..3)
            .flat_map(|_| {
                plans
                    .iter()
                    .map(|p| client.submit(0, p))
                    .collect::<Vec<_>>()
            })
            .collect();
        let done = client.collect(qids.len(), Duration::from_secs(30));
        cluster.shutdown(&client);
        assert_eq!(done.len(), qids.len());
        let mut fps: Vec<Fingerprint> = done.iter().map(fingerprint).collect();
        fps.sort();
        fps
    };
    assert_eq!(run(), run());
}

/// The threaded and socket drivers expose the same kill/restart API
/// and drive the same recovery state machine (DESIGN.md §12): the same
/// kill/restart schedule against the same durable world yields the
/// same outcome fingerprints — answers, failure reasons, and audit
/// verdicts — before and after the power cycle. Hop and retry counts
/// are excluded: wall-clock churn timing may legitimately shift them
/// between drivers.
#[test]
fn threaded_and_tcp_agree_under_durable_kill_restart() {
    use mqp::catalog::durable::{DurableCatalog, MemDisk, SharedDisk};

    // seller-0 (node 3) journals its catalog, so kill models process
    // death — the in-memory catalog is wiped and must recover from the
    // WAL — instead of the volatile interface cut.
    fn durable_world() -> Vec<Peer> {
        let mut peers = world();
        peers[3].enable_durability(DurableCatalog::new(SharedDisk::new(MemDisk::new())));
        peers
    }
    fn relaxed(q: &mqp::core::QueryOutcome) -> (Option<String>, Vec<String>, Option<bool>) {
        let mut items: Vec<String> = q.items.iter().map(mqp::xml::serialize).collect();
        items.sort();
        (q.failure.clone(), items, q.audit_clean)
    }
    let plan = Plan::select("price < 50", Plan::url("mqp://seller-0/"));
    let settle = || std::thread::sleep(Duration::from_millis(120));

    let (cluster, mut client) = ThreadedCluster::new(durable_world());
    client.submit(0, &plan);
    let thr_before = client.collect(1, Duration::from_secs(30));
    cluster.kill(3);
    settle();
    cluster.restart(3);
    settle();
    client.submit(0, &plan);
    let thr_after = client.collect(1, Duration::from_secs(30));
    cluster.shutdown(&client);
    assert_eq!(thr_before.len(), 1, "threaded pre-churn query stranded");
    assert_eq!(thr_after.len(), 1, "threaded post-churn query stranded");

    let (tcp, mut tcp_client) = TcpCluster::new(durable_world());
    tcp_client.submit(0, &plan);
    let tcp_before = tcp_client.collect(1, Duration::from_secs(30));
    tcp.kill(3);
    settle();
    tcp.restart(3);
    settle();
    tcp_client.submit(0, &plan);
    let tcp_after = tcp_client.collect(1, Duration::from_secs(30));
    let stats = tcp.shutdown(&mut tcp_client);
    assert_eq!(tcp_before.len(), 1, "tcp pre-churn query stranded");
    assert_eq!(tcp_after.len(), 1, "tcp post-churn query stranded");
    assert!(stats.balances(0), "unbalanced: {stats:?}");

    assert_eq!(
        relaxed(&thr_before[0]),
        relaxed(&tcp_before[0]),
        "pre-churn outcomes diverged"
    );
    assert_eq!(
        relaxed(&thr_after[0]),
        relaxed(&tcp_after[0]),
        "post-churn outcomes diverged"
    );
    // And the recovered peer really answered: both cheap CDs, clean.
    let q = &thr_after[0];
    assert!(q.failure.is_none(), "{:?}", q.failure);
    let (_, items, audit) = relaxed(q);
    assert_eq!(items.len(), 2, "recovered seller must serve its stock");
    assert_eq!(audit, Some(true));
}

/// The §4.3 policy demo plan: a fresh two-site union vs a stale
/// one-site mirror of the same Portland CD stock. Under the default
/// `Policy::current()` every driver commits the union (3 items: A, B,
/// C); under a hot-loaded `when always then choose fast` rule set every
/// driver commits the cheaper single-site alternative (2 items: A, B).
fn or_plan() -> Plan {
    use mqp::algebra::plan::OrAlt;
    Plan::Or(vec![
        OrAlt {
            plan: Plan::union([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]),
            staleness: None,
        },
        OrAlt {
            plan: Plan::url("mqp://seller-0/"),
            staleness: Some(30),
        },
    ])
}

/// The rule set every hot-reload test ships, compiled from the same DSL
/// text committed as `queries/fast_fallback.mqpp`.
fn fast_rules() -> mqp::core::RuleSet {
    mqp::lang::parse_policy("when always then choose fast\n").expect("policy text compiles")
}

/// Policy hot reload changes routing behavior on all three drivers
/// without restarting anything: the same `or` query commits the union
/// before the reload and the single-site alternative after it, and the
/// accounting stays clean on every host (no stranded queries, balanced
/// socket frames).
#[test]
fn policy_hot_reload_changes_routing_on_all_three_drivers() {
    let rules = fast_rules();

    // --- simulator ---
    let n = world().len();
    let mut h = SimHarness::new(Topology::uniform(n, 5_000), world());
    let count = |h: &mut SimHarness| -> usize {
        h.submit(0, or_plan());
        h.run(100_000);
        let out = h.take_completed().pop().expect("query completed");
        assert!(
            out.failure.is_none(),
            "sim or-query failed: {:?}",
            out.failure
        );
        out.items.len()
    };
    let sim_before = count(&mut h);
    for node in 0..n {
        h.push_policy(0, node, rules.clone());
    }
    h.run(100_000);
    let sim_after = count(&mut h);
    assert_eq!(h.pending_count(), 0, "simulator stranded a query");
    assert_eq!(
        (sim_before, sim_after),
        (3, 2),
        "sim routing did not change"
    );

    // --- threaded cluster, same world and reload sequence ---
    let settle = || std::thread::sleep(Duration::from_millis(120));
    let (cluster, mut client) = ThreadedCluster::new(world());
    client.submit(0, &or_plan());
    let before = client.collect(1, Duration::from_secs(30));
    for node in 0..n {
        assert!(client.push_policy(node, &rules), "worker {node} gone");
    }
    settle();
    client.submit(0, &or_plan());
    let after = client.collect(1, Duration::from_secs(30));
    cluster.shutdown(&client);
    assert_eq!(
        (before.len(), after.len()),
        (1, 1),
        "threaded query stranded"
    );
    assert!(before[0].failure.is_none() && after[0].failure.is_none());
    assert_eq!(
        (before[0].items.len(), after[0].items.len()),
        (3, 2),
        "threaded routing did not change"
    );

    // --- TCP cluster, real sockets ---
    let (tcp, mut tcp_client) = TcpCluster::new(world());
    tcp_client.submit(0, &or_plan());
    let tcp_before = tcp_client.collect(1, Duration::from_secs(30));
    for node in 0..n {
        assert!(
            tcp_client.push_policy(node, &rules),
            "node {node} unreachable"
        );
    }
    settle();
    tcp_client.submit(0, &or_plan());
    let tcp_after = tcp_client.collect(1, Duration::from_secs(30));
    let stats = tcp.shutdown(&mut tcp_client);
    assert_eq!(
        (tcp_before.len(), tcp_after.len()),
        (1, 1),
        "tcp query stranded"
    );
    assert!(tcp_before[0].failure.is_none() && tcp_after[0].failure.is_none());
    assert_eq!(
        (tcp_before[0].items.len(), tcp_after[0].items.len()),
        (3, 2),
        "tcp routing did not change"
    );
    assert!(stats.balances(0), "unbalanced after hot reload: {stats:?}");
}

/// A policy swap while queries are in flight must not corrupt anything:
/// every query still completes exactly once with a valid answer (the
/// union's 3 items if its `or` was decided before the rules landed, the
/// single-site 2 if after), nothing strands, and the socket frame
/// accounting still balances to zero. In-flight envelopes keep their
/// meters; only the *decision* at the next processing step changes.
#[test]
fn policy_swap_mid_query_keeps_accounting_clean() {
    let rules = fast_rules();
    let n = world().len();
    let valid = |q: &mqp::core::QueryOutcome| {
        assert!(
            q.failure.is_none(),
            "mid-swap query failed: {:?}",
            q.failure
        );
        assert!(
            q.items.len() == 2 || q.items.len() == 3,
            "mid-swap query returned {} items (want the union's 3 or the \
             single-site 2)",
            q.items.len()
        );
    };

    // Simulator: the policy frames race the query through the same
    // virtual network, so the swap lands genuinely mid-flight.
    let mut h = SimHarness::new(Topology::uniform(n, 5_000), world());
    for _ in 0..3 {
        h.submit(0, or_plan());
    }
    for node in 0..n {
        h.push_policy(0, node, rules.clone());
    }
    h.run(200_000);
    assert_eq!(h.pending_count(), 0, "simulator stranded a mid-swap query");
    let done = h.take_completed();
    assert_eq!(done.len(), 3);
    done.iter().for_each(&valid);

    // Threaded: six queries in flight when the rules are pushed.
    let (cluster, mut client) = ThreadedCluster::new(world());
    let qids: Vec<QueryId> = (0..6).map(|_| client.submit(0, &or_plan())).collect();
    for node in 0..n {
        assert!(client.push_policy(node, &rules), "worker {node} gone");
    }
    let done = client.collect(qids.len(), Duration::from_secs(30));
    cluster.shutdown(&client);
    assert_eq!(
        done.len(),
        qids.len(),
        "threaded cluster lost a mid-swap query"
    );
    done.iter().for_each(&valid);

    // TCP: same interleaving over real sockets, plus the zero-balance
    // frame identity — a corrupted in-flight meter would break it.
    let (tcp, mut tcp_client) = TcpCluster::new(world());
    let qids: Vec<QueryId> = (0..6).map(|_| tcp_client.submit(0, &or_plan())).collect();
    for node in 0..n {
        assert!(
            tcp_client.push_policy(node, &rules),
            "node {node} unreachable"
        );
    }
    let done = tcp_client.collect(qids.len(), Duration::from_secs(30));
    let stats = tcp.shutdown(&mut tcp_client);
    assert_eq!(done.len(), qids.len(), "tcp cluster lost a mid-swap query");
    done.iter().for_each(&valid);
    assert!(
        stats.balances(0),
        "unbalanced after mid-query swap: {stats:?}"
    );
}

/// The multi-origin binding defense (DESIGN.md §14) is part of the
/// sans-IO `PeerNode` state machine, so the same adversarial
/// registration schedule must yield the same quarantine outcome on all
/// three drivers: the hijacker's conflicting binding draws count-probe
/// verification rounds, two strikes land it in quarantine, and the
/// contested-cell query commits an identical, poison-free answer
/// everywhere.
#[test]
fn quarantine_outcomes_agree_across_all_three_drivers() {
    use mqp::catalog::CatalogEntry;

    let cell = || area("USA/OR/Portland", "Furniture/Chairs");
    // world() peers: client(0), meta(1), idx-pdx(2, the verifier),
    // sellers 3..7; seller-3 (node 6) holds the contested cell's two
    // honest items. The mirror copies them exactly — same counts, same
    // bytes, so probes agree; the hijacker holds one divergent poisoned
    // item.
    fn defense_world() -> Vec<Peer> {
        let mut peers = world();
        peers[2].enable_defense();
        let mut mirror = Peer::new("mirror-3", ns());
        mirror.add_collection(
            "copy",
            area("USA/OR/Portland", "Furniture/Chairs"),
            [
                parse("<item><title>E</title><price>4</price></item>").unwrap(),
                parse("<item><title>F</title><price>40</price></item>").unwrap(),
            ],
        );
        let mut hijack = Peer::new("hijack-3", ns());
        hijack.add_collection(
            "loot",
            area("USA/OR/Portland", "Furniture/Chairs"),
            [parse("<item><title>X</title><price>1</price><poison>1</poison></item>").unwrap()],
        );
        peers.push(mirror);
        peers.push(hijack);
        peers
    }
    // The schedule, as (target-index, entry) waves: honest claimants
    // first (holder + mirror — the round that seeds consistent
    // history), then the hijacker twice (strike one, strike two →
    // quarantine).
    let waves: Vec<Vec<CatalogEntry>> = vec![
        vec![
            CatalogEntry::base("seller-3", cell()),
            CatalogEntry::base("mirror-3", cell()),
        ],
        vec![CatalogEntry::base("hijack-3", cell())],
        vec![CatalogEntry::base("hijack-3", cell())],
    ];
    let probe_query = || {
        Plan::Urn(mqp::algebra::plan::UrnRef::new(Urn::area(area(
            "USA/OR/Portland",
            "Furniture/Chairs",
        ))))
    };
    let check_answer = |items: &[String], driver: &str| {
        assert!(
            !items.is_empty(),
            "{driver}: contested-cell query returned nothing"
        );
        assert!(
            items.iter().all(|i| !i.contains("<poison>")),
            "{driver}: poisoned item survived quarantine: {items:?}"
        );
    };

    // --- simulator ---
    let n = defense_world().len();
    let mut h = SimHarness::new(Topology::uniform(n, 5_000), defense_world());
    for wave in &waves {
        for entry in wave {
            h.send_registration(0, 2, entry.clone());
        }
        h.run(500_000);
    }
    h.submit(0, probe_query());
    h.run(500_000);
    let out = h.take_completed().pop().expect("sim query completed");
    assert!(out.failure.is_none(), "sim: {:?}", out.failure);
    let mut sim_items: Vec<String> = out.items.iter().map(mqp::xml::serialize).collect();
    sim_items.sort();
    check_answer(&sim_items, "sim");

    // --- threaded cluster, same schedule over channels ---
    let settle = || std::thread::sleep(Duration::from_millis(200));
    let (cluster, mut client) = ThreadedCluster::new(defense_world());
    for wave in &waves {
        for entry in wave {
            assert!(client.register(2, entry), "verifier worker gone");
        }
        settle();
    }
    client.submit(0, &probe_query());
    let done = client.collect(1, Duration::from_secs(30));
    cluster.shutdown(&client);
    assert_eq!(done.len(), 1, "threaded query stranded");
    assert!(done[0].failure.is_none(), "threaded: {:?}", done[0].failure);
    let mut thr_items: Vec<String> = done[0].items.iter().map(mqp::xml::serialize).collect();
    thr_items.sort();
    check_answer(&thr_items, "threaded");

    // --- TCP cluster, same schedule over real sockets ---
    let (tcp, mut tcp_client) = TcpCluster::new(defense_world());
    for wave in &waves {
        for entry in wave {
            assert!(tcp_client.register(2, entry), "verifier unreachable");
        }
        settle();
    }
    tcp_client.submit(0, &probe_query());
    let tcp_done = tcp_client.collect(1, Duration::from_secs(30));
    let stats = tcp.shutdown(&mut tcp_client);
    assert_eq!(tcp_done.len(), 1, "tcp query stranded");
    assert!(
        tcp_done[0].failure.is_none(),
        "tcp: {:?}",
        tcp_done[0].failure
    );
    let mut tcp_items: Vec<String> = tcp_done[0].items.iter().map(mqp::xml::serialize).collect();
    tcp_items.sort();
    check_answer(&tcp_items, "tcp");
    assert!(stats.balances(0), "unbalanced after quarantine: {stats:?}");

    // Identical answers everywhere: the quarantine decision — not just
    // the query result — matched, because an unquarantined hijacker
    // would have poisoned at least one driver's answer.
    assert_eq!(sim_items, thr_items, "sim vs threaded diverged");
    assert_eq!(sim_items, tcp_items, "sim vs tcp diverged");
}

/// Same stability property on the socket host: repeated runs with the
/// whole workload tripled and in flight at once produce identical
/// outcome multisets, with exact frame accounting every time.
#[test]
fn tcp_outcomes_are_stable_across_runs() {
    let run = || {
        let (cluster, mut client) = TcpCluster::new(world());
        let plans = workload();
        let qids: Vec<QueryId> = (0..3)
            .flat_map(|_| {
                plans
                    .iter()
                    .map(|p| client.submit(0, p))
                    .collect::<Vec<_>>()
            })
            .collect();
        let done = client.collect(qids.len(), Duration::from_secs(30));
        let stats = cluster.shutdown(&mut client);
        assert_eq!(done.len(), qids.len());
        assert!(stats.balances(0), "unbalanced: {stats:?}");
        let mut fps: Vec<Fingerprint> = done.iter().map(fingerprint).collect();
        fps.sort();
        fps
    };
    assert_eq!(run(), run());
}
