//! Fault-path tests for the TCP driver: kill and restart real peer
//! sockets mid-query and check that the protocol's retry machinery —
//! unchanged from the simulator — completes every completable query,
//! records the detours as `Action::Retried` provenance, and that the
//! transport's frame accounting stays exact through the churn.

use std::time::Duration;

use mqp_algebra::plan::Plan;
use mqp_catalog::durable::{DurableCatalog, MemDisk, SharedDisk};
use mqp_catalog::CatalogEntry;
use mqp_core::QueryId;
use mqp_namespace::{Hierarchy, InterestArea, Namespace};
use mqp_peer::node::RetryPolicy;
use mqp_peer::tcp::{TcpCluster, TcpConfig};
use mqp_peer::Peer;
use mqp_xml::parse;

fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland"]),
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ])
}

fn pdx_cds() -> InterestArea {
    InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]])
}

/// client (node 0), meta (node 1), and two sellers (nodes 2 and 3)
/// holding the same area — so every area/Or query has a live
/// alternative when one seller is down.
fn world() -> Vec<Peer> {
    let client = Peer::new("client", ns()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns());
    let mut s0 = Peer::new("seller-0", ns());
    s0.add_collection(
        "cds",
        pdx_cds(),
        [parse("<item><title>A</title><price>8</price></item>").unwrap()],
    );
    let mut s1 = Peer::new("seller-1", ns());
    s1.add_collection(
        "cds",
        pdx_cds(),
        [parse("<item><title>B</title><price>9</price></item>").unwrap()],
    );
    meta.catalog_mut().register(s0.base_entry());
    meta.catalog_mut().register(s1.base_entry());
    vec![client, meta, s0, s1]
}

fn churn_config() -> TcpConfig {
    TcpConfig {
        retry: Some(RetryPolicy {
            timeout_us: 150_000,
            max_retries: 8,
        }),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(50),
        ..TcpConfig::default()
    }
}

const SELLER_0: usize = 2;

/// Give an async kill/restart control message time to take effect.
fn settle() {
    std::thread::sleep(Duration::from_millis(100));
}

/// A peer killed mid-query is retried around: the watch at the sender
/// times out, prunes the dead alternative (§4.2), re-resolves to the
/// surviving seller, and the query completes — audit-clean, with the
/// detour on the record.
#[test]
fn killed_peer_is_retried_around() {
    let (cluster, mut client) = TcpCluster::with_config(world(), churn_config());
    cluster.kill(SELLER_0);
    settle();
    let or_plan = Plan::or([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]);
    let qids: Vec<QueryId> = (0..4).map(|_| client.submit(0, &or_plan)).collect();
    let done = client.collect(qids.len(), Duration::from_secs(30));
    assert_eq!(done.len(), qids.len(), "queries stranded by the kill");
    for q in &done {
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert!(q.retries >= 1, "no retry recorded for {:?}", q.qid);
        assert_eq!(q.audit_clean, Some(true), "retry detour flagged by audit");
        let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        assert_eq!(titles, ["B"], "answer must come from the live seller");
    }
    let stats = cluster.shutdown(&mut client);
    assert!(stats.retries >= qids.len() as u64);
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// A URL query names one specific server: with it down there is no
/// alternative to prune, so the watch resends to the same hop — and
/// when the peer rejoins (fresh port, same protocol state), the resend
/// lands and the query completes.
#[test]
fn restarted_peer_serves_again() {
    let (cluster, mut client) = TcpCluster::with_config(world(), churn_config());
    cluster.kill(SELLER_0);
    settle();
    let qid = client.submit(0, &Plan::url("mqp://seller-0/"));
    // Keep the peer down long enough for at least one timeout to fire.
    std::thread::sleep(Duration::from_millis(300));
    cluster.restart(SELLER_0);
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "query stranded across restart");
    let q = &done[0];
    assert_eq!(q.qid, qid);
    assert!(q.failure.is_none(), "{:?}", q.failure);
    let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
    assert_eq!(titles, ["A"], "restarted seller must serve its own data");
    let stats = cluster.shutdown(&mut client);
    assert!(stats.connects >= 2, "forward and reply links must connect");
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// Kill/restart churn under a continuous stream: every query completes
/// (via the survivor or the rejoined peer) and the accounting identity
/// holds exactly when the dust settles.
#[test]
fn churn_mid_stream_loses_nothing() {
    let (cluster, mut client) = TcpCluster::with_config(world(), churn_config());
    let or_plan = Plan::or([Plan::url("mqp://seller-0/"), Plan::url("mqp://seller-1/")]);
    let total = 30;
    let mut done = Vec::new();
    for i in 0..total {
        client.submit(0, &or_plan);
        if i == 10 {
            cluster.kill(SELLER_0);
        }
        if i == 20 {
            cluster.restart(SELLER_0);
        }
        done.extend(client.poll());
    }
    done.extend(client.collect(total - done.len(), Duration::from_secs(30)));
    assert_eq!(done.len(), total, "churn stranded a query");
    for q in &done {
        assert!(q.failure.is_none(), "{:?}", q.failure);
        assert_eq!(q.audit_clean, Some(true));
        assert_eq!(q.items.len(), 1);
    }
    let stats = cluster.shutdown(&mut client);
    assert!(stats.connects >= 2, "restart must reconnect links");
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// A *durable* peer models process death, not just an interface cut:
/// the kill wipes its in-memory catalog, and the restart replays the
/// WAL (prefix-consistent), re-announces the surviving bindings as
/// `reg` frames through the normal transport accounting, and serves
/// queries audit-clean again.
#[test]
fn durable_peer_recovers_registrations_across_kill_restart() {
    let mut peers = world();
    // seller-0 journals its catalog — which holds its own base entry
    // plus knowledge of the meta-index, so a restarted seller has
    // somewhere to re-announce to.
    peers[SELLER_0]
        .catalog_mut()
        .register(CatalogEntry::index("meta", pdx_cds()));
    peers[SELLER_0].enable_durability(DurableCatalog::new(SharedDisk::new(MemDisk::new())));
    let (cluster, mut client) = TcpCluster::with_config(peers, churn_config());

    let plan = Plan::url("mqp://seller-0/");
    client.submit(0, &plan);
    let before = client.collect(1, Duration::from_secs(30));
    assert_eq!(before.len(), 1);
    assert!(before[0].failure.is_none(), "{:?}", before[0].failure);

    cluster.kill(SELLER_0);
    settle();
    cluster.restart(SELLER_0);
    settle(); // recovery replay + re-announcements to meta

    let qid = client.submit(0, &plan);
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "query stranded across durable restart");
    let q = &done[0];
    assert_eq!(q.qid, qid);
    assert!(q.failure.is_none(), "{:?}", q.failure);
    let titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
    assert_eq!(titles, ["A"], "recovered seller must serve its own data");
    assert_eq!(q.audit_clean, Some(true));
    let stats = cluster.shutdown(&mut client);
    // The re-announcements are real frames through the normal
    // enqueue path, so the sender-side identity must still be exact.
    assert!(
        stats.balances(0),
        "unbalanced with re-announcement traffic: {stats:?}"
    );
}

/// With a finite reconnect budget, frames for a peer that never comes
/// back are shed as `dropped_disconnected` — and the query fails with
/// the protocol's own give-up reason instead of hanging forever.
#[test]
fn dead_link_sheds_frames_and_query_fails_cleanly() {
    let cfg = TcpConfig {
        retry: Some(RetryPolicy {
            timeout_us: 80_000,
            max_retries: 2,
        }),
        max_link_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(10),
    };
    let (cluster, mut client) = TcpCluster::with_config(world(), cfg);
    cluster.kill(SELLER_0);
    settle();
    let qid = client.submit(0, &Plan::url("mqp://seller-0/"));
    let done = client.collect(1, Duration::from_secs(30));
    assert_eq!(done.len(), 1, "failed query must still report an outcome");
    let q = &done[0];
    assert_eq!(q.qid, qid);
    let failure = q.failure.as_deref().expect("query must fail: peer is gone");
    assert!(
        failure.contains("unresponsive"),
        "unexpected reason {failure:?}"
    );
    let stats = cluster.shutdown(&mut client);
    assert!(
        stats.dropped_disconnected >= 1,
        "dead link must shed its frames: {stats:?}"
    );
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}

/// The front-end reaches a restarted peer on its first attempt. Its
/// connection to the old incarnation is dead but still writable, so a
/// sender that does not probe it loses the frame while reporting
/// success; the front-end sends over the same links peers use, which
/// notice the EOF, redial the fresh port and resend.
#[test]
fn front_end_reaches_restarted_peer_on_first_attempt() {
    // meta starts out knowing seller-0 only.
    let mut peers = world();
    let (s0_entry, s1_entry) = (peers[SELLER_0].base_entry(), peers[3].base_entry());
    peers[1] = Peer::new("meta", ns());
    peers[1].catalog_mut().register(s0_entry);
    let (cluster, mut client) = TcpCluster::new(peers);
    let area = Plan::Urn(mqp_algebra::plan::UrnRef::new(mqp_namespace::Urn::area(
        pdx_cds(),
    )));
    let answer = |client: &mut mqp_peer::TcpClient, what: &str| -> Vec<String> {
        client.submit(0, &area);
        let done = client.collect(1, Duration::from_secs(5));
        assert_eq!(done.len(), 1, "{what}: submit lost");
        assert!(done[0].failure.is_none(), "{what}: {:?}", done[0].failure);
        let mut titles: Vec<String> = done[0]
            .items
            .iter()
            .filter_map(|i| i.field("title"))
            .collect();
        titles.sort();
        titles
    };

    // Warm up: the front-end now holds connections to nodes 0 and 1.
    assert!(client.push_policy(1, &mqp_core::RuleSet::default()));
    assert_eq!(answer(&mut client, "warm-up"), ["A"]);

    for node in [0, 1] {
        cluster.kill(node);
    }
    settle();
    for node in [0, 1] {
        cluster.restart(node);
    }
    settle();

    let before = cluster.stats().frames_received;
    assert!(client.push_policy(1, &mqp_core::RuleSet::default()));
    settle();
    assert_eq!(
        cluster.stats().frames_received - before,
        2,
        "meta must receive the front-end's hello and its policy frame"
    );
    assert!(client.register(1, &s1_entry));
    for nth in ["first", "second", "third"] {
        assert_eq!(answer(&mut client, nth), ["A", "B"]);
    }
    let stats = cluster.shutdown(&mut client);
    assert!(stats.balances(0), "unbalanced: {stats:?}");
}
