//! Integration tests spanning crates: full paper scenarios running over
//! the simulated network.

use mqp::algebra::plan::{JoinCond, OrAlt, Plan, UrnRef};
use mqp::catalog::{CatalogEntry, ServerId};
use mqp::core::provenance::{unaccounted_sources, verification_query};
use mqp::core::{Action, Mqp, Policy};
use mqp::namespace::{Cell, Hierarchy, InterestArea, Namespace, Urn};
use mqp::net::Topology;
use mqp::peer::{Peer, SimHarness};
use mqp::xml::Element;

fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland", "USA/OR/Eugene"]),
        Hierarchy::new("Merchandise").with(["Music/CDs", "SportingGoods/GolfClubs"]),
    ])
}

fn pdx_cds() -> InterestArea {
    InterestArea::of(Cell::parse(["USA/OR/Portland", "Music/CDs"]))
}

fn cd(title: &str, price: f64) -> Element {
    Element::new("item")
        .child(Element::new("title").text(title))
        .child(Element::new("price").text(format!("{price}")))
}

/// §4.3 end to end: a replica R carries S's data up to 30 minutes
/// stale. A currency-preferring client visits both; a latency-
/// preferring client visits only R and the answer is flagged stale.
#[test]
fn currency_vs_latency_tradeoff() {
    let run = |policy: Policy| {
        let client = Peer::new("client", ns())
            .with_default_route("meta")
            .with_policy(policy);
        let mut meta = Peer::new("meta", ns()).with_policy(policy);
        let mut r = Peer::new("R", ns()).with_policy(policy);
        r.add_collection("cds", pdx_cds(), [cd("at-r", 5.0), cd("from-s", 6.0)]);
        let mut s = Peer::new("S", ns()).with_policy(policy);
        s.add_collection("cds", pdx_cds(), [cd("from-s", 6.0), cd("new-at-s", 7.0)]);
        meta.catalog_mut().register(r.base_entry());
        meta.catalog_mut().register(s.base_entry());
        meta.catalog_mut().add_statement(
            "base[USA.OR.Portland, Music.CDs]@R >= base[USA.OR.Portland, Music.CDs]@S{30}"
                .parse()
                .unwrap(),
        );
        let mut h = SimHarness::new(Topology::uniform(4, 10_000), vec![client, meta, r, s]);
        let plan = Plan::Urn(UrnRef::new(Urn::area(pdx_cds())));
        h.submit(0, plan);
        h.run(10_000);
        h.take_completed().pop().unwrap()
    };

    let current = run(Policy::current());
    let fast = run(Policy::fast());
    assert!(current.failure.is_none() && fast.failure.is_none());
    // Current visits both servers: sees S's brand-new item.
    let titles = |q: &mqp::peer::QueryOutcome| {
        let mut t: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        t.sort();
        t.dedup();
        t
    };
    assert!(titles(&current).contains(&"new-at-s".to_owned()));
    // Fast takes the single-site alternative (R only): fewer hops, and
    // misses what R has not yet replicated.
    assert!(
        fast.hops < current.hops,
        "{} !< {}",
        fast.hops,
        current.hops
    );
    assert!(!titles(&fast).contains(&"new-at-s".to_owned()));
}

/// §4.2 Example 1 end to end: with an equality statement, the binding
/// lets the plan visit a single server instead of two.
#[test]
fn intensional_statement_cuts_fanout() {
    let run = |with_statement: bool| {
        let client = Peer::new("client", ns())
            .with_default_route("meta")
            .with_policy(Policy::fast());
        let mut meta = Peer::new("meta", ns()).with_policy(Policy::fast());
        let mut r = Peer::new("R", ns());
        r.add_collection(
            "golf",
            InterestArea::of(Cell::parse(["USA/OR/Portland", "SportingGoods/GolfClubs"])),
            [cd("putter", 30.0)],
        );
        let mut s = Peer::new("S", ns());
        s.add_collection(
            "golf",
            InterestArea::of(Cell::parse(["USA/OR/Portland", "SportingGoods/GolfClubs"])),
            [cd("putter", 30.0)],
        );
        meta.catalog_mut().register(r.base_entry());
        meta.catalog_mut().register(s.base_entry());
        if with_statement {
            meta.catalog_mut().add_statement(
                "base[USA.OR.Portland, SportingGoods]@R = \
                 base[USA.OR.Portland, SportingGoods]@S"
                    .parse()
                    .unwrap(),
            );
        }
        let mut h = SimHarness::new(Topology::uniform(4, 10_000), vec![client, meta, r, s]);
        let area = InterestArea::of(Cell::parse(["USA/OR/Portland", "SportingGoods/GolfClubs"]));
        h.submit(0, Plan::Urn(UrnRef::new(Urn::area(area))));
        h.run(10_000);
        h.take_completed().pop().unwrap()
    };
    let without = run(false);
    let with = run(true);
    assert!(without.failure.is_none() && with.failure.is_none());
    assert!(
        with.hops < without.hops,
        "{} !< {}",
        with.hops,
        without.hops
    );
    // Either way the answer is non-empty (R replicates S exactly).
    assert!(!with.items.is_empty());
}

/// §5.1 spoofing scenario end to end: a provenance audit of the
/// original plan catches the bypassed source, and the verification
/// query confirms the spoof.
#[test]
fn provenance_audit_detects_spoofing() {
    // Honest run first.
    let original = Plan::union([Plan::url("mqp://S/"), Plan::url("mqp://T/")]);
    let mut honest = Mqp::new(Plan::display("client#0", original.clone()));

    let mut s = Peer::new("S", ns());
    s.add_collection("a", pdx_cds(), [cd("s-item", 1.0)]);
    let mut t = Peer::new("T", ns());
    t.add_collection("b", pdx_cds(), [cd("t-item", 2.0)]);

    // S processes, then T.
    use mqp::core::Outcome;
    match s.process(&mut honest) {
        Outcome::Forward { to } => assert_eq!(to, ServerId::new("T")),
        other => panic!("expected forward, got {other:?}"),
    }
    match t.process(&mut honest) {
        Outcome::Complete { items, .. } => assert_eq!(items.len(), 2),
        other => panic!("expected complete, got {other:?}"),
    }
    assert!(unaccounted_sources(honest.original().unwrap(), honest.provenance()).is_empty());

    // Spoofed run: S binds T's source to empty data without visiting T.
    let mut spoofed = Mqp::new(Plan::display("client#0", original));
    // Malicious S: replace T's URL with empty data, evaluate only its own.
    let t_path = spoofed
        .plan()
        .find_all(&|p| matches!(p, Plan::Url(u) if u.href == "mqp://T/"))
        .pop()
        .unwrap();
    spoofed.plan_mut().replace(&t_path, Plan::data([])).unwrap();
    match s.process(&mut spoofed) {
        Outcome::Complete { items, .. } => assert_eq!(items.len(), 1), // T's data gone
        other => panic!("expected complete, got {other:?}"),
    }
    let missing = unaccounted_sources(spoofed.original().unwrap(), spoofed.provenance());
    assert_eq!(missing, vec!["mqp://T/".to_owned()]);

    // The verification query against T (count of the spoofed source)
    // reveals T actually holds data.
    let vq = verification_query(Plan::url("mqp://T/"), "auditor#0");
    let mut vmqp = Mqp::new(vq);
    match t.process(&mut vmqp) {
        Outcome::Complete { items, .. } => {
            assert_eq!(items[0].name(), "count");
            assert_eq!(items[0].deep_text(), "1"); // not empty ⇒ spoof proven
        }
        other => panic!("expected complete, got {other:?}"),
    }
}

/// Index-server continuation: a binding that addresses an index server
/// (level=index) routes the plan there, and the index server's own
/// catalog finishes resolution — §4.2 Example 2's "routed to R (and to
/// S, T and U as needed)".
#[test]
fn index_level_binding_continues_resolution() {
    let client = Peer::new("client", ns()).with_default_route("meta");
    let mut meta = Peer::new("meta", ns());
    // The meta server knows only the index server's coverage statement.
    meta.catalog_mut()
        .register(CatalogEntry::index("idx", pdx_cds()).authoritative());
    let mut idx = Peer::new("idx", ns());
    let mut s = Peer::new("S", ns());
    s.add_collection("cds", pdx_cds(), [cd("x", 3.0)]);
    idx.catalog_mut().register(s.base_entry());
    let mut h = SimHarness::new(Topology::uniform(4, 5_000), vec![client, meta, idx, s]);
    h.submit(0, Plan::Urn(UrnRef::new(Urn::area(pdx_cds()))));
    h.run(10_000);
    let q = h.take_completed().pop().unwrap();
    assert!(q.failure.is_none(), "{:?}", q.failure);
    assert_eq!(q.items.len(), 1);
}

/// An MQP whose envelope round-trips through every hop: wire form in,
/// wire form out, provenance accumulating.
#[test]
fn envelope_survives_multi_hop_serialization() {
    let mut s1 = Peer::new("s1", ns());
    s1.add_collection("cds", pdx_cds(), [cd("a", 1.0)]);
    let mut s2 = Peer::new("s2", ns());
    s2.add_collection("cds", pdx_cds(), [cd("b", 2.0)]);
    let plan = Plan::display(
        "client#9",
        Plan::union([Plan::url("mqp://s1/"), Plan::url("mqp://s2/")]),
    );
    let mut mqp = Mqp::new(plan);
    // Hop 1: s1 (through the wire).
    let mut mqp1 = Mqp::from_wire(&mqp.to_wire()).unwrap();
    use mqp::core::Outcome;
    let out = s1.process(&mut mqp1);
    assert!(matches!(out, Outcome::Forward { .. }));
    // Hop 2: s2 (through the wire again).
    let mut mqp2 = Mqp::from_wire(&mqp1.to_wire()).unwrap();
    match s2.process(&mut mqp2) {
        Outcome::Complete { items, target } => {
            assert_eq!(items.len(), 2);
            assert_eq!(target.as_deref(), Some("client#9"));
        }
        other => panic!("expected complete, got {other:?}"),
    }
    // Provenance recorded both evaluations across serialization.
    let evaluators: Vec<&str> = mqp2
        .provenance()
        .iter()
        .filter(|v| v.action == Action::Evaluated)
        .map(|v| v.server.as_str())
        .collect();
    assert!(evaluators.contains(&"s1"));
    assert!(evaluators.contains(&"s2"));
    mqp.record(mqp2.provenance()[0].clone()); // keep mqp mutable use
}

/// Figure 4(a)'s select-through-union pushdown happens on the real
/// pipeline: after the meta server binds the ForSale URN, each seller
/// branch carries its own select.
#[test]
fn figure4a_pushdown_on_pipeline() {
    let mut meta = Peer::new("meta", ns());
    let mut s1 = Peer::new("s1", ns());
    s1.add_collection("cds", pdx_cds(), [cd("a", 5.0)]);
    let mut s2 = Peer::new("s2", ns());
    s2.add_collection("cds", pdx_cds(), [cd("b", 15.0)]);
    meta.catalog_mut().register(s1.base_entry());
    meta.catalog_mut().register(s2.base_entry());
    let plan = Plan::display(
        "c#0",
        Plan::select("price < 10", Plan::Urn(UrnRef::new(Urn::area(pdx_cds())))),
    );
    let mut mqp = Mqp::new(plan);
    let out = meta.process(&mut mqp);
    assert!(matches!(out, mqp::core::Outcome::Forward { .. }));
    // The plan now unions per-seller selects (pushdown applied).
    let selects = mqp.plan().find_all(&|p| matches!(p, Plan::Select { .. }));
    assert_eq!(selects.len(), 2, "plan:\n{}", mqp.plan());
}

/// Or-alternatives survive the wire: binding staleness annotations are
/// preserved through envelope serialization.
#[test]
fn or_staleness_round_trips_the_wire() {
    let plan = Plan::display(
        "c#0",
        Plan::Or(vec![
            OrAlt::stale(Plan::url("mqp://r/"), 30),
            OrAlt::stale(
                Plan::union([Plan::url("mqp://r/"), Plan::url("mqp://s/")]),
                0,
            ),
        ]),
    );
    let mqp = Mqp::new(plan);
    let back = Mqp::from_wire(&mqp.to_wire()).unwrap();
    match back.plan() {
        Plan::Display { input, .. } => match input.as_ref() {
            Plan::Or(alts) => {
                assert_eq!(alts[0].staleness, Some(30));
                assert_eq!(alts[1].staleness, Some(0));
            }
            other => panic!("expected or, got {other}"),
        },
        other => panic!("expected display, got {other}"),
    }
}

/// §5.2 end to end: ordering and transfer policies. The MQP must not
/// bind the preferences resource until the playlist is bound, and may
/// only pass through the two listed servers.
#[test]
fn ordering_and_transfer_policies() {
    use mqp::core::Constraints;
    let mut playlist_srv = Peer::new("playlist", ns());
    playlist_srv.add_collection(
        "pl",
        pdx_cds(),
        [Element::new("track").child(Element::new("t").text("x"))],
    );
    playlist_srv.publish_urn("urn:CD:Playlist", "pl");
    let mut prefs_srv = Peer::new("prefs", ns());
    prefs_srv.add_collection(
        "pf",
        pdx_cds(),
        [Element::new("pref").child(Element::new("t").text("x"))],
    );
    prefs_srv.publish_urn("urn:My:Preferences", "pf");

    let plan = Plan::display(
        "c#0",
        Plan::join(
            JoinCond::on("t", "t"),
            Plan::urn("urn:My:Preferences"),
            Plan::urn("urn:CD:Playlist"),
        ),
    );
    let constraints = Constraints::none()
        .allow_only(["playlist", "prefs"])
        .bind_after("urn:CD:Playlist", "urn:My:Preferences");
    let mut mqp = Mqp::new(plan).with_constraints(constraints);

    // The preferences server sees the plan first, but must not bind its
    // resource yet (ordering), so nothing is bound there.
    use mqp::core::Outcome;
    let out = prefs_srv.process(&mut mqp);
    assert_eq!(
        mqp.plan().urns().len(),
        2,
        "prefs bound too early:\n{}",
        mqp.plan()
    );
    // It cannot route anywhere it knows, so it reports stuck; the
    // client would then send to the playlist server (the allowed list
    // is what matters here).
    assert!(matches!(out, Outcome::Stuck { .. }));

    // At the playlist server the playlist binds and reduces…
    let out = playlist_srv.process(&mut mqp);
    assert!(mqp
        .provenance()
        .iter()
        .any(|v| v.action == Action::Bound && v.detail.contains("urn:CD:Playlist")));
    let _ = out;
    // …and now the preferences resource may bind.
    match prefs_srv.process(&mut mqp) {
        Outcome::Complete { items, .. } => assert_eq!(items.len(), 1),
        other => panic!("expected complete, got {other:?}"),
    }

    // Transfer policy: a disallowed route is skipped even when the
    // peer's catalog would pick it.
    let gate = Peer::new("gate", ns()).with_default_route("tracker");
    let plan = Plan::display("c#0", Plan::url("mqp://tracker/"));
    let mut locked = Mqp::new(plan).with_constraints(Constraints::none().allow_only(["gate"]));
    match gate.process(&mut locked) {
        Outcome::Stuck { .. } => {}
        other => panic!("transfer policy violated: {other:?}"),
    }
}

/// A join query across two base servers: the MQP gathers one side,
/// moves, and completes at the second — no coordinator anywhere.
#[test]
fn coordinator_free_distributed_join() {
    let mut songs = Peer::new("songs", ns());
    songs.add_collection(
        "fav",
        pdx_cds(),
        [Element::new("song").child(Element::new("album").text("X"))],
    );
    let mut shop = Peer::new("shop", ns());
    shop.add_collection("stock", pdx_cds(), [cd("X", 8.0), cd("Y", 3.0)]);
    let plan = Plan::display(
        "c#0",
        Plan::join(
            JoinCond::on("album", "title"),
            Plan::url("mqp://songs/"),
            Plan::url("mqp://shop/"),
        ),
    );
    let client = Peer::new("c", ns()).with_default_route("songs");
    let mut h = SimHarness::new(Topology::uniform(3, 2_000), vec![client, songs, shop]);
    h.submit(0, plan);
    h.run(10_000);
    let q = h.take_completed().pop().unwrap();
    assert!(q.failure.is_none(), "{:?}", q.failure);
    assert_eq!(q.items.len(), 1);
    assert_eq!(q.items[0].name(), "tuple");
}

/// Whatever a server's evaluator produces, the next hop must be able to
/// decode: an aggregate over an empty input has no value to print, and
/// its item must still be canonical XML (`<min/>`, not `<min></min>`).
#[test]
fn empty_aggregates_cross_the_wire() {
    use mqp::algebra::codec::{from_wire, to_wire};
    use mqp::algebra::predicate::AggFunc;
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ] {
        let answer = mqp::engine::eval_const(&Plan::aggregate(func, Some("price"), Plan::data([])))
            .expect("data-only plan");
        let reduced = Plan::data_shared(answer);
        assert_eq!(from_wire(&to_wire(&reduced)), Ok(reduced), "{func:?}");
    }
}
