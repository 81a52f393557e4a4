//! E-lang — the language front-end proves itself: three existing
//! experiments re-expressed as committed `.mqpq` query files (fig2
//! pipeline, routing comparison, index-detail tradeoff) must produce
//! *identical* outcomes to the programmatically built plans, and the
//! committed `.mqpp` policy files must compile to the rule sets the
//! hot-reload demo ships.
//!
//! For each experiment: the committed file's bytes must equal
//! `plan.render()` (after an intentional grammar change the failing
//! assert prints the text to commit), the file must parse back to the
//! exact plan, and running both the parsed and the programmatic plan on
//! fresh identical worlds must yield equal outcome fingerprints —
//! same items, same failures, same hop counts. Text and code are
//! interchangeable front doors to the same algebra.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mqp_algebra::plan::{JoinCond, OrAlt, Plan};
use mqp_bench::print_table;
use mqp_core::{Policy, QueryOutcome, RuleCtx};
use mqp_engine::eval_const;
use mqp_lang::{check_query, parse_policy, parse_query};
use mqp_namespace::{Hierarchy, InterestArea, Namespace};
use mqp_net::Topology;
use mqp_peer::{Peer, SimHarness};
use mqp_workloads::garage::{build, query_for, random_query, GarageConfig, CATEGORIES, CITIES};
use mqp_xml::Element;

/// The committed default policy: compiling and applying it must be
/// behaviorally identical to `Policy::current()` (the golden-trace
/// invariant for rule-carrying peers).
const DEFAULT_POLICY: &str = "\
# The compiled default: byte-identical behavior to Policy::current().
default current
defer over 64kb
";

/// The hot-reload demo policy: prefer the fewest-site alternative
/// everywhere, trading completeness for latency (§4.3).
const FAST_FALLBACK: &str = "\
# Prefer the cheapest Or alternative everywhere: one-site answers win.
when always then choose fast
";

fn queries_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../queries")
}

/// Asserts the committed file matches `text` byte for byte, and returns
/// the committed bytes.
fn committed(name: &str, text: &str) -> String {
    let path = queries_dir().join(name);
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed file {} ({e})", path.display()));
    assert!(
        on_disk == text,
        "{name} drifted from its source plan; the file should read:\n{text}"
    );
    on_disk
}

/// Round-trips a plan through the surface syntax and returns the
/// reparsed plan (asserting exact structural equality).
fn reparse(plan: &Plan) -> Plan {
    let text = plan.render();
    let q = parse_query(&text).unwrap_or_else(|e| panic!("rendered plan must parse:\n{text}\n{e}"));
    assert_eq!(q.plan, *plan, "round-trip changed the plan:\n{text}");
    q.plan
}

/// Host-independent outcome fingerprint (items sorted; latency and
/// byte totals excluded — they are equal in the sim anyway).
fn fingerprint(q: &QueryOutcome) -> (Option<String>, Vec<String>, u64) {
    let mut items: Vec<String> = q.items.iter().map(mqp_xml::serialize).collect();
    items.sort();
    (q.failure.clone(), items, q.hops)
}

// --- 1. fig2 pipeline (local evaluation) -----------------------------

fn fig2_collection(n: usize) -> Vec<Element> {
    (0..n)
        .map(|i| {
            Element::new("item")
                .child(Element::new("title").text(format!("Album-{:05}", i % (n / 2 + 1))))
                .child(Element::new("price").text(format!("{}.99", i % 40)))
        })
        .collect()
}

fn fig2_songs(n: usize) -> Vec<Element> {
    (0..n)
        .map(|i| {
            Element::new("song")
                .child(Element::new("album").text(format!("Album-{:05}", i * 3 % (n + 1))))
        })
        .collect()
}

fn fig2_plan(n: usize) -> Plan {
    Plan::join(
        JoinCond::on("album", "title"),
        Plan::data(fig2_songs(n / 10)),
        Plan::select("price < 10", Plan::data(fig2_collection(n))),
    )
}

fn run_fig2(rows: &mut Vec<Vec<String>>) {
    for &n in &[100usize, 1_000] {
        let plan = fig2_plan(n);
        let from_text = if n == 100 {
            // The committed example file is the n=100 instance.
            let text = committed("fig2_pipeline.mqpq", &plan.render());
            let q = parse_query(&text).expect("committed fig2 query must parse");
            assert_eq!(
                q.plan, plan,
                "committed fig2 query drifted from the builder plan"
            );
            q.plan
        } else {
            reparse(&plan)
        };
        let a = eval_const(&plan).expect("programmatic eval");
        let b = eval_const(&from_text).expect("parsed eval");
        let same = a == b;
        rows.push(vec![
            "fig2 pipeline".into(),
            format!("{n} items"),
            format!("{} result rows", a.len()),
            verdict(same),
        ]);
        assert!(same, "fig2 n={n}: parsed plan evaluated differently");
    }
}

// --- 2. routing comparison (catalog discovery in the sim) ------------

fn routing_cells() -> Vec<(String, String)> {
    // Exactly exp_routing_comparison's golden workload: placement from
    // seed 1 over n=32 nodes, 10 query cells drawn with seed 2.
    let n = 32;
    let mut rng = StdRng::seed_from_u64(1);
    let placement: Vec<(String, String)> = (1..n)
        .map(|_| {
            let city = CITIES[rng.gen_range(0..CITIES.len())].to_owned();
            let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_owned();
            (city, cat)
        })
        .collect();
    let mut qrng = StdRng::seed_from_u64(2);
    (0..10)
        .map(|_| placement[qrng.gen_range(0..placement.len())].clone())
        .collect()
}

fn routing_world() -> mqp_workloads::garage::GarageWorld {
    build(GarageConfig {
        sellers: 31,
        items_per_seller: 3,
        index_servers: 8,
        meta_servers: 2,
        seed: 1,
    })
}

fn run_routing(rows: &mut Vec<Vec<String>>) {
    let cells = routing_cells();
    let plans: Vec<Plan> = cells
        .iter()
        .map(|(city, cat)| query_for(city, cat, None))
        .collect();
    committed("routing_discovery.mqpq", &plans[0].render());

    // The check pass accepts every query against the garage namespace.
    let ns = mqp_workloads::garage::namespace();
    let catalog = mqp_catalog::Catalog::new();
    let parsed: Vec<Plan> = plans
        .iter()
        .map(|p| {
            let q = parse_query(&p.render()).expect("rendered routing query parses");
            check_query(&q, &catalog, &ns)
                .unwrap_or_else(|e| panic!("check pass rejected a valid discovery query:\n{e}"));
            assert_eq!(q.plan, *p);
            q.plan
        })
        .collect();

    let run = |plans: &[Plan]| -> Vec<(Option<String>, Vec<String>, u64)> {
        let mut w = routing_world();
        let mut fps = Vec::new();
        for plan in plans {
            w.harness.submit(w.client, plan.clone());
            w.harness.run(10_000_000);
            let out = w.harness.take_completed().pop().expect("query completed");
            fps.push(fingerprint(&out));
        }
        fps
    };
    let a = run(&plans);
    let b = run(&parsed);
    let same = a == b;
    let answered = a.iter().filter(|f| f.0.is_none()).count();
    rows.push(vec![
        "routing comparison".into(),
        format!("{} discovery queries", plans.len()),
        format!("{answered}/{} answered", plans.len()),
        verdict(same),
    ]);
    assert!(same, "routing: parsed queries produced different outcomes");
}

// --- 3. index-detail tradeoff ----------------------------------------

fn run_index_detail(rows: &mut Vec<Vec<String>>) {
    for &index_servers in &[0usize, 8] {
        let mut rng = StdRng::seed_from_u64(3);
        let plans: Vec<Plan> = (0..25).map(|_| random_query(&mut rng, None)).collect();
        if index_servers == 0 {
            committed("index_detail.mqpq", &plans[0].render());
        }
        let parsed: Vec<Plan> = plans.iter().map(reparse).collect();

        let run = |plans: &[Plan]| -> Vec<(Option<String>, Vec<String>, u64)> {
            let mut w = build(GarageConfig {
                sellers: 120,
                items_per_seller: 4,
                index_servers,
                meta_servers: 2,
                seed: 42,
            });
            for plan in plans {
                w.harness.submit(w.client, plan.clone());
                w.harness.run(10_000_000);
            }
            let mut fps: Vec<_> = w.harness.take_completed().iter().map(fingerprint).collect();
            fps.sort();
            fps
        };
        let a = run(&plans);
        let b = run(&parsed);
        let same = a == b;
        let answered = a.iter().filter(|f| f.0.is_none()).count();
        rows.push(vec![
            format!("index detail ({index_servers} city indexes)"),
            "25 queries".into(),
            format!("{answered}/25 answered"),
            verdict(same),
        ]);
        assert!(
            same,
            "index-detail ({index_servers} indexes): outcomes diverged"
        );
    }
}

// --- 4. policy DSL + hot reload --------------------------------------

fn policy_world() -> Vec<Peer> {
    let ns = Namespace::new([
        Hierarchy::new("Location").with(["USA/OR/Portland"]),
        Hierarchy::new("Merchandise").with(["Music/CDs"]),
    ]);
    let area = InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]]);
    let client = Peer::new("client", ns.clone()).with_default_route("seller-0");
    let mut s0 = Peer::new("seller-0", ns.clone());
    s0.add_collection(
        "stock",
        area.clone(),
        [
            mqp_xml::parse("<item><title>A</title><price>8</price></item>").unwrap(),
            mqp_xml::parse("<item><title>B</title><price>12</price></item>").unwrap(),
        ],
    );
    let mut s1 = Peer::new("seller-1", ns);
    s1.add_collection(
        "stock",
        area,
        [mqp_xml::parse("<item><title>C</title><price>9</price></item>").unwrap()],
    );
    vec![client, s0, s1]
}

/// The demo plan: a fresh two-site union vs a stale one-site mirror.
/// `Current` commits the union (3 items); `choose fast` commits the
/// single-site alternative (2 items).
fn policy_plan() -> Plan {
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

fn run_policy(rows: &mut Vec<Vec<String>>) {
    let default_text = committed("default_policy.mqpp", DEFAULT_POLICY);
    let fast_text = committed("fast_fallback.mqpp", FAST_FALLBACK);

    // The compiled default is a behavioral no-op on Policy::current().
    let default_rules = parse_policy(&default_text).expect("default policy compiles");
    let base = Policy::current();
    let d = default_rules.decide(&base, &RuleCtx::default());
    assert_eq!(
        d.policy, base,
        "compiled default must reproduce Policy::current()"
    );
    assert!(d.or_preference.is_none() && d.force.is_none() && d.route.is_none());

    let fast_rules = parse_policy(&fast_text).expect("fast_fallback compiles");

    let peers = policy_world();
    let n = peers.len();
    let mut h = SimHarness::new(Topology::uniform(n, 5_000), peers);

    let count = |h: &mut SimHarness| -> usize {
        h.submit(0, policy_plan());
        h.run(100_000);
        let out = h.take_completed().pop().expect("query completed");
        assert!(
            out.failure.is_none(),
            "demo query failed: {:?}",
            out.failure
        );
        out.items.len()
    };

    let before = count(&mut h);
    // Hot reload: ship the compiled rules to every peer over the wire —
    // no restart, charged like catalog registration traffic.
    for node in 0..n {
        h.push_policy(0, node, fast_rules.clone());
    }
    h.run(100_000);
    let after = count(&mut h);

    rows.push(vec![
        "policy hot-reload".into(),
        "or(2-site fresh, 1-site stale)".into(),
        format!("{before} items -> {after} items"),
        verdict(before == 3 && after == 2),
    ]);
    assert_eq!(
        (before, after),
        (3, 2),
        "fast_fallback.mqpp must flip the Or choice without a restart"
    );
}

fn verdict(ok: bool) -> String {
    if ok {
        "identical".into()
    } else {
        "DIVERGED".into()
    }
}

fn main() {
    let mut rows = Vec::new();
    run_fig2(&mut rows);
    run_routing(&mut rows);
    run_index_detail(&mut rows);
    run_policy(&mut rows);

    // Every committed file under queries/ must at least compile.
    let mut files: BTreeSet<String> = BTreeSet::new();
    for entry in std::fs::read_dir(queries_dir()).expect("queries/ exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable query file");
        match path.extension().and_then(|e| e.to_str()) {
            Some("mqpq") => {
                parse_query(&text).unwrap_or_else(|e| panic!("{name} does not compile:\n{e}"));
                files.insert(name);
            }
            Some("mqpp") => {
                parse_policy(&text).unwrap_or_else(|e| panic!("{name} does not compile:\n{e}"));
                files.insert(name);
            }
            _ => {}
        }
    }

    print_table(
        "language front-end: committed text vs builder API, same outcomes",
        &["experiment", "workload", "outcome", "text vs code"],
        &rows,
    );
    println!(
        "\ncommitted sources ({}): {}",
        files.len(),
        files.into_iter().collect::<Vec<_>>().join(", ")
    );
    println!(
        "\nshape check: every .mqpq file is byte-identical to the render of \
         the plan its experiment builds, parses back to that exact plan, \
         and produces the same outcome fingerprints on a fresh world; the \
         compiled default .mqpp is a behavioral no-op, and pushing the \
         fast_fallback rules over the wire flips the Or commitment from \
         the fresh two-site union to the stale one-site mirror without \
         restarting any peer."
    );
}
