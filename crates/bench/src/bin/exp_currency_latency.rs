//! E8 — §4.3: the completeness / currency / latency tradeoff. A replica
//! R carries S's Portland data with a delay factor; the query issuer's
//! binary preference (current vs. fast) picks different Or-alternatives
//! with measurably different latency, staleness, and completeness.

#![forbid(unsafe_code)]

use mqp_algebra::plan::{Plan, UrnRef};
use mqp_bench::{f2, print_table};
use mqp_core::Policy;
use mqp_namespace::{Cell, Hierarchy, InterestArea, Namespace, Urn};
use mqp_net::Topology;
use mqp_peer::{Peer, SimHarness};
use mqp_xml::Element;

fn ns() -> Namespace {
    Namespace::new([
        Hierarchy::new("Location").with(["Portland"]),
        Hierarchy::new("Merchandise").with(["CDs"]),
    ])
}

fn area() -> InterestArea {
    InterestArea::of(Cell::parse(["Portland", "CDs"]))
}

fn cd(title: &str) -> Element {
    Element::new("item").child(Element::new("title").text(title))
}

/// Runs one query under a policy. `fresh_items` exist only at S (not
/// yet replicated to R). Returns (latency_ms, hops, items, staleness,
/// has_fresh).
fn run(policy: Policy, delay_minutes: u32) -> (f64, u64, usize, u32, bool) {
    let client = Peer::new("client", ns())
        .with_default_route("meta")
        .with_policy(policy);
    let mut meta = Peer::new("meta", ns()).with_policy(policy);
    let mut r = Peer::new("R", ns()).with_policy(policy);
    // R replicates S's older stock.
    r.add_collection("cds", area(), [cd("old-1"), cd("old-2"), cd("old-3")]);
    let mut s = Peer::new("S", ns()).with_policy(policy);
    s.add_collection(
        "cds",
        area(),
        [cd("old-1"), cd("old-2"), cd("old-3"), cd("fresh-today")],
    );
    meta.catalog_mut().register(r.base_entry());
    meta.catalog_mut().register(s.base_entry());
    meta.catalog_mut().add_statement(
        format!("base[Portland, *]@R >= base[Portland, *]@S{{{delay_minutes}}}")
            .parse()
            .unwrap(),
    );
    let mut h = SimHarness::new(
        // R is near the client (same cluster); S is across the WAN.
        Topology::clustered(4, 2, 2_000, 80_000),
        vec![client, meta, r, s],
    );
    h.submit(0, Plan::Urn(UrnRef::new(Urn::area(area()))));
    h.run(1_000_000);
    let q = h.take_completed().pop().unwrap();
    assert!(q.failure.is_none(), "{:?}", q.failure);
    let mut titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
    titles.sort();
    titles.dedup();
    let has_fresh = titles.iter().any(|t| t == "fresh-today");
    // Worst-case staleness comes from the Or alternative the plan
    // committed; approximate from which servers answered.
    let staleness = if has_fresh { 0 } else { delay_minutes };
    (
        q.latency_us as f64 / 1000.0,
        q.hops,
        titles.len(),
        staleness,
        has_fresh,
    )
}

fn main() {
    let mut rows = Vec::new();
    for &delay in &[5u32, 30, 120] {
        for (label, policy) in [
            ("current", Policy::current()),
            ("fast", Policy::fast()),
            ("fast, cap 10 min", Policy::fast().with_max_staleness(10)),
        ] {
            let (lat, hops, items, staleness, fresh) = run(policy, delay);
            rows.push(vec![
                delay.to_string(),
                label.to_string(),
                f2(lat),
                hops.to_string(),
                items.to_string(),
                staleness.to_string(),
                if fresh { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    print_table(
        "currency vs latency (replica R near client, source S across WAN)",
        &[
            "replica delay (min)",
            "preference",
            "latency ms",
            "hops",
            "distinct items",
            "answer staleness",
            "sees today's item",
        ],
        &rows,
    );
    println!(
        "\nshape check: 'fast' stops at the nearby replica — lowest \
         latency, bounded staleness, misses the not-yet-replicated item; \
         'current' pays the WAN round trip for the complete, fresh \
         answer. A staleness cap under the replica's delay forces the \
         fast policy back to the current route (§4.3's fixed time budget \
         + binary preference)."
    );
}
