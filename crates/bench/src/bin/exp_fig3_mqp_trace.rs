//! E3 — Figures 3–4: hop-by-hop trace of a mutant query's evaluation —
//! plan size, node count, and the mutation each server applied, from
//! submission to the fully evaluated result.

#![forbid(unsafe_code)]

use mqp_bench::print_table;
use mqp_core::{Mqp, Outcome};
use mqp_workloads::cd::{build, CdConfig};

fn main() {
    let world = build(CdConfig::default());
    let mut mqp = Mqp::new(mqp_algebra::plan::Plan::display(
        "client#0",
        world.plan.clone(),
    ));

    let mut rows = Vec::new();
    rows.push(vec![
        "client".to_string(),
        "submit".to_string(),
        mqp.plan().node_count().to_string(),
        mqp.to_wire().len().to_string(),
        mqp.plan().urns().len().to_string(),
        mqp.plan().urls().len().to_string(),
    ]);

    // Walk the MQP by hand through the same peers the harness would
    // use, recording the envelope after each server.
    // Hop order: meta (binds both URNs) → trackdb → sellers…
    let mut current = "meta".to_string();
    for _hop in 0..10 {
        let node = (0..world.harness.len())
            .find(|&n| world.harness.peer(n).id().as_str() == current)
            .expect("peer exists");
        let peer = world.harness.peer(node);
        let outcome = peer.process(&mut mqp);
        let action = mqp
            .provenance()
            .iter()
            .rev()
            .take_while(|v| v.server.as_str() == current)
            .map(|v| v.action.name())
            .collect::<Vec<_>>()
            .join("+");
        rows.push(vec![
            current.clone(),
            if action.is_empty() {
                "—".into()
            } else {
                action
            },
            mqp.plan().node_count().to_string(),
            mqp.to_wire().len().to_string(),
            mqp.plan().urns().len().to_string(),
            mqp.plan().urls().len().to_string(),
        ]);
        match outcome {
            Outcome::Complete { items, .. } => {
                rows.push(vec![
                    "→ client".into(),
                    format!("result: {} tuples", items.len()),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                break;
            }
            Outcome::Forward { to } => current = to.as_str().to_owned(),
            Outcome::Stuck { reason } => {
                rows.push(vec![
                    current.clone(),
                    format!("STUCK: {reason}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                break;
            }
        }
    }

    print_table(
        "Figures 3-4: mutant query evaluation trace (CD search)",
        &[
            "server",
            "mutation",
            "plan nodes",
            "wire bytes",
            "URNs",
            "URLs",
        ],
        &rows,
    );

    println!("\nprovenance trail:");
    for v in mqp.provenance() {
        println!(
            "  t={:<6} {:<10} {:<9} {}",
            v.at,
            v.server,
            v.action.name(),
            v.detail
        );
    }
}
