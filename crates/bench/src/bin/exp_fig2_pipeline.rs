//! E2 — Figure 2: per-stage costs of the mutant query processing
//! pipeline (parse → bind → optimize/rewrite → evaluate → serialize),
//! swept over collection size.

#![forbid(unsafe_code)]

use std::time::Instant;

use mqp_algebra::codec::{from_wire, to_wire};
use mqp_algebra::plan::{JoinCond, Plan};
use mqp_bench::{fmt_ms, print_table};
use mqp_core::rewrite;
use mqp_engine::eval_const;
use mqp_xml::Element;

fn collection(n: usize) -> Vec<Element> {
    (0..n)
        .map(|i| {
            Element::new("item")
                .child(Element::new("title").text(format!("Album-{:05}", i % (n / 2 + 1))))
                .child(Element::new("price").text(format!("{}.99", i % 40)))
        })
        .collect()
}

fn songs(n: usize) -> Vec<Element> {
    (0..n)
        .map(|i| {
            Element::new("song")
                .child(Element::new("album").text(format!("Album-{:05}", i * 3 % (n + 1))))
        })
        .collect()
}

fn main() {
    let mut rows = Vec::new();
    // Golden scale: small sweep, wall-clock columns elided (fmt_ms) so
    // the snapshot is byte-identical across machines.
    let sizes: &[usize] = if mqp_bench::golden_scale() {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    for &n in sizes {
        // The Figure-3 shape with data inlined: join + select.
        let plan = Plan::display(
            "client#0",
            Plan::join(
                JoinCond::on("album", "title"),
                Plan::data(songs(n / 10)),
                Plan::select("price < 10", Plan::data(collection(n))),
            ),
        );

        let t0 = Instant::now();
        let wire = to_wire(&plan);
        let t_serialize = t0.elapsed();

        let t0 = Instant::now();
        let parsed = from_wire(&wire).expect("reparse");
        let t_parse = t0.elapsed();

        let mut rewritten = parsed.clone();
        let t0 = Instant::now();
        rewrite::normalize(&mut rewritten);
        let _ = mqp_engine::estimate(&rewritten);
        let t_optimize = t0.elapsed();

        let t0 = Instant::now();
        let result = eval_const(&rewritten).expect("evaluate");
        let t_eval = t0.elapsed();

        let t0 = Instant::now();
        let out = to_wire(&Plan::data_shared(result.clone()));
        let t_reserialize = t0.elapsed();

        rows.push(vec![
            n.to_string(),
            wire.len().to_string(),
            fmt_ms(t_parse.as_secs_f64() * 1e3),
            fmt_ms(t_optimize.as_secs_f64() * 1e3),
            fmt_ms(t_eval.as_secs_f64() * 1e3),
            fmt_ms((t_serialize + t_reserialize).as_secs_f64() * 1e3),
            result.len().to_string(),
            out.len().to_string(),
        ]);
    }
    print_table(
        "Figure 2: pipeline stage costs (ms) vs collection size",
        &[
            "items",
            "plan bytes",
            "parse",
            "optimize",
            "evaluate",
            "serialize",
            "result rows",
            "result bytes",
        ],
        &rows,
    );
    println!(
        "\nshape check: every stage scales roughly linearly; parse and \
         serialize dominate at large collection sizes (the XML tax the \
         paper accepts for plan mobility)."
    );
}
