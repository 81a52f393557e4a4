//! E6 — §2: the absorption rewrite `(A ⋈ X) ⋈ B → (A ⋈ B) ⋈ X`.
//! Sweeps the join-hit ratio `|A ⋈ B| / |A|` and measures the bytes the
//! mutated plan ships to X's server with and without the rewrite — the
//! crossover the paper's "if we know that |A ⋈ B| ≤ |A|" condition
//! predicts.

#![forbid(unsafe_code)]

use mqp_algebra::codec::wire_size;
use mqp_algebra::plan::{JoinCond, Plan};
use mqp_bench::{f2, print_table};
use mqp_core::rewrite;
use mqp_engine::eval_const;
use mqp_xml::Element;

const A_ROWS: usize = 400;

fn a_items() -> Vec<Element> {
    (0..A_ROWS)
        .map(|i| {
            Element::new("a")
                .child(Element::new("k").text(i.to_string()))
                .child(Element::new("j").text(format!("tag-{}", i % 100)))
                .child(Element::new("pad").text("x".repeat(40)))
        })
        .collect()
}

/// B keeps a fraction of A's join tags: hit_pct% of A rows survive A⋈B.
fn b_items(hit_pct: usize) -> Vec<Element> {
    (0..hit_pct)
        .map(|t| Element::new("b").child(Element::new("j").text(format!("tag-{t}"))))
        .collect()
}

fn main() {
    let mut rows = Vec::new();
    for &hit_pct in &[5usize, 25, 50, 75, 100, 150] {
        // (A ⋈ X) ⋈ B with X remote. Join output of A⋈X is
        // tuple(a, x); the outer condition addresses A via "a/j".
        let x_remote = Plan::url("mqp://x-server/");
        let original = Plan::join(
            JoinCond::on("a/j", "j"),
            Plan::join(JoinCond::on("k", "k"), Plan::data(a_items()), x_remote),
            Plan::data(b_items(hit_pct)),
        );

        // Without absorption: the locally evaluable part is just the two
        // data leaves; the plan ships A and B verbatim.
        let shipped_without = wire_size(&original);

        // With absorption: (A ⋈ B) evaluates locally; the plan ships the
        // (possibly much smaller) join result.
        let mut rewritten = original.clone();
        let applied = rewrite::absorb(&mut rewritten, &|p| {
            p.urls().is_empty() && p.urns().is_empty()
        });
        let shipped_with = if applied > 0 {
            // Reduce the local branch as the processor would.
            if let Plan::Join { left, .. } = &mut rewritten {
                let reduced = eval_const(left).expect("local join");
                **left = Plan::data_shared(reduced);
            }
            wire_size(&rewritten)
        } else {
            shipped_without
        };

        let joined = eval_const(&Plan::join(
            JoinCond::on("j", "j"),
            Plan::data(a_items()),
            Plan::data(b_items(hit_pct)),
        ))
        .unwrap()
        .len();

        rows.push(vec![
            format!("{hit_pct}%"),
            format!("{:.2}", joined as f64 / A_ROWS as f64),
            (applied > 0).to_string(),
            (shipped_without / 1024).to_string(),
            (shipped_with / 1024).to_string(),
            f2(shipped_without as f64 / shipped_with as f64),
        ]);
    }
    print_table(
        "absorption rewrite: bytes shipped to X's server (A = 400 rows)",
        &[
            "B tag coverage",
            "|A⋈B|/|A|",
            "rewrite fired",
            "ship w/o (KiB)",
            "ship with (KiB)",
            "saving x",
        ],
        &rows,
    );
    println!(
        "\nshape check: the rewrite fires only while the estimated \
         |A ⋈ B| ≤ |A| (the paper's profitability condition) and the \
         shipped-bytes saving shrinks toward 1x as the join-hit ratio \
         approaches 1; above it the optimizer leaves the plan alone."
    );
}
