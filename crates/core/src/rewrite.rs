//! Plan rewrites (paper §2 and §6: consolidation, absorption, and the
//! select-through-union pushdown of Figure 4(a)).
//!
//! All rewrites preserve the bag of result items (property-tested in
//! `tests/`); absorption changes the *nesting* of join tuples but not
//! the set of base-item combinations, which is the equivalence the
//! paper's optimization argument relies on.

use mqp_algebra::plan::{OrAlt, Plan};
use mqp_engine::estimate;

/// Pushes `Select` through `Union` and `Or`:
/// `σ(A ∪ B) → σ(A) ∪ σ(B)` (Figure 4(a)) and
/// `σ(A | B) → σ(A) | σ(B)`. Returns how many pushes happened.
fn push_select_down(plan: &mut Plan) -> usize {
    let mut count = 0;
    // Rewrite this node while it keeps matching, then recurse.
    loop {
        let rewritten = match plan {
            Plan::Select { pred, input } => match input.as_mut() {
                Plan::Union(inputs) => {
                    let pred = pred.clone();
                    let pushed = Plan::Union(
                        std::mem::take(inputs)
                            .into_iter()
                            .map(|i| Plan::Select {
                                pred: pred.clone(),
                                input: Box::new(i),
                            })
                            .collect(),
                    );
                    *plan = pushed;
                    true
                }
                Plan::Or(alts) => {
                    let pred = pred.clone();
                    let pushed = Plan::Or(
                        std::mem::take(alts)
                            .into_iter()
                            .map(|a| OrAlt {
                                plan: Plan::Select {
                                    pred: pred.clone(),
                                    input: Box::new(a.plan),
                                },
                                staleness: a.staleness,
                            })
                            .collect(),
                    );
                    *plan = pushed;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if rewritten {
            count += 1;
        } else {
            break;
        }
    }
    for c in plan.children_mut() {
        count += push_select_down(c);
    }
    count
}

/// Flattens nested unions, inlines single-input unions, and merges all
/// constant `Data` leaves of a union into one (the *consolidation* of
/// §6: "rewriting a plan so that locally evaluable sub-plans come
/// together"). Returns how many nodes were simplified away.
fn consolidate(plan: &mut Plan) -> usize {
    let mut count = 0;
    for c in plan.children_mut() {
        count += consolidate(c);
    }
    if let Plan::Union(inputs) = plan {
        // Flatten nested unions.
        let mut flat: Vec<Plan> = Vec::with_capacity(inputs.len());
        for i in std::mem::take(inputs) {
            match i {
                Plan::Union(nested) => {
                    count += 1;
                    flat.extend(nested);
                }
                other => flat.push(other),
            }
        }
        // Merge data leaves — handle moves, no item copies.
        let mut merged = mqp_xml::Batch::new();
        let mut data_leaves = 0;
        let mut rest: Vec<Plan> = Vec::with_capacity(flat.len());
        for i in flat {
            match i {
                Plan::Data { items, .. } => {
                    data_leaves += 1;
                    merged.extend(items);
                }
                other => rest.push(other),
            }
        }
        if data_leaves > 1 {
            count += data_leaves - 1;
        }
        if data_leaves > 0 {
            rest.insert(0, Plan::data_shared(merged));
        }
        if rest.len() == 1 {
            *plan = rest.into_iter().next().unwrap();
            count += 1;
        } else {
            *plan = Plan::Union(rest);
        }
    }
    count
}

/// Fault-recovery rewrite (DESIGN.md §6): drops `Or` alternatives
/// whose URL leaves address `dead` — the catalog's remaining
/// alternatives take over when a next-hop crashes mid-query. An `Or`
/// is only pruned when at least one alternative survives (otherwise
/// the dead server is the sole option and the retry loop must wait for
/// it to rejoin). A single surviving alternative collapses the `Or`.
/// Returns how many alternatives were dropped.
pub fn prune_server_alternatives(plan: &mut Plan, dead: &mqp_catalog::ServerId) -> usize {
    // Children first: a nested `Or` may shed its dead branch and leave
    // this level's alternative alive — pruning top-down would discard
    // the whole alternative (and its viable siblings) prematurely.
    let mut count = 0;
    for c in plan.children_mut() {
        count += prune_server_alternatives(c, dead);
    }
    if let Plan::Or(alts) = plan {
        let needs_dead = |a: &OrAlt| {
            a.plan
                .urls()
                .iter()
                .any(|u| mqp_catalog::ServerId::from_url(&u.href).as_ref() == Some(dead))
        };
        let survivors = alts.iter().filter(|a| !needs_dead(a)).count();
        if survivors > 0 && survivors < alts.len() {
            count += alts.len() - survivors;
            let mut keep: Vec<OrAlt> = std::mem::take(alts)
                .into_iter()
                .filter(|a| !needs_dead(a))
                .collect();
            *plan = if keep.len() == 1 {
                keep.pop().expect("one survivor").plan
            } else {
                Plan::Or(keep)
            };
        }
    }
    count
}

/// The absorption rewrite of §2: when resources `A` and `B` are local
/// and `X` is not, and `|A ⋈ B| ≤ |A|`, rewrite `(A ⋈ X) ⋈ B` into
/// `(A ⋈ B) ⋈ X` so the locally evaluable branch shrinks the partial
/// result shipped to `X`'s server.
///
/// Join outputs nest items inside `<tuple>` wrappers, so re-associating
/// joins requires *path surgery*: the outer condition addressed `A`
/// through the tuple (`a/j`), the new inner condition addresses it
/// directly (`j`), and vice versa for the condition that moves outward.
/// The rewrite therefore only fires when the local join input is a
/// constant `Data` leaf whose item name matches the outer path's first
/// segment — exactly the post-resolution state §2 describes ("Suppose
/// resources A and B are available locally, while X is not").
///
/// `is_local` says whether a sub-plan is evaluable here. Applies the
/// rewrite wherever profitable; returns the number of applications.
pub fn absorb(plan: &mut Plan, is_local: &impl Fn(&Plan) -> bool) -> usize {
    let mut count = 0;
    for c in plan.children_mut() {
        count += absorb(c, is_local);
    }
    let Plan::Join {
        on: on2,
        left,
        right,
    } = plan
    else {
        return count;
    };
    if !is_local(right) {
        return count;
    }
    let Plan::Join {
        on: on1,
        left: a,
        right: x,
    } = left.as_mut()
    else {
        return count;
    };
    let b = right;
    // Orientation 1: A local data, X remote; outer joins A's fields.
    if let Some(a_name) = data_item_name(a) {
        if is_local(a)
            && !is_local(x)
            && first_segment(&on2.left_path) == Some(a_name.as_str())
            && profitable(a, b)
        {
            let new_inner = Plan::Join {
                on: mqp_algebra::plan::JoinCond {
                    left_path: strip_first(&on2.left_path),
                    right_path: on2.right_path.clone(),
                },
                left: a.clone(),
                right: b.clone(),
            };
            let new_outer_on = mqp_algebra::plan::JoinCond {
                left_path: prefix(&on1.left_path, &a_name),
                right_path: on1.right_path.clone(),
            };
            *plan = Plan::Join {
                on: new_outer_on,
                left: Box::new(new_inner),
                right: x.clone(),
            };
            return count + 1;
        }
    }
    // Mirror: X local data (inner right), A remote; outer joins X's
    // fields.
    if let Some(x_name) = data_item_name(x) {
        if is_local(x)
            && !is_local(a)
            && first_segment(&on2.left_path) == Some(x_name.as_str())
            && profitable(x, b)
        {
            let new_inner = Plan::Join {
                on: mqp_algebra::plan::JoinCond {
                    left_path: strip_first(&on2.left_path),
                    right_path: on2.right_path.clone(),
                },
                left: x.clone(),
                right: b.clone(),
            };
            let new_outer_on = mqp_algebra::plan::JoinCond {
                // on1: left addressed A (raw), right addressed X (raw).
                // The new outer joins tuple(x,b) with A: left addresses
                // X through the tuple, right addresses A raw.
                left_path: prefix(&on1.right_path, &x_name),
                right_path: on1.left_path.clone(),
            };
            *plan = Plan::Join {
                on: new_outer_on,
                left: Box::new(new_inner),
                right: a.clone(),
            };
            return count + 1;
        }
    }
    count
}

/// The common item element name of a `Data` leaf, if uniform.
fn data_item_name(p: &Plan) -> Option<String> {
    let items = p.as_data()?;
    let first = items.first()?.name().to_owned();
    items.iter().all(|i| i.name() == first).then_some(first)
}

fn first_segment(path: &mqp_xml::xpath::Path) -> Option<&str> {
    match path.steps.first()?.test {
        mqp_xml::xpath::NodeTest::Name(ref n) if path.steps[0].predicates.is_empty() => {
            Some(n.as_str())
        }
        _ => None,
    }
}

fn strip_first(path: &mqp_xml::xpath::Path) -> mqp_xml::xpath::Path {
    mqp_xml::xpath::Path {
        absolute: false,
        steps: path.steps[1..].to_vec(),
    }
}

fn prefix(path: &mqp_xml::xpath::Path, name: &str) -> mqp_xml::xpath::Path {
    let mut steps = vec![mqp_xml::xpath::Step {
        test: mqp_xml::xpath::NodeTest::Name(mqp_xml::Name::new(name)),
        predicates: Vec::new(),
    }];
    steps.extend(path.steps.iter().cloned());
    mqp_xml::xpath::Path {
        absolute: false,
        steps,
    }
}

/// `|A ⋈ B| ≤ |A|` on the cost model's estimates.
fn profitable(a: &Plan, b: &Plan) -> bool {
    let a_est = estimate(a);
    let joined = estimate(&Plan::Join {
        on: mqp_algebra::plan::JoinCond::on("k", "k"),
        left: Box::new(a.clone()),
        right: Box::new(b.clone()),
    });
    joined.rows <= a_est.rows
}

/// Runs the cheap normalizations (select pushdown + consolidation) to a
/// fixpoint. Returns total rewrites applied.
pub fn normalize(plan: &mut Plan) -> usize {
    let mut total = 0;
    loop {
        let applied = push_select_down(plan) + consolidate(plan);
        if applied == 0 {
            return total;
        }
        total += applied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_algebra::plan::JoinCond;
    use mqp_engine::eval_const;
    use mqp_xml::{parse, Element};

    fn items(xmls: &[&str]) -> Vec<Element> {
        xmls.iter().map(|s| parse(s).unwrap()).collect()
    }

    #[test]
    fn select_pushes_through_union() {
        // Figure 4(a): the select moves inside the union of seller URLs.
        let mut p = Plan::select(
            "price < 10",
            Plan::union([Plan::url("mqp://s1/"), Plan::url("mqp://s2/")]),
        );
        assert_eq!(push_select_down(&mut p), 1);
        match &p {
            Plan::Union(inputs) => {
                assert_eq!(inputs.len(), 2);
                assert!(inputs.iter().all(|i| matches!(i, Plan::Select { .. })));
            }
            other => panic!("expected union, got {other}"),
        }
    }

    #[test]
    fn select_pushes_through_or_preserving_staleness() {
        let mut p = Plan::select(
            "price < 10",
            Plan::Or(vec![
                OrAlt::stale(Plan::url("mqp://r/"), 30),
                OrAlt::new(Plan::url("mqp://s/")),
            ]),
        );
        push_select_down(&mut p);
        match &p {
            Plan::Or(alts) => {
                assert_eq!(alts[0].staleness, Some(30));
                assert!(matches!(alts[0].plan, Plan::Select { .. }));
            }
            other => panic!("expected or, got {other}"),
        }
    }

    #[test]
    fn pushdown_preserves_results() {
        let data = Plan::data(items(&[
            "<i><price>5</price></i>",
            "<i><price>15</price></i>",
        ]));
        let mut p = Plan::select("price < 10", Plan::union([data.clone(), data.clone()]));
        let before = eval_const(&p).unwrap();
        push_select_down(&mut p);
        let after = eval_const(&p).unwrap();
        assert_eq!(before, after);
        assert_eq!(after.len(), 2);
    }

    #[test]
    fn consolidate_merges_data_leaves() {
        let mut p = Plan::union([
            Plan::data(items(&["<i><k>1</k></i>"])),
            Plan::url("mqp://x/"),
            Plan::union([Plan::data(items(&["<i><k>2</k></i>"]))]),
        ]);
        let n = consolidate(&mut p);
        assert!(n >= 2, "flatten + merge, got {n}");
        match &p {
            Plan::Union(inputs) => {
                assert_eq!(inputs.len(), 2);
                assert_eq!(inputs[0].as_data().unwrap().len(), 2);
            }
            other => panic!("expected union, got {other}"),
        }
    }

    #[test]
    fn consolidate_inlines_singleton_union() {
        let mut p = Plan::union([Plan::data(items(&["<i/>"]))]);
        consolidate(&mut p);
        assert!(matches!(p, Plan::Data { .. }));
    }

    /// Collects the base (non-`tuple`) items of a result, flattening
    /// join nesting — the equivalence absorption preserves.
    fn flatten(items: &mqp_xml::Batch) -> Vec<String> {
        fn rec(e: &Element, out: &mut Vec<String>) {
            if e.name() == "tuple" {
                for c in e.child_elements() {
                    rec(c, out);
                }
            } else {
                out.push(mqp_xml::serialize(e));
            }
        }
        let mut rows: Vec<String> = items
            .iter()
            .map(|t| {
                let mut parts = Vec::new();
                rec(t, &mut parts);
                parts.sort();
                parts.join("|")
            })
            .collect();
        rows.sort();
        rows
    }

    fn absorption_fixture() -> (Plan, Plan, Plan) {
        // A: local, 3 items; B: local, 1 item (joins 1 of A);
        // X: remote(ish), 3 items keyed to A.
        let a = Plan::data(items(&[
            "<a><k>1</k><j>p</j></a>",
            "<a><k>2</k><j>q</j></a>",
            "<a><k>3</k><j>r</j></a>",
        ]));
        let b = Plan::data(items(&["<b><j>p</j></b>"]));
        let x = Plan::data(items(&[
            "<x><k>1</k></x>",
            "<x><k>2</k></x>",
            "<x><k>3</k></x>",
        ]));
        (a, b, x)
    }

    #[test]
    fn absorb_rewrites_and_preserves_combinations() {
        let (a, b, x) = absorption_fixture();
        // (A ⋈ X) ⋈ B: the inner join works on raw items ("k"/"k"),
        // the outer addresses A through the tuple ("a/j").
        let x_remote = Plan::union([x.clone(), Plan::url("mqp://far/")]);
        let mut p = Plan::join(
            JoinCond::on("a/j", "j"),
            Plan::join(JoinCond::on("k", "k"), a.clone(), x_remote.clone()),
            b.clone(),
        );
        let is_local = |pl: &Plan| pl.urls().is_empty() && pl.urns().is_empty();
        let n = absorb(&mut p, &is_local);
        assert_eq!(n, 1);
        // New shape: (A ⋈ B) ⋈ X-remote, with surgically adjusted paths.
        match &p {
            Plan::Join { on, left, right } => {
                assert!(matches!(**left, Plan::Join { .. }));
                assert!(!is_local(right));
                assert_eq!(on.left_path.to_string(), "a/k");
                if let Plan::Join { on: inner_on, .. } = left.as_ref() {
                    assert_eq!(inner_on.left_path.to_string(), "j");
                }
            }
            other => panic!("expected join, got {other}"),
        }
        // Equivalence on the pure-data variant.
        let original = Plan::join(
            JoinCond::on("a/j", "j"),
            Plan::join(JoinCond::on("k", "k"), a.clone(), x.clone()),
            b.clone(),
        );
        let mut rewritten = original.clone();
        let always_local_except_x = |pl: &Plan| !matches!(pl, Plan::Data { items, .. } if items.first().map(|i| i.name()) == Some("x"));
        absorb(&mut rewritten, &always_local_except_x);
        let before = eval_const(&original).unwrap();
        let after = eval_const(&rewritten).unwrap();
        assert_eq!(flatten(&before), flatten(&after));
        assert_eq!(before.len(), 1); // only k=1/j=p row survives both joins
    }

    #[test]
    fn absorb_mirror_orientation() {
        // (A_remote ⋈ X_local) ⋈ B_local, outer joins X's fields.
        let (x_data, b, a_data) = {
            let (a, b, x) = absorption_fixture();
            (a, b, x) // reuse: "a"-named items play X_local here
        };
        let remote = Plan::union([a_data.clone(), Plan::url("mqp://far/")]);
        let mut p = Plan::join(
            JoinCond::on("a/j", "j"),
            Plan::join(JoinCond::on("k", "k"), remote, x_data.clone()),
            b.clone(),
        );
        let is_local = |pl: &Plan| pl.urls().is_empty() && pl.urns().is_empty();
        assert_eq!(absorb(&mut p, &is_local), 1);
        match &p {
            Plan::Join { on, left, right } => {
                assert!(matches!(**left, Plan::Join { .. }));
                assert!(!is_local(right));
                // Outer: X through tuple on the left, raw A on the right.
                assert_eq!(on.left_path.to_string(), "a/k");
                assert_eq!(on.right_path.to_string(), "k");
            }
            other => panic!("expected join, got {other}"),
        }
    }

    #[test]
    fn absorb_shrinks_shipped_branch() {
        // The point of the rewrite: the locally evaluable branch after
        // absorption (A ⋈ B) is smaller than A alone.
        let (a, b, _) = absorption_fixture();
        let joined = eval_const(&Plan::join(JoinCond::on("j", "j"), a.clone(), b)).unwrap();
        let a_items = eval_const(&a).unwrap();
        assert!(joined.len() < a_items.len());
    }

    #[test]
    fn absorb_unprofitable_is_skipped() {
        // B joins every A item twice: |A ⋈ B| > |A| ⇒ no rewrite.
        let a = Plan::data(items(&["<a><j>p</j></a>", "<a><j>p</j></a>"]));
        let b = Plan::data(items(&["<b><j>p</j></b>", "<b><j>p</j></b>"]));
        let x_remote = Plan::union([Plan::url("mqp://far/")]);
        let mut p = Plan::join(
            JoinCond::on("a/j", "j"),
            Plan::join(JoinCond::on("k", "k"), a, x_remote),
            b,
        );
        let is_local = |pl: &Plan| pl.urls().is_empty() && pl.urns().is_empty();
        assert_eq!(absorb(&mut p, &is_local), 0);
    }

    #[test]
    fn prune_drops_dead_alternatives_and_collapses() {
        let dead = mqp_catalog::ServerId::new("R");
        // R | S: pruning R collapses the Or to S.
        let mut p = Plan::or([Plan::url("mqp://R/"), Plan::url("mqp://S/")]);
        assert_eq!(prune_server_alternatives(&mut p, &dead), 1);
        match &p {
            Plan::Url(u) => assert_eq!(u.href, "mqp://S/"),
            other => panic!("expected collapsed url, got {other}"),
        }
        // Sole option: never pruned (the retry loop waits for R).
        let mut sole = Plan::or([Plan::url("mqp://R/")]);
        assert_eq!(prune_server_alternatives(&mut sole, &dead), 0);
        assert!(matches!(sole, Plan::Or(_)));
        // Non-Or plans are untouched.
        let mut union = Plan::union([Plan::url("mqp://R/"), Plan::url("mqp://S/")]);
        assert_eq!(prune_server_alternatives(&mut union, &dead), 0);
    }

    #[test]
    fn prune_repairs_nested_or_before_judging_outer() {
        // Or([Or([R, S]), T]): the inner Or sheds R and leaves S, so
        // the outer alternative must survive — top-down pruning would
        // have discarded S wholesale.
        let dead = mqp_catalog::ServerId::new("R");
        let mut p = Plan::or([
            Plan::or([Plan::url("mqp://R/"), Plan::url("mqp://S/")]),
            Plan::url("mqp://T/"),
        ]);
        assert_eq!(prune_server_alternatives(&mut p, &dead), 1);
        match &p {
            Plan::Or(alts) => {
                assert_eq!(alts.len(), 2);
                let hrefs: Vec<&str> = p.urls().iter().map(|u| u.href.as_str()).collect();
                assert_eq!(hrefs, ["mqp://S/", "mqp://T/"]);
            }
            other => panic!("expected outer Or intact, got {other}"),
        }
    }

    #[test]
    fn normalize_reaches_fixpoint() {
        let mut p = Plan::select(
            "price < 10",
            Plan::union([
                Plan::union([Plan::data(items(&["<i><price>1</price></i>"]))]),
                Plan::data(items(&["<i><price>11</price></i>"])),
            ]),
        );
        let n = normalize(&mut p);
        assert!(n > 0);
        let mut again = p.clone();
        assert_eq!(normalize(&mut again), 0);
        assert_eq!(again, p);
    }
}
