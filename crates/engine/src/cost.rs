//! Size estimation for plans: the numbers the Figure-2 optimizer hands
//! the policy manager ("optimizes them and estimates their costs").
//!
//! Estimates prefer announced statistics (leaf annotations, §5.1) and
//! fall back to System-R-style defaults. They drive two decisions in
//! `mqp-core`:
//!
//! * **deferment** — decline to evaluate a sub-plan whose result would
//!   bloat the shipped plan (§5.1's million-element `B`);
//! * **absorption** — prefer rewrites that shrink the partial result
//!   (§2's `(A ⋈ X) ⋈ B → (A ⋈ B) ⋈ (X ⋈ B)`).

use mqp_algebra::plan::Plan;
use mqp_algebra::predicate::AggFunc;

/// Default cardinality assumed for an unannotated remote collection.
pub(crate) const DEFAULT_REMOTE_ROWS: f64 = 1000.0;

/// Default serialized size assumed per item, in bytes.
pub(crate) const DEFAULT_ITEM_BYTES: f64 = 128.0;

/// Join selectivity default when distinct counts are unknown:
/// `|L ⋈ R| = |L|·|R| / max(V(L), V(R))` with `V = max(|L|,|R|)/10`.
const DEFAULT_JOIN_FANOUT: f64 = 0.1;

/// Estimated result size of a (sub-)plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated number of result items.
    pub rows: f64,
    /// Estimated serialized size of the result in bytes.
    pub bytes: f64,
}

impl Estimate {
    /// Bytes per row implied by the estimate.
    pub(crate) fn row_bytes(&self) -> f64 {
        if self.rows > 0.0 {
            self.bytes / self.rows
        } else {
            DEFAULT_ITEM_BYTES
        }
    }
}

/// Estimates the result size of `plan`.
pub fn estimate(plan: &Plan) -> Estimate {
    match plan {
        Plan::Data { items, .. } => {
            let bytes: usize = items.iter().map(|i| i.serialized_len()).sum();
            Estimate {
                rows: items.len() as f64,
                bytes: bytes as f64,
            }
        }
        Plan::Url(u) => leaf_estimate(u.meta.cardinality(), u.meta.byte_size()),
        Plan::Urn(u) => leaf_estimate(u.meta.cardinality(), u.meta.byte_size()),
        Plan::Select { pred, input } => {
            let e = estimate(input);
            let s = pred.default_selectivity();
            Estimate {
                rows: e.rows * s,
                bytes: e.bytes * s,
            }
        }
        Plan::Project { fields, input } => {
            let e = estimate(input);
            // Crude: assume each kept field is an equal share of the item
            // and an item has ~4 fields when we know nothing else.
            let keep = (fields.len() as f64 / 4.0).min(1.0);
            Estimate {
                rows: e.rows,
                bytes: e.bytes * keep,
            }
        }
        Plan::Join { left, right, .. } => {
            let l = estimate(left);
            let r = estimate(right);
            let distinct = distinct_estimate(left, l.rows)
                .max(distinct_estimate(right, r.rows))
                .max(1.0);
            let rows = (l.rows * r.rows / distinct).min(l.rows * r.rows);
            // Tuples carry both items plus the <tuple> wrapper (~17 bytes).
            let bytes = rows * (l.row_bytes() + r.row_bytes() + 17.0);
            Estimate { rows, bytes }
        }
        Plan::Union(inputs) => {
            let mut rows = 0.0;
            let mut bytes = 0.0;
            for i in inputs {
                let e = estimate(i);
                rows += e.rows;
                bytes += e.bytes;
            }
            Estimate { rows, bytes }
        }
        // The policy manager will pick one alternative; until then assume
        // the first (preferred) one.
        Plan::Or(alts) => alts.first().map(|a| estimate(&a.plan)).unwrap_or(Estimate {
            rows: 0.0,
            bytes: 0.0,
        }),
        Plan::Aggregate { func, .. } => Estimate {
            rows: 1.0,
            bytes: match func {
                AggFunc::Count => 24.0,
                _ => 32.0,
            },
        },
        Plan::TopN { n, input, .. } => {
            let e = estimate(input);
            let rows = e.rows.min(*n as f64);
            Estimate {
                rows,
                bytes: rows * e.row_bytes(),
            }
        }
        Plan::Display { input, .. } => estimate(input),
    }
}

fn leaf_estimate(cardinality: Option<u64>, bytes: Option<u64>) -> Estimate {
    let rows = cardinality.map(|c| c as f64).unwrap_or(DEFAULT_REMOTE_ROWS);
    let bytes = bytes.map(|b| b as f64).unwrap_or(rows * DEFAULT_ITEM_BYTES);
    Estimate { rows, bytes }
}

/// Distinct-value estimate for a join input of `rows` estimated rows:
/// the announced `distinct` annotation when present, else rows ×
/// default fanout factor. Taking the caller's `rows` keeps `estimate`
/// one walk per input, not one per join level above it.
fn distinct_estimate(plan: &Plan, rows: f64) -> f64 {
    let announced = match plan {
        Plan::Url(u) => u.meta.distinct(),
        Plan::Urn(u) => u.meta.distinct(),
        Plan::Data { meta, .. } => meta.distinct(),
        _ => None,
    };
    match announced {
        Some(d) => d as f64,
        None => rows.max(1.0) / DEFAULT_JOIN_FANOUT.recip().min(10.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_algebra::plan::{JoinCond, UrlRef};
    use mqp_xml::parse;

    fn data3() -> Plan {
        Plan::data([
            parse("<i><p>1</p></i>").unwrap(),
            parse("<i><p>2</p></i>").unwrap(),
            parse("<i><p>3</p></i>").unwrap(),
        ])
    }

    #[test]
    fn data_estimate_is_exact() {
        let e = estimate(&data3());
        assert_eq!(e.rows, 3.0);
        assert_eq!(e.bytes, 3.0 * "<i><p>1</p></i>".len() as f64);
    }

    #[test]
    fn unannotated_leaf_uses_defaults() {
        let e = estimate(&Plan::url("http://x/"));
        assert_eq!(e.rows, DEFAULT_REMOTE_ROWS);
        assert_eq!(e.bytes, DEFAULT_REMOTE_ROWS * DEFAULT_ITEM_BYTES);
    }

    #[test]
    fn annotated_leaf_uses_announcement() {
        let mut u = UrlRef::new("http://x/");
        u.meta.set_cardinality(1_000_000);
        let e = estimate(&Plan::Url(u));
        assert_eq!(e.rows, 1_000_000.0);
    }

    #[test]
    fn select_shrinks() {
        let base = estimate(&data3()).rows;
        let sel = estimate(&Plan::select("p = 1", data3()));
        assert!(sel.rows < base);
    }

    #[test]
    fn join_bigger_than_inputs_but_bounded() {
        let j = Plan::join(JoinCond::on("p", "p"), data3(), data3());
        let e = estimate(&j);
        assert!(e.rows <= 9.0);
        assert!(e.rows > 0.0);
    }

    #[test]
    fn left_deep_join_chain_estimate_is_pinned() {
        // ((data3 ⋈ a) ⋈ b) ⋈ data3, with `a` annotated and `b` on the
        // remote defaults. Every value is exact in f64:
        //   data3 ⋈ a: 3·100 / max(0.3, 10)     =  30 rows × (15 + 50 + 17) B
        //   … ⋈ b:     30·1000 / max(3, 100)    = 300 rows × (82 + 128 + 17) B
        //   … ⋈ data3: 300·3 / max(30, 0.3)     =  30 rows × (227 + 15 + 17) B
        let mut a = UrlRef::new("http://a/");
        a.meta.set_cardinality(100);
        a.meta.set("bytes", "5000");
        let on = || JoinCond::on("p", "p");
        let chain = Plan::join(
            on(),
            Plan::join(
                on(),
                Plan::join(on(), data3(), Plan::Url(a)),
                Plan::url("http://b/"),
            ),
            data3(),
        );
        assert_eq!(
            estimate(&chain),
            Estimate {
                rows: 30.0,
                bytes: 30.0 * 259.0,
            }
        );
    }

    #[test]
    fn union_adds() {
        let u = Plan::union([data3(), data3()]);
        assert_eq!(estimate(&u).rows, 6.0);
    }

    #[test]
    fn aggregate_is_single_row() {
        let a = Plan::aggregate(AggFunc::Count, None, Plan::url("http://x/"));
        assert_eq!(estimate(&a).rows, 1.0);
    }

    #[test]
    fn topn_caps_rows() {
        let t = Plan::top_n(2, "p", true, data3());
        assert_eq!(estimate(&t).rows, 2.0);
        let t10 = Plan::top_n(10, "p", true, data3());
        assert_eq!(estimate(&t10).rows, 3.0);
    }

    #[test]
    fn deferment_signal_large_remote_join() {
        // §5.1: a million-element B should look much bigger than a small
        // filtered sub-plan — the policy manager uses this contrast.
        let mut big = UrlRef::new("http://b/");
        big.meta.set_cardinality(1_000_000);
        let small = Plan::select("p = 1", data3());
        assert!(estimate(&Plan::Url(big)).bytes > 1000.0 * estimate(&small).bytes);
    }
}
