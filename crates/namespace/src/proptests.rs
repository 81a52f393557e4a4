//! Property tests: the cover relation is a partial order on canonical
//! areas, overlap is symmetric and agrees with intersection, and the URN
//! codec round-trips — the invariants DESIGN.md §5 commits to.

use proptest::prelude::*;

use crate::area::{Cell, InterestArea};
use crate::hierarchy::CategoryPath;
use crate::urn::{decode_area, encode_area, Urn};

/// Category paths drawn from a small alphabet so cover/overlap cases are
/// actually exercised (a huge alphabet would make everything disjoint).
fn arb_path() -> impl Strategy<Value = CategoryPath> {
    proptest::collection::vec(proptest::sample::select(vec!["A", "B", "C"]), 0..4)
        .prop_map(|segs| CategoryPath::new(segs.into_iter().map(str::to_owned)))
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    proptest::collection::vec(arb_path(), 2..=2).prop_map(Cell::new)
}

/// Cells of arity 0 to 3, so mismatched arities meet as often as equal ones.
fn arb_cell_any_arity() -> impl Strategy<Value = Cell> {
    proptest::collection::vec(arb_path(), 0..4).prop_map(Cell::new)
}

fn arb_area() -> impl Strategy<Value = InterestArea> {
    proptest::collection::vec(arb_cell(), 1..5).prop_map(InterestArea::new)
}

/// Category names as `Hierarchy::add` accepts them: the area grammar's
/// own characters, `%`, whitespace, control and non-ASCII text, and a
/// lone `*` beside plain names.
fn arb_name() -> impl Strategy<Value = String> {
    let chars = vec![
        'A', 'z', '0', '-', '.', ',', '(', ')', '+', '*', '%', ' ', '\t', '\n', '\u{7f}', '\u{a0}',
        'é', '日', ':', '/',
    ];
    prop_oneof![
        Just("*".to_owned()),
        proptest::sample::select(vec!["St. Louis", "Vinyl (LP)", "USA", "100%"])
            .prop_map(str::to_owned),
        proptest::collection::vec(proptest::sample::select(chars), 1..8)
            .prop_map(|cs| cs.into_iter().collect()),
    ]
}

/// Areas over [`arb_name`] segments, for the URN codec alone (cover
/// and overlap want [`arb_area`]'s small alphabet).
fn arb_named_area() -> impl Strategy<Value = InterestArea> {
    let path = proptest::collection::vec(arb_name(), 0..4).prop_map(CategoryPath::new);
    let cell = proptest::collection::vec(path, 2..=2).prop_map(Cell::new);
    proptest::collection::vec(cell, 1..5).prop_map(InterestArea::new)
}

fn hash_of(a: &InterestArea) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    BuildHasherDefault::<DefaultHasher>::default().hash_one(a)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn path_cover_partial_order(a in arb_path(), b in arb_path(), c in arb_path()) {
        prop_assert!(a.covers(&a));
        if a.covers(&b) && b.covers(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    #[test]
    fn path_intersect_is_glb(a in arb_path(), b in arb_path()) {
        match a.intersect(&b) {
            Some(i) => {
                prop_assert!(a.covers(&i) && b.covers(&i));
                // Greatest: i is one of the two inputs.
                prop_assert!(i == a || i == b);
            }
            None => prop_assert!(!a.comparable(&b)),
        }
    }

    #[test]
    fn cell_cover_partial_order(a in arb_cell(), b in arb_cell(), c in arb_cell()) {
        prop_assert!(a.covers(&a));
        if a.covers(&b) && b.covers(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    #[test]
    fn cell_overlap_symmetric_with_witness(a in arb_cell(), b in arb_cell()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        if let Some(w) = a.intersect(&b) {
            prop_assert!(a.covers(&w) && b.covers(&w));
        }
    }

    #[test]
    fn cell_overlap_agrees_with_intersect(a in arb_cell_any_arity(), b in arb_cell_any_arity()) {
        prop_assert_eq!(a.overlaps(&b), a.intersect(&b).is_some(), "a={} b={}", a, b);
    }

    #[test]
    fn area_cover_reflexive_transitive(a in arb_area(), b in arb_area(), c in arb_area()) {
        prop_assert!(a.covers(&a));
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    #[test]
    fn area_overlap_symmetric(a in arb_area(), b in arb_area()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn area_intersection_covered_by_both(a in arb_area(), b in arb_area()) {
        let i = a.intersect(&b);
        prop_assert!(a.covers(&i), "a={a} b={b} i={i}");
        prop_assert!(b.covers(&i), "a={a} b={b} i={i}");
        prop_assert_eq!(!i.is_empty(), a.overlaps(&b));
    }

    #[test]
    fn area_union_covers_both(a in arb_area(), b in arb_area()) {
        let u = a.union(&b);
        prop_assert!(u.covers(&a));
        prop_assert!(u.covers(&b));
    }

    #[test]
    fn canonical_is_idempotent_and_equivalent(a in arb_area()) {
        let c = a.clone().canonical();
        prop_assert_eq!(c.clone().canonical(), c.clone());
        // Canonicalization preserves the covered region.
        prop_assert!(c.covers(&a) && a.covers(&c));
    }

    #[test]
    fn shared_clone_equals_a_deep_rebuild(a in arb_area()) {
        let shared = a.clone();
        let rebuilt = InterestArea::new(a.cells().to_vec());
        prop_assert_eq!(shared.cells().as_ptr(), a.cells().as_ptr());
        prop_assert_ne!(rebuilt.cells().as_ptr(), a.cells().as_ptr());
        prop_assert_eq!(&shared, &rebuilt);
        prop_assert_eq!(hash_of(&shared), hash_of(&rebuilt));
        prop_assert!(shared.covers(&rebuilt) && rebuilt.covers(&shared));
    }

    #[test]
    fn urn_roundtrip(a in arb_named_area()) {
        let urn = Urn::area(a.clone());
        let s = urn.to_string();
        let back = Urn::parse(&s).expect("urn reparse");
        prop_assert_eq!(back, urn);
        // And via the raw codec.
        prop_assert_eq!(decode_area(&encode_area(&a)).unwrap(), a);
    }

    #[test]
    fn cover_implies_overlap_on_nonempty(a in arb_area(), b in arb_area()) {
        if a.covers(&b) && !b.is_empty() {
            prop_assert!(a.overlaps(&b));
        }
    }
}
