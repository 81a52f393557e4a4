//! Interest cells and interest areas (paper §3.1, Figure 5).

use std::fmt;

use crate::hierarchy::{CategoryPath, Namespace};

/// An *interest cell*: the cross product of one category per dimension,
/// written as an n-tuple, e.g. `[USA/OR/Portland, Furniture]`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell(Vec<CategoryPath>);

impl Cell {
    /// Builds a cell from per-dimension coordinates (namespace order).
    pub fn new(coords: impl IntoIterator<Item = CategoryPath>) -> Self {
        Cell(coords.into_iter().collect())
    }

    /// Convenience: builds a cell from path strings, e.g.
    /// `Cell::parse(["USA/OR/Portland", "Furniture"])`.
    pub fn parse<'a>(coords: impl IntoIterator<Item = &'a str>) -> Self {
        Cell(coords.into_iter().map(CategoryPath::from).collect())
    }

    /// The all-inclusive cell `[*, *, …]` for an `arity`-dimension
    /// namespace.
    pub fn top(arity: usize) -> Self {
        Cell(vec![CategoryPath::top(); arity])
    }

    /// Per-dimension coordinates.
    pub fn coords(&self) -> &[CategoryPath] {
        &self.0
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Cell cover (paper): `x` covers `y` iff for *every* dimension the
    /// category of `x` is a parent of, or the same as, that of `y`.
    /// Cells of different arity never cover each other.
    pub(crate) fn covers(&self, other: &Cell) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.covers(b))
    }

    /// The intersection cell, if the two cells share any coordinates:
    /// per-dimension the more specific category; `None` if any dimension
    /// is incomparable (then the cells share no items).
    pub fn intersect(&self, other: &Cell) -> Option<Cell> {
        if self.0.len() != other.0.len() {
            return None;
        }
        let mut out = Vec::with_capacity(self.0.len());
        for (a, b) in self.0.iter().zip(&other.0) {
            out.push(a.intersect(b)?);
        }
        Some(Cell(out))
    }

    /// True if the two cells share at least one most-specific cell:
    /// same arity and every coordinate pair comparable — exactly when
    /// [`Cell::intersect`] is `Some`, without building the witness.
    pub(crate) fn overlaps(&self, other: &Cell) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.comparable(b))
    }

    /// Generalizes every coordinate by `levels` (see
    /// [`CategoryPath::generalize`]).
    pub fn generalize(&self, levels: usize) -> Cell {
        Cell(self.0.iter().map(|c| c.generalize(levels)).collect())
    }

    /// Sum of coordinate depths; a simple specificity measure used to
    /// pick "most detailed authoritative server" (§3.3).
    pub(crate) fn specificity(&self) -> usize {
        self.0.iter().map(CategoryPath::depth).sum()
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

/// An *interest area*: a set of interest cells. Data providers describe
/// their holdings with one; data consumers phrase queries with one.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct InterestArea {
    cells: Vec<Cell>,
}

impl InterestArea {
    /// Empty area (covers nothing).
    pub fn empty() -> Self {
        InterestArea::default()
    }

    /// Area of a single cell.
    pub fn of(cell: Cell) -> Self {
        InterestArea { cells: vec![cell] }.canonical()
    }

    /// Area from several cells; canonicalizes (drops cells covered by
    /// sibling cells, dedups, sorts).
    pub fn new(cells: impl IntoIterator<Item = Cell>) -> Self {
        InterestArea {
            cells: cells.into_iter().collect(),
        }
        .canonical()
    }

    /// Convenience for tests/examples: builds from string tuples, e.g.
    /// `InterestArea::parse(&[&["USA/OR/Portland", "Furniture"]])`.
    pub fn parse(cells: &[&[&str]]) -> Self {
        InterestArea::new(cells.iter().map(|c| Cell::parse(c.iter().copied())))
    }

    /// The area's cells (canonical order).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// True if the area has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Canonical form: no cell covered by another cell of the same area,
    /// no duplicates, sorted. Two areas denoting the same region compare
    /// equal in canonical form *when cover structure makes them equal as
    /// cell sets*; full extensional equality would need the hierarchy
    /// (e.g. a parent equals the union of all its children only if the
    /// children are exhaustive, which providers cannot know — see §3.2).
    pub(crate) fn canonical(mut self) -> Self {
        self.cells.sort();
        self.cells.dedup();
        let cells = std::mem::take(&mut self.cells);
        let mut keep: Vec<Cell> = Vec::with_capacity(cells.len());
        // After dedup, mutual cover implies equality, so `covers` on
        // distinct cells is strict domination.
        for c in &cells {
            let dominated = cells.iter().any(|other| other != c && other.covers(c));
            if !dominated {
                keep.push(c.clone());
            }
        }
        InterestArea { cells: keep }
    }

    /// Area cover (paper): `a` covers `b` iff every cell of `b` is
    /// covered by *some* cell of `a`.
    pub fn covers(&self, other: &InterestArea) -> bool {
        other
            .cells
            .iter()
            .all(|b| self.cells.iter().any(|a| a.covers(b)))
    }

    /// Two areas overlap iff some cell is covered by both — equivalently,
    /// some pair of their cells intersects.
    pub fn overlaps(&self, other: &InterestArea) -> bool {
        self.cells
            .iter()
            .any(|a| other.cells.iter().any(|b| a.overlaps(b)))
    }

    /// The intersection area: all pairwise cell intersections.
    pub fn intersect(&self, other: &InterestArea) -> InterestArea {
        InterestArea::new(
            self.cells
                .iter()
                .flat_map(|a| other.cells.iter().filter_map(move |b| a.intersect(b))),
        )
    }

    /// The union area (canonicalized).
    pub fn union(&self, other: &InterestArea) -> InterestArea {
        InterestArea::new(self.cells.iter().chain(&other.cells).cloned())
    }

    /// Validates every cell against the namespace.
    pub fn valid_in(&self, ns: &Namespace) -> bool {
        self.cells.iter().all(|c| ns.validates_cell(c))
    }

    /// Rewrites every coordinate to its nearest known category in `ns`
    /// (§3.5 approximation: loses precision, never recall).
    pub fn generalize_to_known(&self, ns: &Namespace) -> InterestArea {
        InterestArea::new(self.cells.iter().map(|cell| {
            Cell::new(
                cell.coords()
                    .iter()
                    .zip(ns.dimensions())
                    .map(|(c, d)| d.generalize_to_known(c)),
            )
        }))
    }

    /// Maximum cell specificity in the area.
    pub fn specificity(&self) -> usize {
        self.cells.iter().map(Cell::specificity).max().unwrap_or(0)
    }
}

impl fmt::Display for InterestArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cells.is_empty() {
            return write!(f, "∅");
        }
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdx_furniture() -> Cell {
        Cell::parse(["USA/OR/Portland", "Furniture"])
    }

    #[test]
    fn cell_covers_requires_all_dims() {
        let broad = Cell::parse(["USA", "Furniture"]);
        let narrow = Cell::parse(["USA/OR/Portland", "Furniture/Chairs"]);
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        // One dimension broader, the other narrower: neither covers.
        let mixed = Cell::parse(["USA/OR", "Furniture/Chairs/Armchairs"]);
        let other = Cell::parse(["USA/OR/Portland", "Furniture"]);
        assert!(!mixed.covers(&other));
        assert!(!other.covers(&mixed));
        // But they overlap (figure-5 style partial overlap).
        assert!(mixed.overlaps(&other));
        assert_eq!(
            mixed.intersect(&other).unwrap(),
            Cell::parse(["USA/OR/Portland", "Furniture/Chairs/Armchairs"])
        );
    }

    #[test]
    fn disjoint_cells_do_not_intersect() {
        let pdx = Cell::parse(["USA/OR/Portland", "Furniture"]);
        let fr = Cell::parse(["France", "Furniture"]);
        assert!(pdx.intersect(&fr).is_none());
        assert!(!pdx.overlaps(&fr));
    }

    #[test]
    fn arity_mismatch_never_covers() {
        let a = Cell::parse(["USA"]);
        let b = Cell::parse(["USA", "Furniture"]);
        assert!(!a.covers(&b));
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn paper_figure5_areas() {
        // Area (a): Vancouver–Portland furniture; area (b): all of Portland.
        let a = InterestArea::parse(&[
            &["USA/WA/Vancouver", "Furniture"],
            &["USA/OR/Portland", "Furniture"],
        ]);
        let b = InterestArea::parse(&[&["USA/OR/Portland", "*"]]);
        // The armchair query of §3.1.
        let q = InterestArea::parse(&[&["USA/OR/Portland", "Furniture/Chairs"]]);
        assert!(a.overlaps(&q));
        assert!(b.overlaps(&q));
        assert!(b.covers(&q));
        assert!(!a.covers(&b));
        assert!(a.overlaps(&b));
    }

    #[test]
    fn canonical_drops_dominated_cells() {
        let area = InterestArea::parse(&[
            &["USA", "Furniture"],
            &["USA/OR/Portland", "Furniture/Chairs"], // covered by the first
            &["France", "*"],
        ]);
        assert_eq!(area.cells().len(), 2);
        assert!(area.covers(&InterestArea::parse(&[&[
            "USA/OR/Portland",
            "Furniture/Chairs"
        ]])));
    }

    #[test]
    fn canonical_dedups() {
        let area = InterestArea::parse(&[&["USA", "*"], &["USA", "*"]]);
        assert_eq!(area.cells().len(), 1);
    }

    #[test]
    fn intersect_areas() {
        let sporting = InterestArea::parse(&[&["USA/OR", "SportingGoods"]]);
        let pdx_all = InterestArea::parse(&[&["USA/OR/Portland", "*"]]);
        let both = sporting.intersect(&pdx_all);
        assert_eq!(
            both,
            InterestArea::parse(&[&["USA/OR/Portland", "SportingGoods"]])
        );
        let fr = InterestArea::parse(&[&["France", "*"]]);
        assert!(sporting.intersect(&fr).is_empty());
    }

    #[test]
    fn union_canonicalizes() {
        let a = InterestArea::parse(&[&["USA/OR/Portland", "Furniture"]]);
        let b = InterestArea::parse(&[&["USA", "Furniture"]]);
        let u = a.union(&b);
        assert_eq!(u.cells().len(), 1);
        assert_eq!(u, b);
    }

    #[test]
    fn empty_area_behaviour() {
        let e = InterestArea::empty();
        let any = InterestArea::parse(&[&["USA", "*"]]);
        assert!(any.covers(&e)); // vacuous
        assert!(!e.covers(&any));
        assert!(!e.overlaps(&any));
        assert_eq!(e.to_string(), "∅");
    }

    #[test]
    fn display_formats() {
        assert_eq!(pdx_furniture().to_string(), "[USA/OR/Portland, Furniture]");
        let area = InterestArea::parse(&[
            &["USA/OR/Portland", "Furniture"],
            &["USA/WA/Vancouver", "Furniture"],
        ]);
        let s = area.to_string();
        assert!(s.contains(" + "), "{s}");
    }

    #[test]
    fn generalize_to_known_against_namespace() {
        use crate::hierarchy::{Hierarchy, Namespace};
        let ns = Namespace::new([
            Hierarchy::new("Location").with(["USA/OR/Portland"]),
            Hierarchy::new("Merchandise").with(["Furniture/Chairs"]),
        ]);
        let area =
            InterestArea::parse(&[&["USA/OR/Portland/Hawthorne", "Furniture/Chairs/Recliners"]]);
        assert!(!area.valid_in(&ns));
        let g = area.generalize_to_known(&ns);
        assert!(g.valid_in(&ns));
        assert_eq!(
            g,
            InterestArea::parse(&[&["USA/OR/Portland", "Furniture/Chairs"]])
        );
        assert!(g.covers(&InterestArea::parse(&[&[
            "USA/OR/Portland",
            "Furniture/Chairs"
        ]])));
    }

    #[test]
    fn specificity_orders_detail() {
        let broad = InterestArea::parse(&[&["USA", "*"]]);
        let narrow = InterestArea::parse(&[&["USA/OR/Portland", "Furniture/Chairs"]]);
        assert!(narrow.specificity() > broad.specificity());
    }
}
