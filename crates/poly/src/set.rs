//! Unions of convex polyhedra ("Presburger-lite" sets) with the algebra the
//! restructuring algorithm needs: union, intersection, difference,
//! membership, and exact enumeration.

use crate::constraint::Constraint;
use crate::polyhedron::Polyhedron;
use std::fmt;

/// A finite union of convex integer polyhedra over a common space.
///
/// This plays the role of an Omega-library relation restricted to sets: the
/// restructuring algorithm of the paper builds per-disk iteration sets
/// `Q_d`, subtracts scheduled iterations (`Q = Q − Q_d`), and intersects
/// with dependence-ready windows — exactly the operations provided here.
///
/// # Examples
///
/// ```
/// use dpm_poly::{Set, Polyhedron};
/// let a = Set::from(Polyhedron::universe(1).with_range(0, 0, 9));
/// let b = Set::from(Polyhedron::universe(1).with_range(0, 4, 6));
/// let d = a.subtract(&b);
/// assert_eq!(d.count_points(), 7);
/// assert!(d.contains(&[3]) && !d.contains(&[5]));
/// ```
#[derive(Clone)]
pub struct Set {
    dim: usize,
    parts: Vec<Polyhedron>,
}

impl Set {
    /// The empty set over `dim` variables.
    pub fn empty(dim: usize) -> Self {
        Set {
            dim,
            parts: Vec::new(),
        }
    }

    /// The universe over `dim` variables.
    pub fn universe(dim: usize) -> Self {
        Set {
            dim,
            parts: vec![Polyhedron::universe(dim)],
        }
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The disjuncts. They may overlap (union does not disjointify); the
    /// enumeration methods deduplicate.
    pub fn parts(&self) -> &[Polyhedron] {
        &self.parts
    }

    /// Whether `point` belongs to any disjunct.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.parts.iter().any(|p| p.contains(point))
    }

    /// Union (concatenation of disjuncts, empty disjuncts dropped lazily).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn union(&self, other: &Set) -> Set {
        self.clone().into_union(other.clone())
    }

    /// By-value [`union`](Self::union): consumes both operands, moving their
    /// disjunct vectors instead of cloning them — the same ownership
    /// discipline as [`into_subtract`](Self::into_subtract) and
    /// [`into_constrained`](Self::into_constrained).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn into_union(mut self, other: Set) -> Set {
        assert_eq!(self.dim, other.dim, "dimension mismatch in union");
        self.parts.extend(other.parts);
        self
    }

    /// Intersection (pairwise conjunction of disjuncts).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn intersect(&self, other: &Set) -> Set {
        assert_eq!(self.dim, other.dim, "dimension mismatch in intersect");
        let mut parts = Vec::new();
        for a in &self.parts {
            for b in &other.parts {
                let c = a.intersect(b);
                if !c.is_rationally_empty() {
                    parts.push(c);
                }
            }
        }
        Set {
            dim: self.dim,
            parts,
        }
    }

    /// Set difference `self − other`, computed by complement splitting: for
    /// each disjunct `B = c1 ∧ … ∧ ck` of `other`, `A − B` is the union over
    /// `j` of `A ∧ c1 ∧ … ∧ c(j−1) ∧ ¬cj`. The result's disjuncts are
    /// pairwise disjoint with respect to each subtracted disjunct.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn subtract(&self, other: &Set) -> Set {
        self.clone().into_subtract(other)
    }

    /// By-value [`subtract`](Self::subtract): consumes `self`, moving its
    /// disjuncts into the splitting loop instead of cloning them. The
    /// restructurer's `Q = Q − Q_d` update already owns `Q`, so this is the
    /// hot-path entry point (see the `set_difference` microbench).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn into_subtract(mut self, other: &Set) -> Set {
        assert_eq!(self.dim, other.dim, "dimension mismatch in subtract");
        let _sp = dpm_obs::span!("poly_subtract");
        for b in &other.parts {
            if b.is_rationally_empty() {
                // Subtracting nothing: note this also covers a `b` whose
                // stored constraints are accompanied by a proven-infeasible
                // one.
                continue;
            }
            self = self.into_subtract_polyhedron(b);
        }
        self
    }

    fn into_subtract_polyhedron(self, b: &Polyhedron) -> Set {
        let mut parts = Vec::with_capacity(self.parts.len());
        for a in self.parts {
            // A ∧ ¬(c1 ∧ … ∧ ck) = ⋃_j (A ∧ c1 … c(j−1) ∧ ¬cj);
            // when b has no constraints it is the universe and nothing of
            // `a` survives. `a` is moved into the running context; only the
            // surviving pieces are fresh allocations.
            let mut context = a;
            for c in b.constraints() {
                for neg in c.negations() {
                    let piece = context.clone().with(neg);
                    if !piece.is_rationally_empty() {
                        parts.push(piece);
                    }
                }
                context.add(c.clone());
                if context.is_trivially_empty() {
                    // Every further piece would be context ∧ ¬cj = empty.
                    break;
                }
            }
        }
        Set {
            dim: self.dim,
            parts,
        }
    }

    /// Whether the set has no integer points.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// Whether every integer point of `self` lies in `other`
    /// (`A ⊆ B ⇔ A ∖ B = ∅`). Exact over integers — the subtraction's
    /// emptiness check falls back to lattice enumeration where the
    /// rational test is inconclusive.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn is_subset_of(&self, other: &Set) -> bool {
        self.subtract(other).is_empty()
    }

    /// Some integer point of the set, or `None` if it is empty. Used to
    /// produce concrete witnesses for non-empty violation sets.
    pub fn sample_point(&self) -> Option<Vec<i64>> {
        self.parts.iter().find_map(|p| p.find_point())
    }

    /// Drops disjuncts proven empty (by the cheap rational test); returns
    /// the simplified set.
    #[must_use]
    pub fn simplified(&self) -> Set {
        Set {
            dim: self.dim,
            parts: self
                .parts
                .iter()
                .filter(|p| !p.is_rationally_empty())
                .cloned()
                .collect(),
        }
    }

    /// Calls `f` for each distinct integer point. Points are produced in
    /// lexicographic order *within* each disjunct; a point contained in an
    /// earlier disjunct is skipped so each point is visited exactly once.
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is unbounded.
    pub fn enumerate<F: FnMut(&[i64])>(&self, mut f: F) {
        for (i, p) in self.parts.iter().enumerate() {
            p.enumerate(|pt| {
                if !self.parts[..i].iter().any(|q| q.contains(pt)) {
                    f(pt);
                }
            });
        }
    }

    /// All distinct points, sorted lexicographically, written into `buf` as
    /// a flat row-major buffer of `dim()`-length coordinate tuples — one
    /// heap allocation total, versus one per point for
    /// [`points_sorted`](Self::points_sorted). `buf` is cleared first;
    /// returns the number of points written.
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is unbounded.
    pub fn points_into(&self, buf: &mut Vec<i64>) -> usize {
        buf.clear();
        self.enumerate(|p| buf.extend_from_slice(p));
        if self.dim == 0 {
            return usize::from(self.parts.iter().any(|p| p.contains(&[])));
        }
        let n = buf.len() / self.dim;
        // A single disjunct already enumerates in lexicographic order; with
        // several, sort the tuple chunks via an index permutation.
        if self.parts.len() > 1 && n > 1 {
            let chunk = |i: usize| &buf[i * self.dim..(i + 1) * self.dim];
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| chunk(a).cmp(chunk(b)));
            let mut sorted = Vec::with_capacity(buf.len());
            for i in order {
                sorted.extend_from_slice(chunk(i));
            }
            *buf = sorted;
        }
        n
    }

    /// A pull-based cursor over the set's points: exactly the points of
    /// [`points_into`](Self::points_into) — distinct, lexicographically
    /// sorted — streamed one at a time without ever materializing them.
    ///
    /// Each disjunct gets a lazy [`crate::ScanCursor`] (which yields its
    /// points in lexicographic order); a point is owned by the first
    /// disjunct containing it, and the per-disjunct streams are k-way
    /// merged. For a single disjunct this is a zero-copy pass-through.
    ///
    /// # Panics
    ///
    /// [`SetCursor::next_point`] panics if any disjunct is unbounded.
    pub fn cursor(&self) -> SetCursor<'_> {
        SetCursor::new(self)
    }

    /// All distinct points, sorted lexicographically.
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is unbounded.
    pub fn points_sorted(&self) -> Vec<Vec<i64>> {
        if self.dim == 0 {
            return if self.parts.iter().any(|p| p.contains(&[])) {
                vec![Vec::new()]
            } else {
                Vec::new()
            };
        }
        let mut flat = Vec::new();
        let n = self.points_into(&mut flat);
        (0..n)
            .map(|i| flat[i * self.dim..(i + 1) * self.dim].to_vec())
            .collect()
    }

    /// Number of distinct integer points.
    ///
    /// When the disjuncts are pairwise disjoint (always true for a single
    /// disjunct, and checked cheaply for a handful of them), the count is
    /// the sum of the per-polyhedron closed-form counts — no point is ever
    /// enumerated. Overlapping disjuncts fall back to
    /// [`count_points_enumerated`](Self::count_points_enumerated).
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is unbounded.
    pub fn count_points(&self) -> u64 {
        match self.parts.len() {
            0 => 0,
            1 => self.parts[0].count_points(),
            _ => {
                let disjoint = self.parts.iter().enumerate().all(|(i, a)| {
                    self.parts[i + 1..]
                        .iter()
                        .all(|b| a.intersect(b).is_empty())
                });
                if disjoint {
                    self.parts.iter().map(|p| p.count_points()).sum()
                } else {
                    self.count_points_enumerated()
                }
            }
        }
    }

    /// Number of distinct integer points by deduplicated enumeration — the
    /// pre-closed-form baseline, kept public for benchmarking and
    /// equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is unbounded.
    pub fn count_points_enumerated(&self) -> u64 {
        let mut n = 0;
        self.enumerate(|_| n += 1);
        n
    }

    /// Adds a constraint to every disjunct.
    #[must_use]
    pub fn constrained(&self, c: &Constraint) -> Set {
        self.clone().into_constrained(c)
    }

    /// By-value [`constrained`](Self::constrained): adds the constraint to
    /// every disjunct in place, reusing the existing allocations.
    #[must_use]
    pub fn into_constrained(mut self, c: &Constraint) -> Set {
        for p in &mut self.parts {
            p.add(c.clone());
        }
        self
    }

    /// Renders the set with the given variable names.
    pub fn display_with(&self, names: &[&str]) -> String {
        if self.parts.is_empty() {
            return "{ } (empty)".to_string();
        }
        let parts: Vec<String> = self.parts.iter().map(|p| p.display_with(names)).collect();
        parts.join(" union ")
    }
}

impl From<Polyhedron> for Set {
    fn from(p: Polyhedron) -> Self {
        Set {
            dim: p.dim(),
            parts: vec![p],
        }
    }
}

impl fmt::Debug for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.dim).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        write!(f, "{}", self.display_with(&refs))
    }
}

/// Streaming counterpart of [`Set::points_into`]: yields the set's
/// distinct points in lexicographic order, one at a time, in O(parts ×
/// depth) state. Created by [`Set::cursor`].
pub struct SetCursor<'a> {
    set: &'a Set,
    state: CursorState,
}

enum CursorState {
    /// Lazily initialized on the first pull so constructing a cursor is
    /// cheap even for sets that are never read.
    Unstarted,
    /// Zero-dimensional sets yield at most one (empty) point.
    ZeroDim { yielded: bool },
    /// Single disjunct: a lex scan is already sorted and duplicate-free,
    /// so the inner cursor's slice passes straight through, zero-copy.
    /// Boxed to keep the enum small next to the stateless variants.
    Single(Box<crate::ScanCursor>),
    /// General case: k-way merge of per-disjunct lex streams, each point
    /// owned by the first disjunct containing it.
    Merge {
        streams: Vec<PartStream>,
        /// The most recently yielded point (the merge output buffer).
        current: Vec<i64>,
    },
}

/// One disjunct's lex stream plus its buffered, already-deduplicated head.
struct PartStream {
    cursor: crate::ScanCursor,
    head: Option<Vec<i64>>,
}

impl<'a> SetCursor<'a> {
    fn new(set: &'a Set) -> SetCursor<'a> {
        SetCursor {
            set,
            state: CursorState::Unstarted,
        }
    }

    /// Pulls a disjunct's next point that is *not* contained in an earlier
    /// disjunct (a point is owned by the first disjunct containing it —
    /// the same rule [`Set::enumerate`] applies).
    fn refill(parts: &[Polyhedron], idx: usize, s: &mut PartStream) {
        s.head = None;
        while let Some(pt) = s.cursor.next_point() {
            if !parts[..idx].iter().any(|q| q.contains(pt)) {
                s.head = Some(pt.to_vec());
                return;
            }
        }
    }

    fn start(&mut self) {
        let parts = &self.set.parts;
        self.state = if self.set.dim == 0 {
            CursorState::ZeroDim { yielded: false }
        } else if parts.len() == 1 {
            CursorState::Single(Box::new(crate::ScanNest::build(&parts[0]).cursor()))
        } else {
            let mut streams: Vec<PartStream> = parts
                .iter()
                .map(|p| PartStream {
                    cursor: crate::ScanNest::build(p).cursor(),
                    head: None,
                })
                .collect();
            for (i, s) in streams.iter_mut().enumerate() {
                Self::refill(parts, i, s);
            }
            CursorState::Merge {
                streams,
                current: Vec::new(),
            }
        };
    }

    /// Advances to the next point and returns it, or `None` once the set
    /// is exhausted (and forever after).
    ///
    /// # Panics
    ///
    /// Panics if any disjunct is unbounded.
    pub fn next_point(&mut self) -> Option<&[i64]> {
        if matches!(self.state, CursorState::Unstarted) {
            self.start();
        }
        match &mut self.state {
            CursorState::Unstarted => unreachable!("started above"),
            CursorState::ZeroDim { yielded } => {
                // Match `points_into`: one empty tuple iff any part is
                // non-empty at dimension zero.
                if !*yielded && self.set.parts.iter().any(|p| p.contains(&[])) {
                    *yielded = true;
                    Some(&[])
                } else {
                    None
                }
            }
            CursorState::Single(cursor) => cursor.next_point(),
            CursorState::Merge { streams, current } => {
                // Ownership dedup makes the heads pairwise distinct, so
                // the merge needs no tie-break: take the lexicographic
                // minimum head.
                let min = streams
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.head.as_deref().map(|h| (i, h)))
                    .min_by(|(_, a), (_, b)| a.cmp(b))
                    .map(|(i, _)| i)?;
                *current = streams[min].head.take().expect("head checked above");
                Self::refill(&self.set.parts, min, &mut streams[min]);
                Some(current)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;

    fn interval(lo: i64, hi: i64) -> Set {
        Set::from(Polyhedron::universe(1).with_range(0, lo, hi))
    }

    #[test]
    fn union_counts_each_point_once() {
        let u = interval(0, 5).union(&interval(3, 8));
        assert_eq!(u.count_points(), 9);
    }

    #[test]
    fn intersect_intervals() {
        let i = interval(0, 5).intersect(&interval(3, 8));
        assert_eq!(i.points_sorted(), vec![vec![3], vec![4], vec![5]]);
    }

    #[test]
    fn subtract_middle() {
        let d = interval(0, 9).subtract(&interval(4, 6));
        assert_eq!(d.count_points(), 7);
        assert!(d.contains(&[0]) && d.contains(&[9]));
        assert!(!d.contains(&[5]));
    }

    #[test]
    fn subtract_everything_yields_empty() {
        let d = interval(2, 4).subtract(&interval(0, 10));
        assert!(d.is_empty());
    }

    #[test]
    fn subtract_disjoint_is_identity() {
        let a = interval(0, 3);
        let d = a.subtract(&interval(10, 20));
        assert_eq!(d.count_points(), a.count_points());
    }

    #[test]
    fn subtract_union_of_pieces() {
        let b = interval(1, 2).union(&interval(5, 6));
        let d = interval(0, 9).subtract(&b);
        assert_eq!(
            d.points_sorted(),
            vec![vec![0], vec![3], vec![4], vec![7], vec![8], vec![9]]
        );
    }

    #[test]
    fn cardinality_law() {
        // |A - B| == |A| - |A ∩ B|
        let a = interval(0, 19);
        let b = interval(15, 30);
        assert_eq!(
            a.subtract(&b).count_points(),
            a.count_points() - a.intersect(&b).count_points()
        );
    }

    #[test]
    fn two_dimensional_difference() {
        let square = Set::from(
            Polyhedron::universe(2)
                .with_range(0, 0, 3)
                .with_range(1, 0, 3),
        );
        let diag = Set::from(
            Polyhedron::universe(2).with(Constraint::eq(&LinExpr::var(2, 0), &LinExpr::var(2, 1))),
        );
        let off = square.subtract(&diag);
        assert_eq!(off.count_points(), 16 - 4);
        assert!(!off.contains(&[2, 2]));
        assert!(off.contains(&[2, 1]));
    }

    #[test]
    fn empty_set_behaviour() {
        let e = Set::empty(2);
        assert!(e.is_empty());
        assert_eq!(e.count_points(), 0);
        let a = Set::from(
            Polyhedron::universe(2)
                .with_range(0, 0, 1)
                .with_range(1, 0, 1),
        );
        assert_eq!(a.subtract(&e).count_points(), 4);
        assert_eq!(a.intersect(&e).count_points(), 0);
        assert_eq!(a.union(&e).count_points(), 4);
    }

    #[test]
    fn simplified_drops_empty_parts() {
        let a = interval(0, 3).union(&interval(10, 5)); // second is empty
        assert_eq!(a.simplified().parts().len(), 1);
    }

    #[test]
    fn into_union_matches_union() {
        let a = interval(0, 5);
        let b = interval(3, 8);
        let by_ref = a.union(&b);
        let by_val = a.into_union(b);
        assert_eq!(by_ref.count_points(), by_val.count_points());
        assert_eq!(by_val.count_points(), 9);
        assert_eq!(by_val.parts().len(), 2);
    }

    #[test]
    fn points_into_flat_buffer() {
        let square = Set::from(
            Polyhedron::universe(2)
                .with_range(0, 0, 1)
                .with_range(1, 0, 1),
        );
        let mut buf = vec![99; 3]; // stale contents must be cleared
        let n = square.points_into(&mut buf);
        assert_eq!(n, 4);
        assert_eq!(buf, vec![0, 0, 0, 1, 1, 0, 1, 1]);
        // Overlapping multi-part union: flat output equals points_sorted.
        let u = interval(0, 5).union(&interval(3, 8));
        let n = u.points_into(&mut buf);
        assert_eq!(n, 9);
        let from_flat: Vec<Vec<i64>> = buf.chunks(1).map(|c| c.to_vec()).collect();
        assert_eq!(from_flat, u.points_sorted());
    }

    #[test]
    fn disjoint_union_counts_in_closed_form() {
        let u = interval(0, 5).union(&interval(10, 15));
        assert_eq!(u.count_points(), 12);
        assert_eq!(u.count_points(), u.count_points_enumerated());
        // Overlapping parts still agree with the enumerated baseline.
        let o = interval(0, 5).union(&interval(3, 8));
        assert_eq!(o.count_points(), o.count_points_enumerated());
    }

    /// Streams `s.cursor()` dry and checks it yields exactly the flat
    /// buffer `points_into` produces, in the same order.
    fn assert_cursor_matches(s: &Set) {
        let mut buf = Vec::new();
        let n = s.points_into(&mut buf);
        let mut cursor = s.cursor();
        let mut streamed = Vec::new();
        let mut count = 0;
        while let Some(pt) = cursor.next_point() {
            streamed.extend_from_slice(pt);
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(streamed, buf);
        assert!(
            cursor.next_point().is_none(),
            "exhausted cursor must stay exhausted"
        );
    }

    #[test]
    fn cursor_matches_points_into() {
        // Single part (zero-copy path).
        assert_cursor_matches(&Set::from(
            Polyhedron::universe(2)
                .with_range(0, 0, 3)
                .with_range(1, 0, 2),
        ));
        // Overlapping parts (merge + ownership dedup).
        assert_cursor_matches(&interval(0, 5).union(&interval(3, 8)));
        // Disjoint out-of-order parts: the merge must interleave.
        assert_cursor_matches(&interval(10, 15).union(&interval(0, 5)));
        // Empty set.
        assert_cursor_matches(&Set::empty(2));
        // Two-dimensional overlap, where dedup and lex merge interact.
        let a = Polyhedron::universe(2)
            .with_range(0, 0, 2)
            .with_range(1, 0, 2);
        let b = Polyhedron::universe(2)
            .with_range(0, 1, 3)
            .with_range(1, 1, 3);
        assert_cursor_matches(&Set::from(a).union(&Set::from(b)));
    }

    #[test]
    fn cursor_zero_dim() {
        assert_cursor_matches(&Set::universe(0));
        assert_cursor_matches(&Set::empty(0));
    }
}
