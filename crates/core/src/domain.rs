//! Dense iteration ranks: a nest's iteration domain compiled once into a
//! lookup from an iteration point to its position in `LoopNest::walk` order.
//!
//! The scheduler's predecessor lookups and the exact verifier's position
//! table both ask "where in its nest is this point, if it is in the nest at
//! all?" for every iteration of every dependence. [`DomainIndex`] answers in
//! O(depth) with no allocation:
//!
//! * the trailing run of loops with constant bounds is *rectangular*: a
//!   fixed stride per level (mixed radix) ranks a point inside one block;
//! * the loops before it (affine bounds such as Cholesky's and SCF's
//!   `j = 0 .. i`, and any constant loop enclosing them) get a per-prefix
//!   table of `(base, lo, count)` spans, built by evaluating the bounds
//!   once per distinct prefix. Each span's children are contiguous in the
//!   next level's table, and the last table level numbers the rectangular
//!   blocks in walk order.
//!
//! The index also runs the other way, which is how a [`Schedule`] stores
//! iterations as runs of ranks: [`point`](DomainIndex::point) unranks
//! (div/mod on the rectangular levels, one binary search per table
//! level), and [`step`](DomainIndex::step) moves a point to its successor
//! in walk order, skipping empty rows.
//!
//! [`Schedule`]: crate::Schedule

use dpm_ir::LoopNest;

/// One loop level under one prefix: the points `lo .. lo + count`. `base`
/// is the index of the first child span in the next table level, or, at
/// the last table level, the number of the first child block. Spans of one
/// level are stored in walk order, so their child ranges tile the next
/// level: each `base` is its predecessor's `base + count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    base: usize,
    lo: i64,
    count: usize,
}

/// One rectangular loop level: constant bounds, fixed stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Dim {
    lo: i64,
    count: usize,
    stride: usize,
}

/// A nest's iteration domain as a dense rank: [`rank`](Self::rank) maps a
/// point to its position in `LoopNest::walk` (lexicographic) order, or `None`
/// when the point lies outside the domain.
///
/// # Examples
///
/// ```
/// let p = dpm_ir::parse_program(
///     "program t; array A[4][4] : f64;
///      nest L { for i = 0 .. 3 { for j = 0 .. i { A[i][j] = 1; } } }",
/// ).unwrap();
/// let index = dpm_core::DomainIndex::new(&p.nests[0]);
/// assert_eq!(index.len(), 10);
/// assert_eq!(index.rank(&[2, 1]), Some(4)); // after (0,0) (1,0) (1,1) (2,0)
/// assert_eq!(index.rank(&[1, 2]), None); // j > i
///
/// let mut pt = [0; 2];
/// index.point(4, &mut pt);
/// assert_eq!(pt, [2, 1]);
/// assert!(index.step(&mut pt));
/// assert_eq!(pt, [2, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainIndex {
    depth: usize,
    len: usize,
    /// Per-prefix spans of the leading, non-rectangular levels. Level 0
    /// holds the single root span.
    table: Vec<Vec<Span>>,
    /// The trailing rectangular levels.
    rect: Vec<Dim>,
    /// Points per rectangular block (the product of `rect`'s counts).
    block: usize,
}

impl DomainIndex {
    /// Compiles `nest`'s iteration domain.
    ///
    /// # Panics
    ///
    /// Panics if a bound references an inner variable (a malformed nest,
    /// as for [`LoopNest::iterations`]) or the domain has more than
    /// `usize::MAX` points.
    pub fn new(nest: &LoopNest) -> Self {
        let depth = nest.depth();
        let split = nest
            .loops
            .iter()
            .rposition(|l| !(l.lo.is_constant() && l.hi.is_constant()))
            .map_or(0, |k| k + 1);
        let mut rect: Vec<Dim> = nest.loops[split..]
            .iter()
            .map(|l| Dim {
                lo: l.lo.constant_term(),
                count: extent(l.lo.constant_term(), l.hi.constant_term()),
                stride: 0,
            })
            .collect();
        let mut block = 1usize;
        for d in rect.iter_mut().rev() {
            d.stride = block;
            block = block.checked_mul(d.count).expect(TOO_LARGE);
        }
        let mut table = vec![Vec::new(); split];
        // Without a table the whole domain is one rectangular block.
        let mut blocks = usize::from(split == 0);
        if split > 0 {
            let mut prefix = vec![0i64; split];
            let root = fill(nest, 0, &mut prefix, &mut table, &mut blocks);
            table[0].push(root);
        }
        DomainIndex {
            depth,
            len: blocks.checked_mul(block).expect(TOO_LARGE),
            table,
            rect,
            block,
        }
    }

    /// The position of `point` in the nest's `LoopNest::walk` order, or `None`
    /// if `point` has the wrong arity or lies outside the domain. O(depth),
    /// allocation-free, and total: any `i64` coordinates are accepted.
    #[inline]
    pub fn rank(&self, point: &[i64]) -> Option<usize> {
        if point.len() != self.depth {
            return None;
        }
        let (head, tail) = point.split_at(self.table.len());
        let mut at = 0usize;
        for (&x, level) in head.iter().zip(&self.table) {
            let s = level[at];
            at = s.base + offset(x, s.lo, s.count)?;
        }
        let mut rank = at * self.block;
        for (&x, d) in tail.iter().zip(&self.rect) {
            rank += offset(x, d.lo, d.count)? * d.stride;
        }
        Some(rank)
    }

    /// Writes the point of rank `rank` into `out`: the inverse of
    /// [`rank`](Self::rank). Allocation-free; div/mod on the rectangular
    /// levels and one binary search per table level.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()` or `out` is not `depth` long.
    pub fn point(&self, rank: usize, out: &mut [i64]) {
        assert!(
            rank < self.len,
            "rank {rank} outside a domain of {} points",
            self.len
        );
        assert_eq!(out.len(), self.depth, "point buffer has the wrong arity");
        let (head, tail) = out.split_at_mut(self.table.len());
        let mut within = rank % self.block;
        for (x, d) in tail.iter_mut().zip(&self.rect) {
            *x = d.lo + (within / d.stride) as i64;
            within %= d.stride;
        }
        // Bottom up: the span whose children hold child `at`.
        let mut at = rank / self.block;
        for (x, level) in head.iter_mut().zip(&self.table).rev() {
            let k = level.partition_point(|s| s.base + s.count <= at);
            let s = level[k];
            *x = s.lo + (at - s.base) as i64;
            at = k;
        }
    }

    /// The largest innermost coordinate among the points that share
    /// `point`'s prefix: the end of its row. `point` must lie in the domain
    /// and have at least one coordinate. Walks step within a row by
    /// incrementing up to this bound and call [`step`](Self::step) only
    /// to leave it.
    #[inline]
    pub(crate) fn row_end(&self, point: &[i64]) -> i64 {
        if let Some(d) = self.rect.last() {
            return d.lo + d.count as i64 - 1;
        }
        // The innermost level is the last table level: descend to its span.
        let mut s = self.table[0][0];
        for (&x, level) in point.iter().zip(&self.table[1..]) {
            s = level[s.base + (x - s.lo) as usize];
        }
        s.lo + s.count as i64 - 1
    }

    /// Moves `point`, which must lie in the domain, to its successor in
    /// `LoopNest::walk` order. Returns `false` when `point` was the last point,
    /// leaving it unspecified. Allocation-free and O(depth) amortized: the
    /// rectangular levels step like an odometer, and an empty row (as in
    /// `for j = i+1 .. N-1`) is skipped once per prefix.
    pub fn step(&self, point: &mut [i64]) -> bool {
        debug_assert!(
            self.rank(point).is_some(),
            "{point:?} is outside the domain"
        );
        let (head, tail) = point.split_at_mut(self.table.len());
        for (x, d) in tail.iter_mut().zip(&self.rect).rev() {
            if ((*x - d.lo) as usize) + 1 < d.count {
                *x += 1;
                return true;
            }
            *x = d.lo;
        }
        // The rectangular block wrapped to its first point: advance the
        // table levels.
        !self.table.is_empty() && self.next_in(0, 0, head)
    }

    /// Advances table levels `level..` of `head`, which lie under span
    /// `at` of `level`, to the next prefix under that span that has points.
    fn next_in(&self, level: usize, at: usize, head: &mut [i64]) -> bool {
        let s = self.table[level][at];
        let off = (head[level] - s.lo) as usize;
        let last = level + 1 == self.table.len();
        if !last && self.next_in(level + 1, s.base + off, head) {
            return true;
        }
        self.first_from(level, at, off + 1, head)
    }

    /// Sets table levels `level..` of `head` to the first prefix with
    /// points under span `at` of `level`, starting at its child `from`.
    fn first_from(&self, level: usize, at: usize, from: usize, head: &mut [i64]) -> bool {
        let s = self.table[level][at];
        let last = level + 1 == self.table.len();
        for k in from..s.count {
            // At the last table level every child is one (non-empty)
            // rectangular block.
            if last || self.first_from(level + 1, s.base + k, 0, head) {
                head[level] = s.lo + k as i64;
                return true;
            }
        }
        false
    }

    /// Number of points in the domain (the nest's trip count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The nest depth: the arity of every point.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Heap bytes the index holds: its span tables and rectangular levels.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<Vec<Span>>()
            + self
                .table
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<Span>())
                .sum::<usize>()
            + self.rect.capacity() * std::mem::size_of::<Dim>()
    }
}

const TOO_LARGE: &str = "iteration domain has more than usize::MAX points";

/// Number of integers in `lo ..= hi` (0 when empty).
fn extent(lo: i64, hi: i64) -> usize {
    let n = (i128::from(hi) - i128::from(lo) + 1).max(0);
    usize::try_from(n).expect(TOO_LARGE)
}

/// `x - lo` when `x` lies in `lo .. lo + count`.
#[inline]
fn offset(x: i64, lo: i64, count: usize) -> Option<usize> {
    let off = usize::try_from(x.checked_sub(lo)?).ok()?;
    (off < count).then_some(off)
}

/// Builds the span of table level `level` under `prefix` and, depth first,
/// every span below it; children are reserved contiguously before any of
/// them is filled, so walk order is preserved level by level.
fn fill(
    nest: &LoopNest,
    level: usize,
    prefix: &mut [i64],
    table: &mut [Vec<Span>],
    blocks: &mut usize,
) -> Span {
    let lo = nest.loops[level].lo.eval_prefix(&prefix[..level]);
    let hi = nest.loops[level].hi.eval_prefix(&prefix[..level]);
    let count = extent(lo, hi);
    if level + 1 == table.len() {
        let base = *blocks;
        *blocks = blocks.checked_add(count).expect(TOO_LARGE);
        return Span { base, lo, count };
    }
    let base = table[level + 1].len();
    let empty = Span {
        base: 0,
        lo: 0,
        count: 0,
    };
    table[level + 1].resize(base + count, empty);
    for (k, x) in (lo..=hi).enumerate() {
        prefix[level] = x;
        table[level + 1][base + k] = fill(nest, level + 1, prefix, table, blocks);
    }
    Span { base, lo, count }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nest(loops: &str) -> LoopNest {
        let src = format!(
            "program t; const N = 6; array A[64][64][64] : f64;
             nest L {{ {loops} }}"
        );
        dpm_ir::parse_program(&src).unwrap().nests.remove(0)
    }

    /// The k-th `LoopNest::walk` point ranks k, `len` is the trip count, every
    /// point one step outside a bound (per level, per walked prefix) ranks
    /// `None`, and so do wrong arities and extreme coordinates.
    fn check(n: &LoopNest) {
        let index = DomainIndex::new(n);
        assert_eq!(index.len() as u64, n.trip_count());
        assert_eq!(index.is_empty(), n.trip_count() == 0);
        let mut k = 0usize;
        n.walk(|pt| {
            assert_eq!(index.rank(pt), Some(k), "point {pt:?}");
            k += 1;
            for level in 0..pt.len() {
                let lo = n.loops[level].lo.eval_prefix(&pt[..level]);
                let hi = n.loops[level].hi.eval_prefix(&pt[..level]);
                let mut out = pt.to_vec();
                out[level] = lo - 1;
                assert_eq!(index.rank(&out), None, "{out:?} below bound");
                out[level] = hi + 1;
                assert_eq!(index.rank(&out), None, "{out:?} above bound");
                for extreme in [i64::MIN, i64::MAX] {
                    out[level] = extreme;
                    assert_eq!(index.rank(&out), None, "{out:?}");
                }
            }
            let mut longer = pt.to_vec();
            longer.push(0);
            assert_eq!(index.rank(&longer), None);
            assert_eq!(index.rank(&pt[..pt.len() - 1]), None);
        });
        assert_eq!(k, index.len());
        assert_eq!(index.rank(&[]), None);
        assert_eq!(index.rank(&vec![i64::MIN; n.depth()]), None);
        assert_eq!(index.rank(&vec![i64::MAX; n.depth()]), None);
        check_inverse(n, &index);
    }

    /// `point` inverts `rank`, and stepping from every start rank
    /// reproduces the rest of `LoopNest::walk`'s order, then stops. A step reads
    /// nothing but its point, so one step from every point covers every
    /// start; whole suffixes from a few starts check that steps chain.
    fn check_inverse(n: &LoopNest, index: &DomainIndex) {
        let mut walked = Vec::new();
        n.walk(|pt| walked.push(pt.to_vec()));
        let mut pt = vec![0i64; n.depth()];
        for (k, p) in walked.iter().enumerate() {
            index.point(k, &mut pt);
            assert_eq!(&pt, p, "point({k})");
            assert_eq!(index.rank(&pt), Some(k));
            let more = index.step(&mut pt);
            assert_eq!(more, k + 1 < walked.len(), "step from rank {k} {p:?}");
            if more {
                assert_eq!(pt, walked[k + 1], "step from rank {k} {p:?}");
            }
        }
        let len = walked.len();
        let starts = if len <= 512 {
            (0..len).collect()
        } else {
            vec![0, 1, len / 3, len / 2, len - 2, len - 1]
        };
        for start in starts {
            index.point(start, &mut pt);
            let mut suffix = vec![pt.clone()];
            while index.step(&mut pt) {
                suffix.push(pt.clone());
            }
            assert_eq!(suffix, walked[start..], "suffix from rank {start}");
        }
    }

    #[test]
    fn rectangular() {
        check(&nest(
            "for i = 0 .. N-1 { for j = 2 .. N+1 { A[i][j][0] = 1; } }",
        ));
    }

    #[test]
    fn triangular() {
        check(&nest(
            "for i = 0 .. N-1 { for j = 0 .. i { A[i][j][0] = 1; } }",
        ));
    }

    #[test]
    fn strictly_upper_triangle_with_an_empty_last_row() {
        let n = nest("for i = 0 .. N-1 { for j = i+1 .. N-1 { A[i][j][0] = 1; } }");
        check(&n);
        let index = DomainIndex::new(&n);
        assert_eq!(index.rank(&[5, 5]), None, "row N-1 is empty");
        assert_eq!(index.rank(&[5, 6]), None);
        assert_eq!(index.rank(&[4, 5]), Some(index.len() - 1));
    }

    #[test]
    fn three_deep_like_visuo() {
        check(&nest(
            "for d = 0 .. 2 { for x = 0 .. N-1 { for y = 0 .. N-1 { A[d][x][y] = 1; } } }",
        ));
    }

    #[test]
    fn triangle_inside_a_rectangle_and_a_rectangle_inside_a_triangle() {
        check(&nest(
            "for d = 0 .. 2 { for x = 0 .. d+1 { for y = 0 .. N-1 { A[d][x][y] = 1; } } }",
        ));
        check(&nest(
            "for d = 0 .. 3 { for x = 0 .. N-1 { for y = x .. N-1 { A[d][x][y] = 1; } } }",
        ));
    }

    #[test]
    fn negative_lower_bounds() {
        check(&nest(
            "for i = -3 .. 2 { for j = -i-2 .. 1 { A[i+3][j+6][0] = 1; } }",
        ));
        check(&nest(
            "for i = -4 .. -1 { for j = -2 .. 0 { A[i+4][j+2][0] = 1; } }",
        ));
    }

    #[test]
    fn depth_one() {
        check(&nest("for i = 3 .. 40 { A[i][0][0] = 1; }"));
    }

    #[test]
    fn empty_domains_rank_nothing() {
        check(&nest(
            "for i = 0 .. 3 { for j = 5 .. 2 { A[i][j][0] = 1; } }",
        ));
        check(&nest(
            "for i = 4 .. 3 { for j = 0 .. i { A[i][j][0] = 1; } }",
        ));
    }

    #[test]
    fn empty_rows_before_between_and_after_points_are_stepped_over() {
        // Rows i = 3 .. 6 are empty.
        check(&nest(
            "for i = 0 .. 6 { for j = 2*i-3 .. 5-i { A[i][j+9][0] = 1; } }",
        ));
        // Rows i = 0, 1 are empty, and so is the k range of j = 5, 6 inside
        // the non-empty rows i = 5, 6.
        check(&nest(
            "for i = 0 .. 6 { for j = 2 .. i { for k = j .. 4 { A[i][j][k] = 1; } } }",
        ));
    }

    #[test]
    #[should_panic(expected = "outside a domain of 0 points")]
    fn an_empty_domain_has_no_point_to_unrank() {
        let n = nest("for i = 0 .. 3 { for j = 5 .. 2 { A[i][j][0] = 1; } }");
        DomainIndex::new(&n).point(0, &mut [0, 0]);
    }

    #[test]
    fn every_tiny_suite_nest_ranks_in_walk_order() {
        for app in dpm_apps::suite(dpm_apps::Scale::Tiny) {
            for n in &app.program().nests {
                check(n);
            }
        }
    }
}
