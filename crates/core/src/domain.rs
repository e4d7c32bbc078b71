//! Dense iteration ranks: a nest's iteration domain compiled once into a
//! lookup from an iteration point to its position in `walk_nest` order.
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

use dpm_ir::LoopNest;

/// One loop level under one prefix: the points `lo .. lo + count`. `base`
/// is the index of the first child span in the next table level, or, at
/// the last table level, the number of the first child block.
#[derive(Clone, Copy, Debug)]
struct Span {
    base: usize,
    lo: i64,
    count: usize,
}

/// One rectangular loop level: constant bounds, fixed stride.
#[derive(Clone, Copy, Debug)]
struct Dim {
    lo: i64,
    count: usize,
    stride: usize,
}

/// A nest's iteration domain as a dense rank: [`rank`](Self::rank) maps a
/// point to its position in `walk_nest` (lexicographic) order, or `None`
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
/// ```
#[derive(Clone, Debug)]
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

    /// The position of `point` in the nest's `walk_nest` order, or `None`
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

    /// Number of points in the domain (the nest's trip count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The k-th `walk_nest` point ranks k, `len` is the trip count, every
    /// point one step outside a bound (per level, per walked prefix) ranks
    /// `None`, and so do wrong arities and extreme coordinates.
    fn check(n: &LoopNest) {
        let index = DomainIndex::new(n);
        assert_eq!(index.len() as u64, n.trip_count());
        assert_eq!(index.is_empty(), n.trip_count() == 0);
        let mut k = 0usize;
        dpm_trace::walk_nest(n, &mut |pt| {
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
    fn every_tiny_suite_nest_ranks_in_walk_order() {
        for app in dpm_apps::suite(dpm_apps::Scale::Tiny) {
            for n in &app.program().nests {
                check(n);
            }
        }
    }
}
