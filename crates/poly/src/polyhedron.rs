//! Convex integer polyhedra: conjunctions of affine constraints, with
//! Fourier–Motzkin projection, exact integer point enumeration, closed-form
//! point counting, and emptiness testing.
//!
//! Every query that needs the projection chain (`is_empty`, `lexmin`,
//! `lexmax`, `enumerate`, `count_points`, `bounding_box`) shares one lazily
//! computed [`ScanData`] per polyhedron: the chain is built once, its level
//! bounds are parsed once, and the cache is invalidated whenever a
//! constraint is added. `count_points` additionally answers in closed form
//! whenever the chain's level bounds allow it (see [`Polyhedron::count_points`]).

use crate::constraint::{reduce_pair, Constraint, Relation};
use crate::expr::{ceil_div, floor_div, LinExpr};
use std::fmt;
use std::sync::OnceLock;

/// A conjunction of affine constraints over `dim` integer variables.
///
/// The empty conjunction is the universe. A polyhedron whose constraints are
/// mutually unsatisfiable over the integers is *empty*; emptiness is decided
/// exactly by [`Polyhedron::find_point`] as long as every variable is
/// bounded (which is always the case for loop iteration spaces).
///
/// # Examples
///
/// ```
/// use dpm_poly::{Polyhedron, Constraint, LinExpr};
/// // { (i, j) | 0 <= i <= 3, 0 <= j <= i }
/// let p = Polyhedron::universe(2)
///     .with(Constraint::geq_zero(LinExpr::var(2, 0)))
///     .with(Constraint::geq_zero(LinExpr::var(2, 0).scaled(-1).plus_const(3)))
///     .with(Constraint::geq_zero(LinExpr::var(2, 1)))
///     .with(Constraint::geq_zero(LinExpr::var(2, 0).minus(&LinExpr::var(2, 1))));
/// assert_eq!(p.count_points(), 4 + 3 + 2 + 1);
/// ```
pub struct Polyhedron {
    dim: usize,
    constraints: Vec<Constraint>,
    /// Set when constraint normalization proves unsatisfiability.
    trivially_empty: bool,
    /// Lazily computed query results; reset by any mutation.
    cache: QueryCache,
}

/// Cached answers to the projection-chain queries. The cache is *not* part
/// of the polyhedron's value: `Clone` carries computed entries along (they
/// stay valid for an identical constraint system), `PartialEq` ignores
/// them, and [`Polyhedron::add`] resets the whole cache.
#[derive(Default)]
struct QueryCache {
    scan: OnceLock<ScanData>,
    lexmin: OnceLock<Option<Vec<i64>>>,
    lexmax: OnceLock<Option<Vec<i64>>>,
    count: OnceLock<u64>,
    bbox: OnceLock<Vec<(Option<i64>, Option<i64>)>>,
    rat_empty: OnceLock<bool>,
}

impl Clone for QueryCache {
    fn clone(&self) -> Self {
        fn copy<T: Clone>(src: &OnceLock<T>) -> OnceLock<T> {
            let out = OnceLock::new();
            if let Some(v) = src.get() {
                let _ = out.set(v.clone());
            }
            out
        }
        QueryCache {
            scan: copy(&self.scan),
            lexmin: copy(&self.lexmin),
            lexmax: copy(&self.lexmax),
            count: copy(&self.count),
            bbox: copy(&self.bbox),
            rat_empty: copy(&self.rat_empty),
        }
    }
}

/// Everything the scanning queries need, derived from the projection chain
/// exactly once per polyhedron.
#[derive(Clone)]
struct ScanData {
    /// `chain[k]`: this polyhedron with variables `k+1..dim` eliminated.
    chain: Vec<Polyhedron>,
    /// Per level, the bounds of `chain[k]` on variable `k`, parsed into
    /// `(divisor, numerator)` pairs so scans evaluate them without cloning.
    levels: Vec<LevelBounds>,
    /// Whether the top projection is trivially infeasible.
    infeasible: bool,
    /// `suffix_const[k]` is the exact point count of levels `k..dim` when
    /// every one of those levels has constant bounds (the rectangular
    /// closed form); `None` otherwise. Length `dim + 1`, last entry 1.
    suffix_const: Vec<Option<u64>>,
}

/// Parsed bounds of one scan level. A lower entry `(a, e)` encodes
/// `x >= ceil(-e(prefix) / a)`; an upper entry encodes
/// `x <= floor(e(prefix) / a)`. Both divisors are positive, and `e` has the
/// level's own coefficient zeroed, so it mentions outer variables only.
#[derive(Clone)]
struct LevelBounds {
    lowers: Vec<(i64, LinExpr)>,
    uppers: Vec<(i64, LinExpr)>,
}

impl LevelBounds {
    /// The `[lo, hi]` range of the level's variable given the outer prefix;
    /// `None` on a side with no finite bound.
    fn range_at(&self, prefix: &[i64]) -> (Option<i64>, Option<i64>) {
        let mut lo: Option<i64> = None;
        for (a, e) in &self.lowers {
            let v = ceil_div(-e.eval_prefix(prefix), *a);
            lo = Some(lo.map_or(v, |cur| cur.max(v)));
        }
        let mut hi: Option<i64> = None;
        for (a, e) in &self.uppers {
            let v = floor_div(e.eval_prefix(prefix), *a);
            hi = Some(hi.map_or(v, |cur| cur.min(v)));
        }
        (lo, hi)
    }

    /// The range when every bound is a constant expression, else `None`.
    fn const_range(&self) -> Option<(i64, i64)> {
        if self.lowers.is_empty() || self.uppers.is_empty() {
            return None;
        }
        let all_const = self
            .lowers
            .iter()
            .chain(&self.uppers)
            .all(|(_, e)| e.is_constant());
        if !all_const {
            return None;
        }
        match self.range_at(&[]) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        }
    }
}

fn unbounded_panic(level: usize) -> ! {
    panic!(
        "polyhedron is unbounded in variable {level}; \
         enumeration requires bounded iteration spaces"
    )
}

impl Polyhedron {
    /// The universe over `dim` variables (no constraints).
    pub fn universe(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: Vec::new(),
            trivially_empty: false,
            cache: QueryCache::default(),
        }
    }

    /// An explicitly empty polyhedron over `dim` variables.
    pub fn empty(dim: usize) -> Self {
        Polyhedron {
            dim,
            constraints: Vec::new(),
            trivially_empty: true,
            cache: QueryCache::default(),
        }
    }

    /// A copy of the constraint system with an empty cache — used where a
    /// clone would be mutated or consumed immediately, so carrying cached
    /// query results would be wasted work.
    fn bare(&self) -> Polyhedron {
        Polyhedron {
            dim: self.dim,
            constraints: self.constraints.clone(),
            trivially_empty: self.trivially_empty,
            cache: QueryCache::default(),
        }
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraints currently held (normalized, deduplicated).
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether constraint normalization has already proven this polyhedron
    /// empty. Constant-time, unlike the projection-based
    /// [`is_rationally_empty`](Self::is_rationally_empty); `false` means
    /// "not yet proven empty", not "non-empty".
    pub fn is_trivially_empty(&self) -> bool {
        self.trivially_empty
    }

    /// Adds a constraint in place. Invalidates every cached query result.
    ///
    /// # Panics
    ///
    /// Panics if `c.dim() != self.dim()`.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(c.dim(), self.dim, "constraint dimension mismatch");
        self.cache = QueryCache::default();
        let mut c = c;
        if !c.normalize() {
            self.trivially_empty = true;
            return;
        }
        if c.is_trivially_true() || self.constraints.contains(&c) {
            return;
        }
        self.constraints.push(c);
    }

    /// Builder-style [`add`](Self::add).
    #[must_use]
    pub fn with(mut self, c: Constraint) -> Self {
        self.add(c);
        self
    }

    /// Adds the rectangular bound `lo <= x_var <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.dim()`.
    #[must_use]
    pub fn with_range(self, var: usize, lo: i64, hi: i64) -> Self {
        let x = LinExpr::var(self.dim, var);
        self.with(Constraint::geq_zero(x.plus_const(-lo)))
            .with(Constraint::geq_zero(x.scaled(-1).plus_const(hi)))
    }

    /// Conjunction of two polyhedra over the same space.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn intersect(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "dimension mismatch in intersect");
        let mut out = self.clone();
        if other.trivially_empty {
            out.trivially_empty = true;
            out.cache = QueryCache::default();
        }
        for c in &other.constraints {
            out.add(c.clone());
        }
        out
    }

    /// Whether `point` satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim()`.
    pub fn contains(&self, point: &[i64]) -> bool {
        !self.trivially_empty && self.constraints.iter().all(|c| c.holds_at(point))
    }

    /// Fourier–Motzkin elimination of variable `var`. The result is a
    /// (rational, integer-tightened) projection: every integer point of
    /// `self` maps to a point of the result with `var` dropped; the result
    /// may include extra points that have no integer preimage.
    ///
    /// The resulting polyhedron lives in the same `dim`-variable space with
    /// a zero coefficient for `var` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.dim()`.
    #[must_use]
    pub fn eliminate(&self, var: usize) -> Polyhedron {
        assert!(var < self.dim, "variable out of range in eliminate");
        if self.trivially_empty {
            return Polyhedron::empty(self.dim);
        }
        // Fast path: an equality with a ±1 coefficient lets us substitute.
        if let Some(pos) = self
            .constraints
            .iter()
            .position(|c| c.relation() == Relation::EqZero && c.expr().coeff(var).abs() == 1)
        {
            let eqc = self.constraints[pos].clone();
            let a = eqc.expr().coeff(var);
            // a*x + e == 0  =>  x == -e/a; for a = ±1, x = -a*e.
            let mut rest = eqc.expr().clone();
            rest.set_coeff(var, 0);
            let replacement = rest.scaled(-a);
            let mut out = Polyhedron::universe(self.dim);
            for (i, c) in self.constraints.iter().enumerate() {
                if i == pos {
                    continue;
                }
                out.add(c.substitute(var, &replacement));
            }
            return out;
        }

        let mut lowers: Vec<Constraint> = Vec::new();
        let mut uppers: Vec<Constraint> = Vec::new();
        let mut out = Polyhedron::universe(self.dim);
        for c in &self.constraints {
            for ineq in c.as_inequalities() {
                let a = ineq.expr().coeff(var);
                if a == 0 {
                    out.add(ineq);
                } else if a > 0 {
                    lowers.push(ineq);
                } else {
                    uppers.push(ineq);
                }
            }
        }
        for lo in &lowers {
            let la = lo.expr().coeff(var);
            for up in &uppers {
                let ua = -up.expr().coeff(var);
                debug_assert!(la > 0 && ua > 0);
                let (mlo, mup) = reduce_pair(ua, la);
                // mlo * lo + mup * up cancels the var coefficient.
                let combined = lo.expr().scaled(mlo).plus(&up.expr().scaled(mup));
                debug_assert_eq!(combined.coeff(var), 0);
                out.add(Constraint::geq_zero(combined));
            }
        }
        out
    }

    /// Projects away all variables with index `>= keep`, leaving constraints
    /// that mention only the first `keep` variables.
    #[must_use]
    pub fn project_onto_prefix(&self, keep: usize) -> Polyhedron {
        let mut p = self.bare();
        for v in (keep..self.dim).rev() {
            p = p.eliminate(v);
        }
        p
    }

    /// For the triangular scan: constraints of the `level`-th projection
    /// (variables `level+1..` eliminated) that mention variable `level`,
    /// split into lower/upper bound inequalities on that variable.
    pub(crate) fn level_bounds(&self, level: usize) -> (Vec<Constraint>, Vec<Constraint>) {
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        for c in &self.constraints {
            for ineq in c.as_inequalities() {
                let a = ineq.expr().coeff(level);
                if a > 0 {
                    lowers.push(ineq);
                } else if a < 0 {
                    uppers.push(ineq);
                }
            }
        }
        (lowers, uppers)
    }

    /// The chain of projections used for scanning: element `k` is the
    /// polyhedron with variables `k+1..dim` eliminated. Computed lazily,
    /// once; subsequent calls borrow the cached chain.
    pub(crate) fn projection_chain(&self) -> &[Polyhedron] {
        &self.scan_data().chain
    }

    /// The cached scan data, building it on first use.
    fn scan_data(&self) -> &ScanData {
        self.cache.scan.get_or_init(|| self.build_scan_data())
    }

    fn build_scan_data(&self) -> ScanData {
        let mut chain: Vec<Polyhedron>;
        if self.dim == 0 {
            chain = vec![self.bare()];
        } else {
            chain = vec![Polyhedron::universe(self.dim); self.dim];
            let mut cur = self.bare();
            for k in (0..self.dim).rev() {
                chain[k] = cur.clone();
                if k > 0 {
                    cur = cur.eliminate(k);
                }
            }
        }
        let infeasible = chain[0].trivially_empty;
        let mut levels = Vec::with_capacity(self.dim);
        for (level, projected) in chain.iter().enumerate().take(self.dim) {
            let (lower_cs, upper_cs) = projected.level_bounds(level);
            let mut lowers = Vec::with_capacity(lower_cs.len());
            for c in &lower_cs {
                // a*x + e >= 0, a > 0  =>  x >= ceil(-e / a)
                let a = c.expr().coeff(level);
                let mut e = c.expr().clone();
                e.set_coeff(level, 0);
                lowers.push((a, e));
            }
            let mut uppers = Vec::with_capacity(upper_cs.len());
            for c in &upper_cs {
                // a*x + e >= 0, a < 0  =>  x <= floor(e / -a)
                let a = c.expr().coeff(level);
                let mut e = c.expr().clone();
                e.set_coeff(level, 0);
                uppers.push((-a, e));
            }
            levels.push(LevelBounds { lowers, uppers });
        }
        let mut suffix_const: Vec<Option<u64>> = vec![None; self.dim + 1];
        suffix_const[self.dim] = Some(1);
        for k in (0..self.dim).rev() {
            let Some(tail) = suffix_const[k + 1] else {
                break;
            };
            let Some((lo, hi)) = levels[k].const_range() else {
                break;
            };
            let width = (hi as i128) - (lo as i128) + 1;
            let width = if width <= 0 {
                Some(0u64)
            } else {
                u64::try_from(width).ok()
            };
            suffix_const[k] = width.and_then(|w| w.checked_mul(tail));
            if suffix_const[k].is_none() {
                break;
            }
        }
        ScanData {
            chain,
            levels,
            infeasible,
            suffix_const,
        }
    }

    /// Finds one integer point, or `None` if the polyhedron is empty. This
    /// is the lexicographic minimum; the verdict is cached.
    ///
    /// # Panics
    ///
    /// Panics if some variable is unbounded (no finite lower or upper bound
    /// after projection) while a point search would need to scan it.
    pub fn find_point(&self) -> Option<Vec<i64>> {
        self.lexmin_cached().clone()
    }

    fn lexmin_cached(&self) -> &Option<Vec<i64>> {
        self.cache.lexmin.get_or_init(|| {
            let mut found = None;
            self.scan_impl(&mut |p| {
                found = Some(p.to_vec());
                false
            });
            found
        })
    }

    /// Whether the polyhedron contains no integer point. Cached.
    pub fn is_empty(&self) -> bool {
        self.lexmin_cached().is_none()
    }

    /// A cheap, conservative emptiness test that never enumerates points:
    /// runs Fourier–Motzkin elimination over all variables and reports
    /// `true` only when a contradiction is derived. Returns `false` for
    /// sets that are rationally non-empty (even if they might contain no
    /// integer point). Total even on unbounded polyhedra, unlike
    /// [`is_empty`](Self::is_empty). Cached.
    pub fn is_rationally_empty(&self) -> bool {
        *self.cache.rat_empty.get_or_init(|| {
            if self.trivially_empty {
                return true;
            }
            let mut cur = self.bare();
            for v in 0..self.dim {
                cur = cur.eliminate(v);
                if cur.trivially_empty {
                    return true;
                }
            }
            false
        })
    }

    /// Calls `f` for every integer point, in lexicographic order of the
    /// variable tuple.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron is unbounded.
    pub fn enumerate<F: FnMut(&[i64])>(&self, mut f: F) {
        self.scan_impl(&mut |p| {
            f(p);
            true
        });
    }

    /// Number of integer points. Cached, and answered in closed form when
    /// the projection chain allows it:
    ///
    /// * all level bounds constant (rectangular spaces) — product of the
    ///   per-level interval widths;
    /// * a level whose inner neighbour has unit-coefficient affine bounds
    ///   and constant everything deeper — telescoped arithmetic-series
    ///   summation per affine segment (triangular and stripe-congruence
    ///   spaces);
    /// * otherwise — recursion over the level's range, with the innermost
    ///   level always counted as `hi - lo + 1` without visiting points.
    ///
    /// Every closed form evaluates exactly the same per-level `ceil`/`floor`
    /// bounds the scan uses, so the result always equals
    /// [`count_points_enumerated`](Self::count_points_enumerated).
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron is unbounded.
    pub fn count_points(&self) -> u64 {
        *self.cache.count.get_or_init(|| {
            let _sp = dpm_obs::span!("poly_count");
            self.count_impl()
        })
    }

    /// Number of integer points by exhaustive scan — the pre-closed-form
    /// baseline, kept public for benchmarking and equivalence tests.
    /// Not cached.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron is unbounded.
    pub fn count_points_enumerated(&self) -> u64 {
        let mut n = 0u64;
        self.enumerate(|_| n += 1);
        n
    }

    fn count_impl(&self) -> u64 {
        if self.trivially_empty {
            return 0;
        }
        if self.dim == 0 {
            return u64::from(self.constraints.iter().all(|c| c.holds_at(&[])));
        }
        let data = self.scan_data();
        if data.infeasible {
            return 0;
        }
        let mut prefix = Vec::with_capacity(self.dim);
        self.count_suffix(data, 0, &mut prefix)
    }

    /// Counts the points of levels `level..dim` beneath the fixed outer
    /// `prefix`, preferring closed forms over recursion (see
    /// [`count_points`](Self::count_points)).
    fn count_suffix(&self, data: &ScanData, level: usize, prefix: &mut Vec<i64>) -> u64 {
        if let Some(n) = data.suffix_const[level] {
            return n;
        }
        let (lo, hi) = match data.levels[level].range_at(prefix) {
            (Some(l), Some(h)) => (l, h),
            _ => unbounded_panic(level),
        };
        if lo > hi {
            return 0;
        }
        if level + 1 == self.dim {
            let width = (hi as i128) - (lo as i128) + 1;
            return u64::try_from(width).unwrap_or(u64::MAX);
        }
        if let Some(n) = self.telescope(data, level, prefix, lo, hi) {
            return n;
        }
        let mut n = 0u64;
        for x in lo..=hi {
            prefix.push(x);
            n = n.saturating_add(self.count_suffix(data, level + 1, prefix));
            prefix.pop();
        }
        n
    }

    /// Closed-form sum over `x = lo..=hi` of the point count of levels
    /// `level+1..`, applicable when the next level's bounds all have unit
    /// divisors (so, with the prefix fixed, each is affine in `x`) and
    /// everything deeper is constant. The next level's width is then
    /// piecewise affine in `x`; the segments between bound crossings each
    /// sum as an arithmetic series. Returns `None` when the shape doesn't
    /// apply (the caller falls back to recursion).
    fn telescope(
        &self,
        data: &ScanData,
        level: usize,
        prefix: &mut Vec<i64>,
        lo: i64,
        hi: i64,
    ) -> Option<u64> {
        let next = level + 1;
        let tail = data.suffix_const[next + 1]?;
        let lb = &data.levels[next];
        if lb.lowers.is_empty() || lb.uppers.is_empty() {
            return None; // unbounded: let the recursive path raise the panic
        }
        if lb.lowers.len() + lb.uppers.len() > 16 || hi == i64::MAX {
            return None;
        }
        if lb.lowers.iter().chain(&lb.uppers).any(|(a, _)| *a != 1) {
            return None;
        }
        // With the prefix fixed, each bound expression is affine in x:
        // e(prefix, x) = c*x + k. Lower entries give y >= c*x + k, upper
        // entries y <= c*x + k.
        prefix.push(0);
        let lows: Vec<(i64, i64)> = lb
            .lowers
            .iter()
            .map(|(_, e)| (-e.coeff(level), -e.eval_prefix(prefix)))
            .collect();
        let ups: Vec<(i64, i64)> = lb
            .uppers
            .iter()
            .map(|(_, e)| (e.coeff(level), e.eval_prefix(prefix)))
            .collect();
        prefix.pop();
        // Segment starts: wherever two bound lines (or the zero-width line)
        // cross, the active max/min pair or the width's sign may change.
        let mut cuts: Vec<i64> = vec![lo];
        {
            let mut cross = |(c1, k1): (i64, i64), (c2, k2): (i64, i64)| {
                if c1 == c2 {
                    return;
                }
                // c1*x + k1 == c2*x + k2 at x = (k2 - k1) / (c1 - c2).
                let (mut num, mut den) = ((k2 as i128) - (k1 as i128), (c1 as i128) - (c2 as i128));
                if den < 0 {
                    num = -num;
                    den = -den;
                }
                let x0 = num.div_euclid(den);
                for cand in [x0, x0 + 1] {
                    if let Ok(c) = i64::try_from(cand) {
                        if c > lo && c <= hi {
                            cuts.push(c);
                        }
                    }
                }
            };
            for i in 0..lows.len() {
                for j in (i + 1)..lows.len() {
                    cross(lows[i], lows[j]);
                }
            }
            for i in 0..ups.len() {
                for j in (i + 1)..ups.len() {
                    cross(ups[i], ups[j]);
                }
            }
            for &l in &lows {
                for &u in &ups {
                    cross(l, u);
                    // Width-zero line: u(x) == l(x) - 1.
                    cross((l.0, l.1 - 1), u);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(hi + 1);
        let eval = |(c, k): (i64, i64), x: i64| (c as i128) * (x as i128) + (k as i128);
        let mut total: u128 = 0;
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1] - 1);
            if a > b {
                continue;
            }
            // The active (max) lower and (min) upper must be one affine
            // each across the whole segment; the crossings above guarantee
            // it, and we verify at the far endpoint to stay safe.
            let l_act = *lows
                .iter()
                .max_by_key(|&&f| eval(f, a))
                .expect("non-empty lowers");
            if lows.iter().any(|&f| eval(f, b) > eval(l_act, b)) {
                return None;
            }
            let u_act = *ups
                .iter()
                .min_by_key(|&&f| eval(f, a))
                .expect("non-empty uppers");
            if ups.iter().any(|&f| eval(f, b) < eval(u_act, b)) {
                return None;
            }
            // width(x) = u(x) - l(x) + 1, affine and sign-stable here.
            let wa = eval(u_act, a) - eval(l_act, a) + 1;
            let wb = eval(u_act, b) - eval(l_act, b) + 1;
            if wa <= 0 && wb <= 0 {
                continue;
            }
            if wa < 0 || wb < 0 {
                return None; // sign change the cuts missed: fall back
            }
            // Arithmetic series: width is affine, so the sum over the
            // segment is (wa + wb) * n / 2.
            let n = (b as i128) - (a as i128) + 1;
            let series = (wa + wb).checked_mul(n)? / 2;
            let series = u128::try_from(series).ok()?;
            total = total.checked_add((tail as u128).checked_mul(series)?)?;
        }
        u64::try_from(total).ok()
    }

    /// Core scanner; `f` returns `false` to stop early. Returns `false` if
    /// stopped early.
    fn scan_impl(&self, f: &mut dyn FnMut(&[i64]) -> bool) -> bool {
        if self.trivially_empty {
            return true;
        }
        if self.dim == 0 {
            if self.constraints.iter().all(|c| c.holds_at(&[])) {
                return f(&[]);
            }
            return true;
        }
        let data = self.scan_data();
        // Quick rational infeasibility check at level 0.
        if data.infeasible {
            return true;
        }
        let mut point = vec![0i64; self.dim];
        self.scan_rec(data, 0, &mut point, f)
    }

    fn scan_rec(
        &self,
        data: &ScanData,
        level: usize,
        point: &mut Vec<i64>,
        f: &mut dyn FnMut(&[i64]) -> bool,
    ) -> bool {
        let (lo, hi) = match data.levels[level].range_at(&point[..level]) {
            (Some(l), Some(h)) => (l, h),
            _ => unbounded_panic(level),
        };
        for x in lo..=hi {
            point[level] = x;
            if level + 1 == self.dim {
                if self.contains(point) && !f(point) {
                    return false;
                }
            } else if !self.scan_rec(data, level + 1, point, f) {
                return false;
            }
        }
        true
    }

    /// Removes redundant constraints: a constraint implied by the others
    /// (its negation intersected with the rest is infeasible by the cheap
    /// rational test) is dropped. The point set is unchanged; the
    /// representation — and any loop nest generated from it — gets smaller.
    #[must_use]
    pub fn simplified(&self) -> Polyhedron {
        if self.trivially_empty {
            return self.bare();
        }
        let mut kept: Vec<Constraint> = self.constraints.clone();
        let mut i = 0;
        while i < kept.len() {
            // Candidate for removal: check whether the remaining
            // constraints force it.
            let candidate = kept[i].clone();
            let mut rest = Polyhedron::universe(self.dim);
            for (j, c) in kept.iter().enumerate() {
                if j != i {
                    rest.add(c.clone());
                }
            }
            let implied = candidate
                .negations()
                .iter()
                .all(|neg| rest.clone().with(neg.clone()).is_rationally_empty());
            if implied {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        let mut out = Polyhedron::universe(self.dim);
        for c in kept {
            out.add(c);
        }
        out
    }

    /// The lexicographically smallest integer point, or `None` when empty.
    /// Cached.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron is unbounded (see [`Self::enumerate`]).
    pub fn lexmin(&self) -> Option<Vec<i64>> {
        self.find_point()
    }

    /// The lexicographically largest integer point, or `None` when empty.
    /// Cached.
    ///
    /// # Panics
    ///
    /// Panics if the polyhedron is unbounded.
    pub fn lexmax(&self) -> Option<Vec<i64>> {
        self.cache
            .lexmax
            .get_or_init(|| {
                if self.trivially_empty {
                    return None;
                }
                // Mirror the space (x → −x) and take the lexmin of the image.
                let mut mirrored = Polyhedron::universe(self.dim);
                for c in &self.constraints {
                    let mut e = c.expr().clone();
                    let flipped: Vec<i64> = e.coeffs().iter().map(|&a| -a).collect();
                    e = crate::expr::LinExpr::from_parts(flipped, e.constant_term());
                    mirrored.add(match c.relation() {
                        crate::constraint::Relation::GeqZero => Constraint::geq_zero(e),
                        crate::constraint::Relation::EqZero => Constraint::eq_zero(e),
                    });
                }
                mirrored
                    .find_point()
                    .map(|p| p.into_iter().map(|x| -x).collect())
            })
            .clone()
    }

    /// Per-variable constant bounds `[lo, hi]`, or `None` if the polyhedron
    /// is rationally empty at the top projection. Unbounded directions are
    /// reported as `None` entries. Cached.
    pub fn bounding_box(&self) -> Vec<(Option<i64>, Option<i64>)> {
        self.cache
            .bbox
            .get_or_init(|| {
                let mut out = Vec::with_capacity(self.dim);
                for v in 0..self.dim {
                    let mut p = self.bare();
                    for u in 0..self.dim {
                        if u != v {
                            p = p.eliminate(u);
                        }
                    }
                    let (lowers, uppers) = p.level_bounds(v);
                    let lo = lowers
                        .iter()
                        .map(|c| {
                            let a = c.expr().coeff(v);
                            ceil_div(-c.expr().constant_term(), a)
                        })
                        .max();
                    let hi = uppers
                        .iter()
                        .map(|c| {
                            let a = c.expr().coeff(v);
                            floor_div(c.expr().constant_term(), -a)
                        })
                        .min();
                    out.push((lo, hi));
                }
                out
            })
            .clone()
    }

    /// Renders the polyhedron with the given variable names.
    pub fn display_with(&self, names: &[&str]) -> String {
        if self.trivially_empty {
            return "{ false }".to_string();
        }
        if self.constraints.is_empty() {
            return "{ true }".to_string();
        }
        let parts: Vec<String> = self
            .constraints
            .iter()
            .map(|c| c.display_with(names))
            .collect();
        format!("{{ {} }}", parts.join(" and "))
    }
}

impl Clone for Polyhedron {
    fn clone(&self) -> Self {
        Polyhedron {
            dim: self.dim,
            constraints: self.constraints.clone(),
            trivially_empty: self.trivially_empty,
            cache: self.cache.clone(),
        }
    }
}

/// Equality of the constraint *system* (dimension, constraint list, proven
/// emptiness). Cached query results are ignored: two polyhedra compare
/// equal whether or not their caches are populated.
impl PartialEq for Polyhedron {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.trivially_empty == other.trivially_empty
            && self.constraints == other.constraints
    }
}

impl Eq for Polyhedron {}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.dim).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        write!(f, "{}", self.display_with(&refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(dim: usize, bounds: &[(i64, i64)]) -> Polyhedron {
        let mut p = Polyhedron::universe(dim);
        for (v, &(lo, hi)) in bounds.iter().enumerate() {
            p = p.with_range(v, lo, hi);
        }
        p
    }

    #[test]
    fn rectangle_count() {
        let p = rect(2, &[(0, 3), (1, 2)]);
        assert_eq!(p.count_points(), 4 * 2);
        assert!(p.contains(&[0, 1]));
        assert!(!p.contains(&[0, 0]));
        assert!(!p.contains(&[4, 1]));
    }

    #[test]
    fn triangle_count() {
        // 0 <= i <= 9, 0 <= j <= i
        let p = rect(2, &[(0, 9), (0, 9)]).with(Constraint::geq_zero(
            LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
        ));
        assert_eq!(p.count_points(), (1..=10).sum::<i64>() as u64);
    }

    #[test]
    fn empty_by_contradiction() {
        let p = rect(1, &[(0, 5)]).with(Constraint::geq_zero(LinExpr::var(1, 0).plus_const(-10)));
        assert!(p.is_empty());
        assert_eq!(p.count_points(), 0);
    }

    #[test]
    fn empty_by_parity_equality() {
        // 2x == 1 within 0..10
        let p = rect(1, &[(0, 10)]).with(Constraint::eq_zero(LinExpr::from_parts(vec![2], -1)));
        assert!(p.is_empty());
    }

    #[test]
    fn equality_substitution_elimination() {
        // { (i, j) | j == i + 1, 0 <= i <= 4 }: eliminating j keeps i range.
        let p = rect(2, &[(0, 4), (-100, 100)]).with(Constraint::eq(
            &LinExpr::var(2, 1),
            &LinExpr::var(2, 0).plus_const(1),
        ));
        assert_eq!(p.count_points(), 5);
        let q = p.eliminate(1);
        // After elimination, j unconstrained; points of q over i must be 0..4.
        let proj = q.project_onto_prefix(1);
        let (lowers, uppers) = proj.level_bounds(0);
        assert!(!lowers.is_empty() && !uppers.is_empty());
    }

    #[test]
    fn fm_projection_soundness() {
        // Diagonal strip: 0 <= i, j <= 9, |i - j| <= 1.
        let p = rect(2, &[(0, 9), (0, 9)])
            .with(Constraint::geq_zero(
                LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)).plus_const(1),
            ))
            .with(Constraint::geq_zero(
                LinExpr::var(2, 1).minus(&LinExpr::var(2, 0)).plus_const(1),
            ));
        let proj = p.project_onto_prefix(1);
        // Every i in 0..=9 has a j; projection must contain exactly those.
        for i in 0..=9 {
            assert!(proj.contains(&[i, 0]) || proj.contains(&[i, 9]), "i={i}");
        }
        let mut count = 0;
        p.enumerate(|_| count += 1);
        assert_eq!(count, 10 + 9 + 9);
        assert_eq!(p.count_points(), 28);
    }

    #[test]
    fn lexicographic_enumeration_order() {
        let p = rect(2, &[(0, 1), (0, 1)]);
        let mut pts = Vec::new();
        p.enumerate(|q| pts.push(q.to_vec()));
        assert_eq!(pts, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn scaled_coefficient_bounds() {
        // { x | 0 <= 3x <= 10 } = {0, 1, 2, 3}
        let p = Polyhedron::universe(1)
            .with(Constraint::geq_zero(LinExpr::from_parts(vec![3], 0)))
            .with(Constraint::geq_zero(LinExpr::from_parts(vec![-3], 10)));
        assert_eq!(p.count_points(), 4);
    }

    #[test]
    fn bounding_box() {
        let p = rect(2, &[(2, 7), (-3, 3)]);
        let bb = p.bounding_box();
        assert_eq!(bb[0], (Some(2), Some(7)));
        assert_eq!(bb[1], (Some(-3), Some(3)));
    }

    #[test]
    fn simplified_drops_redundant_constraints() {
        // x >= 0 is implied by x >= 5; x <= 100 implied by x <= 10.
        let p = Polyhedron::universe(1)
            .with_range(0, 0, 100)
            .with_range(0, 5, 10);
        let q = p.simplified();
        assert_eq!(q.constraints().len(), 2);
        // Same point set.
        let mut a = Vec::new();
        p.enumerate(|x| a.push(x.to_vec()));
        let mut b = Vec::new();
        q.enumerate(|x| b.push(x.to_vec()));
        assert_eq!(a, b);
        // Nothing to drop in an irredundant system.
        let tri = Polyhedron::universe(2)
            .with_range(0, 0, 4)
            .with_range(1, 0, 4)
            .with(Constraint::geq_zero(
                LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
            ));
        // j >= 0 is *not* redundant; j <= 4 is (implied by j <= i <= 4).
        let st = tri.simplified();
        assert_eq!(st.count_points(), tri.count_points());
        assert!(st.constraints().len() < tri.constraints().len());
    }

    #[test]
    fn lexmin_lexmax() {
        let p = rect(2, &[(2, 7), (-3, 3)]).with(Constraint::geq_zero(
            LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
        ));
        assert_eq!(p.lexmin(), Some(vec![2, -3]));
        assert_eq!(p.lexmax(), Some(vec![7, 3]));
        let empty = rect(1, &[(5, 2)]);
        assert_eq!(empty.lexmin(), None);
        assert_eq!(empty.lexmax(), None);
        // Triangle: lexmax of { 0<=i<=4, 0<=j<=i } is (4,4).
        let t = rect(2, &[(0, 4), (0, 9)]).with(Constraint::geq_zero(
            LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
        ));
        assert_eq!(t.lexmax(), Some(vec![4, 4]));
    }

    #[test]
    fn zero_dim_polyhedron() {
        let p = Polyhedron::universe(0);
        assert_eq!(p.count_points(), 1);
        assert!(Polyhedron::empty(0).is_empty());
    }

    #[test]
    fn intersect_of_disjoint_is_empty() {
        let a = rect(1, &[(0, 3)]);
        let b = rect(1, &[(5, 9)]);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn stripe_congruence_via_aux_var() {
        // Iterations i in 0..16 whose block i div 4 is congruent to 1 mod 2,
        // encoded with an auxiliary q: i in [ (2q+1)*4, (2q+1)*4 + 3 ].
        // Space: (q, i).
        let q = LinExpr::var(2, 0);
        let i = LinExpr::var(2, 1);
        let blk_lo = q.scaled(8).plus_const(4);
        let p = Polyhedron::universe(2)
            .with_range(1, 0, 15)
            .with(Constraint::geq(&i, &blk_lo))
            .with(Constraint::leq(&i, &blk_lo.plus_const(3)))
            .with_range(0, 0, 1);
        let mut is = Vec::new();
        p.enumerate(|pt| is.push(pt[1]));
        assert_eq!(is, vec![4, 5, 6, 7, 12, 13, 14, 15]);
        // Closed-form count agrees with the enumeration.
        assert_eq!(p.count_points(), 8);
        assert_eq!(p.count_points_enumerated(), 8);
    }

    #[test]
    fn closed_form_matches_enumeration() {
        // Rectangular: pure product of widths.
        let r = rect(3, &[(0, 11), (-2, 2), (5, 9)]);
        assert_eq!(r.count_points(), r.count_points_enumerated());
        assert_eq!(r.count_points(), 12 * 5 * 5);
        // Triangular: telescoped series.
        let t = rect(2, &[(0, 63), (0, 63)]).with(Constraint::geq_zero(
            LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
        ));
        assert_eq!(t.count_points(), t.count_points_enumerated());
        // Band |i - j| <= 2: two affine bounds per side.
        let band = rect(2, &[(0, 20), (0, 20)])
            .with(Constraint::geq_zero(
                LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)).plus_const(2),
            ))
            .with(Constraint::geq_zero(
                LinExpr::var(2, 1).minus(&LinExpr::var(2, 0)).plus_const(2),
            ));
        assert_eq!(band.count_points(), band.count_points_enumerated());
        // 3-D with a mixed middle level: recursion + inner closed forms.
        let mixed = rect(3, &[(0, 9), (0, 9), (0, 9)]).with(Constraint::geq_zero(
            LinExpr::var(3, 0)
                .plus(&LinExpr::var(3, 1))
                .minus(&LinExpr::var(3, 2)),
        ));
        assert_eq!(mixed.count_points(), mixed.count_points_enumerated());
    }

    #[test]
    fn cache_invalidated_on_add() {
        let mut p = rect(2, &[(0, 9), (0, 9)]);
        assert_eq!(p.count_points(), 100);
        assert!(!p.is_empty());
        assert_eq!(p.lexmax(), Some(vec![9, 9]));
        // Mutate: every cached answer must be recomputed.
        p.add(Constraint::geq_zero(
            LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
        ));
        assert_eq!(p.count_points(), 55);
        assert_eq!(p.lexmax(), Some(vec![9, 9]));
        assert_eq!(p.lexmin(), Some(vec![0, 0]));
        p.add(Constraint::geq_zero(LinExpr::var(2, 1).plus_const(-100)));
        assert!(p.is_empty());
        assert_eq!(p.count_points(), 0);
    }

    #[test]
    fn clone_and_equality_ignore_cache() {
        let p = rect(2, &[(0, 4), (0, 4)]);
        let warmed = p.clone();
        assert_eq!(warmed.count_points(), 25); // populate the clone's cache
        assert_eq!(p, warmed);
        let fresh = rect(2, &[(0, 4), (0, 4)]);
        assert_eq!(fresh, warmed);
        // A cloned cache still answers correctly after warming the source.
        let q = warmed.clone();
        assert_eq!(q.count_points(), 25);
        assert_eq!(q.lexmin(), Some(vec![0, 0]));
    }
}
