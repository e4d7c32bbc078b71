//! Loop generation ("codegen"): synthesize a scanning loop nest for a
//! polyhedron or a union of polyhedra, in the style of the Omega library's
//! `codegen` utility.
//!
//! Each variable of the space becomes a loop; its bounds are
//! `max(ceil(e/d), …)` / `min(floor(e/d), …)` expressions over the outer
//! variables, obtained by Fourier–Motzkin elimination. Constraints that the
//! rational bounds cannot express exactly become integer *guards* evaluated
//! in the innermost body, so the generated nest enumerates exactly the
//! integer points of the input.
//!
//! A nest runs its points through a callback ([`ScanNest::execute`]); there
//! is no pull cursor. A consumer that needs a lazy order, such as the trace
//! generator, executes the pieces into a `dpm_core::Schedule` once and
//! walks that.

use crate::expr::{ceil_div, floor_div, LinExpr};
use crate::polyhedron::Polyhedron;
use crate::set::Set;
use std::fmt;

/// One bound term: `ceil(expr / divisor)` for lower bounds,
/// `floor(expr / divisor)` for upper bounds. `expr` refers only to loop
/// variables outer to the bounded one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundTerm {
    /// Numerator expression over the outer variables.
    pub expr: LinExpr,
    /// Positive divisor.
    pub divisor: i64,
}

impl BoundTerm {
    fn eval_lower(&self, prefix: &[i64]) -> i64 {
        ceil_div(self.expr.eval_prefix(prefix), self.divisor)
    }

    fn eval_upper(&self, prefix: &[i64]) -> i64 {
        floor_div(self.expr.eval_prefix(prefix), self.divisor)
    }

    fn display_with(&self, names: &[&str], lower: bool) -> String {
        let body = self.expr.display_with(names);
        if self.divisor == 1 {
            body
        } else if lower {
            format!("ceil(({body})/{})", self.divisor)
        } else {
            format!("floor(({body})/{})", self.divisor)
        }
    }
}

/// A generated loop for one variable: `for v = max(lowers) .. min(uppers)`.
#[derive(Clone, Debug)]
pub struct ScanLoop {
    /// Index of the variable this loop scans.
    pub var: usize,
    /// Lower-bound terms; the loop starts at their maximum.
    pub lowers: Vec<BoundTerm>,
    /// Upper-bound terms; the loop ends at their minimum.
    pub uppers: Vec<BoundTerm>,
}

impl ScanLoop {
    /// Evaluates the loop's `(lo, hi)` range given the outer variables.
    pub fn range_at(&self, prefix: &[i64]) -> (i64, i64) {
        let lo = self
            .lowers
            .iter()
            .map(|b| b.eval_lower(prefix))
            .max()
            .expect("generated loop has no lower bound");
        let hi = self
            .uppers
            .iter()
            .map(|b| b.eval_upper(prefix))
            .min()
            .expect("generated loop has no upper bound");
        (lo, hi)
    }
}

/// A loop nest scanning exactly the integer points of one polyhedron.
///
/// # Examples
///
/// ```
/// use dpm_poly::{Polyhedron, ScanNest};
/// let p = Polyhedron::universe(2).with_range(0, 0, 2).with_range(1, 0, 1);
/// let nest = ScanNest::build(&p);
/// let mut n = 0;
/// nest.execute(|_| n += 1);
/// assert_eq!(n, 6);
/// ```
#[derive(Clone, Debug)]
pub struct ScanNest {
    dim: usize,
    loops: Vec<ScanLoop>,
    guards: Polyhedron,
    empty: bool,
}

impl ScanNest {
    /// Builds the scanning nest for `p` in natural variable order
    /// (variable 0 outermost).
    ///
    /// # Panics
    ///
    /// Panics if `p` is non-empty but unbounded in some variable (iteration
    /// spaces in this crate are always bounded).
    pub fn build(p: &Polyhedron) -> ScanNest {
        let dim = p.dim();
        if p.is_empty() {
            return ScanNest {
                dim,
                loops: Vec::new(),
                guards: Polyhedron::empty(dim),
                empty: true,
            };
        }
        let chain = p.projection_chain();
        let mut loops = Vec::with_capacity(dim);
        for (level, projected) in chain.iter().enumerate().take(dim) {
            let (lower_cs, upper_cs) = projected.level_bounds(level);
            let mut lowers = Vec::new();
            for c in &lower_cs {
                // a*x + e >= 0, a > 0  =>  x >= ceil(-e/a)
                let a = c.expr().coeff(level);
                let mut e = c.expr().clone();
                e.set_coeff(level, 0);
                lowers.push(BoundTerm {
                    expr: e.scaled(-1),
                    divisor: a,
                });
            }
            let mut uppers = Vec::new();
            for c in &upper_cs {
                // a*x + e >= 0, a < 0  =>  x <= floor(e/-a)
                let a = c.expr().coeff(level);
                let mut e = c.expr().clone();
                e.set_coeff(level, 0);
                uppers.push(BoundTerm {
                    expr: e,
                    divisor: -a,
                });
            }
            assert!(
                !lowers.is_empty() && !uppers.is_empty(),
                "variable {level} is unbounded; cannot generate a scanning loop"
            );
            loops.push(ScanLoop {
                var: level,
                lowers,
                uppers,
            });
        }
        ScanNest {
            dim,
            loops,
            guards: p.clone(),
            empty: false,
        }
    }

    /// Number of variables scanned.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The generated loops, outermost first.
    pub fn loops(&self) -> &[ScanLoop] {
        &self.loops
    }

    /// Runs the nest, calling `f` at each integer point (lexicographic
    /// order).
    pub fn execute<F: FnMut(&[i64])>(&self, mut f: F) {
        if self.empty {
            return;
        }
        if self.dim == 0 {
            f(&[]);
            return;
        }
        let mut point = vec![0i64; self.dim];
        self.exec_rec(0, &mut point, &mut f);
    }

    fn exec_rec<F: FnMut(&[i64])>(&self, level: usize, point: &mut Vec<i64>, f: &mut F) {
        let (lo, hi) = self.loops[level].range_at(&point[..level]);
        for x in lo..=hi {
            point[level] = x;
            if level + 1 == self.dim {
                if self.guards.contains(point) {
                    f(point);
                }
            } else {
                self.exec_rec(level + 1, point, f);
            }
        }
    }

    /// Number of points the nest scans.
    pub fn count(&self) -> u64 {
        let mut n = 0;
        self.execute(|_| n += 1);
        n
    }

    /// Pretty-prints the nest as pseudo-code with the given variable names
    /// and a body placeholder.
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != self.dim()`.
    pub fn display_with(&self, names: &[&str], body: &str) -> String {
        assert_eq!(names.len(), self.dim, "names length mismatch");
        if self.empty {
            return "// empty scan\n".to_string();
        }
        let mut out = String::new();
        for (depth, l) in self.loops.iter().enumerate() {
            let indent = "  ".repeat(depth);
            let lo: Vec<String> = l
                .lowers
                .iter()
                .map(|b| b.display_with(names, true))
                .collect();
            let hi: Vec<String> = l
                .uppers
                .iter()
                .map(|b| b.display_with(names, false))
                .collect();
            let lo = match <[String; 1]>::try_from(lo) {
                Ok([only]) => only,
                Err(many) => format!("max({})", many.join(", ")),
            };
            let hi = match <[String; 1]>::try_from(hi) {
                Ok([only]) => only,
                Err(many) => format!("min({})", many.join(", ")),
            };
            out.push_str(&format!(
                "{indent}for {} = {} .. {} {{\n",
                names[l.var], lo, hi
            ));
        }
        let indent = "  ".repeat(self.loops.len());
        out.push_str(&format!("{indent}{body}\n"));
        for depth in (0..self.loops.len()).rev() {
            out.push_str(&format!("{}}}\n", "  ".repeat(depth)));
        }
        out
    }
}

/// A sequence of scanning nests covering a union of polyhedra, deduplicating
/// points shared between disjuncts.
#[derive(Clone, Debug)]
pub struct ScanProgram {
    nests: Vec<ScanNest>,
    parts: Vec<Polyhedron>,
}

impl ScanProgram {
    /// Builds one scanning nest per non-empty disjunct of `set`.
    pub fn build(set: &Set) -> ScanProgram {
        let parts: Vec<Polyhedron> = set
            .parts()
            .iter()
            .filter(|p| !p.is_empty())
            .cloned()
            .collect();
        let nests = parts.iter().map(ScanNest::build).collect();
        ScanProgram { nests, parts }
    }

    /// The per-disjunct nests.
    pub fn nests(&self) -> &[ScanNest] {
        &self.nests
    }

    /// Runs every nest in order, visiting each distinct point once.
    pub fn execute<F: FnMut(&[i64])>(&self, mut f: F) {
        for (i, nest) in self.nests.iter().enumerate() {
            nest.execute(|pt| {
                if !self.parts[..i].iter().any(|q| q.contains(pt)) {
                    f(pt);
                }
            });
        }
    }

    /// Number of distinct points scanned.
    pub fn count(&self) -> u64 {
        let mut n = 0;
        self.execute(|_| n += 1);
        n
    }
}

impl fmt::Display for ScanNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.dim).map(|i| format!("x{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        write!(f, "{}", self.display_with(&refs, "// body"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::expr::LinExpr;

    #[test]
    fn scan_matches_enumeration_rectangle() {
        let p = Polyhedron::universe(2)
            .with_range(0, 0, 4)
            .with_range(1, -2, 2);
        let nest = ScanNest::build(&p);
        let mut scanned = Vec::new();
        nest.execute(|pt| scanned.push(pt.to_vec()));
        let mut enumerated = Vec::new();
        p.enumerate(|pt| enumerated.push(pt.to_vec()));
        assert_eq!(scanned, enumerated);
    }

    #[test]
    fn scan_matches_enumeration_triangle() {
        let p = Polyhedron::universe(2)
            .with_range(0, 0, 7)
            .with_range(1, 0, 7)
            .with(Constraint::geq_zero(
                LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
            ));
        let nest = ScanNest::build(&p);
        assert_eq!(nest.count(), p.count_points());
    }

    #[test]
    fn scan_with_scaled_bounds_uses_ceil_floor() {
        // { x | 1 <= 2x <= 9 } = {1,2,3,4}
        let p = Polyhedron::universe(1)
            .with(Constraint::geq_zero(LinExpr::from_parts(vec![2], -1)))
            .with(Constraint::geq_zero(LinExpr::from_parts(vec![-2], 9)));
        let nest = ScanNest::build(&p);
        let mut xs = Vec::new();
        nest.execute(|pt| xs.push(pt[0]));
        assert_eq!(xs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_polyhedron_scans_nothing() {
        let p = Polyhedron::universe(1).with_range(0, 5, 2);
        let nest = ScanNest::build(&p);
        assert_eq!(nest.count(), 0);
    }

    #[test]
    fn display_contains_loops() {
        let p = Polyhedron::universe(2)
            .with_range(0, 0, 3)
            .with_range(1, 0, 3);
        let nest = ScanNest::build(&p);
        let text = nest.display_with(&["i", "j"], "body(i, j);");
        assert!(text.contains("for i = 0 .. 3 {"));
        assert!(text.contains("for j = 0 .. 3 {"));
        assert!(text.contains("body(i, j);"));
    }

    #[test]
    fn program_over_union_deduplicates() {
        let a = Polyhedron::universe(1).with_range(0, 0, 5);
        let b = Polyhedron::universe(1).with_range(0, 3, 8);
        let s = Set::from(a).into_union(Set::from(b));
        let prog = ScanProgram::build(&s);
        assert_eq!(prog.count(), 9);
    }

    #[test]
    fn stripe_block_scan() {
        // Outer loop over stripe-owner blocks (q), inner over iterations i
        // inside block 2q+1 of size 4 within 0..16 — the shape the symbolic
        // restructurer generates.
        let q = LinExpr::var(2, 0);
        let i = LinExpr::var(2, 1);
        let base = q.scaled(8).plus_const(4);
        let p = Polyhedron::universe(2)
            .with_range(0, 0, 1)
            .with_range(1, 0, 15)
            .with(Constraint::geq(&i, &base))
            .with(Constraint::leq(&i, &base.plus_const(3)));
        let nest = ScanNest::build(&p);
        let mut is = Vec::new();
        nest.execute(|pt| is.push(pt[1]));
        assert_eq!(is, vec![4, 5, 6, 7, 12, 13, 14, 15]);
    }
}
