//! The loop-nest intermediate representation.
//!
//! A [`Program`] is a list of disk-resident array declarations followed by a
//! sequence of perfectly nested affine loop nests ([`LoopNest`]), executed in
//! program order — the shape of the out-of-core scientific codes the paper
//! targets (§2, §5). Loop bounds and array subscripts are affine expressions
//! over the enclosing loop variables ([`dpm_poly::LinExpr`]).

use dpm_poly::{Constraint, LinExpr, Polyhedron};
use std::fmt;

/// Identifies an array within its [`Program`].
pub type ArrayId = usize;
/// Identifies a loop nest within its [`Program`].
pub type NestId = usize;

/// A 1-based source position (`line:col`); `0:0` means "unknown" (the
/// entity was built programmatically rather than parsed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SrcPos {
    /// 1-based line, 0 when unknown.
    pub line: u32,
    /// 1-based column, 0 when unknown.
    pub col: u32,
}

impl SrcPos {
    /// The "no position recorded" sentinel.
    pub const UNKNOWN: SrcPos = SrcPos { line: 0, col: 0 };

    /// Creates a position.
    pub fn new(line: u32, col: u32) -> Self {
        SrcPos { line, col }
    }

    /// `true` unless this is [`SrcPos::UNKNOWN`].
    pub fn is_known(self) -> bool {
        self.line > 0
    }
}

impl fmt::Display for SrcPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_known() {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            write!(f, "?:?")
        }
    }
}

/// Side table mapping IR entities back to source positions.
///
/// Kept *outside* the AST nodes so that structural equality (and hence the
/// printer→parser round-trip tests) ignores where an entity came from: a
/// reparsed pretty-print compares equal to the original even though every
/// position moved. Queries on out-of-range ids return
/// [`SrcPos::UNKNOWN`], so hand-built programs need no bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct SrcMap {
    arrays: Vec<SrcPos>,
    nests: Vec<SrcPos>,
    stmts: Vec<Vec<SrcPos>>,
}

impl SrcMap {
    /// Position of an array declaration.
    pub fn array(&self, id: ArrayId) -> SrcPos {
        self.arrays.get(id).copied().unwrap_or(SrcPos::UNKNOWN)
    }

    /// Position of a nest header.
    pub fn nest(&self, id: NestId) -> SrcPos {
        self.nests.get(id).copied().unwrap_or(SrcPos::UNKNOWN)
    }

    /// Position of a statement within a nest.
    pub fn stmt(&self, nest: NestId, stmt: usize) -> SrcPos {
        self.stmts
            .get(nest)
            .and_then(|v| v.get(stmt))
            .copied()
            .unwrap_or(SrcPos::UNKNOWN)
    }

    /// Records an array declaration's position (growing the table).
    pub fn set_array(&mut self, id: ArrayId, pos: SrcPos) {
        if self.arrays.len() <= id {
            self.arrays.resize(id + 1, SrcPos::UNKNOWN);
        }
        self.arrays[id] = pos;
    }

    /// Records a nest header's position (growing the table).
    pub fn set_nest(&mut self, id: NestId, pos: SrcPos) {
        if self.nests.len() <= id {
            self.nests.resize(id + 1, SrcPos::UNKNOWN);
        }
        self.nests[id] = pos;
    }

    /// Records a statement's position (growing the table).
    pub fn set_stmt(&mut self, nest: NestId, stmt: usize, pos: SrcPos) {
        if self.stmts.len() <= nest {
            self.stmts.resize(nest + 1, Vec::new());
        }
        let row = &mut self.stmts[nest];
        if row.len() <= stmt {
            row.resize(stmt + 1, SrcPos::UNKNOWN);
        }
        row[stmt] = pos;
    }
}

/// Whether an array reference reads or writes the element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The reference reads the element.
    Read,
    /// The reference writes the element.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A declaration of a disk-resident array.
///
/// Arrays map one-to-one onto files (§2 of the paper), are stored row-major,
/// and are striped across I/O nodes by `dpm-layout`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Source-level name, e.g. `"U1"`.
    pub name: String,
    /// Extent of each dimension, outermost first.
    pub dims: Vec<u64>,
    /// Bytes per element (e.g. 8 for `f64`).
    pub elem_bytes: u32,
}

impl ArrayDecl {
    /// Creates a declaration.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any extent is zero, or `elem_bytes == 0`.
    pub fn new(name: impl Into<String>, dims: Vec<u64>, elem_bytes: u32) -> Self {
        assert!(!dims.is_empty(), "array must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "array extents must be positive"
        );
        assert!(elem_bytes > 0, "element size must be positive");
        ArrayDecl {
            name: name.into(),
            dims,
            elem_bytes,
        }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.num_elements() * u64::from(self.elem_bytes)
    }

    /// Row-major linearized element index of `coords`.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != self.rank()` or a coordinate is out of
    /// bounds.
    pub fn linearize(&self, coords: &[i64]) -> u64 {
        assert_eq!(coords.len(), self.rank(), "coordinate rank mismatch");
        let mut idx: u64 = 0;
        for (c, &extent) in coords.iter().zip(&self.dims) {
            assert!(
                *c >= 0 && (*c as u64) < extent,
                "coordinate {c} out of bounds for extent {extent} in array {}",
                self.name
            );
            idx = idx * extent + *c as u64;
        }
        idx
    }

    /// Row-major strides (elements) per dimension.
    pub fn strides(&self) -> Vec<u64> {
        let mut strides = vec![1u64; self.rank()];
        for d in (0..self.rank().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.dims[d + 1];
        }
        strides
    }
}

/// A subscripted reference to an array, e.g. `U1[i+2][j-3]`.
///
/// Subscripts are affine expressions over the loop variables of the
/// enclosing nest (dimension = nest depth).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// One affine subscript per array dimension.
    pub indices: Vec<LinExpr>,
    /// Read or write.
    pub kind: AccessKind,
}

impl ArrayRef {
    /// Creates a reference.
    pub fn new(array: ArrayId, indices: Vec<LinExpr>, kind: AccessKind) -> Self {
        ArrayRef {
            array,
            indices,
            kind,
        }
    }

    /// Evaluates the subscripts at an iteration point, yielding element
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the iteration point's arity differs from the subscript
    /// space.
    pub fn element_at(&self, iter: &[i64]) -> Vec<i64> {
        self.indices.iter().map(|e| e.eval(iter)).collect()
    }

    /// `true` if every subscript has the form `±var + const` with all
    /// referenced variables distinct ("simple" in the dependence-analysis
    /// sense).
    pub fn is_simple(&self) -> bool {
        let mut used = Vec::new();
        for e in &self.indices {
            let nz: Vec<usize> = (0..e.dim()).filter(|&v| e.coeff(v) != 0).collect();
            match nz.len() {
                0 => {}
                1 => {
                    let v = nz[0];
                    if e.coeff(v).abs() != 1 || used.contains(&v) {
                        return false;
                    }
                    used.push(v);
                }
                _ => return false,
            }
        }
        true
    }
}

/// A statement in a loop body: a collection of array references plus a
/// compute-cost estimate.
///
/// The paper's evaluation obtains per-nest cycle estimates from real runs on
/// an UltraSPARC-III (§7.1); here the cost is carried in the IR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Statement {
    /// Optional source label (e.g. `"S1"`).
    pub label: String,
    /// All array references made by one execution of the statement. Writes
    /// conventionally come first but the order carries no semantics.
    pub refs: Vec<ArrayRef>,
    /// CPU cycles consumed by one execution of the statement (compute only,
    /// excluding I/O stall time).
    pub cost_cycles: u64,
}

/// One loop of a nest: `for var = lo .. hi` (inclusive bounds, unit step).
///
/// Bounds are affine in the *outer* loop variables; the expressions live in
/// the full nest space but must have zero coefficients for this loop's
/// variable and any deeper one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Loop {
    /// Source-level induction-variable name.
    pub var: String,
    /// Inclusive lower bound.
    pub lo: LinExpr,
    /// Inclusive upper bound.
    pub hi: LinExpr,
}

/// A perfectly nested affine loop nest with a straight-line body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopNest {
    /// Source-level name (e.g. `"L1"`).
    pub name: String,
    /// The loops, outermost first.
    pub loops: Vec<Loop>,
    /// The straight-line body.
    pub body: Vec<Statement>,
}

impl LoopNest {
    /// Nest depth (number of loops).
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Induction-variable names, outermost first.
    pub fn var_names(&self) -> Vec<&str> {
        self.loops.iter().map(|l| l.var.as_str()).collect()
    }

    /// The iteration space as a polyhedron over the nest's variables.
    pub fn iteration_space(&self) -> Polyhedron {
        let dim = self.depth();
        let mut p = Polyhedron::universe(dim);
        for (d, l) in self.loops.iter().enumerate() {
            let v = LinExpr::var(dim, d);
            p.add(Constraint::geq(&v, &l.lo));
            p.add(Constraint::leq(&v, &l.hi));
        }
        p
    }

    /// Visits the iteration points in original (lexicographic) order
    /// without materializing them.
    ///
    /// # Panics
    ///
    /// Panics if a bound references an inner variable (malformed nest).
    pub fn walk(&self, mut f: impl FnMut(&[i64])) {
        fn rec(nest: &LoopNest, level: usize, point: &mut [i64], f: &mut impl FnMut(&[i64])) {
            if level == nest.depth() {
                f(point);
                return;
            }
            let lo = nest.loops[level].lo.eval_prefix(&point[..level]);
            let hi = nest.loops[level].hi.eval_prefix(&point[..level]);
            for x in lo..=hi {
                point[level] = x;
                rec(nest, level + 1, point, f);
            }
        }
        let mut point = vec![0i64; self.depth()];
        rec(self, 0, &mut point, &mut f);
    }

    /// The iteration points in original (lexicographic) order, collected
    /// from [`walk`](Self::walk).
    ///
    /// # Panics
    ///
    /// As [`walk`](Self::walk).
    pub fn iterations(&self) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        self.walk(|pt| out.push(pt.to_vec()));
        out
    }

    /// Number of iterations (product of trip counts for rectangular nests;
    /// computed exactly for triangular bounds).
    pub fn trip_count(&self) -> u64 {
        let mut n = 0u64;
        let mut point = vec![0i64; self.depth()];
        self.count_rec(0, &mut point, &mut n);
        n
    }

    fn count_rec(&self, level: usize, point: &mut Vec<i64>, n: &mut u64) {
        if level == self.depth() {
            *n += 1;
            return;
        }
        let lo = self.loops[level].lo.eval_prefix(&point[..level]);
        let hi = self.loops[level].hi.eval_prefix(&point[..level]);
        if level + 1 == self.depth() {
            // Innermost level: add the trip count directly.
            if hi >= lo {
                *n += (hi - lo + 1) as u64;
            }
            return;
        }
        for x in lo..=hi {
            point[level] = x;
            self.count_rec(level + 1, point, n);
        }
    }

    /// Total compute cycles of one full execution of the nest body times the
    /// trip count.
    pub fn total_cycles(&self) -> u64 {
        let per_iter: u64 = self.body.iter().map(|s| s.cost_cycles).sum();
        per_iter * self.trip_count()
    }

    /// All references in the body, in statement order.
    pub fn all_refs(&self) -> impl Iterator<Item = &ArrayRef> {
        self.body.iter().flat_map(|s| s.refs.iter())
    }
}

/// A whole program: array declarations plus loop nests executed in order.
#[derive(Clone, Debug)]
pub struct Program {
    /// Source-level program name.
    pub name: String,
    /// Array declarations; [`ArrayId`] indexes this vector.
    pub arrays: Vec<ArrayDecl>,
    /// The loop nests, in program order; [`NestId`] indexes this vector.
    pub nests: Vec<LoopNest>,
    /// Source positions of the entities above (see [`SrcMap`]); excluded
    /// from equality so reparsed pretty-prints compare structurally.
    pub src: SrcMap,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.arrays == other.arrays && self.nests == other.nests
    }
}

impl Eq for Program {}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            arrays: Vec::new(),
            nests: Vec::new(),
            src: SrcMap::default(),
        }
    }

    /// Adds an array declaration, returning its id.
    pub fn add_array(&mut self, decl: ArrayDecl) -> ArrayId {
        self.arrays.push(decl);
        self.arrays.len() - 1
    }

    /// Adds a loop nest, returning its id.
    pub fn add_nest(&mut self, nest: LoopNest) -> NestId {
        self.nests.push(nest);
        self.nests.len() - 1
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Total bytes of disk-resident data declared by the program.
    pub fn total_data_bytes(&self) -> u64 {
        self.arrays.iter().map(|a| a.size_bytes()).sum()
    }

    /// Total iterations across all nests.
    pub fn total_iterations(&self) -> u64 {
        self.nests.iter().map(|n| n.trip_count()).sum()
    }

    /// Basic well-formedness checks: subscript arities match array ranks,
    /// bound expressions reference only outer variables, subscript spaces
    /// match nest depths.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (ni, nest) in self.nests.iter().enumerate() {
            let depth = nest.depth();
            for (d, l) in nest.loops.iter().enumerate() {
                for e in [&l.lo, &l.hi] {
                    if e.dim() != depth {
                        return Err(format!(
                            "nest {ni} loop {d}: bound dimension {} != depth {depth}",
                            e.dim()
                        ));
                    }
                    for v in d..depth {
                        if e.coeff(v) != 0 {
                            return Err(format!(
                                "nest {ni} loop {d}: bound references non-outer variable {v}"
                            ));
                        }
                    }
                }
            }
            for (si, stmt) in nest.body.iter().enumerate() {
                for r in &stmt.refs {
                    let Some(decl) = self.arrays.get(r.array) else {
                        return Err(format!(
                            "nest {ni} stmt {si}: reference to unknown array id {}",
                            r.array
                        ));
                    };
                    if r.indices.len() != decl.rank() {
                        return Err(format!(
                            "nest {ni} stmt {si}: {} subscripts for rank-{} array {}",
                            r.indices.len(),
                            decl.rank(),
                            decl.name
                        ));
                    }
                    for e in &r.indices {
                        if e.dim() != depth {
                            return Err(format!(
                                "nest {ni} stmt {si}: subscript dimension {} != depth {depth}",
                                e.dim()
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Concatenates two programs into one: `b`'s arrays are renamed with a
/// suffix when they collide with `a`'s, and its nests are appended after
/// `a`'s. Used to study *global* (multi-application) power management: a
/// coordinator that restructures the union of two workloads as if they
/// were one (§2's OS-level extension).
pub fn concat_programs(a: &Program, b: &Program) -> Program {
    let mut out = a.clone();
    out.name = format!("{}_{}", a.name, b.name);
    let base = out.arrays.len();
    for decl in &b.arrays {
        let mut decl = decl.clone();
        if out.array_by_name(&decl.name).is_some() {
            decl.name = format!("{}_{}", decl.name, b.name);
        }
        out.add_array(decl);
    }
    for nest in &b.nests {
        let mut nest = nest.clone();
        nest.name = format!("{}_{}", nest.name, b.name);
        for stmt in &mut nest.body {
            for r in &mut stmt.refs {
                r.array += base;
            }
        }
        out.add_nest(nest);
    }
    debug_assert!(out.validate().is_ok());
    out
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::print_program(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_deep(lo: i64, hi: i64) -> LoopNest {
        LoopNest {
            name: "L".into(),
            loops: vec![
                Loop {
                    var: "i".into(),
                    lo: LinExpr::constant(2, lo),
                    hi: LinExpr::constant(2, hi),
                },
                Loop {
                    var: "j".into(),
                    lo: LinExpr::constant(2, lo),
                    hi: LinExpr::constant(2, hi),
                },
            ],
            body: vec![Statement {
                label: "S".into(),
                refs: vec![],
                cost_cycles: 10,
            }],
        }
    }

    #[test]
    fn linearize_row_major() {
        let a = ArrayDecl::new("U", vec![4, 8], 8);
        assert_eq!(a.linearize(&[0, 0]), 0);
        assert_eq!(a.linearize(&[0, 7]), 7);
        assert_eq!(a.linearize(&[1, 0]), 8);
        assert_eq!(a.linearize(&[3, 7]), 31);
        assert_eq!(a.size_bytes(), 4 * 8 * 8);
        assert_eq!(a.strides(), vec![8, 1]);
    }

    #[test]
    #[should_panic]
    fn linearize_rejects_out_of_bounds() {
        let a = ArrayDecl::new("U", vec![4, 8], 8);
        let _ = a.linearize(&[4, 0]);
    }

    #[test]
    fn nest_iteration_enumeration() {
        let n = two_deep(0, 2);
        let its = n.iterations();
        assert_eq!(its.len(), 9);
        assert_eq!(its[0], vec![0, 0]);
        assert_eq!(its[8], vec![2, 2]);
        assert_eq!(n.trip_count(), 9);
        assert_eq!(n.total_cycles(), 90);
    }

    #[test]
    fn triangular_nest_trip_count() {
        // for i = 0..4 { for j = 0..i }
        let n = LoopNest {
            name: "T".into(),
            loops: vec![
                Loop {
                    var: "i".into(),
                    lo: LinExpr::constant(2, 0),
                    hi: LinExpr::constant(2, 4),
                },
                Loop {
                    var: "j".into(),
                    lo: LinExpr::constant(2, 0),
                    hi: LinExpr::var(2, 0),
                },
            ],
            body: vec![],
        };
        assert_eq!(n.trip_count(), 1 + 2 + 3 + 4 + 5);
        assert_eq!(n.iteration_space().count_points(), 15);
    }

    #[test]
    fn simple_reference_detection() {
        // U[i][j] simple; U[j][i] simple; U[i+2][j-3] simple;
        // U[i][i] not simple (repeated var); U[2i][j] not simple.
        let mk = |c0: Vec<i64>, k0: i64, c1: Vec<i64>, k1: i64| ArrayRef {
            array: 0,
            indices: vec![LinExpr::from_parts(c0, k0), LinExpr::from_parts(c1, k1)],
            kind: AccessKind::Read,
        };
        assert!(mk(vec![1, 0], 0, vec![0, 1], 0).is_simple());
        assert!(mk(vec![0, 1], 0, vec![1, 0], 0).is_simple());
        assert!(mk(vec![1, 0], 2, vec![0, 1], -3).is_simple());
        assert!(!mk(vec![1, 0], 0, vec![1, 0], 0).is_simple());
        assert!(!mk(vec![2, 0], 0, vec![0, 1], 0).is_simple());
    }

    #[test]
    fn element_at_evaluates_subscripts() {
        let r = ArrayRef {
            array: 0,
            indices: vec![
                LinExpr::var(2, 0).plus_const(2),
                LinExpr::var(2, 1).plus_const(-3),
            ],
            kind: AccessKind::Write,
        };
        assert_eq!(r.element_at(&[5, 10]), vec![7, 7]);
    }

    #[test]
    fn validate_catches_rank_mismatch() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::new("U", vec![8, 8], 8));
        let mut nest = two_deep(0, 3);
        nest.body[0].refs.push(ArrayRef {
            array: a,
            indices: vec![LinExpr::var(2, 0)], // rank 2 array, 1 subscript
            kind: AccessKind::Read,
        });
        p.add_nest(nest);
        assert!(p.validate().is_err());
    }

    #[test]
    fn concat_renames_collisions_and_remaps_refs() {
        let mk = |name: &str| {
            let mut p = Program::new(name);
            let a = p.add_array(ArrayDecl::new("U", vec![4], 8));
            let mut nest = two_deep(0, 1);
            nest.body[0].refs.push(ArrayRef {
                array: a,
                indices: vec![LinExpr::var(2, 0)],
                kind: AccessKind::Write,
            });
            p.add_nest(nest);
            p
        };
        let a = mk("first");
        let b = mk("second");
        let c = concat_programs(&a, &b);
        assert_eq!(c.arrays.len(), 2);
        assert_eq!(c.nests.len(), 2);
        assert_eq!(c.arrays[1].name, "U_second");
        // The second nest's reference points at the renamed array.
        assert_eq!(c.nests[1].body[0].refs[0].array, 1);
        assert!(c.validate().is_ok());
        assert_eq!(
            c.total_iterations(),
            a.total_iterations() + b.total_iterations()
        );
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut p = Program::new("t");
        let a = p.add_array(ArrayDecl::new("U", vec![8, 8], 8));
        let mut nest = two_deep(0, 3);
        nest.body[0].refs.push(ArrayRef {
            array: a,
            indices: vec![LinExpr::var(2, 0), LinExpr::var(2, 1)],
            kind: AccessKind::Write,
        });
        p.add_nest(nest);
        assert!(p.validate().is_ok());
        assert_eq!(p.total_data_bytes(), 512);
        assert_eq!(p.array_by_name("U"), Some(0));
        assert_eq!(p.array_by_name("V"), None);
    }
}
