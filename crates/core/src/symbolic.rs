//! Symbolic restructuring: regenerates *source code* in the shape of the
//! paper's Figure 2(c), using the polyhedral engine the way the paper uses
//! the Omega library.
//!
//! For each disk `d` and nest `k`, the iteration set
//!
//! ```text
//! Q_{d,k} = { (t, I) | bounds(I) ∧ stripe(offset(I)) = t·P + d₀ ∧ t ≥ 0 }
//! ```
//!
//! is built over an auxiliary stripe-row variable `t` (which linearizes the
//! `stripe ≡ d (mod P)` congruence into affine constraints), and a scanning
//! loop nest is generated for it by Fourier–Motzkin bound synthesis. The
//! pieces are emitted disk-major: all of disk 0's iterations, then disk 1's,
//! … — the perfect-disk-reuse order.
//!
//! The symbolic path requires a dependence-free program (the enumerated
//! scheduler in [`crate::restructure_single`] handles the general case) and
//! assigns each iteration by its *primary* (first) array reference.

use dpm_ir::{DependenceInfo, NestId, Program};
use dpm_layout::{DiskId, LayoutMap};
use dpm_poly::{Constraint, LinExpr, Polyhedron, ScanNest, Set};
use std::error::Error;
use std::fmt;

/// Why the symbolic restructurer refused a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymbolicError {
    /// The program carries data dependences; only the enumerated scheduler
    /// can honour them.
    HasDependences,
    /// A nest has no array references to derive a disk mapping from.
    NoReferences(NestId),
    /// An element is larger than the stripe unit, so a single reference
    /// spans disks and no exact per-disk set exists.
    ElementSpansStripes(NestId),
    /// The layout uses a relaxed array↔file mapping; the symbolic offset
    /// expression assumes one array per file.
    RelaxedMapping,
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::HasDependences => {
                write!(
                    f,
                    "program has data dependences; use the enumerated scheduler"
                )
            }
            SymbolicError::NoReferences(n) => write!(f, "nest {n} has no array references"),
            SymbolicError::ElementSpansStripes(n) => write!(
                f,
                "nest {n}: element size exceeds the stripe unit, per-disk sets are inexact"
            ),
            SymbolicError::RelaxedMapping => write!(
                f,
                "layout uses a relaxed array-file mapping; use the enumerated scheduler"
            ),
        }
    }
}

impl Error for SymbolicError {}

/// One generated piece: the scanning nest enumerating `Q_{d,k}`.
#[derive(Clone, Debug)]
pub struct SymbolicPiece {
    /// The disk whose pass this piece belongs to.
    pub disk: DiskId,
    /// The source nest.
    pub nest: NestId,
    /// Scanning loops over `(t, loop vars…)`.
    pub scan: ScanNest,
}

/// The full restructured program: pieces in disk-major order.
#[derive(Clone, Debug)]
pub struct SymbolicPlan {
    pieces: Vec<SymbolicPiece>,
    num_disks: usize,
}

impl SymbolicPlan {
    /// The pieces, in emission (disk-major) order.
    pub fn pieces(&self) -> &[SymbolicPiece] {
        &self.pieces
    }

    /// Number of disks the plan partitions over.
    pub fn num_disks(&self) -> usize {
        self.num_disks
    }

    /// Runs the plan, calling `f(disk, nest, iteration)` for every scanned
    /// iteration (the auxiliary `t` variable is stripped).
    pub fn execute<F: FnMut(DiskId, NestId, &[i64])>(&self, mut f: F) {
        for piece in &self.pieces {
            piece.scan.execute(|pt| f(piece.disk, piece.nest, &pt[1..]));
        }
    }

    /// Total iterations scanned over all pieces.
    pub fn count(&self) -> u64 {
        let mut n = 0;
        self.execute(|_, _, _| n += 1);
        n
    }

    /// Renders the restructured program as pseudo-source in the style of
    /// the paper's Figure 2(c).
    pub fn to_source(&self, program: &Program) -> String {
        let mut out = format!("program {}_diskreuse;\n", program.name);
        let mut current_disk = usize::MAX;
        for piece in &self.pieces {
            if piece.disk != current_disk {
                current_disk = piece.disk;
                out.push_str(&format!("\n// ======== disk {} ========\n", piece.disk));
            }
            let nest = &program.nests[piece.nest];
            let mut names: Vec<String> = vec!["t".to_string()];
            names.extend(nest.var_names().iter().map(|s| s.to_string()));
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            let body: Vec<String> = nest
                .body
                .iter()
                .map(|s| dpm_ir::printer::print_statement(program, s, &refs[1..]))
                .collect();
            out.push_str(&format!("// from nest {}\n", nest.name));
            out.push_str(&piece.scan.display_with(&refs, &body.join(" ")));
        }
        out
    }
}

/// Builds the disk-major symbolic restructuring plan.
///
/// # Errors
///
/// See [`SymbolicError`]; in particular the program must be free of data
/// dependences.
pub fn restructure_symbolic(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
) -> Result<SymbolicPlan, SymbolicError> {
    // Identity cross-nest dependences (nest k writes X[i][j], nest l > k
    // reads or rewrites the same X[i][j]) are disk-preserving: both
    // endpoints fall into the same disk's pass, and nests keep program
    // order within each pass, so the disk-major emission respects them.
    // Anything else requires the enumerated scheduler.
    let harmless = |c: &dpm_ir::CrossDep| match c {
        dpm_ir::CrossDep::Exact { map, .. } => map.is_identity(),
        dpm_ir::CrossDep::Barrier { .. } => false,
    };
    if !deps.intra.is_empty() || !deps.cross.iter().all(harmless) {
        return Err(SymbolicError::HasDependences);
    }
    if !layout.is_one_to_one() {
        return Err(SymbolicError::RelaxedMapping);
    }
    let num_disks = layout.striping().num_disks();
    let mut pieces = Vec::new();
    for d in 0..num_disks {
        for ni in 0..program.nests.len() {
            let poly = qd_polyhedron(program, layout, d, ni)?;
            pieces.push(SymbolicPiece {
                disk: d,
                nest: ni,
                // Drop redundant constraints so the generated loop bounds
                // carry no vacuous max/min terms.
                scan: ScanNest::build(&poly.simplified()),
            });
        }
    }
    Ok(SymbolicPlan { pieces, num_disks })
}

/// The symbolic per-disk iteration set `Q_{d,nest}` over `(t, I)` — the
/// polyhedron of the module doc — for disk `d` and nest `nest`.
fn qd_polyhedron(
    program: &Program,
    layout: &LayoutMap,
    d: DiskId,
    ni: NestId,
) -> Result<Polyhedron, SymbolicError> {
    let striping = layout.striping();
    let num_disks = striping.num_disks();
    let su = striping.stripe_unit() as i64;
    let nest = &program.nests[ni];
    let Some(primary) = nest.all_refs().next() else {
        return Err(SymbolicError::NoReferences(ni));
    };
    let decl = &program.arrays[primary.array];
    if u64::from(decl.elem_bytes) > striping.stripe_unit() {
        return Err(SymbolicError::ElementSpansStripes(ni));
    }
    let depth = nest.depth();
    let dim = depth + 1; // variable 0 is the stripe-row counter t
                         // offset(I) in bytes, affine over (t, I).
    let strides = decl.strides();
    let mut lin = LinExpr::constant(dim, 0);
    for (sub, stride) in primary.indices.iter().zip(&strides) {
        let remapped = sub.remap(dim, &(1..=depth).collect::<Vec<_>>());
        lin = lin.plus(&remapped.scaled(*stride as i64));
    }
    let offset = lin
        .scaled(i64::from(decl.elem_bytes))
        .plus_const(layout.file_base(primary.array) as i64);
    // stripe = t*P + d0 with d0 the residue owned by disk d.
    let p = num_disks as i64;
    let d0 = ((d as i64) - (striping.start_disk() as i64)).rem_euclid(p);
    let stripe = LinExpr::var(dim, 0).scaled(p).plus_const(d0);
    let mut poly = Polyhedron::universe(dim)
        // t >= 0
        .with(Constraint::geq_zero(LinExpr::var(dim, 0)))
        // su * stripe <= offset
        .with(Constraint::leq(&stripe.scaled(su), &offset))
        // offset <= su * stripe + su - 1
        .with(Constraint::leq(
            &offset,
            &stripe.scaled(su).plus_const(su - 1),
        ));
    for (k, l) in nest.loops.iter().enumerate() {
        let v = LinExpr::var(dim, k + 1);
        let map: Vec<usize> = (1..=depth).collect();
        poly.add(Constraint::geq(&v, &l.lo.remap(dim, &map)));
        poly.add(Constraint::leq(&v, &l.hi.remap(dim, &map)));
    }
    Ok(poly)
}

/// The per-disk symbolic iteration sets `Q_{d,nest}` of one nest, indexed
/// by disk. Each set lives over `(t, I)` with variable 0 the auxiliary
/// stripe-row counter `t`; iterations are assigned by the stripe owning the
/// primary reference's first byte, so the sets partition the nest's
/// iteration space (each iteration appears beneath exactly one disk, with
/// exactly one witness `t`).
///
/// This is the affinity-footprint form of Figure 3's `Q_d`, the input both
/// to the `SetOrder` trace-generation path and to the closed-form
/// `count_points` footprint queries benchmarked in `poly_bench`.
///
/// # Errors
///
/// See [`SymbolicError`] — the layout must be one-to-one and every element
/// must fit inside a stripe unit. Dependences are irrelevant here: the sets
/// describe *where* iterations touch data, not a legal execution order.
pub fn disk_iteration_sets(
    program: &Program,
    layout: &LayoutMap,
    nest: NestId,
) -> Result<Vec<Set>, SymbolicError> {
    if !layout.is_one_to_one() {
        return Err(SymbolicError::RelaxedMapping);
    }
    let _sp = dpm_obs::span!("qd_footprints");
    let num_disks = layout.striping().num_disks();
    (0..num_disks)
        .map(|d| {
            Ok(Set::from(
                qd_polyhedron(program, layout, d, nest)?.simplified(),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_layout::Striping;
    use std::collections::HashSet;

    fn setup(src: &str, striping: Striping) -> (Program, LayoutMap, DependenceInfo) {
        let p = dpm_ir::parse_program(src).unwrap();
        let layout = LayoutMap::new(&p, striping);
        let deps = dpm_ir::analyze(&p);
        (p, layout, deps)
    }

    #[test]
    fn plan_partitions_all_iterations() {
        let (p, layout, deps) = setup(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
            Striping::new(512, 4, 0),
        );
        let plan = restructure_symbolic(&p, &layout, &deps).unwrap();
        assert_eq!(plan.count(), 64 * 8);
        // Each iteration exactly once, and on the disk its element lives on.
        let mut seen = HashSet::new();
        plan.execute(|d, _, pt| {
            assert!(seen.insert(pt.to_vec()), "duplicate {pt:?}");
            assert_eq!(layout.disk_of_element(&p, 0, &[pt[0], pt[1]]), d);
        });
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn plan_is_disk_major() {
        let (p, layout, deps) = setup(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
            Striping::new(512, 4, 0),
        );
        let plan = restructure_symbolic(&p, &layout, &deps).unwrap();
        let mut last_disk = 0;
        plan.execute(|d, _, _| {
            assert!(d >= last_disk, "disk order violated");
            last_disk = d;
        });
    }

    #[test]
    fn two_nests_emit_per_disk_groups() {
        let (p, layout, deps) = setup(
            "program fig2; const N = 16;
             array U1[N][N] : f64; array U2[N][N] : f64;
             nest L1 { for i = 0 .. N-1 { for j = 0 .. N-1 { U1[i][j] = 1; } } }
             nest L2 { for i = 0 .. N-1 { for j = 0 .. N-1 { U2[j][i] = 2; } } }",
            Striping::new(256, 4, 0),
        );
        let plan = restructure_symbolic(&p, &layout, &deps).unwrap();
        assert_eq!(plan.count(), 2 * 16 * 16);
        let src = plan.to_source(&p);
        assert!(src.contains("disk 0"));
        assert!(src.contains("disk 3"));
        assert!(src.contains("for t ="));
        assert!(src.contains("U2[j][i]") || src.contains("U2"), "{src}");
    }

    #[test]
    fn respects_start_disk() {
        let (p, layout, deps) = setup(
            "program t; array A[64] : f64;
             nest L { for i = 0 .. 63 { A[i] = 1; } }",
            Striping::new(128, 4, 2),
        );
        let plan = restructure_symbolic(&p, &layout, &deps).unwrap();
        plan.execute(|d, _, pt| {
            assert_eq!(layout.disk_of_element(&p, 0, &[pt[0]]), d);
        });
        assert_eq!(plan.count(), 64);
    }

    #[test]
    fn rejects_programs_with_dependences() {
        let (p, layout, deps) = setup(
            "program t; array A[64] : f64;
             nest L { for i = 1 .. 63 { A[i] = A[i-1]; } }",
            Striping::new(128, 4, 0),
        );
        assert!(matches!(
            restructure_symbolic(&p, &layout, &deps),
            Err(SymbolicError::HasDependences)
        ));
    }

    #[test]
    fn disk_iteration_sets_partition_the_nest() {
        let (p, layout, _) = setup(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
            Striping::new(512, 4, 0),
        );
        let sets = disk_iteration_sets(&p, &layout, 0).unwrap();
        assert_eq!(sets.len(), 4);
        let total: u64 = sets.iter().map(|s| s.count_points()).sum();
        assert_eq!(total, 64 * 8, "sets must partition the iteration space");
        // Closed-form footprint counts agree with enumeration, and every
        // point sits on the disk owning its primary reference's first byte.
        let mut buf = Vec::new();
        let mut seen = HashSet::new();
        for (d, s) in sets.iter().enumerate() {
            assert_eq!(s.count_points(), s.count_points_enumerated(), "disk {d}");
            let n = s.points_into(&mut buf);
            for pt in buf.chunks(s.dim()).take(n) {
                // pt = (t, i, j): strip the stripe-row witness.
                assert!(seen.insert(pt[1..].to_vec()), "duplicate {pt:?}");
                assert_eq!(layout.disk_of_element(&p, 0, &[pt[1], pt[2]]), d);
            }
        }
        assert_eq!(seen.len(), 512);
    }

    #[test]
    fn triangular_nest_is_partitioned_exactly() {
        let (p, layout, deps) = setup(
            "program t; array A[32][32] : f64;
             nest L { for i = 0 .. 31 { for j = 0 .. i { A[i][j] = 1; } } }",
            Striping::new(512, 4, 0),
        );
        let plan = restructure_symbolic(&p, &layout, &deps).unwrap();
        assert_eq!(plan.count(), (33 * 32 / 2) as u64);
    }
}
