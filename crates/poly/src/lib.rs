//! # dpm-poly — integer set algebra and loop generation
//!
//! A small, from-scratch substitute for the Omega library as used by
//! *"A Compiler-Guided Approach for Reducing Disk Power Consumption by
//! Exploiting Disk Access Locality"* (CGO 2006): affine expressions and
//! constraints, convex integer polyhedra with Fourier–Motzkin projection,
//! finite unions of polyhedra with exact difference/intersection, and
//! `codegen`-style scanning-loop synthesis.
//!
//! The restructuring compiler (`dpm-core`) uses this crate to build per-disk
//! iteration sets `Q_d`, compute `Q − Q_d` as the algorithm of the paper's
//! Figure 3 requires, and to regenerate loop nests that enumerate each set
//! (the paper's Figure 2(c) output). A generated [`ScanNest`] runs its
//! points through [`ScanNest::execute`]; it has no cursor, because the
//! trace generator walks `dpm_core::Schedule`s, not polyhedra.
//!
//! ## Example
//!
//! ```
//! use dpm_poly::{Polyhedron, Set, ScanNest};
//!
//! // Iteration space { (i, j) | 0 <= i <= 9, 0 <= j <= 9 } …
//! let space = Polyhedron::universe(2).with_range(0, 0, 9).with_range(1, 0, 9);
//! // … minus the strictly lower-triangular half:
//! let upper = Set::from(space.clone()).subtract(&Set::from(
//!     space.clone().with(dpm_poly::Constraint::geq_zero(
//!         dpm_poly::LinExpr::var(2, 0).minus(&dpm_poly::LinExpr::var(2, 1)).plus_const(-1),
//!     )),
//! ));
//! assert_eq!(upper.count_points(), 55);
//!
//! // Generate a loop nest scanning the full space:
//! let nest = ScanNest::build(&space);
//! assert_eq!(nest.count(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod constraint;
mod expr;
mod map;
mod polyhedron;
mod set;

pub use codegen::{BoundTerm, ScanLoop, ScanNest, ScanProgram};
pub use constraint::{Constraint, Relation};
pub use expr::{ceil_div, floor_div, gcd, LinExpr};
pub use map::AffineMap;
pub use polyhedron::Polyhedron;
pub use set::Set;
