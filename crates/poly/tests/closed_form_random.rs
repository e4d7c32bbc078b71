//! Randomized equivalence suite for the closed-form counting and cached
//! projection-chain machinery.
//!
//! Unlike `tests/proptests.rs` (gated behind the `proptests` feature
//! because it needs the external `proptest` crate), this suite is on by
//! default: it seeds the workspace's own `dpm_obs::XorShift64Star`, so
//! every run draws the same polyhedra and a failure reproduces exactly
//! from the printed seed.
//!
//! For each random bounded polyhedron it checks, against the enumeration
//! path that predates the closed forms:
//!
//! * `count_points` (closed form + cache) == `count_points_enumerated`,
//! * every cached query (`is_empty`, `lexmin`, `lexmax`, `bounding_box`)
//!   equals the same query on a freshly built copy,
//! * repeated queries on one value stay stable, and `add` invalidates the
//!   cache rather than serving stale answers.
//!
//! One more test pins why the closed forms exist: they count a box far
//! too large to enumerate, exactly and within a deadline.

use dpm_obs::XorShift64Star;
use dpm_poly::{Constraint, LinExpr, Polyhedron};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const CASES: u64 = 200;
const SEED: u64 = 0xD15C_2006;

/// Draws a random bounded polyhedron: a constant box on every variable
/// (so enumeration always terminates) plus a few random affine cuts that
/// can only shrink it — possibly to empty, which is a case worth testing.
fn random_polyhedron(rng: &mut XorShift64Star) -> Polyhedron {
    let dim = rng.range_i64(1, 3) as usize;
    let mut p = Polyhedron::universe(dim);
    for v in 0..dim {
        let lo = rng.range_i64(-8, 8);
        let hi = lo + rng.range_i64(0, 11);
        p = p.with_range(v, lo, hi);
    }
    for _ in 0..rng.range_i64(0, 3) {
        let mut e = LinExpr::constant(dim, rng.range_i64(-20, 20));
        for v in 0..dim {
            e = e.plus(&LinExpr::var(dim, v).scaled(rng.range_i64(-3, 3)));
        }
        p = p.with(Constraint::geq_zero(e));
    }
    p
}

/// Rebuilds `p` from its constraint list, dropping any cached state. A
/// constraint that normalized to `false` is recorded only in the
/// trivially-empty flag, not the list, so that flag carries over.
fn fresh_copy(p: &Polyhedron) -> Polyhedron {
    let mut q = Polyhedron::universe(p.dim());
    for c in p.constraints() {
        q.add(c.clone());
    }
    if p.is_trivially_empty() {
        // Re-induce the flag without touching the stored list: a false
        // constant constraint sets it and is dropped during normalization.
        q.add(Constraint::geq_zero(LinExpr::constant(p.dim(), -1)));
    }
    q
}

#[test]
fn closed_form_count_matches_enumeration_on_random_polyhedra() {
    let mut rng = XorShift64Star::new(SEED);
    for case in 0..CASES {
        let p = random_polyhedron(&mut rng);
        let closed = p.count_points();
        let enumerated = p.count_points_enumerated();
        assert_eq!(
            closed, enumerated,
            "case {case} (seed {SEED:#x}): closed-form count {closed} != \
             enumerated {enumerated} for {p:?}"
        );
    }
}

#[test]
fn cached_queries_match_fresh_queries_on_random_polyhedra() {
    let mut rng = XorShift64Star::new(SEED ^ 0xA5A5_A5A5);
    for case in 0..CASES {
        let p = random_polyhedron(&mut rng);
        // Warm every cache slot, twice, to catch both fill and hit paths.
        for _ in 0..2 {
            let _ = (p.count_points(), p.is_empty(), p.lexmin());
            let _ = (p.lexmax(), p.bounding_box(), p.is_rationally_empty());
        }
        let fresh = fresh_copy(&p);
        let ctx = format!("case {case} (seed {SEED:#x}): {p:?}");
        assert_eq!(p.count_points(), fresh.count_points(), "count: {ctx}");
        assert_eq!(p.is_empty(), fresh.is_empty(), "is_empty: {ctx}");
        assert_eq!(p.lexmin(), fresh.lexmin(), "lexmin: {ctx}");
        assert_eq!(p.lexmax(), fresh.lexmax(), "lexmax: {ctx}");
        assert_eq!(p.bounding_box(), fresh.bounding_box(), "bbox: {ctx}");
        assert_eq!(
            p.is_rationally_empty(),
            fresh.is_rationally_empty(),
            "rat_empty: {ctx}"
        );
    }
}

#[test]
fn add_invalidates_cache_on_random_polyhedra() {
    let mut rng = XorShift64Star::new(SEED ^ 0x5A5A_5A5A);
    for case in 0..CASES {
        let mut p = random_polyhedron(&mut rng);
        let before = p.count_points();
        // Warm the remaining slots too, so a stale-cache bug in any of
        // them would survive into the post-add comparison.
        let _ = (p.is_empty(), p.lexmin(), p.lexmax(), p.bounding_box());
        // Cut with a random half-space through the box's interior.
        let dim = p.dim();
        let v = rng.range_i64(0, dim as i64 - 1) as usize;
        let cut = rng.range_i64(-4, 4);
        p.add(Constraint::geq_zero(LinExpr::var(dim, v).plus_const(-cut)));
        let fresh = fresh_copy(&p);
        let ctx = format!("case {case} (seed {SEED:#x}): {p:?}");
        let after = p.count_points();
        assert_eq!(after, fresh.count_points(), "count after add: {ctx}");
        assert_eq!(after, p.count_points_enumerated(), "closed vs enum: {ctx}");
        assert!(after <= before, "adding a constraint grew the set: {ctx}");
        assert_eq!(p.is_empty(), fresh.is_empty(), "is_empty after add: {ctx}");
        assert_eq!(p.lexmin(), fresh.lexmin(), "lexmin after add: {ctx}");
        assert_eq!(p.lexmax(), fresh.lexmax(), "lexmax after add: {ctx}");
        assert_eq!(
            p.bounding_box(),
            fresh.bounding_box(),
            "bbox after add: {ctx}"
        );
    }
}

/// A 2^20 × 2^20 box and its triangle `j <= i`: 2^40 and 2^39 + 2^19
/// points. The closed forms count them in microseconds; enumeration, at
/// ~0.4 µs per point, would take days. The count runs on its own thread
/// so that a fallback to enumeration fails at the deadline instead of
/// hanging the suite; on timeout that thread is left running and ends
/// with the test process.
#[test]
fn closed_form_counts_a_trillion_points_within_deadline() {
    let n = 1i64 << 20;
    let (tx, rx) = mpsc::channel();
    let counter = std::thread::spawn(move || {
        let square = Polyhedron::universe(2)
            .with_range(0, 0, n - 1)
            .with_range(1, 0, n - 1);
        let triangle = square.clone().with(Constraint::geq_zero(
            LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
        ));
        let _ = tx.send((square.count_points(), triangle.count_points()));
    });
    let counts = match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(counts) => counts,
        Err(RecvTimeoutError::Timeout) => {
            panic!("counting a 2^20 x 2^20 box took over 10 s: no closed form ran")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(counter.join().expect_err("sender dropped unsent"))
        }
    };
    counter
        .join()
        .expect("counting thread finished after sending");
    assert_eq!(counts, (1 << 40, (1 << 39) + (1 << 19)));
}
