//! Micro-benchmarks for the polyhedral engine (the Omega substitute):
//! Fourier–Motzkin projection, set difference, emptiness, point counting
//! (closed form vs enumeration, cached vs fresh queries), and
//! scanning-loop generation — the machinery the restructurer leans on.
//!
//! Manual harness (`dpm_bench::microbench`); run with `cargo bench`.

use dpm_bench::microbench::{bench, group};
use dpm_poly::{Constraint, LinExpr, Polyhedron, ScanNest, Set};

/// `{ (i, j) | 0 <= i < n, 0 <= j < n }`.
fn square(n: i64) -> Polyhedron {
    Polyhedron::universe(2)
        .with_range(0, 0, n - 1)
        .with_range(1, 0, n - 1)
}

/// `{ (i, j) | 0 <= i < n, 0 <= j <= i }`.
fn triangle(n: i64) -> Polyhedron {
    square(n).with(Constraint::geq_zero(
        LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
    ))
}

/// The stripe-congruence polyhedron the symbolic restructurer builds:
/// `{ (t, i, j) | bounds, su*(tP+d) <= C*i + j <= su*(tP+d) + su - 1 }`.
fn stripe_poly(n: i64, su: i64, disks: i64, d: i64) -> Polyhedron {
    let dim = 3;
    let t = LinExpr::var(dim, 0);
    let i = LinExpr::var(dim, 1);
    let j = LinExpr::var(dim, 2);
    let offset = i.scaled(n).plus(&j);
    let stripe = t.scaled(disks).plus_const(d);
    Polyhedron::universe(dim)
        .with(Constraint::geq_zero(t.clone()))
        .with_range(1, 0, n - 1)
        .with_range(2, 0, n - 1)
        .with(Constraint::leq(&stripe.scaled(su), &offset))
        .with(Constraint::leq(
            &offset,
            &stripe.scaled(su).plus_const(su - 1),
        ))
}

fn main() {
    group("fm_projection");
    for n in [32i64, 128, 512] {
        let p = triangle(n);
        bench(&format!("fm_projection/{n}"), || p.project_onto_prefix(1));
    }

    group("set_difference");
    for n in [16i64, 64] {
        let a = Set::from(triangle(n));
        let hole = Set::from(
            Polyhedron::universe(2)
                .with_range(0, n / 4, n / 2)
                .with_range(1, n / 4, n / 2),
        );
        bench(&format!("set_difference/{n}"), || a.subtract(&hole));
        // The restructurer's Q = Q − Q_d chain: Q is owned, so each update
        // moves its disjuncts through `into_subtract` instead of cloning
        // the whole set per subtracted polyhedron.
        let holes: Vec<Set> = (0..4)
            .map(|k| {
                Set::from(
                    Polyhedron::universe(2)
                        .with_range(0, k * n / 8, k * n / 8 + n / 8)
                        .with_range(1, 0, n - 1),
                )
            })
            .collect();
        bench(&format!("set_difference/chain_owned/{n}"), || {
            let mut q = a.clone();
            for h in &holes {
                q = q.into_subtract(h);
            }
            q
        });
        bench(&format!("set_constrained_owned/{n}"), || {
            a.clone().into_constrained(&Constraint::geq_zero(
                LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
            ))
        });
    }

    group("emptiness");
    // Feasible only at a single point — the search must dig for it.
    let p = Polyhedron::universe(3)
        .with_range(0, 0, 100)
        .with_range(1, 0, 100)
        .with_range(2, 0, 100)
        .with(Constraint::eq(
            &LinExpr::var(3, 0).plus(&LinExpr::var(3, 1)),
            &LinExpr::constant(3, 150),
        ))
        .with(Constraint::eq(
            &LinExpr::var(3, 1).plus(&LinExpr::var(3, 2)),
            &LinExpr::constant(3, 150),
        ));
    bench("emptiness_nontrivial", || p.is_empty());

    // Footprint shapes at `Scale::Large` geometry (1024 / 2 = 512-wide
    // arrays). A fresh polyhedron per iteration, so the closed form pays
    // its cache build: construction + query on both sides.
    group("count_points");
    for (shape, build) in [
        ("square", square as fn(i64) -> Polyhedron),
        ("triangle", triangle),
    ] {
        bench(&format!("count_points/{shape}/closed"), || {
            build(512).count_points()
        });
        bench(&format!("count_points/{shape}/enumerated"), || {
            build(512).count_points_enumerated()
        });
    }

    group("cached_queries");
    // One value queried repeatedly (everything after the first query is a
    // cache hit) vs a fresh polyhedron per round (every query rebuilds its
    // projection chain).
    let warm = triangle(512);
    bench("cached_queries/same_value", || {
        (warm.count_points(), warm.is_empty(), warm.lexmax())
    });
    bench("cached_queries/fresh_value", || {
        let p = triangle(512);
        (p.count_points(), p.is_empty(), p.lexmax())
    });

    group("scan_codegen");
    for n in [64i64, 256] {
        let p = stripe_poly(n, 64, 4, 1);
        bench(&format!("scan_codegen/build/{n}"), || ScanNest::build(&p));
        let nest = ScanNest::build(&stripe_poly(n, 64, 4, 1));
        bench(&format!("scan_codegen/execute/{n}"), || {
            let mut count = 0u64;
            nest.execute(|_| count += 1);
            count
        });
    }
}
