//! The paper's Figure 4: restructuring in the presence of data
//! dependences. The scheduler clusters accesses disk by disk but defers
//! any iteration whose dependence predecessors have not run yet, taking
//! several rounds over the disks (the while-loop of Figure 3).
//!
//! Run with: `cargo run --example dependence_scheduling`

use disk_reuse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A chain A[i] = A[i-3]: each iteration depends on the one three back,
    // so a pure per-disk clustering is illegal — the schedule must weave
    // between disks, exactly like the arrows of Figure 4.
    let source = "
program fig4;
array A[64] : f64;
nest L {
  for i = 3 .. 63 {
    A[i] = f(A[i-3]);
  }
}
";
    let program = parse_program(source)?;
    // 4 disks, 4 elements per stripe: the ownership pattern cycles every
    // 16 elements, so the i-3 dependence regularly points at the previous
    // disk and forces the scheduler to weave between disks (Figure 4).
    let striping = Striping::new(32, 4, 0);
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);
    println!(
        "dependence distances of nest L: {:?}",
        deps.nest_exact_distances(0)
    );

    let schedule = restructure_single(&program, &layout, &deps);
    schedule.validate_coverage(&program)?;

    println!("\nschedule (iteration i → disk of A[i]):");
    let mut last_disk = usize::MAX;
    let mut run = Vec::new();
    let flush = |d: usize, run: &mut Vec<i64>| {
        if !run.is_empty() {
            println!("  disk {d}: iterations {run:?}");
            run.clear();
        }
    };
    for it in schedule.iter(0, 0) {
        let i = it.coords()[0];
        let d = layout.disk_of_element(&program, 0, &[i]);
        if d != last_disk {
            if last_disk != usize::MAX {
                flush(last_disk, &mut run);
            }
            last_disk = d;
        }
        run.push(i);
    }
    flush(last_disk, &mut run);

    // Verify legality explicitly: every predecessor runs first.
    let order: Vec<i64> = schedule.iter(0, 0).map(|it| it.coords()[0]).collect();
    let pos = |v: i64| order.iter().position(|&x| x == v).unwrap();
    for i in 6..64 {
        assert!(
            pos(i - 3) < pos(i),
            "dependence {} -> {} violated",
            i - 3,
            i
        );
    }
    println!("\nall {} dependences respected ✓", 64 - 6);

    // Compare clustering quality with the original order.
    let original = original_schedule(&program);
    println!(
        "mean disk-run length: original {:.1}, restructured {:.1}",
        mean_disk_run_length(&program, &layout, &original),
        mean_disk_run_length(&program, &layout, &schedule),
    );
    Ok(())
}
