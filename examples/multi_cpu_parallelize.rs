//! The paper's Figures 5 and 6: loop-based vs disk-layout-aware
//! parallelization. Three nests access the same array with different
//! patterns; the baseline gives each processor the same-position chunk of
//! every nest (Figure 6(a)), while the layout-aware scheme keeps each
//! processor on the data — and therefore the disks — it owns (Figure 6(b)).
//!
//! Run with: `cargo run --example multi_cpu_parallelize`

use disk_reuse::core::iteration_disk_mask;
use disk_reuse::prelude::*;

fn footprints(program: &Program, layout: &LayoutMap, schedule: &Schedule) -> Vec<Vec<u64>> {
    (0..schedule.num_phases())
        .map(|phase| {
            (0..schedule.num_procs())
                .map(|proc| {
                    let mut mask = 0u64;
                    for it in schedule.iter(phase, proc) {
                        mask |=
                            iteration_disk_mask(program, layout, it.nest as usize, &it.coords());
                    }
                    mask
                })
                .collect()
        })
        .collect()
}

fn show(label: &str, fps: &[Vec<u64>]) {
    println!("{label}");
    for (phase, procs) in fps.iter().enumerate() {
        print!("  nest {phase}:");
        for (p, m) in procs.iter().enumerate() {
            let disks: Vec<usize> = (0..64).filter(|d| m & (1 << d) != 0).collect();
            print!("  P{p}→{disks:?}");
        }
        println!();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 5 scenario: L1 and L3 sweep by rows, L2 by columns.
    let source = "
program fig5;
const N = 64;
array A[N][N] : bytes(4096);
array B[N][N] : bytes(4096);
array C[N][N] : bytes(4096);
nest L1 { for i = 0 .. N-1 { for j = 0 .. N-1 { B[i][j] = f(A[i][j]); } } }
nest L2 { for i = 0 .. N-1 { for j = 0 .. N-1 { C[i][j] = g(A[j][i]); } } }
nest L3 { for i = 0 .. N-1 { for j = 0 .. N-1 { B[i][j] = h(A[i][j]); } } }
";
    let program = parse_program(source)?;
    let striping = Striping::paper_default();
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);

    println!(
        "unification step chose distribution dimensions {:?} (0 = row-block)\n",
        dpm_core::distribution_dims(&program, &deps)
    );

    let baseline = parallelize_baseline(&program, &layout, &deps, 4, true);
    let aware = parallelize_layout_aware(&program, &layout, &deps, 4, true);
    baseline.validate_coverage(&program)?;
    aware.validate_coverage(&program)?;

    show(
        "loop-based parallelization (Fig 6(a)) — per-processor disk footprints:",
        &footprints(&program, &layout, &baseline),
    );
    show(
        "\ndisk-layout-aware parallelization (Fig 6(b)):",
        &footprints(&program, &layout, &aware),
    );

    // Simulate both under proactive TPM.
    let gen = TraceGenerator::new(
        &program,
        &layout,
        TraceGenOptions {
            max_request_bytes: striping.stripe_unit(),
            ..TraceGenOptions::default()
        },
    );
    let (tb, _) = gen.generate(&baseline);
    let (ta, _) = gen.generate(&aware);
    let base_sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
    let tpm = Simulator::new(
        DiskParams::default(),
        PowerPolicy::Tpm(TpmConfig::proactive()),
        striping,
    );
    let rb = base_sim.run(&tb);
    let eb = tpm.run(&tb);
    let ea = tpm.run(&ta);
    println!(
        "\nenergy under TPM: loop-based {:.0} J ({:+.1}% vs its base) | layout-aware {:.0} J",
        eb.total_energy_j(),
        100.0 * (eb.normalized_energy(&rb) - 1.0),
        ea.total_energy_j(),
    );
    Ok(())
}
