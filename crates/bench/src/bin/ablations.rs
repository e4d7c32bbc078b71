//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. stripe-unit sweep — how layout granularity changes the savings;
//! 2. stripe-factor sweep — more I/O nodes = more spin-down targets;
//! 3. TPM timeout sweep — break-even vs rent-to-buy thresholds;
//! 4. DRPM minimum-level sweep — how deep the spindle may sleep;
//! 5. RAID-level sub-striping — the paper's "experiments with low-level
//!    striping generated similar results" (§7.1);
//! 6. loop fusion vs disk-reuse restructuring — the paper's §6.2.2 claim
//!    that its output "cannot be obtained by simple loop fusioning";
//! 7. relaxed array↔file mappings — §2's unevaluated one-to-many and
//!    many-to-one options, with the compiler re-deriving the disk map.
//!
//! No trace is held: every (program, layout, transform) point is one
//! generation pass that feeds the simulators of every policy/RAID point
//! that shares it ([`simulate_all`]), and the layout sweeps (1–2) run
//! [`run_app`] with a per-point [`ExperimentConfig`].
//!
//! Usage: `ablations [scale] [app]` (default small AST).

use dpm_apps::Scale;
use dpm_bench::{run_app, simulate_all, ExperimentConfig, Version};
use dpm_core::{apply_transform, fuse_program, Transform};
use dpm_disksim::{
    DiskParams, DrpmConfig, PowerPolicy, RaidConfig, SimReport, Simulator, TpmConfig,
};
use dpm_ir::Program;
use dpm_layout::{FileMapping, LayoutMap, Striping};
use dpm_trace::{TraceGenOptions, TraceGenerator};

/// Simulates one (program, layout, transform) point under every
/// `(policy, RAID)` point, from one generation pass; reports in `points`
/// order.
fn simulate(
    program: &Program,
    layout: &LayoutMap,
    transform: Transform,
    points: &[(PowerPolicy, RaidConfig)],
) -> Vec<SimReport> {
    let deps = dpm_ir::analyze(program);
    let schedule = apply_transform(program, layout, &deps, transform);
    let gen = TraceGenerator::new(
        program,
        layout,
        TraceGenOptions {
            max_request_bytes: layout.striping().stripe_unit(),
            ..TraceGenOptions::default()
        },
    );
    let sims: Vec<Simulator> = points
        .iter()
        .map(|&(policy, raid)| {
            Simulator::new(DiskParams::default(), policy, *layout.striping()).with_raid(raid)
        })
        .collect();
    let mut stream = gen.stream(&schedule);
    simulate_all(&mut stream, &sims)
}

fn saving(base: &SimReport, v: &SimReport) -> String {
    format!(
        "{:+.2}%",
        100.0 * (1.0 - v.total_energy_j() / base.total_energy_j())
    )
}

/// `T-TPM-s`'s saving against `Base`, both run through [`run_app`] under
/// a layout-specific config. The `ClusteredS`-at-1-proc schedule is
/// exactly `Transform::DiskReuse`.
fn layout_saving(app: &dpm_apps::BenchApp, striping: Striping) -> String {
    let config = ExperimentConfig {
        striping,
        trace: TraceGenOptions {
            max_request_bytes: striping.stripe_unit(),
            ..TraceGenOptions::default()
        },
        ..ExperimentConfig::default()
    };
    let res = run_app(app, &[Version::Base, Version::TTpmS], 1, &config);
    saving(&res.results[0].report, &res.results[1].report)
}

fn main() {
    let scale = dpm_apps::scale_arg(Scale::Small);
    let app_name = std::env::args().nth(2).unwrap_or_else(|| "AST".into());
    let app = dpm_apps::by_name(&app_name, scale).expect("unknown app");
    let program = app.program();
    println!("ablations on {} at {scale:?} scale\n", app.name);
    let single = RaidConfig::single();
    let tpm = PowerPolicy::Tpm(TpmConfig::proactive());

    // Sweep points are independent cells, so each sweep fans out over
    // `DPM_THREADS` threads and prints its rows in the original
    // parameter order.

    // 1. Stripe-unit sweep (per-point layout → per-point `run_app`).
    println!("1) stripe-unit sweep (T-TPM-s saving vs same-layout Base):");
    let sus = [8u64 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    for (su, row) in
        dpm_exec::par_map_indexed(&sus, |_, &su| layout_saving(&app, Striping::new(su, 8, 0)))
            .into_iter()
            .enumerate()
            .map(|(i, row)| (sus[i], row))
    {
        println!("   {:>4} KB: {row}", su >> 10);
    }

    // 2. Stripe-factor sweep.
    println!("2) stripe-factor sweep (32 KB stripes):");
    let factors = [2usize, 4, 8, 16];
    for (disks, row) in factors
        .iter()
        .zip(dpm_exec::par_map_indexed(&factors, |_, &disks| {
            layout_saving(&app, Striping::new(32 << 10, disks, 0))
        }))
    {
        println!("   {disks:>2} disks: {row}");
    }

    // Sweeps 3–6 share the paper-default layout: one Original-code pass
    // feeds sweep 5's per-RAID Bases (the first, one disk per node, is the
    // Base of sweeps 3–6), one restructured pass feeds every policy/RAID
    // point of sweeps 3–6, and the fused program (6) has a pass of its
    // own. The three passes run concurrently.
    let s = Striping::paper_default();
    let layout = LayoutMap::new(&program, s);
    let fused = fuse_program(&program);
    let fused_layout = LayoutMap::new(&fused, s);
    let timeouts = [1.0, 2.0, 4.0];
    let rpms = [3_000u32, 6_000, 9_000, 12_000];
    let member_counts = [1u32, 2, 4];
    let raids = member_counts.map(|members| {
        if members == 1 {
            single
        } else {
            RaidConfig::raid0(members, 8 << 10)
        }
    });
    let tpm_points = timeouts.map(|mult| {
        let cfg = TpmConfig {
            spin_down_timeout_ms: 15_200.0 * mult,
            proactive: true,
        };
        (PowerPolicy::Tpm(cfg), single)
    });
    let drpm_points = rpms.map(|min_rpm| {
        let cfg = DrpmConfig {
            min_rpm,
            proactive: true,
            ..DrpmConfig::default()
        };
        (PowerPolicy::Drpm(cfg), single)
    });
    let reuse_points = [
        &tpm_points[..],
        &drpm_points,
        &raids.map(|raid| (tpm, raid)),
    ]
    .concat();
    let passes = [
        (
            &program,
            &layout,
            Transform::Original,
            raids.map(|raid| (PowerPolicy::None, raid)).to_vec(),
        ),
        (&program, &layout, Transform::DiskReuse, reuse_points),
        (
            &fused,
            &fused_layout,
            Transform::Original,
            vec![(tpm, single)],
        ),
    ];
    let [base_sweep, reuse_reports, fused_reports]: [Vec<SimReport>; 3] =
        dpm_exec::par_map_indexed(&passes, |_, (program, layout, transform, points)| {
            simulate(program, layout, *transform, points)
        })
        .try_into()
        .expect("one report set per pass");
    let base = &base_sweep[0];
    let (tpm_sweep, rest) = reuse_reports.split_at(timeouts.len());
    let (drpm_sweep, raid_sweep) = rest.split_at(rpms.len());

    // 3. TPM timeout sweep.
    println!("3) TPM spin-down timeout sweep (Table 1 break-even = 15.2 s):");
    for (mult, t) in timeouts.iter().zip(tpm_sweep) {
        println!(
            "   {:>4.1}x break-even ({:>5.1} s): {} (degr {:+.2}%)",
            mult,
            15.2 * mult,
            saving(base, t),
            100.0 * (t.total_io_time_ms / base.total_io_time_ms - 1.0),
        );
    }

    // 4. DRPM minimum-level sweep.
    println!("4) DRPM minimum RPM sweep (T-DRPM-s):");
    for (min_rpm, t) in rpms.iter().zip(drpm_sweep) {
        println!("   min {min_rpm:>6} rpm: {}", saving(base, t));
    }

    // 5. RAID-level sub-striping: savings should be similar (§7.1). RAID
    // only changes the simulator, so both passes feed it unchanged.
    println!("5) RAID-0 sub-striping inside each I/O node (normalized savings):");
    for ((members, b), t) in member_counts.iter().zip(&base_sweep).zip(raid_sweep) {
        println!(
            "   {members} disk(s)/node: saving {}  (base energy {:.0} J)",
            saving(b, t),
            b.total_energy_j()
        );
    }

    // 7. Relaxed array↔file mappings (§2's unevaluated options). The
    // compiler reads whatever layout is exposed, so clustering adapts.
    // Layouts differ per mapping, so each point has its own pair of passes.
    println!("7) relaxed array-file mappings (T-TPM-s saving vs matching Base):");
    let groups: Vec<Vec<usize>> = vec![(0..program.arrays.len()).collect()];
    let mappings = vec![
        ("one-to-one (default)", FileMapping::one_to_one(&program)),
        (
            "all arrays in one file",
            FileMapping::shared(&program, &groups),
        ),
        (
            "first array split x4",
            FileMapping::split_rows(&program, 0, 4),
        ),
    ];
    for (label, row) in dpm_exec::par_map_vec(mappings, |_, (label, mapping)| {
        let layout = LayoutMap::with_mapping(&program, s, &mapping);
        let b = simulate(
            &program,
            &layout,
            Transform::Original,
            &[(PowerPolicy::None, single)],
        );
        let t = simulate(&program, &layout, Transform::DiskReuse, &[(tpm, single)]);
        (label, saving(&b[0], &t[0]))
    }) {
        println!("   {label:<24}: {row}");
    }

    // 6. Loop fusion baseline (its own program, so its own pass).
    println!("6) classic loop fusion vs disk-reuse restructuring (TPM):");
    println!(
        "   fusion merged {} nests into {}",
        program.nests.len(),
        fused.nests.len()
    );
    println!(
        "   fused original order: {}",
        saving(base, &fused_reports[0])
    );
    println!(
        "   disk-reuse restructured: {}",
        saving(base, &raid_sweep[0])
    );
}
