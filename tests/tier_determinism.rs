//! Determinism guarantees of the tiered simulator.
//!
//! Two contracts:
//!
//! * **Flat compatibility** — a single-class `TierConfig` with a
//!   file-order uniform placement and no migration produces a report
//!   *byte-identical* (modulo the run id and the added tier summary) to
//!   the pre-tier flat simulator, so every golden captured before tiers
//!   existed still pins the same numbers.
//! * **Seed determinism** — the promote/demote sequence is a pure
//!   function of the seeded migration policy: same seed, same events,
//!   every time.

use disk_reuse::prelude::*;
use dpm_bench::TierSweepConfig;
use dpm_disksim::MigrationEvent;

/// One app's restructured Tiny trace on the sweep's flat striping,
/// built serially so every test sees the same input.
fn tiny_trace(app: &str, config: &TierSweepConfig) -> (Program, LayoutMap, Trace) {
    dpm_exec::serial_scope(|| {
        let app = by_name(app, Scale::Tiny).expect("unknown app");
        let program = app.program();
        let striping = config.striping();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);
        let schedule = apply_transform(&program, &layout, &deps, Transform::DiskReuse);
        let gen = TraceGenerator::new(
            &program,
            &layout,
            TraceGenOptions {
                max_request_bytes: striping.stripe_unit(),
                ..TraceGenOptions::default()
            },
        );
        let trace = gen.generate(&schedule).0;
        (program, layout, trace)
    })
}

/// The heterogeneous tier setup of the sweep for one app's volume, with
/// the heat-blind placement (the migrated scenario's starting point).
fn tier_setup(
    program: &Program,
    layout: &LayoutMap,
    config: &TierSweepConfig,
) -> (TierConfig, TieredVolume) {
    let tiers = config.tiers_for(layout.volume_bytes());
    let topo = tiers.topology();
    let demands = array_demands(program, layout);
    let plan = PlacementPlan::round_robin(&topo, &demands).expect("round-robin placement");
    assert!(verify_placement(program, layout, &topo, &plan).is_empty());
    let vol = TieredVolume::new(layout, topo, &plan);
    (tiers, vol)
}

/// Canonical report rendering: the run id is the only per-run field.
fn canonical(mut report: SimReport) -> String {
    report.obs_run = 0;
    format!("{report:?}")
}

/// A single-class tier configuration with zero migration reproduces the
/// flat simulator bit for bit across the whole Tiny suite: same energy
/// bits, same per-disk stats — the tier summary is the only addition.
#[test]
fn single_class_zero_migration_matches_flat_byte_for_byte() {
    let config = TierSweepConfig::default();
    for app in suite(Scale::Tiny) {
        let (_, layout, trace) = tiny_trace(app.name, &config);
        let striping = *layout.striping();
        let perf = DiskClass::performance();
        let params = perf.params;
        let policy = PowerPolicy::Tpm(TpmConfig::default());

        let flat = Simulator::new(params, policy, striping).run(&trace);

        let sizes: Vec<u64> = (0..layout.num_files())
            .map(|a| layout.file_len(a))
            .collect();
        let plan = PlacementPlan::uniform(0, &sizes);
        let tier_cfg = TierConfig::single_class(striping.stripe_unit(), perf, striping.num_disks());
        let vol = TieredVolume::new(&layout, tier_cfg.topology(), &plan);
        let tiered = Simulator::new(params, policy, striping)
            .with_tiers(tier_cfg, vol)
            .run(&trace);

        assert_eq!(
            flat.total_energy_j().to_bits(),
            tiered.total_energy_j().to_bits(),
            "{}: single-class energy diverged from flat",
            app.name
        );
        let tiers = tiered.tiers.clone().expect("tier summary present");
        assert!(tiers.events.is_empty(), "{}: migration fired", app.name);
        let mut stripped = tiered;
        stripped.tiers = None;
        assert_eq!(
            canonical(flat),
            canonical(stripped),
            "{}: single-class report diverged from flat beyond the tier summary",
            app.name
        );
    }
}

/// The promote/demote sequence is a pure function of the migration seed:
/// the same seed replays the same events; the decision sequence is also
/// stable run-to-run (no hidden global state).
#[test]
fn same_seed_same_migration_sequence() {
    let config = TierSweepConfig::default();
    let (program, layout, trace) = tiny_trace("Visuo", &config);
    let (tiers, _) = tier_setup(&program, &layout, &config);
    let events_with = |migration: MigrationConfig| -> Vec<MigrationEvent> {
        let (_, vol) = tier_setup(&program, &layout, &config);
        Simulator::new(
            DiskClass::performance().params,
            PowerPolicy::Tpm(TpmConfig::default()),
            *layout.striping(),
        )
        .with_tiers(tiers.clone(), vol)
        .with_migration(migration)
        .run(&trace)
        .tiers
        .expect("tier summary")
        .events
    };
    let first = events_with(MigrationConfig::default());
    assert!(!first.is_empty(), "scenario exercises no migration");
    for _ in 0..3 {
        assert_eq!(
            events_with(MigrationConfig::default()),
            first,
            "same seed replayed a different promote/demote sequence"
        );
    }
    // A different window geometry changes *when* decisions can fire; the
    // sequence remains deterministic for that configuration too.
    let alt = MigrationConfig {
        window_requests: 64,
        ..MigrationConfig::default()
    };
    assert_eq!(
        events_with(alt),
        events_with(alt),
        "alt config not deterministic"
    );
}
