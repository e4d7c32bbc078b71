//! Cross-crate property tests.
//!
//! Two tiers:
//!
//! * [`randomized`] — **on by default**, zero-dependency: seeded
//!   XorShift-driven random traces, stripings, policies, and fault plans
//!   pushed through the simulator's invariant checker. No fault plan may
//!   violate energy conservation, leave the makespan partly unaccounted,
//!   or lose/duplicate a request.
//! * [`proptests`] — the original proptest suite (schedule legality,
//!   layout round trips). Off by default: needs the external `proptest`
//!   crate, which this tree does not depend on so that it builds fully
//!   offline. To run, re-add a `proptest` dev-dependency and pass
//!   `--features proptests`.

/// Seeded randomized invariant checks, on in every `cargo test` run.
/// Failures cite the case index and the derived seed so any counterexample
/// replays exactly.
mod randomized {
    use disk_reuse::prelude::*;
    use dpm_disksim::{invariants, RaidConfig, SimReport};
    use dpm_obs::XorShift64Star;

    /// Number of random scenarios per test.
    const CASES: u64 = 40;
    /// Master seed; case `k` derives its own stream from `SEED ^ k`.
    const SEED: u64 = 0x5EED_D15C_FA17;

    fn random_striping(rng: &mut XorShift64Star) -> Striping {
        let unit = 1024u64 << rng.range_i64(0, 4); // 1 KB .. 16 KB
        let disks = rng.range_i64(2, 8) as usize;
        Striping::new(unit, disks, 0)
    }

    fn random_policy(rng: &mut XorShift64Star) -> PowerPolicy {
        match rng.range_i64(0, 4) {
            0 => PowerPolicy::None,
            1 => PowerPolicy::Tpm(TpmConfig::default()),
            2 => PowerPolicy::Tpm(TpmConfig::proactive()),
            3 => PowerPolicy::Drpm(DrpmConfig::default()),
            _ => PowerPolicy::Drpm(DrpmConfig::proactive()),
        }
    }

    /// A random trace with a mix of dense bursts and long idle gaps (long
    /// enough to trigger spin-downs and DRPM ramps).
    fn random_trace(rng: &mut XorShift64Star) -> Trace {
        let n = rng.range_i64(20, 140);
        let mut t = 0.0f64;
        let mut reqs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            t += match rng.range_i64(0, 9) {
                0 => 20_000.0 + rng.uniform(120_000.0), // long gap
                1..=3 => rng.uniform(3_000.0),          // medium gap
                _ => rng.uniform(40.0),                 // burst
            };
            reqs.push(IoRequest {
                arrival_ms: t,
                offset: rng.range_i64(0, 1 << 22) as u64,
                len: rng.range_i64(512, 64 * 1024) as u64,
                kind: if rng.range_i64(0, 1) == 0 {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                },
                proc_id: rng.range_i64(0, 3) as u32,
            });
        }
        Trace::from_requests(reqs)
    }

    /// A random fault plan: roughly a quarter are the zero plan (the
    /// fault-free control must satisfy the same invariants).
    fn random_plan(rng: &mut XorShift64Star, case: u64) -> FaultPlan {
        if rng.range_i64(0, 3) == 0 {
            FaultPlan::zero()
        } else {
            let rate = 0.3 * rng.next_f64();
            FaultPlan::chaos(SEED.wrapping_add(case), rate)
        }
    }

    fn run(trace: &Trace, striping: Striping, policy: PowerPolicy, plan: FaultPlan) -> SimReport {
        Simulator::new(DiskParams::default(), policy, striping)
            .with_faults(plan)
            .with_timelines()
            .run(trace)
    }

    /// Core property: for random (trace, striping, policy, fault plan),
    /// every invariant holds — time coverage, energy conservation,
    /// timeline contiguity, fault-counter accounting, and request
    /// conservation against the striping projection.
    #[test]
    fn random_scenarios_satisfy_all_invariants() {
        for case in 0..CASES {
            let mut rng = XorShift64Star::new(SEED ^ case);
            let striping = random_striping(&mut rng);
            let policy = random_policy(&mut rng);
            let trace = random_trace(&mut rng);
            let plan = random_plan(&mut rng, case);
            let report = run(&trace, striping, policy, plan);
            let mut violations =
                invariants::check_report(&report, &DiskParams::default(), &RaidConfig::single());
            violations.extend(invariants::check_trace_accounting(
                &report, &trace, &striping,
            ));
            assert!(
                violations.is_empty(),
                "case {case} (seed {SEED:#x}, policy {policy}, rate-bearing plan seed \
                 {:#x}): invariants violated:\n{}",
                plan.seed,
                violations
                    .iter()
                    .map(|v| format!("  - {v}\n"))
                    .collect::<String>()
            );
        }
    }

    /// No fault plan may lose or duplicate a request: per-disk sub-request
    /// and byte counts match the zero-plan run of the same scenario, and
    /// faults only ever add time and energy.
    #[test]
    fn no_plan_loses_or_duplicates_requests() {
        for case in 0..CASES {
            let mut rng = XorShift64Star::new(SEED.rotate_left(17) ^ case);
            let striping = random_striping(&mut rng);
            let policy = random_policy(&mut rng);
            let trace = random_trace(&mut rng);
            let rate = 0.05 + 0.25 * rng.next_f64();
            let plan = FaultPlan::chaos(SEED ^ case, rate);
            let clean = run(&trace, striping, policy, FaultPlan::zero());
            let chaotic = run(&trace, striping, policy, plan);
            for (disk, (c, f)) in clean.per_disk.iter().zip(&chaotic.per_disk).enumerate() {
                assert_eq!(
                    c.requests, f.requests,
                    "case {case} disk {disk}: sub-request count changed under faults"
                );
                assert_eq!(
                    c.bytes, f.bytes,
                    "case {case} disk {disk}: byte count changed under faults"
                );
            }
            assert!(
                chaotic.makespan_ms >= clean.makespan_ms - 1e-9,
                "case {case}: faults shortened the makespan"
            );
            assert!(
                chaotic.total_energy_j() >= clean.total_energy_j() - 1e-9,
                "case {case}: faults removed energy"
            );
            assert!(
                chaotic.total_retries() + chaotic.total_requeues() <= chaotic.total_faults(),
                "case {case}: counter accounting"
            );
        }
    }

    /// Heterogeneous storage under random tier splits, placements, and
    /// mid-run migration policies: every class-aware invariant holds —
    /// per-tier energy conservation against each disk's own parameter
    /// set, tier-aggregate consistency, and migration byte balance
    /// (physical migration traffic is exactly twice the logical bytes of
    /// the promote/demote events: one read, one write).
    #[test]
    fn random_tier_scenarios_satisfy_class_aware_invariants() {
        use dpm_disksim::{DiskClass, MigrationConfig, Tier, TierConfig};

        const TIER_CASES: u64 = 24;
        let apps = suite(Scale::Tiny);
        for case in 0..TIER_CASES {
            let mut rng = XorShift64Star::new(SEED.rotate_left(29) ^ case);
            let app = &apps[rng.range_i64(0, apps.len() as i64 - 1) as usize];
            let program = app.program();
            let su = 1024u64 << rng.range_i64(3, 5); // 8 KiB .. 32 KiB
            let fast_disks = rng.range_i64(1, 3) as usize;
            let cold_disks = rng.range_i64(2, 6) as usize;
            let striping = Striping::new(su, fast_disks + cold_disks, 0);
            let layout = LayoutMap::new(&program, striping);

            // Starve the fast tier to a random fraction of the volume so
            // both tiers are exercised; the cold tier keeps a random
            // slow-class's native capacity.
            let fraction = 0.15 + 0.45 * rng.next_f64();
            let want = (layout.volume_bytes() as f64 * fraction).ceil() as u64;
            let per_disk = (want / fast_disks as u64).div_ceil(su).max(1) * su;
            let fast = DiskClass {
                capacity_bytes: per_disk,
                ..DiskClass::performance()
            };
            let cold = if rng.range_i64(0, 1) == 0 {
                DiskClass::nearline()
            } else {
                DiskClass::archive()
            };
            let config = TierConfig::new(
                su,
                vec![
                    Tier {
                        class: fast,
                        disks: fast_disks,
                    },
                    Tier {
                        class: cold,
                        disks: cold_disks,
                    },
                ],
            );
            let topo = config.topology();
            let demands = array_demands(&program, &layout);
            let plan = if rng.range_i64(0, 1) == 0 {
                PlacementPlan::greedy(&topo, &demands).expect("greedy placement")
            } else {
                // Round-robin can overflow the starved fast tier; fall
                // back to the packer when it does.
                PlacementPlan::round_robin(&topo, &demands)
                    .or_else(|_| PlacementPlan::greedy(&topo, &demands))
                    .expect("fallback placement")
            };
            assert!(
                verify_placement(&program, &layout, &topo, &plan).is_empty(),
                "case {case}: builder emitted an illegal plan"
            );
            let vol = TieredVolume::new(&layout, topo, &plan);

            let deps = analyze(&program);
            let schedule = apply_transform(&program, &layout, &deps, Transform::DiskReuse);
            let gen = TraceGenerator::new(
                &program,
                &layout,
                TraceGenOptions {
                    max_request_bytes: su,
                    ..TraceGenOptions::default()
                },
            );
            let trace = gen.generate(&schedule).0;

            let migration = MigrationConfig {
                window_requests: rng.range_i64(32, 512) as u64,
                max_moves_per_window: rng.range_i64(1, 3) as u32,
                promote_margin: 1.0 + 2.0 * rng.next_f64(),
                seed: SEED ^ case,
            };
            let mut sim = Simulator::new(
                DiskClass::performance().params,
                random_policy(&mut rng),
                striping,
            )
            .with_tiers(config.clone(), vol);
            let migrate = rng.range_i64(0, 3) > 0; // most cases migrate
            if migrate {
                sim = sim.with_migration(migration);
            }
            let report = sim.run(&trace);

            let violations =
                invariants::check_report_tiered(&report, &config, &RaidConfig::single());
            assert!(
                violations.is_empty(),
                "case {case} (seed {SEED:#x}): class-aware invariants violated:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  - {v}\n"))
                    .collect::<String>()
            );
            let tiers = report.tiers.as_ref().expect("tier summary present");
            let event_bytes: u64 = tiers.events.iter().map(|e| e.bytes).sum();
            assert_eq!(
                report.total_migration_bytes(),
                2 * event_bytes,
                "case {case}: migration traffic out of balance"
            );
            if !migrate {
                assert!(
                    tiers.events.is_empty(),
                    "case {case}: migration fired without a policy"
                );
            }
        }
    }

    /// The same seeded scenario replays bit-identically — the property the
    /// failure messages above rely on.
    #[test]
    fn random_scenarios_replay_bit_identically() {
        for case in 0..8 {
            let build = || {
                let mut rng = XorShift64Star::new(SEED ^ (0x1000 + case));
                let striping = random_striping(&mut rng);
                let policy = random_policy(&mut rng);
                let trace = random_trace(&mut rng);
                let plan = random_plan(&mut rng, case);
                run(&trace, striping, policy, plan)
            };
            let a = build();
            let b = build();
            assert_eq!(
                a.makespan_ms.to_bits(),
                b.makespan_ms.to_bits(),
                "case {case}: replay diverged"
            );
            assert_eq!(a.per_disk, b.per_disk, "case {case}: replay diverged");
        }
    }
}

/// The original proptest-based suite (needs `--features proptests` and a
/// re-added `proptest` dev-dependency; see the crate-level comment).
#[cfg(feature = "proptests")]
mod proptests {
    use disk_reuse::prelude::*;
    use proptest::prelude::*;

    /// A random rectangular two-nest program over one or two arrays.
    fn arb_program() -> impl Strategy<Value = Program> {
        (
            2u64..12,
            2u64..12,
            prop::bool::ANY,
            0i64..3,
            prop::bool::ANY,
        )
            .prop_map(|(rows, cols, transposed, shift, two_arrays)| {
                let second = if two_arrays {
                    "array B[R][C] : f64;"
                } else {
                    ""
                };
                let reads = if transposed {
                    format!("A[j][i-{shift}]")
                } else {
                    format!("A[i-{shift}][j]")
                };
                let target = if two_arrays { "B" } else { "A" };
                // A square array when transposed reads are used.
                let (r, c) = if transposed {
                    let n = rows.max(cols);
                    (n, n)
                } else {
                    (rows, cols)
                };
                let src = format!(
                    "program rnd;
                     const R = {r}; const C = {c};
                     array A[R][C] : f64; {second}
                     nest L1 {{ for i = {shift} .. R-1 {{ for j = 0 .. C-1 {{
                         {target}[i][j] = f({reads});
                     }} }} }}
                     nest L2 {{ for i = 0 .. R-1 {{ for j = 0 .. C-1 {{
                         A[i][j] = g(A[i][j]);
                     }} }} }}"
                );
                parse_program(&src).expect("generated program parses")
            })
    }

    fn arb_striping() -> impl Strategy<Value = Striping> {
        (64u64..512, 2usize..8).prop_map(|(unit, disks)| Striping::new(unit, disks, 0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every transform covers each iteration exactly once.
        #[test]
        fn schedules_cover_exactly_once(p in arb_program(), s in arb_striping(), procs in 1u32..5) {
            let layout = LayoutMap::new(&p, s);
            let deps = analyze(&p);
            for t in [
                Transform::Original,
                Transform::DiskReuse,
                Transform::Parallel { procs, scheme: Assignment::Baseline, cluster: true },
                Transform::Parallel { procs, scheme: Assignment::LayoutAware, cluster: true },
            ] {
                let sched = apply_transform(&p, &layout, &deps, t);
                prop_assert!(sched.validate_coverage(&p).is_ok(), "{t:?}");
            }
        }

        /// The restructured single-processor schedule never violates an exact
        /// intra-nest dependence.
        #[test]
        fn restructuring_respects_dependences(p in arb_program(), s in arb_striping()) {
            let layout = LayoutMap::new(&p, s);
            let deps = analyze(&p);
            let sched = apply_transform(&p, &layout, &deps, Transform::DiskReuse);
            // Position of every iteration in the schedule.
            let mut pos = std::collections::HashMap::new();
            for (k, it) in sched.iters(0, 0).iter().enumerate() {
                pos.insert((it.nest, it.coords()), k);
            }
            for ni in 0..p.nests.len() {
                for d in deps.nest_exact_distances(ni) {
                    for it in sched.iters(0, 0).iter().filter(|it| it.nest as usize == ni) {
                        let pt = it.coords();
                        let pred: Vec<i64> = pt.iter().zip(&d).map(|(a, b)| a - b).collect();
                        if let Some(&pp) = pos.get(&(it.nest, pred)) {
                            prop_assert!(pp < pos[&(it.nest, pt)], "dependence violated");
                        }
                    }
                }
            }
        }

        /// Per-disk wall-clock conservation: busy + idle + standby + transition
        /// equals the makespan (up to spin-up stalls charged past the gap).
        #[test]
        fn simulator_time_conservation(p in arb_program(), s in arb_striping()) {
            let layout = LayoutMap::new(&p, s);
            let deps = analyze(&p);
            let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
            let (trace, _) = gen.generate(&apply_transform(&p, &layout, &deps, Transform::Original));
            prop_assume!(!trace.is_empty());
            let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, s);
            let r = sim.run(&trace);
            for d in &r.per_disk {
                let wall = d.busy_ms + d.idle_ms + d.standby_ms + d.transition_ms;
                prop_assert!((wall - r.makespan_ms).abs() < 1e-6,
                    "wall {wall} vs makespan {}", r.makespan_ms);
            }
        }

        /// Energy bounds: total energy lies between standby-power-forever and
        /// active-power-forever.
        #[test]
        fn simulator_energy_bounds(p in arb_program(), s in arb_striping(),
                                   policy_kind in 0usize..3) {
            let layout = LayoutMap::new(&p, s);
            let deps = analyze(&p);
            let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
            let (trace, _) = gen.generate(&apply_transform(&p, &layout, &deps, Transform::Original));
            prop_assume!(!trace.is_empty());
            let params = DiskParams::default();
            let policy = match policy_kind {
                0 => PowerPolicy::None,
                1 => PowerPolicy::Tpm(TpmConfig::default()),
                _ => PowerPolicy::Drpm(DrpmConfig::default()),
            };
            let sim = Simulator::new(params, policy, s);
            let r = sim.run(&trace);
            let secs = r.makespan_ms / 1000.0;
            let disks = s.num_disks() as f64;
            let lo = params.standby_power_w * secs * disks * 0.999;
            // Transitions can exceed active power briefly via the spin-up
            // energy lump; allow it.
            let hi = params.active_power_w * secs * disks
                + (params.spin_up_energy_j + params.spin_down_energy_j)
                  * r.total_spin_downs().max(1) as f64;
            prop_assert!(r.total_energy_j() >= lo, "energy {} < lo {lo}", r.total_energy_j());
            prop_assert!(r.total_energy_j() <= hi, "energy {} > hi {hi}", r.total_energy_j());
        }

        /// Splitting any request covers its byte range exactly, with every
        /// piece on the disk that striping assigns.
        #[test]
        fn split_range_partitions_bytes(s in arb_striping(), offset in 0u64..100_000, len in 1u64..50_000) {
            let pieces = s.split_range(offset, len);
            let total: u64 = pieces.iter().map(|&(_, _, l)| l).sum();
            prop_assert_eq!(total, len);
            for (d, local, plen) in pieces {
                prop_assert!(d < s.num_disks());
                prop_assert!(plen > 0);
                let _ = local;
            }
        }

        /// The trace serialization round-trips.
        #[test]
        fn trace_text_round_trip(p in arb_program(), s in arb_striping()) {
            let layout = LayoutMap::new(&p, s);
            let deps = analyze(&p);
            let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
            let (trace, _) = gen.generate(&apply_transform(&p, &layout, &deps, Transform::Original));
            let back = Trace::from_text(&trace.to_text()).unwrap();
            prop_assert_eq!(back.len(), trace.len());
            prop_assert_eq!(back.total_bytes(), trace.total_bytes());
        }
    }
}
