//! Schedules stored as runs of dense ranks, checked against a plain model:
//! a `Vec<(phase, proc, CompactIter)>` in push order. Every walk of the
//! run form (positions, per-lane lengths, the by-value iterator and the
//! borrowed `next_point` pull the trace generator uses) must yield exactly
//! the model's sequence, and pushing
//! one sequence point by point or as pre-split runs must give `==`
//! schedules.

use dpm_apps::Scale;
use dpm_core::{original_schedule, CompactIter, Schedule, SchedulePos};
use dpm_ir::Program;
use dpm_obs::XorShift64Star;

type Model = Vec<(usize, u32, CompactIter)>;

/// A seeded random schedule over `program`: segments of consecutive ranks
/// of a random nest, each to a random `(phase, proc)`, sometimes
/// continuing the previous segment so pushes must merge into one run.
/// Returns the schedule built from whole segments, the one built from
/// segments split at a random rank, and the model.
fn random_schedule(
    program: &Program,
    walked: &[Vec<Vec<i64>>],
    rng: &mut XorShift64Star,
) -> (Schedule, Schedule, Model) {
    let procs = rng.range_i64(1, 3) as u32;
    let phases = rng.range_i64(1, 3) as usize;
    let mut whole = Schedule::new(program, procs, phases);
    let mut split = Schedule::new(program, procs, phases);
    let mut model = Model::new();
    let mut prev: Option<(usize, u32, usize, usize)> = None;
    for _ in 0..rng.range_i64(0, 24) {
        let (phase, proc, nest, start) = match prev {
            Some((ph, pr, ni, end)) if rng.range_i64(0, 2) == 0 && end < walked[ni].len() => {
                (ph, pr, ni, end)
            }
            _ => {
                let ni = rng.range_i64(0, walked.len() as i64 - 1) as usize;
                if walked[ni].is_empty() {
                    continue;
                }
                let start = rng.range_i64(0, walked[ni].len() as i64 - 1) as usize;
                let phase = rng.range_i64(0, phases as i64 - 1) as usize;
                let proc = rng.range_i64(0, i64::from(procs) - 1) as u32;
                (phase, proc, ni, start)
            }
        };
        let len = rng
            .range_i64(1, 40)
            .min((walked[nest].len() - start) as i64) as usize;
        let end = start + len;
        whole.push_ranks(phase, proc, nest, start..end);
        let cut = rng.range_i64(start as i64, end as i64) as usize;
        split.push_ranks(phase, proc, nest, start..cut);
        split.push_ranks(phase, proc, nest, cut..end);
        for pt in &walked[nest][start..end] {
            model.push((phase, proc, CompactIter::new(nest, pt)));
        }
        prev = Some((phase, proc, nest, end));
    }
    (whole, split, model)
}

/// The model's `(phase, proc)` sequence.
fn lane(model: &Model, phase: usize, proc: u32) -> Vec<CompactIter> {
    model
        .iter()
        .filter(|&&(ph, pr, _)| ph == phase && pr == proc)
        .map(|&(_, _, it)| it)
        .collect()
}

fn check_against_model(s: &Schedule, model: &Model) {
    assert_eq!(s.total_iterations(), model.len() as u64);
    let mut expected = Vec::new();
    for phase in 0..s.num_phases() {
        for proc in 0..s.num_procs() {
            let want = lane(model, phase, proc);
            assert_eq!(s.len(phase, proc), want.len());
            // Stored runs cover the lane and are canonical: no run could
            // have absorbed its successor.
            let runs: Vec<_> = s.runs(phase, proc).collect();
            assert_eq!(runs.iter().map(|(_, r)| r.len()).sum::<usize>(), want.len());
            for w in runs.windows(2) {
                assert!(
                    w[0].0 != w[1].0 || w[0].1.end != w[1].1.start,
                    "unmerged runs {w:?}"
                );
            }
            assert_eq!(s.iter(phase, proc).collect::<Vec<_>>(), want);
            let pairs: Vec<(usize, Vec<i64>)> = want
                .iter()
                .map(|it| (it.nest as usize, it.coords()))
                .collect();
            let mut walk = s.iter(phase, proc);
            let mut pulled = Vec::new();
            while let Some((ni, pt)) = walk.next_point() {
                pulled.push((ni, pt.to_vec()));
            }
            assert_eq!(pulled, pairs, "next_point ({phase}, {proc})");
            assert!(
                walk.next_point().is_none(),
                "an exhausted walk stays exhausted"
            );
            expected.extend(
                (0u32..)
                    .zip(want)
                    .map(|(idx, it)| (SchedulePos::new(phase as u32, proc, idx), it)),
            );
        }
    }
    let mut visited = Vec::new();
    s.for_each_scheduled(|pos, ni, pt| visited.push((pos, CompactIter::new(ni, pt))));
    assert_eq!(visited, expected);
}

#[test]
fn random_run_schedules_walk_like_the_plain_model() {
    let mut rng = XorShift64Star::new(0x5eed_2026);
    let mut schedules = 0;
    for app in dpm_apps::suite(Scale::Tiny) {
        let program = app.program();
        let walked: Vec<Vec<Vec<i64>>> = program
            .nests
            .iter()
            .map(|n| {
                let mut pts = Vec::new();
                n.walk(|pt| pts.push(pt.to_vec()));
                pts
            })
            .collect();
        for _ in 0..40 {
            let (whole, split, model) = random_schedule(&program, &walked, &mut rng);
            check_against_model(&whole, &model);
            assert_eq!(whole, split, "{}: pre-split runs differ", app.name);
            let mut by_point = Schedule::new(&program, whole.num_procs(), whole.num_phases());
            for &(phase, proc, it) in &model {
                by_point.push(phase, proc, it);
            }
            assert_eq!(whole, by_point, "{}: point pushes differ", app.name);
            schedules += 1;
        }
    }
    assert_eq!(schedules, 40 * dpm_apps::suite(Scale::Tiny).len());
}

/// Equality is sequence equality: the same points in another order, or
/// the same sequence on another processor, are different schedules.
#[test]
fn schedules_differ_exactly_when_sequences_do() {
    let p = dpm_ir::parse_program(
        "program t; array A[8][8] : f64;
         nest L { for i = 0 .. 7 { for j = 0 .. 7 { A[i][j] = 1; } } }",
    )
    .unwrap();
    let its = |order: &[usize]| {
        let all: Vec<CompactIter> = (0..64)
            .map(|r| CompactIter::new(0, &[r as i64 / 8, r as i64 % 8]))
            .collect();
        order.iter().map(|&r| all[r]).collect::<Vec<_>>()
    };
    let forward: Vec<usize> = (0..64).collect();
    let mut swapped = forward.clone();
    swapped.swap(10, 11);
    assert_eq!(Schedule::single(&p, its(&forward)), original_schedule(&p));
    assert_ne!(Schedule::single(&p, its(&swapped)), original_schedule(&p));
    // 0..10, 11, 10, 12..64.
    assert_eq!(Schedule::single(&p, its(&swapped)).num_runs(), 4);
    let mut on_proc_1 = Schedule::new(&p, 2, 1);
    let mut on_proc_0 = Schedule::new(&p, 2, 1);
    on_proc_1.push_ranks(0, 1, 0, 0..64);
    on_proc_0.push_ranks(0, 0, 0, 0..64);
    assert_ne!(on_proc_0, on_proc_1);
}

/// A run that starts anywhere and crosses rows (empty ones included:
/// leading, trailing and inside a non-empty parent) walks like
/// `LoopNest::walk`.
#[test]
fn runs_walk_across_empty_rows() {
    let p = dpm_ir::parse_program(
        "program t; array A[64][64][64] : f64;
         nest T { for i = 0 .. 6 { for j = 2*i-3 .. 5-i { A[i][j+9][0] = 1; } } }
         nest U { for i = 0 .. 6 { for j = 2 .. i { for k = j .. 4 { A[i][j][k] = 1; } } } }
         nest R { for i = -2 .. 1 { for j = 0 .. 2 { A[i+2][j][0] = 1; } } }",
    )
    .unwrap();
    for (ni, nest) in p.nests.iter().enumerate() {
        let mut walked = Vec::new();
        nest.walk(|pt| walked.push(CompactIter::new(ni, pt)));
        for start in 0..walked.len() {
            for end in start + 1..=walked.len() {
                let mut s = Schedule::new(&p, 1, 1);
                s.push_ranks(0, 0, ni, start..end);
                assert_eq!(
                    s.iter(0, 0).collect::<Vec<_>>(),
                    walked[start..end],
                    "nest {ni} ranks {start}..{end}"
                );
            }
        }
    }
}

/// An empty nest contributes no run and its walk yields nothing.
#[test]
fn empty_nests_yield_nothing() {
    let p = dpm_ir::parse_program(
        "program t; array A[8][8] : f64;
         nest E { for i = 0 .. 7 { for j = 5 .. 2 { A[i][j] = 1; } } }
         nest L { for i = 0 .. 1 { A[i][0] = 1; } }",
    )
    .unwrap();
    let s = original_schedule(&p);
    assert_eq!(s.num_runs(), 1);
    assert_eq!(s.len(0, 0), 2);
    let nests: Vec<u16> = s.iter(0, 0).map(|it| it.nest).collect();
    assert_eq!(nests, vec![1, 1]);
    let mut empty = Schedule::new(&p, 1, 1);
    empty.push_ranks(0, 0, 0, 0..0);
    assert_eq!(empty.iter(0, 0).count(), 0);
    assert_eq!(empty.num_runs(), 0);
}

/// The untransformed order at the paper's own scale is one run per nest:
/// a few hundred bytes of runs plus the nests' indices, where a list of
/// 20-byte iterations took 40–80 MiB.
#[test]
fn paper_scale_original_schedules_are_one_run_per_nest() {
    for app in dpm_apps::suite(Scale::Paper) {
        let program = app.program();
        let s = original_schedule(&program);
        let trips: Vec<usize> = program
            .nests
            .iter()
            .map(|n| n.trip_count() as usize)
            .collect();
        let one_per_nest: Vec<_> = trips
            .iter()
            .enumerate()
            .map(|(ni, &n)| (ni, 0..n))
            .collect();
        assert_eq!(
            s.runs(0, 0).collect::<Vec<_>>(),
            one_per_nest,
            "{}",
            app.name
        );
        assert_eq!(s.num_runs(), program.nests.len(), "{}", app.name);
        assert!(
            s.heap_bytes() < 100_000,
            "{}: {} B stored",
            app.name,
            s.heap_bytes()
        );
        assert_eq!(
            s.total_iterations(),
            trips.iter().sum::<usize>() as u64,
            "{}",
            app.name
        );
    }
}
