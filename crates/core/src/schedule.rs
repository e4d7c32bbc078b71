//! Schedules: the output of the restructuring/parallelization passes — an
//! explicit iteration order per processor, organized in barrier-separated
//! phases — plus the disk-reuse metrics used to evaluate clustering.

use dpm_ir::{NestId, Program};
use dpm_layout::LayoutMap;
use dpm_trace::compile::CompiledProgram;
use dpm_trace::ExecutionOrder;

/// A compact scheduled iteration: nest id plus up to
/// [`MAX_DEPTH`](CompactIter::MAX_DEPTH) loop indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompactIter {
    /// The nest the iteration belongs to.
    pub nest: u16,
    depth: u8,
    coords: [i32; CompactIter::MAX_DEPTH],
}

impl CompactIter {
    /// Maximum nest depth a schedule can carry.
    pub const MAX_DEPTH: usize = 4;

    /// Packs an iteration point.
    ///
    /// # Panics
    ///
    /// Panics if the nest is deeper than [`Self::MAX_DEPTH`] or a coordinate
    /// overflows `i32`.
    pub fn new(nest: NestId, iter: &[i64]) -> Self {
        assert!(
            iter.len() <= Self::MAX_DEPTH,
            "nest depth {} exceeds the schedule limit {}",
            iter.len(),
            Self::MAX_DEPTH
        );
        let mut coords = [0i32; Self::MAX_DEPTH];
        for (c, &v) in coords.iter_mut().zip(iter) {
            *c = i32::try_from(v).expect("iteration coordinate overflows i32");
        }
        CompactIter {
            nest: u16::try_from(nest).expect("too many nests"),
            depth: iter.len() as u8,
            coords,
        }
    }

    /// The iteration point as owned coordinates.
    pub fn coords(&self) -> Vec<i64> {
        self.coords[..self.depth as usize]
            .iter()
            .map(|&c| i64::from(c))
            .collect()
    }

    /// Writes the coordinates into a scratch buffer and returns the slice.
    pub fn coords_into<'a>(&self, buf: &'a mut [i64]) -> &'a [i64] {
        let d = self.depth as usize;
        for (b, &c) in buf[..d].iter_mut().zip(&self.coords) {
            *b = i64::from(c);
        }
        &buf[..d]
    }
}

/// An explicit execution schedule: `phases × processors → iteration list`.
///
/// Implements [`ExecutionOrder`], so it can be fed straight into the trace
/// generator.
#[derive(Clone, Debug)]
pub struct Schedule {
    num_procs: u32,
    /// `phases[ph][proc]` is processor `proc`'s iteration list in phase
    /// `ph`.
    phases: Vec<Vec<Vec<CompactIter>>>,
}

impl Schedule {
    /// Creates an empty schedule with the given shape.
    pub fn new(num_procs: u32, num_phases: usize) -> Self {
        assert!(num_procs > 0, "need at least one processor");
        Schedule {
            num_procs,
            phases: vec![vec![Vec::new(); num_procs as usize]; num_phases.max(1)],
        }
    }

    /// A single-phase, single-processor schedule from one iteration list.
    pub fn single(iters: Vec<CompactIter>) -> Self {
        Schedule {
            num_procs: 1,
            phases: vec![vec![iters]],
        }
    }

    /// Appends an iteration to `(phase, proc)`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `proc` is out of range.
    pub fn push(&mut self, phase: usize, proc: u32, it: CompactIter) {
        self.phases[phase][proc as usize].push(it);
    }

    /// The iteration list of `(phase, proc)`.
    pub fn iters(&self, phase: usize, proc: u32) -> &[CompactIter] {
        &self.phases[phase][proc as usize]
    }

    /// Number of barrier-separated phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Number of processors.
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Visits every scheduled iteration as `(phase, proc, index, iter)`,
    /// in phase order, then processor order, then within-processor issue
    /// order. This triple is exactly a schedule *position*: the legality
    /// verifier's "a precedes b" predicate is defined over it.
    pub fn for_each_scheduled<F: FnMut(usize, u32, usize, CompactIter)>(&self, mut f: F) {
        for (phase, procs) in self.phases.iter().enumerate() {
            for (proc, iters) in procs.iter().enumerate() {
                for (idx, it) in iters.iter().enumerate() {
                    f(phase, proc as u32, idx, *it);
                }
            }
        }
    }

    /// Total scheduled iterations over all phases and processors.
    pub fn total_iterations(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|ph| ph.iter())
            .map(|v| v.len() as u64)
            .sum()
    }

    /// Verifies the schedule covers each iteration of `program` exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn validate_coverage(&self, program: &Program) -> Result<(), String> {
        use std::collections::HashMap;
        let mut seen: HashMap<CompactIter, u32> = HashMap::new();
        for ph in &self.phases {
            for proc in ph {
                for it in proc {
                    *seen.entry(*it).or_insert(0) += 1;
                }
            }
        }
        let mut expected = 0u64;
        for (ni, nest) in program.nests.iter().enumerate() {
            let mut err = None;
            dpm_trace::walk_nest(nest, &mut |pt| {
                if err.is_some() {
                    return;
                }
                expected += 1;
                let key = CompactIter::new(ni, pt);
                match seen.get(&key) {
                    Some(1) => {}
                    Some(n) => err = Some(format!("iteration {key:?} scheduled {n} times")),
                    None => err = Some(format!("iteration {key:?} not scheduled")),
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        let total = self.total_iterations();
        if total != expected {
            return Err(format!(
                "schedule has {total} iterations, program has {expected}"
            ));
        }
        Ok(())
    }
}

impl ExecutionOrder for Schedule {
    fn num_procs(&self) -> u32 {
        self.num_procs
    }

    fn num_phases(&self) -> usize {
        self.phases.len()
    }

    fn for_each_in_phase(&self, phase: usize, proc: u32, f: &mut dyn FnMut(NestId, &[i64])) {
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        for it in &self.phases[phase][proc as usize] {
            let coords = it.coords_into(&mut buf);
            f(it.nest as NestId, coords);
        }
    }
}

/// Index cursor over one `(phase, proc)` iteration list.
struct ScheduleCursor<'a> {
    iters: &'a [CompactIter],
    idx: usize,
}

impl dpm_trace::IterCursor for ScheduleCursor<'_> {
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
        let it = self.iters.get(self.idx)?;
        self.idx += 1;
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        point.clear();
        point.extend_from_slice(it.coords_into(&mut buf));
        Some(it.nest as NestId)
    }
}

impl dpm_trace::StreamOrder for Schedule {
    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn dpm_trace::IterCursor + '_> {
        Box::new(ScheduleCursor {
            iters: self.iters(phase, proc),
            idx: 0,
        })
    }
}

/// The set of disks an iteration touches, as a bitmask (bit `d` set ⇔ the
/// iteration accesses a byte on disk `d`), evaluated through the IR.
/// Supports up to 64 disks. The passes compute the same mask from a
/// [`CompiledProgram`](dpm_trace::compile::CompiledProgram); this form is
/// the reference the compiled one is tested against.
pub fn iteration_disk_mask(
    program: &Program,
    layout: &LayoutMap,
    nest: NestId,
    iter: &[i64],
) -> u64 {
    let mut mask = 0u64;
    for stmt in &program.nests[nest].body {
        for r in &stmt.refs {
            mask |= layout.disk_mask_of_element(program, r.array, &r.element_at(iter));
        }
    }
    mask
}

/// Disk-reuse quality of a schedule: the mean run length of consecutive
/// iterations (per processor, per phase) whose disk sets share the previous
/// iteration's *primary* disk. Longer runs = better clustering = longer
/// idle periods on the other disks.
pub fn mean_disk_run_length(program: &Program, layout: &LayoutMap, schedule: &Schedule) -> f64 {
    let compiled = CompiledProgram::new(program);
    let mut runs = 0u64;
    let mut total = 0u64;
    let mut buf = [0i64; CompactIter::MAX_DEPTH];
    for phase in 0..schedule.num_phases() {
        for proc in 0..schedule.num_procs {
            let mut last_primary: Option<u32> = None;
            for it in schedule.iters(phase, proc) {
                let coords = it.coords_into(&mut buf);
                let mask = compiled.disk_mask(program, layout, it.nest as NestId, coords);
                if mask == 0 {
                    continue;
                }
                let primary = mask.trailing_zeros();
                total += 1;
                let continues = match last_primary {
                    Some(p) => mask & (1 << p) != 0,
                    None => false,
                };
                if !continues {
                    runs += 1;
                    last_primary = Some(primary);
                }
            }
        }
    }
    if runs == 0 {
        0.0
    } else {
        total as f64 / runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_layout::Striping;

    fn prog() -> Program {
        dpm_ir::parse_program(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
        )
        .unwrap()
    }

    #[test]
    fn compact_iter_round_trip() {
        let it = CompactIter::new(3, &[1, -2, 7]);
        assert_eq!(it.coords(), vec![1, -2, 7]);
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        assert_eq!(it.coords_into(&mut buf), &[1, -2, 7]);
    }

    #[test]
    #[should_panic]
    fn compact_iter_rejects_deep_nests() {
        let _ = CompactIter::new(0, &[0; 5]);
    }

    #[test]
    fn schedule_covers_original_order() {
        let p = prog();
        let mut iters = Vec::new();
        dpm_trace::walk_nest(&p.nests[0], &mut |pt| iters.push(CompactIter::new(0, pt)));
        let s = Schedule::single(iters);
        assert!(s.validate_coverage(&p).is_ok());
        assert_eq!(s.total_iterations(), 64 * 8);
    }

    #[test]
    fn validate_detects_missing_and_duplicate() {
        let p = prog();
        let mut iters = Vec::new();
        dpm_trace::walk_nest(&p.nests[0], &mut |pt| iters.push(CompactIter::new(0, pt)));
        let mut missing = iters.clone();
        missing.pop();
        assert!(Schedule::single(missing).validate_coverage(&p).is_err());
        let mut dup = iters;
        dup.push(*dup.last().unwrap());
        assert!(Schedule::single(dup).validate_coverage(&p).is_err());
    }

    /// A multi-processor, multi-phase schedule streamed through
    /// `TraceGenerator::stream` yields the batch path's trace and stats
    /// bit for bit — the hardest merge case (cross-processor arrival ties
    /// at every barrier).
    #[test]
    fn streamed_schedule_matches_batch_generation() {
        let p = prog();
        let mut s = Schedule::new(2, 2);
        dpm_trace::walk_nest(&p.nests[0], &mut |pt| {
            let phase = usize::from(pt[0] >= 32);
            let proc = (pt[0] % 2) as u32;
            s.push(phase, proc, CompactIter::new(0, pt));
        });
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let generator =
            dpm_trace::TraceGenerator::new(&p, &layout, dpm_trace::TraceGenOptions::default());
        let (trace, stats) = generator.generate(&s);
        let mut stream = generator.stream(&s);
        let mut streamed = Vec::new();
        while let Some(r) = dpm_trace::RequestStream::next_request(&mut stream) {
            streamed.push(r);
        }
        assert_eq!(streamed, trace.requests());
        assert_eq!(stream.stats(), stats);
    }

    #[test]
    fn disk_mask_and_run_length() {
        let p = prog();
        // Stripe = 512 B = 64 elements = 8 rows of 8: rows 0..7 on disk 0,
        // 8..15 on disk 1, …
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        assert_eq!(iteration_disk_mask(&p, &layout, 0, &[0, 0]), 1 << 0);
        assert_eq!(iteration_disk_mask(&p, &layout, 0, &[8, 0]), 1 << 1);
        let mut iters = Vec::new();
        dpm_trace::walk_nest(&p.nests[0], &mut |pt| iters.push(CompactIter::new(0, pt)));
        let s = Schedule::single(iters);
        // Sequential sweep: 16 runs of 64 iterations… actually 64 rows / 8
        // rows-per-disk = 8 disk changes over 512 iterations.
        let r = mean_disk_run_length(&p, &layout, &s);
        assert!((r - 64.0).abs() < 1e-9, "run length {r}");
    }

    #[test]
    fn execution_order_streams_in_schedule_order() {
        let its = vec![CompactIter::new(0, &[5, 0]), CompactIter::new(0, &[1, 1])];
        let s = Schedule::single(its);
        let mut seen = Vec::new();
        s.for_each_in_phase(0, 0, &mut |n, pt| seen.push((n, pt.to_vec())));
        assert_eq!(seen, vec![(0, vec![5, 0]), (0, vec![1, 1])]);
    }
}
