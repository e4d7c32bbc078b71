//! Schedules: the output of the restructuring/parallelization passes — an
//! explicit iteration order per processor, organized in barrier-separated
//! phases, stored as runs of dense ranks — plus the disk-reuse metrics used
//! to evaluate clustering.

use crate::directives::SchedulePos;
use crate::domain::DomainIndex;
use dpm_ir::{NestId, Program};
use dpm_layout::LayoutMap;
use dpm_trace::compile::CompiledProgram;
use dpm_trace::ExecutionOrder;
use std::ops::Range;

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
    #[inline]
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
    #[inline]
    pub fn coords_into<'a>(&self, buf: &'a mut [i64]) -> &'a [i64] {
        let d = self.depth as usize;
        for (b, &c) in buf[..d].iter_mut().zip(&self.coords) {
            *b = i64::from(c);
        }
        &buf[..d]
    }
}

/// A run of consecutive ranks of one nest: ranks `first .. first + len`
/// in the nest's [`DomainIndex`], issued in that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    nest: u32,
    first: u32,
    len: u32,
}

/// One processor's iterations in one phase, as canonical runs: a push
/// extends the last run when its first rank follows that run in the same
/// nest, so two lanes are equal exactly when they issue the same sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Lane {
    runs: Vec<Run>,
    len: u32,
}

impl Lane {
    /// Appends ranks `ranks` of nest `nest`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if a rank, the lane length or the nest id overflows `u32`.
    #[inline]
    pub(crate) fn push(&mut self, nest: NestId, ranks: Range<usize>) {
        if ranks.is_empty() {
            return;
        }
        let first = u32::try_from(ranks.start).expect("iteration rank overflows u32");
        let len = u32::try_from(ranks.end)
            .map(|end| end - first)
            .expect("iteration rank overflows u32");
        let nest = u32::try_from(nest).expect("too many nests");
        self.len = self
            .len
            .checked_add(len)
            .expect("more than u32::MAX iterations in one phase on one processor");
        if let Some(last) = self.runs.last_mut() {
            if last.nest == nest && last.first + last.len == first {
                last.len += len;
                return;
            }
        }
        self.runs.push(Run { nest, first, len });
    }

    /// Number of iterations in the lane.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The lane's iterations in issue order, over `domains`.
    pub(crate) fn walk<'a>(&'a self, domains: &'a [DomainIndex]) -> ScheduleIter<'a> {
        ScheduleIter {
            domains,
            runs: self.runs.iter(),
            nest: 0,
            rank: 0,
            left: 0,
            depth: 0,
            row_end: 0,
            point: [0; CompactIter::MAX_DEPTH],
        }
    }
}

/// An explicit execution schedule: `phases × processors → iteration
/// sequence`.
///
/// Each `(phase, proc)` sequence is stored as runs `(nest, first_rank,
/// len)` of consecutive dense ranks ([`DomainIndex`]) of the program's
/// nests, whose indices the schedule owns: 12 bytes per run instead of 20
/// per iteration. The untransformed order is one run per nest; every walk
/// unranks a run's first point and steps in walk order, so it yields the
/// exact sequence that was pushed. Runs are canonical (a push extends the
/// last run when it can), so `==` holds exactly when two schedules over
/// the same domains issue the same sequence.
///
/// Implements [`ExecutionOrder`] and [`StreamOrder`](dpm_trace::StreamOrder),
/// so it can be fed straight into the trace generator.
///
/// # Examples
///
/// ```
/// use dpm_core::{CompactIter, Schedule};
/// let p = dpm_ir::parse_program(
///     "program t; array A[4][4] : f64;
///      nest L { for i = 0 .. 3 { for j = 0 .. 3 { A[i][j] = 1; } } }",
/// ).unwrap();
/// let mut by_point = Schedule::new(&p, 1, 1);
/// for i in 0..4 {
///     for j in 0..4 {
///         by_point.push(0, 0, CompactIter::new(0, &[i, j]));
///     }
/// }
/// assert_eq!(by_point, dpm_core::original_schedule(&p));
/// assert_eq!(by_point.num_runs(), 1);
/// assert_eq!(by_point.iter(0, 0).nth(5).unwrap().coords(), vec![1, 1]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    num_procs: u32,
    /// One dense rank per nest of the program the schedule was built for.
    domains: Vec<DomainIndex>,
    /// `phases[ph][proc]` is processor `proc`'s sequence in phase `ph`.
    phases: Vec<Vec<Lane>>,
}

impl Schedule {
    /// Creates an empty schedule with the given shape over `program`'s
    /// iteration domains.
    ///
    /// # Panics
    ///
    /// Panics if `num_procs` is 0 or a nest is deeper than
    /// [`CompactIter::MAX_DEPTH`].
    pub fn new(program: &Program, num_procs: u32, num_phases: usize) -> Self {
        let domains = program.nests.iter().map(DomainIndex::new).collect();
        Self::from_domains(domains, num_procs, num_phases)
    }

    /// [`new`](Self::new) over already-built domain indices.
    pub(crate) fn from_domains(
        domains: Vec<DomainIndex>,
        num_procs: u32,
        num_phases: usize,
    ) -> Self {
        assert!(num_procs > 0, "need at least one processor");
        assert!(
            u32::try_from(num_phases).is_ok(),
            "more than u32::MAX phases"
        );
        for d in &domains {
            assert!(
                d.depth() <= CompactIter::MAX_DEPTH,
                "nest depth {} exceeds the schedule limit {}",
                d.depth(),
                CompactIter::MAX_DEPTH
            );
        }
        Schedule {
            num_procs,
            domains,
            phases: vec![vec![Lane::default(); num_procs as usize]; num_phases.max(1)],
        }
    }

    /// A single-phase, single-processor schedule over `program` issuing
    /// `iters` in order.
    ///
    /// # Panics
    ///
    /// As [`push`](Self::push).
    pub fn single(program: &Program, iters: impl IntoIterator<Item = CompactIter>) -> Self {
        let mut s = Schedule::new(program, 1, 1);
        for it in iters {
            s.push(0, 0, it);
        }
        s
    }

    /// Appends an iteration to `(phase, proc)`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `proc` is out of range, or the iteration lies
    /// outside the schedule's domains.
    pub fn push(&mut self, phase: usize, proc: u32, it: CompactIter) {
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        let nest = it.nest as NestId;
        let rank = self
            .domains
            .get(nest)
            .and_then(|d| d.rank(it.coords_into(&mut buf)))
            .unwrap_or_else(|| panic!("{it:?} lies outside the schedule's domains"));
        self.phases[phase][proc as usize].push(nest, rank..rank + 1);
    }

    /// Appends the iterations of ranks `ranks` of nest `nest` (positions
    /// in its `walk_nest` order) to `(phase, proc)`.
    ///
    /// # Panics
    ///
    /// Panics if `phase`, `proc`, `nest` or a rank is out of range.
    pub fn push_ranks(&mut self, phase: usize, proc: u32, nest: NestId, ranks: Range<usize>) {
        assert!(
            ranks.is_empty() || ranks.end <= self.domains[nest].len(),
            "ranks {ranks:?} outside nest {nest}'s {} points",
            self.domains[nest].len()
        );
        self.phases[phase][proc as usize].push(nest, ranks);
    }

    /// The domain indices the schedule's ranks refer to, one per nest.
    pub(crate) fn domains(&self) -> &[DomainIndex] {
        &self.domains
    }

    /// Drops the runs' growth slack (8–41% of a clustered schedule at
    /// Large), for a pass handing back a schedule it has finished.
    pub(crate) fn shrink_to_fit(&mut self) {
        for lane in self.phases.iter_mut().flatten() {
            lane.runs.shrink_to_fit();
        }
    }

    /// The sequence of `(phase, proc)`, for a pass to fill in.
    pub(crate) fn lane_mut(&mut self, phase: usize, proc: u32) -> &mut Lane {
        &mut self.phases[phase][proc as usize]
    }

    /// Number of iterations of `(phase, proc)`.
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `proc` is out of range.
    pub fn len(&self, phase: usize, proc: u32) -> usize {
        self.phases[phase][proc as usize].len()
    }

    /// The iterations of `(phase, proc)` in issue order, by value.
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `proc` is out of range.
    pub fn iter(&self, phase: usize, proc: u32) -> ScheduleIter<'_> {
        self.phases[phase][proc as usize].walk(&self.domains)
    }

    /// The stored runs of `(phase, proc)` in issue order: each is a nest
    /// and a range of its ranks, issued in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `proc` is out of range.
    pub fn runs(
        &self,
        phase: usize,
        proc: u32,
    ) -> impl Iterator<Item = (NestId, Range<usize>)> + '_ {
        self.phases[phase][proc as usize].runs.iter().map(|r| {
            (
                r.nest as NestId,
                r.first as usize..(r.first + r.len) as usize,
            )
        })
    }

    /// Number of barrier-separated phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Number of processors.
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Number of stored runs over all phases and processors.
    pub fn num_runs(&self) -> usize {
        self.phases.iter().flatten().map(|l| l.runs.len()).sum()
    }

    /// Heap bytes the schedule holds: its runs, lane tables and domain
    /// indices.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.domains.capacity() * size_of::<DomainIndex>()
            + self
                .domains
                .iter()
                .map(DomainIndex::heap_bytes)
                .sum::<usize>()
            + self.phases.capacity() * size_of::<Vec<Lane>>()
            + self
                .phases
                .iter()
                .map(|ph| {
                    ph.capacity() * size_of::<Lane>()
                        + ph.iter()
                            .map(|l| l.runs.capacity() * size_of::<Run>())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Visits every scheduled iteration as `(position, nest, point)`, in
    /// phase order, then processor order, then within-processor issue
    /// order. The [`SchedulePos`] is exactly what the legality verifier's
    /// "a precedes b" predicate and the directives are defined over.
    pub fn for_each_scheduled<F: FnMut(SchedulePos, NestId, &[i64])>(&self, mut f: F) {
        for (phase, lanes) in (0u32..).zip(&self.phases) {
            for (proc, lane) in (0u32..).zip(lanes) {
                let mut walk = lane.walk(&self.domains);
                let mut idx = 0u32;
                while let Some((nest, _)) = walk.advance() {
                    f(SchedulePos::new(phase, proc, idx), nest, walk.coords());
                    idx += 1;
                }
            }
        }
    }

    /// Total scheduled iterations over all phases and processors.
    pub fn total_iterations(&self) -> u64 {
        self.phases.iter().flatten().map(|l| u64::from(l.len)).sum()
    }

    /// Verifies the schedule covers each iteration of `program` exactly
    /// once. Each scheduled point is counted at its rank in `program`'s
    /// own domains, so a schedule built over other domains is checked
    /// against `program`, not against itself.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch: a point scheduled
    /// twice or never, in program walk order, then a total that differs
    /// from the program's (which is how a point outside `program`'s
    /// domains shows).
    pub fn validate_coverage(&self, program: &Program) -> Result<(), String> {
        let indices: Vec<DomainIndex> = program.nests.iter().map(DomainIndex::new).collect();
        let mut counts: Vec<Vec<u32>> = indices.iter().map(|ix| vec![0; ix.len()]).collect();
        self.for_each_scheduled(|_, ni, pt| {
            if let Some(rank) = indices.get(ni).and_then(|ix| ix.rank(pt)) {
                counts[ni][rank] += 1;
            }
        });
        let mut expected = 0u64;
        for (ni, nest) in program.nests.iter().enumerate() {
            let mut err = None;
            let mut rank = 0;
            dpm_trace::walk_nest(nest, &mut |pt| {
                let n = counts[ni][rank];
                rank += 1;
                if err.is_some() {
                    return;
                }
                expected += 1;
                let key = CompactIter::new(ni, pt);
                match n {
                    1 => {}
                    0 => err = Some(format!("iteration {key:?} not scheduled")),
                    n => err = Some(format!("iteration {key:?} scheduled {n} times")),
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

/// A walk over one `(phase, proc)` sequence: each run's first point is
/// unranked, and the rest are reached by incrementing the innermost
/// coordinate up to its row's end, then [`DomainIndex::step`] into the
/// next row. Yields [`CompactIter`]s by value ([`Schedule::iter`]) and
/// also serves as the trace generator's cursor.
#[derive(Clone, Debug)]
pub struct ScheduleIter<'a> {
    domains: &'a [DomainIndex],
    runs: std::slice::Iter<'a, Run>,
    nest: usize,
    rank: usize,
    /// Points of the current run after the current one.
    left: u32,
    depth: usize,
    /// The largest innermost coordinate of the current point's row.
    row_end: i64,
    point: [i64; CompactIter::MAX_DEPTH],
}

impl ScheduleIter<'_> {
    /// Moves to the next iteration and returns its nest and rank; its
    /// coordinates are then [`coords`](Self::coords).
    #[inline]
    pub(crate) fn advance(&mut self) -> Option<(NestId, usize)> {
        if self.left == 0 {
            return self.next_run();
        }
        self.left -= 1;
        self.rank += 1;
        // A run of two or more points lies in a nest at least one deep.
        let x = &mut self.point[self.depth - 1];
        if *x < self.row_end {
            *x += 1;
        } else {
            self.next_row();
        }
        Some((self.nest, self.rank))
    }

    /// Starts the next run at its unranked first point.
    #[inline(never)]
    fn next_run(&mut self) -> Option<(NestId, usize)> {
        let run = self.runs.next()?;
        self.nest = run.nest as usize;
        self.rank = run.first as usize;
        self.left = run.len - 1;
        let domain = &self.domains[self.nest];
        self.depth = domain.depth();
        let point = &mut self.point[..self.depth];
        domain.point(self.rank, point);
        if !point.is_empty() {
            self.row_end = domain.row_end(point);
        }
        Some((self.nest, self.rank))
    }

    /// Steps from the end of a row to the first point of the next one.
    #[inline(never)]
    fn next_row(&mut self) {
        let domain = &self.domains[self.nest];
        let point = &mut self.point[..self.depth];
        let stepped = domain.step(point);
        debug_assert!(stepped, "run ran past its nest's last point");
        self.row_end = domain.row_end(point);
    }

    /// The coordinates of the iteration [`advance`](Self::advance) moved
    /// to.
    #[inline]
    pub(crate) fn coords(&self) -> &[i64] {
        &self.point[..self.depth]
    }
}

impl Iterator for ScheduleIter<'_> {
    type Item = CompactIter;

    #[inline]
    fn next(&mut self) -> Option<CompactIter> {
        let (nest, _) = self.advance()?;
        Some(CompactIter::new(nest, self.coords()))
    }
}

impl dpm_trace::IterCursor for ScheduleIter<'_> {
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
        let (nest, _) = self.advance()?;
        point.clear();
        point.extend_from_slice(self.coords());
        Some(nest)
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
        let mut walk = self.iter(phase, proc);
        while let Some((nest, _)) = walk.advance() {
            f(nest, walk.coords());
        }
    }
}

impl dpm_trace::StreamOrder for Schedule {
    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn dpm_trace::IterCursor + '_> {
        Box::new(self.iter(phase, proc))
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
    for phase in 0..schedule.num_phases() {
        for proc in 0..schedule.num_procs {
            let mut last_primary: Option<u32> = None;
            let mut walk = schedule.iter(phase, proc);
            while let Some((nest, _)) = walk.advance() {
                let mask = compiled.disk_mask(program, layout, nest, walk.coords());
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
        let s = Schedule::single(&p, iters);
        assert!(s.validate_coverage(&p).is_ok());
        assert_eq!(s.total_iterations(), 64 * 8);
        assert_eq!(s.num_runs(), 1, "a walk-order push is one run");
    }

    #[test]
    fn validate_detects_missing_and_duplicate() {
        let p = prog();
        let mut iters = Vec::new();
        dpm_trace::walk_nest(&p.nests[0], &mut |pt| iters.push(CompactIter::new(0, pt)));
        let mut missing = iters.clone();
        let last = missing.pop().unwrap();
        assert_eq!(
            Schedule::single(&p, missing).validate_coverage(&p),
            Err(format!("iteration {last:?} not scheduled"))
        );
        let mut dup = iters;
        dup.push(*dup.last().unwrap());
        assert_eq!(
            Schedule::single(&p, dup).validate_coverage(&p),
            Err(format!("iteration {last:?} scheduled 2 times"))
        );
    }

    /// A point outside the checked program's domains (the schedule was
    /// built over a wider nest) surfaces as a total mismatch.
    #[test]
    fn validate_detects_foreign_points() {
        let p = prog();
        let wide = dpm_ir::parse_program(
            "program t; array A[65][8] : f64;
             nest L { for i = 0 .. 64 { for j = 0 .. 7 { A[i][j] = 1; } } }",
        )
        .unwrap();
        let s = crate::original_schedule(&wide);
        assert_eq!(
            s.validate_coverage(&p),
            Err("schedule has 520 iterations, program has 512".into())
        );
        assert!(s.validate_coverage(&wide).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside the schedule's domains")]
    fn push_rejects_points_outside_the_domains() {
        let p = prog();
        Schedule::new(&p, 1, 1).push(0, 0, CompactIter::new(0, &[64, 0]));
    }

    /// A multi-processor, multi-phase schedule streamed through
    /// `TraceGenerator::stream` yields the batch path's trace and stats
    /// bit for bit — the hardest merge case (cross-processor arrival ties
    /// at every barrier).
    #[test]
    fn streamed_schedule_matches_batch_generation() {
        let p = prog();
        let mut s = Schedule::new(&p, 2, 2);
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
        let s = crate::original_schedule(&p);
        // Sequential sweep: 16 runs of 64 iterations… actually 64 rows / 8
        // rows-per-disk = 8 disk changes over 512 iterations.
        let r = mean_disk_run_length(&p, &layout, &s);
        assert!((r - 64.0).abs() < 1e-9, "run length {r}");
    }

    #[test]
    fn execution_order_streams_in_schedule_order() {
        let p = prog();
        let its = vec![CompactIter::new(0, &[5, 0]), CompactIter::new(0, &[1, 1])];
        let s = Schedule::single(&p, its);
        let mut seen = Vec::new();
        s.for_each_in_phase(0, 0, &mut |n, pt| seen.push((n, pt.to_vec())));
        assert_eq!(seen, vec![(0, vec![5, 0]), (0, vec![1, 1])]);
    }
}
