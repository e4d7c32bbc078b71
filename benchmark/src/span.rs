//! Spans around each layer call, recorded per cell with no shared state,
//! and their roll-up into per-layer self times.

use dpm_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that encloses one whole cell.
pub const CELL: &str = "bench.cell";

/// One timed call into a layer. Times are nanoseconds since the run's
/// epoch; `parent` indexes the enclosing span in the same cell's list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub cell: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer is the name's prefix: `core.reuse` belongs to `core`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self, pass: usize) -> Json {
        Json::obj(vec![
            ("pass", Json::U64(pass as u64)),
            ("name", Json::Str(self.name.into())),
            ("layer", Json::Str(self.layer().into())),
            ("cell", Json::U64(self.cell as u64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            ),
            ("start_ns", Json::U64(self.start_ns)),
            ("end_ns", Json::U64(self.end_ns)),
        ])
    }
}

/// Nanoseconds from `epoch` to now.
pub fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records the spans of one cell. When tracing is off every method is a
/// no-op apart from running the wrapped call.
pub struct Tracer {
    epoch: Instant,
    cell: usize,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, cell: usize, on: bool) -> Tracer {
        Tracer {
            epoch,
            cell,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span that encloses every span opened until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            cell: self.cell,
            parent: self.open.last().copied(),
            start_ns: nanos_since(self.epoch),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = nanos_since(self.epoch);
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open: {:?}", self.open);
        self.spans
    }
}

/// Self time of each span of one cell: its duration minus the part of
/// its interval that its direct children cover (overlapping children
/// count once, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One pass's roll-up: self milliseconds per span name, summed over cells,
/// plus the busy time of the cells themselves.
#[derive(Debug, Default)]
pub struct Rollup {
    pub self_ms: BTreeMap<&'static str, f64>,
    pub cell_ms: Vec<f64>,
    pub cell_start_ns: Vec<u64>,
}

impl Rollup {
    pub fn of(cells: &[&[Span]]) -> Rollup {
        let mut r = Rollup::default();
        for spans in cells {
            for (s, self_ns) in spans.iter().zip(self_times(spans)) {
                *r.self_ms.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
                if s.parent.is_none() {
                    r.cell_ms.push(s.duration_ns() as f64 / 1e6);
                    r.cell_start_ns.push(s.start_ns);
                }
            }
        }
        r
    }

    /// Self milliseconds of every span whose name starts with `prefix`.
    pub fn ms(&self, prefix: &str) -> f64 {
        self.self_ms
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(0.0, |total, (_, ms)| total + ms)
    }

    /// Share of the cells' busy time that named layers account for: the
    /// cells' own glue (everything outside a layer call) is the rest.
    pub fn coverage(&self) -> f64 {
        let busy: f64 = self.cell_ms.iter().sum();
        if busy <= 0.0 {
            return 0.0;
        }
        (busy - self.self_ms.get(CELL).copied().unwrap_or(0.0)) / busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cell: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span(CELL, None, 0, 100),
            span("core.reuse", Some(0), 10, 40),
            // Overlaps the previous child: the shared 30..40 counts once.
            span("trace.gen", Some(0), 30, 60),
            // Pokes out of its parent: only 90..100 is covered.
            span("disksim.sim", Some(0), 90, 130),
            // A grandchild is charged to its parent, not to the cell.
            span("analyze.verify", Some(3), 95, 99),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 40 - 4, 4]);
    }

    #[test]
    fn rollup_sums_self_time_per_name_and_reports_coverage() {
        let a = vec![span(CELL, None, 0, 100), span("trace.gen", Some(0), 0, 90)];
        let b = vec![
            span(CELL, None, 50, 150),
            span("trace.gen", Some(0), 50, 110),
            span("disksim.sim", Some(0), 110, 150),
        ];
        let r = Rollup::of(&[&a, &b]);
        assert!((r.ms("trace.") - 150e-6).abs() < 1e-12);
        assert!((r.ms("disksim.") - 40e-6).abs() < 1e-12);
        assert!((r.coverage() - 190.0 / 200.0).abs() < 1e-12);
        assert_eq!(r.cell_start_ns, vec![0, 50]);
    }

    #[test]
    fn tracer_nests_and_is_inert_when_off() {
        let epoch = Instant::now();
        let mut on = Tracer::new(epoch, 3, true);
        on.begin(CELL);
        let x = on.span("ir.parse", || 7);
        on.end();
        let spans = on.into_spans();
        assert_eq!(x, 7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, 3);
        assert_eq!(spans[1].layer(), "ir");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(epoch, 0, false);
        off.begin(CELL);
        assert_eq!(off.span("ir.parse", || 1), 1);
        off.end();
        assert!(off.into_spans().is_empty());
    }
}
