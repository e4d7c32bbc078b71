//! # dpm-prof — hierarchical self-profiling and streaming run metrics
//!
//! The roadmap's two hottest items — real parallel speedup and streaming
//! simulation at full scale — both need to *see* where wall-clock time and
//! memory go inside the compile → schedule → simulate pipeline. This crate
//! is that lens, in two halves:
//!
//! * **A hierarchical, thread-aware self-profiler.** [`scope`] returns a
//!   guard that times a region and files it under the enclosing scope in a
//!   per-thread call tree. Worker trees flush into a global accumulator
//!   when their adopted context detaches (and at thread exit as a
//!   backstop); [`snapshot`] folds in the calling thread and
//!   returns the combined [`Profile`], exportable as a JSON tree or as
//!   flamegraph-compatible collapsed-stack text. Worker threads adopt the
//!   spawning thread's stack via [`current_context`]/[`ProfContext::attach`],
//!   so a `par_map` issued under `run_app` attributes its workers' time to
//!   `run_app`, not to a disconnected root.
//! * **Constant-memory streaming metrics** ([`hist`], [`stream`]) for the
//!   simulator: log-bucketed (HDR-style) histograms, a bounded queue-depth
//!   gauge sampled in simulated time, and per-RPM spinning-residency
//!   counters — all O(1) memory per disk and mergeable, so they survive a
//!   pull-based streaming simulator with no materialized trace.
//!
//! The profiler is compiled in everywhere but near-free when disabled: an
//! instrumentation point costs one relaxed atomic load (the same contract
//! as `dpm-obs`), measured under 2% on the hot paths by the overhead test.
//! Enabling it never changes what the pipeline computes — only what it
//! reports — which the workspace pins with a bit-identity test.
//!
//! ```
//! dpm_prof::reset();
//! dpm_prof::enable();
//! {
//!     let _outer = dpm_prof::scope("outer");
//!     let _inner = dpm_prof::scope("inner");
//! }
//! dpm_prof::disable();
//! let profile = dpm_prof::snapshot();
//! let outer = profile.find(&["outer"]).unwrap();
//! assert_eq!(profile.node(outer).count, 1);
//! assert!(profile.find(&["outer", "inner"]).is_some());
//! ```
//!
//! Environment contract (used by binaries via [`init_from_env`]):
//! `DPM_PROF` unset/`0`/`off` → disabled; any other value → enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod stream;

pub use hist::LogHistogram;
pub use stream::{DiskStreamMetrics, QueueDepthGauge, RpmResidency};

use dpm_obs::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether profiling is on. One relaxed atomic load — the entire cost of a
/// disabled instrumentation point.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on. Scopes opened while disabled stay inert even if
/// profiling is enabled before they close.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns profiling off. Scopes already open keep recording (their guard
/// was armed at open time); new scopes are inert.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Initializes from the environment: `DPM_PROF` unset/`0`/`off`/`false` →
/// disabled, anything else → enabled. Returns whether profiling ended up
/// enabled. Intended for binaries; libraries leave the decision to callers.
pub fn init_from_env() -> bool {
    match std::env::var("DPM_PROF") {
        Ok(v) if !matches!(v.as_str(), "" | "0" | "off" | "false") => {
            enable();
            true
        }
        _ => false,
    }
}

/// One node of a (local or merged) call tree. Index 0 is the synthetic
/// root; every other node was created by a [`scope`] or a ghost context
/// frame.
#[derive(Clone, Debug)]
struct TreeNode {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    /// Completed invocations.
    count: u64,
    /// Inclusive wall time of completed invocations, in nanoseconds.
    total_ns: u64,
}

/// An arena call tree: the shape shared by per-thread trees, the global
/// retired accumulator, and [`Profile`].
#[derive(Debug)]
struct Tree {
    nodes: Vec<TreeNode>,
    current: usize,
}

impl Tree {
    fn new() -> Tree {
        Tree {
            nodes: vec![TreeNode {
                name: "",
                parent: 0,
                children: Vec::new(),
                count: 0,
                total_ns: 0,
            }],
            current: 0,
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let ix = self.nodes.len();
        self.nodes.push(TreeNode {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        self.nodes[parent].children.push(ix);
        ix
    }

    /// Adds every node of `other` into `self`, matching by path.
    fn merge(&mut self, other: &Tree) {
        // map[other index] -> self index, filled in BFS order (parents
        // always precede children in the arena by construction).
        let mut map = vec![0usize; other.nodes.len()];
        for (ix, node) in other.nodes.iter().enumerate().skip(1) {
            let parent = map[node.parent];
            let here = self.child(parent, node.name);
            self.nodes[here].count += node.count;
            self.nodes[here].total_ns += node.total_ns;
            map[ix] = here;
        }
    }

    fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].children.clear();
        self.nodes[0].count = 0;
        self.nodes[0].total_ns = 0;
        self.current = 0;
    }
}

/// Global accumulator of per-thread trees. A thread's tree arrives here
/// early only when the thread attached a context and that context detaches
/// at its root, as `dpm-exec`'s map helpers do (DESIGN §12).
/// Any other thread's tree arrives at thread exit, from a TLS destructor
/// that can run after `thread::scope` has already returned to the spawner.
fn retired() -> &'static Mutex<Tree> {
    static RETIRED: OnceLock<Mutex<Tree>> = OnceLock::new();
    RETIRED.get_or_init(|| Mutex::new(Tree::new()))
}

/// Thread-local tree wrapper whose drop (thread exit) merges into the
/// global retired accumulator.
struct LocalTree {
    tree: Tree,
}

impl Drop for LocalTree {
    fn drop(&mut self) {
        if self.tree.nodes.len() > 1 {
            retired()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .merge(&self.tree);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalTree> = RefCell::new(LocalTree { tree: Tree::new() });
}

/// Guard returned by [`scope`]: accumulates the elapsed wall time and one
/// invocation into its call-tree node when dropped. Inert (a single
/// `None`) when profiling was disabled at open time.
pub struct ScopeGuard {
    data: Option<ScopeData>,
}

struct ScopeData {
    node: usize,
    prev: usize,
    start: Instant,
}

impl ScopeGuard {
    /// Whether this guard is actually recording.
    pub fn active(&self) -> bool {
        self.data.is_some()
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        let ns = u64::try_from(data.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        LOCAL.with(|t| {
            let mut t = t.borrow_mut();
            let tree = &mut t.tree;
            tree.nodes[data.node].count += 1;
            tree.nodes[data.node].total_ns += ns;
            // Guards normally drop LIFO; if one was moved out of order,
            // leave the deeper cursor alone rather than corrupting it.
            if tree.current == data.node {
                tree.current = data.prev;
            }
        });
    }
}

/// Opens a named scope under the thread's current scope and returns the
/// guard that times it. `name` should be a stable, human-meaningful label
/// (`qd_footprints`, `simulate`, …): it becomes one frame of the
/// collapsed-stack output.
pub fn scope(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { data: None };
    }
    let (node, prev) = LOCAL.with(|t| {
        let mut t = t.borrow_mut();
        let tree = &mut t.tree;
        let prev = tree.current;
        let node = tree.child(prev, name);
        tree.current = node;
        (node, prev)
    });
    ScopeGuard {
        data: Some(ScopeData {
            node,
            prev,
            start: Instant::now(),
        }),
    }
}

/// A captured scope path, used to carry profiling context across thread
/// spawns: capture with [`current_context`] on the spawning thread, then
/// [`attach`](ProfContext::attach) inside each worker so the worker's
/// scopes nest under the spawner's path instead of a bare root.
#[derive(Clone, Debug, Default)]
pub struct ProfContext {
    path: Vec<&'static str>,
}

impl ProfContext {
    /// Whether the context carries any frames.
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }

    /// Re-creates the captured path as *ghost frames* (no count, no time
    /// of their own) in the calling thread's tree and makes its deepest
    /// frame the current scope until the returned guard drops. An empty
    /// context still returns an active guard when profiling is enabled:
    /// the guard's drop is what flushes a worker's tree into the global
    /// accumulator.
    pub fn attach(&self) -> ContextGuard {
        if !enabled() {
            return ContextGuard { prev: None };
        }
        let prev = LOCAL.with(|t| {
            let mut t = t.borrow_mut();
            let tree = &mut t.tree;
            let prev = tree.current;
            let mut at = tree.current;
            for name in &self.path {
                at = tree.child(at, name);
            }
            tree.current = at;
            prev
        });
        ContextGuard { prev: Some(prev) }
    }
}

/// Guard returned by [`ProfContext::attach`]; restores the thread's
/// previous current scope on drop.
pub struct ContextGuard {
    prev: Option<usize>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some(prev) = self.prev.take() else {
            return;
        };
        LOCAL.with(|t| {
            let mut t = t.borrow_mut();
            t.tree.current = prev;
            // A worker that attached at its root is done with its task:
            // flush its tree into the retired accumulator now. Relying on
            // thread exit alone would race `thread::scope`, which can
            // return before unjoined threads run their TLS destructors.
            if prev == 0 && t.tree.nodes.len() > 1 {
                retired()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .merge(&t.tree);
                t.tree.clear();
            }
        });
    }
}

/// Captures the calling thread's open scope path (root-first). Cheap when
/// profiling is disabled (returns an empty context).
pub fn current_context() -> ProfContext {
    if !enabled() {
        return ProfContext::default();
    }
    LOCAL.with(|t| {
        let t = t.borrow();
        let tree = &t.tree;
        let mut path = Vec::new();
        let mut at = tree.current;
        while at != 0 {
            path.push(tree.nodes[at].name);
            at = tree.nodes[at].parent;
        }
        path.reverse();
        ProfContext { path }
    })
}

/// Clears all accumulated profiling data: the retired accumulator and the
/// calling thread's tree. Other live threads' trees are untouched — call
/// this between parallel sections, not during one.
pub fn reset() {
    retired().lock().unwrap_or_else(|e| e.into_inner()).clear();
    LOCAL.with(|t| t.borrow_mut().tree.clear());
}

/// One node of a merged [`Profile`].
#[derive(Clone, Debug)]
pub struct ProfNode {
    /// Scope label (empty for the root).
    pub name: &'static str,
    /// Parent index (the root is its own parent).
    pub parent: usize,
    /// Child indices.
    pub children: Vec<usize>,
    /// Completed invocations.
    pub count: u64,
    /// Inclusive wall time (ns) of completed invocations. For scopes whose
    /// children ran on worker threads in parallel, the children's inclusive
    /// sum can exceed this (CPU time vs wall time); exclusive times are
    /// clamped at zero accordingly.
    pub total_ns: u64,
}

/// An immutable merged call tree: the retired accumulator plus the calling
/// thread's tree at [`snapshot`] time.
#[derive(Clone, Debug)]
pub struct Profile {
    nodes: Vec<ProfNode>,
}

/// Takes a snapshot of everything profiled so far: the retired accumulator
/// plus the calling thread's own tree. A worker's scopes are included once
/// its attached context has detached, which holds whenever a `dpm-exec` map
/// has returned. A thread that never attached a context
/// flushes only at exit, so its scopes may still be missing after the
/// `thread::scope` that ran it returns.
pub fn snapshot() -> Profile {
    let mut merged = Tree::new();
    merged.merge(&retired().lock().unwrap_or_else(|e| e.into_inner()));
    LOCAL.with(|t| merged.merge(&t.borrow().tree));
    Profile {
        nodes: merged
            .nodes
            .iter()
            .map(|n| ProfNode {
                name: n.name,
                parent: n.parent,
                children: n.children.clone(),
                count: n.count,
                total_ns: n.total_ns,
            })
            .collect(),
    }
}

impl Profile {
    /// The root index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Node by index.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of range.
    pub fn node(&self, ix: usize) -> &ProfNode {
        &self.nodes[ix]
    }

    /// Number of nodes, root included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the profile holds nothing but the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Finds the node at `path` (names from the root down).
    pub fn find(&self, path: &[&str]) -> Option<usize> {
        let mut at = 0usize;
        for name in path {
            at = *self.nodes[at]
                .children
                .iter()
                .find(|&&c| self.nodes[c].name == *name)?;
        }
        Some(at)
    }

    /// Inclusive nanoseconds of `ix`; the root reports its children's sum.
    pub fn inclusive_ns(&self, ix: usize) -> u64 {
        if ix == 0 {
            self.children_ns(0)
        } else {
            self.nodes[ix].total_ns
        }
    }

    /// Sum of the children's inclusive times.
    fn children_ns(&self, ix: usize) -> u64 {
        self.nodes[ix]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_ns)
            .sum()
    }

    /// Exclusive (self) nanoseconds of `ix`: inclusive minus children,
    /// clamped at zero (parallel children can overlap the parent).
    pub fn exclusive_ns(&self, ix: usize) -> u64 {
        self.inclusive_ns(ix).saturating_sub(self.children_ns(ix))
    }

    /// Fraction of `ix`'s inclusive time attributed to named child scopes,
    /// clamped to `0.0..=1.0` (workers running in parallel can make the
    /// children's sum exceed the parent's wall time). A node with no time
    /// reports full coverage.
    pub fn coverage(&self, ix: usize) -> f64 {
        let own = self.inclusive_ns(ix);
        if own == 0 {
            return 1.0;
        }
        (self.children_ns(ix) as f64 / own as f64).min(1.0)
    }

    /// Total profiled nanoseconds (the root's inclusive time).
    pub fn total_ns(&self) -> u64 {
        self.inclusive_ns(0)
    }

    /// Flamegraph-compatible collapsed-stack text: one line per node with
    /// positive exclusive time, `frame;frame;frame <exclusive_us>`. Feed
    /// it straight to `flamegraph.pl` / `inferno-flamegraph`.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        let mut stack: Vec<&'static str> = Vec::new();
        self.collapse_into(0, &mut stack, &mut out);
        out
    }

    fn collapse_into(&self, ix: usize, stack: &mut Vec<&'static str>, out: &mut String) {
        if ix != 0 {
            stack.push(self.nodes[ix].name);
            let us = self.exclusive_ns(ix) / 1_000;
            if us > 0 || self.nodes[ix].children.is_empty() {
                out.push_str(&stack.join(";"));
                out.push(' ');
                out.push_str(&us.to_string());
                out.push('\n');
            }
        }
        for &c in &self.nodes[ix].children {
            self.collapse_into(c, stack, out);
        }
        if ix != 0 {
            stack.pop();
        }
    }

    /// The call tree as a JSON document: nested
    /// `{name, count, inclusive_us, exclusive_us, children: [...]}`.
    pub fn to_json(&self) -> Json {
        self.node_json(0)
    }

    fn node_json(&self, ix: usize) -> Json {
        let children: Vec<Json> = self.nodes[ix]
            .children
            .iter()
            .map(|&c| self.node_json(c))
            .collect();
        Json::obj(vec![
            (
                "name",
                Json::Str(if ix == 0 {
                    "root".to_string()
                } else {
                    self.nodes[ix].name.to_string()
                }),
            ),
            ("count", Json::U64(self.nodes[ix].count)),
            ("inclusive_us", Json::U64(self.inclusive_ns(ix) / 1_000)),
            ("exclusive_us", Json::U64(self.exclusive_ns(ix) / 1_000)),
            ("children", Json::Arr(children)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Profiler state is global; tests must not interleave.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Holds the profiler lock for one test. Dropped last (it is bound
    /// first), it disables and resets before releasing the lock, so the
    /// test thread's tree is empty when libtest retires the thread: its exit
    /// merge, which lands after the lock is gone, has nothing to add to the
    /// next test's snapshot.
    struct Fresh {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for Fresh {
        fn drop(&mut self) {
            disable();
            reset();
        }
    }

    fn fresh() -> Fresh {
        let g = lock();
        disable();
        reset();
        Fresh { _lock: g }
    }

    #[test]
    fn disabled_scopes_are_inert() {
        let _g = fresh();
        {
            let sp = scope("quiet");
            assert!(!sp.active());
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn scopes_nest_and_count() {
        let _g = fresh();
        enable();
        for _ in 0..3 {
            let _a = scope("a");
            let _b = scope("b");
        }
        {
            let _c = scope("c");
        }
        disable();
        let p = snapshot();
        let a = p.find(&["a"]).unwrap();
        let b = p.find(&["a", "b"]).unwrap();
        assert_eq!(p.node(a).count, 3);
        assert_eq!(p.node(b).count, 3);
        assert!(p.find(&["b"]).is_none(), "b only exists under a");
        assert!(p.find(&["c"]).is_some());
        // Inclusive covers the child.
        assert!(p.inclusive_ns(a) >= p.inclusive_ns(b));
        assert_eq!(p.exclusive_ns(a), p.inclusive_ns(a) - p.inclusive_ns(b));
    }

    #[test]
    fn worker_threads_merge_under_adopted_context() {
        let _g = fresh();
        enable();
        {
            let _outer = scope("outer");
            let ctx = current_context();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _adopt = ctx.attach();
                        let _w = scope("worker");
                    });
                }
            });
        }
        disable();
        let p = snapshot();
        let w = p.find(&["outer", "worker"]).expect("nested under outer");
        assert_eq!(p.node(w).count, 2);
        // The ghost path frame carries no invocations of its own beyond
        // the real outer scope's one.
        let outer = p.find(&["outer"]).unwrap();
        assert_eq!(p.node(outer).count, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = fresh();
        enable();
        {
            let _a = scope("gone");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                // Attached, so the tree is retired before `thread::scope`
                // returns rather than at thread exit, which could land
                // after the `reset` below.
                let _ctx = ProfContext::default().attach();
                let _b = scope("gone_too");
            });
        });
        reset();
        disable();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn collapsed_output_has_full_paths() {
        let _g = fresh();
        enable();
        {
            let _a = scope("alpha");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = scope("beta");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        disable();
        let p = snapshot();
        let text = p.to_collapsed();
        assert!(text.contains("alpha;beta "), "{text}");
        for line in text.lines() {
            let (_stack, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(value.parse::<u64>().is_ok(), "bad line {line}");
        }
        let json = p.to_json();
        let mut s = String::new();
        json.write(&mut s);
        assert!(s.contains("\"alpha\""));
    }

    #[test]
    fn coverage_is_children_over_parent() {
        let _g = fresh();
        enable();
        {
            let _a = scope("covered");
            {
                let _b = scope("child");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        disable();
        let p = snapshot();
        let a = p.find(&["covered"]).unwrap();
        assert!(p.coverage(a) > 0.5, "coverage {}", p.coverage(a));
        assert!(p.coverage(a) <= 1.0);
    }

    #[test]
    fn context_attach_is_inert_when_disabled() {
        let _g = fresh();
        let ctx = current_context();
        assert!(ctx.is_empty());
        let _guard = ctx.attach();
        assert!(snapshot().is_empty());
    }
}
