//! The profile recorder: where the wall time goes, as a call tree.
//!
//! With the profile on ([`enable`]), every [`span()`](crate::span())
//! files one invocation and its elapsed time under the enclosing span in
//! a per-thread call tree. A helper's tree is retired into a global
//! accumulator when its attached [`Context`](crate::Context) detaches
//! (and at thread exit as a backstop); [`snapshot`] folds in the calling
//! thread and returns the combined [`Profile`], exportable as a JSON tree
//! or as flamegraph-compatible collapsed-stack text. Because `dpm-exec`
//! helpers attach the issuing thread's context, a `par_map` issued under
//! `experiment_matrix` files its helpers' time under
//! `experiment_matrix`, not under a disconnected root.
//!
//! Enabling the profile never changes what the pipeline computes — only
//! what it reports — which the workspace pins with a bit-identity test.
//!
//! ```
//! use dpm_obs::prof;
//!
//! prof::reset();
//! prof::enable();
//! {
//!     let _outer = dpm_obs::span!("outer");
//!     let _inner = dpm_obs::span!("inner");
//! }
//! prof::disable();
//! let profile = prof::snapshot();
//! let outer = profile.find(&["outer"]).unwrap();
//! assert_eq!(profile.node(outer).count, 1);
//! assert!(profile.find(&["outer", "inner"]).is_some());
//! ```

use crate::json::Json;
use crate::span::with_tree;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Turns the profile on. Spans opened while it was off stay unprofiled
/// even if it is enabled before they close.
pub fn enable() {
    crate::set(crate::PROFILE, true);
}

/// Turns the profile off. Spans already open keep recording (their guard
/// was armed at open time); new spans are not profiled.
pub fn disable() {
    crate::set(crate::PROFILE, false);
}

/// An arena call tree: the shape shared by per-thread trees, the global
/// retired accumulator, and [`Profile`]. Index 0 is the synthetic root;
/// every other node was created by a span or a ghost context frame.
#[derive(Debug)]
pub(crate) struct Tree {
    nodes: Vec<ProfNode>,
}

impl Tree {
    pub(crate) fn new() -> Tree {
        Tree {
            nodes: vec![ProfNode {
                name: "",
                parent: 0,
                children: Vec::new(),
                count: 0,
                total_ns: 0,
            }],
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    pub(crate) fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let ix = self.nodes.len();
        self.nodes.push(ProfNode {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        self.nodes[parent].children.push(ix);
        ix
    }

    /// Files one completed invocation of `node`. A node cleared by a
    /// [`reset`] while its span was open is skipped.
    pub(crate) fn record(&mut self, node: usize, elapsed: Duration) {
        if let Some(n) = self.nodes.get_mut(node) {
            n.count += 1;
            n.total_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// The names from the root down to `node` (empty for the root).
    pub(crate) fn path_to(&self, mut node: usize) -> Vec<&'static str> {
        let mut path = Vec::new();
        while node != 0 {
            path.push(self.nodes[node].name);
            node = self.nodes[node].parent;
        }
        path.reverse();
        path
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

/// Merges a thread's tree into the retired accumulator and empties it.
pub(crate) fn retire(tree: &mut Tree) {
    if tree.nodes.len() > 1 {
        retired()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(tree);
        tree.clear();
    }
}

/// Clears all accumulated profiling data: the retired accumulator and the
/// calling thread's tree. Other live threads' trees are untouched — call
/// this between parallel sections, not during one.
pub fn reset() {
    retired().lock().unwrap_or_else(|e| e.into_inner()).clear();
    with_tree(Tree::clear);
}

/// One node of a call tree.
#[derive(Clone, Debug)]
pub struct ProfNode {
    /// Span name (empty for the root).
    pub name: &'static str,
    /// Parent index (the root is its own parent).
    pub parent: usize,
    /// Child indices.
    pub children: Vec<usize>,
    /// Completed invocations.
    pub count: u64,
    /// Inclusive wall time (ns) of completed invocations. For spans whose
    /// children ran on helper threads in parallel, the children's
    /// inclusive sum can exceed this (CPU time vs wall time); exclusive
    /// times are clamped at zero accordingly.
    pub total_ns: u64,
}

/// An immutable merged call tree: the retired accumulator plus the calling
/// thread's tree at [`snapshot`] time.
#[derive(Clone, Debug)]
pub struct Profile {
    nodes: Vec<ProfNode>,
}

/// Takes a snapshot of everything profiled so far: the retired accumulator
/// plus the calling thread's own tree. A helper's spans are included once
/// its attached context has detached, which holds whenever a `dpm-exec`
/// map has returned. A thread that never attached a context
/// retires its tree only at exit, so its spans may still be missing after
/// the `thread::scope` that ran it returns.
pub fn snapshot() -> Profile {
    let mut merged = Tree::new();
    merged.merge(&retired().lock().unwrap_or_else(|e| e.into_inner()));
    with_tree(|tree| merged.merge(tree));
    Profile {
        nodes: merged.nodes,
    }
}

impl Profile {
    /// Node by index; index 0 is the root.
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

    /// Fraction of `ix`'s inclusive time attributed to named child spans,
    /// clamped to `0.0..=1.0` (helpers running in parallel can make the
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
    use crate::test_support::fresh;
    use crate::{span, Context};

    #[test]
    fn disabled_spans_are_inert() {
        let _g = fresh();
        {
            let sp = span("quiet");
            assert!(!sp.active());
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_count() {
        let _g = fresh();
        enable();
        for _ in 0..3 {
            let _a = span("a");
            let _b = span("b");
        }
        {
            let _c = span("c");
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
            let _outer = span("outer");
            let ctx = Context::current();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let ctx = ctx.clone();
                    s.spawn(move || {
                        let _adopt = ctx.attach();
                        let _w = span("worker");
                    });
                }
            });
        }
        disable();
        let p = snapshot();
        let w = p.find(&["outer", "worker"]).expect("nested under outer");
        assert_eq!(p.node(w).count, 2);
        // The ghost path frame carries no invocations of its own beyond
        // the real outer span's one.
        let outer = p.find(&["outer"]).unwrap();
        assert_eq!(p.node(outer).count, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = fresh();
        enable();
        {
            let _a = span("gone");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                // Attached, so the tree is retired before `thread::scope`
                // returns rather than at thread exit, which could land
                // after the `reset` below.
                let _ctx = Context::default().attach();
                let _b = span("gone_too");
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
            let _a = span("alpha");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = span("beta");
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
            let _a = span("covered");
            {
                let _b = span("child");
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
        let ctx = Context::current();
        assert!(ctx.is_empty());
        let _guard = ctx.attach();
        assert!(snapshot().is_empty());
    }
}
