//! The one scope API: [`span()`] guards, the per-thread frame stack both
//! recorders read, and the [`Context`] that carries its top across
//! threads.

use crate::event::{kind, Event};
use crate::prof::Tree;
use crate::{EVENTS, PROFILE};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One open frame of a thread's stack: a span, or the base a [`Context`]
/// attached.
struct Frame {
    /// Unique key the frame's guard removes it by (a span id).
    key: u64,
    /// The event id that spans opened inside this frame name as parent:
    /// the frame's own id when it emitted events, else the one it
    /// inherited.
    span: u64,
    /// The profile node that spans opened inside this frame nest under,
    /// inherited the same way.
    node: usize,
}

/// A thread's instrumentation state: the frame stack and the thread's
/// profile call tree.
struct Local {
    frames: Vec<Frame>,
    tree: Tree,
}

impl Local {
    /// The innermost frame's event id and profile node (0 and the root on
    /// an empty stack).
    fn top(&self) -> (u64, usize) {
        self.frames.last().map_or((0, 0), |f| (f.span, f.node))
    }

    /// Removes the frame keyed `key`. Guards normally close LIFO; one
    /// moved out of order is removed where it sits, and the frames above
    /// it keep what they inherited.
    fn remove(&mut self, key: u64) {
        if let Some(ix) = self.frames.iter().rposition(|f| f.key == key) {
            self.frames.remove(ix);
        }
    }
}

impl Drop for Local {
    /// Thread exit: a tree not yet retired by a detaching [`Context`]
    /// merges into the global accumulator here.
    fn drop(&mut self) {
        crate::prof::retire(&mut self.tree);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        frames: Vec::new(),
        tree: Tree::new(),
    });
}

/// Runs `f` on the calling thread's profile tree.
pub(crate) fn with_tree<R>(f: impl FnOnce(&mut Tree) -> R) -> R {
    LOCAL.with(|l| f(&mut l.borrow_mut().tree))
}

/// Guard returned by [`span()`]: on drop it emits `span_end` (with
/// duration and accumulated counters) if the event stream was on when it
/// opened, and files one invocation and its elapsed time in the
/// thread's call tree if the profile was. Inert — a single `None` — when
/// both were off.
///
/// `!Send`: its frame lives on the opening thread's stack and tree, so it
/// must close on that thread.
///
/// ```compile_fail
/// fn close_elsewhere<T: Send>(_: T) {}
/// close_elsewhere(dpm_obs::span("pinned"));
/// ```
pub struct SpanGuard {
    open: Option<Open>,
    _thread: PhantomData<*const ()>,
}

/// Live state of an open span.
struct Open {
    name: &'static str,
    /// The one clock reading at open; both recorders time from it.
    start: Instant,
    id: u64,
    parent: u64,
    /// Whether `span_begin` went out, so `span_end` is owed.
    events: bool,
    /// The profile node the span's time is filed under, when profiled.
    node: Option<usize>,
    counters: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Whether this guard is actually recording.
    pub fn active(&self) -> bool {
        self.open.is_some()
    }

    /// Adds to a named per-span counter (created on first use); the totals
    /// ride on the `span_end` event.
    pub fn add(&mut self, key: &'static str, delta: u64) {
        let Some(open) = self.open.as_mut().filter(|o| o.events) else {
            return;
        };
        match open.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += delta,
            None => open.counters.push((key, delta)),
        }
    }

    /// Increments a named per-span counter by one.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let elapsed = end.saturating_duration_since(open.start);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.remove(open.id);
            if let Some(node) = open.node {
                l.tree.record(node, elapsed);
            }
        });
        if open.events {
            let mut ev = Event::new(crate::since_epoch(end), kind::SPAN_END, open.name)
                .field("id", open.id)
                .field("parent", open.parent)
                .field("dur_us", crate::micros(elapsed));
            for (k, v) in open.counters {
                ev = ev.field(k, v);
            }
            crate::publish(&ev);
        }
    }
}

/// Opens a span: the one way the workspace marks a region. With the
/// event stream on it emits `span_begin`; with the profile on it opens a
/// frame under the thread's current one. Either way the span becomes the
/// parent of spans opened inside it, until the returned guard drops.
/// With both off the guard is inert and the call is one relaxed load.
///
/// `name` should be a stable, human-meaningful label (`q_d_compute`,
/// `simulate`, …): it is the event name, the `pass_timings_us` key and
/// one frame of the collapsed-stack output.
pub fn span(name: &'static str) -> SpanGuard {
    let on = crate::switch() & (EVENTS | PROFILE);
    if on == 0 {
        return SpanGuard {
            open: None,
            _thread: PhantomData,
        };
    }
    let events = on & EVENTS != 0;
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, node) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (parent, at) = l.top();
        let node = (on & PROFILE != 0).then(|| l.tree.child(at, name));
        l.frames.push(Frame {
            key: id,
            span: if events { id } else { parent },
            node: node.unwrap_or(at),
        });
        (parent, node)
    });
    let start = Instant::now();
    if events {
        crate::publish(
            &Event::new(crate::since_epoch(start), kind::SPAN_BEGIN, name)
                .field("id", id)
                .field("parent", parent),
        );
    }
    SpanGuard {
        open: Some(Open {
            name,
            start,
            id,
            parent,
            events,
            node,
            counters: Vec::new(),
        }),
        _thread: PhantomData,
    }
}

/// What a helper thread inherits from the thread that hands it work: the
/// open profile path and the open span's event id. Capture it with
/// [`Context::current`] on the spawning thread, then
/// [`attach`](Context::attach) it inside each helper, so the helper's
/// spans nest under the spawner's span in the event stream and in the
/// profile instead of starting a bare root.
#[derive(Clone, Debug, Default)]
pub struct Context {
    path: Vec<&'static str>,
    span: u64,
}

impl Context {
    /// Captures the calling thread's innermost open span. Cheap when both
    /// recorders are off (returns an empty context).
    pub fn current() -> Context {
        if crate::switch() & (EVENTS | PROFILE) == 0 {
            return Context::default();
        }
        LOCAL.with(|l| {
            let l = l.borrow();
            let (span, node) = l.top();
            Context {
                path: l.tree.path_to(node),
                span,
            }
        })
    }

    /// Whether the context carries nothing.
    pub fn is_empty(&self) -> bool {
        self.path.is_empty() && self.span == 0
    }

    /// Makes the captured span the calling thread's innermost frame until
    /// the returned guard drops. The captured path is re-created as
    /// *ghost frames* (no count, no time of their own) in the thread's
    /// call tree. An empty context still returns an active guard when a
    /// recorder is on: the guard's drop is what retires a helper's tree
    /// into the global accumulator.
    pub fn attach(&self) -> ContextGuard {
        let on = crate::switch() & (EVENTS | PROFILE);
        if on == 0 {
            return ContextGuard {
                key: None,
                _thread: PhantomData,
            };
        }
        let key = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let (_, mut node) = l.top();
            if on & PROFILE != 0 {
                for name in &self.path {
                    node = l.tree.child(node, name);
                }
            }
            l.frames.push(Frame {
                key,
                span: self.span,
                node,
            });
        });
        ContextGuard {
            key: Some(key),
            _thread: PhantomData,
        }
    }
}

/// Guard returned by [`Context::attach`]; removes the attached frame on
/// drop. `!Send`, like [`SpanGuard`].
pub struct ContextGuard {
    key: Option<u64>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some(key) = self.key.take() else {
            return;
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.remove(key);
            // A helper that attached at its root is done with its task:
            // retire its tree now. Relying on thread exit alone would race
            // `thread::scope`, which can return before unjoined threads
            // run their TLS destructors.
            if l.frames.is_empty() {
                crate::prof::retire(&mut l.tree);
            }
        });
    }
}
