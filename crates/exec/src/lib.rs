//! # dpm-exec — zero-dependency parallel execution
//!
//! A std-only *scoped fan-out* with an *ordered* parallel map: results
//! always come back in input order, so every caller stays bit-for-bit
//! deterministic no matter how many threads serviced the map or which
//! thread ran which item. Parallelism lives at one level, the cells:
//! the experiment matrices (app × version cells), the benchmark's passes,
//! the `ablations` sweeps, `dpm-analyze`'s apps and the layout
//! optimizer's candidates. The stages a cell runs are plain loops.
//!
//! Design points:
//!
//! * **No external dependencies.** Each parallel map is one
//!   `std::thread::scope`: the calling thread plus `threads − 1` scoped
//!   helpers, all joined before the map returns. Nothing outlives the
//!   call, so borrowed inputs need no `'static` bound and the crate needs
//!   no `unsafe`.
//! * **Per-block claiming.** Participant `w` owns the contiguous block
//!   `[w·len/P, (w+1)·len/P)` and claims its indices one at a time
//!   through that block's atomic cursor; a participant whose block is
//!   empty claims from the other blocks' cursors in ring order. Each
//!   participant starts where a static even split would put it, and a
//!   slow item holds up only the participant running it.
//! * **`DPM_THREADS` env control.** [`num_threads`] reads `DPM_THREADS`
//!   (unset or `0` → `std::thread::available_parallelism()`); `1` forces
//!   the serial path everywhere, and [`with_env_threads`] sets it for one
//!   region. [`Pool`] values are just width selectors.
//! * **Determinism.** [`Pool::map_indexed`] / [`par_map_indexed`] write
//!   each result into its input's slot, so the output `Vec` is identical
//!   to a serial `map` — only wall-clock order differs. With one thread
//!   the closure runs in input order on the calling thread, making
//!   "serial" a strict special case of the same code path.
//! * **Panic propagation.** The first item panic is captured, stops
//!   further claims, and the payload is re-raised on the caller's thread
//!   after the join — a panicking cell cannot silently truncate an
//!   experiment matrix.
//! * **Observability.** Each parallel map opens a `par_map` span
//!   (`items`, `workers`) and each participant an `exec_worker` span
//!   (`worker` slot, `claimed` counter) via `dpm-obs`. The fan-out
//!   captures the caller's [`dpm_obs::Context`] and every helper attaches
//!   it before it participates, so a helper's `exec_worker` span names
//!   `par_map` as its parent in the event stream and its time nests under
//!   the issuing span in the profile; the context's detach retires the
//!   helper's profile before the scope joins.
//!
//! ```
//! let squares = dpm_exec::par_map_indexed(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, always
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// The worker-thread count selected by the environment: `DPM_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism (`DPM_THREADS=0` explicitly requests the latter). Always
/// at least 1.
pub fn num_threads() -> usize {
    match std::env::var("DPM_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => available(),
            Ok(n) => n,
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Serializes [`with_env_threads`] scopes across threads.
static ENV_THREADS: Mutex<()> = Mutex::new(());

/// Runs `f` with `DPM_THREADS` temporarily overridden to `threads`,
/// restoring the previous value (or unsetting it) afterwards, panic
/// included.
///
/// The environment is process-global, so the scope holds a process-wide
/// lock for its whole duration: scopes opened concurrently from several
/// threads (e.g. parallel tests) run one after another, each at its own
/// width. Scopes must not nest — a nested call on the same thread would
/// wait on the lock its caller holds.
pub fn with_env_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var("DPM_THREADS", v),
                None => std::env::remove_var("DPM_THREADS"),
            }
        }
    }
    // Declared first so it drops last: the variable is restored before
    // the next scope may take the lock. A panic in another scope's `f`
    // poisons nothing this guard protects.
    let _lock = ENV_THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore(std::env::var("DPM_THREADS").ok());
    std::env::set_var("DPM_THREADS", threads.to_string());
    f()
}

/// A width selector for parallel maps. A map at width `n` runs on the
/// calling thread plus `n − 1` scoped helper threads that are joined
/// before it returns.
///
/// Constructing a `Pool` is free: prefer the free functions
/// [`par_map_indexed`] / [`par_map_vec`] (environment-sized width) at
/// call sites; `Pool::new(n)` remains for tests and benches that pin an
/// explicit width.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of exactly `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`num_threads`] (the `DPM_THREADS` contract).
    pub fn from_env() -> Pool {
        Pool::new(num_threads())
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ordered parallel map over a slice: returns `f(i, &items[i])` for
    /// every `i`, in input order. Runs serially (in order, on the calling
    /// thread) when the pool has one thread or the input has at most one
    /// item.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from `f` on the calling thread.
    pub fn map_indexed<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        run_indexed(self.threads, items.len(), &|i| f(i, &items[i]))
    }

    /// Ordered parallel map over owned items: like
    /// [`map_indexed`](Pool::map_indexed) but each call consumes its item
    /// (e.g. an experiment cell that owns its application).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from `f` on the calling thread.
    pub fn map_vec<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        let len = items.len();
        if self.threads.min(len) <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        run_indexed(self.threads, len, &|i| {
            let item = slots[i]
                .lock()
                .expect("exec item slot poisoned")
                .take()
                .expect("exec item claimed twice");
            f(i, item)
        })
    }
}

/// [`Pool::map_indexed`] on the environment-sized pool ([`num_threads`]).
pub fn par_map_indexed<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    Pool::from_env().map_indexed(items, f)
}

/// [`Pool::map_vec`] on the environment-sized pool ([`num_threads`]).
pub fn par_map_vec<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    Pool::from_env().map_vec(items, f)
}

/// The ordered map: `len` jobs fanned out over up to `threads`
/// participants, results written into per-index slots so the output
/// order equals the input order regardless of which participant ran
/// which index.
fn run_indexed<R: Send>(threads: usize, len: usize, job: &(impl Fn(usize) -> R + Sync)) -> Vec<R> {
    if len == 0 {
        return Vec::new();
    }
    let threads = threads.min(len);
    if threads <= 1 {
        // Serial fallback: same results, same order, no thread machinery;
        // panics unwind straight to the caller.
        return (0..len).map(job).collect();
    }
    let mut sp = dpm_obs::span!("par_map");
    sp.add("items", len as u64);
    sp.add("workers", threads as u64);
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    fan_out(threads, len, &|i| {
        let r = job(i);
        *slots[i].lock().expect("exec result slot poisoned") = Some(r);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("exec result slot poisoned")
                .expect("exec result slot unfilled")
        })
        .collect()
}

/// Runs `task(i)` for every `i` in `0..len` on the caller (participant
/// 0) plus `threads − 1` scoped helpers, and returns once all of them
/// have joined. Block `b` is `[b·len/P, (b+1)·len/P)`; each participant
/// claims its own block one index at a time, then the others' in ring
/// order. The first item panic stops further claims and is re-raised
/// here after the join.
fn fan_out(threads: usize, len: usize, task: &(dyn Fn(usize) + Sync)) {
    let ctx = dpm_obs::Context::current();
    let block_end = |b: usize| (b + 1) * len / threads;
    // `cursors[b]` is block `b`'s next unclaimed index; it may run past
    // the block end, which means empty. `Relaxed` suffices for it and for
    // `stop`: a `fetch_add` hands out each index once under any ordering,
    // and results and the panic payload travel through mutexes and the
    // scope's join.
    let cursors: Vec<AtomicUsize> = (0..threads)
        .map(|b| AtomicUsize::new(b * len / threads))
        .collect();
    let stop = AtomicBool::new(false);
    let payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    let participate = |me: usize| {
        let mut wsp = dpm_obs::span!("exec_worker");
        wsp.add("worker", me as u64);
        for b in (me..threads).chain(0..me) {
            while !stop.load(Ordering::Relaxed) {
                let i = cursors[b].fetch_add(1, Ordering::Relaxed);
                if i >= block_end(b) {
                    break;
                }
                wsp.incr("claimed");
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    payload
                        .lock()
                        .expect("exec panic slot poisoned")
                        .get_or_insert(p);
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
    };
    thread::scope(|scope| {
        for w in 1..threads {
            let (ctx, participate) = (&ctx, &participate);
            // A helper the OS refuses to start is not needed for
            // correctness: the others claim its block in ring order.
            let _ = thread::Builder::new().spawn_scoped(scope, move || {
                let _adopt = ctx.attach();
                participate(w);
            });
        }
        participate(0);
    });
    if let Some(p) = payload.into_inner().expect("exec panic slot poisoned") {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = Pool::new(threads).map_indexed(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn owned_map_consumes_and_orders() {
        let items: Vec<String> = (0..64).map(|i| format!("item{i}")).collect();
        let out = Pool::new(4).map_vec(items, |i, s| format!("{s}/{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(*s, format!("item{i}/{i}"));
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(Pool::new(8).map_indexed(&none, |_, &x| x).is_empty());
        assert_eq!(Pool::new(8).map_indexed(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        // A slow item 0 keeps the caller in its own block while the
        // helpers drain theirs and move on to it; 101 items over 7
        // participants leaves blocks of unequal length.
        let hits: Vec<AtomicU64> = (0..101).map(|_| AtomicU64::new(0)).collect();
        let idx: Vec<usize> = (0..hits.len()).collect();
        Pool::new(7).map_indexed(&idx, |_, &i| {
            if i == 0 {
                thread::sleep(Duration::from_millis(20));
            }
            hits[i].fetch_add(1, Ordering::Relaxed)
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn helpers_start_on_their_own_block() {
        // Width 2 over 8 items: the caller owns [0, 4), the helper
        // [4, 8). Item 0 holds the caller until another item has run, so
        // the helper's first claim must be the head of its own block — a
        // shared counter would hand it 1.
        let caller = thread::current().id();
        let runs = Mutex::new(Vec::new());
        let (ran, other_ran) = mpsc::channel();
        let other_ran = Mutex::new(other_ran);
        let items: Vec<usize> = (0..8).collect();
        Pool::new(2).map_indexed(&items, |i, _| {
            runs.lock().unwrap().push((thread::current().id(), i));
            if i == 0 {
                let _ = other_ran
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(5));
            } else {
                let _ = ran.send(());
            }
        });
        let runs = runs.into_inner().unwrap();
        let first_helper = runs.iter().find(|(id, _)| *id != caller).map(|&(_, i)| i);
        assert_eq!(first_helper, Some(4), "run order: {runs:?}");
    }

    #[test]
    fn panic_propagates_with_payload() {
        let items: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).map_indexed(&items, |_, &i| {
                if i == 13 {
                    panic!("unlucky cell 13");
                }
                i
            })
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload preserved");
        assert_eq!(msg, "unlucky cell 13");
    }

    #[test]
    fn serial_pool_panics_propagate_too() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(1).map_indexed(&[0usize], |_, _| panic!("serial path"))
        }));
        assert!(caught.is_err());
    }

    /// Tests that switch the global recorders must not interleave.
    fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn profiled_workers_nest_under_caller_span() {
        let _g = recorder_lock();
        dpm_obs::prof::reset();
        dpm_obs::prof::enable();
        {
            let _outer = dpm_obs::span!("caller");
            Pool::new(3).map_indexed(&[1u64, 2, 3, 4, 5, 6], |_, &x| x * 2);
        }
        dpm_obs::prof::disable();
        let p = dpm_obs::prof::snapshot();
        let workers = p
            .find(&["caller", "par_map", "exec_worker"])
            .expect("worker frames nest under the issuing span");
        assert!(p.node(workers).count >= 1);
        dpm_obs::prof::reset();
    }

    #[test]
    fn helper_worker_spans_name_par_map_as_parent() {
        let _g = recorder_lock();
        let collector = dpm_obs::install_collector();
        dpm_obs::enable();
        let out = {
            // Other tests in this binary run maps concurrently; the probe
            // span singles out this test's map.
            let _probe = dpm_obs::span!("exec_parent_probe");
            Pool::new(2).map_vec((0..8u64).collect(), |_, x| x + 1)
        };
        dpm_obs::disable();
        dpm_obs::clear_sinks();
        assert_eq!(out, (1..9).collect::<Vec<u64>>());
        let ends: Vec<_> = collector
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == dpm_obs::kind::SPAN_END)
            .collect();
        let id_of = |name: &str, parent: Option<f64>| {
            ends.iter()
                .find(|e| e.name == name && (parent.is_none() || e.num("parent") == parent))
                .and_then(|e| e.num("id"))
        };
        let probe = id_of("exec_parent_probe", None).expect("probe span");
        let map = id_of("par_map", Some(probe)).expect("par_map under the probe");
        let mut workers: Vec<f64> = ends
            .iter()
            .filter(|e| e.name == "exec_worker" && e.num("parent") == Some(map))
            .filter_map(|e| e.num("worker"))
            .collect();
        workers.sort_by(f64::total_cmp);
        assert_eq!(workers, [0.0, 1.0], "both participants name par_map");
    }

    #[test]
    fn pool_width_is_at_least_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::from_env().threads() >= 1);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn concurrent_env_scopes_do_not_overlap() {
        let original = std::env::var("DPM_THREADS").ok();
        let (open_b, b_may_open) = mpsc::channel();
        let (b_inside, inside) = mpsc::channel();
        let (a_checked, checked) = mpsc::channel();
        // B stays inside its scope until A has checked its width (or A's
        // sender drops because A failed).
        let b = thread::spawn(move || {
            b_may_open.recv().unwrap();
            with_env_threads(5, || {
                let _ = b_inside.send(());
                let _ = checked.recv();
            });
        });
        with_env_threads(3, || {
            open_b.send(()).unwrap();
            // With the lock, B cannot get inside until this scope ends.
            let _ = inside.recv_timeout(Duration::from_millis(100));
            assert_eq!(num_threads(), 3, "another scope overwrote the width");
            a_checked.send(()).unwrap();
        });
        b.join().unwrap();
        assert_eq!(std::env::var("DPM_THREADS").ok(), original);
    }
}
