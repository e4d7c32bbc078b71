//! Per-shard workers over bounded queues: the streaming counterpart of
//! [`Pool::map_vec`](crate::Pool::map_vec).
//!
//! A parallel map hands out whole batches, which is wrong for a pipeline
//! that produces one item at a time. [`shard_scope`] instead dedicates
//! one worker per shard for the duration of a feeding closure; the
//! feeder pushes items to shards and pops their outcomes back **in
//! submission order per shard**, which is exactly the contract a
//! serial-order join needs: the sharded disk simulator pushes each
//! request's per-disk pieces as they arrive off the trace stream and
//! joins completions in arrival order, never holding more than its
//! in-flight window.
//!
//! Each worker is a scoped thread spawned for the call and joined before
//! [`shard_scope`] returns; it owns its shard's state by value and hands
//! it back through the join.
//!
//! Determinism: each shard is serviced by exactly one worker, so a
//! shard's outcomes depend only on its own item sequence — wall-clock
//! interleaving across shards cannot affect results. Panics anywhere (a
//! worker's closure or the feeder itself) abort all queues, join every
//! worker, and re-raise the first worker payload on the caller's thread.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread;

use crate::IN_WORKER;

/// A bounded MPSC-ish channel; both ends block, and an abort flag wakes
/// everyone so a panic on either side cannot deadlock the scope join.
struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

struct ChanState<T> {
    q: VecDeque<T>,
    closed: bool,
    aborted: bool,
}

/// The channel was aborted by a panic on the other side.
struct Aborted;

impl<T> Chan<T> {
    fn new(cap: usize) -> Chan<T> {
        Chan {
            state: Mutex::new(ChanState {
                q: VecDeque::new(),
                closed: false,
                aborted: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn push(&self, v: T) -> Result<(), Aborted> {
        let mut st = self.state.lock().expect("shard channel poisoned");
        while st.q.len() >= self.cap && !st.aborted {
            st = self.not_full.wait(st).expect("shard channel poisoned");
        }
        if st.aborted {
            return Err(Aborted);
        }
        st.q.push_back(v);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the next value; `Ok(None)` means closed and drained.
    fn pop(&self) -> Result<Option<T>, Aborted> {
        let mut st = self.state.lock().expect("shard channel poisoned");
        loop {
            if st.aborted {
                return Err(Aborted);
            }
            if let Some(v) = st.q.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Ok(Some(v));
            }
            if st.closed {
                return Ok(None);
            }
            st = self.not_empty.wait(st).expect("shard channel poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("shard channel poisoned").closed = true;
        self.not_empty.notify_all();
    }

    fn abort(&self) {
        self.state.lock().expect("shard channel poisoned").aborted = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// The feeder's handle onto the shard queues: push work in, pop outcomes
/// back in per-shard FIFO order. See [`shard_scope`].
pub struct ShardFeeder<'a, T, R> {
    ins: &'a [Chan<T>],
    outs: &'a [Chan<R>],
}

impl<T, R> ShardFeeder<'_, T, R> {
    /// Number of shards in the scope.
    pub fn shards(&self) -> usize {
        self.ins.len()
    }

    /// Sends `item` to `shard`'s worker, blocking while that shard's input
    /// queue is at capacity (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if a worker has panicked (the worker's own payload is what
    /// reaches the caller of [`shard_scope`]).
    pub fn push(&mut self, shard: usize, item: T) {
        if self.ins[shard].push(item).is_err() {
            panic!("shard worker panicked");
        }
    }

    /// Receives `shard`'s next outcome, blocking until the worker produces
    /// it. Outcomes come back in the order their items were pushed.
    ///
    /// Popping more outcomes than items pushed to that shard blocks the
    /// feeder forever — the per-shard push/pop counts are the caller's
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if a worker has panicked (the worker's own payload is what
    /// reaches the caller of [`shard_scope`]).
    pub fn pop(&mut self, shard: usize) -> R {
        match self.outs[shard].pop() {
            Ok(Some(r)) => r,
            // Outputs are only closed by abort, so both arms mean a dead
            // worker.
            Ok(None) | Err(Aborted) => panic!("shard worker panicked"),
        }
    }
}

/// Runs `feed` with one scoped worker thread per shard, each owning one
/// element of `states`.
///
/// Every item pushed to shard `s` runs through `work(s, &mut states[s],
/// item)` on that shard's worker thread; the outcome is buffered (up to
/// `capacity` per shard, like the input side) until the feeder pops it.
/// Returns the final shard states, in shard order, together with the
/// feeder's result.
///
/// Deadlock freedom is a joint contract: the feeder must pop each shard's
/// outcomes often enough that no more than `capacity` are ever pending
/// per shard (the disk simulator guarantees this by capping its in-flight
/// request window at `capacity`).
///
/// This is a raw primitive: it always spawns `states.len()` workers, so
/// callers decide *whether* to shard (e.g. fall back to a serial loop
/// when [`effective_threads`](crate::effective_threads) says 1). Workers
/// are marked as map participants, so parallel maps issued from inside
/// `work` run serially (depth-1 parallelism, as everywhere in this
/// crate).
///
/// # Panics
///
/// Re-raises the first worker panic (or the feeder's own panic) after all
/// workers have been joined.
pub fn shard_scope<S, T, R, O, W, F>(
    states: Vec<S>,
    capacity: usize,
    work: W,
    feed: F,
) -> (Vec<S>, O)
where
    S: Send,
    T: Send,
    R: Send,
    W: Fn(usize, &mut S, T) -> R + Sync,
    F: FnOnce(&mut ShardFeeder<'_, T, R>) -> O,
{
    let shards = states.len();
    let ins: Vec<Chan<T>> = (0..shards).map(|_| Chan::new(capacity)).collect();
    let outs: Vec<Chan<R>> = (0..shards).map(|_| Chan::new(capacity)).collect();
    let abort_all = || {
        for c in &ins {
            c.abort();
        }
        for c in &outs {
            c.abort();
        }
    };
    let worker_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let ctx = dpm_prof::current_context();

    let body = |shard: usize, mut state: S| -> S {
        IN_WORKER.with(|flag| flag.set(true));
        // Profiled time lands under the scope that opened the shard
        // scope, mirroring the map helpers.
        let _adopt = ctx.attach();
        let _prof = dpm_prof::scope("shard_worker");
        let mut sp = dpm_obs::span!("shard_worker");
        sp.add("shard", shard as u64);
        let run = catch_unwind(AssertUnwindSafe(|| {
            while let Ok(Some(item)) = ins[shard].pop() {
                let r = work(shard, &mut state, item);
                sp.incr("items");
                if outs[shard].push(r).is_err() {
                    break;
                }
            }
        }));
        if let Err(p) = run {
            // First payload wins; abort every queue so the feeder and
            // sibling workers unblock.
            worker_panic
                .lock()
                .expect("shard panic slot poisoned")
                .get_or_insert(p);
            abort_all();
        }
        state
    };
    let (joined, fed) = thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(shard, state)| {
                let body = &body;
                thread::Builder::new()
                    .spawn_scoped(scope, move || body(shard, state))
                    .unwrap_or_else(|e| {
                        // Workers already running would wait on their
                        // queues forever; abort them so the scope joins.
                        abort_all();
                        panic!("cannot spawn shard worker: {e}")
                    })
            })
            .collect();
        let mut feeder = ShardFeeder {
            ins: &ins,
            outs: &outs,
        };
        let fed = catch_unwind(AssertUnwindSafe(|| feed(&mut feeder)));
        if fed.is_err() {
            // A panicking feeder can leave workers blocked pushing into
            // full outcome queues; abort so the join can't hang.
            abort_all();
        } else {
            for c in &ins {
                c.close();
            }
        }
        let joined: Vec<thread::Result<S>> = handles.into_iter().map(|h| h.join()).collect();
        (joined, fed)
    });

    if let Some(p) = worker_panic
        .into_inner()
        .expect("shard panic slot poisoned")
    {
        resume_unwind(p);
    }
    let states = joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| resume_unwind(p)))
        .collect();
    match fed {
        Ok(out) => (states, out),
        Err(p) => resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_come_back_in_per_shard_fifo_order() {
        let states = vec![0u64; 3];
        let (states, total) = shard_scope(
            states,
            4,
            |shard, count, item: u64| {
                *count += 1;
                item * 10 + shard as u64
            },
            |f| {
                let mut total = 0;
                for round in 0..20u64 {
                    for shard in 0..3 {
                        f.push(shard, round);
                    }
                    for shard in 0..3 {
                        assert_eq!(f.pop(shard), round * 10 + shard as u64);
                        total += 1;
                    }
                }
                total
            },
        );
        assert_eq!(total, 60);
        assert_eq!(states, vec![20, 20, 20]);
    }

    #[test]
    fn backpressure_allows_capacity_batches() {
        // Push a full capacity batch before popping anything; the outcome
        // queue must absorb it without deadlock.
        let (states, ()) = shard_scope(
            vec![(); 2],
            8,
            |_, (), item: u32| item + 1,
            |f| {
                for i in 0..8 {
                    f.push(0, i);
                    f.push(1, i);
                }
                for i in 0..8 {
                    assert_eq!(f.pop(0), i + 1);
                    assert_eq!(f.pop(1), i + 1);
                }
            },
        );
        assert_eq!(states.len(), 2);
    }

    #[test]
    fn worker_state_carries_across_items_and_returns() {
        let (states, ()) = shard_scope(
            vec![Vec::new(), Vec::new()],
            2,
            |_, seen: &mut Vec<u32>, item: u32| {
                seen.push(item);
            },
            |f| {
                for i in 0..5 {
                    f.push((i % 2) as usize, i);
                    f.pop((i % 2) as usize);
                }
            },
        );
        assert_eq!(states[0], vec![0, 2, 4]);
        assert_eq!(states[1], vec![1, 3]);
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            shard_scope(
                vec![(); 2],
                2,
                |_, (), item: u32| {
                    if item == 3 {
                        panic!("boom at {item}");
                    }
                    item
                },
                |f| {
                    for i in 0..100 {
                        f.push((i % 2) as usize, i);
                        f.pop((i % 2) as usize);
                    }
                },
            )
        }));
        let payload = r.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 3");
    }

    #[test]
    fn feeder_panic_joins_workers_and_propagates() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            shard_scope(
                vec![(); 2],
                2,
                |_, (), item: u32| item,
                |f| {
                    f.push(0, 1);
                    panic!("feeder gave up");
                },
            )
        }));
        let payload = r.expect_err("feeder panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "feeder gave up");
    }

    #[test]
    fn workers_are_marked_as_map_participants() {
        let (_, nested) = shard_scope(
            vec![()],
            1,
            |_, (), ()| crate::in_worker(),
            |f| {
                f.push(0, ());
                f.pop(0)
            },
        );
        assert!(nested, "shard workers must run with depth-1 nesting");
    }
}
