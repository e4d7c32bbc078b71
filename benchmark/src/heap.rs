//! Heap accounting per thread: a counting wrapper around the system
//! allocator. A cell runs on one thread (maps nested inside a pool worker
//! run serially), so the thread's high-water mark while the cell runs is
//! the heap that cell needed, whichever cells happen to run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn add(delta: isize) {
    // The counters have no destructor, so they stay readable while a
    // thread's other locals are torn down; `try_with` covers the rest.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s guarantees carry over. The
// bookkeeping touches only this thread's counters and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        add(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Runs `f`, returning its result and the most bytes it held allocated on
/// this thread at any one time (memory it frees on another thread, or that
/// another thread frees for it, is not seen).
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let r = f();
    let peak = PEAK.with(Cell::get);
    (r, u64::try_from(peak - start).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_what_is_held_at_once() {
        let ((), peak) = peak_during(|| {
            let a = vec![0u8; 1 << 20];
            drop(a);
            let b = vec![0u8; 1 << 19];
            let c = vec![0u8; 1 << 19];
            std::hint::black_box((b, c));
        });
        assert!((1 << 20..(1 << 20) + 4096).contains(&peak), "{peak}");
    }
}
