//! Flat per-processor generator state: the reuse window.
//!
//! It runs once per block, so it is a fixed-size structure allocated when
//! a processor's state is built; nothing allocates or resizes per access.

/// Marks an empty slot of the window's table. Block numbers are byte
/// offsets divided by a block size of at least one byte, and a request
/// never reaches `u64::MAX`, so no real block collides with it.
const EMPTY: u64 = u64::MAX;

/// The per-processor reuse window: the last `cap` distinct missed blocks,
/// evicted first in, first out.
///
/// A fixed ring holds the eviction order. An open-addressed `u64` table
/// (multiplicative hash, linear probing, at most an eighth full) answers
/// membership, and deletes by backward shift, so no tombstones build up.
/// Entries are unique, because a block is only recorded after a miss, so
/// ring and table always hold the same set: the hit/miss sequence is that
/// of a FIFO list of the last `cap` misses.
#[derive(Debug)]
pub(crate) struct ReuseWindow {
    /// Recorded blocks; `ring[head]` is the oldest once the ring is full.
    ring: Box<[u64]>,
    head: usize,
    len: usize,
    table: Box<[u64]>,
    mask: usize,
    shift: u32,
}

impl ReuseWindow {
    /// A window remembering `cap` blocks; `cap == 0` disables it (every
    /// block misses and nothing is recorded).
    pub(crate) fn with_capacity(cap: usize) -> ReuseWindow {
        let slots = (cap.max(1) * 8).next_power_of_two();
        ReuseWindow {
            ring: vec![0; cap].into_boxed_slice(),
            head: 0,
            len: 0,
            table: vec![EMPTY; slots].into_boxed_slice(),
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    #[inline]
    fn home(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Touches `block`: `true` on a hit. A miss records the block, evicting
    /// the oldest one when the window is full.
    #[inline]
    pub(crate) fn touch(&mut self, block: u64) -> bool {
        debug_assert_ne!(block, EMPTY);
        let cap = self.ring.len();
        if cap == 0 {
            return false;
        }
        let home = self.home(block);
        let mut i = home;
        loop {
            let v = self.table[i];
            if v == block {
                return true;
            }
            if v == EMPTY {
                break;
            }
            i = (i + 1) & self.mask;
        }
        if self.len < cap {
            let tail = self.head + self.len;
            self.ring[if tail >= cap { tail - cap } else { tail }] = block;
            self.len += 1;
        } else {
            let old = std::mem::replace(&mut self.ring[self.head], block);
            self.head = if self.head + 1 == cap {
                0
            } else {
                self.head + 1
            };
            // The removal empties exactly one slot and leaves slot `i`
            // empty, so `block` goes to whichever of the two its probe
            // path reaches first.
            let freed = self.remove(old);
            if freed.wrapping_sub(home) & self.mask < i.wrapping_sub(home) & self.mask {
                i = freed;
            }
        }
        self.table[i] = block;
        false
    }

    /// Deletes a present `block`, shifting later members of its probe run
    /// back so every remaining entry stays reachable from its home slot.
    /// Returns the slot left empty.
    fn remove(&mut self, block: u64) -> usize {
        let mut hole = self.home(block);
        while self.table[hole] != block {
            hole = (hole + 1) & self.mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let v = self.table[j];
            if v == EMPTY {
                break;
            }
            // `v` may fill the hole when the hole lies on its probe path,
            // i.e. no farther from `j` than `v`'s home slot is.
            let home = self.home(v);
            if j.wrapping_sub(home) & self.mask >= j.wrapping_sub(hole) & self.mask {
                self.table[hole] = v;
                hole = j;
            }
        }
        self.table[hole] = EMPTY;
        hole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_obs::XorShift64Star;
    use std::collections::{HashSet, VecDeque};

    /// The list semantics the window must reproduce: a FIFO of the last
    /// `cap` misses with a set beside it.
    struct ModelWindow {
        fifo: VecDeque<u64>,
        set: HashSet<u64>,
        cap: usize,
    }

    impl ModelWindow {
        fn touch(&mut self, block: u64) -> bool {
            if self.cap == 0 {
                return false;
            }
            if self.set.contains(&block) {
                return true;
            }
            if self.fifo.len() == self.cap {
                let old = self.fifo.pop_front().unwrap();
                self.set.remove(&old);
            }
            self.fifo.push_back(block);
            self.set.insert(block);
            false
        }
    }

    /// A block stream mixing sequential runs, re-touches of recent blocks
    /// and random jumps over a span a few times the window.
    fn blocks(seed: u64, span: u64, n: usize) -> Vec<u64> {
        let mut rng = XorShift64Star::new(seed);
        let mut out = Vec::with_capacity(n);
        let mut cur = 0u64;
        while out.len() < n {
            match rng.next_u64() % 4 {
                0 => {
                    let run = rng.next_u64() % 16;
                    for _ in 0..run {
                        cur = (cur + 1) % span;
                        out.push(cur);
                    }
                }
                1 if !out.is_empty() => {
                    let back = (rng.next_u64() as usize) % out.len().min(64);
                    out.push(out[out.len() - 1 - back]);
                }
                _ => {
                    cur = rng.next_u64() % span;
                    out.push(cur);
                }
            }
        }
        out
    }

    #[test]
    fn window_matches_the_list_model() {
        for cap in [0usize, 1, 2, 128, 1000] {
            for seed in 1..=4u64 {
                let mut window = ReuseWindow::with_capacity(cap);
                let mut model = ModelWindow {
                    fifo: VecDeque::new(),
                    set: HashSet::new(),
                    cap,
                };
                let span = 3 * cap as u64 + 7;
                let stream = blocks(seed * 0x9e37 + cap as u64, span, 20_000);
                let mut hits = 0;
                for (i, &b) in stream.iter().enumerate() {
                    let want = model.touch(b);
                    assert_eq!(
                        window.touch(b),
                        want,
                        "cap {cap} seed {seed} step {i} block {b}"
                    );
                    hits += usize::from(want);
                }
                if cap > 0 {
                    assert!(hits > 0 && hits < stream.len(), "cap {cap}: {hits} hits");
                }
            }
        }
    }
}
