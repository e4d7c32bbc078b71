//! I/O-node-level striping: the disk layout that the paper exposes to the
//! compiler (§2).
//!
//! A file's bytes are cut into *stripe units* (Table 1 default: 32 KB) and
//! dealt round-robin across the I/O nodes, beginning at a configurable
//! *starting iodevice*. The compiler reasons at this level; any RAID-level
//! striping below an I/O node is invisible to it (and is modeled only inside
//! the simulator).

use std::fmt;

/// Identifies an I/O node ("disk" in the paper's terminology, §2).
pub type DiskId = usize;

/// Round-robin striping parameters (the `pvfs_filestat`-visible layout).
///
/// # Examples
///
/// ```
/// use dpm_layout::Striping;
/// let s = Striping::paper_default(); // 32 KB unit, 8 disks, start disk 0
/// assert_eq!(s.disk_of_stripe(0), 0);
/// assert_eq!(s.disk_of_stripe(9), 1);
/// assert_eq!(s.disk_of_offset(32 * 1024), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Striping {
    stripe_unit: u64,
    num_disks: usize,
    start_disk: DiskId,
}

impl Striping {
    /// Creates a striping description.
    ///
    /// # Panics
    ///
    /// Panics if `stripe_unit == 0`, `num_disks == 0`, or
    /// `start_disk >= num_disks`.
    pub fn new(stripe_unit: u64, num_disks: usize, start_disk: DiskId) -> Self {
        assert!(stripe_unit > 0, "stripe unit must be positive");
        assert!(num_disks > 0, "need at least one disk");
        assert!(start_disk < num_disks, "start disk out of range");
        Striping {
            stripe_unit,
            num_disks,
            start_disk,
        }
    }

    /// The paper's Table 1 defaults: 32 KB stripe unit, 8 disks, striping
    /// starting at the first disk.
    pub fn paper_default() -> Self {
        Striping::new(32 * 1024, 8, 0)
    }

    /// Stripe unit in bytes.
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// Stripe factor (number of I/O nodes used for striping).
    pub fn num_disks(&self) -> usize {
        self.num_disks
    }

    /// The first disk where striping starts.
    pub fn start_disk(&self) -> DiskId {
        self.start_disk
    }

    /// The disk holding global stripe index `stripe`.
    pub fn disk_of_stripe(&self, stripe: u64) -> DiskId {
        ((stripe + self.start_disk as u64) % self.num_disks as u64) as DiskId
    }

    /// The disk-local block index of global stripe `stripe` (its position
    /// among the stripes stored on the same disk).
    pub fn local_block_of_stripe(&self, stripe: u64) -> u64 {
        (stripe + self.start_disk as u64) / self.num_disks as u64
    }

    /// The global stripe index containing byte `offset`.
    pub fn stripe_of_offset(&self, offset: u64) -> u64 {
        offset / self.stripe_unit
    }

    /// The disk holding byte `offset`.
    pub fn disk_of_offset(&self, offset: u64) -> DiskId {
        self.disk_of_stripe(self.stripe_of_offset(offset))
    }

    /// Full location (disk, disk-local block, stripe) of byte `offset`.
    pub fn locate_offset(&self, offset: u64) -> DiskLocation {
        let stripe = self.stripe_of_offset(offset);
        DiskLocation {
            disk: self.disk_of_stripe(stripe),
            local_block: self.local_block_of_stripe(stripe),
            stripe,
        }
    }

    /// Bytes in one full stripe row (one stripe on every disk).
    pub fn stripe_row_bytes(&self) -> u64 {
        self.stripe_unit * self.num_disks as u64
    }

    /// Rounds `len` up to a whole number of stripe rows, so that a file
    /// occupying the rounded size ends exactly at a row boundary and the
    /// next file starts again at the starting disk.
    pub fn round_to_stripe_row(&self, len: u64) -> u64 {
        let row = self.stripe_row_bytes();
        len.div_ceil(row) * row
    }
}

impl Default for Striping {
    fn default() -> Self {
        Striping::paper_default()
    }
}

impl fmt::Display for Striping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stripe_unit={}B, stripe_factor={}, start_disk={}",
            self.stripe_unit, self.num_disks, self.start_disk
        )
    }
}

impl Striping {
    /// Splits the byte range `[offset, offset + len)` into per-disk
    /// contiguous pieces `(disk, local_byte, len)`. Consecutive stripes on
    /// the same disk are merged into one piece (they are adjacent in the
    /// disk's local address space).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn split_range(&self, offset: u64, len: u64) -> Vec<(DiskId, u64, u64)> {
        let mut out = Vec::new();
        self.split_range_into(offset, len, &mut out);
        out
    }

    /// Allocation-reusing variant of [`split_range`](Self::split_range):
    /// clears `out` and fills it with the same pieces, sorted by
    /// `(disk, local_byte)`. Hot loops (the simulator's request loop, the
    /// trace generator's blocking estimate) keep one scratch `Vec` alive
    /// instead of allocating per request.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn split_range_into(&self, offset: u64, len: u64, out: &mut Vec<(DiskId, u64, u64)>) {
        assert!(len > 0, "range length must be positive");
        out.clear();
        let su = self.stripe_unit;
        let stripe = self.stripe_of_offset(offset);
        let within = offset - stripe * su;
        if len <= su - within {
            // Inside one stripe unit: a single piece, nothing to merge.
            let local = self.local_block_of_stripe(stripe) * su + within;
            out.push((self.disk_of_stripe(stripe), local, len));
            return;
        }
        self.split_pieces(offset, len, out);
    }

    /// The general split behind [`split_range_into`](Self::split_range_into):
    /// one piece per stripe, sorted, then locally adjacent pieces merged.
    fn split_pieces(&self, offset: u64, len: u64, out: &mut Vec<(DiskId, u64, u64)>) {
        let su = self.stripe_unit;
        let first = self.stripe_of_offset(offset);
        let last = self.stripe_of_offset(offset + len - 1);
        for s in first..=last {
            let stripe_lo = s * su;
            let lo = offset.max(stripe_lo);
            let hi = (offset + len).min(stripe_lo + su);
            let local = self.local_block_of_stripe(s) * su + (lo - stripe_lo);
            out.push((self.disk_of_stripe(s), local, hi - lo));
        }
        // A disk's stripes within the range have strictly increasing local
        // addresses, so after this sort any mergeable (locally adjacent)
        // pieces sit next to each other.
        out.sort_by_key(|&(d, b, _)| (d, b));
        let mut w = 0;
        for r in 1..out.len() {
            let (rd, rb, rl) = out[r];
            let (wd, wb, wl) = out[w];
            if wd == rd && wb + wl == rb {
                out[w].2 += rl;
            } else {
                w += 1;
                out[w] = (rd, rb, rl);
            }
        }
        out.truncate(w + 1);
    }
}

/// Where a byte lives: the owning disk, the disk-local block index, and the
/// global stripe index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DiskLocation {
    /// Owning I/O node.
    pub disk: DiskId,
    /// Index of the stripe among those stored on `disk` (sequential
    /// on-platter ordering).
    pub local_block: u64,
    /// Global stripe index within the volume.
    pub stripe: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment() {
        let s = Striping::new(1024, 4, 0);
        let disks: Vec<DiskId> = (0..8).map(|i| s.disk_of_stripe(i)).collect();
        assert_eq!(disks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn start_disk_shifts_assignment() {
        let s = Striping::new(1024, 4, 2);
        let disks: Vec<DiskId> = (0..6).map(|i| s.disk_of_stripe(i)).collect();
        assert_eq!(disks, vec![2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn local_blocks_are_sequential_per_disk() {
        let s = Striping::new(1024, 4, 0);
        // Stripes 2, 6, 10 live on disk 2 at local blocks 0, 1, 2.
        for (k, stripe) in [2u64, 6, 10].iter().enumerate() {
            assert_eq!(s.disk_of_stripe(*stripe), 2);
            assert_eq!(s.local_block_of_stripe(*stripe), k as u64);
        }
    }

    #[test]
    fn offset_location() {
        let s = Striping::new(32 * 1024, 8, 0);
        let loc = s.locate_offset(32 * 1024 * 9 + 5);
        assert_eq!(loc.stripe, 9);
        assert_eq!(loc.disk, 1);
        assert_eq!(loc.local_block, 1);
    }

    #[test]
    fn stripe_row_rounding() {
        let s = Striping::new(1024, 4, 0);
        assert_eq!(s.stripe_row_bytes(), 4096);
        assert_eq!(s.round_to_stripe_row(1), 4096);
        assert_eq!(s.round_to_stripe_row(4096), 4096);
        assert_eq!(s.round_to_stripe_row(4097), 8192);
    }

    #[test]
    fn split_range_pieces_cover_length() {
        let s = Striping::new(1024, 4, 0);
        for (off, len) in [(0u64, 10_000u64), (777, 5_000), (1023, 2), (4096, 1)] {
            let total: u64 = s.split_range(off, len).iter().map(|&(_, _, l)| l).sum();
            assert_eq!(total, len, "off={off} len={len}");
        }
        // Two full rows merge per disk.
        let pieces = s.split_range(0, 8 * 1024);
        assert_eq!(pieces.len(), 4);
        assert!(pieces.iter().all(|&(_, b, l)| b == 0 && l == 2048));
        // Exact pieces: inside one stripe, one whole stripe, and a stripe-0
        // tail, a full stripe 1 and a stripe-2 head.
        for (off, len, want) in [
            (100u64, 200u64, vec![(0, 100, 200)]),
            (1024, 1024, vec![(1, 0, 1024)]),
            (512, 2048, vec![(0, 512, 512), (1, 0, 1024), (2, 0, 512)]),
        ] {
            assert_eq!(s.split_range(off, len), want, "off={off} len={len}");
        }
    }

    /// The one-piece path against the general split, over seeded
    /// stripings (stripe units that are not powers of two, 3 and 72 disks,
    /// start disks other than 0) and ranges that lie inside one stripe,
    /// straddle two, or span several; each offset also gets the two
    /// lengths either side of its stripe boundary.
    #[test]
    fn one_piece_path_matches_the_general_split() {
        let mut rng = dpm_obs::XorShift64Star::new(0x5717);
        let (mut fast, mut general) = (Vec::new(), Vec::new());
        let mut one_piece = 0;
        for disks in [3usize, 72] {
            for _ in 0..8 {
                let su = 3 + rng.next_u64() % 40_000;
                let start = 1 + rng.next_u64() as usize % (disks - 1);
                let s = Striping::new(su, disks, start);
                let row = s.stripe_row_bytes();
                for _ in 0..200 {
                    let offset = rng.next_u64() % (4 * row);
                    let to_boundary = su - offset % su;
                    for len in [
                        1 + rng.next_u64() % to_boundary,
                        to_boundary,
                        to_boundary + 1,
                        to_boundary + 1 + rng.next_u64() % su,
                        to_boundary + su + 1 + rng.next_u64() % (2 * row),
                    ] {
                        s.split_range_into(offset, len, &mut fast);
                        general.clear();
                        s.split_pieces(offset, len, &mut general);
                        assert_eq!(fast, general, "{s}: offset {offset} len {len}");
                        assert_eq!(fast.len() == 1, len <= to_boundary, "{s}: {offset}+{len}");
                        one_piece += usize::from(fast.len() == 1);
                    }
                }
            }
        }
        assert_eq!(one_piece, 2 * 2 * 8 * 200);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_disks() {
        let _ = Striping::new(1024, 0, 0);
    }
}
