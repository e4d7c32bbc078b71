//! Mapping a program's disk-resident arrays onto the striped volume.
//!
//! Each array is stored in its own file (the paper's one-to-one assumption,
//! §2); files are laid out back-to-back in a logical volume, each starting
//! on a stripe-row boundary so striping restarts at the starting disk. The
//! compiler queries this map to learn which I/O node an element lives on.

use crate::mapping::FileMapping;
use crate::striping::{DiskId, DiskLocation, Striping};
use dpm_ir::{ArrayId, Program};
use std::fmt;

/// A contiguous run of one array's linearized elements placed at a volume
/// byte offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Segment {
    /// First linearized element index covered.
    lin_lo: u64,
    /// Last linearized element index covered (inclusive).
    lin_hi: u64,
    /// Volume byte offset of element `lin_lo`.
    base: u64,
}

/// The volume layout for one program: per-array file extents over a shared
/// [`Striping`].
///
/// # Examples
///
/// ```
/// use dpm_layout::{LayoutMap, Striping};
/// let p = dpm_ir::parse_program(
///     "program t; array A[64][64] : f64; nest L { for i = 0 .. 0 { A[0][0] = 1; } }",
/// ).unwrap();
/// let map = LayoutMap::new(&p, Striping::new(4096, 4, 0));
/// // Row 0 (512 B) sits inside stripe 0 on disk 0.
/// assert_eq!(map.disk_of_element(&p, 0, &[0, 0]), 0);
/// // Element (8, 0) starts at byte 8*64*8 = 4096 → stripe 1 → disk 1.
/// assert_eq!(map.disk_of_element(&p, 0, &[8, 0]), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LayoutMap {
    striping: Striping,
    /// Byte offset of each array's *first* segment within the volume.
    file_base: Vec<u64>,
    /// Total bytes attributed to each array (rounded file size for the
    /// default one-to-one mapping; raw slice bytes for relaxed mappings).
    file_len: Vec<u64>,
    /// Per-array placement segments, sorted by `lin_lo`.
    segments: Vec<Vec<Segment>>,
    /// Whether the default one array ↔ one file mapping is in effect.
    one_to_one: bool,
    volume: u64,
}

impl LayoutMap {
    /// Lays out every array of `program` consecutively under `striping`
    /// with the paper's default one-array-per-file mapping (§2).
    pub fn new(program: &Program, striping: Striping) -> Self {
        Self::with_mapping(program, striping, &FileMapping::one_to_one(program))
    }

    /// Lays out the arrays under a relaxed array↔file mapping (§2's
    /// one-to-many / many-to-one options). Files are placed in mapping
    /// order, each starting on a stripe-row boundary; slices within a file
    /// pack back-to-back, so arrays sharing a file have their striping
    /// phase shifted by their predecessors.
    pub fn with_mapping(program: &Program, striping: Striping, mapping: &FileMapping) -> Self {
        let n = program.arrays.len();
        let mut segments: Vec<Vec<Segment>> = vec![Vec::new(); n];
        let mut file_len = vec![0u64; n];
        let mut cursor = 0u64;
        for file in mapping.files() {
            let mut within = 0u64;
            for slice in file {
                let decl = &program.arrays[slice.array];
                let row_elems: u64 = decl.dims[1..].iter().product();
                let bytes = mapping.slice_bytes(program, slice);
                segments[slice.array].push(Segment {
                    lin_lo: slice.row_lo * row_elems,
                    lin_hi: (slice.row_hi + 1) * row_elems - 1,
                    base: cursor + within,
                });
                file_len[slice.array] += bytes;
                within += bytes;
            }
            cursor += striping.round_to_stripe_row(within.max(1));
        }
        let one_to_one = segments
            .iter()
            .all(|segs| segs.len() == 1 && segs[0].lin_lo == 0)
            && mapping.files().iter().all(|f| f.len() == 1);
        if one_to_one {
            // Preserve the historical meaning: rounded file sizes.
            for (len, decl) in file_len.iter_mut().zip(&program.arrays) {
                *len = striping.round_to_stripe_row(decl.size_bytes());
            }
        }
        let mut segs_sorted = segments;
        for s in &mut segs_sorted {
            s.sort_by_key(|seg| seg.lin_lo);
        }
        LayoutMap {
            striping,
            file_base: segs_sorted
                .iter()
                .map(|s| s.first().map_or(0, |seg| seg.base))
                .collect(),
            file_len,
            segments: segs_sorted,
            one_to_one,
            volume: cursor,
        }
    }

    /// Whether the default one-array-per-file mapping is in effect (the
    /// symbolic restructurer requires it).
    pub fn is_one_to_one(&self) -> bool {
        self.one_to_one
    }

    /// The shared striping parameters.
    pub fn striping(&self) -> &Striping {
        &self.striping
    }

    /// Volume byte offset of the start of `array`'s (first) file segment.
    ///
    /// # Panics
    ///
    /// Panics if `array` is out of range.
    pub fn file_base(&self, array: ArrayId) -> u64 {
        self.file_base[array]
    }

    /// Bytes attributed to `array`: the rounded file size under the
    /// one-to-one mapping, the raw slice total under relaxed mappings.
    ///
    /// # Panics
    ///
    /// Panics if `array` is out of range.
    pub fn file_len(&self, array: ArrayId) -> u64 {
        self.file_len[array]
    }

    /// Total volume size in bytes.
    pub fn volume_bytes(&self) -> u64 {
        self.volume
    }

    /// Number of files (arrays) placed in the volume.
    pub fn num_files(&self) -> usize {
        self.file_base.len()
    }

    /// Volume byte offset of an element.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn element_offset(&self, program: &Program, array: ArrayId, coords: &[i64]) -> u64 {
        let decl = &program.arrays[array];
        self.linear_offset(array, decl.linearize(coords), u64::from(decl.elem_bytes))
    }

    /// Volume byte offset of `array`'s element with row-major linearized
    /// index `lin` (as [`ArrayDecl::linearize`](dpm_ir::ArrayDecl::linearize)
    /// computes it), for elements of `elem_bytes` bytes. A single-segment
    /// array maps with no search; relaxed multi-segment mappings
    /// binary-search their segments.
    ///
    /// # Panics
    ///
    /// Panics if `array` is out of range or, under a multi-segment
    /// mapping, `lin` lies past the last segment.
    #[inline]
    pub fn linear_offset(&self, array: ArrayId, lin: u64, elem_bytes: u64) -> u64 {
        let segs = &self.segments[array];
        let seg = match segs.as_slice() {
            [only] => only,
            _ => &segs[segs.partition_point(|s| s.lin_hi < lin)],
        };
        debug_assert!(seg.lin_lo <= lin && lin <= seg.lin_hi);
        seg.base + (lin - seg.lin_lo) * elem_bytes
    }

    /// Full disk location of an element's first byte.
    pub fn locate_element(
        &self,
        program: &Program,
        array: ArrayId,
        coords: &[i64],
    ) -> DiskLocation {
        self.striping
            .locate_offset(self.element_offset(program, array, coords))
    }

    /// The I/O node owning an element's first byte.
    pub fn disk_of_element(&self, program: &Program, array: ArrayId, coords: &[i64]) -> DiskId {
        self.locate_element(program, array, coords).disk
    }

    /// The set of disks an element's byte range `[start, start+len)`
    /// touches (an element larger than a stripe unit spans several disks).
    pub fn disks_of_element(
        &self,
        program: &Program,
        array: ArrayId,
        coords: &[i64],
    ) -> Vec<DiskId> {
        let decl = &program.arrays[array];
        let start = self.element_offset(program, array, coords);
        let end = start + u64::from(decl.elem_bytes) - 1;
        let first = self.striping.stripe_of_offset(start);
        let last = self.striping.stripe_of_offset(end);
        let mut out = Vec::new();
        for s in first..=last {
            let d = self.striping.disk_of_stripe(s);
            if !out.contains(&d) {
                out.push(d);
            }
            if out.len() == self.striping.num_disks() {
                break;
            }
        }
        out
    }

    /// Bitmask form of [`disks_of_element`](Self::disks_of_element) for
    /// footprint hot loops: bit `d` set ⇔ disk `d` holds part of the
    /// element. Allocation-free; supports up to 64 disks.
    ///
    /// # Panics
    ///
    /// Panics if a touched disk id is ≥ 64.
    pub fn disk_mask_of_element(&self, program: &Program, array: ArrayId, coords: &[i64]) -> u64 {
        let decl = &program.arrays[array];
        self.disk_mask_of_bytes(
            self.element_offset(program, array, coords),
            u64::from(decl.elem_bytes),
        )
    }

    /// Bitmask of the disks holding part of the volume bytes
    /// `[start, start + len)` for a positive `len`: the mask
    /// [`disk_mask_of_element`](Self::disk_mask_of_element) computes for an
    /// element of `len` bytes at `start`.
    ///
    /// # Panics
    ///
    /// Panics if a touched disk id is ≥ 64.
    #[inline]
    pub fn disk_mask_of_bytes(&self, start: u64, len: u64) -> u64 {
        let end = start + len - 1;
        let first = self.striping.stripe_of_offset(start);
        let last = self.striping.stripe_of_offset(end);
        let mut mask = 0u64;
        for s in first..=last {
            let d = self.striping.disk_of_stripe(s);
            assert!(d < 64, "disk id {d} exceeds the 64-disk mask limit");
            mask |= 1 << d;
            if mask.count_ones() as usize == self.striping.num_disks() {
                break;
            }
        }
        mask
    }

    /// Number of elements of `array` that fit in one stripe unit (at least
    /// 1; elements larger than a stripe span stripes instead).
    pub fn elements_per_stripe(&self, program: &Program, array: ArrayId) -> u64 {
        let eb = u64::from(program.arrays[array].elem_bytes);
        (self.striping.stripe_unit() / eb).max(1)
    }

    /// The array's placement segments as `(lin_lo, lin_hi, base_byte)`
    /// triples, sorted by linearized element index (`lin_hi` inclusive,
    /// `base_byte` = volume offset of element `lin_lo`). Exposed for
    /// static layout lints: coverage (no gaps), uniqueness (no
    /// double-mapping), and volume-bounds checks.
    pub fn segments(&self, array: ArrayId) -> Vec<(u64, u64, u64)> {
        self.segments[array]
            .iter()
            .map(|s| (s.lin_lo, s.lin_hi, s.base))
            .collect()
    }
}

impl fmt::Display for LayoutMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "layout: {}", self.striping)?;
        for (i, (b, l)) in self.file_base.iter().zip(&self.file_len).enumerate() {
            writeln!(f, "  file {i}: base={b} len={l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_ir::parse_program;

    fn prog() -> Program {
        parse_program(
            "program t;
             array A[16][16] : f64;
             array B[16][16] : f64;
             nest L { for i = 0 .. 0 { A[0][0] = B[0][0]; } }",
        )
        .unwrap()
    }

    #[test]
    fn files_start_on_stripe_rows() {
        let p = prog();
        let m = LayoutMap::new(&p, Striping::new(512, 4, 0));
        // A is 16*16*8 = 2048 B = one stripe row of 4 * 512.
        assert_eq!(m.file_base(0), 0);
        assert_eq!(m.file_base(1), 2048);
        assert_eq!(m.volume_bytes(), 4096);
        // Both files start on disk 0.
        assert_eq!(m.disk_of_element(&p, 0, &[0, 0]), 0);
        assert_eq!(m.disk_of_element(&p, 1, &[0, 0]), 0);
    }

    #[test]
    fn element_disk_round_robin() {
        let p = prog();
        // 512 B stripe = 64 elements = 4 rows of 16.
        let m = LayoutMap::new(&p, Striping::new(512, 4, 0));
        assert_eq!(m.disk_of_element(&p, 0, &[0, 0]), 0);
        assert_eq!(m.disk_of_element(&p, 0, &[3, 15]), 0);
        assert_eq!(m.disk_of_element(&p, 0, &[4, 0]), 1);
        assert_eq!(m.disk_of_element(&p, 0, &[8, 0]), 2);
        assert_eq!(m.disk_of_element(&p, 0, &[12, 0]), 3);
        assert_eq!(m.elements_per_stripe(&p, 0), 64);
    }

    #[test]
    fn large_elements_span_disks() {
        let p = parse_program(
            "program t; array T[4] : f64;
             nest L { for i = 0 .. 0 { T[0] = 1; } }",
        )
        .unwrap();
        // Stripe unit 4 B < 8 B element: each element spans 2 stripes.
        let m = LayoutMap::new(&p, Striping::new(4, 4, 0));
        assert_eq!(m.disks_of_element(&p, 0, &[0]), vec![0, 1]);
        assert_eq!(m.disks_of_element(&p, 0, &[1]), vec![2, 3]);
        assert_eq!(m.elements_per_stripe(&p, 0), 1);
    }

    #[test]
    fn shared_file_shifts_striping_phase() {
        let p = prog();
        let striping = Striping::new(512, 4, 0);
        let separate = LayoutMap::new(&p, striping);
        let shared =
            LayoutMap::with_mapping(&p, striping, &crate::FileMapping::shared(&p, &[vec![0, 1]]));
        assert!(!shared.is_one_to_one());
        // Separately-filed B starts on disk 0; packed behind A (2048 B =
        // exactly one stripe row here) it also lands on disk 0 — so pad A
        // to break alignment with a 3-disk striping instead.
        let striping3 = Striping::new(512, 3, 0);
        let shared3 = LayoutMap::with_mapping(
            &p,
            striping3,
            &crate::FileMapping::shared(&p, &[vec![0, 1]]),
        );
        let separate3 = LayoutMap::new(&p, striping3);
        // A is 2048 B = 4 stripes; B's first element follows immediately →
        // stripe 4 → disk 1 under the shared file, disk 0 separately.
        assert_eq!(separate3.disk_of_element(&p, 1, &[0, 0]), 0);
        assert_eq!(shared3.disk_of_element(&p, 1, &[0, 0]), 1);
        // Offsets remain within the (smaller) shared volume.
        assert!(shared.volume_bytes() <= separate.volume_bytes());
    }

    #[test]
    fn split_rows_places_pieces_on_fresh_stripe_rows() {
        let p = prog();
        let striping = Striping::new(512, 4, 0);
        let split =
            LayoutMap::with_mapping(&p, striping, &crate::FileMapping::split_rows(&p, 0, 2));
        assert!(!split.is_one_to_one());
        // Rows 0..7 in file 0, rows 8..15 in file 1: both files start at a
        // stripe-row boundary, i.e. on disk 0 — whereas under one-to-one
        // row 8 (offset 8*128 = 1024 → stripe 2) would sit on disk 2.
        assert_eq!(split.disk_of_element(&p, 0, &[0, 0]), 0);
        assert_eq!(split.disk_of_element(&p, 0, &[8, 0]), 0);
        let plain = LayoutMap::new(&p, striping);
        assert_eq!(plain.disk_of_element(&p, 0, &[8, 0]), 2);
        // Element offsets stay monotone within each piece.
        assert!(split.element_offset(&p, 0, &[7, 15]) < split.element_offset(&p, 0, &[8, 0]));
    }

    #[test]
    fn relaxed_mapping_round_trips_every_element() {
        let p = prog();
        let striping = Striping::new(512, 4, 0);
        for mapping in [
            crate::FileMapping::shared(&p, &[vec![1, 0]]),
            crate::FileMapping::split_rows(&p, 0, 3),
        ] {
            let m = LayoutMap::with_mapping(&p, striping, &mapping);
            // No two elements may collide in the volume.
            let mut seen = std::collections::HashSet::new();
            for (a, decl) in p.arrays.iter().enumerate() {
                for r in 0..decl.dims[0] as i64 {
                    for c in 0..decl.dims[1] as i64 {
                        let off = m.element_offset(&p, a, &[r, c]);
                        assert!(seen.insert(off), "offset collision at {off}");
                        assert!(off < m.volume_bytes());
                    }
                }
            }
        }
    }

    #[test]
    fn offsets_are_row_major() {
        let p = prog();
        let m = LayoutMap::new(&p, Striping::paper_default());
        assert_eq!(m.element_offset(&p, 0, &[0, 1]), 8);
        assert_eq!(m.element_offset(&p, 0, &[1, 0]), 16 * 8);
        // B's offsets start after A's rounded file.
        assert_eq!(m.element_offset(&p, 1, &[0, 0]), m.file_base(1));
    }
}
