//! Log-bucketed (HDR-style) histograms with constant memory and exact
//! mergeability.
//!
//! Values are `u64` in a caller-chosen unit (the simulator records
//! microseconds of *simulated* time, so results are bit-reproducible at
//! any thread count). Buckets are linear below `2^sub_bits` and then
//! `2^sub_bits` sub-buckets per power of two, giving a bounded relative
//! error of `2^-sub_bits` at a few kilobytes of fixed storage — the
//! classic HDR-histogram layout, reduced to what the simulator needs.
//!
//! It sits beside [`IdleHistogram`](crate::IdleHistogram) because the two
//! answer different questions. `IdleHistogram` counts idle periods into
//! the paper's fixed buckets, whose edges (the TPM break-even among them)
//! must be exact; a `LogHistogram` reports quantiles of values with no
//! known range (service times, spin-up stalls) at bounded relative error.
//!
//! Merging is exact (per-bucket addition), commutative, and associative:
//! merging per-disk histograms equals the single-stream histogram over
//! the concatenated values. The workspace's streaming-metrics tests pin
//! that property, because the run-level metrics rely on it:
//! `SimReport::merged_stream_metrics` folds the per-disk sets into the
//! totals `RunReport` exports.

use dpm_obs::Json;

/// A fixed-shape log-bucketed histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    sub_bits: u32,
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Sub-bucket resolution used by the simulator's histograms: 16
/// sub-buckets per octave, ≤ 6.25% relative bucket error.
pub const DEFAULT_SUB_BITS: u32 = 4;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(DEFAULT_SUB_BITS)
    }
}

impl LogHistogram {
    /// Creates an empty histogram with `2^sub_bits` sub-buckets per
    /// octave. All histograms that will be merged must share `sub_bits`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bits <= 8`.
    pub fn new(sub_bits: u32) -> LogHistogram {
        assert!((1..=8).contains(&sub_bits), "sub_bits out of range");
        let len = Self::index_of(u64::MAX, sub_bits) + 1;
        LogHistogram {
            sub_bits,
            counts: vec![0; len],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `v`: identity below `2^sub_bits`, then
    /// `2^sub_bits` linear sub-buckets per octave.
    fn index_of(v: u64, sub_bits: u32) -> usize {
        let sub = 1u64 << sub_bits;
        if v < sub {
            return v as usize;
        }
        let msb = 63 - u64::from(v.leading_zeros());
        let shift = msb - u64::from(sub_bits);
        (((shift + 1) << sub_bits) + ((v >> shift) - sub)) as usize
    }

    /// Lowest value mapping to bucket `ix`.
    fn bucket_low(&self, ix: usize) -> u64 {
        let sub = 1u64 << self.sub_bits;
        let ix = ix as u64;
        if ix < sub {
            return ix;
        }
        let octave = (ix >> self.sub_bits) - 1;
        (sub + (ix & (sub - 1))) << octave
    }

    /// Highest value mapping to bucket `ix`.
    fn bucket_high(&self, ix: usize) -> u64 {
        if ix + 1 < self.counts.len() {
            self.bucket_low(ix + 1) - 1
        } else {
            u64::MAX
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index_of(v, self.sub_bits)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a simulated duration in milliseconds as integer
    /// microseconds (the simulator's convention). Negative or NaN values
    /// clamp to zero — they cannot occur in a well-formed run but must
    /// not corrupt the histogram if they do.
    pub fn record_ms(&mut self, ms: f64) {
        let us = if ms.is_finite() && ms > 0.0 {
            (ms * 1_000.0).round() as u64
        } else {
            0
        };
        self.record(us);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at or below which a fraction `q` of recordings fall,
    /// reported as the containing bucket's upper bound (so the true
    /// quantile is never under-reported by more than the bucket width).
    /// Returns 0 for an empty histogram; `q` is clamped to `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (ix, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_high(ix).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self` (exact per-bucket addition).
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different `sub_bits`.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "histogram shapes differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(low, high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(ix, &c)| (self.bucket_low(ix), self.bucket_high(ix), c))
            .collect()
    }

    /// Compact JSON export: summary statistics plus the sparse non-zero
    /// buckets (`[low, count]` pairs — the shape is implied by
    /// `sub_bits`).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(low, _, c)| Json::Arr(vec![Json::U64(low), Json::U64(c)]))
            .collect();
        Json::obj(vec![
            ("sub_bits", Json::U64(u64::from(self.sub_bits))),
            ("count", Json::U64(self.count)),
            ("min", Json::U64(self.min())),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            ("p50", Json::U64(self.quantile(0.50))),
            ("p99", Json::U64(self.quantile(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new(4);
        for v in 0..16u64 {
            h.record(v);
        }
        for (ix, (low, high, c)) in h.nonzero_buckets().into_iter().enumerate() {
            assert_eq!(low, ix as u64);
            assert_eq!(high, ix as u64);
            assert_eq!(c, 1);
        }
    }

    #[test]
    fn buckets_partition_the_domain() {
        let h = LogHistogram::new(4);
        // Every boundary value maps into a bucket whose [low, high]
        // contains it, and bucket ranges chain without gaps.
        let mut prev_high = None::<u64>;
        for ix in 0..h.counts.len() {
            let (low, high) = (h.bucket_low(ix), h.bucket_high(ix));
            assert!(low <= high, "bucket {ix}");
            if let Some(ph) = prev_high {
                assert_eq!(low, ph + 1, "gap before bucket {ix}");
            }
            assert_eq!(LogHistogram::index_of(low, 4), ix);
            assert_eq!(LogHistogram::index_of(high, 4), ix);
            prev_high = Some(high);
        }
        assert_eq!(prev_high, Some(u64::MAX));
    }

    #[test]
    fn relative_error_is_bounded() {
        let h_bits = 4u32;
        let mut h = LogHistogram::new(h_bits);
        for v in [17u64, 1000, 123_456, 987_654_321, u64::MAX / 3] {
            h.record(v);
            let ix = LogHistogram::index_of(v, h_bits);
            let width = h.bucket_high(ix) - h.bucket_low(ix);
            assert!(
                (width as f64) <= (v as f64) / f64::from(1u32 << h_bits) + 1.0,
                "bucket too wide for {v}: {width}"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_matches_single_stream() {
        let values: Vec<u64> = (0..1000u64).map(|i| i * i % 77_777).collect();
        let mut single = LogHistogram::new(4);
        for &v in &values {
            single.record(v);
        }
        // Shard three ways, merge in two different groupings.
        let mut shards: Vec<LogHistogram> = (0..3).map(|_| LogHistogram::new(4)).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].record(v);
        }
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        let mut right = shards[2].clone();
        right.merge(&shards[1]);
        right.merge(&shards[0]);
        assert_eq!(left, right);
        assert_eq!(left, single);
    }

    #[test]
    fn quantiles_and_stats() {
        let mut h = LogHistogram::new(4);
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        // Bucket error at most 1/16 of the value.
        assert!((50..=54).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn record_ms_rounds_to_microseconds() {
        let mut h = LogHistogram::new(4);
        h.record_ms(1.5); // 1500 µs
        h.record_ms(0.0004); // rounds to 0
        h.record_ms(f64::NAN); // clamps to 0
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1500);
        assert_eq!(h.min(), 0);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = LogHistogram::new(4);
        a.merge(&LogHistogram::new(5));
    }
}
