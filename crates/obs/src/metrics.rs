//! Metric primitives: a bucketed histogram with caller-chosen edges.
//!
//! It is a plain value, not a global registry: passes and simulators
//! accumulate locally (no locking on hot paths) and publish totals with
//! [`Histogram::emit`], which sends one event through the global registry.

use crate::event::kind;

/// A histogram over `edges.len() + 1` buckets: value `v` lands in the
/// first bucket whose upper edge exceeds it; the last bucket is unbounded.
/// This generalizes the simulator's fixed idle-period histogram to
/// arbitrary (strictly increasing) edges.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with the given upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: Vec<f64>) -> Histogram {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let counts = vec![0; edges.len() + 1];
        Histogram { edges, counts }
    }

    /// The paper's idle-period buckets (ms): `<10`, `10–100`, `0.1–1 s`,
    /// `1–15.2 s` (below the TPM break-even), `15.2–60 s`, `>60 s`.
    pub fn idle_period_ms() -> Histogram {
        Histogram::new(vec![10.0, 100.0, 1_000.0, 15_200.0, 60_000.0])
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        let ix = self
            .edges
            .iter()
            .position(|&e| v < e)
            .unwrap_or(self.edges.len());
        self.counts[ix] += 1;
    }

    /// Bucket upper edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Count per bucket (`edges.len() + 1` entries).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Human-readable label of bucket `ix`.
    pub fn label(&self, ix: usize) -> String {
        if ix == 0 {
            format!("<{}", self.edges[0])
        } else if ix < self.edges.len() {
            format!("{}-{}", self.edges[ix - 1], self.edges[ix])
        } else {
            format!(">={}", self.edges[self.edges.len() - 1])
        }
    }

    /// Merges another histogram with identical edges.
    ///
    /// # Panics
    ///
    /// Panics if the edges differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "histogram edges differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Publishes per-bucket counts as one `counter` event named `name`,
    /// with a `bucketN` field per bucket.
    pub fn emit(&self, name: &str) {
        let fields: Vec<(String, crate::Value)> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (format!("bucket{i}"), c.into()))
            .collect();
        let borrowed: Vec<(&str, crate::Value)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        crate::emit(kind::COUNTER, name, &borrowed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        for v in [0.0, 0.999, 1.0, 5.0, 10.0, 1e9] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.label(0), "<1");
        assert_eq!(h.label(1), "1-10");
        assert_eq!(h.label(2), ">=10");
    }

    /// The exact boundary semantics the simulator's idle histogram relies
    /// on: a value equal to an edge belongs to the bucket *above* it.
    #[test]
    fn idle_edges_match_the_paper_buckets() {
        let mut h = Histogram::idle_period_ms();
        h.record(10.0);
        h.record(100.0);
        h.record(1_000.0);
        h.record(15_200.0);
        h.record(60_000.0);
        assert_eq!(h.counts(), &[0, 1, 1, 1, 1, 1]);
        // Just below each edge lands one bucket lower.
        let mut low = Histogram::idle_period_ms();
        for v in [9.999, 99.999, 999.999, 15_199.999, 59_999.999] {
            low.record(v);
        }
        assert_eq!(low.counts(), &[1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn merge_requires_same_edges() {
        let mut a = Histogram::new(vec![1.0]);
        let mut b = Histogram::new(vec![1.0]);
        a.record(0.5);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_edges_panic() {
        let _ = Histogram::new(vec![1.0, 1.0]);
    }
}
