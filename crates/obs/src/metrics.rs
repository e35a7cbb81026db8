//! Fixed-bucket histograms with deterministic readouts.

/// A fixed-bucket histogram over `u64` samples. Bucket `i` counts samples
/// `<= bounds[i]` (and above the previous bound); one implicit overflow
/// bucket catches everything larger. Bounds are fixed at construction so two
/// runs recording the same samples produce identical state — the p99
/// readout is a bucket upper bound, deterministic and seed-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Ascending inclusive upper bounds of the finite buckets.
    bounds: Vec<u64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1` (the
    /// last slot is the overflow bucket).
    counts: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Largest sample recorded (exact, not bucketed).
    max: u64,
}

impl Histogram {
    /// A histogram with the given finite bucket bounds (must be ascending).
    pub fn with_bounds(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0, max: 0 }
    }

    /// Powers-of-two bounds `1, 2, 4, …, 2^max_exp` — the default ladder for
    /// cost-shaped quantities that span decades.
    pub fn pow2_bounds(max_exp: u32) -> Vec<u64> {
        (0..=max_exp.min(63)).map(|e| 1u64 << e).collect()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let slot = self.bounds.partition_point(|&b| b < value);
        self.counts[slot] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one. Both must use the same bucket
    /// bounds — merging across resolutions would silently re-bucket. The
    /// merge is commutative and associative (per-bucket sums, exact max), so
    /// per-seed histograms produced by parallel fleet workers fold into the
    /// same cross-seed tail no matter the merge order.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram merge requires identical bounds");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Tail readout (bucket resolution): the smallest bound whose cumulative
    /// count reaches the nearest rank `⌈99·count/100⌉`, computed in
    /// integers. Samples landing in the overflow bucket report the exact
    /// maximum. Returns 0 when empty.
    pub fn p99(&self) -> u64 {
        let rank = (99 * self.count).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::with_bounds(&[1, 2, 4, 8, 16]);
        for v in [1u64, 1, 2, 3, 4, 5, 9, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 40);
        // Ranks: 1,1 → ≤1; 2 → ≤2; 3,4 → ≤4; 5 → ≤8; 9 → ≤16; 40 → overflow.
        assert_eq!(h.p99(), 40, "tail lands in the overflow bucket → exact max");
    }

    #[test]
    fn p99_takes_the_integer_nearest_rank() {
        // One bucket per value, so the readout is the ranked sample itself:
        // ⌈0.99·n⌉ exactly, at the sizes where a float rank can slip.
        let bounds: Vec<u64> = (1..=10_000).collect();
        for (n, want) in [(1u64, 1u64), (2, 2), (99, 99), (100, 99), (101, 100), (200, 198)] {
            let mut h = Histogram::with_bounds(&bounds);
            (1..=n).for_each(|v| h.record(v));
            assert_eq!(h.p99(), want, "n={n}");
        }
        let mut h = Histogram::with_bounds(&bounds);
        (1..=10_000).for_each(|v| h.record(v));
        assert_eq!(h.p99(), 9_900);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::with_bounds(&[1, 10]);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn pow2_bounds_ladder() {
        assert_eq!(Histogram::pow2_bounds(4), vec![1, 2, 4, 8, 16]);
        assert_eq!(Histogram::pow2_bounds(0), vec![1]);
        assert_eq!(Histogram::pow2_bounds(100).len(), 64, "capped at 2^63");
    }

    #[test]
    fn histogram_merge_equals_single_stream() {
        // A sample stream split across two producers and merged must be
        // bit-identical to the same stream recorded into one histogram —
        // in either merge order (the fleet's cross-seed tail invariant).
        let bounds = [1u64, 4, 16, 64, 256];
        let samples = [1u64, 3, 9, 40, 300, 2, 17, 64, 0, 5];
        let mut whole = Histogram::with_bounds(&bounds);
        let mut left = Histogram::with_bounds(&bounds);
        let mut right = Histogram::with_bounds(&bounds);
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 { &mut left } else { &mut right }.record(v);
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, whole);
        assert_eq!(rl, whole);
        assert_eq!(lr.p99(), whole.p99());
        assert_eq!(lr.max(), 300);
        // Merging an empty histogram is the identity.
        lr.merge(&Histogram::with_bounds(&bounds));
        assert_eq!(lr, whole);
    }

    #[test]
    #[should_panic(expected = "identical bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::with_bounds(&[1, 2, 4]);
        a.merge(&Histogram::with_bounds(&[1, 2, 8]));
    }

    #[test]
    fn identical_sample_streams_give_identical_state() {
        let mut a = Histogram::with_bounds(&[4, 64, 1024]);
        let mut b = Histogram::with_bounds(&[4, 64, 1024]);
        for v in [3u64, 17, 200, 5] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.p99(), b.p99());
    }
}
