//! Summary statistics for experiment outputs, in exact integer arithmetic.
//!
//! [`ExactSummary`], [`Percentiles`] and [`SloSummary`] use `u128` sums,
//! integer nearest-rank and fixed-point micro-unit readouts, so every
//! statistic is a pure function of the sample multiset: no float ever
//! reaches a fingerprinted field, and no accumulation or merge order can
//! change a result. Tables that print a float mean convert the exact sum
//! once, at the end.

use serde::{Deserialize, Serialize};

/// Fixed-point scale of the `*_micro` readouts: one unit is 10⁻⁶.
pub const MICRO: u128 = 1_000_000;

/// Floor integer square root of a `u128` (Newton's method; exact, total).
pub fn isqrt_u128(x: u128) -> u128 {
    if x < 2 {
        return x;
    }
    // Initial guess from the bit length; Newton converges monotonically.
    let mut guess = 1u128 << (x.ilog2() / 2 + 1);
    loop {
        let next = (guess + x / guess) / 2;
        if next >= guess {
            return guess;
        }
        guess = next;
    }
}

/// Exact integer moments of a `u64` sample: the accumulation form every
/// fingerprinted statistic derives from. Sums are `u128`, so the result is a
/// pure function of the sample *multiset* — any accumulation order (and any
/// parallel merge order) produces bit-identical state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExactSummary {
    /// Sample size.
    pub count: u64,
    /// Exact sum.
    pub sum: u128,
    /// Exact sum of squares.
    pub sum_sq: u128,
}

impl ExactSummary {
    /// Exact moments of a sample. Returns the zero summary when empty.
    ///
    /// # Panics
    ///
    /// When the sum of squares exceeds `u128` (needs ≥ 2 samples near
    /// `u64::MAX` — far outside any cost domain in this workspace): the
    /// exact tier fails loudly rather than wrap silently.
    pub fn of_u64(values: &[u64]) -> Self {
        let mut s = ExactSummary::default();
        for &v in values {
            s.count += 1;
            s.sum += u128::from(v);
            s.sum_sq = s
                .sum_sq
                .checked_add(u128::from(v) * u128::from(v))
                .expect("ExactSummary: sum of squares exceeds u128 — sample out of exact budget");
        }
        s
    }
}

/// The exact nearest-rank index (1-based) of percentile `p` (in percent) in a
/// sorted sample of `n` values: `⌈p·n/100⌉ = (p·n + 99) / 100`, computed in
/// integer arithmetic. The old float form (`(q * n as f64).ceil()`) could
/// land one rank high or low when `q·n` sat next to an integer in `f64`.
fn nearest_rank(p: u64, n: u64) -> u64 {
    (p * n).div_ceil(100).clamp(1, n)
}

/// Exact quantile readout of an integer sample: the tail view
/// (`p50 / p99 / max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Sample size.
    pub count: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl Percentiles {
    /// Exact percentiles of a raw integer sample (nearest-rank, exact
    /// integer ranks). Zeros for an empty sample.
    pub fn of_u64(values: &[u64]) -> Self {
        if values.is_empty() {
            return Percentiles { count: 0, p50: 0, p99: 0, max: 0 };
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        Percentiles::of_sorted(&sorted)
    }

    /// Exact percentiles of an already-sorted (ascending) integer sample.
    /// Zeros for an empty sample.
    pub fn of_sorted(sorted: &[u64]) -> Self {
        if sorted.is_empty() {
            return Percentiles { count: 0, p50: 0, p99: 0, max: 0 };
        }
        let n = sorted.len() as u64;
        let at = |p: u64| sorted[(nearest_rank(p, n) - 1) as usize];
        Percentiles { count: n, p50: at(50), p99: at(99), max: sorted[sorted.len() - 1] }
    }
}

impl std::fmt::Display for Percentiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={} p50<={} p99<={} max={}", self.count, self.p50, self.p99, self.max)
    }
}

/// The production-SLO readout of a per-event quantity measured across a
/// fleet of seeds: integer-exact mean and 95%-CI half-width (fixed-point
/// micro-units, across per-seed means) plus the tail (`p50 / p99 / max`,
/// exact nearest-rank over the pooled per-event samples). Every field is an
/// integer — this is the only summary form allowed into fingerprinted fleet
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloSummary {
    /// Seeds (groups) the statistic spans.
    pub seeds: u64,
    /// Pooled per-event samples across all seeds.
    pub samples: u64,
    /// Mean of the per-seed means, in micro-units.
    pub mean_micro: u64,
    /// 95%-CI half-width of the mean across seeds, in micro-units
    /// (`1.96 · s / √seeds` over the per-seed means).
    pub ci95_half_micro: u64,
    /// Exact nearest-rank median of the pooled samples.
    pub p50: u64,
    /// Exact nearest-rank 99th percentile of the pooled samples.
    pub p99: u64,
    /// Exact maximum of the pooled samples.
    pub max: u64,
}

impl SloSummary {
    /// Summarises one group of samples per seed. Empty groups are counted as
    /// seeds with a zero mean; returns the zero summary when `groups` is
    /// empty or holds no samples at all.
    pub fn of_groups(groups: &[Vec<u64>]) -> Self {
        let mut pooled: Vec<u64> = Vec::new();
        let mut group_means_micro: Vec<u64> = Vec::new();
        for group in groups {
            pooled.extend_from_slice(group);
            let sum: u128 = group.iter().map(|&v| u128::from(v)).sum();
            let mean = if group.is_empty() { 0 } else { sum * MICRO / group.len() as u128 };
            group_means_micro.push(mean as u64);
        }
        pooled.sort_unstable();
        let tails = Percentiles::of_sorted(&pooled);
        let across = ExactSummary::of_u64(&group_means_micro);
        SloSummary {
            seeds: groups.len() as u64,
            samples: pooled.len() as u64,
            // The inputs are already micro-scaled, so the plain integer mean
            // of the group means is the micro-unit readout.
            mean_micro: if across.count == 0 {
                0
            } else {
                (across.sum / u128::from(across.count)) as u64
            },
            ci95_half_micro: Self::ci_of_micro_means(&across),
            p50: tails.p50,
            p99: tails.p99,
            max: tails.max,
        }
    }

    /// CI half-width across per-seed means that are already in micro-units
    /// (so the stddev needs no further scaling before the √seeds division).
    fn ci_of_micro_means(across: &ExactSummary) -> u64 {
        if across.count < 2 {
            return 0;
        }
        let n = u128::from(across.count);
        let num = n * across.sum_sq - across.sum * across.sum;
        let stddev_micro = isqrt_u128(num / (n * (n - 1)));
        let sqrt_n_micro = isqrt_u128(n * MICRO * MICRO);
        (stddev_micro * 196 * MICRO / (100 * sqrt_n_micro)) as u64
    }

    /// `mean ± ci` rendered as fixed-point decimals — pure integer
    /// formatting, usable in tables without leaving the exact tier.
    pub fn mean_ci_display(&self) -> String {
        format!("{}±{}", format_micro(self.mean_micro), format_micro(self.ci95_half_micro))
    }
}

/// Renders a micro-unit fixed-point value as a decimal string (integer
/// arithmetic only; trailing zeros trimmed to two decimals minimum).
pub fn format_micro(micro: u64) -> String {
    let whole = micro / MICRO as u64;
    let frac = micro % MICRO as u64;
    // Two decimals: round the micro remainder to centi-units.
    let centi = (frac + 5_000) / 10_000;
    if centi >= 100 {
        format!("{}.00", whole + 1)
    } else {
        format!("{whole}.{centi:02}")
    }
}

impl std::fmt::Display for SloSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean={} (seeds={}, n={}) p50={} p99={} max={}",
            self.mean_ci_display(),
            self.seeds,
            self.samples,
            self.p50,
            self.p99,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::Histogram;

    #[test]
    fn exact_summary_moments_and_readouts() {
        let e = ExactSummary::of_u64(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!((e.count, e.sum, e.sum_sq), (8, 40, 232));
        assert_eq!(ExactSummary::of_u64(&[]), ExactSummary::default());
        // Order-free: the moments of a permuted sample are identical.
        assert_eq!(ExactSummary::of_u64(&[9, 7, 5, 5, 4, 4, 4, 2]), e);
    }

    #[test]
    #[should_panic(expected = "sum of squares exceeds u128")]
    fn exact_summary_overflow_fails_loudly() {
        // Two samples near u64::MAX push Σx² past u128 — the exact tier
        // must refuse, not silently wrap.
        ExactSummary::of_u64(&[u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for (x, want) in [(0u128, 0u128), (1, 1), (2, 1), (3, 1), (4, 2), (15, 3), (16, 4)] {
            assert_eq!(isqrt_u128(x), want, "isqrt({x})");
        }
        for x in [10u128, 999, 1 << 40, (1 << 60) + 12345] {
            let r = isqrt_u128(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "isqrt({x}) = {r}");
        }
        let big = u128::MAX;
        let r = isqrt_u128(big);
        assert!(r * r <= big);
        assert!(r.checked_add(1).and_then(|s| s.checked_mul(s)).is_none_or(|sq| sq > big));
    }

    #[test]
    fn percentiles_nearest_rank_and_histogram_agree_on_max() {
        let sample: Vec<u64> = (1..=100).collect();
        let p = Percentiles::of_u64(&sample);
        assert_eq!((p.count, p.p50, p.p99, p.max), (100, 50, 99, 100));
        assert_eq!(Percentiles::of_u64(&[]), Percentiles { count: 0, p50: 0, p99: 0, max: 0 });

        let mut h = Histogram::with_bounds(&Histogram::pow2_bounds(8));
        for &v in &sample {
            h.record(v);
        }
        assert_eq!(h.count(), p.count);
        assert_eq!(h.max(), p.max, "histogram max is exact");
        assert!(h.p99() >= p.p99, "the bucketed p99 is an upper bound");
        assert_eq!(format!("{p}"), "n=100 p50<=50 p99<=99 max=100");
    }

    #[test]
    fn nearest_rank_boundaries_are_exact() {
        // The regression the integer rank exists for: `(q * n).ceil()` in
        // f64 can land one rank high or low for unlucky n. Pin the exact
        // nearest-rank answers (sample = 1..=n, so value == rank) at the
        // boundary sizes.
        for (n, p50, p99) in [
            (1u64, 1u64, 1u64),
            (2, 1, 2),
            (99, 50, 99), // ⌈0.5·99⌉ = 50, ⌈0.99·99⌉ = ⌈98.01⌉ = 99
            (100, 50, 99),
            (101, 51, 100), // ⌈0.99·101⌉ = ⌈99.99⌉ = 100
            (200, 100, 198),
            (10_000, 5_000, 9_900),
        ] {
            let sample: Vec<u64> = (1..=n).collect();
            let got = Percentiles::of_u64(&sample);
            assert_eq!((got.p50, got.p99, got.max), (p50, p99, n), "n={n}");
            assert_eq!(nearest_rank(50, n), p50, "n={n} rank(50)");
            assert_eq!(nearest_rank(99, n), p99, "n={n} rank(99)");
            assert_eq!(nearest_rank(100, n), n, "n={n} rank(100) is the max");
        }
        // Degenerate percents clamp instead of indexing out of range.
        assert_eq!(nearest_rank(0, 5), 1);
        assert_eq!(nearest_rank(100, 1), 1);
    }

    #[test]
    fn slo_summary_of_groups_exact_readout() {
        // Three seeds with per-event samples; per-seed means 2, 4, 9 —
        // mean of means 5, s = sqrt(13) ≈ 3.605551, CI = 1.96·s/√3 ≈ 4.08.
        let groups = vec![vec![1, 3], vec![4, 4], vec![9]];
        let s = SloSummary::of_groups(&groups);
        assert_eq!((s.seeds, s.samples), (3, 5));
        assert_eq!(s.mean_micro, 5_000_000);
        assert!((4_079_000..4_081_000).contains(&s.ci95_half_micro), "{}", s.ci95_half_micro);
        // Pooled sorted: 1 3 4 4 9 → p50 = 3rd = 4, p99 = 5th = 9.
        assert_eq!((s.p50, s.p99, s.max), (4, 9, 9));
        assert_eq!(s.mean_ci_display(), "5.00±4.08");

        let zero = SloSummary::of_groups(&[]);
        assert_eq!(zero, SloSummary::of_groups(&[]));
        assert_eq!((zero.seeds, zero.samples, zero.mean_micro, zero.max), (0, 0, 0, 0));
    }

    #[test]
    fn slo_summary_is_group_order_independent() {
        let a = vec![vec![10, 20, 30], vec![5, 5, 5], vec![100, 1, 1]];
        let mut b = a.clone();
        b.reverse();
        // Percentiles pool then sort; the CI is over exact integer moments —
        // neither depends on which worker finished first, only on the
        // deterministic grid order the caller merges in. (Group order *does*
        // pair means with seeds, so equal multisets of groups give equal
        // summaries.)
        assert_eq!(SloSummary::of_groups(&a), SloSummary::of_groups(&b));
    }

    #[test]
    fn format_micro_rounds_to_centi() {
        assert_eq!(format_micro(0), "0.00");
        assert_eq!(format_micro(5_000_000), "5.00");
        assert_eq!(format_micro(1_234_567), "1.23");
        assert_eq!(format_micro(1_235_000), "1.24", "half-centi rounds up");
        assert_eq!(format_micro(1_999_996), "2.00", "carry into the whole part");
    }
}
