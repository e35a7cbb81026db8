//! 2-wise independent hash families into a power-of-two range.
//!
//! `FindAny` (§4.1) broadcasts "a random pairwise independent hash function
//! `h : [1, maxEdgeNum] → [r]` where `r` is a power of 2 greater than the sum
//! of degrees in the tree", then looks for a prefix range `[2^j]` hit by
//! exactly one cut edge (Lemma 4: such a `j` exists with probability ≥ 1/16).
//!
//! We implement the classic Carter–Wegman family `h(x) = ((a·x + b) mod p)
//! mod r` over a 62-bit prime. The family is exactly 2-wise independent on
//! `Z_p` and the final reduction `mod r` (a power of two ≤ 2^32) perturbs the
//! pairwise-collision probabilities by at most `r/p < 2^-29`, which is far
//! below the 1/16 slack the analysis consumes — we verify the 1/16 isolation
//! bound empirically in the test suite and in experiment E6.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::modular::{add_mod, mul_mod};

/// The Mersenne prime `2^61 − 1`. Keys are reduced mod `P` before hashing,
/// so the family is 2-wise independent on the residues.
const P: u64 = (1u64 << 61) - 1;

/// A member of the pairwise-independent family `x ↦ ((a·x + b) mod p) mod r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    /// Output range, always a power of two.
    r: u64,
}

impl PairwiseHash {
    /// Samples a hash function into the range `[0, r)` where `r` is rounded up
    /// to the next power of two (minimum 2).
    pub fn random<R: Rng + ?Sized>(range_at_least: u64, rng: &mut R) -> Self {
        let r = range_at_least.max(2).next_power_of_two();
        PairwiseHash { a: rng.gen_range(1..P), b: rng.gen_range(0..P), r }
    }

    /// Builds a specific member; `range` is rounded up to a power of two.
    pub fn from_parts(a: u64, b: u64, range: u64) -> Self {
        PairwiseHash { a: (a % (P - 1)) + 1, b: b % P, r: range.max(2).next_power_of_two() }
    }

    /// The (power-of-two) output range `r`.
    pub fn range(&self) -> u64 {
        self.r
    }

    /// `log2 r` — the number of prefix levels `FindAny` scans.
    pub fn levels(&self) -> u32 {
        self.r.trailing_zeros()
    }

    /// Evaluates the hash in `[0, r)`.
    pub fn eval(&self, x: u64) -> u64 {
        let v = add_mod(mul_mod(self.a, x % P, P), self.b, P);
        v & (self.r - 1)
    }

    /// True if `x` hashes into the prefix range `[0, 2^level)`.
    ///
    /// `level = levels()` always returns true, `level = 0` means the
    /// single-bucket range `{0}`.
    pub fn in_prefix(&self, x: u64, level: u32) -> bool {
        if level >= self.levels() {
            return true;
        }
        self.eval(x) < (1u64 << level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn range_is_power_of_two_and_covers_request() {
        let mut rng = StdRng::seed_from_u64(0);
        for req in [1u64, 2, 3, 5, 100, 1000, 1 << 20] {
            let h = PairwiseHash::random(req, &mut rng);
            assert!(h.range().is_power_of_two());
            assert!(h.range() >= req.max(2));
            assert_eq!(1u64 << h.levels(), h.range());
        }
    }

    #[test]
    fn eval_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = PairwiseHash::random(64, &mut rng);
        for x in 0..10_000u64 {
            assert!(h.eval(x) < h.range());
        }
    }

    #[test]
    fn prefix_membership_is_monotone_in_level() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = PairwiseHash::random(1024, &mut rng);
        for x in [1u64, 17, 998, 123456789] {
            let mut prev = h.in_prefix(x, 0);
            for level in 1..=h.levels() {
                let cur = h.in_prefix(x, level);
                assert!(!prev || cur, "membership must be monotone");
                prev = cur;
            }
            assert!(h.in_prefix(x, h.levels()));
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = PairwiseHash::random(16, &mut rng);
        let mut counts = vec![0usize; h.range() as usize];
        let samples = 64_000u64;
        for x in 1..=samples {
            counts[h.eval(x) as usize] += 1;
        }
        let expected = samples as f64 / h.range() as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.25, "bucket {bucket} count {c} deviates {dev:.2} from {expected}");
        }
    }

    #[test]
    fn pairwise_collision_rate_matches_independence() {
        // Estimate Pr[h(x) = h(y)] over random functions for a fixed pair; for
        // a 2-wise independent family into r buckets this is ~1/r.
        let mut rng = StdRng::seed_from_u64(21);
        let r = 32u64;
        let trials = 20_000;
        let mut collisions = 0;
        for _ in 0..trials {
            let h = PairwiseHash::random(r, &mut rng);
            if h.eval(1234567) == h.eval(7654321) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let ideal = 1.0 / r as f64;
        assert!((rate - ideal).abs() < ideal * 0.5, "collision rate {rate} vs ideal {ideal}");
    }

    /// Empirical check of Lemma 4: for a non-empty set W with |W| < r/2, with
    /// probability ≥ 1/16 there is a level j such that exactly one element of
    /// W lands in the prefix [2^j].
    #[test]
    fn isolation_probability_at_least_one_sixteenth() {
        let mut rng = StdRng::seed_from_u64(77);
        for set_size in [1usize, 2, 3, 8, 33, 120] {
            let set: Vec<u64> = (0..set_size as u64).map(|i| 1_000 + 37 * i).collect();
            let r = (4 * set_size.max(2)) as u64;
            let trials = 3000;
            let mut isolated = 0;
            for _ in 0..trials {
                let h = PairwiseHash::random(r, &mut rng);
                let found = (0..=h.levels())
                    .any(|level| set.iter().filter(|&&x| h.in_prefix(x, level)).count() == 1);
                if found {
                    isolated += 1;
                }
            }
            let freq = isolated as f64 / trials as f64;
            assert!(freq >= 1.0 / 16.0, "set size {set_size}: isolation frequency {freq}");
        }
    }
}
