//! Thorup's multiply-threshold odd hash family.
//!
//! A random hash function `h : [1, 2^w] → {0, 1}` is *ε-odd* if for every
//! non-empty set `S`, the probability that an odd number of elements of `S`
//! hash to 1 is at least ε. The paper uses the construction of
//! Thorup, "Sample(x) = (a*x ≤ t) is a distinguisher with probability 1/8"
//! (arXiv:1411.4982): pick a uniform **odd** multiplier `a ∈ [1, 2^w]` and a
//! uniform threshold `t ∈ [1, 2^w]`, and let
//!
//! ```text
//! h(x) = 1  if  (a · x mod 2^w) ≤ t,     h(x) = 0 otherwise.
//! ```
//!
//! With `w = 64` the `mod 2^w` is ordinary wrapping multiplication — exactly
//! the "comes for free" remark in §2.1.
//!
//! `TestOut` uses the parity of `h` over the edge numbers incident to a tree:
//! edges with both endpoints inside contribute twice (parity 0), so the parity
//! of the whole sum equals the parity of `h` over the *cut*, which is odd with
//! probability ≥ 1/8 whenever the cut is non-empty.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A sampled member of the 1/8-odd multiply-threshold family on 64-bit words.
///
/// The function is fully described by 128 bits (`a`, `t`), so broadcasting it
/// costs O(1) CONGEST messages of `O(log n)` bits when `n` is polynomial in
/// the word size — this is what Lemma 1 charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OddHash {
    /// Odd multiplier.
    a: u64,
    /// Inclusion threshold.
    t: u64,
}

impl OddHash {
    /// Samples a uniformly random member of the family.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        OddHash { a: rng.gen::<u64>() | 1, t: rng.gen::<u64>() }
    }

    /// Builds a specific member (used by tests and by deterministic replay).
    ///
    /// The multiplier is forced odd by setting its lowest bit.
    pub fn from_parts(a: u64, t: u64) -> Self {
        OddHash { a: a | 1, t }
    }

    /// The multiplier.
    pub fn multiplier(&self) -> u64 {
        self.a
    }

    /// The threshold.
    pub fn threshold(&self) -> u64 {
        self.t
    }

    /// Evaluates `h(x) ∈ {0, 1}`.
    pub fn bit(&self, x: u64) -> bool {
        self.a.wrapping_mul(x) <= self.t
    }

    /// Parity (`Σ h(x) mod 2`) over an iterator of keys — the per-node local
    /// computation of `TestOut`.
    pub fn parity<I: IntoIterator<Item = u64>>(&self, keys: I) -> bool {
        keys.into_iter().fold(false, |acc, x| acc ^ self.bit(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn multiplier_is_always_odd() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(OddHash::random(&mut rng).multiplier() & 1, 1);
        }
        assert_eq!(OddHash::from_parts(4, 9).multiplier(), 5);
    }

    #[test]
    fn empty_set_has_even_parity() {
        let h = OddHash::from_parts(123, 456);
        assert!(!h.parity(std::iter::empty()));
    }

    #[test]
    fn duplicated_elements_cancel() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = OddHash::random(&mut rng);
        let set = [5u64, 9, 12, 9, 5, 12]; // every element twice
        assert!(!h.parity(set.iter().copied()));
    }

    #[test]
    fn parity_is_deterministic_per_function() {
        let h = OddHash::from_parts(0x1234_5678_9abc_def1, 0x8000_0000_0000_0000);
        let keys = [3u64, 77, 1024, 99999];
        assert_eq!(h.parity(keys.iter().copied()), h.parity(keys.iter().copied()));
    }

    /// Statistical check of the 1/8-odd guarantee on a few set shapes.
    /// With 4000 trials per set and true odds ≥ 1/8 = 0.125, the empirical
    /// frequency falling below 0.09 has probability < 10^-6 (Chernoff), so
    /// this test is robust despite being randomised (and it is seeded anyway).
    #[test]
    fn oddness_at_least_one_eighth_empirically() {
        let mut rng = StdRng::seed_from_u64(42);
        let sets: Vec<Vec<u64>> = vec![
            vec![1],
            vec![7, 13],
            (1..=5).collect(),
            (100..164).collect(),
            (1..=1000).map(|x| x * 1_000_003).collect(),
        ];
        for set in sets {
            let trials = 4000;
            let mut odd = 0;
            for _ in 0..trials {
                let h = OddHash::random(&mut rng);
                if h.parity(set.iter().copied()) {
                    odd += 1;
                }
            }
            let freq = odd as f64 / trials as f64;
            assert!(freq >= 0.09, "set of size {} had odd-parity frequency {freq}", set.len());
        }
    }

    #[test]
    fn singleton_set_parity_equals_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        let h = OddHash::random(&mut rng);
        for x in [1u64, 2, 3, 1 << 40, u64::MAX] {
            assert_eq!(h.parity([x]), h.bit(x));
        }
    }
}
