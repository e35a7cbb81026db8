//! Algorithm parameters.
//!
//! The paper parameterises everything by a confidence constant `c` (target
//! failure probability `n^-c`), the TestOut success constant `q = 1/8`, and
//! the word width `w` (how many sub-intervals one broadcast-and-echo can test
//! in parallel — `Θ(log n)`, which is where the `log n / log log n` factors
//! come from). [`KktConfig`] gathers these together with derived quantities
//! such as ε(n) and the retry budgets of `FindMin`/`FindAny`.

use serde::{Deserialize, Serialize};

/// The (1/8)-odd success probability of `TestOut` (Thorup's distinguisher).
pub const TESTOUT_SUCCESS_PROBABILITY: f64 = 0.125;

/// Per-attempt success probability of `FindAny`'s isolation step (Lemma 4).
pub const FINDANY_SUCCESS_PROBABILITY: f64 = 1.0 / 16.0;

/// Independent odd hash functions per `FindMin` sub-interval (the "parallel
/// repetitions" amplification of §2.2). `buckets × repeats` is clamped to 64
/// so the echo stays one word.
pub(crate) const TESTOUT_REPEATS: u32 = 4;

/// Cap on the whole-construction phase count as a multiple of `lg n`: the
/// paper's `(40c/C)·lg n`.
const PHASE_FACTOR: f64 = 40.0;

/// Tunable parameters of the King–Kutten–Thorup algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KktConfig {
    /// Confidence exponent `c`: target failure probability `n^{-c}` (c ≥ 1).
    pub c: f64,
    /// Word width `w`: number of sub-intervals tested in parallel per
    /// broadcast-and-echo in `FindMin`. `None` derives `Θ(log n)` from the
    /// network size at run time.
    pub word_width: Option<u32>,
}

impl Default for KktConfig {
    fn default() -> Self {
        KktConfig { c: 1.0, word_width: None }
    }
}

impl KktConfig {
    /// `lg n`, at least 1.
    pub fn lg_n(n: usize) -> f64 {
        (n.max(2) as f64).log2()
    }

    /// The word width to use for a network of `n` nodes: `max(4, ⌈lg n⌉)`,
    /// capped at 63 so the echo fits in one 64-bit word.
    pub fn effective_word_width(&self, n: usize) -> u32 {
        self.word_width.unwrap_or(((Self::lg_n(n)).ceil() as u32).max(4)).clamp(2, 63)
    }

    /// The error parameter `ε(n) ≤ n^{-c-1}` the paper hands to HP-TestOut.
    pub fn epsilon(&self, n: usize) -> f64 {
        (n.max(2) as f64).powf(-(self.c + 1.0))
    }

    /// Retry budget of `FindMin` (w.h.p. variant):
    /// `(c/q)·lg n + (c/q)·lg(maxWt)/lg w`.
    pub fn findmin_budget(&self, n: usize, max_weight_bits: u32) -> u32 {
        let q = TESTOUT_SUCCESS_PROBABILITY;
        let w = self.effective_word_width(n) as f64;
        let lg_n = Self::lg_n(n);
        let narrowings = max_weight_bits as f64 / w.log2().max(1.0);
        (((self.c / q) * lg_n + (self.c / q) * narrowings).ceil() as u32).max(4)
    }

    /// Retry budget of `FindMin-C` (bounded variant):
    /// `(2c/q)·lg(maxWt)/lg w`.
    pub fn findmin_c_budget(&self, n: usize, max_weight_bits: u32) -> u32 {
        let q = TESTOUT_SUCCESS_PROBABILITY;
        let w = self.effective_word_width(n) as f64;
        let narrowings = max_weight_bits as f64 / w.log2().max(1.0);
        (((2.0 * self.c / q) * narrowings).ceil() as u32).max(4)
    }

    /// Retry budget of `FindAny`: `16·ln(ε(n)^{-1})` attempts.
    pub fn findany_budget(&self, n: usize) -> u32 {
        ((16.0 * (1.0 / self.epsilon(n)).ln()).ceil() as u32).max(4)
    }

    /// Phase cap of the construction algorithms: `(PHASE_FACTOR·c/C)·⌈lg n⌉`
    /// with `C` the per-fragment success constant.
    pub fn phase_cap(&self, n: usize) -> u32 {
        let c_success = 0.5; // conservative lower bound on FindMin-C / FindAny-C success
        ((PHASE_FACTOR * self.c / c_success) * Self::lg_n(n).ceil()).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = KktConfig::default();
        assert_eq!(cfg.c, 1.0);
        assert!(cfg.word_width.is_none());
        assert!(cfg.effective_word_width(1024) >= 10);
        assert!(cfg.effective_word_width(2) >= 2);
        assert!(cfg.effective_word_width(1 << 20) <= 63);
    }

    #[test]
    fn epsilon_shrinks_polynomially() {
        let cfg = KktConfig { c: 2.0, ..KktConfig::default() };
        assert!(cfg.epsilon(100) < cfg.epsilon(10));
        assert!((cfg.epsilon(10) - 10f64.powf(-3.0)).abs() < 1e-12);
    }

    #[test]
    fn budgets_grow_with_n_and_weight_bits() {
        let cfg = KktConfig::default();
        assert!(cfg.findmin_budget(1 << 16, 64) > cfg.findmin_budget(64, 16));
        assert!(cfg.findmin_c_budget(1024, 128) > cfg.findmin_c_budget(1024, 32));
        assert!(cfg.findany_budget(1 << 20) > cfg.findany_budget(8));
        assert!(cfg.phase_cap(4096) > cfg.phase_cap(16));
    }

    #[test]
    fn explicit_word_width_is_respected_within_bounds() {
        let cfg = KktConfig { word_width: Some(16), ..KktConfig::default() };
        assert_eq!(cfg.effective_word_width(1_000_000), 16);
        let too_big = KktConfig { word_width: Some(200), ..KktConfig::default() };
        assert_eq!(too_big.effective_word_width(8), 63);
    }
}
