//! Golden fingerprints: the quick exp9, exp10 and exp11 presets at the
//! default seed reproduce their sealed reports exactly.
//!
//! Simulated cost (bits, messages, rounds) is the paper's quantity, and a
//! refactor must never move it. Each report's fingerprint seals every cost
//! column, so a change that leaks bits into a search, reorders coin draws or
//! alters a repair's outcome fails here instead of in a hand-run byte
//! compare of two builds. A change that moves cost on purpose must update
//! these constants and say why.

use kkt_bench::{experiments, Scale, DEFAULT_SEED};

#[test]
fn exp9_quick_churn_policies_fingerprint_is_golden() {
    let (_, report) = experiments::exp9_churn_policies(Scale::Quick, DEFAULT_SEED);
    assert_eq!(report.fingerprint, "145c11f56bbc00d2");
}

#[test]
fn exp10_quick_batched_repair_fingerprint_is_golden() {
    let (_, report) = experiments::exp10_batched_repair(Scale::Quick, DEFAULT_SEED);
    assert_eq!(report.fingerprint, "eaa2ef3e643f6e5f");
}

#[test]
fn exp11_quick_scale_sweep_fingerprint_is_golden() {
    let (_, report) = experiments::exp11_scale_sweep(Scale::Quick, DEFAULT_SEED, None);
    assert_eq!(report.fingerprint, "e8ba859ff7c11b1c");
}
