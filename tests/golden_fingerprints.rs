//! Golden fingerprints: the quick exp9, exp10 and exp11 presets and the
//! quick n = 48 column of exp13 and exp14, at the default seed, reproduce
//! their sealed reports exactly.
//!
//! Simulated cost (bits, messages, rounds) is the paper's quantity, and a
//! refactor must never move it. Each report's fingerprint seals every cost
//! column, so a change that leaks bits into a search, reorders coin draws or
//! alters a repair's outcome fails here instead of in a hand-run byte
//! compare of two builds. A change that moves cost on purpose must update
//! these constants and say why.
//!
//! Each sweep also carries a cost golden, which does not depend on the
//! report's layout: a change that only reshapes a report moves the
//! whole-report fingerprint but not the cost golden.

use kkt_bench::{experiments, Scale, DEFAULT_SEED};
use kkt_workloads::{fingerprint_hex, ReplayReport};

/// The cost golden: one fingerprint over every replay's own fingerprint,
/// comma-joined in report order. It covers every embedded replay report
/// but not the layout of the report around them.
fn cost_fingerprint<'a>(reports: impl IntoIterator<Item = &'a ReplayReport>) -> String {
    let each: Vec<String> = reports.into_iter().map(ReplayReport::fingerprint).collect();
    fingerprint_hex(&each.join(","))
}

#[test]
fn exp9_quick_churn_policies_fingerprint_is_golden() {
    let (_, report) = experiments::exp9_churn_policies(Scale::Quick, DEFAULT_SEED);
    assert_eq!(report.fingerprint, "e46dc9b9ca1e8105");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "ce4491ac54423487");
}

#[test]
fn exp10_quick_batched_repair_fingerprint_is_golden() {
    let (_, report) = experiments::exp10_batched_repair(Scale::Quick, DEFAULT_SEED);
    assert_eq!(report.fingerprint, "19cafc15d6d8e759");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "cb62f57508fbc1bf");
}

#[test]
fn exp11_quick_scale_sweep_fingerprint_is_golden() {
    let (_, report) = experiments::exp11_scale_sweep(Scale::Quick, DEFAULT_SEED, None);
    assert_eq!(report.fingerprint, "2b7f522394f653ea");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "980f9eb1e9f8ef33");
}

#[test]
fn exp13_quick_n48_density_sweep_fingerprint_is_golden() {
    let (_, report) = experiments::exp13_dynamic_density(Scale::Quick, DEFAULT_SEED, Some(48));
    assert_eq!(report.fingerprint, "927612490378ad69");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "e14132d8c9c0a21f");
}

#[test]
fn exp14_quick_n48_cost_anatomy_fingerprint_is_golden() {
    let (_, report) = experiments::exp14_cost_anatomy(Scale::Quick, DEFAULT_SEED, Some(48));
    assert_eq!(report.fingerprint, "2bf6925d0cd56c40");
}
