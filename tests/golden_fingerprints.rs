//! Golden fingerprints: the quick exp9, exp10 and exp11 presets, the
//! quick n = 48 column of exp13, the quick n = 64 rung of exp12, an ST
//! battery and the quick exp16 seed fleet, at the default seed, reproduce
//! their sealed reports exactly. exp13's report carries the phase ledgers
//! E14 tabulates, so its whole-report golden pins the cost anatomy too.
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
use kkt_core::TreeKind;
use kkt_workloads::{fingerprint_hex, ReplayReport, SuiteParams, Sweep};
use serde_json::Value;

/// The cost golden: one fingerprint over every replay report's own
/// fingerprint, comma-joined in report order. Each replay is hashed without
/// its `phases` key, the per-phase split of its `total`, so the goldens
/// pinned before replay reports carried the split still hold. It covers
/// every other field of every embedded replay report but not the layout of
/// the report around them.
fn cost_fingerprint<'a>(reports: impl IntoIterator<Item = &'a ReplayReport>) -> String {
    let each: Vec<String> = reports
        .into_iter()
        .map(|report| {
            let Value::Object(mut fields) = serde_json::to_value(report) else {
                panic!("a replay report serialises to an object");
            };
            fields.retain(|(key, _)| key != "phases");
            fingerprint_hex(&serde_json::to_string(&Value::Object(fields)).unwrap())
        })
        .collect();
    fingerprint_hex(&each.join(","))
}

#[test]
fn exp9_quick_churn_policies_fingerprint_is_golden() {
    let (_, report) = experiments::exp9_churn_policies(Scale::Quick, DEFAULT_SEED);
    assert_eq!(report.fingerprint, "f4df2eb9c2969288");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "ce4491ac54423487");
}

#[test]
fn exp10_quick_batched_repair_fingerprint_is_golden() {
    let (_, report) = experiments::exp10_batched_repair(Scale::Quick, DEFAULT_SEED);
    assert_eq!(report.fingerprint, "0925abb34a74be7f");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "cb62f57508fbc1bf");
}

#[test]
fn exp11_quick_scale_sweep_fingerprint_is_golden() {
    let (_, report) = experiments::exp11_scale_sweep(Scale::Quick, DEFAULT_SEED, None);
    assert_eq!(report.fingerprint, "c642816c8d7ed9f6");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "980f9eb1e9f8ef33");
}

#[test]
fn exp13_quick_n48_density_sweep_fingerprint_is_golden() {
    let (_, report) = experiments::exp13_dynamic_density(Scale::Quick, DEFAULT_SEED, Some(48));
    assert_eq!(report.fingerprint, "93e2ecd739601de4");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "e14132d8c9c0a21f");
}

/// exp12 at its quick n = 64 rung, with every wall-clock `seconds` zeroed:
/// the rest of the report (sizes, bits, messages, checkpoints) is
/// deterministic.
#[test]
fn exp12_quick_n64_wallclock_fingerprint_is_golden() {
    let (_, mut report) = experiments::exp12_wallclock(Scale::Quick, DEFAULT_SEED, Some(64));
    for policy in report.rungs.iter_mut().flat_map(|rung| &mut rung.policies) {
        policy.seconds = 0.0;
    }
    assert_eq!(fingerprint_hex(&serde_json::to_string(&report).unwrap()), "58006c819a3d11ae");
}

/// The standard battery maintaining an unweighted spanning tree, the only
/// golden over ST replays: impromptu and batched repair and both rebuilds
/// (`Build ST`, flooding).
#[test]
fn st_quick_battery_fingerprint_is_golden() {
    let params = SuiteParams {
        kind: TreeKind::St,
        max_weight: 1,
        events: 12,
        verify_every: 3,
        seed: DEFAULT_SEED,
        ..SuiteParams::with_n(48)
    };
    let report = Sweep::battery(params).run().unwrap();
    assert_eq!(report.fingerprint, "6e35e73b04ec69ba");
    let costs = cost_fingerprint(report.points.iter().flat_map(|p| &p.reports));
    assert_eq!(costs, "22befe0f52485943");
}

/// The quick seed fleet: 512 replays, every policy of every cell across 32
/// mixed seeds, so it pins the Impromptu and BatchedRepair paths far beyond
/// the single seed of the goldens above.
#[test]
#[ignore = "about 10 s in release on one thread, minutes in debug; \
            run with `cargo test --release --test golden_fingerprints -- --ignored`"]
fn exp16_quick_seed_fleet_fingerprint_is_golden() {
    let (_, report) = experiments::exp16_seed_fleet(Scale::Quick, DEFAULT_SEED, None, 1);
    assert_eq!(report.fingerprint, "c508a9b0a0af76e6");
}
