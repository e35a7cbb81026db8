//! Experiment binary: the scale sweep — bits per event vs n for every MST
//! maintenance policy over a Poisson-churn trace (see
//! `kkt_bench::experiments::exp11_scale_sweep`).
//!
//! Prints the human-readable table to **stderr** and the sealed,
//! deterministic JSON report to **stdout**, so
//! `cargo run --bin exp11_scale_sweep > report.json` captures valid JSON.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable (`large`
//! sweeps n ∈ {256, 1024, 4096, 16384, 65536}, `quick` or unset n ∈ {64,
//! 256}),
//! the seed by `KKT_SEED`, and `KKT_EXP11_N` restricts the sweep to one rung
//! — CI runs `KKT_SCALE=large KKT_EXP11_N=1024` and `…KKT_EXP11_N=16384`
//! twice each under a wall-clock budget and asserts the reports are
//! byte-identical (the determinism-at-scale guard).

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let only_n = kkt_bench::env_number("KKT_EXP11_N");
    let (table, report) = experiments::exp11_scale_sweep(scale, seed, only_n);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
