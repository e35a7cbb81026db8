//! Experiment binary: the dynamic density sweep — bits per event vs `m/n`
//! for every MST maintenance policy under churn (see
//! `kkt_bench::experiments::exp13_dynamic_density`).
//!
//! Prints the human-readable table to **stderr** and the sealed,
//! deterministic JSON report to **stdout**, so
//! `cargo run --bin exp13_dynamic_density > report.json` captures valid
//! JSON.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable (`large`
//! sweeps n ∈ {128, 256}, anything else n ∈ {48, 96}) across the density
//! ladder `m/n ∈ {2, 4, 8, 16, n/8, n/2}`, the seed by `KKT_SEED`, and
//! `KKT_EXP13_N` restricts the sweep to one grid size — CI runs
//! `KKT_SCALE=large KKT_EXP13_N=256` twice under a wall-clock budget and
//! asserts the reports are byte-identical (the determinism-at-density
//! guard; the densest rung of that column is the complete graph `K_256`).

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let only_n = kkt_bench::env_number("KKT_EXP13_N");
    let (table, report) = experiments::exp13_dynamic_density(scale, seed, only_n);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
