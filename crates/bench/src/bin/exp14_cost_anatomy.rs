//! Experiment binary: the cost anatomy — bits per event decomposed by phase
//! for every MST maintenance policy across the density grid (see
//! `kkt_bench::experiments::exp14_cost_anatomy`).
//!
//! Prints the human-readable table to **stderr** and the sealed,
//! deterministic JSON report to **stdout**, so
//! `cargo run --bin exp14_cost_anatomy > report.json` captures valid JSON.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable (`large`
//! sweeps n ∈ {128, 256}, anything else n ∈ {48, 96}) across the density
//! ladder `m/n ∈ {2, 4, 8, 16, n/8, n/2}`, the seed by `KKT_SEED`, and
//! `KKT_EXP14_N` restricts the sweep to one grid size — CI runs
//! `KKT_SCALE=large KKT_EXP14_N=256` twice under a wall-clock budget and
//! asserts the reports are byte-identical (the trace-determinism guard:
//! attribution is observed through the JSONL/accumulator observers, so a
//! byte-equal report certifies the observed replay too).

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let only_n = kkt_bench::env_number("KKT_EXP14_N");
    let (table, report) = experiments::exp14_cost_anatomy(scale, seed, only_n);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
