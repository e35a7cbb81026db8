//! Experiment binary: batched vs sequential vs rebuild repair on bursts of
//! `k` simultaneous independent tree-edge failures (see `kkt-workloads`'
//! `MultiEdgeCuts` and `kkt-core`'s batched repair pipeline).
//!
//! Prints the human-readable table to **stderr** and the sealed,
//! deterministic JSON report to **stdout**, so
//! `cargo run --bin exp10_batched_repair > report.json` captures valid JSON.
//! CI runs this binary twice and asserts the JSON is byte-identical — the
//! determinism guard for the concurrent search interleaving.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable
//! (`large` for the full sweep, `quick` or unset for the quick one; any
//! other value panics) and the seed by `KKT_SEED`.

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let (table, report) = experiments::exp10_batched_repair(scale, seed);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
