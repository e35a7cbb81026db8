//! Experiment binary: churn-policy comparison (see `kkt-workloads`).
//!
//! Prints the human-readable table to **stderr** and the sealed,
//! deterministic JSON report to **stdout**, so
//! `cargo run --bin exp9_churn_policies > report.json` captures valid JSON.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable
//! (`large` for the full sweep, `quick` or unset for the quick one; any
//! other value panics) and the seed by `KKT_SEED`.

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let (table, report) = experiments::exp9_churn_policies(scale, seed);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
