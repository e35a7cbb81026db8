//! Experiment binary: wall-clock of the simulator data plane — the
//! mixed-lifecycle churn trace replayed under every MST policy at the
//! `scale_preset` ladder, timed end-to-end (see
//! `kkt_bench::experiments::exp12_wallclock`).
//!
//! Prints the human-readable table to **stderr** and the JSON report to
//! **stdout**, so `cargo run --release --bin exp12_wallclock > bench.json`
//! captures valid JSON. The `seconds` fields are machine-dependent; the
//! `bits`/`messages` columns are the determinism anchor (they must equal
//! what exp9/exp11 record for the same trace).
//!
//! Scale is controlled by `KKT_SCALE` (`large` sweeps
//! n ∈ {256, 1024, 4096, 16384, 65536}, `quick` or unset n ∈ {64, 256}), the
//! seed by `KKT_SEED`, and `KKT_EXP12_N` restricts the sweep to one rung.
//! `BENCH_PR4.json` and `BENCH_PR9.json` at the repo root are sealed
//! snapshots of `KKT_SCALE=large` runs plus the pre-optimization baselines
//! they were measured against.

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let only_n = kkt_bench::env_number("KKT_EXP12_N");
    let (table, report) = experiments::exp12_wallclock(scale, seed, only_n);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
