//! Experiment binary: the seed fleet — every headline number re-priced as a
//! distribution across ≥ 32 mixed seeds per cell (see
//! `kkt_bench::experiments::exp16_seed_fleet`).
//!
//! Prints the human-readable table to **stderr** and the sealed,
//! deterministic JSON report to **stdout**, so
//! `cargo run --bin exp16_seed_fleet > report.json` captures valid JSON.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable (`large`
//! sweeps the full density ladder at n = 256 plus the default rung at
//! n = 1024, `quick` or unset the quick n = 48 preset), the base seed by
//! `KKT_SEED`, the worker count by `KKT_THREADS` (wall-clock only — the
//! report is byte-identical for any thread count, which is exactly what the
//! CI `fleet-smoke` job asserts), and `KKT_EXP16_N` restricts the sweep to
//! one size rung.

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let only_n = kkt_bench::env_number("KKT_EXP16_N");
    let threads = kkt_bench::threads_from_env();
    let (table, report) = experiments::exp16_seed_fleet(scale, seed, only_n, threads);
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}
