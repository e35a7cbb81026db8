//! Experiment binary for E2: see `EXPERIMENTS.md`.
//!
//! Scale is controlled by the `KKT_SCALE` environment variable
//! (`large` for the full sweep, `quick` or unset for the quick one; any
//! other value panics) and the seed by `KKT_SEED`.

use kkt_bench::experiments;
use kkt_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = kkt_bench::seed_from_env();
    let table = experiments::exp2_st_construction(scale, seed);
    println!("{table}");
}
