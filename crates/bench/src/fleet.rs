//! Seed-fleet runner: deterministic parallel replay across a
//! (policy × rung × density × seed) grid.
//!
//! Every replay cell is a pure function of its mixed seed (kkt-lint R5
//! statically clears the sharded crates of `static mut`, `thread_rng` and
//! interior-mutability cells), so the grid is embarrassingly parallel. The
//! runner shards cells across `KKT_THREADS` scoped workers (std only — no
//! rayon, per the offline-shim constraint) in a striped assignment, catches
//! per-cell panics so a poisoned cell reports its identity instead of
//! hanging the join, and merges results back in deterministic grid order:
//! the report is byte-identical regardless of thread count.
//!
//! Seeds come from a splitmix-style [`mix_seed`] over the seed *ordinal*
//! (not the flat grid index), so the seed set is stable under grid
//! reordering — adding a rung or a policy never changes which graphs and
//! workloads the other cells replay, and every policy in an aggregate cell
//! prices the *same* (graph, workload) pairs.
//!
//! Statistics are computed in the exact integer tier of
//! [`crate::stats`] ([`SloSummary`]: `u128` sums, integer nearest-rank,
//! micro-unit fixed point) — no float ever reaches a fingerprinted field.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use kkt_congest::Histogram;
use kkt_workloads::replay::MaintenancePolicy;
use kkt_workloads::scenarios::{AdversarialTreeCut, PoissonChurn, Scenario};
use kkt_workloads::suite::{Density, SuiteParams, SweepCell};

use crate::stats::SloSummary;

/// Splitmix64-style seed mixer: the `k`-th derived seed of `base`.
///
/// Injective in `k` for fixed `base` (an odd-constant multiple feeds a
/// bijective finalizer), so a fleet's seed set `{mix_seed(base, 0..s)}` has
/// no collisions, and the mix depends only on `(base, k)` — never on where
/// the cell sits in the grid.
pub fn mix_seed(base: u64, k: u64) -> u64 {
    let mut z = base.wrapping_add((k.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker count from `KKT_THREADS` through [`crate::env_number`], falling
/// back to the machine's available parallelism when it is unset or 0.
/// Thread count affects wall-clock only — every fleet report is
/// byte-identical across values.
pub fn threads_from_env() -> usize {
    crate::env_number("KKT_THREADS")
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A worker panic, carried out of the fleet with the failing cell's
/// identity. When several cells panic in one run, the smallest cell index
/// wins — deterministic regardless of which worker hit its panic first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPanic {
    /// Flat grid index of the poisoned cell.
    pub cell: usize,
    /// Human-readable cell identity (policy, rung, density, seed).
    pub label: String,
    /// The panic payload, if it was a string (the common `panic!` case).
    pub payload: String,
}

impl std::fmt::Display for FleetPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet cell {} [{}] panicked: {}", self.cell, self.label, self.payload)
    }
}

impl std::error::Error for FleetPanic {}

/// Runs `run(i)` for every cell `i < cells` across `threads` scoped workers
/// and returns the results in cell order — byte-identical output for any
/// thread count. Worker `w` takes the striped slice `{w, w+T, w+2T, …}`;
/// each cell runs under `catch_unwind`, so a panicking cell surfaces as
/// [`FleetPanic`] (identity from `label_of`) instead of hanging the join or
/// tearing down the process.
///
/// # Errors
///
/// The lowest-indexed panicking cell, if any cell panicked.
pub fn run_fleet<R, F, L>(
    cells: usize,
    threads: usize,
    label_of: L,
    run: F,
) -> Result<Vec<R>, FleetPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    L: Fn(usize) -> String + Sync,
{
    let threads = threads.clamp(1, cells.max(1));
    let run_cell = |i: usize| -> (usize, Result<R, String>) {
        let outcome = catch_unwind(AssertUnwindSafe(|| run(i))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "<non-string panic payload>".to_string()
            }
        });
        (i, outcome)
    };

    let mut outcomes: Vec<(usize, Result<R, String>)> = if threads == 1 {
        (0..cells).map(run_cell).collect()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let run_cell = &run_cell;
                    scope.spawn(move || {
                        (w..cells).step_by(threads).map(run_cell).collect::<Vec<_>>()
                    })
                })
                .collect();
            // Panics inside cells are caught above, so a worker thread only
            // dies if the runner itself is broken — that is a programming
            // error, not a fleet outcome.
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("fleet worker infrastructure must not panic"))
                .collect()
        })
    };

    // Merge in deterministic grid order, independent of worker interleaving.
    outcomes.sort_by_key(|&(i, _)| i);
    let mut results = Vec::with_capacity(cells);
    for (i, outcome) in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(payload) => return Err(FleetPanic { cell: i, label: label_of(i), payload }),
        }
    }
    Ok(results)
}

// ---------------------------------------------------------------------------
// The replay fleet: grid definition
// ---------------------------------------------------------------------------

/// The two churn regimes every fleet cell is priced under — the same pair
/// as the E13 density sweep. A fieldless enum (not `Box<dyn Scenario>`)
/// so cell specs stay `Copy + Send + Sync` across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetScenario {
    /// Steady background churn, half deletions.
    PoissonChurn,
    /// The adversary that severs a tree edge on every deletion.
    AdversarialTreeCut,
}

impl FleetScenario {
    /// Both regimes, in report order.
    pub const ALL: [FleetScenario; 2] =
        [FleetScenario::PoissonChurn, FleetScenario::AdversarialTreeCut];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            FleetScenario::PoissonChurn => "poisson_churn",
            FleetScenario::AdversarialTreeCut => "adversarial_tree_cut",
        }
    }

    /// The concrete generator, tuned exactly as in the E11/E13 sweeps.
    pub(crate) fn generator(self, max_weight: u64) -> Box<dyn Scenario> {
        match self {
            FleetScenario::PoissonChurn => {
                Box::new(PoissonChurn { delete_fraction: 0.5, max_weight })
            }
            FleetScenario::AdversarialTreeCut => Box::new(AdversarialTreeCut { max_weight }),
        }
    }
}

/// One size rung of the fleet grid and the density rungs swept at it.
#[derive(Debug, Clone)]
pub struct FleetRung {
    /// Network size.
    pub n: usize,
    /// Density rungs replayed at this size.
    pub densities: Vec<Density>,
}

/// The full fleet grid: every (rung × density × scenario × policy)
/// aggregate cell is replayed under `seeds_per_cell` mixed seeds.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Base seed the per-cell seeds are mixed from ([`mix_seed`]).
    pub base_seed: u64,
    /// Seeds per aggregate cell (the distribution's sample count).
    pub seeds_per_cell: usize,
    /// Size rungs of the grid.
    pub rungs: Vec<FleetRung>,
}

/// Seeds per aggregate cell in both presets — the ISSUE floor for a CI
/// half-width worth printing.
pub const FLEET_SEEDS_PER_CELL: usize = 32;

impl FleetParams {
    /// The quick preset: n = 48 at the sparse default rung and the complete
    /// graph — CI-sized (512 replays) while still spanning the density
    /// extremes.
    pub fn quick(base_seed: u64) -> Self {
        FleetParams {
            base_seed,
            seeds_per_cell: FLEET_SEEDS_PER_CELL,
            rungs: vec![FleetRung { n: 48, densities: vec![Density::Ratio(4), Density::NOver2] }],
        }
    }

    /// The large preset: the full density ladder at n = 256 (the E13
    /// crossover column, re-priced as distributions) plus the default rung
    /// at n = 1024 (the E15/E11 scaling regime).
    pub fn large(base_seed: u64) -> Self {
        FleetParams {
            base_seed,
            seeds_per_cell: FLEET_SEEDS_PER_CELL,
            rungs: vec![
                FleetRung { n: 256, densities: Density::LADDER.to_vec() },
                FleetRung { n: 1024, densities: vec![Density::Ratio(4)] },
            ],
        }
    }

    /// Keeps only the rungs matching a `KKT_EXP16_N` restriction.
    pub fn restrict_to(mut self, only_n: Option<usize>) -> Self {
        if let Some(only) = only_n {
            self.rungs.retain(|r| r.n == only);
        }
        self
    }

    /// The aggregate cells in deterministic grid order.
    pub fn aggregate_cells(&self) -> Vec<AggregateCell> {
        let policies = MaintenancePolicy::all_for(kkt_core::TreeKind::Mst);
        let mut cells = Vec::new();
        for rung in &self.rungs {
            for &density in &rung.densities {
                for &scenario in &FleetScenario::ALL {
                    for &policy in &policies {
                        cells.push(AggregateCell { n: rung.n, density, scenario, policy });
                    }
                }
            }
        }
        cells
    }

    /// The mixed seed set, by ordinal. Depends only on `(base_seed,
    /// seeds_per_cell)` — never on the grid shape, so reordering or
    /// extending the grid keeps every existing cell's replays byte-stable.
    pub fn mixed_seeds(&self) -> Vec<u64> {
        (0..self.seeds_per_cell as u64).map(|k| mix_seed(self.base_seed, k)).collect()
    }
}

/// One aggregate cell of the grid: a (rung, density, scenario, policy)
/// configuration whose distribution is measured across the seed set.
#[derive(Debug, Clone, Copy)]
pub struct AggregateCell {
    /// Network size.
    pub n: usize,
    /// Density rung.
    pub density: Density,
    /// Churn regime.
    pub scenario: FleetScenario,
    /// Maintenance policy.
    pub policy: MaintenancePolicy,
}

impl AggregateCell {
    /// Cell identity for labels and panics.
    fn label(&self, seed_ordinal: usize, seed: u64) -> String {
        format!(
            "policy={} n={} density={} scenario={} seed_ordinal={} seed={:#018x}",
            self.policy.label(),
            self.n,
            self.density.label(),
            self.scenario.label(),
            seed_ordinal,
            seed
        )
    }
}

// ---------------------------------------------------------------------------
// Per-seed replay and cross-seed aggregation
// ---------------------------------------------------------------------------

/// The per-event samples one seed contributes to its aggregate cell.
#[derive(Debug, Clone)]
struct SeedSample {
    /// Simulated repair time (rounds / makespan) per top-level event.
    rounds: Vec<u64>,
    /// Bits per top-level event.
    bits: Vec<u64>,
    /// Messages per top-level event.
    messages: Vec<u64>,
    /// Oracle checkpoints that verified during the replay.
    checkpoints: u64,
}

/// Replays one (aggregate cell, seed) work cell. Pure function of its
/// arguments — the unit the fleet shards across workers.
fn replay_cell(cell: &AggregateCell, seed: u64) -> SeedSample {
    let setup = SweepCell::preset(cell.n, cell.density, seed).setup();
    let scenario = cell.scenario.generator(setup.cell.params.max_weight);
    let (workload, _) = setup.trace(scenario.as_ref()).expect("generated trace is applicable");
    let report = setup
        .harness
        .replay(&setup.base, &workload, cell.policy)
        .expect("every checkpoint verifies against the shadow oracle");
    SeedSample {
        rounds: report.per_event.iter().map(|e| e.time).collect(),
        bits: report.per_event.iter().map(|e| e.bits).collect(),
        messages: report.per_event.iter().map(|e| e.messages).collect(),
        checkpoints: report.checkpoints_verified as u64,
    }
}

/// Bucket ladder for the cross-seed bits-per-event tail histograms:
/// powers of two up to 2⁴⁸ — wide enough for the densest large rung.
fn bits_bounds() -> Vec<u64> {
    Histogram::pow2_bounds(48)
}

/// One aggregate cell's measured distribution — every field integer-exact
/// (see [`SloSummary`]); the only floats anywhere near a fleet report are
/// in stderr table rendering.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCell {
    /// Network size.
    pub n: usize,
    /// Target live edges of the rung (per-seed graphs may undershoot by the
    /// sparse builder's tolerance; the target is the rung's identity).
    pub m_target: usize,
    /// Density rung label.
    pub density: String,
    /// Churn regime label.
    pub scenario: String,
    /// Maintenance policy label.
    pub policy: String,
    /// Top-level events per seed.
    pub events_per_seed: usize,
    /// Repair rounds per event: mean/CI across seeds, pooled tails.
    pub rounds: SloSummary,
    /// Bits per event: mean/CI across seeds, pooled tails.
    pub bits: SloSummary,
    /// Messages per event: mean/CI across seeds, pooled tails.
    pub messages: SloSummary,
    /// p99 of the merged cross-seed bits histogram (bucket upper bound) —
    /// the streaming-tail readout, cross-checked against the exact pooled
    /// p99 during aggregation.
    pub bits_hist_p99: u64,
    /// Oracle checkpoints verified, summed across seeds.
    pub checkpoints_verified: u64,
}

/// A sealed fleet report: the full grid's distributions plus the seed set
/// that produced them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Base seed of the mixed seed set.
    pub base_seed: u64,
    /// Seeds per aggregate cell.
    pub seeds_per_cell: usize,
    /// The mixed seed set, by ordinal (stable under grid reordering).
    pub mixed_seeds: Vec<u64>,
    /// Maintained structure (`mst`).
    pub tree_kind: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Aggregate cells in grid order.
    pub cells: Vec<FleetCell>,
    /// FNV-1a fingerprint of the rest of the document.
    pub fingerprint: String,
}

impl FleetReport {
    /// Recomputes the fingerprint over the serialised document with the
    /// fingerprint field emptied (idempotent — same discipline as every
    /// other sealed report in the workspace).
    pub fn seal(&mut self) {
        self.fingerprint = String::new();
        let doc = serde_json::to_string(self).expect("report serialises");
        self.fingerprint = kkt_workloads::fingerprint_hex(&doc);
    }
}

/// Runs the whole fleet: shards the (aggregate cell × seed) work grid
/// across `threads` workers, aggregates each cell's distribution in exact
/// integer arithmetic, and seals the report. Byte-identical output for any
/// `threads` ≥ 1.
///
/// # Panics
///
/// Re-raises a poisoned work cell as a panic carrying the cell's
/// (policy, rung, density, seed) identity.
pub fn run_replay_fleet(params: &FleetParams, threads: usize) -> FleetReport {
    let aggregates = params.aggregate_cells();
    let seeds = params.mixed_seeds();
    let per_cell = seeds.len();
    let work: Vec<(usize, usize)> =
        (0..aggregates.len()).flat_map(|a| (0..per_cell).map(move |s| (a, s))).collect();

    let samples = run_fleet(
        work.len(),
        threads,
        |i| {
            let (a, s) = work[i];
            aggregates[a].label(s, seeds[s])
        },
        |i| {
            let (a, s) = work[i];
            replay_cell(&aggregates[a], seeds[s])
        },
    )
    .unwrap_or_else(|poisoned| panic!("{poisoned}"));

    let mut scheduler = String::new();
    let mut cells = Vec::with_capacity(aggregates.len());
    for (a, agg) in aggregates.iter().enumerate() {
        let group = &samples[a * per_cell..(a + 1) * per_cell];
        let rounds: Vec<Vec<u64>> = group.iter().map(|s| s.rounds.clone()).collect();
        let bits: Vec<Vec<u64>> = group.iter().map(|s| s.bits.clone()).collect();
        let messages: Vec<Vec<u64>> = group.iter().map(|s| s.messages.clone()).collect();
        let bits_slo = SloSummary::of_groups(&bits);

        // Cross-seed tail through the mergeable histogram path (what a
        // long-lived service would stream), cross-checked against the exact
        // pooled statistics: the merge must preserve sample count and the
        // exact maximum, and its bucketed p99 must upper-bound the exact
        // nearest-rank p99.
        let mut merged = Histogram::with_bounds(&bits_bounds());
        for seed_bits in &bits {
            let mut h = Histogram::with_bounds(&bits_bounds());
            for &b in seed_bits {
                h.record(b);
            }
            merged.merge(&h);
        }
        assert_eq!(merged.count(), bits_slo.samples, "histogram merge must preserve counts");
        assert_eq!(merged.max(), bits_slo.max, "histogram merge must preserve the exact max");
        assert!(merged.p99() >= bits_slo.p99, "bucketed p99 upper-bounds the exact p99");

        let params_of_cell = SuiteParams::density_preset(agg.n, agg.density);
        scheduler = kkt_workloads::report::scheduler_label(params_of_cell.scheduler);
        cells.push(FleetCell {
            n: agg.n,
            m_target: agg.density.target_edges(agg.n),
            density: agg.density.label(),
            scenario: agg.scenario.label().to_string(),
            policy: agg.policy.label().to_string(),
            events_per_seed: params_of_cell.events,
            rounds: SloSummary::of_groups(&rounds),
            bits: bits_slo,
            messages: SloSummary::of_groups(&messages),
            bits_hist_p99: merged.p99(),
            checkpoints_verified: group.iter().map(|s| s.checkpoints).sum(),
        });
    }

    let mut report = FleetReport {
        base_seed: params.base_seed,
        seeds_per_cell: per_cell,
        mixed_seeds: seeds,
        tree_kind: "mst".to_string(),
        scheduler,
        cells,
        fingerprint: String::new(),
    };
    report.seal();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_stable_and_collision_free() {
        // Pinned values: the seed set is part of every sealed fleet report,
        // so the mixer must never drift.
        assert_eq!(mix_seed(0xFEED, 0), 0x3365_e73f_f6c1_e17b);
        assert_eq!(mix_seed(0xFEED, 1), 0x2c77_a446_f151_e05a);
        let seeds: Vec<u64> = (0..4096).map(|k| mix_seed(0xFEED, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "mixed seeds must not collide");
        assert_ne!(mix_seed(0, 0), mix_seed(1, 0), "base seed must matter");
    }

    #[test]
    fn run_fleet_merges_in_grid_order_for_any_thread_count() {
        let cells = 37; // deliberately not a multiple of any thread count
        let expect: Vec<u64> = (0..cells as u64).map(|i| i * i + 7).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got =
                run_fleet(cells, threads, |i| format!("cell {i}"), |i| (i as u64) * (i as u64) + 7)
                    .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
        assert_eq!(run_fleet(0, 4, |_| String::new(), |i| i).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn run_fleet_reports_the_poisoned_cell_identity() {
        // The panic must carry the failing cell's identity — and when
        // several cells panic, the lowest grid index deterministically wins
        // regardless of worker interleaving.
        let labels =
            ["policy=impromptu_repair n=48 seed=0", "ok", "policy=rebuild_ghs n=96 seed=2"];
        for threads in [1, 2, 8] {
            let err = run_fleet(
                3,
                threads,
                |i| labels[i].to_string(),
                |i| {
                    if i != 1 {
                        panic!("checkpoint diverged in {}", labels[i]);
                    }
                    i
                },
            )
            .unwrap_err();
            assert_eq!(err.cell, 0, "threads={threads}");
            assert_eq!(err.label, labels[0]);
            assert!(err.payload.contains("checkpoint diverged"), "{}", err.payload);
            assert!(err.payload.contains("impromptu_repair"), "{}", err.payload);
            let shown = err.to_string();
            assert!(shown.contains("n=48") && shown.contains("seed=0"), "{shown}");
        }
    }

    #[test]
    fn grid_order_and_seed_set_are_decoupled() {
        let quick = FleetParams::quick(0xFEED);
        // 1 rung × 2 densities × 2 scenarios × 4 MST policies.
        assert_eq!(quick.aggregate_cells().len(), 16);
        assert_eq!(quick.seeds_per_cell, 32, "the ISSUE floor: ≥ 32 seeds per cell");
        // The seed set is a function of (base, count) only: a grid with
        // different rungs mixes the identical seeds.
        let large = FleetParams::large(0xFEED).restrict_to(Some(1024));
        assert_eq!(quick.mixed_seeds(), large.mixed_seeds());
        assert_eq!(large.rungs.len(), 1);
        assert_eq!(large.rungs[0].n, 1024);
        // An unmatched restriction empties the rung list (the caller turns
        // that into a loud failure).
        assert!(FleetParams::quick(1).restrict_to(Some(999)).rungs.is_empty());
    }

    /// A tiny grid the debug-mode test budget can afford: one rung, one
    /// density, both scenarios, all policies, a handful of seeds.
    fn tiny_params() -> FleetParams {
        FleetParams {
            base_seed: 0xFEED,
            seeds_per_cell: 3,
            rungs: vec![FleetRung { n: 16, densities: vec![Density::Ratio(4)] }],
        }
    }

    #[test]
    fn replay_fleet_is_byte_identical_across_thread_counts() {
        let params = tiny_params();
        let baseline = run_replay_fleet(&params, 1);
        let json = serde_json::to_string(&baseline).unwrap();
        for threads in [2, 8] {
            let report = run_replay_fleet(&params, threads);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                json,
                "threads={threads} must not change a single byte"
            );
        }
        // Back-to-back runs at the same thread count are also identical.
        assert_eq!(serde_json::to_string(&run_replay_fleet(&params, 2)).unwrap(), json);
        assert_eq!(baseline.fingerprint.len(), 16);
        assert_eq!(baseline.cells.len(), 8);
        for cell in &baseline.cells {
            assert_eq!(cell.rounds.seeds, 3, "{}", cell.policy);
            assert_eq!(cell.bits.samples, cell.messages.samples);
            assert!(cell.checkpoints_verified > 0);
            assert!(cell.bits_hist_p99 >= cell.bits.p99);
        }
    }

    #[test]
    fn replay_fleet_distributions_vary_with_the_base_seed() {
        let a = run_replay_fleet(&tiny_params(), 2);
        let b = run_replay_fleet(&FleetParams { base_seed: 77, ..tiny_params() }, 2);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_ne!(a.mixed_seeds, b.mixed_seeds);
    }
}
