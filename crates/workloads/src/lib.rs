//! # kkt-workloads — deterministic dynamic-network scenario engine
//!
//! The paper's headline contribution is *impromptu repair*: after an edge
//! deletion or insertion the MST is fixed with `Õ(n)` communication instead
//! of being rebuilt. The interesting workloads are therefore long
//! **sequences** of topology changes. This crate expresses them:
//!
//! * **Traces** — [`Workload`] is a named, seeded sequence of
//!   [`WorkloadEvent`]s (deletions, insertions, weight changes, and batched
//!   [`WorkloadEvent::Burst`]s), validated against the base graph and
//!   fingerprinted so the same seed always yields a byte-identical trace.
//! * **Scenario generators** — composable [`Scenario`] implementations:
//!   memoryless [`PoissonChurn`], MST-severing [`AdversarialTreeCut`],
//!   partition-and-heal failure bursts ([`PartitionHeal`]), simultaneous
//!   independent tree-edge failures ([`MultiEdgeCuts`]), hot-edge
//!   [`WeightDrift`], and sequential [`MixedPhases`] lifecycles.
//! * **Replay** — [`ReplayHarness`] drives a trace through a
//!   [`MaintenancePolicy`]: the paper's impromptu repairs on a
//!   [`kkt_core::MaintainedForest`] (one repair per primitive, or burst-wise
//!   batched via [`MaintenancePolicy::BatchedRepair`]), or
//!   rebuild-from-scratch baselines (`Build MST` rerun, GHS, flooding),
//!   under synchronous or random-async delivery, verifying at checkpoints
//!   against the incremental [`kkt_graphs::ShadowOracle`], which trace
//!   validation and the tree-targeting generators keep too. Every policy
//!   runs the same event loop.
//! * **Sweeps** — a [`Sweep`] is cells ([`SuiteParams`], each on a
//!   [`Density`] rung) × scenarios × policies. For each cell the runner
//!   builds the base graph and the harness ([`SuiteParams::setup`]) and
//!   each validated trace once, then replays every policy
//!   ([`Sweep::replay_each`]).
//! * **Reports** — per-event and cumulative [`ReplayReport`]s, each with
//!   its cost split by protocol phase ([`ReplayReport::phases`]), and the
//!   [`SweepReport`] of a sweep, which the `exp9`, `exp10`, `exp11` and
//!   `exp13` binaries serialise as deterministic JSON (`exp13` also prints
//!   E14's phase table from it).
//! * **Density axis** — [`SuiteParams::density_preset`] instantiates any
//!   suite at a rung of the [`Density`] ladder
//!   (`m/n ∈ {2, 4, 8, 16, n/8, n/2}`, where `n/2` is the complete graph):
//!   the base graph is rejection-sampled below a quarter of `K_n` and
//!   exactly enumerated by `kkt_graphs::generators::connected_dense` above
//!   it, every scenario generator is well-defined from the tree-only floor
//!   (`m = n - 1`) to `K_n`, and the achieved `m/n` is recorded in (and
//!   fingerprinted with) every suite report. The `exp13_dynamic_density`
//!   binary sweeps the whole `n × m/n` grid (EXPERIMENTS.md §E13).
//!
//! ```rust
//! use kkt_workloads::{Density, SuiteParams, Sweep};
//!
//! // The standard battery at the densest rung of the ladder at n = 16: the
//! // complete graph K_16.
//! let params = SuiteParams {
//!     events: 4,
//!     verify_every: 2,
//!     ..SuiteParams::density_preset(16, Density::NOver2)
//! };
//! let report = Sweep::battery(params).run().unwrap();
//! assert_eq!(report.points.len(), 5);
//! assert!(report.points.iter().all(|p| p.m == 16 * 15 / 2 && p.density == "n/2"));
//! ```
//!
//! # Example
//!
//! ```rust
//! use kkt_workloads::{MaintenancePolicy, PoissonChurn, ReplayHarness, Scenario};
//! use kkt_graphs::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let base = generators::connected_gnp(24, 0.25, 500, &mut rng);
//!
//! let workload = PoissonChurn::default().generate(&base, 8, 42);
//! assert_eq!(workload.fingerprint(), PoissonChurn::default().generate(&base, 8, 42).fingerprint());
//!
//! let harness = ReplayHarness::default();
//! let report = harness.replay(&base, &workload, MaintenancePolicy::Impromptu).unwrap();
//! assert_eq!(report.checkpoints_verified, workload.len());
//! ```

pub mod event;
pub mod fingerprint;
pub mod replay;
pub mod report;
pub mod scenarios;
pub mod suite;
pub mod workload;

pub use event::WorkloadEvent;
pub use fingerprint::{fingerprint_hex, fnv1a64};
pub use kkt_obs::{JsonlObserver, Observer, TraceRecord};
pub use replay::{MaintenancePolicy, ReplayConfig, ReplayError, ReplayHarness};
pub use report::{EventCost, ReplayReport, SweepPoint, SweepReport};
pub use scenarios::{
    standard_suite, AdversarialTreeCut, MixedPhases, MultiEdgeCuts, PartitionHeal, PoissonChurn,
    Scenario, WeightDrift,
};
pub use suite::{CellSetup, Density, SuiteParams, Sweep};
pub use workload::{Workload, WorkloadStats};
