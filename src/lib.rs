//! # kkt — o(m)-communication MST/ST construction and impromptu repair
//!
//! Facade crate for the `kkt-spanning` workspace, a from-scratch Rust
//! reproduction of King, Kutten and Thorup, *"Construction and impromptu
//! repair of an MST in a distributed network with o(m) communication"*
//! (PODC 2015).
//!
//! The facade re-exports the workspace crates under stable module names so a
//! downstream user can depend on a single crate:
//!
//! * [`graphs`] — graph substrate, generators, sequential oracles,
//! * [`hashing`] — odd hashes, pairwise-independent hashes and
//!   Schwartz–Zippel sketches,
//! * [`congest`] — the CONGEST KT1 simulator (engines, broadcast-and-echo,
//!   leader election, flooding, cost accounting),
//! * [`core`] — the paper's algorithms (TestOut, HP-TestOut, FindAny,
//!   FindMin, Build MST/ST, impromptu repairs, [`MaintainedForest`]),
//! * [`baselines`] — GHS-style and flooding baselines,
//! * [`workloads`] — the deterministic dynamic-network scenario engine:
//!   seeded churn traces (Poisson churn, adversarial tree-cutting,
//!   partition-and-heal bursts, weight drift, mixed lifecycles), a replay
//!   harness driving them through impromptu repair or rebuild policies under
//!   either scheduler with checkpoints against an incrementally maintained
//!   shadow oracle, and fingerprinted JSON cost reports.
//!
//! The runnable examples live in `examples/` (`quickstart`,
//! `dynamic_network`, `broadcast_tree`, `compare_baselines`,
//! `churn_stress`) and the experiment harness in the `kkt-bench` crate
//! (whose 14 `exp*` binaries, `exp1`…`exp13` and `exp16`, are registered on
//! this package, so `cargo run --bin exp11_scale_sweep` works from the
//! repository root).
//!
//! ```rust
//! use kkt::{MaintainOptions, MaintainedForest, TreeKind};
//! use kkt::graphs::generators;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), kkt::core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let graph = generators::connected_gnp(32, 0.2, 100, &mut rng);
//! let forest = MaintainedForest::build(graph, TreeKind::Mst, MaintainOptions::default())?;
//! assert!(forest.verify().is_ok());
//! # Ok(())
//! # }
//! ```

pub use kkt_baselines as baselines;
pub use kkt_congest as congest;
pub use kkt_core as core;
pub use kkt_graphs as graphs;
pub use kkt_hashing as hashing;
pub use kkt_workloads as workloads;

pub use kkt_core::{
    BatchError, BatchStats, CoreError, DeleteOutcome, FoundEdge, InsertOutcome, KktConfig,
    MaintainOptions, MaintainedForest, TreeKind, UpdateOutcome,
};
