//! # kkt-core — o(m)-communication MST/ST construction and impromptu repair
//!
//! A faithful implementation of the algorithms of King, Kutten and Thorup,
//! *"Construction and impromptu repair of an MST in a distributed network
//! with o(m) communication"* (PODC 2015), on top of the simulated CONGEST
//! KT1 network of [`kkt_congest`].
//!
//! ## What the paper shows
//!
//! In the KT1 model (each node knows its own ID, its neighbours' IDs, the
//! weights of its incident edges and `n`), a minimum spanning forest can be
//! built with `O(n log² n / log log n)` messages and a spanning forest with
//! `O(n log n)` messages — beating the Ω(m) "folk theorem" for broadcast-tree
//! construction. Moreover an already-built tree can be repaired after an edge
//! deletion with `O(n log n / log log n)` (MST) or `O(n)` (ST) expected
//! messages *without storing anything between updates* ("impromptu").
//!
//! ## Layout
//!
//! * Primitives: [`test_out`] (constant-probability cut detection),
//!   [`hp_test_out`] (w.h.p. cut detection via polynomial identity testing).
//! * Searches: [`find_any`] (some outgoing edge, expected O(1)
//!   broadcast-and-echoes) and [`find_min`] (the minimum outgoing edge,
//!   `O(log n / log log n)` broadcast-and-echoes). Each is one state machine
//!   that [`search`] drives either alone, one broadcast-and-echo at a time,
//!   or many at once in concurrent waves. A [`Budget`] picks the w.h.p.
//!   search or its capped `-C` variant; a [`SearchOutcome`] reports the
//!   edge, an empty cut, or a give-up.
//! * Construction: [`build_mst`], [`build_st`] (Borůvka phases driven by the
//!   searches).
//! * Dynamics: [`repair`] (impromptu delete/insert/weight-change repairs) and
//!   [`batch`] (bursts of cuts mended in one pipelined pass).
//! * Public API: [`MaintainedForest`] wraps all of the above behind a
//!   build / update / verify interface.
//!
//! ## Example
//!
//! ```rust
//! use kkt_core::{MaintainedForest, MaintainOptions, TreeKind};
//! use kkt_graphs::generators;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), kkt_core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let graph = generators::connected_gnp(48, 0.2, 100, &mut rng);
//! let m = graph.edge_count() as u64;
//!
//! let forest = MaintainedForest::build(graph, TreeKind::Mst, MaintainOptions::default())?;
//! forest.verify().expect("the marked edges are the unique MST");
//! println!("built the MST with {} messages over {} edges", forest.cost().messages, m);
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod build_mst;
pub mod build_st;
pub mod config;
pub mod error;
pub mod find_any;
pub mod find_min;
pub mod hp_test_out;
pub mod maintained;
pub mod repair;
pub mod search;
pub mod test_out;
pub mod weights;

pub use batch::{BatchError, BatchStats};
pub use build_mst::{build_mst, BuildOutcome, PhaseReport};
pub use build_st::build_st;
pub use config::{KktConfig, FINDANY_SUCCESS_PROBABILITY, TESTOUT_SUCCESS_PROBABILITY};
pub use error::CoreError;
pub use find_any::find_any;
pub use find_min::{find_min, FindMinTrace};
pub use hp_test_out::hp_test_out;
pub use maintained::{MaintainOptions, MaintainedForest, TreeKind, UpdateOutcome};
pub use repair::{
    decrease_weight_mst, delete_edge_mst, delete_edge_st, increase_weight_mst, insert_edge_mst,
    insert_edge_st, DeleteOutcome, InsertOutcome,
};
pub use search::{Budget, SearchOutcome};
pub use test_out::{test_out, wide_test_out, WideTestOut};
pub use weights::{FoundEdge, WeightInterval};
