//! Weighted undirected graph substrate for the `kkt-spanning` workspace.
//!
//! This crate provides everything the distributed algorithms need to know about
//! the *global* communication graph:
//!
//! * [`Graph`] — an undirected (optionally weighted) multigraph-free graph with
//!   stable node and edge identifiers,
//! * [`EdgeNumber`] and [`UniqueWeight`] — the edge identification and
//!   weight-disambiguation scheme used by King, Kutten and Thorup (weights are made
//!   distinct by concatenating the raw weight with the edge number, exactly as in
//!   GHS 1983 and §2 "Definitions" of the paper),
//! * [`generators`] — synthetic workload graphs (connected random graphs at a
//!   given edge probability or edge count, complete graphs, rings, grids,
//!   preferential attachment) and random update streams,
//! * [`mst`] — sequential reference algorithms (Kruskal, Prim) used to *verify*
//!   the distributed outputs,
//! * [`union_find`], [`paths`], [`metrics`] — supporting utilities.
//!
//! The distributed simulator in `kkt-congest` only ever exposes a node's *local*
//! view (its incident edges) to node programs; the full [`Graph`] is the
//! simulator's ground truth and the test suite's oracle.
//!
//! # Example
//!
//! ```rust
//! use kkt_graphs::{generators, mst};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = generators::connected_gnp(64, 0.1, 1_000, &mut rng);
//! let forest = mst::kruskal(&g);
//! assert_eq!(forest.edges.len(), g.node_count() - 1);
//! ```

pub mod edge;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod mst;
pub mod oracle;
pub mod paths;
pub mod union_find;

pub use edge::{EdgeId, EdgeNumber, UniqueWeight, Weight};
pub use graph::{Edge, Graph, NodeId};
pub use mst::{kruskal, prim, verify_mst, verify_spanning_forest, SpanningForest};
pub use oracle::ShadowOracle;
pub use union_find::UnionFind;
