//! CONGEST KT1 network simulator.
//!
//! This crate is the substrate on which every distributed algorithm in the
//! workspace runs. It models the network of King–Kutten–Thorup (PODC 2015)
//! faithfully at the level their theorems are stated:
//!
//! * **KT1 knowledge.** A node knows its own identifier, the identifiers of its
//!   neighbours, the weight of each incident edge, which incident edges are
//!   currently *marked* (tree edges of the maintained forest), and `n`. Nothing
//!   else — node programs only ever see a [`NodeView`].
//! * **CONGEST bandwidth.** Every message is charged its size in bits and the
//!   engine can enforce a `O(log(n + u))`-bit cap ([`NetworkConfig::bandwidth_limit`]).
//! * **Synchrony and asynchrony.** One event-driven [`engine::Engine`] covers
//!   both: the [`engine::Scheduler::Synchronous`] scheduler delivers every
//!   message exactly one time unit after it is sent (a global round clock),
//!   while the random scheduler delays each message independently, which is the
//!   setting of the repair theorems.
//! * **Exact accounting.** [`cost::CostTracker`] records messages, bits,
//!   completion time and broadcast-and-echo invocations; the experiment suite
//!   reads these counters, never wall-clock time.
//! * **Phase attribution.** The tracker keeps those counts in one per-phase
//!   [`PhaseLedger`]: each charge lands in the slot named by the innermost
//!   enclosing [`Network::span`] (default: [`Phase::Delivery`]), and
//!   [`Network::cost`] reads the totals as the ledger's sums. Spans never
//!   change a total, an RNG draw, or a report byte — they only say *where*
//!   the bits went.
//!
//! On top of the raw engine the crate provides the three communication
//! patterns the paper composes everything from: generic
//! [`broadcast_echo`] (with pluggable aggregation), leaf-initiated
//! [`leader`] election, and [`flood`]ing (the Ω(m) baseline primitive).
//!
//! # Example
//!
//! ```rust
//! use kkt_congest::{Network, NetworkConfig};
//! use kkt_congest::broadcast_echo::{run_broadcast_echo, CountNodes};
//! use kkt_graphs::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = generators::connected_gnp(32, 0.1, 100, &mut rng);
//! let mst = kkt_graphs::kruskal(&g);
//! let mut net = Network::new(g, NetworkConfig::default());
//! net.mark_all(&mst.edges);
//! let count = run_broadcast_echo(&mut net, 0, CountNodes).expect("count nodes");
//! assert_eq!(count, 32);
//! assert!(net.cost().messages > 0);
//! ```

pub mod arena;
pub mod broadcast_echo;
pub mod cost;
pub mod engine;
pub mod error;
pub mod flood;
pub mod forest;
pub mod leader;
pub mod message;
pub mod model;
mod queue;

pub use cost::{CostReport, CostTracker};
pub use engine::{Engine, Protocol, RunStats, Scheduler};
pub use error::CongestError;
pub use forest::MarkedForest;
pub use kkt_obs::{Histogram, Phase, PhaseCost, PhaseLedger};
pub use message::{bits_for_value, BitSized};
pub use model::{IncidentEdge, Network, NetworkConfig, NodeView};
