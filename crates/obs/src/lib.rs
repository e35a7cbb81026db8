//! # kkt-obs — deterministic observability for the KKT stack
//!
//! Every theorem in King–Kutten–Thorup is a statement about *where* the o(m)
//! bits go — FindMin narrowing waves, FindAny sampling, broadcast-and-echo
//! overhead, decision announces — but a bare cost counter only says how many.
//! This crate supplies the attribution layer the rest of the workspace
//! threads through `kkt_congest::Network`:
//!
//! * **Phases** — [`Phase`] names the algorithmic activity a cost belongs
//!   to; [`PhaseLedger`] holds one [`PhaseCost`] per phase. The ledger is
//!   the only store a network's cost tracker keeps: every charge lands in
//!   exactly one phase, and the network's totals are the ledger's sums. A
//!   replay report sums its events' ledgers into its own `phases` and seals
//!   one cost record per event.
//! * **Histograms** — [`Histogram`] buckets samples on fixed bounds, with
//!   an exact max, a deterministic p99 readout and an order-independent
//!   merge.

pub mod metrics;
pub mod phase;

pub use metrics::Histogram;
pub use phase::{Phase, PhaseCost, PhaseLedger};
