//! # kkt-obs — deterministic observability for the KKT stack
//!
//! Every theorem in King–Kutten–Thorup is a statement about *where* the o(m)
//! bits go — FindMin narrowing waves, FindAny sampling, broadcast-and-echo
//! overhead, decision announces — but a bare cost counter only says how many.
//! This crate supplies the attribution layer the rest of the workspace
//! threads through `kkt_congest::Network`:
//!
//! * **Phases** — [`Phase`] names the algorithmic activity a cost belongs
//!   to; [`PhaseLedger`] is a fixed-size per-phase mirror of the cost
//!   counters that *conserves*: charging always writes both the totals and
//!   exactly one phase, so the ledger's sums equal the totals bit-for-bit,
//!   by construction, with no observer installed.
//! * **Metrics** — [`MetricsRegistry`] holds named counters and fixed-bucket
//!   [`Histogram`]s (repair rounds per event, bits per event, Borůvka rounds
//!   per batch, FindMin narrowing iterations) with deterministic iteration
//!   order and p50/p99/max readouts.
//! * **Traces** — an [`Observer`] receives one [`TraceRecord`] per workload
//!   event from the replay harness; [`JsonlObserver`] renders records as
//!   deterministic JSON lines with a rolling flush (memory-bounded on
//!   million-event horizons), and [`MetricsObserver`] feeds the per-event
//!   histograms. A replay's whole-run ledger needs no observer: the
//!   harness sums the per-event ledgers into the replay report itself.
//!
//! # Trace record schema
//!
//! [`JsonlObserver`] emits one JSON object per line, one line per top-level
//! workload event, with exactly these fields in exactly this order:
//!
//! ```json
//! {
//!   "index": 3,                       // event index in the trace
//!   "kind": "delete",                 // event kind label (burst(k) for bursts)
//!   "outcome": "ok",                  // replay outcome label
//!   "checkpoint": "verified",         // "verified" | "skipped" (not due)
//!   "phases": {                       // per-phase cost delta of this event;
//!     "delivery":        {"messages": 0, "bits": 0, "time": 0, "broadcast_echoes": 0},
//!     "broadcast_echo":  {...},       // every phase always present, fixed order
//!     "leader_election": {...},
//!     "find_min_narrow": {...},
//!     "find_any_sample": {...},
//!     "announce":        {...},
//!     "rebuild_sweep":   {...}
//!   },
//!   "total": {"messages": 0, "bits": 0, "time": 0, "broadcast_echoes": 0}
//! }
//! ```
//!
//! `total` is the sum of the `phases` rows and equals the `CostTracker`
//! delta of the event (conservation is asserted by the harness on every
//! record). Two replays of the same seeded workload produce byte-identical
//! streams.

pub mod metrics;
pub mod phase;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry};
pub use phase::{Phase, PhaseCost, PhaseLedger};
pub use trace::{JsonlObserver, MetricsObserver, Observer, TraceRecord};
