//! Communication cost accounting.
//!
//! Every theorem in the paper is a statement about *messages* and *time*, so
//! the simulator's primary outputs are the counters collected here rather than
//! wall-clock durations. A [`CostTracker`] accumulates over the lifetime of a
//! [`crate::Network`]; [`CostReport`] is a snapshot used for deltas
//! ("how much did this FindMin cost?").
//!
//! The tracker stores its counts in one place, a per-phase [`PhaseLedger`]:
//! every `record_*` call charges exactly one [`Phase`] slot (the one set by
//! the innermost enclosing [`crate::Network::span`]), and
//! [`CostTracker::report`] reads the totals as the ledger's sums.

use kkt_obs::{Phase, PhaseLedger};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Sub;

/// Cumulative communication costs of a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostTracker {
    /// Messages, bits, time and broadcast-and-echo invocations, per phase.
    ledger: PhaseLedger,
    /// Largest single message observed, in bits (a maximum has no per-phase
    /// sum, so it lives beside the ledger).
    max_message_bits: u64,
    /// The phase currently charged; [`Phase::Delivery`] outside any span.
    phase: Phase,
}

impl CostTracker {
    /// A zeroed tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of the given size (bits are semantic sizes, see
    /// [`crate::BitSized`]).
    pub fn record_message(&mut self, bits: u64) {
        self.record_message_in(self.phase, bits);
    }

    /// Records one message of the given size under an explicit phase,
    /// regardless of the current span — for single explicitly modelled
    /// messages (Add-Edge notifications, decision forwards) where a span
    /// closure would be noise.
    pub fn record_message_in(&mut self, phase: Phase, bits: u64) {
        self.max_message_bits = self.max_message_bits.max(bits);
        self.ledger.charge_message(phase, bits);
    }

    /// Records elapsed simulated time. Under the synchronous scheduler this
    /// is rounds; under an asynchronous one it is the makespan. Accumulates
    /// (`time += elapsed`): each engine run reports its own makespan once,
    /// and a network's total time is the sum over the sequentially composed
    /// runs — concurrency *within* a run is already folded into that run's
    /// makespan, so summing across runs never double-counts.
    pub fn record_time(&mut self, elapsed: u64) {
        self.ledger.charge_time(self.phase, elapsed);
    }

    /// Records one broadcast-and-echo invocation (the unit the paper's
    /// `O(log n / log log n)` factors count).
    pub fn record_broadcast_echo(&mut self) {
        self.ledger.charge_broadcast_echo(self.phase);
    }

    /// Switches the charged phase, returning the previous one so callers can
    /// restore it (the stack discipline [`crate::Network::span`] implements).
    pub fn enter_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// The per-phase ledger.
    pub fn ledger(&self) -> PhaseLedger {
        self.ledger
    }

    /// Snapshot of the current totals: the ledger's sums plus the largest
    /// message.
    pub fn report(&self) -> CostReport {
        CostReport::from_ledger(&self.ledger, self.max_message_bits)
    }
}

/// An immutable snapshot of a [`CostTracker`], subtractable to get deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostReport {
    /// Messages sent.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
    /// Simulated time.
    pub time: u64,
    /// Broadcast-and-echo invocations.
    pub broadcast_echoes: u64,
    /// Largest message, in bits.
    pub max_message_bits: u64,
}

impl Sub for CostReport {
    type Output = CostReport;

    fn sub(self, rhs: CostReport) -> CostReport {
        CostReport {
            messages: self.messages.saturating_sub(rhs.messages),
            bits: self.bits.saturating_sub(rhs.bits),
            time: self.time.saturating_sub(rhs.time),
            broadcast_echoes: self.broadcast_echoes.saturating_sub(rhs.broadcast_echoes),
            max_message_bits: self.max_message_bits.max(rhs.max_message_bits),
        }
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs, {} bits, time {}, {} broadcast-echoes (max msg {} bits)",
            self.messages, self.bits, self.time, self.broadcast_echoes, self.max_message_bits
        )
    }
}

impl CostReport {
    /// The totals of `ledger`, with `max_message_bits` as the largest
    /// message.
    pub fn from_ledger(ledger: &PhaseLedger, max_message_bits: u64) -> Self {
        let sum = ledger.total();
        CostReport {
            messages: sum.messages,
            bits: sum.bits,
            time: sum.time,
            broadcast_echoes: sum.broadcast_echoes,
            max_message_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut c = CostTracker::new();
        c.record_message(10);
        c.record_message(3);
        c.record_time(7);
        c.record_broadcast_echo();
        let r = c.report();
        assert_eq!(r.messages, 2);
        assert_eq!(r.bits, 13);
        assert_eq!(r.time, 7);
        assert_eq!(r.broadcast_echoes, 1);
        assert_eq!(r.max_message_bits, 10);
    }

    #[test]
    fn report_delta() {
        let mut c = CostTracker::new();
        c.record_message(5);
        let before = c.report();
        c.record_message(6);
        c.record_message(1);
        c.record_time(3);
        let delta = c.report() - before;
        assert_eq!(delta.messages, 2);
        assert_eq!(delta.bits, 7);
        assert_eq!(delta.time, 3);
    }

    #[test]
    fn display_mentions_messages() {
        let mut c = CostTracker::new();
        c.record_message(4);
        let s = format!("{}", c.report());
        assert!(s.contains("1 msgs"));
    }

    #[test]
    fn default_is_zero() {
        let r = CostReport::default();
        assert_eq!(r.messages, 0);
        assert_eq!(r.bits, 0);
    }

    #[test]
    fn record_time_accumulates_across_runs() {
        // Pins the accumulate semantics the doc comment describes: each
        // engine run contributes its own makespan once and the total is the
        // sum over sequentially composed runs — NOT a max over them.
        let mut c = CostTracker::new();
        c.record_time(5);
        c.record_time(3);
        c.record_time(5);
        assert_eq!(c.report().time, 13, "three runs of makespans 5, 3, 5 total 13");
        assert_ne!(c.report().time, 5, "a max would have stalled at the largest makespan");
    }

    #[test]
    fn every_record_lands_in_the_current_phase() {
        let mut c = CostTracker::new();
        c.record_message(4);
        let prev = c.enter_phase(Phase::FindMinNarrow);
        assert_eq!(prev, Phase::Delivery);
        c.record_message(10);
        c.record_broadcast_echo();
        c.record_time(2);
        c.enter_phase(prev);
        c.record_message_in(Phase::Announce, 6);
        let ledger = c.ledger();
        assert_eq!(ledger.get(Phase::Delivery).messages, 1);
        assert_eq!(ledger.get(Phase::Delivery).bits, 4);
        assert_eq!(ledger.get(Phase::FindMinNarrow).messages, 1);
        assert_eq!(ledger.get(Phase::FindMinNarrow).bits, 10);
        assert_eq!(ledger.get(Phase::FindMinNarrow).broadcast_echoes, 1);
        assert_eq!(ledger.get(Phase::FindMinNarrow).time, 2);
        assert_eq!(ledger.get(Phase::Announce).bits, 6);
        // The totals are the ledger's sums; the largest message sits beside.
        assert_eq!(c.report(), CostReport::from_ledger(&ledger, 10));
        assert_eq!(c.report().messages, 3);
    }

    #[test]
    fn phase_table_renders_shares_and_totals() {
        let mut c = CostTracker::new();
        c.enter_phase(Phase::Announce);
        c.record_message(7);
        c.record_time(2);
        c.enter_phase(Phase::Delivery);
        c.record_message(3);
        // The ledger's `Display`: all-zero phases are suppressed, and the
        // totals row is the tracker's report.
        assert_eq!(
            c.ledger().to_string(),
            "phase                  msgs           bits       time   b-echo\n\
             delivery                  1              3          0        0\n\
             announce                  1              7          2        0\n\
             total                     2             10          2        0\n"
        );
        assert_eq!((c.report().messages, c.report().bits, c.report().time), (2, 10, 2));
    }
}
