//! Phase attribution: which algorithmic activity a cost belongs to.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// The algorithmic phase a message/bit/round is charged to. Every cost
/// recorded by a `CostTracker` lands in exactly one phase: the one named by
/// the innermost enclosing `Network::span`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Unattributed engine traffic: costs recorded outside any span (ad-hoc
    /// protocols, tests, examples driving the engine directly).
    Delivery,
    /// Generic broadcast-and-echo waves spanned by their call sites (path
    /// queries, tree statistics outside a search).
    BroadcastEcho,
    /// Saturation leader election and its cycle-detection reruns.
    LeaderElection,
    /// `FindMin`: the whole narrowing search (statistics wave, interval
    /// narrowing, identification).
    FindMinNarrow,
    /// `FindAny`: emptiness check plus isolation sampling attempts.
    FindAnySample,
    /// Decision distribution: Add-Edge notifications, forwards across new
    /// edges, and tree-wide announces.
    Announce,
    /// Rebuild-from-scratch baselines (GHS, flooding) — the `Θ(m)` opponents.
    RebuildSweep,
}

impl Default for Phase {
    /// Costs recorded outside any span are delivery traffic.
    fn default() -> Self {
        Phase::Delivery
    }
}

impl Phase {
    /// Number of phases (the ledger's fixed arity).
    pub const COUNT: usize = 7;

    /// Every phase, in ledger (= report) order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Delivery,
        Phase::BroadcastEcho,
        Phase::LeaderElection,
        Phase::FindMinNarrow,
        Phase::FindAnySample,
        Phase::Announce,
        Phase::RebuildSweep,
    ];

    /// Stable snake_case label, used in report JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Delivery => "delivery",
            Phase::BroadcastEcho => "broadcast_echo",
            Phase::LeaderElection => "leader_election",
            Phase::FindMinNarrow => "find_min_narrow",
            Phase::FindAnySample => "find_any_sample",
            Phase::Announce => "announce",
            Phase::RebuildSweep => "rebuild_sweep",
        }
    }

    /// The ledger slot of this phase.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for Phase {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().to_string())
    }
}

impl Deserialize for Phase {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let text = String::from_value(value)?;
        Phase::ALL
            .into_iter()
            .find(|p| p.label() == text)
            .ok_or_else(|| serde::DeError::new(format!("unknown phase `{text}`")))
    }
}

/// One phase's share of the cost counters: the summed fields of
/// `CostReport` (`max_message_bits` is a maximum, not a sum, so it has no
/// per-phase decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Messages charged to the phase.
    pub messages: u64,
    /// Bits charged to the phase.
    pub bits: u64,
    /// Simulated time charged to the phase.
    pub time: u64,
    /// Broadcast-and-echo invocations charged to the phase.
    pub broadcast_echoes: u64,
}

impl Add for PhaseCost {
    type Output = PhaseCost;

    fn add(self, rhs: PhaseCost) -> PhaseCost {
        PhaseCost {
            messages: self.messages + rhs.messages,
            bits: self.bits + rhs.bits,
            time: self.time + rhs.time,
            broadcast_echoes: self.broadcast_echoes + rhs.broadcast_echoes,
        }
    }
}

impl AddAssign for PhaseCost {
    fn add_assign(&mut self, rhs: PhaseCost) {
        *self = *self + rhs;
    }
}

impl Sub for PhaseCost {
    type Output = PhaseCost;

    fn sub(self, rhs: PhaseCost) -> PhaseCost {
        PhaseCost {
            messages: self.messages.saturating_sub(rhs.messages),
            bits: self.bits.saturating_sub(rhs.bits),
            time: self.time.saturating_sub(rhs.time),
            broadcast_echoes: self.broadcast_echoes.saturating_sub(rhs.broadcast_echoes),
        }
    }
}

/// The per-phase cost ledger: a fixed array with one [`PhaseCost`] slot per
/// [`Phase`]. It is a `CostTracker`'s only store of counts, so a network's
/// totals are its [`PhaseLedger::total`]. `Copy`, so before/after snapshots
/// are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLedger {
    by_phase: [PhaseCost; Phase::COUNT],
}

impl Default for PhaseLedger {
    fn default() -> Self {
        PhaseLedger { by_phase: [PhaseCost::default(); Phase::COUNT] }
    }
}

impl PhaseLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one message of `bits` bits to `phase`.
    pub fn charge_message(&mut self, phase: Phase, bits: u64) {
        let slot = &mut self.by_phase[phase.index()];
        slot.messages += 1;
        slot.bits += bits;
    }

    /// Charges elapsed simulated time to `phase`.
    pub fn charge_time(&mut self, phase: Phase, elapsed: u64) {
        self.by_phase[phase.index()].time += elapsed;
    }

    /// Charges one broadcast-and-echo invocation to `phase`.
    pub fn charge_broadcast_echo(&mut self, phase: Phase) {
        self.by_phase[phase.index()].broadcast_echoes += 1;
    }

    /// The share of `phase`.
    pub fn get(&self, phase: Phase) -> PhaseCost {
        self.by_phase[phase.index()]
    }

    /// Every `(phase, cost)` pair in ledger order.
    pub fn entries(&self) -> impl Iterator<Item = (Phase, PhaseCost)> + '_ {
        Phase::ALL.into_iter().map(|p| (p, self.by_phase[p.index()]))
    }

    /// The sum over all phases.
    pub fn total(&self) -> PhaseCost {
        self.by_phase.iter().fold(PhaseCost::default(), |acc, &c| acc + c)
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.total() == PhaseCost::default()
    }
}

/// An aligned text table: one row per phase that charged anything, then a
/// `total` row of [`PhaseLedger::total`] (the examples' `KKT_TRACE=1`
/// output).
impl fmt::Display for PhaseLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = |f: &mut fmt::Formatter<'_>, label: &str, c: PhaseCost| {
            let (msgs, bits, time, echoes) = (c.messages, c.bits, c.time, c.broadcast_echoes);
            writeln!(f, "{label:<16} {msgs:>10} {bits:>14} {time:>10} {echoes:>8}")
        };
        writeln!(
            f,
            "{:<16} {:>10} {:>14} {:>10} {:>8}",
            "phase", "msgs", "bits", "time", "b-echo"
        )?;
        for (phase, cost) in self.entries().filter(|&(_, c)| c != PhaseCost::default()) {
            row(f, phase.label(), cost)?;
        }
        row(f, "total", self.total())
    }
}

impl Add for PhaseLedger {
    type Output = PhaseLedger;

    fn add(self, rhs: PhaseLedger) -> PhaseLedger {
        let mut out = self;
        for i in 0..Phase::COUNT {
            out.by_phase[i] += rhs.by_phase[i];
        }
        out
    }
}

impl AddAssign for PhaseLedger {
    fn add_assign(&mut self, rhs: PhaseLedger) {
        *self = *self + rhs;
    }
}

impl Sub for PhaseLedger {
    type Output = PhaseLedger;

    fn sub(self, rhs: PhaseLedger) -> PhaseLedger {
        let mut out = self;
        for i in 0..Phase::COUNT {
            out.by_phase[i] = out.by_phase[i] - rhs.by_phase[i];
        }
        out
    }
}

impl Serialize for PhaseLedger {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(
            self.entries().map(|(p, c)| (p.label().to_string(), c.to_value())).collect(),
        )
    }
}

impl Deserialize for PhaseLedger {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let mut ledger = PhaseLedger::new();
        for phase in Phase::ALL {
            if let Some(v) = value.get(phase.label()) {
                ledger.by_phase[phase.index()] = PhaseCost::from_value(v)?;
            }
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            [
                "delivery",
                "broadcast_echo",
                "leader_election",
                "find_min_narrow",
                "find_any_sample",
                "announce",
                "rebuild_sweep"
            ]
        );
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), Phase::COUNT);
        for phase in Phase::ALL {
            assert_eq!(Phase::ALL[phase.index()], phase);
        }
    }

    #[test]
    fn phase_round_trips_through_serde() {
        for phase in Phase::ALL {
            let back: Phase =
                serde_json::from_str(&serde_json::to_string(&phase).unwrap()).unwrap();
            assert_eq!(back, phase);
        }
        assert!(serde_json::from_str::<Phase>("\"nonsense\"").is_err());
    }

    #[test]
    fn ledger_charges_and_conserves() {
        let mut ledger = PhaseLedger::new();
        assert!(ledger.is_empty());
        ledger.charge_message(Phase::FindMinNarrow, 10);
        ledger.charge_message(Phase::FindMinNarrow, 6);
        ledger.charge_message(Phase::Announce, 3);
        ledger.charge_time(Phase::Delivery, 5);
        ledger.charge_broadcast_echo(Phase::FindMinNarrow);
        assert_eq!(ledger.get(Phase::FindMinNarrow).messages, 2);
        assert_eq!(ledger.get(Phase::FindMinNarrow).bits, 16);
        assert_eq!(ledger.get(Phase::FindMinNarrow).broadcast_echoes, 1);
        assert_eq!(ledger.get(Phase::Announce).bits, 3);
        let total = ledger.total();
        assert_eq!(total.messages, 3);
        assert_eq!(total.bits, 19);
        assert_eq!(total.time, 5);
        assert_eq!(total.broadcast_echoes, 1);
    }

    #[test]
    fn ledger_deltas_subtract_per_phase() {
        let mut before = PhaseLedger::new();
        before.charge_message(Phase::Announce, 4);
        let mut after = before;
        after.charge_message(Phase::Announce, 2);
        after.charge_message(Phase::FindAnySample, 7);
        let delta = after - before;
        assert_eq!(delta.get(Phase::Announce).messages, 1);
        assert_eq!(delta.get(Phase::Announce).bits, 2);
        assert_eq!(delta.get(Phase::FindAnySample).bits, 7);
        assert_eq!((before + delta), after);
    }

    #[test]
    fn ledger_round_trips_through_serde_with_every_phase_present() {
        let mut ledger = PhaseLedger::new();
        ledger.charge_message(Phase::RebuildSweep, 12);
        ledger.charge_broadcast_echo(Phase::BroadcastEcho);
        let text = serde_json::to_string(&ledger).unwrap();
        // Every phase serialises, even all-zero ones: a sealed ledger is
        // fixed-shape so byte-compares never depend on which phases fired.
        for phase in Phase::ALL {
            assert!(text.contains(phase.label()), "{text}");
        }
        let back: PhaseLedger = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ledger);
    }
}
