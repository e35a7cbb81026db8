//! Cost reports: per-event records, per-run reports, and the sweep document
//! the experiment suite serialises.

use serde::{Deserialize, Serialize};

use kkt_congest::{CostReport, Phase, PhaseCost, PhaseLedger, Scheduler};
use kkt_core::TreeKind;
use kkt_graphs::Graph;

use crate::fingerprint::fingerprint_hex;
use crate::workload::WorkloadStats;

/// The *achieved* density ratio `m/n` of a base graph — what reports record
/// (the rejection-sampling builder may undershoot the configured budget, so
/// this is not always the ladder's nominal ratio).
pub fn m_over_n(g: &Graph) -> f64 {
    g.edge_count() as f64 / g.node_count().max(1) as f64
}

/// Stable text label of a scheduler, used in reports.
pub fn scheduler_label(scheduler: Scheduler) -> String {
    match scheduler {
        Scheduler::Synchronous => "synchronous".to_string(),
        Scheduler::RandomAsync { max_delay } => format!("random_async(max_delay={max_delay})"),
    }
}

/// Stable text label of a maintained structure kind (`mst` or `st`), used
/// in reports.
pub fn tree_kind_label(kind: TreeKind) -> String {
    match kind {
        TreeKind::Mst => "mst".to_string(),
        TreeKind::St => "st".to_string(),
    }
}

/// The communication cost of one top-level event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCost {
    /// Index of the event in the trace.
    pub index: usize,
    /// Event kind label (`delete`, `insert`, `change_weight`, `burst(k)`).
    pub kind: String,
    /// Messages spent processing the event.
    pub messages: u64,
    /// Bits spent.
    pub bits: u64,
    /// Simulated time spent (rounds / makespan).
    pub time: u64,
}

/// The full cost accounting of one (workload, policy, scheduler) replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Scenario identifier of the generating workload.
    pub scenario: String,
    /// Workload name.
    pub workload_name: String,
    /// Fingerprint of the replayed trace.
    pub workload_fingerprint: String,
    /// Maintenance policy label.
    pub policy: String,
    /// `mst` or `st`.
    pub tree_kind: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Nodes.
    pub n: usize,
    /// Live edges of the base graph.
    pub m_initial: usize,
    /// Top-level events replayed.
    pub top_level_events: usize,
    /// Primitive events replayed (bursts flattened).
    pub primitive_events: usize,
    /// Cost of the initial construction (not counted in `total`).
    pub build: CostReport,
    /// Per-event costs, in trace order.
    pub per_event: Vec<EventCost>,
    /// Sum of the per-event costs: the sums of `phases`, with the largest
    /// message size the replay reported.
    pub total: CostReport,
    /// `total` split by protocol phase: the sum of the per-event phase
    /// deltas.
    pub phases: PhaseLedger,
    /// `total.messages / top_level_events`.
    pub mean_messages_per_event: f64,
    /// Largest single-event message count.
    pub max_messages_per_event: u64,
    /// Oracle checkpoints passed.
    pub checkpoints_verified: usize,
}

impl ReplayReport {
    /// Records one event: its cost split by phase, and the largest message
    /// size `max_message_bits` seen by then. `total` is re-read from the
    /// summed ledger, so it and `phases` cannot disagree; the per-event
    /// record keeps the compact three-field form.
    pub fn push_event(
        &mut self,
        index: usize,
        kind: String,
        phases: PhaseLedger,
        max_message_bits: u64,
    ) {
        self.phases += phases;
        let max_message_bits = self.total.max_message_bits.max(max_message_bits);
        self.total = CostReport::from_ledger(&self.phases, max_message_bits);
        let PhaseCost { messages, bits, time, .. } = phases.total();
        self.max_messages_per_event = self.max_messages_per_event.max(messages);
        self.per_event.push(EventCost { index, kind, messages, bits, time });
    }

    /// Computes the derived summary fields; call once after the last event.
    ///
    /// # Panics
    ///
    /// If the replay charged anything to [`Phase::Delivery`], the slot for
    /// costs recorded outside every `Network::span`: every replayed cost
    /// must name its protocol phase.
    pub fn finalize(&mut self) {
        let stray = self.phases.get(Phase::Delivery);
        assert!(
            stray == PhaseCost::default(),
            "{} charged {stray:?} to the delivery phase, outside every span",
            self.policy
        );
        let events = self.per_event.len().max(1);
        self.mean_messages_per_event = self.total.messages as f64 / events as f64;
    }

    /// Fingerprint of the whole report (stable across runs for the same
    /// seed: scheduling, costs and verification results are deterministic).
    pub fn fingerprint(&self) -> String {
        fingerprint_hex(&serde_json::to_string(self).expect("report serialises"))
    }
}

/// One point of a sweep: a scenario's trace in one `(n, m/n)` cell,
/// replayed under every policy of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Nodes of this point's base graph.
    pub n: usize,
    /// Live edges of this point's base graph (the *achieved* count — dense
    /// rungs clamp to the complete graph).
    pub m: usize,
    /// Ladder label of the density rung (`"2"`, `"4"`, …, `"n/8"`, `"n/2"`).
    pub density: String,
    /// Achieved density ratio `m / n`.
    pub m_over_n: f64,
    /// Top-level events of the trace.
    pub events: usize,
    /// Checkpoint interval the replays ran with (`0` = final event only).
    pub verify_every: usize,
    /// Scenario identifier.
    pub scenario: String,
    /// Fingerprint of the generated trace.
    pub workload_fingerprint: String,
    /// Trace statistics from validation.
    pub stats: WorkloadStats,
    /// One report per policy, in the sweep's policy order.
    pub reports: Vec<ReplayReport>,
}

impl SweepPoint {
    /// The report for a given policy label, if present.
    pub fn report_for(&self, policy: &str) -> Option<&ReplayReport> {
        self.reports.iter().find(|r| r.policy == policy)
    }
}

/// The document a sweep emits (`exp9`, `exp10`, `exp11` and `exp13`):
/// every trace of the grid replayed under every policy, with a fingerprint
/// sealing the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Master seed.
    pub seed: u64,
    /// `mst` or `st`.
    pub tree_kind: String,
    /// Scheduler label.
    pub scheduler: String,
    /// One entry per `(cell, scenario)` trace, in cell then scenario order.
    pub points: Vec<SweepPoint>,
    /// FNV-1a fingerprint over the whole serialised document (with this
    /// field emptied), so it covers the run parameters (`n`, `m`, density,
    /// scheduler) as well as the results.
    pub fingerprint: String,
}

impl SweepReport {
    /// Seals the report: fingerprints the whole serialised document with
    /// its fingerprint field emptied, so sealing is idempotent and covers the
    /// run parameters, not just the result body.
    pub fn seal(&mut self) {
        self.fingerprint = String::new();
        self.fingerprint =
            fingerprint_hex(&serde_json::to_string(self).expect("report serialises"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ReplayReport {
        ReplayReport {
            scenario: "s".into(),
            workload_name: "w".into(),
            workload_fingerprint: "f".into(),
            policy: "p".into(),
            tree_kind: "mst".into(),
            scheduler: "synchronous".into(),
            n: 4,
            m_initial: 5,
            top_level_events: 2,
            primitive_events: 2,
            build: CostReport::default(),
            per_event: Vec::new(),
            total: CostReport::default(),
            phases: PhaseLedger::default(),
            mean_messages_per_event: 0.0,
            max_messages_per_event: 0,
            checkpoints_verified: 0,
        }
    }

    #[test]
    fn report_accumulates_and_finalizes() {
        let mut r = empty_report();
        let mut delete = PhaseLedger::new();
        for bits in [9, 1, 90] {
            delete.charge_message(Phase::FindMinNarrow, bits);
        }
        delete.charge_time(Phase::FindMinNarrow, 2);
        delete.charge_broadcast_echo(Phase::BroadcastEcho);
        r.push_event(0, "delete".into(), delete, 90);
        let mut insert = PhaseLedger::new();
        insert.charge_message(Phase::Announce, 40);
        insert.charge_time(Phase::Announce, 1);
        r.push_event(1, "insert".into(), insert, 40);
        r.finalize();
        assert_eq!(r.total.messages, 4);
        assert_eq!(r.total.bits, 140);
        assert_eq!(r.total.time, 3);
        assert_eq!(r.max_messages_per_event, 3);
        assert_eq!(
            r.per_event[1],
            EventCost { index: 1, kind: "insert".into(), messages: 1, bits: 40, time: 1 }
        );
        // The whole ledger reaches the totals, not just the three-field
        // record; the largest message is a maximum, not a sum.
        assert_eq!(r.total.broadcast_echoes, 1);
        assert_eq!(r.total.max_message_bits, 90);
        assert!((r.mean_messages_per_event - 2.0).abs() < 1e-9);
        // The ledger keeps each event's phase apart.
        assert_eq!(r.phases.get(Phase::FindMinNarrow).bits, 100);
        assert_eq!(r.phases.get(Phase::Announce).messages, 1);
        // JSON round-trip preserves the report exactly.
        let text = serde_json::to_string(&r).unwrap();
        let back: ReplayReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.fingerprint(), r.fingerprint());
    }

    #[test]
    #[should_panic(expected = "charged PhaseCost { messages: 1, bits: 7")]
    fn finalize_rejects_a_replay_that_charged_delivery() {
        // A charge outside every span still sums to the totals, so only this
        // check can see it.
        let mut r = empty_report();
        let mut stray = PhaseLedger::new();
        stray.charge_message(Phase::Announce, 3);
        stray.charge_message(Phase::Delivery, 7);
        r.push_event(0, "delete".into(), stray, 7);
        r.finalize();
    }

    #[test]
    fn scheduler_labels_are_stable() {
        assert_eq!(scheduler_label(Scheduler::Synchronous), "synchronous");
        assert_eq!(
            scheduler_label(Scheduler::RandomAsync { max_delay: 8 }),
            "random_async(max_delay=8)"
        );
    }

    fn one_point_report() -> SweepReport {
        SweepReport {
            seed: 7,
            tree_kind: "mst".into(),
            scheduler: "synchronous".into(),
            points: vec![SweepPoint {
                n: 16,
                m: 120,
                density: "n/2".into(),
                m_over_n: 7.5,
                events: 4,
                verify_every: 2,
                scenario: "poisson_churn(0.50)".into(),
                workload_fingerprint: "abcd".into(),
                stats: WorkloadStats::default(),
                reports: Vec::new(),
            }],
            fingerprint: String::new(),
        }
    }

    #[test]
    fn suite_report_seals_deterministically() {
        let mut a = one_point_report();
        let mut b = a.clone();
        a.seal();
        b.seal();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint.len(), 16);
        // Sealing is idempotent: resealing an already-sealed report lands on
        // the same fingerprint (the field is emptied before hashing).
        let sealed = a.fingerprint.clone();
        a.seal();
        assert_eq!(a.fingerprint, sealed);
        // The fingerprint covers the run parameters, not just the results:
        // two runs at different edge counts must not collide.
        let mut sparser = b.clone();
        sparser.points[0].m = 28;
        sparser.points[0].m_over_n = 1.75;
        sparser.seal();
        assert_ne!(sparser.fingerprint, b.fingerprint);
    }

    #[test]
    fn density_sweep_report_seals_and_round_trips() {
        let mut report = one_point_report();
        report.seal();
        let text = serde_json::to_string(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.points[0].report_for("nope"), None);
        // A different rung label alone moves the fingerprint.
        let mut other = report.clone();
        other.points[0].density = "16".into();
        other.seal();
        assert_ne!(other.fingerprint, report.fingerprint);
    }
}
