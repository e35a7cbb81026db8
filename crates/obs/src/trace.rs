//! Structured trace: one deterministic record per workload event, consumed
//! by pluggable observers.

use serde::{Deserialize, Serialize};
use std::io::Write;

use crate::metrics::{Histogram, MetricsRegistry};
use crate::phase::{PhaseCost, PhaseLedger};

/// One replayed workload event, as seen by an [`Observer`]. The serialised
/// form is the crate-level trace schema (see the `kkt-obs` crate docs):
/// field order is fixed, every phase is always present, and two replays of
/// the same seeded workload produce identical records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Index of the event in the trace.
    pub index: usize,
    /// Event kind label (`delete`, `insert`, `change_weight`, `burst(k)`).
    pub kind: String,
    /// Replay outcome label.
    pub outcome: String,
    /// Oracle-checkpoint verdict: `"verified"` when a checkpoint ran after
    /// this event (a failed checkpoint aborts the replay before any record
    /// is emitted), `"skipped"` when none was due.
    pub checkpoint: String,
    /// Per-phase cost delta of this event.
    pub phases: PhaseLedger,
    /// Sum over the phases — equals the `CostTracker` delta of the event
    /// (conservation is asserted by the harness).
    pub total: PhaseCost,
}

impl TraceRecord {
    /// The single JSON line this record contributes to a trace stream.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("trace record serialises")
    }
}

/// A sink for replay trace records. Implementations must be deterministic
/// functions of the record stream — the harness feeds them identically on
/// identical seeds, and byte-compare tests rely on it.
pub trait Observer {
    /// Called once per top-level workload event, in trace order.
    fn on_event(&mut self, record: &TraceRecord);

    /// Called once after the last event (flush buffers, seal summaries).
    fn on_finish(&mut self) {}
}

/// Streams records as JSON lines with a rolling flush: lines go straight to
/// the writer and the buffer is flushed every `flush_every` records, so
/// memory stays bounded on million-event horizons.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    out: W,
    flush_every: usize,
    pending: usize,
}

impl<W: Write> JsonlObserver<W> {
    /// Wraps a writer with the default flush interval (64 records).
    pub fn new(out: W) -> Self {
        Self::with_flush_every(out, 64)
    }

    /// Wraps a writer, flushing every `flush_every` records (min 1).
    pub fn with_flush_every(out: W, flush_every: usize) -> Self {
        JsonlObserver { out, flush_every: flush_every.max(1), pending: 0 }
    }

    /// Unwraps the inner writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> Observer for JsonlObserver<W> {
    fn on_event(&mut self, record: &TraceRecord) {
        let line = record.to_json_line();
        self.out.write_all(line.as_bytes()).expect("trace sink accepts writes");
        self.out.write_all(b"\n").expect("trace sink accepts writes");
        self.pending += 1;
        if self.pending >= self.flush_every {
            self.out.flush().expect("trace sink flushes");
            self.pending = 0;
        }
    }

    fn on_finish(&mut self) {
        self.out.flush().expect("trace sink flushes");
        self.pending = 0;
    }
}

/// Feeds per-event totals into a [`MetricsRegistry`]: `bits_per_event` and
/// `rounds_per_event` histograms on powers-of-two buckets, plus an `events`
/// counter — the tail-latency ("p99 bits") leg of the registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    /// The registry being fed.
    pub registry: MetricsRegistry,
}

impl MetricsObserver {
    /// An observer over a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, record: &TraceRecord) {
        let bounds = Histogram::pow2_bounds(40);
        self.registry.inc("events");
        self.registry.observe("bits_per_event", &bounds, record.total.bits);
        self.registry.observe("rounds_per_event", &bounds, record.total.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn record(index: usize, bits: u64) -> TraceRecord {
        let mut phases = PhaseLedger::new();
        phases.charge_message(Phase::FindMinNarrow, bits);
        phases.charge_broadcast_echo(Phase::FindMinNarrow);
        TraceRecord {
            index,
            kind: "delete".to_string(),
            outcome: "ok".to_string(),
            checkpoint: "verified".to_string(),
            phases,
            total: phases.total(),
        }
    }

    #[test]
    fn record_round_trips_and_is_stable() {
        let r = record(3, 128);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "one line per record");
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(r.to_json_line(), line, "serialisation is a pure function");
    }

    #[test]
    fn jsonl_observer_streams_identical_bytes() {
        let mut runs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..2 {
            let mut obs = JsonlObserver::with_flush_every(Vec::new(), 2);
            for i in 0..5 {
                obs.on_event(&record(i, 10 + i as u64));
            }
            obs.on_finish();
            runs.push(obs.into_inner());
        }
        assert_eq!(runs[0], runs[1], "same records ⇒ byte-identical stream");
        let text = String::from_utf8(runs[0].clone()).unwrap();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            let back: TraceRecord = serde_json::from_str(line).unwrap();
            assert_eq!(back.total, back.phases.total(), "records conserve");
        }
    }

    #[test]
    fn metrics_observer_builds_tail_readouts() {
        let mut obs = MetricsObserver::new();
        for bits in [100u64, 120, 90, 4000] {
            let mut r = record(0, bits);
            r.total.time = 3;
            obs.on_event(&r);
        }
        assert_eq!(obs.registry.counter("events"), 4);
        let h = obs.registry.histogram("bits_per_event").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 4000);
        assert!(h.p50() <= 128, "median bucket bound covers the cluster at ~100");
        assert_eq!(obs.registry.histogram("rounds_per_event").unwrap().max(), 3);
    }
}
