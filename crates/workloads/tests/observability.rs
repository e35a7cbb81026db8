//! The observability layer's contract, end-to-end:
//!
//! * **Determinism** — two observed replays of the same seeded workload emit
//!   byte-identical JSONL trace streams.
//! * **Purity** — installing an observer changes nothing: the replay report
//!   (and its fingerprint) is equal with and without one, for every policy.
//! * **Conservation** — on a 64-case seeded sweep over scenarios × policies
//!   × kinds × schedulers, the events' trace ledgers sum to the report's
//!   `phases`, whose sums are the report's `total`, and no event charges the
//!   unattributed delivery phase.

use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_congest::{Phase, PhaseCost, PhaseLedger, Scheduler};
use kkt_core::TreeKind;
use kkt_graphs::{generators, Graph};
use kkt_workloads::{
    JsonlObserver, MaintenancePolicy, MixedPhases, Observer, PoissonChurn, ReplayConfig,
    ReplayHarness, Scenario, TraceRecord, Workload,
};

fn base(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_gnp(n, 0.3, 300, &mut rng)
}

fn mixed_workload(g: &Graph, events: usize, seed: u64) -> Workload {
    MixedPhases::standard(300).generate(g, events, seed)
}

#[test]
fn mixed_lifecycle_traces_are_byte_identical_across_runs() {
    let g = base(24, 0x0B5);
    let w = mixed_workload(&g, 10, 17);
    let harness = ReplayHarness::default();
    for policy in MaintenancePolicy::all_for(TreeKind::Mst) {
        let mut streams: Vec<Vec<u8>> = Vec::new();
        for _ in 0..2 {
            let mut obs = JsonlObserver::with_flush_every(Vec::new(), 3);
            harness.replay_observed(&g, &w, policy, &mut obs).unwrap();
            streams.push(obs.into_inner());
        }
        assert!(!streams[0].is_empty(), "{}: trace has records", policy.label());
        assert_eq!(streams[0], streams[1], "{}: same seed ⇒ same bytes", policy.label());
        // Every line is a well-formed, conserving record of the schema.
        let text = String::from_utf8(streams[0].clone()).unwrap();
        assert_eq!(text.lines().count(), w.len(), "one record per top-level event");
        for (i, line) in text.lines().enumerate() {
            let record: TraceRecord = serde_json::from_str(line).unwrap();
            assert_eq!(record.index, i);
            assert_eq!(record.total, record.phases.total());
            assert!(record.checkpoint == "verified" || record.checkpoint == "skipped");
        }
    }
}

#[test]
fn observation_is_pure_reports_and_fingerprints_match() {
    let g = base(24, 0x0B6);
    let w = mixed_workload(&g, 8, 23);
    let harness = ReplayHarness::default();
    for policy in MaintenancePolicy::all_for(TreeKind::Mst) {
        let plain = harness.replay(&g, &w, policy).unwrap();
        let mut check = ConservationCheck::default();
        let observed = harness.replay_observed(&g, &w, policy, &mut check).unwrap();
        assert_eq!(plain, observed, "{}: observer must not perturb the replay", policy.label());
        assert_eq!(plain.fingerprint(), observed.fingerprint());
        assert_eq!(check.events, w.len(), "{}: one record per event", policy.label());
    }
}

/// An observer that checks every event's record (its total is its ledger's
/// sum, and nothing lands in the unattributed delivery phase) and sums the
/// events' ledgers for the run-level comparison.
#[derive(Default)]
struct ConservationCheck {
    ledger: PhaseLedger,
    events: usize,
}

impl Observer for ConservationCheck {
    fn on_event(&mut self, record: &TraceRecord) {
        assert_eq!(record.total, record.phases.total(), "event {} conserves", record.index);
        let stray = record.phases.get(Phase::Delivery);
        assert_eq!(stray, PhaseCost::default(), "event {} is unattributed", record.index);
        self.ledger += record.phases;
        self.events += 1;
    }
}

#[test]
fn phase_ledger_conserves_across_the_64_case_sweep() {
    // 2 graph seeds × 2 scenarios × 2 kinds × 2 schedulers × 4 policies.
    let mut cases = 0;
    for graph_seed in [1u64, 2] {
        let g = base(20, graph_seed);
        for scenario_ix in 0..2 {
            for kind in [TreeKind::Mst, TreeKind::St] {
                let scenario: Box<dyn Scenario> = match scenario_ix {
                    0 => Box::new(PoissonChurn { delete_fraction: 0.5, max_weight: 300 }),
                    _ => Box::new(MixedPhases::standard(300)),
                };
                let w = scenario.generate(&g, 6, 31 + graph_seed);
                for scheduler in [Scheduler::Synchronous, Scheduler::RandomAsync { max_delay: 6 }] {
                    let harness = ReplayHarness::new(ReplayConfig {
                        kind,
                        scheduler,
                        ..ReplayConfig::default()
                    });
                    for policy in MaintenancePolicy::all_for(kind) {
                        let mut check = ConservationCheck::default();
                        let report = harness.replay_observed(&g, &w, policy, &mut check).unwrap();
                        assert_eq!(check.ledger, report.phases, "{}", policy.label());
                        let sum = report.phases.total();
                        assert_eq!(sum.messages, report.total.messages);
                        assert_eq!(sum.bits, report.total.bits);
                        assert_eq!(sum.time, report.total.time);
                        assert_eq!(sum.broadcast_echoes, report.total.broadcast_echoes);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 64, "the sweep covers all 64 cases");
}
