//! The replay report's per-event record, end to end:
//!
//! * **Determinism** — two replays of the same seeded workload seal
//!   byte-identical reports, with one `per_event` record per top-level
//!   event, in index order.
//! * **Conservation** — on a 64-case seeded sweep over scenarios × policies
//!   × kinds × schedulers, the report's `phases` sum to its `total`, the
//!   events' messages, bits and time sum to the same total, and no replay
//!   charges the unattributed delivery phase.

use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_congest::{Phase, PhaseCost, Scheduler};
use kkt_core::TreeKind;
use kkt_graphs::{generators, Graph};
use kkt_workloads::{
    MaintenancePolicy, MixedPhases, PoissonChurn, ReplayConfig, ReplayHarness, Scenario, Workload,
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
        let report = harness.replay(&g, &w, policy).unwrap();
        let again = harness.replay(&g, &w, policy).unwrap();
        let sealed = serde_json::to_string(&report).unwrap();
        assert_eq!(sealed, serde_json::to_string(&again).unwrap(), "{}", policy.label());
        assert_eq!(report.per_event.len(), w.len(), "one record per top-level event");
        for (i, (record, event)) in report.per_event.iter().zip(&w.events).enumerate() {
            assert_eq!((record.index, &record.kind), (i, &event.kind()), "{}", policy.label());
        }
        // The default harness checkpoints every event, and a failed
        // checkpoint aborts the replay before any report exists.
        assert_eq!(report.checkpoints_verified, w.len(), "{}", policy.label());
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
                        let report = harness.replay(&g, &w, policy).unwrap();
                        let label = policy.label();
                        // `finalize` panics on a delivery charge; costs are
                        // unsigned, so a zero run-level slot means no event
                        // charged it either.
                        let stray = report.phases.get(Phase::Delivery);
                        assert_eq!(stray, PhaseCost::default(), "{label} is unattributed");
                        let sum = report.phases.total();
                        assert_eq!(sum.messages, report.total.messages);
                        assert_eq!(sum.bits, report.total.bits);
                        assert_eq!(sum.time, report.total.time);
                        assert_eq!(sum.broadcast_echoes, report.total.broadcast_echoes);
                        assert_eq!(report.per_event.len(), w.len(), "{label}");
                        let events = report.per_event.iter().fold((0, 0, 0), |acc, e| {
                            (acc.0 + e.messages, acc.1 + e.bits, acc.2 + e.time)
                        });
                        assert_eq!(events, (sum.messages, sum.bits, sum.time), "{label}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 64, "the sweep covers all 64 cases");
}
