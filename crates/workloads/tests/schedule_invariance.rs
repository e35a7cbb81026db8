//! The paper's asynchrony claim, pinned: a repair is a sequence of
//! broadcast-and-echoes, so what an update costs in messages and bits does
//! not depend on the delivery schedule; only its rounds do (King–Kutten–
//! Thorup price each update of an asynchronous network on its own).
//!
//! The standard battery, on an MST and on an unweighted ST, replays under
//! sequential and batched impromptu repair once per schedule. Every event's
//! messages and bits must equal those of its synchronous replay. A combine
//! step whose result depended on the order children answer in would fail
//! here while every checkpoint still verified.

use kkt_congest::Scheduler;
use kkt_core::TreeKind;
use kkt_workloads::{MaintenancePolicy, SuiteParams, Sweep, SweepReport};

/// The battery on `kind` at n = 48, m/n = 4, 12 events per trace, replayed
/// under `scheduler` by both impromptu policies.
fn battery(kind: TreeKind, max_weight: u64, scheduler: Scheduler) -> SweepReport {
    let params = SuiteParams {
        kind,
        max_weight,
        events: 12,
        verify_every: 3,
        seed: 1,
        scheduler,
        ..SuiteParams::with_n(48)
    };
    let sweep = Sweep {
        policies: vec![MaintenancePolicy::Impromptu, MaintenancePolicy::BatchedRepair],
        ..Sweep::battery(params)
    };
    sweep.run().unwrap_or_else(|e| panic!("{kind:?} under {scheduler:?}: {e}"))
}

#[test]
fn per_event_messages_and_bits_do_not_depend_on_the_schedule() {
    let mut replays = 0;
    for (kind, max_weight) in [(TreeKind::Mst, 1_000), (TreeKind::St, 1)] {
        let reference = battery(kind, max_weight, Scheduler::Synchronous);
        replays += reference.points.iter().map(|p| p.reports.len()).sum::<usize>();
        for max_delay in [2, 8, 64] {
            let scheduler = Scheduler::RandomAsync { max_delay };
            let report = battery(kind, max_weight, scheduler);
            assert_eq!(report.points.len(), reference.points.len());
            for (sync_point, point) in reference.points.iter().zip(&report.points) {
                assert_eq!(point.workload_fingerprint, sync_point.workload_fingerprint);
                assert_eq!(point.reports.len(), sync_point.reports.len());
                for (sync_replay, replay) in sync_point.reports.iter().zip(&point.reports) {
                    assert_eq!(replay.per_event.len(), point.events);
                    for (want, got) in sync_replay.per_event.iter().zip(&replay.per_event) {
                        assert_eq!(
                            (got.messages, got.bits),
                            (want.messages, want.bits),
                            "{kind:?} {} {} event {} ({}): (messages, bits) under {scheduler:?} \
                             against synchronous",
                            point.scenario,
                            replay.policy,
                            got.index,
                            got.kind
                        );
                    }
                }
                replays += point.reports.len();
            }
        }
    }
    // 2 kinds × 4 schedules × 5 scenarios × 2 policies.
    assert_eq!(replays, 80);
}
