//! Cross-crate integration tests for the batched repair subsystem: the
//! batched pipeline and one-by-one application must agree on the maintained
//! forest over seeded random bursts (both tree kinds, both schedulers), and
//! `multi_edge_cuts` traces must pass shadow-oracle checkpoints under every
//! policy while batching strictly beats sequential repair on k ≥ 4 bursts.

use kkt::congest::Scheduler;
use kkt::graphs::{generators, Graph};
use kkt::workloads::{MaintenancePolicy, MultiEdgeCuts, ReplayConfig, ReplayHarness, Scenario};
use kkt::{MaintainOptions, MaintainedForest, TreeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn base_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_with_edges(32, 128, 800, &mut rng)
}

/// Property: over seeded random bursts, `apply_batch` and one-by-one
/// `apply_update` reach spanning forests of equal weight — and for the MST,
/// whose minimum forest is unique under the augmented-weight order, the
/// *identical* edge set — for both tree kinds and both schedulers.
#[test]
fn batched_and_sequential_agree_on_seeded_random_bursts() {
    for kind in [TreeKind::Mst, TreeKind::St] {
        for scheduler in [Scheduler::Synchronous, Scheduler::RandomAsync { max_delay: 8 }] {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = base_graph(100 + seed);
                let burst = generators::random_update_stream(&g, 12, 800, 0.7, &mut rng);
                let options = MaintainOptions {
                    repair_scheduler: scheduler,
                    seed: 900 + seed,
                    ..MaintainOptions::default()
                };

                let mut one_by_one = MaintainedForest::build(g.clone(), kind, options).unwrap();
                for update in &burst {
                    one_by_one.apply_update(update).unwrap();
                }
                one_by_one.verify().unwrap();

                let mut batched = MaintainedForest::build(g.clone(), kind, options).unwrap();
                let outcomes = batched.apply_batch(&burst).unwrap();
                assert_eq!(outcomes.len(), burst.len());
                batched.verify().unwrap();

                // Both spanning forests cover the same components, so they
                // have the same size; for the MST the minimum forest is
                // unique under the augmented-weight order, so equal weight
                // and the identical edge set follow.
                assert_eq!(
                    batched.tree_edges().len(),
                    one_by_one.tree_edges().len(),
                    "{kind:?}/{scheduler:?}/seed {seed}"
                );
                if kind == TreeKind::Mst {
                    let weight = |f: &MaintainedForest| -> u64 {
                        f.tree_edges().iter().map(|&e| f.network().graph().edge(e).weight).sum()
                    };
                    assert_eq!(
                        weight(&batched),
                        weight(&one_by_one),
                        "{kind:?}/{scheduler:?}/seed {seed}: MSTs must weigh the same"
                    );
                    assert_eq!(batched.snapshot(), one_by_one.snapshot());
                }
            }
        }
    }
}

/// `multi_edge_cuts` traces pass oracle checkpoints under every applicable
/// policy, for both kinds and both schedulers.
#[test]
fn multi_edge_cuts_traces_pass_oracle_checkpoints_everywhere() {
    let g = base_graph(7);
    let workload = MultiEdgeCuts { burst_size: 4, max_weight: 800 }.generate(&g, 6, 21);
    for kind in [TreeKind::Mst, TreeKind::St] {
        for scheduler in [Scheduler::Synchronous, Scheduler::RandomAsync { max_delay: 6 }] {
            let harness =
                ReplayHarness::new(ReplayConfig { kind, scheduler, ..ReplayConfig::default() });
            for policy in MaintenancePolicy::all_for(kind) {
                let report = harness
                    .replay(&g, &workload, policy)
                    .unwrap_or_else(|e| panic!("{kind:?}/{scheduler:?}/{}: {e}", policy.label()));
                assert_eq!(
                    report.checkpoints_verified,
                    workload.len(),
                    "{kind:?}/{scheduler:?}/{}",
                    policy.label()
                );
            }
        }
    }
}

/// The acceptance bar of the PR: on seeded `multi_edge_cuts` bursts with
/// k ≥ 4, batched repair's total message bits are strictly below sequential
/// repair's.
#[test]
fn batched_repair_bits_are_strictly_below_sequential_for_k_at_least_4() {
    let g = base_graph(8);
    let harness = ReplayHarness::default();
    for (k, seed) in [(4usize, 31u64), (6, 32), (8, 33)] {
        let workload = MultiEdgeCuts { burst_size: k, max_weight: 800 }.generate(&g, 6, seed);
        let sequential = harness.replay(&g, &workload, MaintenancePolicy::Impromptu).unwrap();
        let batched = harness.replay(&g, &workload, MaintenancePolicy::BatchedRepair).unwrap();
        assert!(
            batched.total.bits < sequential.total.bits,
            "k={k}: batched {} bits vs sequential {} bits",
            batched.total.bits,
            sequential.total.bits
        );
        assert!(batched.total.messages < sequential.total.messages, "k={k}");
    }
}

/// Batch-path equivalence at scale: on one `multi_edge_cuts` trace over an
/// n = 512 network, `apply_batch` and `apply_batch_sequential` produce
/// identical final forests under both schedulers, and both pass the
/// incremental shadow-oracle check. The forests adopt a precomputed Kruskal
/// MST so the test prices the *repair* paths, not the construction.
#[test]
fn batch_paths_agree_at_n_512() {
    use kkt::graphs::{kruskal, ShadowOracle};

    let n = 512;
    let mut rng = StdRng::seed_from_u64(51);
    let g = generators::connected_with_edges(n, 4 * n, 1_000, &mut rng);
    let workload = MultiEdgeCuts { burst_size: 4, max_weight: 1_000 }.generate(&g, 2, 77);
    assert!(workload.primitive_count() >= 8, "failure burst plus replenish burst");

    // Flatten the trace once through the shadow oracle (which doubles as the
    // ground truth the final forests are checked against).
    let mut oracle = ShadowOracle::new(&g);
    let mut updates = Vec::new();
    for event in &workload.events {
        for primitive in event.primitives() {
            let update = primitive.as_update(oracle.graph()).expect("trace is applicable");
            oracle.apply(&update).unwrap();
            updates.push(update);
        }
    }

    let mst = kruskal(&g);
    for scheduler in [Scheduler::Synchronous, Scheduler::RandomAsync { max_delay: 6 }] {
        let options = MaintainOptions {
            repair_scheduler: scheduler,
            seed: 512,
            ..MaintainOptions::default()
        };

        let mut sequential =
            MaintainedForest::adopt(g.clone(), TreeKind::Mst, &mst.edges, options).unwrap();
        sequential.apply_batch_sequential(&updates).unwrap();

        let mut batched =
            MaintainedForest::adopt(g.clone(), TreeKind::Mst, &mst.edges, options).unwrap();
        batched.apply_batch(&updates).unwrap();

        assert_eq!(
            batched.snapshot(),
            sequential.snapshot(),
            "{scheduler:?}: batch paths must land on the identical MST"
        );
        oracle.verify_msf(&batched.snapshot()).unwrap_or_else(|e| panic!("{scheduler:?}: {e}"));
    }
}

/// The partial-failure contract survives the facade: a failing batch names
/// the failing update, carries the applied prefix's outcomes, and leaves the
/// forest verifiable.
#[test]
fn batch_errors_carry_prefix_outcomes_through_the_facade() {
    use kkt::graphs::generators::Update;
    let g = base_graph(9);
    let mut forest = MaintainedForest::build(g, TreeKind::Mst, MaintainOptions::default()).unwrap();
    let e = forest.tree_edges()[0];
    let (u, v) = forest.endpoints(e);
    let err = forest.apply_batch(&[Update::Delete { u, v }, Update::Delete { u, v }]).unwrap_err();
    assert_eq!(err.failed_index, 1, "the second delete hits a missing edge");
    assert_eq!(err.applied.len(), 1);
    forest.verify().expect("the applied prefix's cut was repaired before the error surfaced");
}
