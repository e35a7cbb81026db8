//! The replay harness: drives a [`Workload`] through a maintenance policy
//! on the simulated network, verifying against the sequential oracle at
//! checkpoints and accounting every bit.
//!
//! Checkpoints are verified against the **incremental shadow oracle**
//! ([`ShadowOracle`]): the oracle applies every primitive to its own copy of
//! the evolving graph, maintaining the unique minimum spanning forest by
//! cut/cycle rules in `O(n)`-ish work per event, so a checkpoint comparison
//! is an edge-for-edge diff instead of the full Kruskal re-run the harness
//! used to pay (`O(m log m)` per checkpoint — the wall-clock blocker for
//! n ≥ 1024 replays). The full sequential verification is retained behind
//! [`ReplayConfig::paranoid`].

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_baselines::{build_mst_ghs, build_st_by_flooding};
use kkt_congest::{CongestError, CostReport, Network, NetworkConfig, PhaseLedger, Scheduler};
use kkt_core::{
    build_mst, build_st, BatchError, CoreError, KktConfig, MaintainOptions, MaintainedForest,
    TreeKind,
};
use kkt_graphs::generators::Update;
use kkt_graphs::{verify_mst, verify_spanning_forest, Graph, ShadowOracle, SpanningForest};

use crate::event::WorkloadEvent;
use crate::report::{scheduler_label, tree_kind_label, ReplayReport};
use crate::workload::Workload;

/// How the spanning structure is kept correct while the trace plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// The paper's impromptu repairs through [`MaintainedForest`] —
    /// `Õ(n)` communication per update, one full repair per primitive even
    /// inside bursts (the *sequential* baseline).
    Impromptu,
    /// Impromptu repairs with burst batching
    /// ([`MaintainedForest::apply_batch`]): each burst is classified once and
    /// all severed tree edges are mended in one pipelined Borůvka pass with
    /// concurrent per-fragment searches and amortized announces.
    BatchedRepair,
    /// Rebuild from scratch with the paper's own `Build MST`/`Build ST`
    /// after every top-level event (bursts trigger one rebuild).
    RebuildKkt,
    /// Rebuild with the GHS-style baseline after every top-level event
    /// (MST only; GHS is inherently synchronous).
    RebuildGhs,
    /// Rebuild a spanning forest by flooding from one root per component
    /// after every top-level event (ST only; the Θ(m) folk-theorem bound).
    RebuildFlood,
}

impl MaintenancePolicy {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MaintenancePolicy::Impromptu => "impromptu_repair",
            MaintenancePolicy::BatchedRepair => "batched_repair",
            MaintenancePolicy::RebuildKkt => "rebuild_kkt",
            MaintenancePolicy::RebuildGhs => "rebuild_ghs",
            MaintenancePolicy::RebuildFlood => "rebuild_flood",
        }
    }

    /// Whether the policy can maintain the given structure kind.
    pub fn supports(self, kind: TreeKind) -> bool {
        match self {
            MaintenancePolicy::Impromptu
            | MaintenancePolicy::BatchedRepair
            | MaintenancePolicy::RebuildKkt => true,
            MaintenancePolicy::RebuildGhs => kind == TreeKind::Mst,
            MaintenancePolicy::RebuildFlood => kind == TreeKind::St,
        }
    }

    /// The policies applicable to `kind`, impromptu (sequential) first.
    pub fn all_for(kind: TreeKind) -> Vec<MaintenancePolicy> {
        [
            MaintenancePolicy::Impromptu,
            MaintenancePolicy::BatchedRepair,
            MaintenancePolicy::RebuildKkt,
            MaintenancePolicy::RebuildGhs,
            MaintenancePolicy::RebuildFlood,
        ]
        .into_iter()
        .filter(|p| p.supports(kind))
        .collect()
    }
}

/// Configuration of one replay run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Which structure is maintained (and which oracle verifies it).
    pub kind: TreeKind,
    /// Delivery model for repairs and (where the algorithm tolerates it)
    /// rebuilds. GHS rebuilds always run synchronously — the baseline is
    /// defined in lock-step rounds.
    pub scheduler: Scheduler,
    /// Verify against the sequential oracle every `k` top-level events
    /// (`0` = only after the final event). Every run verifies at the end.
    pub verify_every: usize,
    /// Master seed: all protocol coins and delivery delays derive from it.
    pub seed: u64,
    /// Paranoid checkpoints: in addition to the `O(n)` incremental-oracle
    /// comparison, re-run the full sequential verification (a fresh Kruskal
    /// over the shadow graph, cross-checked against the incremental forest).
    /// Costs what the pre-oracle harness paid on every checkpoint; off by
    /// default.
    pub paranoid: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            kind: TreeKind::Mst,
            scheduler: Scheduler::RandomAsync { max_delay: 8 },
            verify_every: 1,
            seed: 0x5EED,
            paranoid: false,
        }
    }
}

/// Errors of the replay harness.
#[derive(Debug)]
pub enum ReplayError {
    /// The policy cannot maintain the requested structure kind.
    UnsupportedPolicy {
        /// The rejected policy label.
        policy: &'static str,
        /// The requested kind.
        kind: TreeKind,
    },
    /// The trace is not applicable to the base graph.
    InvalidTrace(String),
    /// A repair algorithm failed.
    Core(CoreError),
    /// A batch application failed partway. The wrapped [`BatchError`] names
    /// the failing update and the outcomes of the applied prefix, so the
    /// harness can report exactly which state the forest was left in.
    Batch(BatchError),
    /// A baseline failed.
    Congest(CongestError),
    /// The maintained structure diverged from the sequential oracle.
    OracleMismatch {
        /// Index of the top-level event after which verification failed.
        event: usize,
        /// The oracle's explanation.
        detail: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnsupportedPolicy { policy, kind } => {
                write!(f, "policy {policy} cannot maintain a {kind:?}")
            }
            ReplayError::InvalidTrace(msg) => write!(f, "invalid trace: {msg}"),
            ReplayError::Core(e) => write!(f, "repair failed: {e}"),
            ReplayError::Batch(e) => write!(f, "repair failed: {e}"),
            ReplayError::Congest(e) => write!(f, "baseline failed: {e}"),
            ReplayError::OracleMismatch { event, detail } => {
                write!(f, "oracle mismatch after event {event}: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<CoreError> for ReplayError {
    fn from(e: CoreError) -> Self {
        ReplayError::Core(e)
    }
}

impl From<BatchError> for ReplayError {
    fn from(e: BatchError) -> Self {
        ReplayError::Batch(e)
    }
}

impl From<CongestError> for ReplayError {
    fn from(e: CongestError) -> Self {
        ReplayError::Congest(e)
    }
}

/// Replays workloads under a [`ReplayConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayHarness {
    /// The run configuration.
    pub config: ReplayConfig,
}

impl ReplayHarness {
    /// A harness with the given configuration.
    pub fn new(config: ReplayConfig) -> Self {
        ReplayHarness { config }
    }

    /// Whether verification is due after top-level event `i` of `total`.
    fn checkpoint_due(&self, i: usize, total: usize) -> bool {
        let last = i + 1 == total;
        match self.config.verify_every {
            0 => last,
            k => last || (i + 1).is_multiple_of(k),
        }
    }

    /// Replays `workload` over `base` under `policy`, returning the
    /// per-event and cumulative cost report.
    ///
    /// # Errors
    ///
    /// See [`ReplayError`]; in particular every checkpoint compares against
    /// the incremental [`ShadowOracle`] and fails loudly on divergence.
    pub fn replay(
        &self,
        base: &Graph,
        workload: &Workload,
        policy: MaintenancePolicy,
    ) -> Result<ReplayReport, ReplayError> {
        if !policy.supports(self.config.kind) {
            return Err(ReplayError::UnsupportedPolicy {
                policy: policy.label(),
                kind: self.config.kind,
            });
        }
        workload.check_applicable(base).map_err(ReplayError::InvalidTrace)?;
        let (mut maintained, build) = self.initial(base, policy)?;
        let mut report = ReplayReport {
            scenario: workload.scenario.clone(),
            workload_name: workload.name.clone(),
            workload_fingerprint: workload.fingerprint(),
            policy: policy.label().to_string(),
            tree_kind: tree_kind_label(self.config.kind),
            scheduler: scheduler_label(self.config.scheduler),
            n: base.node_count(),
            m_initial: base.edge_count(),
            top_level_events: workload.len(),
            primitive_events: workload.primitive_count(),
            build,
            per_event: Vec::new(),
            total: CostReport::default(),
            phases: PhaseLedger::default(),
            mean_messages_per_event: 0.0,
            max_messages_per_event: 0,
            checkpoints_verified: 0,
        };

        // The oracle's shadow graph tracks the evolving topology so every
        // event converts to updates against the current graph, while its
        // incremental forest prices checkpoints.
        let mut oracle = ShadowOracle::new(base);
        let total = workload.len();
        for (i, event) in workload.events.iter().enumerate() {
            let updates =
                primitives_as_updates(event, &mut oracle).map_err(ReplayError::InvalidTrace)?;
            let (phases, max_message_bits) = self.step(&mut maintained, policy, &updates, i)?;
            report.push_event(i, event.kind(), phases, max_message_bits);
            if self.checkpoint_due(i, total) {
                let snapshot = match &maintained {
                    Maintained::Repaired(forest) => forest.snapshot(),
                    Maintained::Rebuilt(net) => net.marked_forest_snapshot(),
                };
                self.verify_checkpoint(&oracle, &snapshot, i)?;
                report.checkpoints_verified += 1;
            }
        }
        report.finalize();
        Ok(report)
    }

    /// Verifies a claimed forest snapshot against the incremental shadow
    /// oracle (and, in paranoid mode, against the full sequential path too).
    fn verify_checkpoint(
        &self,
        oracle: &ShadowOracle,
        snapshot: &SpanningForest,
        event: usize,
    ) -> Result<(), ReplayError> {
        let fast = match self.config.kind {
            TreeKind::Mst => oracle.verify_msf(snapshot),
            TreeKind::St => oracle.verify_forest(snapshot),
        };
        fast.map_err(|detail| ReplayError::OracleMismatch { event, detail })?;
        if self.config.paranoid {
            oracle
                .self_check()
                .and_then(|()| match self.config.kind {
                    TreeKind::Mst => verify_mst(oracle.graph(), snapshot),
                    TreeKind::St => verify_spanning_forest(oracle.graph(), snapshot),
                })
                .map_err(|detail| ReplayError::OracleMismatch {
                    event,
                    detail: format!("paranoid check: {detail}"),
                })?;
        }
        Ok(())
    }

    /// The structure `policy` starts from, and what building it cost: the
    /// paper's construction for the impromptu policies, the policy's own
    /// rebuild on a scratch network otherwise.
    fn initial(
        &self,
        base: &Graph,
        policy: MaintenancePolicy,
    ) -> Result<(Maintained, CostReport), ReplayError> {
        if let MaintenancePolicy::Impromptu | MaintenancePolicy::BatchedRepair = policy {
            let options = MaintainOptions {
                config: KktConfig::default(),
                repair_scheduler: self.config.scheduler,
                seed: self.config.seed,
            };
            let forest = MaintainedForest::build(base.clone(), self.config.kind, options)?;
            let build = forest.build_cost();
            return Ok((Maintained::Repaired(forest), build));
        }
        // One scratch network per replay, reset (not re-cloned) per event.
        // Its graph mirrors the oracle's update-for-update, so `EdgeId`s
        // stay aligned with the oracle's forest across the whole trace.
        let mut scratch = Network::new(base.clone(), NetworkConfig::default());
        let build = self.rebuild_in(&mut scratch, policy, usize::MAX)?;
        Ok((Maintained::Rebuilt(scratch), build))
    }

    /// Applies the updates of top-level event `index` and returns the
    /// event's phase ledger and the largest message the maintained structure
    /// has sent (the repaired forest's so far, or this rebuild's).
    fn step(
        &self,
        maintained: &mut Maintained,
        policy: MaintenancePolicy,
        updates: &[Update],
        index: usize,
    ) -> Result<(PhaseLedger, u64), ReplayError> {
        match maintained {
            Maintained::Repaired(forest) => {
                let ledger_before = forest.phase_ledger();
                match policy {
                    // One full repair per primitive, even inside bursts.
                    MaintenancePolicy::Impromptu => forest.apply_batch_sequential(updates)?,
                    // Bursts repaired in one pipelined pass.
                    _ => forest.apply_batch(updates)?,
                };
                let phases = forest.phase_ledger() - ledger_before;
                Ok((phases, forest.cost().max_message_bits))
            }
            Maintained::Rebuilt(scratch) => {
                mirror_updates(scratch, updates)?;
                let cost = self.rebuild_in(scratch, policy, index)?;
                // `Network::reset` zeroed the ledger, so the scratch ledger
                // *is* this event's cost.
                Ok((scratch.phase_ledger(), cost.max_message_bits))
            }
        }
    }

    /// Runs one from-scratch construction on the reusable scratch network.
    ///
    /// The scratch arena replaces the old per-event `graph.clone()` +
    /// `Network::new`: [`Network::reset`] restores the pristine
    /// pre-construction state (no marks, zero cost, RNG reseeded from the
    /// step-mixed seed), which is observationally identical to a fresh
    /// network — same seeds, same graph, same `EdgeId`s — without paying an
    /// O(m) topology rebuild per event.
    fn rebuild_in(
        &self,
        net: &mut Network,
        policy: MaintenancePolicy,
        step: usize,
    ) -> Result<CostReport, ReplayError> {
        // Each rebuild's seed mixes the step in, deterministically: the same
        // trace always costs the same.
        let seed = self.config.seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let scheduler = match policy {
            // GHS is specified in synchronous rounds; the others are
            // broadcast-echo/flooding cascades that tolerate any delivery.
            MaintenancePolicy::RebuildGhs => Scheduler::Synchronous,
            _ => self.config.scheduler,
        };
        net.reset(NetworkConfig { scheduler, seed, ..NetworkConfig::default() });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15E_A5E0);
        match (policy, self.config.kind) {
            (MaintenancePolicy::RebuildKkt, TreeKind::Mst) => {
                build_mst(net, &KktConfig::default(), &mut rng)?;
            }
            (MaintenancePolicy::RebuildKkt, TreeKind::St) => {
                build_st(net, &KktConfig::default(), &mut rng)?;
            }
            (MaintenancePolicy::RebuildGhs, _) => {
                build_mst_ghs(net);
            }
            (MaintenancePolicy::RebuildFlood, _) => {
                // Flood from one representative per component: flooding only
                // spans the root's component, and partition scenarios really
                // do disconnect the network.
                for root in component_representatives(net.graph()) {
                    build_st_by_flooding(net, root)?;
                }
            }
            (MaintenancePolicy::Impromptu | MaintenancePolicy::BatchedRepair, _) => {
                unreachable!("the impromptu policies repair instead")
            }
        }
        Ok(net.cost())
    }
}

/// What a replay maintains: the forest the impromptu policies repair, or the
/// scratch network a rebuild policy rebuilds after every event.
enum Maintained {
    Repaired(MaintainedForest),
    Rebuilt(Network),
}

/// Applies the oracle-validated updates of one top-level event to the scratch
/// network's graph, keeping it (and its `EdgeId` allocation order) in
/// lockstep with the oracle's shadow graph.
fn mirror_updates(net: &mut Network, updates: &[Update]) -> Result<(), ReplayError> {
    for update in updates {
        let applied = match *update {
            Update::Delete { u, v } => net.delete_edge(u, v).is_some(),
            Update::Insert { u, v, weight } => net.insert_edge(u, v, weight).is_some(),
            Update::ChangeWeight { u, v, weight } => net.change_weight(u, v, weight).is_some(),
        };
        if !applied {
            return Err(ReplayError::InvalidTrace(format!(
                "scratch network diverged from the oracle on {update:?}"
            )));
        }
    }
    Ok(())
}

/// Flattens a top-level event into `Update`s against (and applied to) the
/// evolving shadow oracle.
fn primitives_as_updates(
    event: &WorkloadEvent,
    oracle: &mut ShadowOracle,
) -> Result<Vec<Update>, String> {
    let mut updates = Vec::new();
    for primitive in event.primitives() {
        let update = primitive
            .as_update(oracle.graph())
            .ok_or_else(|| format!("inapplicable event {primitive:?}"))?;
        oracle.apply(&update)?;
        updates.push(update);
    }
    Ok(updates)
}

/// The smallest node of every connected component.
fn component_representatives(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut reps = Vec::new();
    for s in 0..n {
        if seen[s] {
            continue;
        }
        reps.push(s);
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(x) = stack.pop() {
            for e in g.incident(x) {
                let y = g.edge(e).other(x);
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{MultiEdgeCuts, PartitionHeal, PoissonChurn, Scenario};
    use kkt_graphs::generators;

    fn base(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::connected_gnp(20, 0.3, 300, &mut rng)
    }

    #[test]
    fn impromptu_replay_verifies_and_accounts() {
        let g = base(1);
        let w = PoissonChurn::default().generate(&g, 10, 5);
        let harness = ReplayHarness::default();
        let report = harness.replay(&g, &w, MaintenancePolicy::Impromptu).unwrap();
        assert_eq!(report.per_event.len(), w.len());
        assert_eq!(report.checkpoints_verified, w.len());
        assert!(report.total.messages > 0);
        assert!(report.build.messages > 0);
        assert_eq!(report.policy, "impromptu_repair");
    }

    #[test]
    fn rebuild_policies_verify_too() {
        let g = base(2);
        let w = PoissonChurn::default().generate(&g, 4, 6);
        let harness = ReplayHarness::default();
        for policy in [MaintenancePolicy::RebuildKkt, MaintenancePolicy::RebuildGhs] {
            let report = harness.replay(&g, &w, policy).unwrap();
            assert_eq!(report.checkpoints_verified, w.len());
            assert!(report.total.messages > 0, "{}", policy.label());
        }
    }

    #[test]
    fn st_flood_policy_handles_partitions() {
        let g = base(3);
        let w = PartitionHeal::default().generate(&g, 4, 7);
        let harness =
            ReplayHarness::new(ReplayConfig { kind: TreeKind::St, ..ReplayConfig::default() });
        for policy in [MaintenancePolicy::Impromptu, MaintenancePolicy::RebuildFlood] {
            let report = harness.replay(&g, &w, policy).unwrap();
            assert_eq!(report.checkpoints_verified, w.len(), "{}", policy.label());
        }
    }

    #[test]
    fn batched_repair_verifies_on_every_standard_scenario_and_both_kinds() {
        let g = base(7);
        for kind in [TreeKind::Mst, TreeKind::St] {
            let harness = ReplayHarness::new(ReplayConfig { kind, ..ReplayConfig::default() });
            for scenario in crate::scenarios::standard_suite(300) {
                let w = scenario.generate(&g, 6, 11);
                let report = harness
                    .replay(&g, &w, MaintenancePolicy::BatchedRepair)
                    .unwrap_or_else(|e| panic!("{:?}/{}: {e}", kind, scenario.id()));
                assert!(report.checkpoints_verified > 0);
                assert_eq!(report.policy, "batched_repair");
            }
        }
    }

    #[test]
    fn batched_repair_beats_sequential_on_multi_edge_bursts() {
        let g = base(8);
        let w = MultiEdgeCuts { burst_size: 5, max_weight: 300 }.generate(&g, 6, 13);
        let harness = ReplayHarness::default();
        let sequential = harness.replay(&g, &w, MaintenancePolicy::Impromptu).unwrap();
        let batched = harness.replay(&g, &w, MaintenancePolicy::BatchedRepair).unwrap();
        assert_eq!(sequential.checkpoints_verified, w.len());
        assert_eq!(batched.checkpoints_verified, w.len());
        assert!(
            batched.total.bits < sequential.total.bits,
            "batched {} bits vs sequential {} bits",
            batched.total.bits,
            sequential.total.bits
        );
    }

    #[test]
    fn batched_replay_is_deterministic() {
        let g = base(9);
        let w = MultiEdgeCuts::default().generate(&g, 4, 15);
        let harness = ReplayHarness::default();
        let a = harness.replay(&g, &w, MaintenancePolicy::BatchedRepair).unwrap();
        let b = harness.replay(&g, &w, MaintenancePolicy::BatchedRepair).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn checkpoint_due_boundaries() {
        let with = |verify_every| {
            ReplayHarness::new(ReplayConfig { verify_every, ..ReplayConfig::default() })
        };
        // verify_every = 0: the final event only.
        let h0 = with(0);
        assert!((0..9).all(|i| !h0.checkpoint_due(i, 10)));
        assert!(h0.checkpoint_due(9, 10));
        assert!(h0.checkpoint_due(0, 1), "a one-event trace checkpoints its only event");
        // verify_every = 1: every event.
        let h1 = with(1);
        assert!((0..10).all(|i| h1.checkpoint_due(i, 10)));
        // verify_every = k: every k-th event, plus the last even when the
        // trace length is not a multiple of k.
        let h4 = with(4);
        let due: Vec<usize> = (0..10).filter(|&i| h4.checkpoint_due(i, 10)).collect();
        assert_eq!(due, vec![3, 7, 9], "events 4, 8 and the final 10th");
        // ... and no double-count when the last event is itself a multiple.
        let due8: Vec<usize> = (0..8).filter(|&i| h4.checkpoint_due(i, 8)).collect();
        assert_eq!(due8, vec![3, 7]);
        // An interval larger than the trace still verifies the end.
        let h99 = with(99);
        let due99: Vec<usize> = (0..5).filter(|&i| h99.checkpoint_due(i, 5)).collect();
        assert_eq!(due99, vec![4]);
    }

    #[test]
    fn verify_every_zero_and_one_count_checkpoints() {
        // The checkpoint arithmetic observed end-to-end: the report's
        // verified count matches the boundary rules.
        let g = base(10);
        let w = PoissonChurn::default().generate(&g, 7, 21);
        assert_eq!(w.len(), 7);
        for (verify_every, expected) in [(0usize, 1usize), (1, 7), (3, 3), (7, 1), (99, 1)] {
            let harness =
                ReplayHarness::new(ReplayConfig { verify_every, ..ReplayConfig::default() });
            let report = harness.replay(&g, &w, MaintenancePolicy::Impromptu).unwrap();
            assert_eq!(
                report.checkpoints_verified,
                expected,
                "verify_every = {verify_every} over {} events",
                w.len()
            );
        }
    }

    #[test]
    fn paranoid_mode_replays_and_verifies() {
        // Paranoid checkpoints run the incremental oracle *and* the full
        // sequential verification; costs and fingerprints must not change.
        let g = base(11);
        let w = MultiEdgeCuts::default().generate(&g, 4, 27);
        let fast = ReplayHarness::default();
        let paranoid =
            ReplayHarness::new(ReplayConfig { paranoid: true, ..ReplayConfig::default() });
        for policy in [MaintenancePolicy::Impromptu, MaintenancePolicy::RebuildKkt] {
            let a = fast.replay(&g, &w, policy).unwrap();
            let b = paranoid.replay(&g, &w, policy).unwrap();
            assert_eq!(a, b, "{}: paranoid mode is observationally identical", policy.label());
        }
    }

    #[test]
    fn unsupported_policy_is_rejected() {
        let g = base(4);
        let w = PoissonChurn::default().generate(&g, 2, 8);
        let harness = ReplayHarness::default(); // MST
        assert!(matches!(
            harness.replay(&g, &w, MaintenancePolicy::RebuildFlood),
            Err(ReplayError::UnsupportedPolicy { .. })
        ));
        assert!(!MaintenancePolicy::RebuildGhs.supports(TreeKind::St));
        assert!(MaintenancePolicy::BatchedRepair.supports(TreeKind::St));
        assert_eq!(MaintenancePolicy::all_for(TreeKind::Mst).len(), 4);
        assert_eq!(MaintenancePolicy::all_for(TreeKind::St).len(), 4);
    }

    #[test]
    fn replay_is_deterministic() {
        let g = base(5);
        let w = PoissonChurn::default().generate(&g, 6, 9);
        let harness = ReplayHarness::default();
        let a = harness.replay(&g, &w, MaintenancePolicy::Impromptu).unwrap();
        let b = harness.replay(&g, &w, MaintenancePolicy::Impromptu).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn synchronous_and_async_schedulers_both_verify() {
        let g = base(6);
        let w = PoissonChurn::default().generate(&g, 6, 10);
        for scheduler in [Scheduler::Synchronous, Scheduler::RandomAsync { max_delay: 6 }] {
            let harness = ReplayHarness::new(ReplayConfig { scheduler, ..ReplayConfig::default() });
            let report = harness.replay(&g, &w, MaintenancePolicy::Impromptu).unwrap();
            assert_eq!(report.checkpoints_verified, w.len());
        }
    }
}
