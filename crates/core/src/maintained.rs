//! High-level public API: a dynamically maintained spanning forest.
//!
//! [`MaintainedForest`] is the entry point a downstream user of this library
//! is expected to reach for: it owns the simulated network, builds the
//! MST/ST, applies dynamic updates with the paper's impromptu repair
//! algorithms, and exposes the communication cost counters.
//!
//! Every update takes one path, [`crate::repair::apply_update`], which reads
//! it as a free *local* change, a *cut* or a *link*; the batch methods share
//! that reading and differ only in whether cuts wait to be mended together.
//!
//! ```rust
//! use kkt_core::{MaintainedForest, MaintainOptions, TreeKind};
//! use kkt_graphs::generators;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), kkt_core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let graph = generators::connected_gnp(64, 0.1, 1_000, &mut rng);
//! let mut forest = MaintainedForest::build(graph, TreeKind::Mst, MaintainOptions::default())?;
//! assert!(forest.verify().is_ok());
//!
//! // Delete a tree edge; the forest repairs itself with o(m) messages.
//! let edge = forest.tree_edges()[0];
//! let (u, v) = forest.endpoints(edge);
//! forest.delete_edge(u, v)?;
//! assert!(forest.verify().is_ok());
//! # Ok(())
//! # }
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use kkt_congest::{CostReport, DeliveryQueueKind, Network, NetworkConfig, Scheduler};
use kkt_graphs::generators::Update;
use kkt_graphs::{EdgeId, Graph, NodeId, SpanningForest, Weight};

use crate::batch::{apply_batch, BatchError, BatchStats};
use crate::build_mst::{build_mst, BuildOutcome};
use crate::build_st::build_st;
use crate::config::KktConfig;
use crate::error::CoreError;
use crate::repair::{apply_update, DeleteOutcome, InsertOutcome};

/// Which structure is being maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeKind {
    /// Minimum spanning forest (weights matter; repairs use `FindMin`).
    Mst,
    /// Arbitrary spanning forest (weights ignored; repairs use `FindAny`).
    St,
}

/// Options for building and maintaining a forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaintainOptions {
    /// Algorithm parameters (confidence, word width, …).
    pub config: KktConfig,
    /// Repair-time scheduler (the paper's repairs are asynchronous; its
    /// construction is synchronous, and [`MaintainedForest::build`] always
    /// builds under [`Scheduler::Synchronous`]).
    pub repair_scheduler: Scheduler,
    /// Seed for all randomness (protocol coins and delivery delays).
    pub seed: u64,
    /// Delivery-queue implementation for builds and repairs (execution
    /// strategy only; costs and fingerprints are identical either way).
    pub queue: DeliveryQueueKind,
}

impl Default for MaintainOptions {
    fn default() -> Self {
        MaintainOptions {
            config: KktConfig::default(),
            repair_scheduler: Scheduler::RandomAsync { max_delay: 8 },
            seed: 0x5EED,
            queue: DeliveryQueueKind::Auto,
        }
    }
}

/// Outcome of one update applied through [`MaintainedForest::apply_update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The update was a deletion.
    Deleted(DeleteOutcome),
    /// The update was an insertion.
    Inserted(InsertOutcome),
    /// The update was a weight change.
    Reweighted,
}

/// A spanning forest maintained over a dynamic network by the
/// King–Kutten–Thorup algorithms.
#[derive(Debug)]
pub struct MaintainedForest {
    net: Network,
    kind: TreeKind,
    options: MaintainOptions,
    rng: StdRng,
    build_outcome: BuildOutcome,
    build_cost: CostReport,
}

impl MaintainedForest {
    /// Builds the forest from scratch on the given graph (Theorem 1.1), under
    /// the synchronous scheduler the paper's construction assumes.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (probability `n^{-c}`).
    pub fn build(
        graph: Graph,
        kind: TreeKind,
        options: MaintainOptions,
    ) -> Result<Self, CoreError> {
        let net_config = NetworkConfig {
            scheduler: Scheduler::Synchronous,
            seed: options.seed,
            queue: options.queue,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(graph, net_config);
        let mut rng = StdRng::seed_from_u64(options.seed ^ 0xD15EA5E);
        let build_outcome = match kind {
            TreeKind::Mst => build_mst(&mut net, &options.config, &mut rng)?,
            TreeKind::St => build_st(&mut net, &options.config, &mut rng)?,
        };
        let build_cost = net.cost();
        // Switch to the repair-time scheduler for subsequent updates.
        let mut repair_config = net.config();
        repair_config.scheduler = options.repair_scheduler;
        net.set_config(repair_config);
        Ok(MaintainedForest { net, kind, options, rng, build_outcome, build_cost })
    }

    /// Adopts an externally supplied forest (e.g. a precomputed MST) instead
    /// of building one — useful when benchmarking repairs in isolation.
    pub fn adopt(
        graph: Graph,
        kind: TreeKind,
        marked: &[EdgeId],
        options: MaintainOptions,
    ) -> Result<Self, CoreError> {
        let net_config = NetworkConfig {
            scheduler: options.repair_scheduler,
            seed: options.seed,
            queue: options.queue,
            ..NetworkConfig::default()
        };
        let mut net = Network::new(graph, net_config);
        net.mark_all(marked);
        net.forest().validate(net.graph()).map_err(CoreError::from)?;
        let rng = StdRng::seed_from_u64(options.seed ^ 0xD15EA5E);
        Ok(MaintainedForest {
            net,
            kind,
            options,
            rng,
            build_outcome: BuildOutcome { phases: Vec::new(), edges_marked: marked.len() },
            build_cost: CostReport::default(),
        })
    }

    /// The kind of structure being maintained.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// The currently maintained tree edges.
    pub fn tree_edges(&self) -> Vec<EdgeId> {
        self.net.forest().edges()
    }

    /// The maintained forest as a snapshot comparable with the sequential
    /// oracle.
    pub fn snapshot(&self) -> SpanningForest {
        self.net.marked_forest_snapshot()
    }

    /// Endpoint handles of an edge.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = self.net.graph().edge(edge);
        (e.u, e.v)
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.net.node_count()
    }

    /// Number of live edges in the network.
    pub fn edge_count(&self) -> usize {
        self.net.edge_count()
    }

    /// Total communication cost so far (construction + repairs).
    pub fn cost(&self) -> CostReport {
        self.net.cost()
    }

    /// Communication cost of the initial construction alone.
    pub fn build_cost(&self) -> CostReport {
        self.build_cost
    }

    /// Per-phase progress of the initial construction.
    pub fn build_outcome(&self) -> &BuildOutcome {
        &self.build_outcome
    }

    /// Read access to the underlying simulated network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Per-phase attribution of the cost so far; [`Self::cost`] is its sums.
    pub fn phase_ledger(&self) -> kkt_congest::PhaseLedger {
        self.net.phase_ledger()
    }

    /// Deletes edge `{u, v}` and repairs the forest if needed (Theorem 1.2):
    /// [`MaintainedForest::apply_update`] of an [`Update::Delete`].
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<DeleteOutcome, CoreError> {
        match self.apply_update(&Update::Delete { u, v })? {
            UpdateOutcome::Deleted(outcome) => Ok(outcome),
            other => unreachable!("a deletion reported {other:?}"),
        }
    }

    /// Inserts edge `{u, v}` with the given weight and repairs the forest if
    /// needed: [`MaintainedForest::apply_update`] of an [`Update::Insert`].
    pub fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        weight: Weight,
    ) -> Result<InsertOutcome, CoreError> {
        match self.apply_update(&Update::Insert { u, v, weight })? {
            UpdateOutcome::Inserted(outcome) => Ok(outcome),
            other => unreachable!("an insertion reported {other:?}"),
        }
    }

    /// Changes the weight of edge `{u, v}`:
    /// [`MaintainedForest::apply_update`] of an [`Update::ChangeWeight`].
    /// Only an MST tree edge getting heavier (a cut) or an MST non-tree edge
    /// getting lighter (a link) costs messages.
    pub fn change_weight(
        &mut self,
        u: NodeId,
        v: NodeId,
        new_weight: Weight,
    ) -> Result<(), CoreError> {
        self.apply_update(&Update::ChangeWeight { u, v, weight: new_weight }).map(|_| ())
    }

    /// Applies one dynamic update with the paper's impromptu repair: a free
    /// local change, a cut mended by `FindMin` / `FindAny`, or a link decided
    /// by one path query (see [`crate::repair`]). This is the hinge the
    /// scenario-replay subsystem (`kkt-workloads`) drives.
    pub fn apply_update(&mut self, update: &Update) -> Result<UpdateOutcome, CoreError> {
        apply_update(&mut self.net, self.kind, update, &self.options.config, &mut self.rng)
    }

    /// Applies a batch of updates with the *batched repair pipeline* (see
    /// [`crate::batch`]): local updates and links apply at once (a link
    /// after the cuts before it are mended), and all severed tree edges are
    /// repaired together — the fragment partition is computed a single time,
    /// the per-fragment `FindMin`/`FindAny` searches run concurrently under
    /// the congest scheduler, and fragments merge Borůvka-style so announce
    /// broadcasts are amortized across the batch instead of paid per cut.
    ///
    /// The final forest is the same (unique) MST / a valid spanning forest,
    /// exactly as if the updates had been applied one by one; only the
    /// communication bill differs. Severed-cut deletions report
    /// [`DeleteOutcome::BatchRepaired`] instead of naming a single
    /// replacement edge.
    ///
    /// # Errors
    ///
    /// Stops at the first failing update. The returned [`BatchError`] carries
    /// the outcomes of the applied prefix and the failing index, and every
    /// cut severed by that prefix has been repaired — the forest is left in
    /// the state `error.applied` describes.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<Vec<UpdateOutcome>, BatchError> {
        self.apply_batch_detailed(updates).map(|(outcomes, _)| outcomes)
    }

    /// [`MaintainedForest::apply_batch`], additionally reporting pipeline
    /// progress counters (consumed by experiment E10).
    pub fn apply_batch_detailed(
        &mut self,
        updates: &[Update],
    ) -> Result<(Vec<UpdateOutcome>, BatchStats), BatchError> {
        // `true`: cuts wait for the pipelined flushes.
        apply_batch(&mut self.net, self.kind, &self.options.config, &mut self.rng, updates, true)
    }

    /// Applies a batch of updates back-to-back with the *sequential* repairs
    /// of [`MaintainedForest::apply_update`] — one full repair per update, no
    /// batching. This is the baseline [`MaintainedForest::apply_batch`] is
    /// measured against: the same loop with no cut deferred.
    ///
    /// # Errors
    ///
    /// Stops at the first failing update; like the batched path, the error
    /// carries the applied prefix's outcomes and the failing index.
    pub fn apply_batch_sequential(
        &mut self,
        updates: &[Update],
    ) -> Result<Vec<UpdateOutcome>, BatchError> {
        // `false`: each cut is mended as soon as it is staged.
        apply_batch(&mut self.net, self.kind, &self.options.config, &mut self.rng, updates, false)
            .map(|(outcomes, _)| outcomes)
    }

    /// Verifies the maintained forest against the sequential oracle: it must
    /// be a spanning forest, and for [`TreeKind::Mst`] the minimum one.
    pub fn verify(&self) -> Result<(), String> {
        let snapshot = self.snapshot();
        match self.kind {
            TreeKind::Mst => kkt_graphs::verify_mst(self.net.graph(), &snapshot),
            TreeKind::St => kkt_graphs::verify_spanning_forest(self.net.graph(), &snapshot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_graphs::generators;
    use rand::Rng;

    fn options(seed: u64) -> MaintainOptions {
        MaintainOptions { seed, ..MaintainOptions::default() }
    }

    #[test]
    fn build_and_verify_mst() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::connected_gnp(40, 0.15, 500, &mut rng);
        let forest = MaintainedForest::build(g, TreeKind::Mst, options(2)).unwrap();
        forest.verify().unwrap();
        assert_eq!(forest.tree_edges().len(), 39);
        assert!(forest.build_cost().messages > 0);
        assert_eq!(forest.kind(), TreeKind::Mst);
    }

    #[test]
    fn build_and_verify_st() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::connected_gnp(40, 0.15, 1, &mut rng);
        let forest = MaintainedForest::build(g, TreeKind::St, options(4)).unwrap();
        forest.verify().unwrap();
        assert_eq!(forest.tree_edges().len(), 39);
    }

    #[test]
    fn adopt_accepts_a_valid_forest_and_rejects_cycles() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_gnp(20, 0.3, 100, &mut rng);
        let mst = kkt_graphs::kruskal(&g);
        let forest =
            MaintainedForest::adopt(g.clone(), TreeKind::Mst, &mst.edges, options(6)).unwrap();
        forest.verify().unwrap();
        assert_eq!(forest.build_cost().messages, 0);
        // A cyclic marking is rejected.
        let all: Vec<EdgeId> = g.live_edges().collect();
        assert!(MaintainedForest::adopt(g, TreeKind::Mst, &all, options(7)).is_err());
    }

    #[test]
    fn survives_a_random_update_stream() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::connected_gnp(30, 0.25, 300, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(9)).unwrap();
        for step in 0..25 {
            // Alternate deletions of random live edges and insertions of
            // random missing pairs.
            if step % 2 == 0 {
                let edges: Vec<EdgeId> = forest.network().graph().live_edges().collect();
                let e = edges[rng.gen_range(0..edges.len())];
                let (u, v) = forest.endpoints(e);
                forest.delete_edge(u, v).unwrap();
            } else {
                let n = forest.node_count();
                let (u, v) = loop {
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    if a != b && forest.network().graph().edge_between(a, b).is_none() {
                        break (a, b);
                    }
                };
                forest.insert_edge(u, v, rng.gen_range(1..300)).unwrap();
            }
            forest.verify().unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        assert!(forest.cost().messages > forest.build_cost().messages);
    }

    #[test]
    fn st_maintenance_under_updates() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::connected_gnp(24, 0.3, 1, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::St, options(11)).unwrap();
        for _ in 0..10 {
            let tree_edges = forest.tree_edges();
            let e = tree_edges[rng.gen_range(0..tree_edges.len())];
            let (u, v) = forest.endpoints(e);
            forest.delete_edge(u, v).unwrap();
            forest.verify().unwrap();
            forest.insert_edge(u, v, 1).unwrap();
            forest.verify().unwrap();
        }
    }

    #[test]
    fn change_weight_keeps_the_mst_minimum() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::connected_gnp(26, 0.3, 200, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(13)).unwrap();
        for _ in 0..10 {
            let edges: Vec<EdgeId> = forest.network().graph().live_edges().collect();
            let e = edges[rng.gen_range(0..edges.len())];
            let (u, v) = forest.endpoints(e);
            forest.change_weight(u, v, rng.gen_range(1..400)).unwrap();
            forest.verify().unwrap();
        }
    }

    #[test]
    fn apply_batch_matches_individual_updates() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::connected_gnp(24, 0.3, 200, &mut rng);
        let updates = generators::random_update_stream(&g, 12, 200, 0.5, &mut rng);

        let mut one_by_one =
            MaintainedForest::build(g.clone(), TreeKind::Mst, options(22)).unwrap();
        for u in &updates {
            one_by_one.apply_update(u).unwrap();
            one_by_one.verify().unwrap();
        }

        let mut batched = MaintainedForest::build(g, TreeKind::Mst, options(22)).unwrap();
        let outcomes = batched.apply_batch(&updates).unwrap();
        assert_eq!(outcomes.len(), updates.len());
        batched.verify().unwrap();
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn apply_update_reports_outcome_kinds() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::connected_gnp(16, 0.4, 100, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(24)).unwrap();
        let e = forest.tree_edges()[0];
        let (u, v) = forest.endpoints(e);
        let w = forest.network().graph().edge(e).weight;
        assert!(matches!(
            forest.apply_update(&Update::Delete { u, v }).unwrap(),
            UpdateOutcome::Deleted(_)
        ));
        assert!(matches!(
            forest.apply_update(&Update::Insert { u, v, weight: w }).unwrap(),
            UpdateOutcome::Inserted(_)
        ));
        assert!(matches!(
            forest.apply_update(&Update::ChangeWeight { u, v, weight: w + 1 }).unwrap(),
            UpdateOutcome::Reweighted
        ));
        forest.verify().unwrap();
    }

    #[test]
    fn equal_weight_change_is_a_free_no_op() {
        // Re-announcing the current weight must not trigger a repair (it
        // used to run a full FindMin re-justification on tree edges).
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::connected_gnp(24, 0.3, 200, &mut rng);
        for kind in [TreeKind::Mst, TreeKind::St] {
            let mut forest = MaintainedForest::build(g.clone(), kind, options(34)).unwrap();
            let e = forest.tree_edges()[0];
            let (u, v) = forest.endpoints(e);
            let w = forest.network().graph().edge(e).weight;
            let before = forest.cost();
            forest.change_weight(u, v, w).unwrap();
            assert_eq!(forest.cost(), before, "{kind:?}: unchanged weight costs nothing");
            forest.verify().unwrap();
        }
    }

    #[test]
    fn st_weight_changes_are_free_and_reported_like_the_mst_no_op_path() {
        // For an ST, weights never affect the tree, so *every* weight change
        // is a local update: zero messages, `Reweighted` outcome — exactly
        // what the MST path charges for its own no-op case (a non-tree edge
        // getting heavier).
        let mut rng = StdRng::seed_from_u64(35);
        let g = generators::connected_gnp(24, 0.3, 200, &mut rng);
        let mut st = MaintainedForest::build(g.clone(), TreeKind::St, options(36)).unwrap();
        let mut mst = MaintainedForest::build(g, TreeKind::Mst, options(36)).unwrap();

        // ST: reweighting a tree edge and a non-tree edge both cost nothing.
        let tree_edge = st.tree_edges()[1];
        let (tu, tv) = st.endpoints(tree_edge);
        let non_tree = st
            .network()
            .graph()
            .live_edges()
            .find(|e| !st.tree_edges().contains(e))
            .expect("dense graph has non-tree edges");
        let (nu, nv) = st.endpoints(non_tree);
        let before = st.cost();
        for (u, v, w) in [(tu, tv, 777), (nu, nv, 888)] {
            let outcome = st.apply_update(&Update::ChangeWeight { u, v, weight: w }).unwrap();
            assert_eq!(outcome, UpdateOutcome::Reweighted);
        }
        assert_eq!(st.cost(), before, "ST weight changes must be free");
        assert_eq!(st.network().graph().edge(tree_edge).weight, 777, "weight did change");
        st.verify().unwrap();

        // MST reference: the analogous no-op (non-tree increase) is also free
        // and reports the same outcome.
        let mst_non_tree =
            mst.network().graph().live_edges().find(|e| !mst.tree_edges().contains(e)).unwrap();
        let (mu, mv) = mst.endpoints(mst_non_tree);
        let w = mst.network().graph().edge(mst_non_tree).weight;
        let before = mst.cost();
        let outcome =
            mst.apply_update(&Update::ChangeWeight { u: mu, v: mv, weight: w + 9 }).unwrap();
        assert_eq!(outcome, UpdateOutcome::Reweighted);
        assert_eq!(mst.cost(), before);
    }

    #[test]
    fn sequential_batch_error_reports_prefix_and_index() {
        let mut rng = StdRng::seed_from_u64(37);
        let g = generators::connected_gnp(16, 0.3, 100, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(38)).unwrap();
        let e = forest.tree_edges()[0];
        let (u, v) = forest.endpoints(e);
        let missing = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && forest.network().graph().edge_between(a, b).is_none())
            .unwrap();
        let updates = vec![
            Update::Delete { u, v },
            Update::Delete { u: missing.0, v: missing.1 },
            Update::Insert { u, v, weight: 3 },
        ];
        let err = forest.apply_batch_sequential(&updates).unwrap_err();
        assert_eq!(err.failed_index, 1);
        assert_eq!(err.applied.len(), 1);
        assert!(matches!(err.applied[0], UpdateOutcome::Deleted(_)));
        forest.verify().unwrap();
    }

    #[test]
    fn batched_and_sequential_reach_the_same_forest_on_random_bursts() {
        // Seeded random bursts, both tree kinds, both schedulers: the batched
        // pipeline and one-by-one application must agree on the final forest
        // (for the MST the snapshot is the *unique* minimum forest, so equal
        // weight ⇔ equal snapshot).
        for (kind, scheduler, seed) in [
            (TreeKind::Mst, Scheduler::Synchronous, 41u64),
            (TreeKind::Mst, Scheduler::RandomAsync { max_delay: 6 }, 42),
            (TreeKind::St, Scheduler::Synchronous, 43),
            (TreeKind::St, Scheduler::RandomAsync { max_delay: 6 }, 44),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(28, 0.25, 300, &mut rng);
            let updates = generators::random_update_stream(&g, 14, 300, 0.6, &mut rng);
            let opts = MaintainOptions { repair_scheduler: scheduler, ..options(seed) };

            let mut sequential = MaintainedForest::build(g.clone(), kind, opts).unwrap();
            sequential.apply_batch_sequential(&updates).unwrap();
            sequential.verify().unwrap();

            let mut batched = MaintainedForest::build(g, kind, opts).unwrap();
            batched.apply_batch(&updates).unwrap();
            batched.verify().unwrap();

            assert_eq!(
                batched.tree_edges().len(),
                sequential.tree_edges().len(),
                "{kind:?}/{scheduler:?}"
            );
            if kind == TreeKind::Mst {
                assert_eq!(batched.snapshot(), sequential.snapshot(), "{scheduler:?}");
            }
        }
    }

    #[test]
    fn missing_edge_operations_error() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = generators::connected_gnp(10, 0.2, 10, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(15)).unwrap();
        let missing = (0..10)
            .flat_map(|a| (0..10).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && forest.network().graph().edge_between(a, b).is_none())
            .unwrap();
        assert!(forest.delete_edge(missing.0, missing.1).is_err());
        assert!(forest.change_weight(missing.0, missing.1, 5).is_err());
    }
}
