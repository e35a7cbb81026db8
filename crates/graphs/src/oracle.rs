//! The incremental shadow oracle: a sequential dynamic-MSF reference.
//!
//! The replay harness (`kkt-workloads`) used to verify every checkpoint by
//! cloning the shadow graph and re-running Kruskal — an `O(m log m)` sort per
//! checkpoint that dominates wall-clock once `n` reaches the thousands.
//! [`ShadowOracle`] replaces that: it owns the evolving shadow graph and
//! maintains its (unique) minimum spanning forest *incrementally* via the
//! classic cut/cycle rules instead of a full recomputation. The trace
//! generators and trace validation of `kkt-workloads` keep one too, so they
//! read tree membership and component counts in O(1).
//!
//! * **insert** — if the endpoints are in different trees, the new edge
//!   links them (cut rule); otherwise it swaps with the heaviest edge on the
//!   tree path between its endpoints if it is lighter (cycle rule). One
//!   search of the tree holding the endpoints: `O(n)`;
//! * **delete** of a tree edge — the lightest live edge crossing the severed
//!   cut re-links the two sides (cut rule). Both sides are searched in
//!   lockstep, and only the side that is exhausted first has its incident
//!   edges scanned: `O(S + deg(S))` for the smaller side `S`. The cut is the
//!   same seen from either side and weights are unique, so either side gives
//!   the same edge — the sequential twin of the paper's deletion repair
//!   (Theorem 1.2). Non-tree deletions are free;
//! * **weight change** — an increase on a tree edge re-justifies it against
//!   the cut it covers (the same smaller-side search); a decrease on a
//!   non-tree edge re-tests the cycle it closes; the two remaining
//!   directions cannot change the forest.
//!
//! Because all [`UniqueWeight`]s are distinct the minimum spanning forest is
//! unique, so the incremental forest and Kruskal's output are comparable
//! edge-for-edge. The *paranoid* mode ([`ShadowOracle::set_paranoid`]) keeps
//! exactly that cross-check: after every update the oracle re-runs full
//! Kruskal over the shadow graph and fails loudly on any divergence — the
//! belt-and-braces configuration for debugging the oracle itself, and the
//! property tests assert the two paths agree over seeded mixed-churn sweeps.

use crate::edge::{EdgeId, UniqueWeight, Weight};
use crate::generators::Update;
use crate::graph::{Graph, NodeId};
use crate::mst::{kruskal, verify_spanning_forest, SpanningForest};
use crate::union_find::UnionFind;

/// An incrementally maintained shadow graph plus its unique minimum spanning
/// forest, used as the checkpoint oracle for dynamic-scenario replays.
#[derive(Debug, Clone)]
pub struct ShadowOracle {
    graph: Graph,
    /// `in_tree[e.0]` — whether edge `e` is in the maintained forest.
    in_tree: Vec<bool>,
    /// Forest adjacency: `tree_adj[x]` lists the forest edges incident to `x`.
    tree_adj: Vec<Vec<EdgeId>>,
    tree_edge_count: usize,
    /// Epoch-stamped visit marks for the BFS scratch space (O(1) reset).
    visited: Vec<u64>,
    epoch: u64,
    /// BFS queue scratch, reused across updates: one per side of a cut.
    queues: [Vec<NodeId>; 2],
    /// BFS parent-edge scratch (valid where `visited` matches the epoch).
    parent_edge: Vec<Option<EdgeId>>,
    paranoid: bool,
}

impl ShadowOracle {
    /// Builds the oracle over a snapshot of `base`, computing the initial
    /// forest with one full Kruskal run (the only full run outside paranoid
    /// mode).
    pub fn new(base: &Graph) -> Self {
        let n = base.node_count();
        let mut oracle = ShadowOracle {
            graph: base.clone(),
            in_tree: Vec::new(),
            tree_adj: vec![Vec::new(); n],
            tree_edge_count: 0,
            visited: vec![0; n],
            epoch: 0,
            queues: [Vec::with_capacity(n), Vec::with_capacity(n)],
            parent_edge: vec![None; n],
            paranoid: false,
        };
        for e in kruskal(&oracle.graph).edges {
            oracle.link(e);
        }
        oracle
    }

    /// Enables or disables paranoid mode: every subsequent update re-runs
    /// full Kruskal over the shadow graph and cross-checks the incremental
    /// forest against it.
    pub fn set_paranoid(&mut self, paranoid: bool) {
        self.paranoid = paranoid;
    }

    /// The evolving shadow graph (the ground truth updates are applied to).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of trees in the maintained forest (= connected components of
    /// the shadow graph), maintained incrementally.
    pub fn component_count(&self) -> usize {
        self.graph.node_count() - self.tree_edge_count
    }

    /// Snapshot of the maintained minimum spanning forest.
    pub fn forest(&self) -> SpanningForest {
        let edges: Vec<EdgeId> =
            (0..self.in_tree.len()).filter(|&i| self.in_tree[i]).map(EdgeId).collect();
        // `in_tree` is indexed by EdgeId, so the scan is already sorted.
        SpanningForest { edges }
    }

    /// Whether `e` is an edge of the maintained forest. O(1); a deleted edge
    /// never is.
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.in_tree.get(e.0).copied().unwrap_or(false)
    }

    // -- forest bookkeeping -------------------------------------------------

    fn link(&mut self, e: EdgeId) {
        if self.in_tree.len() <= e.0 {
            self.in_tree.resize(e.0 + 1, false);
        }
        debug_assert!(!self.in_tree[e.0]);
        self.in_tree[e.0] = true;
        let edge = self.graph.edge(e);
        self.tree_adj[edge.u].push(e);
        self.tree_adj[edge.v].push(e);
        self.tree_edge_count += 1;
    }

    fn unlink(&mut self, e: EdgeId) {
        debug_assert!(self.in_tree[e.0]);
        self.in_tree[e.0] = false;
        let edge = self.graph.edge(e);
        self.tree_adj[edge.u].retain(|&x| x != e);
        self.tree_adj[edge.v].retain(|&x| x != e);
        self.tree_edge_count -= 1;
    }

    /// BFS over forest edges from `from` until `to` is reached. Marks
    /// visited nodes with the current epoch and records parent edges.
    /// Returns whether `to` was reached.
    fn bfs_tree(&mut self, from: NodeId, to: NodeId) -> bool {
        self.epoch += 1;
        let queue = &mut self.queues[0];
        queue.clear();
        queue.push(from);
        self.visited[from] = self.epoch;
        self.parent_edge[from] = None;
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            if x == to {
                return true;
            }
            for &e in &self.tree_adj[x] {
                let y = self.graph.edge(e).other(x);
                if self.visited[y] != self.epoch {
                    self.visited[y] = self.epoch;
                    self.parent_edge[y] = Some(e);
                    queue.push(y);
                }
            }
        }
        false
    }

    /// The heaviest edge on the forest path between `a` and `b`, or `None`
    /// if they are in different trees.
    fn heaviest_on_path(&mut self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a == b || !self.bfs_tree(a, b) {
            return None;
        }
        let mut heaviest: Option<(UniqueWeight, EdgeId)> = None;
        let mut x = b;
        while let Some(e) = self.parent_edge[x] {
            let w = self.graph.unique_weight(e);
            if heaviest.is_none_or(|(hw, _)| w > hw) {
                heaviest = Some((w, e));
            }
            x = self.graph.edge(e).other(x);
        }
        heaviest.map(|(_, e)| e)
    }

    /// The lightest live edge across the cut between the trees of `u` and
    /// `v`, the endpoints of a tree edge just unlinked: `O(S + deg(S))` for
    /// the smaller side `S`.
    ///
    /// One BFS per side, each marked with its own epoch, takes a node in
    /// turn until one of them runs out; that side is then complete, and only
    /// its nodes' incident edges are scanned. Every edge leaving it crosses
    /// the cut, and weights are unique, so the answer does not depend on the
    /// side scanned.
    fn lightest_leaving(&mut self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.epoch += 2;
        let marks = [self.epoch - 1, self.epoch];
        let mut heads = [0; 2];
        for (side, start) in [u, v].into_iter().enumerate() {
            self.queues[side].clear();
            self.queues[side].push(start);
            self.visited[start] = marks[side];
        }
        let done = 'search: loop {
            for side in 0..2 {
                let Some(&x) = self.queues[side].get(heads[side]) else { break 'search side };
                heads[side] += 1;
                for &e in &self.tree_adj[x] {
                    let y = self.graph.edge(e).other(x);
                    if self.visited[y] != marks[side] {
                        self.visited[y] = marks[side];
                        self.queues[side].push(y);
                    }
                }
            }
        };
        let mut best: Option<(UniqueWeight, EdgeId)> = None;
        for &x in &self.queues[done] {
            for (e, y) in self.graph.incident_with_neighbors(x) {
                if self.visited[y] != marks[done] {
                    let w = self.graph.unique_weight(e);
                    if best.is_none_or(|(bw, _)| w < bw) {
                        best = Some((w, e));
                    }
                }
            }
        }
        best.map(|(_, e)| e)
    }

    // -- updates ------------------------------------------------------------

    /// Inserts edge `{u, v}` with the given weight, updating the forest by
    /// the cut/cycle rules.
    ///
    /// # Errors
    ///
    /// Rejects duplicate edges, self-loops and out-of-range endpoints.
    pub fn insert(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Result<(), String> {
        let e = self
            .graph
            .add_edge(u, v, weight)
            .ok_or_else(|| format!("insert of duplicate or invalid edge ({u}, {v})"))?;
        match self.heaviest_on_path(u, v) {
            // Same tree: swap with the heaviest path edge if lighter.
            Some(heaviest) => {
                if self.graph.unique_weight(e) < self.graph.unique_weight(heaviest) {
                    self.unlink(heaviest);
                    self.link(e);
                }
            }
            // Different trees: the new edge links them.
            None => self.link(e),
        }
        self.check_paranoid()
    }

    /// Deletes edge `{u, v}`; a severed tree edge is replaced by the lightest
    /// live edge crossing the cut, if any.
    ///
    /// # Errors
    ///
    /// Rejects deletion of a missing edge.
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> Result<(), String> {
        let e = self
            .graph
            .edge_between(u, v)
            .ok_or_else(|| format!("delete of missing edge ({u}, {v})"))?;
        let was_tree = self.is_tree_edge(e);
        if was_tree {
            self.unlink(e);
        }
        self.graph.remove_edge(u, v);
        if was_tree {
            if let Some(replacement) = self.lightest_leaving(u, v) {
                self.link(replacement);
            }
        }
        self.check_paranoid()
    }

    /// Changes the weight of live edge `{u, v}`, re-justifying the forest in
    /// the two directions that can affect it (tree edge heavier, non-tree
    /// edge lighter).
    ///
    /// # Errors
    ///
    /// Rejects a weight change of a missing edge.
    pub fn change_weight(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Result<(), String> {
        let e = self
            .graph
            .edge_between(u, v)
            .ok_or_else(|| format!("weight change of missing edge ({u}, {v})"))?;
        let old = self.graph.edge(e).weight;
        self.graph.set_weight(u, v, weight);
        if self.is_tree_edge(e) && weight > old {
            // The tree edge got heavier: it stays only if it is still the
            // lightest edge across the cut it covers.
            self.unlink(e);
            let replacement =
                self.lightest_leaving(u, v).expect("either side of the cut sees at least `e`");
            self.link(replacement);
        } else if !self.is_tree_edge(e) && weight < old {
            // A non-tree edge got lighter: cycle rule against its tree path.
            let heaviest =
                self.heaviest_on_path(u, v).expect("endpoints of a non-tree edge share a tree");
            if self.graph.unique_weight(e) < self.graph.unique_weight(heaviest) {
                self.unlink(heaviest);
                self.link(e);
            }
        }
        self.check_paranoid()
    }

    /// Applies one [`Update`], dispatching on its kind. A weight change goes
    /// through [`ShadowOracle::change_weight`], which reads its direction
    /// against the *current* weight.
    ///
    /// # Errors
    ///
    /// Propagates the per-operation applicability errors; in paranoid mode
    /// also reports any divergence from full Kruskal.
    pub fn apply(&mut self, update: &Update) -> Result<(), String> {
        match *update {
            Update::Delete { u, v } => self.delete(u, v),
            Update::Insert { u, v, weight } => self.insert(u, v, weight),
            Update::ChangeWeight { u, v, weight } => self.change_weight(u, v, weight),
        }
    }

    // -- verification -------------------------------------------------------

    /// Checks that `claimed` is *the* minimum spanning forest of the shadow
    /// graph, by edge-for-edge comparison against the incrementally
    /// maintained forest (`O(n)` instead of a Kruskal run).
    ///
    /// # Errors
    ///
    /// Describes the first differing edge.
    pub fn verify_msf(&self, claimed: &SpanningForest) -> Result<(), String> {
        let reference = self.forest();
        if reference.edges != claimed.edges {
            let extra: Vec<_> = claimed.edges.iter().filter(|e| !reference.contains(**e)).collect();
            let missing: Vec<_> =
                reference.edges.iter().filter(|e| !claimed.contains(**e)).collect();
            return Err(format!(
                "claimed forest differs from the incremental MSF oracle: \
                 {} extra (e.g. {:?}), {} missing (e.g. {:?})",
                extra.len(),
                extra.first(),
                missing.len(),
                missing.first()
            ));
        }
        Ok(())
    }

    /// Checks that `claimed` is *a* valid spanning forest of the shadow
    /// graph: live acyclic edges spanning exactly the graph's components
    /// (whose count the oracle maintains incrementally — no graph traversal).
    ///
    /// # Errors
    ///
    /// Describes the violation.
    pub fn verify_forest(&self, claimed: &SpanningForest) -> Result<(), String> {
        let mut uf = UnionFind::new(self.graph.node_count());
        let mut prev: Option<EdgeId> = None;
        for &e in &claimed.edges {
            if prev == Some(e) {
                return Err(format!("edge {e} appears twice"));
            }
            prev = Some(e);
            if !self.graph.is_live(e) {
                return Err(format!("edge {e} is not a live edge of the graph"));
            }
            let edge = self.graph.edge(e);
            if !uf.union(edge.u, edge.v) {
                return Err(format!("edge {e} closes a cycle"));
            }
        }
        let expected = self.component_count();
        if uf.component_count() != expected {
            return Err(format!(
                "forest leaves {} components but the graph has {}",
                uf.component_count(),
                expected
            ));
        }
        Ok(())
    }

    /// The full-Kruskal cross-check paranoid mode runs after every update:
    /// the incremental forest must be a valid spanning forest *and* identical
    /// to a fresh Kruskal run over the shadow graph.
    ///
    /// # Errors
    ///
    /// Describes the divergence.
    pub fn self_check(&self) -> Result<(), String> {
        let forest = self.forest();
        verify_spanning_forest(&self.graph, &forest)
            .map_err(|e| format!("incremental forest invalid: {e}"))?;
        let reference = kruskal(&self.graph);
        if reference.edges != forest.edges {
            return Err(format!(
                "incremental forest diverged from Kruskal: {} vs {} edges",
                forest.edges.len(),
                reference.edges.len()
            ));
        }
        if self.component_count() != self.graph.component_count() {
            return Err(format!(
                "incremental component count {} but the graph has {}",
                self.component_count(),
                self.graph.component_count()
            ));
        }
        Ok(())
    }

    fn check_paranoid(&self) -> Result<(), String> {
        if self.paranoid {
            self.self_check()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, paths};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::connected_gnp(24, 0.25, 300, &mut rng)
    }

    #[test]
    fn fresh_oracle_matches_kruskal() {
        let g = graph(1);
        let oracle = ShadowOracle::new(&g);
        assert_eq!(oracle.forest(), kruskal(&g));
        assert_eq!(oracle.component_count(), 1);
        oracle.self_check().unwrap();
    }

    #[test]
    fn insert_applies_cycle_rule() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(1, 2, 20).unwrap();
        let mut oracle = ShadowOracle::new(&g);
        // A lighter closing edge evicts the heaviest path edge.
        oracle.insert(0, 2, 15).unwrap();
        oracle.self_check().unwrap();
        let f = oracle.forest();
        assert!(f.contains(oracle.graph().edge_between(0, 2).unwrap()));
        assert!(!f.contains(oracle.graph().edge_between(1, 2).unwrap()));
        // A heavier closing edge changes nothing.
        let mut oracle2 = ShadowOracle::new(&g);
        oracle2.insert(0, 2, 99).unwrap();
        oracle2.self_check().unwrap();
        assert!(!oracle2.forest().contains(oracle2.graph().edge_between(0, 2).unwrap()));
    }

    #[test]
    fn delete_applies_cut_rule_and_tracks_partitions() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        g.add_edge(0, 2, 9).unwrap();
        g.add_edge(2, 3, 4).unwrap();
        let mut oracle = ShadowOracle::new(&g);
        // Deleting tree edge {1,2} pulls in the replacement {0,2}.
        oracle.delete(1, 2).unwrap();
        oracle.self_check().unwrap();
        assert_eq!(oracle.component_count(), 1);
        // Deleting the bridge {2,3} genuinely splits the graph.
        oracle.delete(2, 3).unwrap();
        oracle.self_check().unwrap();
        assert_eq!(oracle.component_count(), 2);
        // Healing re-links.
        oracle.insert(3, 0, 7).unwrap();
        oracle.self_check().unwrap();
        assert_eq!(oracle.component_count(), 1);
    }

    /// Each tree edge of `oracle`'s forest, with the side of the forest
    /// minus that edge which holds the edge's `u` end.
    fn tree_edge_sides(oracle: &ShadowOracle) -> Vec<(EdgeId, Vec<bool>)> {
        let (g, forest) = (oracle.graph(), oracle.forest());
        let sides = forest.edges.iter().map(|&e| {
            let tree = paths::root_tree(g, &forest.edges, g.edge(e).u);
            (e, paths::split_by_edge(g, &tree, e))
        });
        sides.collect()
    }

    /// The endpoints of `e`, the one on the larger side of its cut first.
    fn larger_side_first(g: &Graph, e: EdgeId, u_side: &[bool]) -> (NodeId, NodeId) {
        let edge = *g.edge(e);
        let u_count = u_side.iter().filter(|&&s| s).count();
        if 2 * u_count > g.node_count() {
            (edge.u, edge.v)
        } else {
            (edge.v, edge.u)
        }
    }

    /// The lightest edge other than `e` across the cut `side`.
    fn lightest_rival(g: &Graph, e: EdgeId, side: &[bool]) -> Option<EdgeId> {
        g.cut_iter(side).filter(|&f| f != e).min_by_key(|&f| g.unique_weight(f))
    }

    #[test]
    fn tree_edge_delete_named_from_its_larger_side_finds_the_lightest_replacement() {
        let mut lockstep_cases = 0;
        for seed in [11, 12] {
            let g = graph(seed);
            let mut base = ShadowOracle::new(&g);
            base.set_paranoid(true);
            for (e, side) in tree_edge_sides(&base) {
                let Some(expected) = lightest_rival(&g, e, &side) else { continue };
                let (big, small) = larger_side_first(&g, e, &side);
                let u_count = side.iter().filter(|&&s| s).count();
                lockstep_cases += usize::from(u_count.min(g.node_count() - u_count) > 1);
                let mut oracle = base.clone();
                // Paranoid mode checks the forest against Kruskal.
                oracle.delete(big, small).unwrap();
                assert!(oracle.is_tree_edge(expected), "seed {seed}, edge {e}");
                assert!(!oracle.is_tree_edge(e));
                assert_eq!(oracle.component_count(), 1);
            }
        }
        assert!(lockstep_cases > 0, "some smaller side has more than one node");
    }

    #[test]
    fn bridge_delete_to_a_single_node_side_finds_no_replacement() {
        for seed in [21, 22] {
            let mut g = graph(seed);
            // Leave node `leaf` a single edge, a bridge.
            let leaf = 5;
            let edges: Vec<EdgeId> = g.incident(leaf).collect();
            for &e in &edges[1..] {
                let edge = *g.edge(e);
                g.remove_edge(edge.u, edge.v).unwrap();
            }
            assert_eq!(g.component_count(), 1, "seed {seed}");
            let bridge = edges[0];
            let anchor = g.edge(bridge).other(leaf);
            let mut oracle = ShadowOracle::new(&g);
            oracle.set_paranoid(true);
            assert!(oracle.is_tree_edge(bridge));
            oracle.delete(anchor, leaf).unwrap();
            assert_eq!(oracle.component_count(), 2, "seed {seed}");
            assert_eq!(oracle.forest().edges.len(), g.node_count() - 2);
        }
    }

    #[test]
    fn tree_edge_that_gets_heavier_stays_while_still_lightest_across_its_cut() {
        let mut checked = 0;
        for seed in [31, 32] {
            let g = graph(seed);
            let mut base = ShadowOracle::new(&g);
            base.set_paranoid(true);
            let before = base.forest();
            for (e, side) in tree_edge_sides(&base) {
                let raw = g.edge(e).weight;
                let rival = lightest_rival(&g, e, &side).map(|f| g.edge(f).weight);
                // One unit heavier still beats every rival (or there is none).
                if rival.is_some_and(|w| w < raw + 2) {
                    continue;
                }
                let (big, small) = larger_side_first(&g, e, &side);
                let mut oracle = base.clone();
                oracle.change_weight(big, small, raw + 1).unwrap();
                assert_eq!(oracle.forest(), before, "seed {seed}, edge {e}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn tree_edge_that_gets_heavier_than_a_rival_is_swapped_out() {
        let mut checked = 0;
        for seed in [41, 42] {
            let g = graph(seed);
            let mut base = ShadowOracle::new(&g);
            base.set_paranoid(true);
            for (e, side) in tree_edge_sides(&base) {
                let Some(rival) = lightest_rival(&g, e, &side) else { continue };
                let (big, small) = larger_side_first(&g, e, &side);
                let mut oracle = base.clone();
                // Heavier than every edge of the graph.
                oracle.change_weight(big, small, g.max_weight() + 1).unwrap();
                assert!(!oracle.is_tree_edge(e), "seed {seed}, edge {e}");
                assert!(oracle.is_tree_edge(rival));
                assert_eq!(oracle.component_count(), 1);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn weight_changes_rejustify_in_both_directions() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 10).unwrap();
        g.add_edge(1, 2, 20).unwrap();
        g.add_edge(0, 2, 30).unwrap();
        let mut oracle = ShadowOracle::new(&g);
        // Tree edge gets heavier than the non-tree alternative: swap.
        oracle.change_weight(1, 2, 40).unwrap();
        oracle.self_check().unwrap();
        assert!(oracle.forest().contains(oracle.graph().edge_between(0, 2).unwrap()));
        // Non-tree edge gets lighter than the heaviest path edge: swap back.
        oracle.change_weight(1, 2, 5).unwrap();
        oracle.self_check().unwrap();
        assert!(oracle.forest().contains(oracle.graph().edge_between(1, 2).unwrap()));
        // The no-op directions really are no-ops.
        let before = oracle.forest();
        oracle.change_weight(0, 2, 25).unwrap(); // non-tree heavier
        oracle.change_weight(1, 2, 4).unwrap(); // tree lighter
        oracle.self_check().unwrap();
        assert_eq!(oracle.forest(), before);
    }

    #[test]
    fn inapplicable_updates_error_and_leave_state_intact() {
        let g = graph(2);
        let mut oracle = ShadowOracle::new(&g);
        let before = oracle.forest();
        assert!(oracle.delete(0, 0).is_err());
        assert!(oracle.change_weight(0, 0, 5).is_err());
        let (u, v) = {
            let e = g.live_edges().next().unwrap();
            (g.edge(e).u, g.edge(e).v)
        };
        assert!(oracle.insert(u, v, 1).is_err(), "duplicate insert");
        assert_eq!(oracle.forest(), before);
        oracle.self_check().unwrap();
    }

    #[test]
    fn verify_msf_flags_differences() {
        let g = graph(3);
        let oracle = ShadowOracle::new(&g);
        oracle.verify_msf(&kruskal(&g)).unwrap();
        let non_tree = g.live_edges().find(|&e| !oracle.forest().contains(e)).unwrap();
        let mut bogus = oracle.forest();
        bogus.edges[0] = non_tree;
        let err = oracle.verify_msf(&SpanningForest::from_edges(bogus.edges)).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn verify_forest_checks_validity_not_minimality() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1).unwrap();
        g.add_edge(1, 2, 2).unwrap();
        let heavy = g.add_edge(0, 2, 50).unwrap();
        let oracle = ShadowOracle::new(&g);
        // A non-minimum spanning tree passes the forest check...
        let st =
            SpanningForest::from_edges(vec![heavy, oracle.graph().edge_between(0, 1).unwrap()]);
        oracle.verify_forest(&st).unwrap();
        // ...but not the MSF check.
        assert!(oracle.verify_msf(&st).is_err());
        // Too few edges: wrong component count.
        let partial = SpanningForest::from_edges(vec![heavy]);
        assert!(oracle.verify_forest(&partial).is_err());
        // A cycle is rejected.
        let all = SpanningForest::from_edges(oracle.graph().live_edges().collect());
        assert!(oracle.verify_forest(&all).is_err());
        // A duplicated edge is rejected (bypassing from_edges' dedup).
        let dup = SpanningForest { edges: vec![heavy, heavy] };
        assert!(oracle.verify_forest(&dup).is_err());
    }

    #[test]
    fn paranoid_mode_cross_checks_every_update() {
        let g = graph(4);
        let mut oracle = ShadowOracle::new(&g);
        oracle.set_paranoid(true);
        let mut rng = StdRng::seed_from_u64(99);
        let updates = generators::random_update_stream(&g, 20, 300, 0.6, &mut rng);
        for u in &updates {
            oracle.apply(u).unwrap();
        }
    }

    #[test]
    fn long_mixed_stream_stays_equal_to_kruskal() {
        for seed in 0..6u64 {
            let g = graph(100 + seed);
            let mut oracle = ShadowOracle::new(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let updates =
                generators::random_update_stream(&g, 40, 300, rng.gen_range(0.0..1.0), &mut rng);
            for (i, u) in updates.iter().enumerate() {
                oracle.apply(u).unwrap_or_else(|e| panic!("seed {seed}, update {i}: {e}"));
                assert_eq!(
                    oracle.forest(),
                    kruskal(oracle.graph()),
                    "seed {seed}, update {i}: incremental and Kruskal forests diverged"
                );
            }
        }
    }
}
