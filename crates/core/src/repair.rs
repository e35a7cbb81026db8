//! Impromptu repair of a maintained MST / ST under dynamic edge updates
//! (§3.2 and §4.3 of the paper, Theorem 1.2).
//!
//! "Impromptu" means that between updates every node stores only its incident
//! edges, their weights and which of them are marked — nothing else. All of
//! that is exactly what the simulator's [`kkt_congest::NodeView`] exposes, so
//! these routines work purely from the maintained marking plus the messages
//! they send while processing the update.
//!
//! Every update is one of three events, read off its edge *before* the
//! update is applied (is it live, is it marked, does its weight go up or
//! down?):
//!
//! * **Cut** — a tree edge leaves the forest: it is deleted, or an MST tree
//!   edge gets heavier (then the lightest edge across the cut, possibly the
//!   same edge, is re-marked). The smaller-ID endpoint runs `FindMin` (MST)
//!   or `FindAny` (ST) on its half of the split tree and announces the
//!   replacement: `O(n log n / log log n)` resp. `O(n)` expected messages.
//! * **Link** — an edge may join the forest: it is inserted, or an MST
//!   non-tree edge gets lighter. The smaller-ID endpoint asks, with one
//!   broadcast-and-echo, whether the other endpoint lies in its tree and
//!   (for the MST) which tree-path edge is heaviest, and swaps edges if the
//!   new one improves the tree. Deterministic, `O(n)` messages.
//! * **Local** — anything else only changes the endpoints' local knowledge,
//!   which is free.
//!
//! [`apply_update`] handles one update at once; the batched pipeline
//! ([`crate::batch`]) uses the same classification but defers a burst's
//! cuts to mend them together.
//!
//! These routines run unchanged under the asynchronous scheduler — they are
//! sequences of broadcast-and-echoes, which self-synchronise.

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeAggregate};
use kkt_congest::{BitSized, Network, NodeView, Phase};
use kkt_graphs::generators::Update;
use kkt_graphs::{Edge, EdgeId, EdgeNumber, NodeId};
use rand::Rng;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::find_any::find_any;
use crate::find_min::find_min;
use crate::maintained::{TreeKind, UpdateOutcome};
use crate::search::{Budget, SearchOutcome};
use crate::weights::{augmented_weight, pack_weight, resolve_edge, FoundEdge};

/// Outcome of a deletion: whether it cut the forest, and how the cut was
/// mended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The deleted edge was not a tree edge: the forest is untouched.
    NotATreeEdge,
    /// The deleted tree edge was a bridge: no replacement exists and the
    /// forest now has one more tree.
    Bridge,
    /// The tree was repaired by marking the returned replacement edge.
    Replaced(FoundEdge),
    /// The cut was mended by the batched repair pipeline
    /// ([`crate::MaintainedForest::apply_batch`]): the replacement edges and
    /// the announce broadcast are shared across the whole batch, so no single
    /// edge is attributable to this cut alone.
    BatchRepaired,
}

/// Outcome of an insertion: whether the new edge joined the forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The endpoints were in different trees: the new edge joins the forest.
    MergedFragments,
    /// The new edge displaced the heaviest edge on the tree path between its
    /// endpoints (MST only).
    Swapped {
        /// The tree edge that was unmarked.
        removed: EdgeId,
    },
    /// The tree is unchanged (the new edge is not useful).
    NotNeeded,
}

// ---------------------------------------------------------------------------
// The one update path
// ---------------------------------------------------------------------------

/// What an update does to the maintained forest (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Only the endpoints' local knowledge changes: free.
    Local,
    /// A tree edge leaves the forest, and its cut must be mended.
    Cut,
    /// An edge may join the forest, which one path query decides.
    Link,
}

/// Reads `update`'s effect off the current graph and marking, before the
/// update is applied. An insertion is always a link ([`edit`] rejects one
/// whose edge is live); a deletion or weight change of an edge that is not
/// live is [`CoreError::NoSuchEdge`].
pub(crate) fn classify(
    net: &Network,
    kind: TreeKind,
    update: &Update,
) -> Result<Effect, CoreError> {
    let (u, v, new_weight) = match *update {
        Update::Insert { .. } => return Ok(Effect::Link),
        Update::Delete { u, v } => (u, v, None),
        Update::ChangeWeight { u, v, weight } => (u, v, Some(weight)),
    };
    let edge = net.graph().edge_between(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    let marked = net.forest().is_marked(edge);
    let old = net.graph().edge(edge).weight;
    let mst = kind == TreeKind::Mst;
    Ok(match new_weight {
        None if marked => Effect::Cut,
        Some(weight) if mst && marked && weight > old => Effect::Cut,
        Some(weight) if mst && !marked && weight < old => Effect::Link,
        _ => Effect::Local,
    })
}

/// Applies one dynamic update to a maintained forest: classifies it, then
/// mends its cut, decides its link or just applies it (see the module docs).
///
/// # Errors
///
/// [`CoreError::NoSuchEdge`] if a deletion or weight change names an edge
/// that is not live, [`CoreError::Internal`] if an insertion names one that
/// is (or is not an edge at all), and any failure of the repair itself.
pub fn apply_update<R: Rng + ?Sized>(
    net: &mut Network,
    kind: TreeKind,
    update: &Update,
    config: &KktConfig,
    rng: &mut R,
) -> Result<UpdateOutcome, CoreError> {
    let effect = classify(net, kind, update)?;
    let edge = edit(net, update, effect)?;
    let outcome = match effect {
        // The only local update that is not a weight change is a non-tree
        // deletion.
        Effect::Local => UpdateOutcome::Deleted(DeleteOutcome::NotATreeEdge),
        Effect::Cut => {
            let Edge { u, v, .. } = *net.graph().edge(edge);
            UpdateOutcome::Deleted(repair_cut(net, initiator(net, u, v), kind, config, rng)?)
        }
        Effect::Link => UpdateOutcome::Inserted(join_or_swap(net, edge, kind)?),
    };
    // A weight change reports only that it was applied.
    Ok(match update {
        Update::ChangeWeight { .. } => UpdateOutcome::Reweighted,
        _ => outcome,
    })
}

/// Applies `update` to the graph and returns its edge. A tree edge whose
/// weight went up leaves the forest here, as a deleted one does, so a cut's
/// two sides are separate trees afterwards. An unchanged weight is not
/// written.
pub(crate) fn edit(
    net: &mut Network,
    update: &Update,
    effect: Effect,
) -> Result<EdgeId, CoreError> {
    match *update {
        Update::Delete { u, v } => {
            net.delete_edge(u, v).map(|(edge, _)| edge).ok_or(CoreError::NoSuchEdge { u, v })
        }
        // The message is built even on success: `perfbench/expected.json`
        // pins the allocation counts that include it.
        Update::Insert { u, v, weight } => net
            .insert_edge(u, v, weight)
            .ok_or(CoreError::Internal(format!("edge ({u},{v}) already exists or is invalid"))),
        Update::ChangeWeight { u, v, weight } => {
            let edge = net.graph().edge_between(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
            if net.graph().edge(edge).weight != weight {
                net.change_weight(u, v, weight);
            }
            if effect == Effect::Cut {
                net.unmark(edge);
            }
            Ok(edge)
        }
    }
}

// ---------------------------------------------------------------------------
// Path queries (used by links)
// ---------------------------------------------------------------------------

/// Broadcast payload: the identifier of the node being looked for.
#[derive(Debug, Clone, Copy)]
struct PathQueryDown {
    target_id: u64,
}

impl BitSized for PathQueryDown {
    fn bit_size(&self) -> usize {
        self.target_id.bit_size()
    }
}

/// Echo: whether the target was found in the subtree, and the heaviest tree
/// edge on the path from the target up to (and including the edge into) the
/// echoing node.
#[derive(Debug, Clone, Copy)]
struct PathQueryUp {
    found: bool,
    max_weight: u128,
    max_edge: Option<u128>,
}

impl BitSized for PathQueryUp {
    fn bit_size(&self) -> usize {
        1 + self.max_weight.bit_size() + self.max_edge.bit_size()
    }
}

/// "Is node `target_id` in my tree, and if so what is the heaviest edge on
/// the tree path to it?" — one broadcast-and-echo from the initiator.
#[derive(Debug, Clone, Copy)]
struct PathQuery {
    down: PathQueryDown,
}

impl TreeAggregate for PathQuery {
    type Down = PathQueryDown;
    type Up = PathQueryUp;
    type Output = Option<Option<(u128, u128)>>;

    fn root_payload(&self, _root_view: &NodeView) -> PathQueryDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &PathQueryDown) -> PathQueryUp {
        PathQueryUp { found: view.id == down.target_id, max_weight: 0, max_edge: None }
    }

    fn combine(&self, _view: &NodeView, acc: PathQueryUp, child: PathQueryUp) -> PathQueryUp {
        if child.found {
            PathQueryUp {
                found: true,
                max_weight: acc.max_weight.max(child.max_weight),
                max_edge: if child.max_weight >= acc.max_weight {
                    child.max_edge
                } else {
                    acc.max_edge
                },
            }
        } else {
            acc
        }
    }

    fn finalize_up(&self, view: &NodeView, parent: NodeId, mut up: PathQueryUp) -> PathQueryUp {
        if up.found {
            // The edge to the parent lies on the path from the target to the
            // initiator; fold it into the running maximum.
            if let Some(edge) = view.edge_to(parent) {
                let aw = augmented_weight(view, edge);
                if aw >= up.max_weight {
                    up.max_weight = aw;
                    up.max_edge = Some(edge.edge_number.as_u128());
                }
            }
        }
        up
    }

    fn finish(
        &self,
        _root_view: &NodeView,
        _down: &PathQueryDown,
        total: PathQueryUp,
    ) -> Option<Option<(u128, u128)>> {
        // Outer Option: was the target found? Inner: heaviest path edge (its
        // augmented weight and edge number), `None` when target == root.
        if total.found {
            Some(total.max_edge.map(|e| (total.max_weight, e)))
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Announcements (tree-wide broadcast after a decision, charged honestly)
// ---------------------------------------------------------------------------

/// A broadcast-and-echo whose only purpose is to disseminate a decision (add
/// or drop an edge) through the repaired tree; carries the edge number and
/// echoes a single bit. Used to charge the "u broadcasts that {u', v'} should
/// be added" step of §3.2 at its true cost.
#[derive(Debug, Clone, Copy)]
struct Announce {
    payload: u128,
}

impl TreeAggregate for Announce {
    type Down = u128;
    type Up = bool;
    type Output = bool;

    fn root_payload(&self, _root_view: &NodeView) -> u128 {
        self.payload
    }

    fn local(&self, _view: &NodeView, _down: &u128) -> bool {
        true
    }

    fn combine(&self, _view: &NodeView, acc: bool, child: bool) -> bool {
        acc && child
    }

    fn finish(&self, _root_view: &NodeView, _down: &u128, total: bool) -> bool {
        total
    }
}

/// Which endpoint initiates an operation: the one with the smaller ID, as in
/// the paper ("if u < v then u initiates"). The batched pipeline
/// (`crate::batch`) applies the same smaller-ID rule per *fragment*
/// (smallest severed-endpoint ID), which this single-edge helper cannot
/// express — keep the two in sync if the rule ever changes.
fn initiator(net: &Network, u: NodeId, v: NodeId) -> NodeId {
    if net.graph().id_of(u) <= net.graph().id_of(v) {
        u
    } else {
        v
    }
}

/// One decision broadcast through the tree containing `root`, charged at its
/// true cost of `2(|T| − 1)` messages. The fragment-level entry point that
/// single-cut repairs and the batched pipeline (`crate::batch`) share.
pub(crate) fn announce(net: &mut Network, root: NodeId, payload: u128) -> Result<(), CoreError> {
    net.span(Phase::Announce, |net| run_broadcast_echo(net, root, Announce { payload }))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Mending a cut, deciding a link
// ---------------------------------------------------------------------------

/// Mends the cut around `root`'s tree: `FindMin` (MST) or `FindAny` (ST)
/// finds a replacement, which is announced through the initiator's tree,
/// forwarded across the new edge (one extra message) and marked.
fn repair_cut<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    kind: TreeKind,
    config: &KktConfig,
    rng: &mut R,
) -> Result<DeleteOutcome, CoreError> {
    let outcome = match kind {
        TreeKind::Mst => find_min(net, root, Budget::Whp, config, rng)?.0,
        TreeKind::St => find_any(net, root, Budget::Whp, config, rng)?,
    };
    match outcome {
        // A search that gave up (probability n^{-c}) is reported as a bridge
        // too, although the forest then no longer spans its component.
        SearchOutcome::NoLeavingEdge | SearchOutcome::GaveUp => Ok(DeleteOutcome::Bridge),
        SearchOutcome::Found(found) => {
            announce(net, root, found.edge_number.as_u128())?;
            net.cost_mut()
                .record_message_in(Phase::Announce, found.edge_number.as_u128().bit_size() as u64);
            net.mark(found.edge);
            Ok(DeleteOutcome::Replaced(found))
        }
    }
}

/// The path query of a link: `edge`'s initiating endpoint asks, with one
/// broadcast-and-echo, whether the other endpoint lies in its tree. If not,
/// `edge` joins the forest. If it does and `kind` is an MST, `edge`
/// displaces the heaviest edge on the tree path between its endpoints when
/// that edge is heavier.
fn join_or_swap(
    net: &mut Network,
    edge: EdgeId,
    kind: TreeKind,
) -> Result<InsertOutcome, CoreError> {
    let Edge { u, v, weight } = *net.graph().edge(edge);
    let root = initiator(net, u, v);
    let other = if root == u { v } else { u };
    let query = PathQuery { down: PathQueryDown { target_id: net.graph().id_of(other) } };
    let Some(heaviest) =
        net.span(Phase::BroadcastEcho, |net| run_broadcast_echo(net, root, query))?
    else {
        // The endpoints are in different trees: the edge joins the forest.
        net.cost_mut().record_message_in(Phase::Announce, 1);
        net.mark(edge);
        return Ok(InsertOutcome::MergedFragments);
    };
    let new_aug = pack_weight(weight, net.graph().edge_number(edge), net.id_bits());
    match heaviest {
        Some((max_aug, max_edge_number)) if kind == TreeKind::Mst && max_aug > new_aug => {
            let number =
                EdgeNumber::from_ids((max_edge_number >> 64) as u64, max_edge_number as u64);
            let removed = resolve_edge(net, number)?.edge;
            announce(net, root, max_edge_number)?;
            net.unmark(removed);
            net.mark(edge);
            Ok(InsertOutcome::Swapped { removed })
        }
        _ => Ok(InsertOutcome::NotNeeded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, verify_mst, verify_spanning_forest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mst_network(n: usize, p: f64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 500, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        net
    }

    /// [`apply_update`] with the default configuration.
    fn apply(
        net: &mut Network,
        kind: TreeKind,
        update: Update,
        rng: &mut StdRng,
    ) -> Result<UpdateOutcome, CoreError> {
        apply_update(net, kind, &update, &KktConfig::default(), rng)
    }

    /// The first pair of distinct nodes of `net` with no edge between them.
    fn absent_pair(net: &Network) -> (NodeId, NodeId) {
        let n = net.node_count();
        (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && net.graph().edge_between(a, b).is_none())
            .expect("a sparse graph has absent pairs")
    }

    #[test]
    fn classify_reads_the_edge_before_the_update() {
        let net = mst_network(20, 0.4, 90);
        let tree = *net.graph().edge(net.forest().edges()[0]);
        let non_tree = *net
            .graph()
            .edge(net.graph().live_edges().find(|&e| !net.forest().is_marked(e)).unwrap());
        let (a, b) = absent_pair(&net);
        let change = |e: Edge, weight| Update::ChangeWeight { u: e.u, v: e.v, weight };
        for (kind, update, effect) in [
            (TreeKind::Mst, Update::Delete { u: tree.u, v: tree.v }, Effect::Cut),
            (TreeKind::St, Update::Delete { u: tree.u, v: tree.v }, Effect::Cut),
            (TreeKind::Mst, Update::Delete { u: non_tree.u, v: non_tree.v }, Effect::Local),
            (TreeKind::St, Update::Insert { u: a, v: b, weight: 1 }, Effect::Link),
            (TreeKind::Mst, change(tree, tree.weight + 1), Effect::Cut),
            (TreeKind::Mst, change(tree, tree.weight - 1), Effect::Local),
            (TreeKind::Mst, change(tree, tree.weight), Effect::Local),
            (TreeKind::Mst, change(non_tree, non_tree.weight - 1), Effect::Link),
            (TreeKind::Mst, change(non_tree, non_tree.weight + 1), Effect::Local),
            (TreeKind::St, change(tree, tree.weight + 1), Effect::Local),
            (TreeKind::St, change(non_tree, non_tree.weight - 1), Effect::Local),
        ] {
            assert_eq!(classify(&net, kind, &update).unwrap(), effect, "{kind:?} {update:?}");
        }
        for update in
            [Update::Delete { u: a, v: b }, Update::ChangeWeight { u: a, v: b, weight: 1 }]
        {
            assert!(matches!(
                classify(&net, TreeKind::Mst, &update),
                Err(CoreError::NoSuchEdge { .. })
            ));
        }
    }

    #[test]
    fn delete_non_tree_edge_is_free() {
        let mut net = mst_network(30, 0.3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let non_tree = net
            .graph()
            .live_edges()
            .find(|&e| !net.forest().is_marked(e))
            .expect("a dense graph has non-tree edges");
        let edge = *net.graph().edge(non_tree);
        let before = net.cost();
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Delete { u: edge.u, v: edge.v }, &mut rng)
                .unwrap();
        assert_eq!(outcome, UpdateOutcome::Deleted(DeleteOutcome::NotATreeEdge));
        assert_eq!(net.cost().messages, before.messages, "non-tree deletions cost nothing");
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn delete_tree_edge_restores_the_mst() {
        for seed in 0..6 {
            let mut net = mst_network(26, 0.25, seed);
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let tree_edge = net.forest().edges()[(seed as usize * 3) % net.forest().len()];
            let edge = *net.graph().edge(tree_edge);
            let outcome =
                apply(&mut net, TreeKind::Mst, Update::Delete { u: edge.u, v: edge.v }, &mut rng)
                    .unwrap();
            assert!(
                matches!(outcome, UpdateOutcome::Deleted(DeleteOutcome::Replaced(_))),
                "seed {seed}"
            );
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn delete_bridge_reports_bridge() {
        // A tree has only bridges.
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_tree(12, 50, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        let edge = *net.graph().edge(mst.edges[4]);
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Delete { u: edge.u, v: edge.v }, &mut rng)
                .unwrap();
        assert_eq!(outcome, UpdateOutcome::Deleted(DeleteOutcome::Bridge));
        assert_eq!(net.graph().component_count(), 2);
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn delete_missing_edge_errors() {
        let mut net = mst_network(10, 0.2, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let (u, v) = absent_pair(&net);
        assert!(matches!(
            apply(&mut net, TreeKind::Mst, Update::Delete { u, v }, &mut rng),
            Err(CoreError::NoSuchEdge { .. })
        ));
    }

    #[test]
    fn insert_useless_edge_changes_nothing() {
        let mut net = mst_network(20, 0.15, 6);
        let mut rng = StdRng::seed_from_u64(7);
        // An absent pair gets an edge heavier than every other.
        let (u, v) = absent_pair(&net);
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Insert { u, v, weight: 100_000 }, &mut rng)
                .unwrap();
        assert_eq!(outcome, UpdateOutcome::Inserted(InsertOutcome::NotNeeded));
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn insert_light_edge_swaps_out_the_heaviest_path_edge() {
        let mut net = mst_network(20, 0.15, 8);
        let mut rng = StdRng::seed_from_u64(9);
        // Weight-1 edges beat almost everything, so the insertion should
        // enter the MST.
        let (u, v) = absent_pair(&net);
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Insert { u, v, weight: 1 }, &mut rng).unwrap();
        assert!(matches!(
            outcome,
            UpdateOutcome::Inserted(InsertOutcome::Swapped { .. } | InsertOutcome::NotNeeded)
        ));
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn insert_between_components_merges_them() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = kkt_graphs::Graph::new(8);
        // Two components: 0-1-2-3 and 4-5-6-7.
        for i in 0..3 {
            g.add_edge(i, i + 1, 10 + i as u64);
            g.add_edge(4 + i, 5 + i, 20 + i as u64);
        }
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Insert { u: 2, v: 5, weight: 7 }, &mut rng)
                .unwrap();
        assert_eq!(outcome, UpdateOutcome::Inserted(InsertOutcome::MergedFragments));
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        assert_eq!(net.graph().component_count(), 1);
    }

    #[test]
    fn weight_changes_preserve_the_mst() {
        for seed in 0..5 {
            let mut net = mst_network(22, 0.3, 20 + seed);
            let mut rng = StdRng::seed_from_u64(30 + seed);
            // Increase a tree edge's weight dramatically: a cut.
            let tree_edge = net.forest().edges()[seed as usize % net.forest().len()];
            let e = *net.graph().edge(tree_edge);
            let update = Update::ChangeWeight { u: e.u, v: e.v, weight: 400_000 };
            let outcome = apply(&mut net, TreeKind::Mst, update, &mut rng).unwrap();
            assert_eq!(outcome, UpdateOutcome::Reweighted);
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
            // Decrease a non-tree edge's weight to (almost) nothing: a link.
            let non_tree: Vec<EdgeId> =
                net.graph().live_edges().filter(|&x| !net.forest().is_marked(x)).collect();
            if let Some(&non_tree) = non_tree.first() {
                let e = *net.graph().edge(non_tree);
                let update = Update::ChangeWeight { u: e.u, v: e.v, weight: 1 };
                apply(&mut net, TreeKind::Mst, update, &mut rng).unwrap();
                verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
            }
        }
    }

    #[test]
    fn st_delete_repairs_with_any_replacement() {
        for seed in 0..5 {
            let mut net = mst_network(24, 0.3, 40 + seed);
            let mut rng = StdRng::seed_from_u64(50 + seed);
            let tree_edge = net.forest().edges()[(2 * seed as usize) % net.forest().len()];
            let edge = *net.graph().edge(tree_edge);
            let outcome =
                apply(&mut net, TreeKind::St, Update::Delete { u: edge.u, v: edge.v }, &mut rng)
                    .unwrap();
            assert!(matches!(outcome, UpdateOutcome::Deleted(DeleteOutcome::Replaced(_))));
            verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn st_insert_only_merges_fragments() {
        let mut net = mst_network(18, 0.2, 60);
        let mut rng = StdRng::seed_from_u64(61);
        let (u, v) = absent_pair(&net);
        // Same tree: never marked, regardless of weight.
        let outcome =
            apply(&mut net, TreeKind::St, Update::Insert { u, v, weight: 1 }, &mut rng).unwrap();
        assert_eq!(outcome, UpdateOutcome::Inserted(InsertOutcome::NotNeeded));
        verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn repairs_work_under_asynchronous_delivery() {
        let mut net = mst_network(24, 0.25, 70);
        net.set_config(NetworkConfig::asynchronous(5, 12));
        let mut rng = StdRng::seed_from_u64(71);
        let tree_edge = net.forest().edges()[3];
        let edge = *net.graph().edge(tree_edge);
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Delete { u: edge.u, v: edge.v }, &mut rng)
                .unwrap();
        assert!(matches!(outcome, UpdateOutcome::Deleted(DeleteOutcome::Replaced(_))));
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn delete_repair_cost_is_fragment_times_broadcast_echoes() {
        // Every message of a tree-edge repair belongs to a broadcast-and-echo
        // on the initiator's half of the split tree, except the single
        // forwarding message across the replacement edge. The graph density
        // (here p = 0.9) never enters the count.
        let mut net = mst_network(40, 0.9, 80);
        let mut rng = StdRng::seed_from_u64(81);
        let tree_edge = net.forest().edges()[10];
        let edge = *net.graph().edge(tree_edge);
        let root = initiator(&net, edge.u, edge.v);
        let before = net.cost();
        let outcome =
            apply(&mut net, TreeKind::Mst, Update::Delete { u: edge.u, v: edge.v }, &mut rng)
                .unwrap();
        let UpdateOutcome::Deleted(DeleteOutcome::Replaced(replacement)) = outcome else {
            panic!("a dense graph has a replacement edge, got {outcome:?}");
        };
        let delta = net.cost() - before;
        // After the repair the initiator's fragment has been re-joined; the
        // searches ran on the pre-repair half, whose size we recover by
        // removing the replacement edge mark temporarily.
        net.unmark(replacement.edge);
        let side = net.forest().tree_of(net.graph(), root).len() as u64;
        net.mark(replacement.edge);
        assert_eq!(delta.messages, delta.broadcast_echoes * 2 * (side - 1) + 1);
    }
}
