//! The simulated network and the KT1 local views node programs see.
//!
//! A [`Network`] owns the ground-truth [`Graph`], the maintained
//! [`MarkedForest`], the global [`CostTracker`], and the simulation
//! configuration. Node programs never touch the `Network` directly — the
//! engine hands them a [`NodeView`], which contains exactly the KT1 knowledge
//! the paper grants a node: its own ID, `n`, and for each incident edge the
//! neighbour's ID, the weight, and whether the edge is currently marked.
//!
//! Dense node indices and [`EdgeId`]s appear inside views as *handles* (the
//! moral equivalent of port numbers); all algorithmic decisions in the
//! protocol crates are made from IDs, weights and edge numbers, never from
//! the handles' numeric values.
//!
//! # The view cache
//!
//! Views are immutable during an engine run (topology and markings are fixed
//! for its duration), and a replay touches the same nodes run after run —
//! `Build MST` alone launches thousands of broadcast-and-echoes over the
//! same fragments. The network therefore keeps a **persistent per-node view
//! cache** ([`ViewCache`]): the engine borrows cached views instead of
//! rebuilding (and re-allocating) the incident-edge vector per touched node
//! per run, and every dynamic update (`insert_edge` / `remove_edge` /
//! `change_weight` / `mark` / `unmark`) invalidates exactly the two endpoint
//! entries it dirtied. Cached and freshly built views are identical by
//! construction, so caching is invisible to costs and fingerprints.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use kkt_graphs::{EdgeId, EdgeNumber, Graph, NodeId, UniqueWeight, Weight};
use kkt_obs::{Phase, PhaseLedger};

use crate::cost::{CostReport, CostTracker};
use crate::engine::{EngineScratch, Scheduler};
use crate::forest::MarkedForest;
use crate::message::bits_for_value;
use crate::queue::MAX_WHEEL_TICKS;

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Message delivery model.
    pub scheduler: Scheduler,
    /// Optional hard cap on message size in bits; `None` records sizes without
    /// enforcing.
    pub bandwidth_limit: Option<usize>,
    /// Seed for all simulation-side randomness (delivery delays) and for the
    /// protocols' coin flips when they draw from the network RNG.
    pub seed: u64,
    /// Safety cap on delivered messages per engine run: a run that would
    /// deliver one more fails with [`crate::CongestError::EventLimitExceeded`].
    pub event_limit: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            scheduler: Scheduler::Synchronous,
            bandwidth_limit: None,
            seed: 0xC0FFEE,
            event_limit: 50_000_000,
        }
    }
}

impl NetworkConfig {
    /// A configuration using the asynchronous scheduler with the given
    /// maximum per-message delay.
    pub fn asynchronous(seed: u64, max_delay: u64) -> Self {
        NetworkConfig {
            scheduler: Scheduler::RandomAsync { max_delay: max_delay.max(1) },
            seed,
            ..Self::default()
        }
    }

    /// A synchronous configuration with an explicit seed.
    pub fn synchronous(seed: u64) -> Self {
        NetworkConfig { seed, ..Self::default() }
    }
}

/// One incident edge as seen from a node (KT1 knowledge plus simulation
/// handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentEdge {
    /// Simulation handle of the edge.
    pub edge: EdgeId,
    /// Simulation handle (address) of the neighbour.
    pub neighbor: NodeId,
    /// Distributed identifier of the neighbour (the KT1 datum).
    pub neighbor_id: u64,
    /// Raw edge weight.
    pub weight: Weight,
    /// Globally distinct weight (raw weight ⧺ edge number).
    pub unique_weight: UniqueWeight,
    /// The edge number (concatenation of endpoint IDs, smaller first).
    pub edge_number: EdgeNumber,
    /// Whether this edge is currently marked as a tree edge.
    pub marked: bool,
}

/// The complete local knowledge of one node.
///
/// Alongside the incident-edge list the view carries two derived indexes
/// built once at view-construction time: the marked degree (O(1)
/// [`NodeView::tree_degree`], consulted by every broadcast-and-echo
/// activation) and the sorted neighbour handles, the engine's O(log deg)
/// adjacency check for every staged message. One binary search over that
/// compact array answers the check without touching `incident`; the rarer
/// [`NodeView::edge_to`] scans `incident` for the edge itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// Simulation handle of this node.
    pub node: NodeId,
    /// Distributed identifier of this node.
    pub id: u64,
    /// The known bound on the network size.
    pub n: usize,
    /// Number of bits of the identifier space (the `c·log n` of the KT1
    /// model, shared knowledge). Edge numbers fit in `2·id_bits` bits.
    pub id_bits: u32,
    /// All live incident edges.
    pub incident: Vec<IncidentEdge>,
    /// The neighbour handles of `incident`, sorted (handles fit in `u32`:
    /// [`Graph`] caps the node count there).
    neighbors: Vec<u32>,
    /// Number of marked incident edges.
    tree_deg: u32,
}

impl NodeView {
    /// Builds a view from its incident edges, deriving the indexes.
    fn assemble(
        node: NodeId,
        id: u64,
        n: usize,
        id_bits: u32,
        incident: Vec<IncidentEdge>,
    ) -> NodeView {
        let mut neighbors: Vec<u32> = incident.iter().map(|e| e.neighbor as u32).collect();
        neighbors.sort_unstable();
        let tree_deg = incident.iter().filter(|e| e.marked).count() as u32;
        NodeView { node, id, n, id_bits, incident, neighbors, tree_deg }
    }

    /// Incident edges that are currently marked (tree edges).
    pub fn tree_edges(&self) -> impl Iterator<Item = &IncidentEdge> {
        self.incident.iter().filter(|e| e.marked)
    }

    /// Neighbour handles across marked edges (allocation-free).
    pub fn tree_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tree_edges().map(|e| e.neighbor)
    }

    /// Degree in the marked forest. O(1).
    pub fn tree_degree(&self) -> usize {
        self.tree_deg as usize
    }

    /// Degree in the whole graph.
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    /// Whether an edge leads to `neighbor`: one binary search over the
    /// sorted neighbour handles. O(log deg).
    pub(crate) fn has_neighbor(&self, neighbor: NodeId) -> bool {
        u32::try_from(neighbor).is_ok_and(|handle| self.neighbors.binary_search(&handle).is_ok())
    }

    /// Index into [`NodeView::incident`] of the edge leading to `neighbor`,
    /// if any. O(deg): a scan of `incident`.
    pub fn incident_index_to(&self, neighbor: NodeId) -> Option<usize> {
        self.incident.iter().position(|e| e.neighbor == neighbor)
    }

    /// The incident edge leading to `neighbor`, if any. O(deg).
    pub fn edge_to(&self, neighbor: NodeId) -> Option<&IncidentEdge> {
        self.incident_index_to(neighbor).map(|i| &self.incident[i])
    }
}

/// Persistent per-node cache of KT1 views (see the module docs). Taken out
/// of the network for the duration of an engine run and restored afterwards,
/// so the engine can borrow views while charging costs to the network.
#[derive(Debug, Default)]
pub struct ViewCache {
    entries: Vec<Option<NodeView>>,
}

impl ViewCache {
    fn with_nodes(n: usize) -> Self {
        let mut entries = Vec::new();
        entries.resize_with(n, || None);
        ViewCache { entries }
    }

    fn invalidate(&mut self, x: NodeId) {
        if let Some(slot) = self.entries.get_mut(x) {
            *slot = None;
        }
    }

    fn invalidate_all(&mut self) {
        for slot in &mut self.entries {
            *slot = None;
        }
    }

    /// The cached view of `x`, built on first touch.
    pub(crate) fn get_or_build(&mut self, net: &Network, x: NodeId) -> &NodeView {
        if self.entries.len() < net.node_count() {
            self.entries.resize_with(net.node_count(), || None);
        }
        let slot = &mut self.entries[x];
        if slot.is_none() {
            *slot = Some(net.view(x));
        }
        slot.as_ref().expect("just filled")
    }
}

/// Rejects a scheduler whose delays the delivery queue cannot hold: every
/// configuration enters a [`Network`] through here.
fn check_delay_bound(config: &NetworkConfig) {
    let bound = config.scheduler.max_delay_bound();
    assert!(
        bound < MAX_WHEEL_TICKS,
        "max_delay {bound} does not fit the delivery queue, which holds delays below \
         {MAX_WHEEL_TICKS}"
    );
}

/// The simulated CONGEST network.
#[derive(Debug)]
pub struct Network {
    graph: Graph,
    forest: MarkedForest,
    cost: CostTracker,
    config: NetworkConfig,
    rng: StdRng,
    id_bits: u32,
    views: ViewCache,
    /// Pooled engine buffers (delivery queue, tick/staging buffers, program
    /// slot table), reused across runs like the view cache.
    scratch: EngineScratch,
}

impl Network {
    /// Wraps a graph in a network with no marked edges.
    ///
    /// # Panics
    ///
    /// If a node identifier is 2³⁰ or larger (see [`Network::id_bits`]), or
    /// if `config`'s scheduler has a `max_delay` of 4096 or more (see
    /// [`Scheduler::RandomAsync`]).
    pub fn new(graph: Graph, config: NetworkConfig) -> Self {
        check_delay_bound(&config);
        let rng = StdRng::seed_from_u64(config.seed);
        let max_id = graph.nodes().map(|x| graph.id_of(x)).max().unwrap_or(1);
        assert!(
            max_id < 1 << 30,
            "node identifier {max_id} does not fit in 30 bits: edge keys pack two IDs into \
             60 bits, below the prime 2^61 - 1 the hash functions reduce them by"
        );
        let id_bits = bits_for_value(max_id) as u32;
        let views = ViewCache::with_nodes(graph.node_count());
        Network {
            graph,
            forest: MarkedForest::new(),
            cost: CostTracker::new(),
            config,
            rng,
            id_bits,
            views,
            scratch: EngineScratch::default(),
        }
    }

    /// Number of bits of the identifier space: the bit length of the largest
    /// node ID, at most 30 because [`Network::new`] rejects IDs of 2³⁰ or
    /// more. Two IDs then pack into one edge key below 2⁶⁰, so distinct
    /// edges keep distinct keys modulo the prime 2⁶¹ − 1 the hash functions
    /// reduce keys by. The paper would first compress a larger ID space with
    /// Karp–Rabin fingerprints; the simulator does not.
    pub fn id_bits(&self) -> u32 {
        self.id_bits
    }

    /// The ground-truth graph (simulation/oracle side).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The maintained forest.
    pub fn forest(&self) -> &MarkedForest {
        &self.forest
    }

    /// The accumulated communication costs (the ledger's sums).
    pub fn cost(&self) -> CostReport {
        self.cost.report()
    }

    /// Mutable access to the cost tracker (used by engines and by protocols
    /// that charge explicitly modelled messages).
    pub fn cost_mut(&mut self) -> &mut CostTracker {
        &mut self.cost
    }

    /// Runs `f` with every recorded cost attributed to `phase`, restoring the
    /// previous phase afterwards (spans nest; the innermost wins). Pure
    /// attribution: totals, RNG draws and behaviour are unchanged, only the
    /// per-phase ledger slot the costs land in.
    pub fn span<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        let prev = self.cost.enter_phase(phase);
        let out = f(self);
        self.cost.enter_phase(prev);
        out
    }

    /// The per-phase cost ledger; [`Network::cost`] is its sums.
    pub fn phase_ledger(&self) -> PhaseLedger {
        self.cost.ledger()
    }

    /// The simulation configuration.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Replaces the configuration (e.g. to switch scheduler between phases).
    ///
    /// # Panics
    ///
    /// If `config`'s scheduler has a `max_delay` of 4096 or more.
    pub fn set_config(&mut self, config: NetworkConfig) {
        check_delay_bound(&config);
        self.config = config;
    }

    /// Resets the network to a pristine pre-construction state over its
    /// *current* graph: no marks, zeroed cost counters, and the RNG reseeded
    /// from the new configuration — observationally identical to
    /// `Network::new(graph, config)` without cloning the graph. The scratch
    /// arena the rebuild replay policies reuse between events.
    ///
    /// # Panics
    ///
    /// If `config`'s scheduler has a `max_delay` of 4096 or more.
    pub fn reset(&mut self, config: NetworkConfig) {
        check_delay_bound(&config);
        self.clear_marks();
        self.cost = CostTracker::new();
        self.rng = StdRng::seed_from_u64(config.seed);
        self.config = config;
    }

    /// The simulation RNG (delivery delays and protocol coins).
    pub fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The number of bits in a CONGEST word for this network:
    /// `ceil(log2(n + u)) + 1` where `u` is the current maximum edge weight.
    pub fn word_bits(&self) -> usize {
        bits_for_value(self.graph.node_count() as u64 + self.graph.max_weight()) + 1
    }

    /// Marks a single edge.
    pub fn mark(&mut self, e: EdgeId) {
        if self.forest.mark(&self.graph, e) {
            let edge = self.graph.edge(e);
            self.views.invalidate(edge.u);
            self.views.invalidate(edge.v);
        }
    }

    /// Unmarks a single edge.
    pub fn unmark(&mut self, e: EdgeId) {
        if self.forest.unmark(&self.graph, e) {
            let edge = self.graph.edge(e);
            self.views.invalidate(edge.u);
            self.views.invalidate(edge.v);
        }
    }

    /// Marks every edge in the slice (e.g. a precomputed MST for repair
    /// experiments).
    pub fn mark_all(&mut self, edges: &[EdgeId]) {
        for &e in edges {
            self.mark(e);
        }
    }

    /// Clears every mark (in place — capacity is kept for the next build).
    pub fn clear_marks(&mut self) {
        self.forest.clear();
        self.views.invalidate_all();
    }

    /// Dynamic update: inserts a new edge. Returns its handle.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Option<EdgeId> {
        let id = self.graph.add_edge(u, v, weight)?;
        self.views.invalidate(u);
        self.views.invalidate(v);
        Some(id)
    }

    /// Dynamic update: deletes an edge, unmarking it if it was a tree edge.
    /// Returns the handle and whether it was marked.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Option<(EdgeId, bool)> {
        let id = self.graph.remove_edge(u, v)?;
        let was_marked = self.forest.unmark(&self.graph, id);
        self.views.invalidate(u);
        self.views.invalidate(v);
        Some((id, was_marked))
    }

    /// Dynamic update: changes the weight of a live edge, returning the old
    /// weight.
    pub fn change_weight(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Option<Weight> {
        let old = self.graph.set_weight(u, v, weight)?;
        self.views.invalidate(u);
        self.views.invalidate(v);
        Some(old)
    }

    /// Builds the KT1 view of node `x` from scratch (engines go through the
    /// cache instead, see [`ViewCache`]).
    pub fn view(&self, x: NodeId) -> NodeView {
        let incident = self
            .graph
            .incident_with_neighbors(x)
            .map(|(e, neighbor)| {
                let edge = self.graph.edge(e);
                let edge_number =
                    EdgeNumber::from_ids(self.graph.id_of(edge.u), self.graph.id_of(edge.v));
                IncidentEdge {
                    edge: e,
                    neighbor,
                    neighbor_id: self.graph.id_of(neighbor),
                    weight: edge.weight,
                    unique_weight: UniqueWeight::new(edge.weight, edge_number),
                    edge_number,
                    marked: self.forest.is_marked(e),
                }
            })
            .collect();
        NodeView::assemble(x, self.graph.id_of(x), self.graph.node_count(), self.id_bits, incident)
    }

    /// Detaches the view cache for the duration of an engine run (the engine
    /// needs `&mut` access to the cost tracker while borrowing views).
    pub(crate) fn take_view_cache(&mut self) -> ViewCache {
        std::mem::take(&mut self.views)
    }

    /// Re-attaches the view cache after an engine run.
    pub(crate) fn restore_view_cache(&mut self, views: ViewCache) {
        self.views = views;
    }

    /// Detaches the pooled engine buffers for the duration of a run (same
    /// contract as [`Network::take_view_cache`]).
    pub(crate) fn take_engine_scratch(&mut self) -> EngineScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Re-attaches the engine buffers after a run, keeping their grown
    /// capacities for the next one.
    pub(crate) fn restore_engine_scratch(&mut self, scratch: EngineScratch) {
        self.scratch = scratch;
    }

    /// The set of marked edges as a spanning-forest snapshot, for comparison
    /// against the sequential oracle.
    pub fn marked_forest_snapshot(&self) -> kkt_graphs::SpanningForest {
        kkt_graphs::SpanningForest::from_edges(self.forest.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_graphs::generators;
    use rand::SeedableRng;

    fn network() -> Network {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_gnp(20, 0.2, 50, &mut rng);
        Network::new(g, NetworkConfig::default())
    }

    #[test]
    fn view_reports_kt1_knowledge() {
        let net = network();
        let v = net.view(3);
        assert_eq!(v.node, 3);
        assert_eq!(v.n, 20);
        assert_eq!(v.id, net.graph().id_of(3));
        assert_eq!(v.degree(), net.graph().degree(3));
        for inc in &v.incident {
            assert_eq!(inc.neighbor_id, net.graph().id_of(inc.neighbor));
            assert!(!inc.marked, "nothing marked yet");
        }
    }

    #[test]
    fn marking_shows_up_in_views() {
        let mut net = network();
        let mst = kkt_graphs::kruskal(net.graph());
        net.mark_all(&mst.edges);
        let v = net.view(0);
        assert!(v.tree_degree() >= 1);
        assert_eq!(
            v.tree_edges().count(),
            net.graph().incident(0).filter(|e| mst.contains(*e)).count()
        );
        net.clear_marks();
        assert_eq!(net.view(0).tree_degree(), 0);
    }

    #[test]
    fn cached_views_match_fresh_views_after_every_update_kind() {
        // The cache-coherence contract: after any dynamic update, the cached
        // view of every node equals a from-scratch rebuild.
        let mut net = network();
        let mst = kkt_graphs::kruskal(net.graph());
        net.mark_all(&mst.edges);
        let check = |net: &mut Network| {
            let mut cache = net.take_view_cache();
            for x in 0..net.node_count() {
                let cached = cache.get_or_build(net, x).clone();
                assert_eq!(cached, net.view(x), "node {x}");
            }
            net.restore_view_cache(cache);
        };
        check(&mut net);
        let edge = *net.graph().edge(mst.edges[0]);
        net.delete_edge(edge.u, edge.v).unwrap();
        check(&mut net);
        net.insert_edge(edge.u, edge.v, edge.weight + 3).unwrap();
        check(&mut net);
        net.change_weight(edge.u, edge.v, 1).unwrap();
        check(&mut net);
        let e = net.graph().edge_between(edge.u, edge.v).unwrap();
        net.mark(e);
        check(&mut net);
        net.unmark(e);
        check(&mut net);
        net.clear_marks();
        check(&mut net);
    }

    #[test]
    fn reset_matches_a_fresh_network() {
        // `reset` must be observationally identical to constructing a new
        // network over a clone of the same graph.
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::connected_gnp(16, 0.3, 40, &mut rng);
        let config = NetworkConfig::asynchronous(77, 5);
        let mut recycled = Network::new(g.clone(), NetworkConfig::default());
        let mst = kkt_graphs::kruskal(recycled.graph());
        net_run_some_cost(&mut recycled, &mst.edges);
        recycled.reset(config);
        let mut fresh = Network::new(g, config);
        assert_eq!(recycled.cost(), fresh.cost());
        assert_eq!(recycled.config(), fresh.config());
        assert_eq!(recycled.forest().len(), 0);
        // Identical RNG stream after reset.
        use rand::Rng;
        let a: [u64; 4] = std::array::from_fn(|_| recycled.rng_mut().gen());
        let b: [u64; 4] = std::array::from_fn(|_| fresh.rng_mut().gen());
        assert_eq!(a, b);
    }

    fn net_run_some_cost(net: &mut Network, edges: &[EdgeId]) {
        net.mark_all(edges);
        net.cost_mut().record_message(123);
        net.cost_mut().record_time(9);
    }

    #[test]
    #[should_panic(expected = "node identifier 4294967297 does not fit in 30 bits")]
    fn ids_beyond_32_bits_are_rejected() {
        // Edge keys keep only the low 32 bits of each ID, so {1, 5} and
        // {1, 2^32 + 5} would share an augmented weight.
        let mut g = Graph::with_ids(vec![1, 5, (1 << 32) + 1]);
        g.add_edge(0, 1, 1).unwrap();
        Network::new(g, NetworkConfig::default());
    }

    #[test]
    #[should_panic(expected = "node identifier 1073741824 does not fit in 30 bits")]
    fn ids_from_2_to_the_30_are_rejected() {
        // Up to 2^30 - 1 two IDs pack into a key below 2^60.
        let mut g = Graph::with_ids(vec![1, (1 << 30) - 1]);
        g.add_edge(0, 1, 1).unwrap();
        assert_eq!(Network::new(g, NetworkConfig::default()).id_bits(), 30);
        // From 2^30 on, keys can exceed 2^61 - 1, and two edges' keys can
        // then agree modulo that prime: when the largest ID is 2^31, the
        // keys of {1, 2^29 + 3} and {2^29 + 1, 2^29 + 2} differ by exactly it.
        let mut g = Graph::with_ids(vec![1, 1 << 30]);
        g.add_edge(0, 1, 1).unwrap();
        Network::new(g, NetworkConfig::default());
    }

    /// A config whose delays the widest delivery queue cannot hold.
    fn too_slow() -> NetworkConfig {
        NetworkConfig::asynchronous(1, MAX_WHEEL_TICKS)
    }

    #[test]
    fn the_widest_wheel_costs_what_synchronous_delivery_costs() {
        use crate::broadcast_echo::{run_broadcast_echo, TreeStats};
        let mut net = network();
        let mst = kkt_graphs::kruskal(net.graph());
        let mut run = |config: NetworkConfig| {
            net.reset(config);
            net.mark_all(&mst.edges);
            let stats = run_broadcast_echo(&mut net, 3, TreeStats).unwrap();
            (stats, net.cost())
        };
        let (sync_stats, sync) = run(NetworkConfig::synchronous(4));
        let (wide_stats, wide) = run(NetworkConfig::asynchronous(4, MAX_WHEEL_TICKS - 1));
        assert_eq!(wide_stats, sync_stats);
        assert_eq!((wide.messages, wide.bits), (sync.messages, sync.bits));
        assert_eq!(sync.messages, 2 * 19);
        assert!(wide.time > sync.time, "delays up to 4095 stretch the makespan");
    }

    #[test]
    #[should_panic(expected = "max_delay 4096 does not fit the delivery queue")]
    fn new_rejects_a_delay_bound_past_the_wheel() {
        Network::new(Graph::new(2), too_slow());
    }

    #[test]
    #[should_panic(expected = "max_delay 4096 does not fit the delivery queue")]
    fn set_config_rejects_a_delay_bound_past_the_wheel() {
        network().set_config(too_slow());
    }

    #[test]
    #[should_panic(expected = "max_delay 4096 does not fit the delivery queue")]
    fn reset_rejects_a_delay_bound_past_the_wheel() {
        network().reset(too_slow());
    }

    #[test]
    fn dynamic_updates_keep_forest_consistent() {
        let mut net = network();
        let mst = kkt_graphs::kruskal(net.graph());
        net.mark_all(&mst.edges);
        let &tree_edge = mst.edges.first().unwrap();
        let edge = *net.graph().edge(tree_edge);
        let (deleted, was_marked) = net.delete_edge(edge.u, edge.v).unwrap();
        assert_eq!(deleted, tree_edge);
        assert!(was_marked);
        assert!(net.forest().validate(net.graph()).is_ok());
        // Insert it back with a different weight.
        let new_edge = net.insert_edge(edge.u, edge.v, edge.weight + 1).unwrap();
        assert_ne!(new_edge, tree_edge);
        assert_eq!(net.change_weight(edge.u, edge.v, 2), Some(edge.weight + 1));
    }

    #[test]
    fn word_bits_scales_with_n_and_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let small =
            Network::new(generators::connected_gnp(8, 0.3, 4, &mut rng), NetworkConfig::default());
        let large = Network::new(
            generators::connected_gnp(128, 0.05, 1 << 40, &mut rng),
            NetworkConfig::default(),
        );
        assert!(small.word_bits() < large.word_bits());
        assert!(large.word_bits() >= 40);
    }

    #[test]
    fn config_constructors() {
        let a = NetworkConfig::asynchronous(7, 16);
        assert_eq!(a.seed, 7);
        assert!(matches!(a.scheduler, Scheduler::RandomAsync { max_delay: 16 }));
        let s = NetworkConfig::synchronous(3);
        assert!(matches!(s.scheduler, Scheduler::Synchronous));
        let z = NetworkConfig::asynchronous(1, 0);
        assert!(matches!(z.scheduler, Scheduler::RandomAsync { max_delay: 1 }));
    }

    #[test]
    fn view_helpers() {
        let mut net = network();
        let mst = kkt_graphs::kruskal(net.graph());
        net.mark_all(&mst.edges);
        let g = net.graph();
        for x in g.nodes() {
            let v = net.view(x);
            let tn: Vec<NodeId> = v.tree_neighbors().collect();
            assert_eq!(tn.len(), v.tree_degree());
            for inc in &v.incident {
                assert_eq!(v.edge_to(inc.neighbor).unwrap().edge, inc.edge, "node {x}");
                assert_eq!(
                    v.incident_index_to(inc.neighbor).map(|i| v.incident[i].edge),
                    Some(inc.edge)
                );
            }
            let stranger = g.nodes().find(|&y| y != x && g.edge_between(x, y).is_none());
            let stranger = stranger.expect("a sparse graph leaves every node a non-neighbour");
            for absent in [stranger, x, usize::MAX] {
                assert!(v.edge_to(absent).is_none(), "node {x}: {absent}");
                assert!(v.incident_index_to(absent).is_none(), "node {x}: {absent}");
            }
        }
    }
}
