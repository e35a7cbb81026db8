//! Composable scenario generators.
//!
//! Every generator is a [`Scenario`]: a pure function from (base graph,
//! event budget, seed) to a [`Workload`]. Generators maintain a *shadow*
//! copy of the evolving graph while emitting events, so every emitted event
//! is applicable in order — [`Workload::validate`] re-checks this — and the
//! connectivity regime is controlled deliberately. The generators that
//! target the minimum spanning forest ([`AdversarialTreeCut`],
//! [`MultiEdgeCuts`]) keep a [`ShadowOracle`] as their shadow, so they read
//! tree membership and connectivity in O(1) instead of re-running Kruskal:
//!
//! * [`PoissonChurn`], [`AdversarialTreeCut`], [`WeightDrift`] and
//!   [`MixedPhases`] keep the network connected (deletions avoid bridges),
//!   the regime of the paper's repair theorems;
//! * [`PartitionHeal`] *deliberately* disconnects the network in bursts and
//!   heals it again, exercising the `Bridge` / `MergedFragments` repair
//!   paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kkt_graphs::{kruskal, EdgeId, Graph, NodeId, ShadowOracle, Weight};

use crate::event::WorkloadEvent;
use crate::fingerprint::fnv1a64;
use crate::workload::Workload;

/// A deterministic trace generator.
pub trait Scenario {
    /// Stable identifier (also the default workload name); parameters are
    /// baked in so two differently-tuned instances have different ids.
    fn id(&self) -> String;

    /// Generates a trace of (about) `events` top-level events over `base`.
    /// Same inputs ⇒ identical output, including the fingerprint.
    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload;
}

/// Derives the generator's RNG so that different scenarios with the same
/// seed still draw independent streams.
fn scenario_rng(id: &str, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ fnv1a64(id.as_bytes()))
}

fn finish(id: String, seed: u64, base: &Graph, events: Vec<WorkloadEvent>) -> Workload {
    Workload { name: id.clone(), scenario: id, seed, n: base.node_count(), events }
}

// ---------------------------------------------------------------------------
// Shadow-graph helpers
// ---------------------------------------------------------------------------

fn random_weight(max_weight: Weight, rng: &mut StdRng) -> Weight {
    if max_weight <= 1 {
        1
    } else {
        rng.gen_range(1..=max_weight)
    }
}

/// A uniformly random absent pair, or `None` if the graph is complete.
///
/// Sparse graphs sample by rejection (the historical path — the same RNG
/// draws, so pre-density-ladder traces are unchanged); once the absent pool
/// shrinks below 1/8 of all pairs the rejection hit rate collapses, so dense
/// graphs pick a uniform index into the *enumerated* absent pool instead.
/// The rejection loop is also capped — after 512 misses (probability
/// ≤ (7/8)^512 whenever the pool guard admits the loop) it falls through to
/// the same enumeration — so the sampler bails deterministically instead of
/// spinning, whatever the caller hands it.
fn random_absent_pair(g: &Graph, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let n = g.node_count();
    let max_pairs = if n < 2 { 0 } else { n * (n - 1) / 2 };
    let absent = max_pairs.saturating_sub(g.edge_count());
    if absent == 0 {
        return None;
    }
    if absent * 8 >= max_pairs {
        for _ in 0..512 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && g.edge_between(u, v).is_none() {
                return Some((u, v));
            }
        }
    }
    // Deterministic fallback: the k-th absent pair in lexicographic order.
    let mut k = rng.gen_range(0..absent);
    for u in 0..n {
        for v in (u + 1)..n {
            if g.edge_between(u, v).is_none() {
                if k == 0 {
                    return Some((u, v));
                }
                k -= 1;
            }
        }
    }
    unreachable!("the absent pool was counted above")
}

/// Bridge flags for all live edges (indexed by `EdgeId`), computed with one
/// iterative Tarjan low-link DFS per component in `O(n + m)` — generators
/// call this once per emitted deletion, so a per-candidate connectivity
/// probe would make trace generation quadratic in `m`. Each DFS frame holds
/// its node's adjacency iterator, which borrows the graph's own slab, so a
/// frame allocates nothing.
fn bridge_flags(g: &Graph) -> Vec<bool> {
    let n = g.node_count();
    let cap = g.live_edges().map(|e| e.0 + 1).max().unwrap_or(0);
    let mut is_bridge = vec![false; cap];
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut timer = 0usize;
    // Stack frame: (node, edge into it, its remaining incident edges).
    let mut stack = Vec::new();
    for start in 0..n {
        if disc[start] != usize::MAX {
            continue;
        }
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push((start, None, g.incident_with_neighbors(start)));
        while let Some((x, parent_edge, incident)) = stack.last_mut() {
            let (x, parent_edge) = (*x, *parent_edge);
            if let Some((e, y)) = incident.next() {
                // The graph is simple, so skipping the one parent edge by id
                // cannot skip a parallel edge.
                if Some(e) == parent_edge {
                    continue;
                }
                if disc[y] == usize::MAX {
                    disc[y] = timer;
                    low[y] = timer;
                    timer += 1;
                    stack.push((y, Some(e), g.incident_with_neighbors(y)));
                } else {
                    low[x] = low[x].min(disc[y]);
                }
            } else {
                stack.pop();
                if let Some((px, _, _)) = stack.last() {
                    let px = *px;
                    low[px] = low[px].min(low[x]);
                    if let Some(pe) = parent_edge {
                        if low[x] > disc[px] {
                            is_bridge[pe.0] = true;
                        }
                    }
                }
            }
        }
    }
    is_bridge
}

/// An insertion event for a uniformly random absent pair, or `None` if the
/// graph is complete.
fn random_insert_event(g: &Graph, max_weight: Weight, rng: &mut StdRng) -> Option<WorkloadEvent> {
    let (u, v) = random_absent_pair(g, rng)?;
    Some(WorkloadEvent::InsertEdge { u, v, weight: random_weight(max_weight, rng) })
}

/// A deletion event for a uniformly random deletable (non-bridge) edge of
/// `g` among those `eligible` accepts (shared by the churn and adversarial
/// generators so the sampling discipline cannot drift apart).
fn random_delete_event(
    g: &Graph,
    eligible: impl Fn(EdgeId) -> bool,
    rng: &mut StdRng,
) -> Option<WorkloadEvent> {
    let bridges = bridge_flags(g);
    let candidates: Vec<EdgeId> =
        g.live_edges().filter(|&e| !bridges[e.0] && eligible(e)).collect();
    if candidates.is_empty() {
        return None;
    }
    let edge = *g.edge(candidates[rng.gen_range(0..candidates.len())]);
    Some(WorkloadEvent::DeleteEdge { u: edge.u, v: edge.v })
}

/// Whether `a` and `b` are still joined in `g` once the `severed` edges are
/// gone. One search from each end takes a node in turn, and both stop as
/// soon as they meet or one runs out, so when the edges do cut the graph the
/// search costs about twice the smaller side. `side` is all zero on entry
/// and on return.
fn joined_without(g: &Graph, a: NodeId, b: NodeId, severed: &[EdgeId], side: &mut [u8]) -> bool {
    let mut queues = [vec![a], vec![b]];
    let mut heads = [0; 2];
    side[a] = 1;
    side[b] = 2;
    let joined = 'search: loop {
        for s in 0..2 {
            let Some(&x) = queues[s].get(heads[s]) else { break 'search false };
            heads[s] += 1;
            let mark = s as u8 + 1;
            for (e, y) in g.incident_with_neighbors(x) {
                if severed.contains(&e) || side[y] == mark {
                    continue;
                }
                if side[y] != 0 {
                    break 'search true;
                }
                side[y] = mark;
                queues[s].push(y);
            }
        }
    };
    for &x in queues.iter().flatten() {
        side[x] = 0;
    }
    joined
}

/// A connected region grown by BFS from a random start, of the given size.
fn random_region(g: &Graph, size: usize, rng: &mut StdRng) -> Vec<bool> {
    let n = g.node_count();
    let mut side = vec![false; n];
    let start = rng.gen_range(0..n);
    let mut frontier = vec![start];
    side[start] = true;
    let mut grown = 1;
    while grown < size {
        let Some(&x) = frontier.last() else { break };
        let next = g.incident(x).map(|e| g.edge(e).other(x)).find(|&y| !side[y]);
        match next {
            Some(y) => {
                side[y] = true;
                grown += 1;
                frontier.push(y);
            }
            None => {
                frontier.pop();
            }
        }
    }
    side
}

// ---------------------------------------------------------------------------
// 1. Poisson churn
// ---------------------------------------------------------------------------

/// Memoryless background churn: each event is independently a deletion
/// (probability [`PoissonChurn::delete_fraction`]) of a uniformly random
/// non-bridge edge, or an insertion of a uniformly random absent edge — the
/// discrete-time thinning of two independent Poisson processes. The network
/// stays connected throughout; density performs a bounded random walk.
#[derive(Debug, Clone, Copy)]
pub struct PoissonChurn {
    /// Probability that an event is a deletion (the rest insert).
    pub delete_fraction: f64,
    /// Maximum raw weight for inserted edges.
    pub max_weight: Weight,
}

impl Default for PoissonChurn {
    fn default() -> Self {
        PoissonChurn { delete_fraction: 0.5, max_weight: 1_000 }
    }
}

impl Scenario for PoissonChurn {
    fn id(&self) -> String {
        format!("poisson_churn({:.2})", self.delete_fraction)
    }

    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload {
        let id = self.id();
        let mut rng = scenario_rng(&id, seed);
        let mut shadow = base.clone();
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            let delete = rng.gen_bool(self.delete_fraction);
            let event =
                if delete { random_delete_event(&shadow, |_| true, &mut rng) } else { None };
            // A failed draw (tree-only graph has no deletable edge; complete
            // graph has no absent pair) falls through to the other kind.
            let event = event
                .or_else(|| random_insert_event(&shadow, self.max_weight, &mut rng))
                .or_else(|| random_delete_event(&shadow, |_| true, &mut rng));
            let Some(event) = event else { break };
            event.apply_to_graph(&mut shadow).expect("generator emits applicable events");
            out.push(event);
        }
        finish(id, seed, base, out)
    }
}

// ---------------------------------------------------------------------------
// 2. Adversarial tree-edge targeting
// ---------------------------------------------------------------------------

/// An adversary that always severs the *current minimum spanning forest*:
/// every deletion targets a (non-bridge) tree edge, forcing a full
/// `FindMin`/`FindAny` repair each time — the worst case the repair
/// theorems price. Every third event re-inserts a random absent edge so the
/// replacement pool never dries up.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialTreeCut {
    /// Maximum raw weight for replenishing insertions.
    pub max_weight: Weight,
}

impl Default for AdversarialTreeCut {
    fn default() -> Self {
        AdversarialTreeCut { max_weight: 1_000 }
    }
}

impl Scenario for AdversarialTreeCut {
    fn id(&self) -> String {
        "adversarial_tree_cut".to_string()
    }

    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload {
        let id = self.id();
        let mut rng = scenario_rng(&id, seed);
        let mut shadow = ShadowOracle::new(base);
        let mut out = Vec::with_capacity(events);
        for step in 0..events {
            let replenish = step % 3 == 2;
            let g = shadow.graph();
            let cut = |rng: &mut StdRng| random_delete_event(g, |e| shadow.is_tree_edge(e), rng);
            let insert = |rng: &mut StdRng| random_insert_event(g, self.max_weight, rng);
            // Each phase falls back on the other at the density extremes, so
            // the adversary stays well-defined on the whole ladder: on the
            // complete graph there is no absent pair to replenish (cut a tree
            // edge instead); on the tree-only rung every tree edge is a
            // bridge (replenish instead). A connected graph with any
            // non-tree edge always has a non-bridge tree edge, so the
            // fallback never fires — and the trace never changes — on the
            // historical sparse presets.
            let event = if replenish {
                insert(&mut rng).or_else(|| cut(&mut rng))
            } else {
                cut(&mut rng).or_else(|| insert(&mut rng))
            };
            let Some(event) = event else { break };
            event.apply_to_oracle(&mut shadow).expect("generator emits applicable events");
            out.push(event);
        }
        finish(id, seed, base, out)
    }
}

// ---------------------------------------------------------------------------
// 3. Partition and heal
// ---------------------------------------------------------------------------

/// Correlated failure bursts: a connected region of roughly a quarter of the
/// network is cut off by deleting *all* of its boundary edges in one burst
/// (the network genuinely partitions — repairs must return `Bridge`), then
/// the same links come back in a healing burst with fresh weights
/// (`MergedFragments`). Repeats until the event budget is spent.
#[derive(Debug, Clone, Copy)]
pub struct PartitionHeal {
    /// Maximum raw weight for healed edges.
    pub max_weight: Weight,
}

impl Default for PartitionHeal {
    fn default() -> Self {
        PartitionHeal { max_weight: 1_000 }
    }
}

impl Scenario for PartitionHeal {
    fn id(&self) -> String {
        "partition_heal".to_string()
    }

    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload {
        let id = self.id();
        let mut rng = scenario_rng(&id, seed);
        let mut shadow = base.clone();
        let mut out = Vec::with_capacity(events);
        while out.len() + 2 <= events {
            let n = shadow.node_count();
            let m = shadow.edge_count();
            // The burst must respect density: cutting off a quarter of a
            // *dense* network severs Θ(m) boundary edges, so the burst size
            // (and the repair bill it prices) would grow with m instead of
            // staying the O(n)-edges correlated failure this scenario
            // models. Keep the historical n/4 region through the sparse band
            // (m ≤ 5n — covers the m/n = 4 presets and their churn drift,
            // leaving every pre-ladder trace byte-identical) and shrink the
            // region inversely with average degree above it, holding the
            // expected boundary at O(n) edges on every density rung.
            let avg_degree = (2 * m).div_ceil(n.max(1)).max(1);
            let quarter = (n / 4).max(2);
            let region_size = if 2 * m <= 10 * n {
                quarter
            } else {
                (quarter * 8 / avg_degree).clamp(2, quarter)
            };
            let side = random_region(&shadow, region_size, &mut rng);
            let cut = shadow.cut(&side);
            if cut.is_empty() {
                break;
            }
            let endpoints: Vec<(NodeId, NodeId)> = cut
                .iter()
                .map(|&e| {
                    let edge = shadow.edge(e);
                    (edge.u, edge.v)
                })
                .collect();
            let partition = WorkloadEvent::Burst {
                events: endpoints
                    .iter()
                    .map(|&(u, v)| WorkloadEvent::DeleteEdge { u, v })
                    .collect(),
            };
            let heal = WorkloadEvent::Burst {
                events: endpoints
                    .iter()
                    .map(|&(u, v)| WorkloadEvent::InsertEdge {
                        u,
                        v,
                        weight: random_weight(self.max_weight, &mut rng),
                    })
                    .collect(),
            };
            partition.apply_to_graph(&mut shadow).expect("cut edges are live");
            heal.apply_to_graph(&mut shadow).expect("healed edges were just deleted");
            out.push(partition);
            out.push(heal);
        }
        finish(id, seed, base, out)
    }
}

// ---------------------------------------------------------------------------
// 3b. Multi-edge simultaneous failures
// ---------------------------------------------------------------------------

/// Simultaneous failures of `k` *independent* tree edges per burst: unlike
/// [`PartitionHeal`]'s geographic cuts, the severed edges are spread across
/// the current minimum spanning forest (pairwise non-adjacent where
/// possible), and their simultaneous removal keeps the network connected —
/// every cut has a replacement, so the burst measures pure repair work. Each
/// failure burst is followed by a replenishment burst inserting `k` fresh
/// random edges, keeping density stationary over long traces.
///
/// This is the workload where batching either wins or dies: a sequential
/// replay repairs the `k` cuts one at a time (each search walking a fragment
/// that is almost the whole tree), while a batched replay mends the whole
/// fragment partition in one pipelined pass.
#[derive(Debug, Clone, Copy)]
pub struct MultiEdgeCuts {
    /// Tree edges severed per burst (`k`).
    pub burst_size: usize,
    /// Maximum raw weight for replenishing insertions.
    pub max_weight: Weight,
}

impl Default for MultiEdgeCuts {
    fn default() -> Self {
        MultiEdgeCuts { burst_size: 4, max_weight: 1_000 }
    }
}

impl MultiEdgeCuts {
    /// Up to `burst_size` current-tree edges whose *joint* removal keeps the
    /// graph connected, preferring pairwise vertex-disjoint picks.
    fn pick_burst(&self, shadow: &ShadowOracle, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
        let g = shadow.graph();
        let mut candidates: Vec<EdgeId> =
            g.live_edges().filter(|&e| shadow.is_tree_edge(e)).collect();
        // Deterministic shuffle: the candidate order is a pure function of
        // the scenario RNG state.
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.gen_range(0..=i));
        }
        // A disconnected graph stays disconnected whatever is cut.
        if shadow.component_count() > 1 {
            return Vec::new();
        }
        let mut side = vec![0; g.node_count()];
        let mut touched = vec![false; g.node_count()];
        // The edges this burst severs; the graph minus them stays connected,
        // so a candidate keeps it connected iff its ends stay joined.
        let mut severed: Vec<EdgeId> = Vec::new();
        'pick: for disjoint_only in [true, false] {
            for &e in &candidates {
                if severed.len() == self.burst_size {
                    break 'pick;
                }
                if severed.contains(&e) {
                    continue;
                }
                let edge = *g.edge(e);
                if disjoint_only && (touched[edge.u] || touched[edge.v]) {
                    continue;
                }
                severed.push(e);
                if !joined_without(g, edge.u, edge.v, &severed, &mut side) {
                    severed.pop();
                    continue;
                }
                touched[edge.u] = true;
                touched[edge.v] = true;
            }
        }
        severed.iter().map(|&e| (g.edge(e).u, g.edge(e).v)).collect()
    }
}

impl Scenario for MultiEdgeCuts {
    fn id(&self) -> String {
        format!("multi_edge_cuts(k={})", self.burst_size)
    }

    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload {
        let id = self.id();
        let mut rng = scenario_rng(&id, seed);
        let mut shadow = ShadowOracle::new(base);
        let mut out = Vec::with_capacity(events);
        while out.len() + 2 <= events {
            let burst = self.pick_burst(&shadow, &mut rng);
            if burst.is_empty() {
                break;
            }
            let failures = WorkloadEvent::Burst {
                events: burst.iter().map(|&(u, v)| WorkloadEvent::DeleteEdge { u, v }).collect(),
            };
            failures.apply_to_oracle(&mut shadow).expect("picked edges are live");
            let replenish: Vec<WorkloadEvent> = (0..burst.len())
                .map_while(|_| {
                    let event = random_insert_event(shadow.graph(), self.max_weight, &mut rng)?;
                    event.apply_to_oracle(&mut shadow).expect("absent pair is insertable");
                    Some(event)
                })
                .collect();
            out.push(failures);
            if !replenish.is_empty() {
                out.push(WorkloadEvent::Burst { events: replenish });
            }
        }
        finish(id, seed, base, out)
    }
}

// ---------------------------------------------------------------------------
// 4. Weight drift on hot edges
// ---------------------------------------------------------------------------

/// Weight-only dynamics: a "hot" subset of edges (biased towards the current
/// tree, where changes actually matter) performs a multiplicative random
/// walk. Exercises weight-change cuts and links — tree re-justifications
/// and swaps — without any topology change.
#[derive(Debug, Clone, Copy)]
pub struct WeightDrift {
    /// Fraction of edges in the hot set (clamped to at least one edge).
    pub hot_fraction: f64,
    /// Per-event multiplicative step: weights move by a factor in
    /// `[1/(1+drift), 1+drift]`.
    pub drift: f64,
    /// Weights are clamped to `[1, max_weight]`.
    pub max_weight: Weight,
}

impl Default for WeightDrift {
    fn default() -> Self {
        WeightDrift { hot_fraction: 0.2, drift: 0.8, max_weight: 1_000 }
    }
}

impl Scenario for WeightDrift {
    fn id(&self) -> String {
        format!("weight_drift({:.2})", self.hot_fraction)
    }

    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload {
        let id = self.id();
        let mut rng = scenario_rng(&id, seed);
        let mut shadow = base.clone();
        if shadow.edge_count() == 0 {
            // An edgeless network has nothing to drift.
            return finish(id, seed, base, Vec::new());
        }
        // Hot set: all tree edges first, then non-tree edges, up to the
        // requested fraction of m.
        let tree = kruskal(&shadow);
        let mut hot: Vec<EdgeId> = shadow.live_edges().filter(|&e| tree.contains(e)).collect();
        let non_tree: Vec<EdgeId> = shadow.live_edges().filter(|&e| !tree.contains(e)).collect();
        let target = ((shadow.edge_count() as f64 * self.hot_fraction) as usize).max(1);
        for &e in &non_tree {
            if hot.len() >= target {
                break;
            }
            hot.push(e);
        }
        hot.truncate(target.max(1));
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            let e = hot[rng.gen_range(0..hot.len())];
            let edge = *shadow.edge(e);
            let factor = 1.0 + rng.gen_range(0.0..self.drift.max(0.01));
            let up = rng.gen_bool(0.5);
            let new_weight = if up {
                ((edge.weight as f64 * factor) as Weight).clamp(1, self.max_weight)
            } else {
                ((edge.weight as f64 / factor) as Weight).clamp(1, self.max_weight)
            };
            let event = WorkloadEvent::ChangeWeight { u: edge.u, v: edge.v, weight: new_weight };
            event.apply_to_graph(&mut shadow).expect("hot edges stay live");
            out.push(event);
        }
        finish(id, seed, base, out)
    }
}

// ---------------------------------------------------------------------------
// 5. Mixed phases
// ---------------------------------------------------------------------------

/// Sequential composition: each phase's generator runs against the graph as
/// the previous phases left it, modelling e.g. *steady churn → partition →
/// heal → weight turbulence* lifecycles. This is the "composable" in
/// composable scenario generators — any [`Scenario`] can be a phase.
pub struct MixedPhases {
    /// The phases: a scenario and its share of the event budget.
    pub phases: Vec<(Box<dyn Scenario>, usize)>,
}

impl MixedPhases {
    /// A ready-made lifecycle: churn, then partition-and-heal, then weight
    /// drift, splitting the event budget 2:1:1.
    pub fn standard(max_weight: Weight) -> Self {
        MixedPhases {
            phases: vec![
                (Box::new(PoissonChurn { delete_fraction: 0.5, max_weight }), 2),
                (Box::new(PartitionHeal { max_weight }), 1),
                (Box::new(WeightDrift { max_weight, ..WeightDrift::default() }), 1),
            ],
        }
    }
}

impl Scenario for MixedPhases {
    fn id(&self) -> String {
        let parts: Vec<String> = self.phases.iter().map(|(s, _)| s.id()).collect();
        format!("mixed[{}]", parts.join(";"))
    }

    fn generate(&self, base: &Graph, events: usize, seed: u64) -> Workload {
        let id = self.id();
        let total_shares: usize = self.phases.iter().map(|(_, share)| *share).sum();
        let mut shadow = base.clone();
        let mut out = Vec::with_capacity(events);
        for (i, (scenario, share)) in self.phases.iter().enumerate() {
            let budget = (events * share).checked_div(total_shares).unwrap_or(0);
            let phase = scenario.generate(&shadow, budget, seed.wrapping_add(i as u64));
            for event in &phase.events {
                event.apply_to_graph(&mut shadow).expect("phase generators emit applicable events");
            }
            out.extend(phase.events);
        }
        let mut w = finish(id, seed, base, out);
        w.name = "mixed_lifecycle".to_string();
        w
    }
}

/// The standard scenario battery the experiment suite sweeps: one instance
/// of each generator family with default tuning.
pub fn standard_suite(max_weight: Weight) -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(PoissonChurn { delete_fraction: 0.5, max_weight }),
        Box::new(AdversarialTreeCut { max_weight }),
        Box::new(PartitionHeal { max_weight }),
        Box::new(WeightDrift { max_weight, ..WeightDrift::default() }),
        Box::new(MixedPhases::standard(max_weight)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_graphs::generators;

    fn base(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::connected_gnp(24, 0.25, 500, &mut rng)
    }

    #[test]
    fn bridge_flags_match_naive_connectivity_probe() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Sparse graphs (and one ring, one tree) so real bridges occur.
            let g = match seed % 3 {
                0 => generators::connected_gnp(18, 0.06, 50, &mut rng),
                1 => generators::random_tree(15, 50, &mut rng),
                _ => generators::ring(12, 50, &mut rng),
            };
            let flags = bridge_flags(&g);
            for e in g.live_edges() {
                let edge = *g.edge(e);
                let mut probe = g.clone();
                probe.remove_edge(edge.u, edge.v);
                let naive = probe.component_count() > g.component_count();
                assert_eq!(
                    flags[e.0], naive,
                    "seed {seed}: edge ({}, {}) bridge flag mismatch",
                    edge.u, edge.v
                );
            }
        }
    }

    #[test]
    fn all_standard_scenarios_generate_valid_traces() {
        let g = base(1);
        for scenario in standard_suite(500) {
            let w = scenario.generate(&g, 20, 42);
            assert!(!w.is_empty(), "{} generated nothing", scenario.id());
            let stats = w.validate(&g).unwrap_or_else(|e| panic!("{}: {e}", scenario.id()));
            assert!(stats.deletions + stats.insertions + stats.weight_changes > 0);
        }
    }

    #[test]
    fn poisson_churn_keeps_the_network_connected() {
        let g = base(2);
        let w = PoissonChurn::default().generate(&g, 40, 7);
        let stats = w.validate(&g).unwrap();
        assert_eq!(stats.max_components, 1);
        assert!(stats.deletions > 0 && stats.insertions > 0);
    }

    #[test]
    fn adversarial_deletions_hit_tree_edges() {
        let g = base(3);
        let w = AdversarialTreeCut::default().generate(&g, 30, 11);
        let stats = w.validate(&g).unwrap();
        assert!(stats.deletions > 0);
        // The satellite acceptance bar is ≥ half; this generator targets the
        // tree by construction, so every deletion hits it.
        assert_eq!(stats.tree_edge_deletions, stats.deletions);
        assert_eq!(stats.max_components, 1);
    }

    #[test]
    fn partition_heal_disconnects_and_restores() {
        let g = base(4);
        let w = PartitionHeal::default().generate(&g, 6, 13);
        let stats = w.validate(&g).unwrap();
        assert!(stats.bursts >= 2);
        assert!(stats.max_components > 1, "the partition must actually disconnect");
        assert_eq!(stats.final_edges, g.edge_count(), "healing restores every link");
    }

    #[test]
    fn multi_edge_cuts_severs_independent_tree_edges_and_stays_connected() {
        let g = base(8);
        for k in [1usize, 4, 8] {
            let scenario = MultiEdgeCuts { burst_size: k, max_weight: 500 };
            let w = scenario.generate(&g, 6, 23);
            let stats = w.validate(&g).unwrap();
            assert!(stats.bursts >= 2, "k={k}: failure + replenish bursts");
            assert!(stats.deletions > 0);
            assert_eq!(
                stats.tree_edge_deletions, stats.deletions,
                "k={k}: every severed edge is a current-tree edge"
            );
            assert_eq!(stats.max_components, 1, "k={k}: the network never partitions");
            // Failure bursts carry exactly k deletions (the base graph is
            // dense enough for a full pick at these sizes).
            let delete_bursts: Vec<usize> = w
                .events
                .iter()
                .filter_map(|e| match e {
                    WorkloadEvent::Burst { events }
                        if matches!(events[0], WorkloadEvent::DeleteEdge { .. }) =>
                    {
                        Some(events.len())
                    }
                    _ => None,
                })
                .collect();
            assert!(!delete_bursts.is_empty());
            assert!(delete_bursts.iter().all(|&len| len == k), "k={k}: {delete_bursts:?}");
        }
    }

    /// The burst pick with a full connectivity probe: a copy of the graph,
    /// cut edge by edge, and a component count per candidate.
    fn probed_pick_burst(k: usize, g: &Graph, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
        let tree = kruskal(g);
        let mut candidates: Vec<EdgeId> = g.live_edges().filter(|&e| tree.contains(e)).collect();
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.gen_range(0..=i));
        }
        let mut probe = g.clone();
        let mut touched = vec![false; g.node_count()];
        let mut picked = Vec::new();
        for disjoint_only in [true, false] {
            for &e in &candidates {
                if picked.len() == k {
                    return picked;
                }
                let edge = *g.edge(e);
                if probe.edge_between(edge.u, edge.v).is_none()
                    || (disjoint_only && (touched[edge.u] || touched[edge.v]))
                {
                    continue;
                }
                probe.remove_edge(edge.u, edge.v);
                if probe.component_count() > 1 {
                    probe.add_edge(edge.u, edge.v, edge.weight);
                    continue;
                }
                touched[edge.u] = true;
                touched[edge.v] = true;
                picked.push((edge.u, edge.v));
            }
        }
        picked
    }

    #[test]
    fn burst_picks_match_a_full_connectivity_probe() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Sparse graphs, so that bridges and cut pairs reject candidates,
            // and one disconnected graph, where every candidate fails.
            let mut g = match seed % 4 {
                0 => generators::connected_gnp(18, 0.12, 50, &mut rng),
                1 => generators::connected_with_edges(24, 30, 50, &mut rng),
                2 => generators::ring(14, 50, &mut rng),
                _ => generators::connected_gnp(16, 0.3, 50, &mut rng),
            };
            if seed == 3 {
                let e = *g.edge(g.incident(0).next().unwrap());
                for f in g.incident(e.v).collect::<Vec<_>>() {
                    let f = *g.edge(f);
                    g.remove_edge(f.u, f.v);
                }
            }
            let shadow = ShadowOracle::new(&g);
            for k in [1, 3, 8] {
                let scenario = MultiEdgeCuts { burst_size: k, max_weight: 50 };
                let mut a = StdRng::seed_from_u64(seed + 100);
                let mut b = a.clone();
                let picked = scenario.pick_burst(&shadow, &mut a);
                assert_eq!(picked, probed_pick_burst(k, &g, &mut b), "seed {seed}, k = {k}");
                assert_eq!(a, b, "seed {seed}, k = {k}: the same coins are drawn");
            }
        }
    }

    #[test]
    fn multi_edge_cuts_is_deterministic_per_seed() {
        let g = base(9);
        let scenario = MultiEdgeCuts::default();
        let a = scenario.generate(&g, 8, 77);
        let b = scenario.generate(&g, 8, 77);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = scenario.generate(&g, 8, 78);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn generators_stay_well_defined_on_the_tree_only_rung() {
        // The m = n - 1 boundary: every live edge is a bridge and the
        // non-tree pool is empty, so deletion samplers must bail (not spin)
        // and fall through to insertions. Every standard family must
        // terminate and emit an applicable trace.
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::random_tree(20, 400, &mut rng);
        for scenario in standard_suite(400) {
            let w = scenario.generate(&g, 12, 5);
            let stats = w.validate(&g).unwrap_or_else(|e| panic!("{}: {e}", scenario.id()));
            assert!(
                stats.deletions + stats.insertions + stats.weight_changes > 0,
                "{}: a tree-only base still admits events",
                scenario.id()
            );
        }
        // The adversary specifically: with no severable tree edge, every
        // event falls back to replenishment until cycles exist, after which
        // cuts resume — the trace must use its budget, not skip events.
        let w = AdversarialTreeCut { max_weight: 400 }.generate(&g, 12, 5);
        let stats = w.validate(&g).unwrap();
        assert_eq!(w.len(), 12, "fallbacks spend the whole event budget");
        assert!(stats.insertions > 0, "the tree-only rung forces replenishment first");
        assert!(stats.deletions > 0, "inserted cycles re-arm the adversary");
        // Poisson churn starts with insertions for the same reason.
        let w = PoissonChurn { delete_fraction: 1.0, max_weight: 400 }.generate(&g, 6, 7);
        let stats = w.validate(&g).unwrap();
        assert!(stats.insertions > 0);
        assert_eq!(stats.max_components, 1);
    }

    #[test]
    fn generators_stay_well_defined_on_the_complete_rung() {
        // The m = n(n-1)/2 boundary: the absent pool is empty, so insertion
        // samplers must bail deterministically and fall through to
        // deletions/cuts.
        let mut rng = StdRng::seed_from_u64(32);
        let g = generators::complete(14, 300, &mut rng);
        for scenario in standard_suite(300) {
            let w = scenario.generate(&g, 10, 9);
            assert!(!w.is_empty(), "{} generated nothing on K_n", scenario.id());
            w.validate(&g).unwrap_or_else(|e| panic!("{}: {e}", scenario.id()));
        }
        // The adversary's replenish steps fall back to tree cuts on K_n.
        let w = AdversarialTreeCut { max_weight: 300 }.generate(&g, 9, 11);
        let stats = w.validate(&g).unwrap();
        assert!(stats.deletions >= w.len() - stats.insertions);
        assert!(stats.deletions > 0);
    }

    #[test]
    fn absent_pair_sampling_is_exact_near_complete() {
        // Complete minus one pair: rejection would average n²/2 draws per
        // hit; the dense fallback must find the unique absent pair at once.
        let mut rng = StdRng::seed_from_u64(33);
        let mut g = generators::complete(12, 100, &mut rng);
        g.remove_edge(3, 7).unwrap();
        let w = PoissonChurn { delete_fraction: 0.0, max_weight: 100 }.generate(&g, 1, 13);
        assert_eq!(w.len(), 1);
        match w.events[0] {
            WorkloadEvent::InsertEdge { u, v, .. } => {
                assert_eq!((u.min(v), u.max(v)), (3, 7), "the unique absent pair");
            }
            ref other => panic!("expected an insert, got {other:?}"),
        }
    }

    #[test]
    fn partition_bursts_respect_density() {
        // At m/n = 4 the historical quarter region (and its ~O(n) boundary)
        // is preserved; on dense graphs the region shrinks so the burst
        // stays O(n) boundary edges instead of Θ(m).
        let mut rng = StdRng::seed_from_u64(34);
        let n = 32;
        let sparse = generators::connected_with_edges(n, 4 * n, 200, &mut rng);
        let dense = generators::connected_dense(n, n * (n - 1) / 2, 200, &mut rng);
        for (g, label) in [(&sparse, "sparse"), (&dense, "dense")] {
            let w = PartitionHeal { max_weight: 200 }.generate(g, 6, 17);
            let stats = w.validate(g).unwrap();
            assert!(stats.bursts >= 2, "{label}");
            assert!(stats.max_components > 1, "{label}: the partition must disconnect");
            let largest_burst = w
                .events
                .iter()
                .map(WorkloadEvent::primitive_count)
                .max()
                .expect("trace is non-empty");
            assert!(
                largest_burst <= 3 * n,
                "{label}: burst of {largest_burst} primitives on n = {n} is not O(n)"
            );
        }
        // The dense graph's quarter-region boundary would be Θ(m) ≈ n²/4
        // edges (~8n here); the density-aware region keeps it under 3n.
    }

    #[test]
    fn weight_drift_only_changes_weights() {
        let g = base(5);
        let w = WeightDrift::default().generate(&g, 25, 17);
        let stats = w.validate(&g).unwrap();
        assert_eq!(stats.deletions, 0);
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.weight_changes, 25);
    }

    #[test]
    fn mixed_phases_compose() {
        let g = base(6);
        let w = MixedPhases::standard(500).generate(&g, 24, 19);
        let stats = w.validate(&g).unwrap();
        assert!(stats.weight_changes > 0, "drift phase contributes");
        assert!(stats.deletions > 0, "churn phase contributes");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = base(7);
        for scenario in standard_suite(500) {
            let a = scenario.generate(&g, 15, 1234);
            let b = scenario.generate(&g, 15, 1234);
            assert_eq!(a, b, "{} must be deterministic", scenario.id());
            assert_eq!(a.fingerprint(), b.fingerprint());
            let c = scenario.generate(&g, 15, 4321);
            assert_ne!(a.events, c.events, "{} must vary with the seed", scenario.id());
        }
    }
}
