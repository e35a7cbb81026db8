//! Synthetic workload graphs.
//!
//! The paper has no empirical section, so the workloads here are chosen to
//! exercise the regimes its theory distinguishes: sparse vs dense (the `o(m)`
//! claim only bites when `m ≫ n·polylog n`), structured vs random, weighted vs
//! unweighted, and dynamic update streams for the impromptu-repair algorithms.
//!
//! All generators are deterministic given the `rng` they are handed; the
//! experiment harness seeds them explicitly so every table is reproducible.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::edge::Weight;
use crate::graph::{Graph, NodeId};

/// Assigns every edge an independent uniform weight in `[1, max_weight]`.
fn random_weight<R: Rng>(max_weight: Weight, rng: &mut R) -> Weight {
    if max_weight <= 1 {
        1
    } else {
        rng.gen_range(1..=max_weight)
    }
}

/// A uniformly random spanning tree skeleton over `n` nodes built by a random
/// attachment process (each node `i > 0` attaches to a uniformly random
/// earlier node). Guarantees connectivity with exactly `n - 1` edges.
pub fn random_tree<R: Rng>(n: usize, max_weight: Weight, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    let mut order: Vec<NodeId> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let parent = order[rng.gen_range(0..i)];
        g.add_edge(order[i], parent, random_weight(max_weight, rng));
    }
    g
}

/// Erdős–Rényi `G(n, p)` with i.i.d. uniform weights in `[1, max_weight]`.
/// May be disconnected.
pub fn gnp<R: Rng>(n: usize, p: f64, max_weight: Weight, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v, random_weight(max_weight, rng));
            }
        }
    }
    g
}

/// `G(n, p)` forced connected: a random tree skeleton is laid down first and
/// extra edges are added with probability `p`. This is the main workload of
/// the experiment suite (the construction theorems assume the MST/ST spans the
/// whole network only per component, but connected graphs make message-count
/// comparisons cleaner).
pub fn connected_gnp<R: Rng>(n: usize, p: f64, max_weight: Weight, rng: &mut R) -> Graph {
    let mut g = random_tree(n, max_weight, rng);
    for u in 0..n {
        for v in (u + 1)..n {
            if g.edge_between(u, v).is_none() && rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v, random_weight(max_weight, rng));
            }
        }
    }
    g
}

/// A connected graph with (approximately) a target number of edges `m`,
/// built as a random tree plus `m - (n-1)` uniformly random extra edges.
/// Used for the density sweeps (experiment E8).
pub fn connected_with_edges<R: Rng>(n: usize, m: usize, max_weight: Weight, rng: &mut R) -> Graph {
    let mut g = random_tree(n, max_weight, rng);
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    let mut attempts = 0usize;
    let attempt_cap = target.saturating_mul(20) + 1000;
    while g.edge_count() < target && attempts < attempt_cap {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            g.add_edge(u, v, random_weight(max_weight, rng));
        }
    }
    g
}

/// A connected graph with *exactly* `min(m, n(n-1)/2)` edges, built as a
/// random tree plus a uniform sample (without replacement) of the absent
/// pairs. This is the dense-regime builder: [`connected_with_edges`] fills by
/// rejection, whose hit rate collapses as the graph approaches complete (at
/// `m = n(n-1)/2` it degenerates into a coupon collector), while this one
/// enumerates the `O(n²)` absent pairs once and partial-Fisher–Yates-samples
/// the extras — the same distribution, exact edge counts, bounded work at
/// every density rung up to `K_n`. Used by the dynamic density sweeps
/// (`m/n ∈ {2 … n/2}`, experiment E13).
pub fn connected_dense<R: Rng>(n: usize, m: usize, max_weight: Weight, rng: &mut R) -> Graph {
    let mut g = random_tree(n, max_weight, rng);
    let max_edges = if n < 2 { 0 } else { n * (n - 1) / 2 };
    let target = m.min(max_edges);
    if target <= g.edge_count() {
        return g;
    }
    let mut absent: Vec<(NodeId, NodeId)> = Vec::with_capacity(max_edges - g.edge_count());
    for u in 0..n {
        for v in (u + 1)..n {
            if g.edge_between(u, v).is_none() {
                absent.push((u, v));
            }
        }
    }
    let extra = target - g.edge_count();
    for i in 0..extra {
        let j = rng.gen_range(i..absent.len());
        absent.swap(i, j);
        let (u, v) = absent[i];
        g.add_edge(u, v, random_weight(max_weight, rng));
    }
    g
}

/// The complete graph `K_n` with i.i.d. uniform weights — the densest regime,
/// `m = n(n-1)/2`, where the folk-theorem Ω(m) cost is most expensive.
pub fn complete<R: Rng>(n: usize, max_weight: Weight, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, random_weight(max_weight, rng));
        }
    }
    g
}

/// A cycle over `n ≥ 3` nodes — the sparsest 2-edge-connected graph; every
/// tree-edge deletion has exactly one replacement edge, making it the
/// worst case "needle in a haystack" for `FindAny`/`FindMin`.
pub fn ring<R: Rng>(n: usize, max_weight: Weight, rng: &mut R) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n, random_weight(max_weight, rng));
    }
    g
}

/// A `rows × cols` grid (torus = false) or torus (torus = true).
pub fn grid<R: Rng>(
    rows: usize,
    cols: usize,
    torus: bool,
    max_weight: Weight,
    rng: &mut R,
) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let idx = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols || (torus && cols > 2) {
                g.add_edge(idx(r, c), idx(r, (c + 1) % cols), random_weight(max_weight, rng));
            }
            if r + 1 < rows || (torus && rows > 2) {
                g.add_edge(idx(r, c), idx((r + 1) % rows, c), random_weight(max_weight, rng));
            }
        }
    }
    g
}

/// Barabási–Albert style preferential attachment: each new node attaches to
/// `k` existing nodes chosen proportionally to degree. Produces the heavy-tail
/// degree distributions typical of real communication networks.
pub fn preferential_attachment<R: Rng>(
    n: usize,
    k: usize,
    max_weight: Weight,
    rng: &mut R,
) -> Graph {
    assert!(n >= 2 && k >= 1, "need n >= 2 and k >= 1");
    let mut g = Graph::new(n);
    // Endpoint pool: each node appears once per incident edge, so sampling
    // uniformly from the pool is sampling proportionally to degree.
    let mut pool: Vec<NodeId> = Vec::new();
    g.add_edge(0, 1, random_weight(max_weight, rng));
    pool.extend_from_slice(&[0, 1]);
    for v in 2..n {
        let mut attached = 0usize;
        let mut guard = 0usize;
        while attached < k.min(v) && guard < 50 * k + 50 {
            guard += 1;
            let target = pool[rng.gen_range(0..pool.len())];
            if target != v && g.add_edge(v, target, random_weight(max_weight, rng)).is_some() {
                pool.push(v);
                pool.push(target);
                attached += 1;
            }
        }
        if attached == 0 {
            // Degenerate fallback keeps the graph connected.
            let target = rng.gen_range(0..v);
            g.add_edge(v, target, random_weight(max_weight, rng));
            pool.push(v);
            pool.push(target);
        }
    }
    g
}

/// Random geometric graph on the unit square: nodes connect when within
/// `radius`. A random tree skeleton keeps it connected.
pub fn geometric<R: Rng>(n: usize, radius: f64, max_weight: Weight, rng: &mut R) -> Graph {
    let points: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let mut g = random_tree(n, max_weight, rng);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = points[u].0 - points[v].0;
            let dy = points[u].1 - points[v].1;
            if dx * dx + dy * dy <= r2 {
                g.add_edge(u, v, random_weight(max_weight, rng));
            }
        }
    }
    g
}

/// A dynamic-update stream over a graph: the workload for the impromptu
/// repair experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Update {
    /// Delete the (currently live) edge `{u, v}`.
    Delete { u: NodeId, v: NodeId },
    /// Insert a new edge `{u, v}` with the given weight.
    Insert { u: NodeId, v: NodeId, weight: Weight },
    /// Change the weight of live edge `{u, v}` to `weight`. Whether it went
    /// up or down is read against the current weight when it is applied.
    ChangeWeight { u: NodeId, v: NodeId, weight: Weight },
}

/// Generates a stream of `count` random updates against (an evolving copy of)
/// `g`, alternating deletions of random live edges and insertions of random
/// absent edges, so the graph's density stays roughly constant. Deletions are
/// biased (probability `tree_bias`) towards current-MST edges because those
/// are the interesting case for repair.
pub fn random_update_stream<R: Rng>(
    g: &Graph,
    count: usize,
    max_weight: Weight,
    tree_bias: f64,
    rng: &mut R,
) -> Vec<Update> {
    let mut shadow = g.clone();
    let mut updates = Vec::with_capacity(count);
    for step in 0..count {
        let delete = step % 2 == 0;
        if delete && shadow.edge_count() > shadow.node_count() {
            let forest = crate::mst::kruskal(&shadow);
            let from_tree = rng.gen_bool(tree_bias.clamp(0.0, 1.0));
            let candidates: Vec<_> =
                shadow.live_edges().filter(|&e| forest.contains(e) == from_tree).collect();
            let pool: Vec<_> =
                if candidates.is_empty() { shadow.live_edges().collect() } else { candidates };
            let e = pool[rng.gen_range(0..pool.len())];
            let edge = *shadow.edge(e);
            shadow.remove_edge(edge.u, edge.v);
            updates.push(Update::Delete { u: edge.u, v: edge.v });
        } else {
            // Insert a uniformly random absent edge.
            let n = shadow.node_count();
            let mut placed = false;
            for _ in 0..200 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && shadow.edge_between(u, v).is_none() {
                    let w = random_weight(max_weight, rng);
                    shadow.add_edge(u, v, w);
                    updates.push(Update::Insert { u, v, weight: w });
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Graph is (nearly) complete: fall back to a weight change.
                let edges: Vec<_> = shadow.live_edges().collect();
                let e = edges[rng.gen_range(0..edges.len())];
                let edge = *shadow.edge(e);
                let w = random_weight(max_weight, rng);
                shadow.set_weight(edge.u, edge.v, w);
                updates.push(Update::ChangeWeight { u: edge.u, v: edge.v, weight: w });
            }
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut r = rng();
        for n in [1usize, 2, 3, 10, 100] {
            let g = random_tree(n, 100, &mut r);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(g.is_connected(), "n={n}");
        }
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut r = rng();
        for n in [2usize, 10, 64] {
            let g = connected_gnp(n, 0.05, 10, &mut r);
            assert!(g.is_connected());
            assert!(g.edge_count() >= n - 1);
        }
    }

    #[test]
    fn gnp_edge_count_is_plausible() {
        let mut r = rng();
        let n = 100;
        let g = gnp(n, 0.5, 10, &mut r);
        let expected = (n * (n - 1) / 2) as f64 * 0.5;
        let got = g.edge_count() as f64;
        assert!((got - expected).abs() < expected * 0.2, "got {got}, expected ~{expected}");
        assert_eq!(gnp(n, 0.0, 10, &mut r).edge_count(), 0);
    }

    #[test]
    fn complete_graph_has_all_edges() {
        let mut r = rng();
        let g = complete(8, 50, &mut r);
        assert_eq!(g.edge_count(), 8 * 7 / 2);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_has_n_edges_and_degree_two() {
        let mut r = rng();
        let g = ring(12, 5, &mut r);
        assert_eq!(g.edge_count(), 12);
        for x in g.nodes() {
            assert_eq!(g.degree(x), 2);
        }
    }

    #[test]
    #[should_panic]
    fn ring_rejects_tiny_n() {
        ring(2, 1, &mut rng());
    }

    #[test]
    fn grid_edge_counts() {
        let mut r = rng();
        let g = grid(4, 5, false, 3, &mut r);
        assert_eq!(g.node_count(), 20);
        // 4 rows × 4 horizontal per row + 3 vertical × 5 cols = 16 + 15
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert!(g.is_connected());
        let t = grid(4, 5, true, 3, &mut r);
        assert_eq!(t.edge_count(), 2 * 20);
    }

    #[test]
    fn connected_with_edges_hits_target_density() {
        let mut r = rng();
        let g = connected_with_edges(50, 300, 20, &mut r);
        assert!(g.is_connected());
        assert!(g.edge_count() >= 250, "got {}", g.edge_count());
        assert!(g.edge_count() <= 300);
    }

    #[test]
    fn connected_dense_hits_exact_density_at_every_rung() {
        let mut r = rng();
        let n = 40;
        let max_edges = n * (n - 1) / 2;
        // The E13 ladder: m/n ∈ {2, 4, 8, 16, n/8, n/2} (the last clamps to
        // complete), plus the tree-only floor and an over-complete request.
        for m in [n - 1, 2 * n, 4 * n, 8 * n, 16 * n, n * n / 8, n * n / 2, 10 * n * n] {
            let g = connected_dense(n, m, 100, &mut r);
            assert!(g.is_connected(), "m={m}");
            assert_eq!(g.edge_count(), m.clamp(n - 1, max_edges), "m={m}: exact edge count");
            for e in g.live_edges() {
                assert!((1..=100).contains(&g.edge(e).weight));
            }
        }
        // Degenerate sizes stay well-defined.
        assert_eq!(connected_dense(1, 5, 10, &mut r).edge_count(), 0);
        assert_eq!(connected_dense(2, 5, 10, &mut r).edge_count(), 1);
    }

    #[test]
    fn connected_dense_is_deterministic_per_seed() {
        let a = connected_dense(24, 24 * 12, 500, &mut StdRng::seed_from_u64(9));
        let b = connected_dense(24, 24 * 12, 500, &mut StdRng::seed_from_u64(9));
        let ea: Vec<_> = a.live_edges().map(|e| *a.edge(e)).collect();
        let eb: Vec<_> = b.live_edges().map(|e| *b.edge(e)).collect();
        assert_eq!(ea, eb);
        let c = connected_dense(24, 24 * 12, 500, &mut StdRng::seed_from_u64(10));
        let ec: Vec<_> = c.live_edges().map(|e| *c.edge(e)).collect();
        assert_ne!(ea, ec, "different seeds draw different graphs");
    }

    #[test]
    fn preferential_attachment_is_connected() {
        let mut r = rng();
        let g = preferential_attachment(64, 2, 9, &mut r);
        assert!(g.is_connected());
        assert!(g.edge_count() >= 63);
    }

    #[test]
    fn geometric_is_connected() {
        let mut r = rng();
        let g = geometric(40, 0.3, 7, &mut r);
        assert!(g.is_connected());
    }

    #[test]
    fn weights_respect_bounds() {
        let mut r = rng();
        let g = connected_gnp(30, 0.2, 17, &mut r);
        for e in g.live_edges() {
            let w = g.edge(e).weight;
            assert!((1..=17).contains(&w));
        }
        let g1 = connected_gnp(10, 0.5, 1, &mut r);
        for e in g1.live_edges() {
            assert_eq!(g1.edge(e).weight, 1);
        }
    }

    #[test]
    fn update_stream_is_applicable() {
        let mut r = rng();
        let g = connected_gnp(20, 0.3, 100, &mut r);
        let updates = random_update_stream(&g, 30, 100, 0.7, &mut r);
        assert_eq!(updates.len(), 30);
        // Replay the stream: every delete must hit a live edge, every insert a
        // missing one.
        let mut shadow = g.clone();
        for u in &updates {
            match *u {
                Update::Delete { u, v } => {
                    assert!(shadow.remove_edge(u, v).is_some());
                }
                Update::Insert { u, v, weight } => {
                    assert!(shadow.add_edge(u, v, weight).is_some());
                }
                Update::ChangeWeight { u, v, weight } => {
                    assert!(shadow.set_weight(u, v, weight).is_some());
                }
            }
        }
    }
}
