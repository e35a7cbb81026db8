//! Sequential reference algorithms for minimum spanning forests.
//!
//! These are the *oracles* against which the distributed algorithms are
//! verified: Kruskal and Prim over the distinct [`UniqueWeight`] order, plus
//! verification helpers that check a claimed forest is (a) a spanning forest
//! and (b) minimum.

use std::collections::BTreeSet;

use crate::edge::{EdgeId, UniqueWeight};
use crate::graph::{Graph, NodeId};
use crate::union_find::UnionFind;

/// A spanning forest: one tree per connected component of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningForest {
    /// The selected edges, sorted by [`EdgeId`] for canonical comparison.
    pub edges: Vec<EdgeId>,
}

impl SpanningForest {
    /// Builds a forest from an unordered edge set.
    pub fn from_edges(mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        SpanningForest { edges }
    }

    /// Total raw weight of the forest.
    pub fn total_weight(&self, g: &Graph) -> u128 {
        self.edges.iter().map(|&e| g.edge(e).weight as u128).sum()
    }

    /// Membership test.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }
}

/// Kruskal's algorithm over the distinct unique-weight order.
///
/// Returns a minimum spanning forest (one tree per component). Because all
/// [`UniqueWeight`]s are distinct, the MSF is unique, which is what makes
/// per-edge comparison against the distributed output meaningful.
pub fn kruskal(g: &Graph) -> SpanningForest {
    let mut edges: Vec<(UniqueWeight, EdgeId)> =
        g.live_edges().map(|e| (g.unique_weight(e), e)).collect();
    edges.sort_unstable();
    let mut uf = UnionFind::new(g.node_count());
    let mut chosen = Vec::new();
    for (_, e) in edges {
        let edge = g.edge(e);
        if uf.union(edge.u, edge.v) {
            chosen.push(e);
        }
    }
    SpanningForest::from_edges(chosen)
}

/// Prim's algorithm (lazy, binary-heap based) over the unique-weight order,
/// run from every not-yet-covered node so disconnected graphs yield a forest.
pub fn prim(g: &Graph) -> SpanningForest {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = g.node_count();
    let mut in_tree = vec![false; n];
    let mut chosen = Vec::new();
    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        in_tree[start] = true;
        let mut heap: BinaryHeap<Reverse<(UniqueWeight, EdgeId, NodeId)>> = BinaryHeap::new();
        for e in g.incident(start) {
            heap.push(Reverse((g.unique_weight(e), e, g.edge(e).other(start))));
        }
        while let Some(Reverse((_, e, to))) = heap.pop() {
            if in_tree[to] {
                continue;
            }
            in_tree[to] = true;
            chosen.push(e);
            for e2 in g.incident(to) {
                let other = g.edge(e2).other(to);
                if !in_tree[other] {
                    heap.push(Reverse((g.unique_weight(e2), e2, other)));
                }
            }
        }
    }
    SpanningForest::from_edges(chosen)
}

/// Checks that `forest` is a spanning forest of `g`: acyclic, uses only live
/// edges, and connects exactly the connected components of `g`.
pub fn verify_spanning_forest(g: &Graph, forest: &SpanningForest) -> Result<(), String> {
    let mut uf = UnionFind::new(g.node_count());
    let mut seen = BTreeSet::new();
    for &e in &forest.edges {
        if !seen.insert(e) {
            return Err(format!("edge {e} appears twice"));
        }
        if !g.is_live(e) {
            return Err(format!("edge {e} is not a live edge of the graph"));
        }
        let edge = g.edge(e);
        if !uf.union(edge.u, edge.v) {
            return Err(format!("edge {e} closes a cycle"));
        }
    }
    let expected_components = g.component_count();
    if uf.component_count() != expected_components {
        return Err(format!(
            "forest leaves {} components but the graph has {}",
            uf.component_count(),
            expected_components
        ));
    }
    Ok(())
}

/// Checks that `forest` is *the* minimum spanning forest of `g` under the
/// unique-weight order (which is unique because unique weights are distinct).
pub fn verify_mst(g: &Graph, forest: &SpanningForest) -> Result<(), String> {
    verify_spanning_forest(g, forest)?;
    let reference = kruskal(g);
    if reference.edges != forest.edges {
        let extra: Vec<_> = forest.edges.iter().filter(|e| !reference.contains(**e)).collect();
        return Err(format!(
            "forest is spanning but not minimum; {} edges differ from Kruskal (e.g. {:?})",
            extra.len(),
            extra.first()
        ));
    }
    Ok(())
}

/// The (unique) minimum-weight live edge crossing the cut `(S, V\S)`, if any.
/// `side[x]` is true iff `x ∈ S`.
pub fn min_cut_edge(g: &Graph, side: &[bool]) -> Option<EdgeId> {
    g.cut_iter(side).min_by_key(|&e| g.unique_weight(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diamond() -> Graph {
        // 0-1 (1), 1-3 (2), 0-2 (3), 2-3 (4), 0-3 (10)
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 3, 2);
        g.add_edge(0, 2, 3);
        g.add_edge(2, 3, 4);
        g.add_edge(0, 3, 10);
        g
    }

    #[test]
    fn kruskal_picks_light_edges() {
        let g = diamond();
        let f = kruskal(&g);
        assert_eq!(f.edges.len(), 3);
        assert_eq!(f.total_weight(&g), 1 + 2 + 3);
        verify_mst(&g, &f).unwrap();
    }

    #[test]
    fn prim_matches_kruskal_on_fixed_graph() {
        let g = diamond();
        assert_eq!(prim(&g), kruskal(&g));
    }

    #[test]
    fn prim_matches_kruskal_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2usize, 5, 16, 33, 64] {
            let g = generators::connected_gnp(n, 0.2, 50, &mut rng);
            let k = kruskal(&g);
            let p = prim(&g);
            assert_eq!(k, p, "n={n}");
            verify_mst(&g, &k).unwrap();
        }
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(0, 2, 3);
        g.add_edge(3, 4, 1);
        let f = kruskal(&g);
        assert_eq!(f.edges.len(), 3); // 2 in the triangle component, 1 in the pair
        verify_mst(&g, &f).unwrap();
        assert_eq!(prim(&g), f);
    }

    #[test]
    fn verify_rejects_cycle() {
        let g = diamond();
        let all: Vec<EdgeId> = g.live_edges().collect();
        let bogus = SpanningForest::from_edges(all);
        assert!(verify_spanning_forest(&g, &bogus).is_err());
    }

    #[test]
    fn verify_rejects_disconnected_claim() {
        let g = diamond();
        let one_edge = SpanningForest::from_edges(vec![g.edge_between(0, 1).unwrap()]);
        assert!(verify_spanning_forest(&g, &one_edge).is_err());
    }

    #[test]
    fn verify_rejects_non_minimum_spanning_tree() {
        let g = diamond();
        // A valid spanning tree that is not minimum: {0-3 (10), 0-1 (1), 0-2 (3)}.
        let st = SpanningForest::from_edges(vec![
            g.edge_between(0, 3).unwrap(),
            g.edge_between(0, 1).unwrap(),
            g.edge_between(0, 2).unwrap(),
        ]);
        verify_spanning_forest(&g, &st).unwrap();
        assert!(verify_mst(&g, &st).is_err());
    }

    #[test]
    fn verify_rejects_dead_edge() {
        let mut g = diamond();
        let f = kruskal(&g);
        g.remove_edge(0, 1);
        assert!(verify_spanning_forest(&g, &f).is_err());
    }

    #[test]
    fn min_cut_edge_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::connected_gnp(20, 0.3, 1000, &mut rng);
        let side: Vec<bool> = (0..20).map(|i| i % 3 == 0).collect();
        let expected = g.cut(&side).into_iter().min_by_key(|&e| g.unique_weight(e));
        assert_eq!(min_cut_edge(&g, &side), expected);
    }
}
