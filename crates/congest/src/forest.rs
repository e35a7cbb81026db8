//! The properly-marked forest maintained by the network.
//!
//! The paper's repair model: "a network is properly marked if every edge is
//! marked by both or neither of its endpoints; a tree `T` is maintained by a
//! network if the network is properly marked and `T` is a maximal tree in the
//! subgraph of marked edges." Between updates this marking is the *only*
//! extra state a node holds (that is what makes the repairs impromptu).
//!
//! # Data plane
//!
//! The marking is an [`EdgeId`]-indexed **bitset** plus a maintained
//! **per-node tree-adjacency table** (each node's marked incident edges with
//! their far endpoints). [`MarkedForest::is_marked`] — called for every
//! incident edge of every view build — is one bit probe;
//! [`MarkedForest::tree_edges_of`] and the tree walks (`tree_of`,
//! `fragment_representatives`) run over tree degrees instead of scanning
//! whole adjacency lists; mark/unmark are O(1)/O(tree-degree). The old
//! `BTreeSet<EdgeId>` paid `O(log marked)` per probe and `O(marked)` per
//! sweep. Iteration order (ascending [`EdgeId`]) is unchanged.

use kkt_graphs::{EdgeId, Graph, NodeId};

use crate::error::CongestError;

/// The set of marked (tree) edges, with helpers to navigate the induced
/// forest. Both endpoints of a marked edge see the mark — the structure is
/// symmetric by construction, so the network is always properly marked.
///
/// Marking needs the [`Graph`] (to learn the edge's endpoints for the
/// per-node table); every read keeps the old shape.
#[derive(Debug, Clone, Default)]
pub struct MarkedForest {
    /// Bit `e` set ⇔ edge `e` is marked. Indexed by raw [`EdgeId`].
    bits: Vec<u64>,
    /// Number of marked edges.
    len: usize,
    /// Per-node marked incident edges `(edge, far endpoint)`, in mark order.
    tree_adj: Vec<Vec<(EdgeId, NodeId)>>,
}

impl MarkedForest {
    /// An empty marking (every node is a singleton fragment).
    pub fn new() -> Self {
        Self::default()
    }

    fn set_bit(&mut self, e: EdgeId) -> bool {
        let (word, bit) = (e.0 / 64, e.0 % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let was = self.bits[word] & mask != 0;
        self.bits[word] |= mask;
        !was
    }

    fn clear_bit(&mut self, e: EdgeId) -> bool {
        let (word, bit) = (e.0 / 64, e.0 % 64);
        match self.bits.get_mut(word) {
            Some(w) => {
                let mask = 1u64 << bit;
                let was = *w & mask != 0;
                *w &= !mask;
                was
            }
            None => false,
        }
    }

    fn adj_mut(&mut self, x: NodeId) -> &mut Vec<(EdgeId, NodeId)> {
        if x >= self.tree_adj.len() {
            self.tree_adj.resize_with(x + 1, Vec::new);
        }
        &mut self.tree_adj[x]
    }

    fn adj(&self, x: NodeId) -> &[(EdgeId, NodeId)] {
        self.tree_adj.get(x).map_or(&[], Vec::as_slice)
    }

    /// Marks an edge. Returns `true` if it was not previously marked.
    pub fn mark(&mut self, g: &Graph, e: EdgeId) -> bool {
        if !self.set_bit(e) {
            return false;
        }
        self.len += 1;
        let edge = g.edge(e);
        self.adj_mut(edge.u).push((e, edge.v));
        self.adj_mut(edge.v).push((e, edge.u));
        true
    }

    /// Unmarks an edge. Returns `true` if it was previously marked.
    pub fn unmark(&mut self, g: &Graph, e: EdgeId) -> bool {
        if !self.clear_bit(e) {
            return false;
        }
        self.len -= 1;
        // The edge record survives tombstoning, so endpoints stay resolvable
        // even when the unmark follows a deletion.
        let edge = g.edge(e);
        for x in [edge.u, edge.v] {
            let list = self.adj_mut(x);
            let pos = list.iter().position(|&(m, _)| m == e).expect("marked edge is in the table");
            list.remove(pos);
        }
        true
    }

    /// Drops every mark in place, keeping the bitset and per-node table
    /// capacity (the rebuild replay policies clear once per event — an
    /// allocation here would be steady-state allocator traffic on the very
    /// path the flattened structures exist to keep quiet).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.len = 0;
        for list in &mut self.tree_adj {
            list.clear();
        }
    }

    /// Whether the edge is marked. One bit probe.
    pub fn is_marked(&self, e: EdgeId) -> bool {
        self.bits.get(e.0 / 64).is_some_and(|w| w & (1 << (e.0 % 64)) != 0)
    }

    /// Number of marked edges. O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no edges are marked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marked tree degree of `x`. O(1).
    pub fn tree_degree(&self, x: NodeId) -> usize {
        self.adj(x).len()
    }

    /// Iterator over the marked edges, in ascending [`EdgeId`] order (the
    /// same order the old ordered-set representation exposed).
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(EdgeId(word * 64 + bit))
            })
        })
    }

    /// The marked edges as a sorted vector (a snapshot).
    pub fn edges(&self) -> Vec<EdgeId> {
        self.iter().collect()
    }

    /// Marked edges incident to `x`, in mark order. O(tree-degree).
    pub fn tree_edges_of(&self, _g: &Graph, x: NodeId) -> Vec<EdgeId> {
        self.adj(x).iter().map(|&(e, _)| e).collect()
    }

    /// Tree neighbours of `x`, in mark order. O(tree-degree).
    pub fn tree_neighbors(&self, _g: &Graph, x: NodeId) -> Vec<NodeId> {
        self.adj(x).iter().map(|&(_, y)| y).collect()
    }

    /// The nodes of the marked tree containing `x` (BFS over the tree
    /// adjacency table — O(tree size · tree degree), independent of graph
    /// degree).
    pub fn tree_of(&self, g: &Graph, x: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; g.node_count()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen[x] = true;
        queue.push_back(x);
        while let Some(y) = queue.pop_front() {
            order.push(y);
            for &(_, z) in self.adj(y) {
                if !seen[z] {
                    seen[z] = true;
                    queue.push_back(z);
                }
            }
        }
        order
    }

    /// Membership vector of the marked tree containing `x` (`side[y]` is true
    /// iff `y ∈ T_x`) — the paper's `T_x`.
    pub fn tree_membership(&self, g: &Graph, x: NodeId) -> Vec<bool> {
        let mut side = vec![false; g.node_count()];
        for y in self.tree_of(g, x) {
            side[y] = true;
        }
        side
    }

    /// One representative node per marked tree (fragment), in ascending order.
    pub fn fragment_representatives(&self, g: &Graph) -> Vec<NodeId> {
        let mut seen = vec![false; g.node_count()];
        let mut reps = Vec::new();
        for x in g.nodes() {
            if !seen[x] {
                reps.push(x);
                for y in self.tree_of(g, x) {
                    seen[y] = true;
                }
            }
        }
        reps
    }

    /// Validates that the marked edges form a forest of live edges.
    pub fn validate(&self, g: &Graph) -> Result<(), CongestError> {
        let mut uf = kkt_graphs::UnionFind::new(g.node_count());
        for e in self.iter() {
            if !g.is_live(e) {
                return Err(CongestError::ImproperMarking(format!("marked edge {e} is not live")));
            }
            let edge = g.edge(e);
            if !uf.union(edge.u, edge.v) {
                return Err(CongestError::ImproperMarking(format!(
                    "marked edge {e} closes a cycle"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> (Graph, Vec<EdgeId>) {
        let mut g = Graph::new(5);
        let e01 = g.add_edge(0, 1, 1).unwrap();
        let e12 = g.add_edge(1, 2, 2).unwrap();
        let e34 = g.add_edge(3, 4, 3).unwrap();
        g.add_edge(0, 2, 9).unwrap();
        (g, vec![e01, e12, e34])
    }

    #[test]
    fn mark_unmark_roundtrip() {
        let (g, edges) = small();
        let mut f = MarkedForest::new();
        assert!(f.is_empty());
        assert!(f.mark(&g, edges[0]));
        assert!(!f.mark(&g, edges[0]), "double-mark is a no-op");
        assert!(f.is_marked(edges[0]));
        assert_eq!(f.len(), 1);
        assert_eq!(f.tree_degree(0), 1);
        assert!(f.unmark(&g, edges[0]));
        assert!(!f.unmark(&g, edges[0]));
        assert!(f.is_empty());
        assert_eq!(f.tree_degree(0), 0);
    }

    #[test]
    fn clear_drops_all_marks_in_place() {
        let (g, edges) = small();
        let mut f = MarkedForest::new();
        for e in &edges {
            f.mark(&g, *e);
        }
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        for e in &edges {
            assert!(!f.is_marked(*e));
        }
        for x in 0..5 {
            assert_eq!(f.tree_degree(x), 0);
        }
        // Re-marking after a clear behaves like a fresh forest.
        assert!(f.mark(&g, edges[0]));
        assert_eq!(f.edges(), vec![edges[0]]);
    }

    #[test]
    fn tree_of_follows_marked_edges_only() {
        let (g, edges) = small();
        let mut f = MarkedForest::new();
        for e in &edges {
            f.mark(&g, *e);
        }
        let t0: Vec<_> = f.tree_of(&g, 0);
        assert_eq!(t0.len(), 3);
        assert!(t0.contains(&2));
        assert!(!t0.contains(&3));
        let t3 = f.tree_of(&g, 3);
        assert_eq!(t3.len(), 2);
        let membership = f.tree_membership(&g, 0);
        assert_eq!(membership, vec![true, true, true, false, false]);
    }

    #[test]
    fn tree_neighbors_and_edges() {
        let (g, edges) = small();
        let mut f = MarkedForest::new();
        f.mark(&g, edges[0]);
        f.mark(&g, edges[1]);
        assert_eq!(f.tree_neighbors(&g, 1), vec![0, 2]);
        assert_eq!(f.tree_edges_of(&g, 1).len(), 2);
        assert_eq!(f.tree_neighbors(&g, 4), Vec::<NodeId>::new());
    }

    #[test]
    fn fragment_representatives_cover_all_nodes() {
        let (g, edges) = small();
        let mut f = MarkedForest::new();
        for e in &edges {
            f.mark(&g, *e);
        }
        let reps = f.fragment_representatives(&g);
        assert_eq!(reps, vec![0, 3]);
        let empty = MarkedForest::new();
        assert_eq!(empty.fragment_representatives(&g).len(), 5);
    }

    #[test]
    fn iter_is_sorted_by_edge_id() {
        let (g, edges) = small();
        let mut f = MarkedForest::new();
        // Mark out of order; iteration stays ascending.
        f.mark(&g, edges[2]);
        f.mark(&g, edges[0]);
        f.mark(&g, edges[1]);
        let listed = f.edges();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
        assert_eq!(listed.len(), 3);
    }

    #[test]
    fn validate_rejects_cycles_and_dead_edges() {
        let (mut g, edges) = small();
        let mut f = MarkedForest::new();
        for e in &edges {
            f.mark(&g, *e);
        }
        f.mark(&g, g.edge_between(0, 2).unwrap());
        assert!(f.validate(&g).is_err(), "0-1-2-0 cycle must be rejected");
        let e02 = g.edge_between(0, 2).unwrap();
        f.unmark(&g, e02);
        assert!(f.validate(&g).is_ok());
        let dead = g.remove_edge(3, 4).unwrap();
        assert!(f.validate(&g).is_err(), "marked dead edge must be rejected");
        assert!(f.unmark(&g, dead));
        assert!(f.validate(&g).is_ok());
    }

    #[test]
    fn marking_a_full_mst_gives_one_fragment() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::connected_gnp(40, 0.15, 100, &mut rng);
        let mst = kkt_graphs::kruskal(&g);
        let mut f = MarkedForest::new();
        for &e in &mst.edges {
            f.mark(&g, e);
        }
        f.validate(&g).unwrap();
        assert_eq!(f.fragment_representatives(&g).len(), 1);
        assert_eq!(f.tree_of(&g, 17).len(), 40);
    }
}
