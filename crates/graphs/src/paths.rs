//! Tree path utilities.
//!
//! The insert-repair operation (§3.2 "Insert(u, v)") needs the heaviest edge on
//! the tree path between the two endpoints of the inserted edge; these helpers
//! provide the sequential oracle for that computation and general tree
//! navigation used by the simulator's forest bookkeeping.

use crate::edge::EdgeId;
use crate::graph::{Graph, NodeId};

/// A rooted view of one tree of a spanning forest, restricted to a given set
/// of marked edges.
#[derive(Debug, Clone)]
pub struct RootedTree {
    /// Parent edge of each node (`None` for the root and for nodes outside
    /// this tree).
    pub parent_edge: Vec<Option<EdgeId>>,
    /// Parent node of each node.
    pub parent: Vec<Option<NodeId>>,
    /// Nodes of the tree in BFS order from the root.
    pub order: Vec<NodeId>,
    /// Depth of each in-tree node (root = 0); `usize::MAX` for non-members.
    pub depth: Vec<usize>,
    /// The root.
    pub root: NodeId,
}

impl RootedTree {
    /// Whether `x` belongs to this tree.
    pub fn contains(&self, x: NodeId) -> bool {
        self.depth.get(x).is_some_and(|&d| d != usize::MAX)
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the tree consists of the root alone.
    pub fn is_empty(&self) -> bool {
        self.order.len() <= 1
    }

    /// Height (maximum depth) of the tree.
    pub fn height(&self) -> usize {
        self.order.iter().map(|&x| self.depth[x]).max().unwrap_or(0)
    }
}

/// Roots the marked tree containing `root` by BFS over `marked` edges.
/// `marked` is the global set of forest edges (both trees' and other trees'
/// edges may appear; only those reachable from `root` are used).
pub fn root_tree(g: &Graph, marked: &[EdgeId], root: NodeId) -> RootedTree {
    let n = g.node_count();
    let mut adj: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    for &e in marked {
        if g.is_live(e) {
            let edge = g.edge(e);
            adj[edge.u].push(e);
            adj[edge.v].push(e);
        }
    }
    let mut parent_edge = vec![None; n];
    let mut parent = vec![None; n];
    let mut depth = vec![usize::MAX; n];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    depth[root] = 0;
    queue.push_back(root);
    while let Some(x) = queue.pop_front() {
        order.push(x);
        for &e in &adj[x] {
            let y = g.edge(e).other(x);
            if depth[y] == usize::MAX {
                depth[y] = depth[x] + 1;
                parent[y] = Some(x);
                parent_edge[y] = Some(e);
                queue.push_back(y);
            }
        }
    }
    RootedTree { parent_edge, parent, order, depth, root }
}

/// The tree path between `a` and `b` inside the tree `t`, as a list of edges,
/// or `None` if either endpoint is outside the tree.
pub fn tree_path(t: &RootedTree, a: NodeId, b: NodeId) -> Option<Vec<EdgeId>> {
    if !t.contains(a) || !t.contains(b) {
        return None;
    }
    let (mut x, mut y) = (a, b);
    let mut left = Vec::new();
    let mut right = Vec::new();
    while t.depth[x] > t.depth[y] {
        left.push(t.parent_edge[x].expect("non-root node has a parent edge"));
        x = t.parent[x].unwrap();
    }
    while t.depth[y] > t.depth[x] {
        right.push(t.parent_edge[y].expect("non-root node has a parent edge"));
        y = t.parent[y].unwrap();
    }
    while x != y {
        left.push(t.parent_edge[x].unwrap());
        x = t.parent[x].unwrap();
        right.push(t.parent_edge[y].unwrap());
        y = t.parent[y].unwrap();
    }
    right.reverse();
    left.extend(right);
    Some(left)
}

/// The heaviest edge (by unique weight) on the tree path between `a` and `b`,
/// or `None` if they are in different trees or `a == b`.
pub fn heaviest_path_edge(g: &Graph, t: &RootedTree, a: NodeId, b: NodeId) -> Option<EdgeId> {
    let path = tree_path(t, a, b)?;
    path.into_iter().max_by_key(|&e| g.unique_weight(e))
}

/// Splits the node set of tree `t` by removing edge `removed`: returns a
/// boolean side-vector where `true` marks the nodes that remain connected to
/// `t.root`. Nodes outside the tree are `false`.
pub fn split_by_edge(g: &Graph, t: &RootedTree, removed: EdgeId) -> Vec<bool> {
    let n = g.node_count();
    let mut side = vec![false; n];
    // BFS from the root avoiding `removed`.
    let mut adj: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
    for &x in &t.order {
        if let Some(e) = t.parent_edge[x] {
            if e != removed {
                let p = t.parent[x].unwrap();
                adj[x].push(e);
                adj[p].push(e);
            }
        }
    }
    let mut queue = std::collections::VecDeque::new();
    side[t.root] = true;
    queue.push_back(t.root);
    while let Some(x) = queue.pop_front() {
        for &e in &adj[x] {
            let y = g.edge(e).other(x);
            if !side[y] {
                side[y] = true;
                queue.push_back(y);
            }
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::mst::kruskal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> (Graph, Vec<EdgeId>) {
        let mut g = Graph::new(n);
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push(g.add_edge(i, i + 1, (i as u64 + 1) * 10).unwrap());
        }
        (g, edges)
    }

    #[test]
    fn root_tree_bfs_depths() {
        let (g, edges) = path_graph(5);
        let t = root_tree(&g, &edges, 2);
        assert_eq!(t.depth[2], 0);
        assert_eq!(t.depth[0], 2);
        assert_eq!(t.depth[4], 2);
        assert_eq!(t.len(), 5);
        assert_eq!(t.height(), 2);
        assert!(t.contains(4));
    }

    #[test]
    fn root_tree_ignores_other_components() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(0, 1, 1).unwrap();
        let _e1 = g.add_edge(2, 3, 1).unwrap();
        let t = root_tree(&g, &[e0], 0);
        assert_eq!(t.len(), 2);
        assert!(!t.contains(2));
    }

    #[test]
    fn tree_path_on_path_graph() {
        let (g, edges) = path_graph(6);
        let t = root_tree(&g, &edges, 0);
        let p = tree_path(&t, 1, 4).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(tree_path(&t, 3, 3).unwrap().len(), 0);
        // Path is the same in either direction (as a set).
        let mut q = tree_path(&t, 4, 1).unwrap();
        let mut p2 = p.clone();
        q.sort();
        p2.sort();
        assert_eq!(p2, q);
        let _ = g;
    }

    #[test]
    fn tree_path_none_across_components() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(0, 1, 1).unwrap();
        g.add_edge(2, 3, 1).unwrap();
        let t = root_tree(&g, &[e0], 0);
        assert!(tree_path(&t, 0, 3).is_none());
    }

    #[test]
    fn heaviest_edge_is_max_on_path() {
        let (g, edges) = path_graph(6);
        let t = root_tree(&g, &edges, 0);
        let h = heaviest_path_edge(&g, &t, 0, 5).unwrap();
        assert_eq!(g.edge(h).weight, 50);
        let h2 = heaviest_path_edge(&g, &t, 1, 3).unwrap();
        assert_eq!(g.edge(h2).weight, 30);
    }

    #[test]
    fn split_by_edge_partitions_tree() {
        let (g, edges) = path_graph(5);
        let t = root_tree(&g, &edges, 0);
        let side = split_by_edge(&g, &t, edges[2]); // removes {2,3}
        assert_eq!(side, vec![true, true, true, false, false]);
    }

    #[test]
    fn split_matches_component_sizes_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::connected_gnp(40, 0.1, 100, &mut rng);
        let f = kruskal(&g);
        let t = root_tree(&g, &f.edges, 0);
        for &e in f.edges.iter().take(10) {
            let side = split_by_edge(&g, &t, e);
            let true_count = side.iter().filter(|&&b| b).count();
            assert!((1..=39).contains(&true_count));
            // The removed edge crosses the split.
            let edge = g.edge(e);
            assert_ne!(side[edge.u], side[edge.v]);
        }
    }
}
