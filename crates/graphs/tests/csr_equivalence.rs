//! Seeded equivalence sweep for the CSR data plane: the slab-arena /
//! pair-table [`Graph`] must be observationally identical to the naive
//! reference structure it replaced (`Vec<Vec<EdgeId>>` adjacency + ordered
//! presence set), over mixed insert / remove / change-weight traces.
//!
//! The contract checked after *every* operation:
//! * same accept/reject decision and returned [`EdgeId`],
//! * same `edge_between` / `is_live` / `degree` / `edge_count`,
//! * same `incident` iteration **order** (insertion order — the order that
//!   feeds view construction and hence the async scheduler's RNG),
//! * same `live_edges`, `cut`, and component structure,
//! * same `max_weight`: the maintained maximum equals a scan of the
//!   reference's live edges (1 if none).

use std::collections::BTreeSet;

use kkt_graphs::{EdgeId, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-flattening reference: push-order adjacency vectors, an ordered
/// presence set, and tombstoned edge records.
struct RefGraph {
    edges: Vec<(NodeId, NodeId, u64)>,
    alive: Vec<bool>,
    adjacency: Vec<Vec<usize>>,
    present: BTreeSet<(NodeId, NodeId)>,
}

impl RefGraph {
    fn new(n: usize) -> Self {
        RefGraph {
            edges: Vec::new(),
            alive: Vec::new(),
            adjacency: vec![Vec::new(); n],
            present: BTreeSet::new(),
        }
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId, weight: u64) -> Option<usize> {
        if u == v || u >= self.adjacency.len() || v >= self.adjacency.len() {
            return None;
        }
        let key = (u.min(v), u.max(v));
        if self.present.contains(&key) {
            return None;
        }
        let id = self.edges.len();
        self.edges.push((key.0, key.1, weight));
        self.alive.push(true);
        self.adjacency[u].push(id);
        self.adjacency[v].push(id);
        self.present.insert(key);
        Some(id)
    }

    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Option<usize> {
        let key = (u.min(v), u.max(v));
        if !self.present.remove(&key) {
            return None;
        }
        let id = self.adjacency[u]
            .iter()
            .copied()
            .find(|&e| self.alive[e] && (self.edges[e].0 == v || self.edges[e].1 == v))?;
        self.alive[id] = false;
        self.adjacency[u].retain(|&e| e != id);
        self.adjacency[v].retain(|&e| e != id);
        Some(id)
    }

    fn set_weight(&mut self, u: NodeId, v: NodeId, weight: u64) -> Option<u64> {
        let key = (u.min(v), u.max(v));
        if !self.present.contains(&key) {
            return None;
        }
        let id = self.adjacency[u]
            .iter()
            .copied()
            .find(|&e| self.alive[e] && (self.edges[e].0 == v || self.edges[e].1 == v))?;
        let old = self.edges[id].2;
        self.edges[id].2 = weight;
        Some(old)
    }

    fn incident(&self, x: NodeId) -> Vec<usize> {
        self.adjacency[x].iter().copied().filter(|&e| self.alive[e]).collect()
    }

    fn live_edges(&self) -> Vec<usize> {
        (0..self.edges.len()).filter(|&e| self.alive[e]).collect()
    }

    fn max_weight(&self) -> u64 {
        self.live_edges().into_iter().map(|e| self.edges[e].2).max().unwrap_or(1)
    }
}

fn assert_equivalent(g: &Graph, r: &RefGraph, case: u64, step: usize) {
    let ctx = |what: &str| format!("case {case} step {step}: {what}");
    assert_eq!(g.edge_count(), r.live_edges().len(), "{}", ctx("edge_count"));
    assert_eq!(g.max_weight(), r.max_weight(), "{}", ctx("max_weight"));
    assert_eq!(
        g.live_edges().map(|e| e.0).collect::<Vec<_>>(),
        r.live_edges(),
        "{}",
        ctx("live_edges")
    );
    for x in 0..g.node_count() {
        assert_eq!(
            g.incident(x).map(|e| e.0).collect::<Vec<_>>(),
            r.incident(x),
            "{}",
            ctx("incident order")
        );
        assert_eq!(g.degree(x), r.incident(x).len(), "{}", ctx("degree"));
    }
    for e in g.live_edges() {
        let (u, v, w) = r.edges[e.0];
        let edge = g.edge(e);
        assert_eq!((edge.u, edge.v, edge.weight), (u, v, w), "{}", ctx("edge record"));
        assert!(g.is_live(e), "{}", ctx("is_live"));
        assert_eq!(g.edge_between(u, v), Some(e), "{}", ctx("edge_between hit"));
        assert_eq!(g.edge_between(v, u), Some(e), "{}", ctx("edge_between reversed"));
    }
}

#[test]
fn csr_graph_matches_reference_over_64_seeded_traces() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0xC5A0 + case);
        let n = rng.gen_range(2..48);
        let mut g = Graph::new(n);
        let mut r = RefGraph::new(n);
        for step in 0..180 {
            let u = rng.gen_range(0..n + 1); // occasionally out of range
            let v = rng.gen_range(0..n + 1);
            match rng.gen_range(0..10) {
                // Bias towards inserts so the structure actually fills up.
                0..=4 => {
                    let w = rng.gen_range(1..1_000);
                    let got = g.add_edge(u, v, w);
                    let want = r.add_edge(u, v, w);
                    assert_eq!(got.map(|e| e.0), want, "case {case} step {step}: add_edge");
                }
                5..=7 => {
                    let got = g.remove_edge(u, v);
                    let want = r.remove_edge(u, v);
                    assert_eq!(got.map(|e| e.0), want, "case {case} step {step}: remove_edge");
                }
                _ => {
                    let w = rng.gen_range(1..1_000);
                    let got = g.set_weight(u, v, w);
                    let want = r.set_weight(u, v, w);
                    assert_eq!(got, want, "case {case} step {step}: set_weight");
                }
            }
            if step % 30 == 29 {
                assert_equivalent(&g, &r, case, step);
            }
        }
        assert_equivalent(&g, &r, case, usize::MAX);

        // Cut parity on a random side, streamed and collected.
        let side: Vec<bool> = (0..n).map(|_| rng.gen_range(0..2) == 0).collect();
        let want: Vec<usize> = r
            .live_edges()
            .into_iter()
            .filter(|&e| side[r.edges[e].0] != side[r.edges[e].1])
            .collect();
        assert_eq!(g.cut(&side).iter().map(|e| e.0).collect::<Vec<_>>(), want);
        assert_eq!(g.cut_iter(&side).collect::<Vec<_>>(), g.cut(&side));
    }
}

#[test]
fn csr_graph_matches_reference_at_half_n_density() {
    // The E13 dense rung (`m/n = n/2`, i.e. the complete graph): fill the
    // structure to `K_n` first, then churn near-complete — the regime where
    // the pair table runs at its highest load factor and the slab arena
    // recycles constantly, and which the mixed sweep above (random ops on a
    // mostly-sparse graph) never holds it in.
    for case in 0u64..32 {
        let mut rng = StdRng::seed_from_u64(0xDE05E + case);
        let n = rng.gen_range(8..28);
        let max_edges = n * (n - 1) / 2;
        let mut g = Graph::new(n);
        let mut r = RefGraph::new(n);
        // Phase 1: fill to complete, checking parity along the way.
        for u in 0..n {
            for v in (u + 1)..n {
                let w = rng.gen_range(1..1_000);
                let got = g.add_edge(u, v, w);
                let want = r.add_edge(u, v, w);
                assert_eq!(got.map(|e| e.0), want, "case {case}: fill ({u}, {v})");
            }
        }
        assert_eq!(g.edge_count(), max_edges, "case {case}: K_n reached");
        assert_equivalent(&g, &r, case, 0);
        // Phase 2: band-controlled churn holding the graph within 8 edges
        // of K_n (deletions of random live edges vs refills of enumerated
        // absent pairs, plus weight moves) — parity after every op.
        for step in 1..=200 {
            let deficit = max_edges - r.live_edges().len();
            match rng.gen_range(0..3) {
                0 if deficit < 8 => {
                    let live = r.live_edges();
                    let e = live[rng.gen_range(0..live.len())];
                    let (u, v, _) = r.edges[e];
                    let got = g.remove_edge(u, v);
                    let want = r.remove_edge(u, v);
                    assert_eq!(got.map(|e| e.0), want, "case {case} step {step}: remove_edge");
                }
                1 if deficit > 0 => {
                    let mut absent = Vec::with_capacity(deficit);
                    for u in 0..n {
                        for v in (u + 1)..n {
                            if !r.present.contains(&(u, v)) {
                                absent.push((u, v));
                            }
                        }
                    }
                    let (u, v) = absent[rng.gen_range(0..absent.len())];
                    let w = rng.gen_range(1..1_000);
                    let got = g.add_edge(u, v, w);
                    let want = r.add_edge(u, v, w);
                    assert_eq!(got.map(|e| e.0), want, "case {case} step {step}: add_edge");
                }
                _ => {
                    let live = r.live_edges();
                    let e = live[rng.gen_range(0..live.len())];
                    let (u, v, _) = r.edges[e];
                    let w = rng.gen_range(1..1_000);
                    let got = g.set_weight(u, v, w);
                    let want = r.set_weight(u, v, w);
                    assert_eq!(got, want, "case {case} step {step}: set_weight");
                }
            }
            if step % 40 == 0 {
                assert_equivalent(&g, &r, case, step);
            }
        }
        assert_equivalent(&g, &r, case, usize::MAX);
        // The band held: the structure stayed dense through the whole churn.
        assert!(g.edge_count() + 8 >= max_edges, "case {case} left the dense band");
    }
}

#[test]
fn csr_graph_clone_is_independent() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = Graph::new(10);
    for _ in 0..20 {
        let (u, v) = (rng.gen_range(0..10), rng.gen_range(0..10));
        g.add_edge(u, v, rng.gen_range(1..50));
    }
    let snapshot: Vec<EdgeId> = g.live_edges().collect();
    let max = g.max_weight();
    let mut clone = g.clone();
    // Mutate the clone heavily; the original must not move.
    for &e in &snapshot {
        let edge = *clone.edge(e);
        clone.remove_edge(edge.u, edge.v);
    }
    assert_eq!(clone.edge_count(), 0);
    assert_eq!(clone.max_weight(), 1, "an empty graph reads 1");
    assert_eq!(g.live_edges().collect::<Vec<_>>(), snapshot);
    assert_eq!(g.max_weight(), max);
    for &e in &snapshot {
        assert!(g.is_live(e));
    }
}
