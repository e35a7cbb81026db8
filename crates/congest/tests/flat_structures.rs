//! Seeded equivalence sweeps for the flattened congest data plane.
//!
//! 1. **Bitset forest vs ordered-set reference.** The `EdgeId`-indexed
//!    bitset + per-node tree-adjacency table of [`MarkedForest`] must be
//!    observationally identical to the `BTreeSet<EdgeId>` it replaced:
//!    same accept/reject on mark/unmark, same `len`, same ascending
//!    iteration order, same per-node tree edges/neighbours (as sets), same
//!    membership answers — across mixed mark / unmark / delete traces.
//!
//! 2. **Cached views vs fresh network.** After every kind of dynamic update
//!    (insert, delete, weight change, mark, unmark, clear), a protocol run
//!    on the long-lived network (whose view cache has survived arbitrarily
//!    many invalidation cycles) must produce byte-for-byte the stats a
//!    freshly constructed network produces — caching must be invisible.

use std::collections::BTreeSet;

use kkt_congest::engine::Outbox;
use kkt_congest::{Engine, Network, NetworkConfig, Protocol};
use kkt_graphs::{generators, EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// 1. MarkedForest vs BTreeSet reference
// ---------------------------------------------------------------------------

#[test]
fn bitset_forest_matches_btreeset_reference_over_64_seeded_traces() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0xF0E5 + case);
        let n = rng.gen_range(4..40);
        let g = generators::connected_gnp(n, 0.25, 100, &mut rng);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut reference: BTreeSet<EdgeId> = BTreeSet::new();

        let all: Vec<EdgeId> = net.graph().live_edges().collect();
        for step in 0..120 {
            let e = all[rng.gen_range(0..all.len())];
            if rng.gen_range(0..2) == 0 {
                net.mark(e);
                reference.insert(e);
            } else {
                net.unmark(e);
                reference.remove(&e);
            }

            let forest = net.forest();
            assert_eq!(forest.len(), reference.len(), "case {case} step {step}: len");
            assert_eq!(forest.is_empty(), reference.is_empty());
            assert_eq!(
                forest.iter().collect::<Vec<_>>(),
                reference.iter().copied().collect::<Vec<_>>(),
                "case {case} step {step}: ascending iteration order"
            );
            assert_eq!(forest.edges(), reference.iter().copied().collect::<Vec<_>>());
            for &e in &all {
                assert_eq!(
                    forest.is_marked(e),
                    reference.contains(&e),
                    "case {case} step {step}: is_marked({e})"
                );
            }
            // Per-node table vs filter-the-adjacency reference (set equality:
            // the table keeps mark order, the reference insertion order).
            for x in 0..net.graph().node_count() {
                let table: BTreeSet<EdgeId> =
                    forest.tree_edges_of(net.graph(), x).into_iter().collect();
                let scan: BTreeSet<EdgeId> =
                    net.graph().incident(x).filter(|e| reference.contains(e)).collect();
                assert_eq!(table, scan, "case {case} step {step}: tree_edges_of({x})");
                assert_eq!(forest.tree_degree(x), scan.len());
                let neighbors: BTreeSet<NodeId> =
                    forest.tree_neighbors(net.graph(), x).into_iter().collect();
                let scan_neighbors: BTreeSet<NodeId> =
                    scan.iter().map(|&e| net.graph().edge(e).other(x)).collect();
                assert_eq!(neighbors, scan_neighbors);
            }
        }
    }
}

#[test]
fn forest_survives_edge_deletion_under_marks() {
    // Deleting a marked edge through the network unmarks it and keeps the
    // bitset/table coherent (the old BTreeSet path was order-insensitive by
    // construction; the table must match it).
    for case in 0u64..16 {
        let mut rng = StdRng::seed_from_u64(0xDE1E + case);
        let g = generators::connected_gnp(20, 0.3, 60, &mut rng);
        let mst = kkt_graphs::kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        for _ in 0..8 {
            let edges = net.forest().edges();
            let e = edges[rng.gen_range(0..edges.len())];
            let edge = *net.graph().edge(e);
            let (deleted, was_marked) = net.delete_edge(edge.u, edge.v).unwrap();
            assert_eq!(deleted, e);
            assert!(was_marked);
            assert!(!net.forest().is_marked(e));
            net.forest().validate(net.graph()).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Cached views vs fresh network, end-to-end through the engine
// ---------------------------------------------------------------------------

/// Deterministic probe protocol: every initiator floods a token one hop and
/// neighbours echo their (id, weight-sum) — enough to make the stats depend
/// on every field a stale view could corrupt (incidence, weights, marks).
#[derive(Debug)]
struct Probe;

impl Protocol for Probe {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, view: &kkt_congest::NodeView, out: &mut Outbox<u64>) {
        for e in &view.incident {
            out.send(e.neighbor, e.weight + u64::from(e.marked));
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        _msg: u64,
        _view: &kkt_congest::NodeView,
        _out: &mut Outbox<u64>,
    ) {
    }
}

#[test]
fn cached_network_matches_fresh_network_on_dense_graphs() {
    // The E13 dense rung (`m/n = n/2`, the complete graph): every node's
    // cached view carries Θ(n) incident entries, every churn primitive
    // dirties two views of that size, and the sorted neighbour-handle
    // index runs at its widest. The 64-case sweep below tops out around
    // `p = 0.3`; this one holds the network at (and just below) K_n through
    // delete/insert/reweight/mark cycles and demands byte-identical engine
    // stats against a freshly built network after every event.
    for case in 0u64..16 {
        let mut rng = StdRng::seed_from_u64(0xDE45E + case);
        let n = rng.gen_range(10..26);
        let base = generators::connected_dense(n, n * n / 2, 300, &mut rng);
        assert_eq!(base.edge_count(), n * (n - 1) / 2, "case {case}: base is K_n");
        let mst = kkt_graphs::kruskal(&base);

        let mut live = Network::new(base.clone(), NetworkConfig::default());
        live.mark_all(&mst.edges);
        let mut shadow = base;
        let mut marks: BTreeSet<EdgeId> = mst.edges.iter().copied().collect();

        // One delete/insert/reweight/mark-toggle cycle per step, always on
        // the dense structure (deletions are immediately healed next step
        // by reinserting the absent pair, so the graph never leaves K_n by
        // more than one edge).
        let mut hole: Option<(NodeId, NodeId)> = None;
        for step in 0..20 {
            match (hole.take(), step % 3) {
                (Some((u, v)), _) => {
                    let w = rng.gen_range(1..300);
                    let got = live.insert_edge(u, v, w);
                    let want = shadow.add_edge(u, v, w);
                    assert_eq!(got, want, "case {case} step {step}: heal");
                }
                (None, 0) => {
                    let edges: Vec<EdgeId> = shadow.live_edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    let edge = *shadow.edge(e);
                    live.delete_edge(edge.u, edge.v).unwrap();
                    shadow.remove_edge(edge.u, edge.v).unwrap();
                    marks.remove(&e);
                    hole = Some((edge.u, edge.v));
                }
                (None, 1) => {
                    let edges: Vec<EdgeId> = shadow.live_edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    let edge = *shadow.edge(e);
                    let w = rng.gen_range(1..300);
                    live.change_weight(edge.u, edge.v, w).unwrap();
                    shadow.set_weight(edge.u, edge.v, w).unwrap();
                }
                (None, _) => {
                    let edges: Vec<EdgeId> = shadow.live_edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    if marks.remove(&e) {
                        live.unmark(e);
                    } else {
                        live.mark(e);
                        marks.insert(e);
                    }
                }
            }

            let mut fresh = Network::new(shadow.clone(), NetworkConfig::default());
            let mark_vec: Vec<EdgeId> = marks.iter().copied().collect();
            fresh.mark_all(&mark_vec);
            for x in 0..n {
                assert_eq!(live.view(x), fresh.view(x), "case {case} step {step} node {x}");
            }
            let (_, live_stats) = Engine::run_all(&mut live, |_| Probe).unwrap();
            let (_, fresh_stats) = Engine::run_all(&mut fresh, |_| Probe).unwrap();
            assert_eq!(live_stats, fresh_stats, "case {case} step {step}: engine stats");
        }
        assert!(
            shadow.edge_count() + 1 >= n * (n - 1) / 2,
            "case {case}: the churn left the dense regime"
        );
    }
}

#[test]
fn cached_network_matches_fresh_network_after_every_event_kind_64_cases() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(0xCAC4E + case);
        let n = rng.gen_range(8..32);
        let base = generators::connected_gnp(n, 0.3, 200, &mut rng);
        let mst = kkt_graphs::kruskal(&base);

        // The long-lived network accumulates updates (and cache churn).
        let mut live = Network::new(base.clone(), NetworkConfig::default());
        live.mark_all(&mst.edges);
        // The shadow records the same logical state to rebuild fresh networks.
        let mut shadow = base;
        let mut marks: BTreeSet<EdgeId> = mst.edges.iter().copied().collect();

        for step in 0..24 {
            // One random event of a random kind.
            match rng.gen_range(0..5) {
                0 => {
                    // Insert a random absent pair.
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let w = rng.gen_range(1..200);
                    let got = live.insert_edge(u, v, w);
                    let want = shadow.add_edge(u, v, w);
                    assert_eq!(got, want);
                }
                1 => {
                    // Delete a random live edge.
                    let edges: Vec<EdgeId> = shadow.live_edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    let edge = *shadow.edge(e);
                    live.delete_edge(edge.u, edge.v).unwrap();
                    shadow.remove_edge(edge.u, edge.v).unwrap();
                    marks.remove(&e);
                }
                2 => {
                    // Reweight a random live edge.
                    let edges: Vec<EdgeId> = shadow.live_edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    let edge = *shadow.edge(e);
                    let w = rng.gen_range(1..200);
                    live.change_weight(edge.u, edge.v, w).unwrap();
                    shadow.set_weight(edge.u, edge.v, w).unwrap();
                }
                3 => {
                    // Toggle a mark on a random live edge.
                    let edges: Vec<EdgeId> = shadow.live_edges().collect();
                    let e = edges[rng.gen_range(0..edges.len())];
                    if marks.remove(&e) {
                        live.unmark(e);
                    } else {
                        live.mark(e);
                        marks.insert(e);
                    }
                }
                _ => {
                    if step % 11 == 0 {
                        live.clear_marks();
                        marks.clear();
                    }
                }
            }

            // A fresh network over the same logical state.
            let mut fresh = Network::new(shadow.clone(), NetworkConfig::default());
            let mark_vec: Vec<EdgeId> = marks.iter().copied().collect();
            fresh.mark_all(&mark_vec);

            // Views agree field-for-field...
            for x in 0..n {
                assert_eq!(live.view(x), fresh.view(x), "case {case} step {step} node {x}");
            }
            // ...and so does an engine run that *borrows cached views* on the
            // live network vs building them from scratch on the fresh one.
            let (_, live_stats) = Engine::run_all(&mut live, |_| Probe).unwrap();
            let (_, fresh_stats) = Engine::run_all(&mut fresh, |_| Probe).unwrap();
            assert_eq!(live_stats, fresh_stats, "case {case} step {step}: engine stats");
        }
    }
}
