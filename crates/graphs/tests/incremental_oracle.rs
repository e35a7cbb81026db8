//! Property-based equivalence tests for the incremental shadow oracle.
//!
//! Mirrors `properties.rs`: the same seeded 64-case sweep discipline that
//! replaced `proptest` in this offline environment. Every case drives the
//! [`ShadowOracle`] through a mixed churn trace (deletions biased towards
//! tree edges, insertions, weight moves in both directions) and asserts that
//! after *every* event the incrementally maintained forest is identical to a
//! full Kruskal run over the evolving graph — the oracle-swap soundness
//! property the replay harness relies on.

use kkt_graphs::generators::{self, Update};
use kkt_graphs::{kruskal, verify_mst, Graph, ShadowOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// The `properties.rs` graph strategy: a connected G(n, p) with n in [2, 60),
/// p in [0, 0.6), max weight in [1, 1000), all derived from one seed.
fn arb_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_1234_5678_9ABC);
    let n = rng.gen_range(2usize..60);
    let p = rng.gen_range(0.0f64..0.6);
    let maxw = rng.gen_range(1u64..1000);
    generators::connected_gnp(n, p, maxw, &mut rng)
}

/// A mixed churn trace: the `random_update_stream` delete/insert alternation
/// (tree-biased deletions) interleaved with explicit weight moves in both
/// directions, so every update kind occurs.
fn mixed_trace(g: &Graph, events: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let tree_bias = rng.gen_range(0.0..1.0);
    let mut shadow = g.clone();
    let mut out = Vec::with_capacity(events);
    for chunk in generators::random_update_stream(g, events, 1000, tree_bias, &mut rng).chunks(4) {
        for u in chunk {
            match *u {
                Update::Delete { u, v } => {
                    shadow.remove_edge(u, v);
                }
                Update::Insert { u, v, weight } => {
                    shadow.add_edge(u, v, weight);
                }
                Update::ChangeWeight { u, v, weight } => {
                    shadow.set_weight(u, v, weight);
                }
            }
            out.push(u.clone());
        }
        // One weight move per chunk, on a random live edge of the evolving
        // graph, in either direction — the oracle reads the direction
        // against the current weight.
        let edges: Vec<_> = shadow.live_edges().collect();
        if edges.is_empty() {
            continue;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let edge = *shadow.edge(e);
        let weight = rng.gen_range(1..=1000);
        shadow.set_weight(edge.u, edge.v, weight);
        out.push(Update::ChangeWeight { u: edge.u, v: edge.v, weight });
    }
    out
}

#[test]
fn incremental_oracle_equals_kruskal_after_every_event() {
    for seed in 0..CASES {
        let g = arb_graph(seed);
        let mut oracle = ShadowOracle::new(&g);
        let trace = mixed_trace(&g, 30, seed);
        for (i, update) in trace.iter().enumerate() {
            oracle.apply(update).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            let reference = kruskal(oracle.graph());
            assert_eq!(
                oracle.forest(),
                reference,
                "seed {seed}, event {i} ({update:?}): incremental forest diverged from Kruskal"
            );
        }
    }
}

#[test]
fn incremental_oracle_forest_is_always_a_verified_msf() {
    // Same sweep, but checked through the public verifier entry points the
    // replay harness uses (verify_msf against the claimed forest, and the
    // full sequential verify_mst as ground truth).
    for seed in 0..CASES {
        let g = arb_graph(seed);
        let mut oracle = ShadowOracle::new(&g);
        for (i, update) in mixed_trace(&g, 16, seed ^ 0xFACE).iter().enumerate() {
            oracle.apply(update).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            let forest = oracle.forest();
            oracle.verify_msf(&forest).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            oracle.verify_forest(&forest).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            verify_mst(oracle.graph(), &forest)
                .unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            assert_eq!(oracle.component_count(), oracle.graph().component_count());
        }
    }
}

/// A dense graph for the differential density sweep: `m/n = 8` on even
/// seeds, `m/n = n/2` (the complete graph) on odd seeds — the two rungs the
/// E13 ladder adds above anything the historical sweep (`connected_gnp`
/// with `p < 0.6`) ever reached.
fn arb_dense_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE5E_4242_1111_7777);
    let n = rng.gen_range(8usize..40);
    let maxw = rng.gen_range(1u64..1000);
    let m = if seed.is_multiple_of(2) { 8 * n } else { n * n / 2 };
    generators::connected_dense(n, m, maxw, &mut rng)
}

#[test]
fn incremental_oracle_matches_paranoid_kruskal_on_dense_graphs() {
    // The E13 differential backbone: 64 seeded cases at m/n ∈ {8, n/2},
    // each replaying a mixed-lifecycle trace (churn + weight moves) with
    // paranoid mode on — every update re-runs the full Kruskal *inside* the
    // oracle as a cross-check — while the external assertions compare the
    // incremental forest to an independent Kruskal run and push it through
    // the public checkpoint verifiers the replay harness uses. Dense graphs
    // are where the cut/cycle rules earn their keep (many non-tree edges
    // per cut, cycles everywhere), and none of the historical cases went
    // above `p = 0.6`.
    for seed in 0..CASES {
        let g = arb_dense_graph(seed);
        // Density sanity: every case sits well above the sparse regime (the
        // 8n budget clamps to the complete graph below n = 17).
        assert!(g.edge_count() >= 3 * g.node_count(), "seed {seed} is not dense");
        let mut oracle = ShadowOracle::new(&g);
        oracle.set_paranoid(true);
        let trace = mixed_trace(&g, 24, seed ^ 0xD15C);
        assert!(!trace.is_empty(), "seed {seed}");
        for (i, update) in trace.iter().enumerate() {
            oracle.apply(update).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            let forest = oracle.forest();
            let reference = kruskal(oracle.graph());
            assert_eq!(
                forest, reference,
                "seed {seed}, event {i} ({update:?}): dense incremental forest diverged"
            );
            oracle.verify_msf(&forest).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
            verify_mst(oracle.graph(), &forest)
                .unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
        }
    }
}

#[test]
fn paranoid_mode_accepts_the_whole_sweep() {
    // Paranoid mode re-runs Kruskal inside the oracle after every update; a
    // clean sweep means the cross-check machinery itself agrees with the
    // external assertions above.
    for seed in (0..CASES).step_by(8) {
        let g = arb_graph(seed);
        let mut oracle = ShadowOracle::new(&g);
        oracle.set_paranoid(true);
        for (i, update) in mixed_trace(&g, 20, seed ^ 0xBEEF).iter().enumerate() {
            oracle.apply(update).unwrap_or_else(|e| panic!("seed {seed}, event {i}: {e}"));
        }
    }
}
