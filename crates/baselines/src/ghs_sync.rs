//! A GHS-style synchronous MST construction with `O(m + n log n)` messages.
//!
//! This is the baseline the paper's Theorem 1.1 is measured against: the
//! classic fragment-merging algorithm of Gallager, Humblet and Spira (1983),
//! run synchronously. Fragments repeatedly find their minimum outgoing edge
//! and merge along it; the minimum outgoing edge of a fragment is found by
//! every node *probing* its incident edges — asking the other endpoint which
//! fragment it belongs to — and convergecasting the minimum over the fragment
//! tree.
//!
//! Message accounting (the quantity we compare):
//!
//! * probing an edge costs 2 messages (`test` + `accept`/`reject`); an edge
//!   rejected once (both endpoints in the same fragment) is never probed
//!   again, and a node stops probing once it finds its local minimum outgoing
//!   edge — exactly the discipline that gives GHS its `O(m)` probe total;
//! * each phase also spends `O(|T|)` messages per fragment on leader
//!   election / convergecast / broadcast of the merge decision, for
//!   `O(n log n)` over the `O(log n)` phases.
//!
//! The merge decisions themselves are computed from the simulator's global
//! view (union–find over fragments); the *communication pattern* is what is
//! charged, which is what makes the baseline comparable. This is a
//! deliberate substitution: the full asynchronous GHS protocol state machine
//! (levels, core edges, deferred replies) is not simulated, and it would
//! change none of the message asymptotics being compared.

use kkt_congest::Network;
use kkt_graphs::{EdgeId, UnionFind, UniqueWeight};

use serde::{Deserialize, Serialize};

/// Per-phase statistics of the GHS baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhsPhase {
    /// Phase number (1-based).
    pub phase: u32,
    /// Fragments at the start of the phase.
    pub fragments: usize,
    /// Edges probed during the phase.
    pub probes: u64,
    /// Edges newly rejected (found internal) during the phase.
    pub rejected: u64,
}

/// Outcome of the GHS baseline construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhsOutcome {
    /// The constructed MST edges (also marked in the network's forest).
    pub tree_edges: Vec<EdgeId>,
    /// Per-phase statistics.
    pub phases: Vec<GhsPhase>,
}

/// Runs the GHS-style synchronous MST construction, marking the resulting
/// tree in the network's forest and charging `O(m + n log n)` messages to its
/// cost tracker.
pub fn build_mst_ghs(net: &mut Network) -> GhsOutcome {
    // The whole construction runs inside one RebuildSweep span so that every
    // charge site below is *lexically* within the span closure — the shape
    // the kkt-lint R4 rule verifies statically.
    net.span(kkt_congest::Phase::RebuildSweep, |net| {
        let n = net.node_count();
        let word = net.word_bits() as u64;
        let mut uf = UnionFind::new(n);
        let mut rejected: Vec<bool> = Vec::new();
        rejected.resize(net.graph().live_edges().map(|e| e.0).max().map_or(0, |m| m + 1), false);
        let mut tree_edges: Vec<EdgeId> = Vec::new();
        let mut phases = Vec::new();

        // Each node probes its incident edges cheapest first, as in GHS.
        // Nothing changes the graph during a build (marking a tree edge
        // leaves its weight alone), so every node's edges are sorted once
        // here, by cached unique weight, and each phase reads the same
        // order: node `x`'s edges are `by_weight[starts[x]..starts[x + 1]]`.
        let g = net.graph();
        let mut by_weight: Vec<(UniqueWeight, EdgeId)> = Vec::new();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        for x in 0..n {
            let begin = by_weight.len();
            by_weight.extend(g.incident(x).map(|e| (g.unique_weight(e), e)));
            by_weight[begin..].sort_unstable();
            starts.push(by_weight.len());
        }
        let max_degree = kkt_graphs::metrics::degree_stats(g).max as u64;

        for phase in 1..=(2 * (usize::BITS - n.leading_zeros()) + 2) {
            let fragments = uf.component_count();
            if fragments == net.graph().component_count() {
                break;
            }
            let mut probes = 0u64;
            let mut newly_rejected = 0u64;

            // Each node probes its incident edges in that order until it
            // finds one that leaves its fragment. Each probe costs a test
            // message and a reply.
            let mut best_per_fragment: Vec<Option<(UniqueWeight, EdgeId)>> = vec![None; n];
            for x in 0..n {
                for &(w, e) in &by_weight[starts[x]..starts[x + 1]] {
                    if net.forest().is_marked(e) {
                        continue;
                    }
                    if rejected.get(e.0).copied().unwrap_or(false) {
                        continue;
                    }
                    let edge = *net.graph().edge(e);
                    probes += 1;
                    net.cost_mut().record_message(word); // test(fragment id)
                    net.cost_mut().record_message(1); // accept / reject
                    if uf.find(edge.u) == uf.find(edge.v) {
                        if e.0 < rejected.len() {
                            rejected[e.0] = true;
                        }
                        newly_rejected += 1;
                        // Keep probing: this edge is internal.
                        continue;
                    }
                    // Outgoing edge found: remember it as this node's candidate
                    // and stop probing (GHS nodes stop at their local minimum).
                    let root = uf.find(x);
                    let candidate = (w, e);
                    if best_per_fragment[root].is_none_or(|cur| candidate < cur) {
                        best_per_fragment[root] = Some(candidate);
                    }
                    break;
                }
            }

            // Fragment-internal coordination: leader election, convergecast of
            // the candidates and broadcast of the decision cost O(|T|) messages
            // each, i.e. 3 messages per node per phase.
            for _ in 0..n {
                net.cost_mut().record_message(word);
                net.cost_mut().record_message(word);
                net.cost_mut().record_message(word);
            }
            net.cost_mut().record_time(2 * (max_degree + 1));

            // Merge along the chosen edges.
            let mut progressed = false;
            for best in best_per_fragment.iter().take(n) {
                if let Some((_, e)) = *best {
                    let edge = net.graph().edge(e);
                    if uf.union(edge.u, edge.v) {
                        tree_edges.push(e);
                        net.mark(e);
                        net.cost_mut().record_message(word); // connect message
                        progressed = true;
                    }
                }
            }
            phases.push(GhsPhase { phase, fragments, probes, rejected: newly_rejected });
            if !progressed {
                break;
            }
        }

        GhsOutcome { tree_edges, phases }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, verify_mst};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn produces_the_mst() {
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(40, 0.2, 500, &mut rng);
            let mut net = Network::new(g, NetworkConfig::default());
            let outcome = build_mst_ghs(&mut net);
            assert_eq!(outcome.tree_edges.len(), 39);
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        let mut g = kkt_graphs::Graph::new(7);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 2, 1);
        g.add_edge(0, 2, 2);
        g.add_edge(4, 5, 1);
        g.add_edge(5, 6, 2);
        let mut net = Network::new(g, NetworkConfig::default());
        let outcome = build_mst_ghs(&mut net);
        assert_eq!(outcome.tree_edges.len(), 4);
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }

    #[test]
    fn message_count_scales_with_m_on_rejection_heavy_instances() {
        // GHS's Θ(m) term comes from rejected probes. A two-cluster weighting
        // (light intra-cluster edges, heavy inter-cluster edges) forces every
        // intra-cluster edge to be probed and rejected once the clusters have
        // merged internally, so the message count tracks m. A sparse graph of
        // the same node count stays near the n·log n term.
        let n = 60;
        let mut rng = StdRng::seed_from_u64(9);
        let sparse = generators::connected_with_edges(n, n + 20, 100, &mut rng);
        let mut clustered = kkt_graphs::Graph::new(n);
        let mut next_weight = 1u64;
        for u in 0..n {
            for v in (u + 1)..n {
                let same_cluster = (u < n / 2) == (v < n / 2);
                let w = if same_cluster { next_weight } else { 1_000_000 + next_weight };
                next_weight += 1;
                clustered.add_edge(u, v, w);
            }
        }
        let m_clustered = clustered.edge_count() as u64;
        let run = |g: kkt_graphs::Graph| {
            let mut net = Network::new(g, NetworkConfig::default());
            build_mst_ghs(&mut net);
            net.cost().messages
        };
        let sparse_msgs = run(sparse);
        let clustered_msgs = run(clustered);
        assert!(
            clustered_msgs > 2 * sparse_msgs,
            "GHS on the clustered K_{n} ({clustered_msgs} msgs, m = {m_clustered}) must cost far \
             more than on a sparse graph ({sparse_msgs} msgs)"
        );
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::connected_gnp(128, 0.1, 1000, &mut rng);
        let mut net = Network::new(g, NetworkConfig::default());
        let outcome = build_mst_ghs(&mut net);
        assert!(outcome.phases.len() <= 10, "{} phases for n = 128", outcome.phases.len());
    }

    #[test]
    fn every_edge_is_probed_a_bounded_number_of_times() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::connected_gnp(50, 0.4, 300, &mut rng);
        let m = g.edge_count() as u64;
        let n = g.node_count() as u64;
        let mut net = Network::new(g, NetworkConfig::default());
        let outcome = build_mst_ghs(&mut net);
        let probes: u64 = outcome.phases.iter().map(|p| p.probes).sum();
        let phases = outcome.phases.len() as u64;
        // Every edge is rejected at most once; accepted probes are at most one
        // per node per phase.
        assert!(probes <= m + n * phases, "{probes} probes for m = {m}, n = {n}");
    }
}
