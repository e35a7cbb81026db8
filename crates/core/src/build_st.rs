//! `Build ST` — construct a spanning forest of an *unweighted* network with
//! `O(n log n)` messages (§4.2 of the paper, Lemma 6).
//!
//! It runs the Borůvka phase loop of `Build MST` with a different phase.
//! First, fragments use `FindAny-C` instead of `FindMin-C`, saving a
//! `log n / log log n` factor per phase, and each leader adds its edge as
//! soon as it finds it. Second, because outgoing edges are no longer unique
//! minima, the edges chosen in a phase may close (at most one) cycle per
//! merged group; the cycle is detected by re-running the saturation election
//! (cycle nodes are exactly those that fail to hear from two tree
//! neighbours), broken by the random edge-exclusion handshake of §4.2, and —
//! if the randomised handshake happens to exclude nothing — the newly added
//! edges on the cycle are dropped for this phase (Appendix B's fallback).

use std::collections::BTreeMap;

use kkt_congest::{leader::elect_leaders, Network, Phase};
use kkt_graphs::EdgeId;
use rand::Rng;

use crate::build_mst::{add_edge, boruvka, BuildOutcome};
use crate::config::KktConfig;
use crate::error::CoreError;
use crate::find_any::find_any;
use crate::search::Budget;

/// Runs `Build ST`: marks a spanning forest of the (possibly weighted, but
/// weights are ignored) network using `O(n log n)` messages w.h.p.
///
/// # Errors
///
/// Returns [`CoreError::PhaseBudgetExhausted`] if the phase cap is hit before
/// every fragment is maximal (probability `n^{-c}` with default parameters).
pub fn build_st<R: Rng + ?Sized>(
    net: &mut Network,
    config: &KktConfig,
    rng: &mut R,
) -> Result<BuildOutcome, CoreError> {
    boruvka(net, config, |net, leaders| {
        // Each leader looks for *any* outgoing edge and adds it at once.
        let mut new_edges: Vec<EdgeId> = Vec::new();
        for &leader in leaders {
            if let Some(found) = find_any(net, leader, Budget::Constant, config, rng)?.edge() {
                if add_edge(net, &found) {
                    new_edges.push(found.edge);
                }
            }
        }
        // Cycle detection and breaking (§4.2). The chosen edges may close at
        // most one cycle per merged group.
        break_cycles(net, &new_edges, rng)?;
        Ok(new_edges.iter().filter(|&&e| net.forest().is_marked(e)).count())
    })
}

/// Detects cycles among the marked edges (via the saturation election) and
/// removes them, following §4.2: every cycle node randomly nominates one of
/// its two cycle edges for exclusion and tells its neighbour (one message);
/// an edge nominated by both endpoints is unmarked. If a cycle survives the
/// randomised round, the newly added edges on it are unmarked outright.
fn break_cycles<R: Rng + ?Sized>(
    net: &mut Network,
    new_edges: &[EdgeId],
    rng: &mut R,
) -> Result<(), CoreError> {
    for _round in 0..2 {
        let election = elect_leaders(net)?;
        let cycle_nodes = election.cycle_nodes();
        if cycle_nodes.is_empty() {
            return Ok(());
        }
        if _round == 0 {
            // Randomised handshake: each cycle node nominates one incident
            // cycle edge and notifies the other endpoint (one message each).
            // Ordered map: the unmark loop below iterates it, and iteration
            // in a fingerprinted path must not depend on hasher state (R1).
            let mut nominations: BTreeMap<(usize, usize), u32> = BTreeMap::new();
            for &x in &cycle_nodes {
                let neighbors = &election.unheard[x];
                debug_assert_eq!(neighbors.len(), 2);
                let pick = neighbors[rng.gen_range(0..neighbors.len())];
                let key = (x.min(pick), x.max(pick));
                *nominations.entry(key).or_insert(0) += 1;
                net.cost_mut().record_message_in(Phase::LeaderElection, 1);
            }
            for ((u, v), count) in nominations {
                if count >= 2 {
                    if let Some(e) = net.graph().edge_between(u, v) {
                        net.unmark(e);
                    }
                }
            }
        } else {
            // Fallback: drop this phase's new edges that lie on a surviving
            // cycle, which certainly breaks it while keeping older forest
            // edges intact.
            let on_cycle: std::collections::BTreeSet<usize> = cycle_nodes.into_iter().collect();
            for &e in new_edges {
                let edge = net.graph().edge(e);
                if on_cycle.contains(&edge.u) && on_cycle.contains(&edge.v) {
                    net.unmark(e);
                }
            }
        }
    }
    // Verify the fallback actually cleared every cycle (it always does:
    // every cycle contains at least one edge added this phase).
    let election = elect_leaders(net)?;
    if election.cycle_nodes().is_empty() {
        Ok(())
    } else {
        Err(CoreError::Internal("a marked cycle survived cycle breaking".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, verify_spanning_forest, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    fn build_and_verify(g: Graph, seed: u64) -> Network {
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        build_st(&mut net, &cfg(), &mut rng).expect("construction converges");
        let forest = net.marked_forest_snapshot();
        verify_spanning_forest(net.graph(), &forest).expect("marked edges span the graph");
        net
    }

    #[test]
    fn builds_a_spanning_tree_on_random_graphs() {
        for (i, n) in [8usize, 16, 40, 64].iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            // Unweighted: every edge has weight 1.
            let g = generators::connected_gnp(*n, 0.15, 1, &mut rng);
            build_and_verify(g, 200 + i as u64);
        }
    }

    #[test]
    fn builds_on_structured_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        build_and_verify(generators::ring(20, 1, &mut rng), 1);
        build_and_verify(generators::complete(14, 1, &mut rng), 2);
        build_and_verify(generators::grid(5, 5, true, 1, &mut rng), 3);
    }

    #[test]
    fn builds_a_forest_on_disconnected_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = Graph::new(24);
        for offset in [0usize, 12] {
            let sub = generators::connected_gnp(12, 0.3, 1, &mut rng);
            for e in sub.live_edges() {
                let edge = sub.edge(e);
                g.add_edge(edge.u + offset, edge.v + offset, 1);
            }
        }
        let mut net = Network::new(g, NetworkConfig::default());
        build_st(&mut net, &cfg(), &mut rng).unwrap();
        let forest = net.marked_forest_snapshot();
        verify_spanning_forest(net.graph(), &forest).unwrap();
        assert_eq!(forest.edges.len(), 22);
    }

    #[test]
    fn tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(6);
        for n in [1usize, 2, 3, 4] {
            let g = generators::connected_gnp(n, 1.0, 1, &mut rng);
            let mut net = Network::new(g, NetworkConfig::default());
            build_st(&mut net, &cfg(), &mut rng).unwrap();
            verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn cheaper_than_build_mst_on_the_same_graph() {
        // Lemma 6 vs Lemma 3: Build ST saves a log n / log log n factor. On a
        // moderate graph the message counts should already separate clearly.
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::connected_gnp(48, 0.2, 1000, &mut rng);
        let mut st_net = Network::new(g.clone(), NetworkConfig::default());
        let mut mst_net = Network::new(g, NetworkConfig::default());
        build_st(&mut st_net, &cfg(), &mut rng).unwrap();
        crate::build_mst::build_mst(&mut mst_net, &cfg(), &mut rng).unwrap();
        assert!(
            st_net.cost().messages < mst_net.cost().messages,
            "ST {} msgs vs MST {} msgs",
            st_net.cost().messages,
            mst_net.cost().messages
        );
    }

    #[test]
    fn same_seed_builds_are_bit_identical() {
        // Regression pin for the cycle-handshake bookkeeping: the nomination
        // tally is iterated when unmarking doubly-nominated edges, so it must
        // be an ordered container (it was a `HashMap`, whose per-instance
        // hasher state makes iteration order differ between two same-seed
        // runs in one process). Same seed ⇒ identical costs and forest.
        for seed in 0..4 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let g = generators::complete(12, 1, &mut StdRng::seed_from_u64(99 + seed));
            let mut net_a = Network::new(g.clone(), NetworkConfig::default());
            let mut net_b = Network::new(g, NetworkConfig::default());
            build_st(&mut net_a, &cfg(), &mut rng_a).unwrap();
            build_st(&mut net_b, &cfg(), &mut rng_b).unwrap();
            assert_eq!(net_a.cost(), net_b.cost());
            assert_eq!(net_a.phase_ledger(), net_b.phase_ledger());
            assert_eq!(net_a.marked_forest_snapshot(), net_b.marked_forest_snapshot());
        }
    }

    #[test]
    fn never_leaves_a_marked_cycle_behind() {
        // Dense unweighted graphs maximise the chance of cycle formation;
        // after every build the marked set must be a forest (validate() is
        // also asserted inside the algorithm in debug builds).
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::complete(10, 1, &mut rng);
            let net = build_and_verify(g, 300 + seed);
            assert!(net.forest().validate(net.graph()).is_ok());
        }
    }
}
