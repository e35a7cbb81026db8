//! `Build MST` — construct a minimum spanning forest from scratch with
//! `O(n log² n / log log n)` messages (§3.3 of the paper, Lemma 3).
//!
//! The algorithm is Borůvka's: nodes start as singleton fragments; in each
//! phase every non-maximal fragment elects a leader (saturation election,
//! `O(|T|)` messages), the leader runs `FindMin-C` to locate the fragment's
//! minimum outgoing edge (`O(|T| log n / log log n)` messages), and the two
//! endpoints of a found edge mark it (`Add Edge`, one message across the
//! edge). Fragments merge along marked edges; with constant probability a
//! fragment succeeds per phase, so `O(log n)` phases suffice w.h.p.
//!
//! Because fragments are vertex-disjoint, per-phase message counts add up to
//! `O(n log n / log log n)` and the phases multiply in another `O(log n)`.
//! The simulator runs fragments sequentially within a phase, so the *time*
//! counter accumulates the per-fragment makespans; the message counter — the
//! quantity Theorem 1.1 is about — is unaffected by that scheduling choice.

use kkt_congest::{leader::elect_leaders, BitSized, Network, Phase};
use kkt_graphs::NodeId;
use rand::Rng;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::find_min::find_min;
use crate::search::Budget;
use crate::weights::FoundEdge;

/// Per-phase progress information, exposed for experiments and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phase number (1-based).
    pub phase: u32,
    /// Fragments at the start of the phase.
    pub fragments_before: usize,
    /// Fragments at the end of the phase.
    pub fragments_after: usize,
    /// Edges added during the phase.
    pub edges_added: usize,
}

/// Outcome of a construction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOutcome {
    /// Per-phase progress.
    pub phases: Vec<PhaseReport>,
    /// Total edges marked.
    pub edges_marked: usize,
}

/// Runs `Build MST` on the network (which must start with no marked edges, or
/// with a partial forest to be completed). On success the marked edges form
/// the minimum spanning forest of the graph w.h.p.
///
/// # Errors
///
/// Returns [`CoreError::PhaseBudgetExhausted`] if the phase cap is hit before
/// every fragment is maximal (probability `n^{-c}` with default parameters).
pub fn build_mst<R: Rng + ?Sized>(
    net: &mut Network,
    config: &KktConfig,
    rng: &mut R,
) -> Result<BuildOutcome, CoreError> {
    boruvka(net, config, |net, leaders| {
        // Each leader runs FindMin-C on its own fragment; fragments are
        // vertex-disjoint so the searches do not interact.
        let mut chosen = Vec::new();
        for &leader in leaders {
            if let Some(found) = find_min(net, leader, Budget::Constant, config, rng)?.0.edge() {
                chosen.push(found);
            }
        }
        // Several fragments may choose the same edge: it is marked once.
        Ok(chosen.iter().filter(|found| add_edge(net, found)).count())
    })
}

/// Borůvka's phase loop, shared by both builds: while some fragment is not
/// maximal, elect one leader per fragment (all fragments in parallel) and
/// hand the leaders to `run_phase`, which searches from them, marks edges
/// and returns how many it added. Fails with
/// [`CoreError::PhaseBudgetExhausted`] if the phase cap is hit first.
pub(crate) fn boruvka(
    net: &mut Network,
    config: &KktConfig,
    mut run_phase: impl FnMut(&mut Network, &[NodeId]) -> Result<usize, CoreError>,
) -> Result<BuildOutcome, CoreError> {
    let target_fragments = net.graph().component_count();
    let cap = config.phase_cap(net.node_count());
    let mut outcome = BuildOutcome { phases: Vec::new(), edges_marked: net.forest().len() };
    let fragments = |net: &Network| net.forest().fragment_representatives(net.graph()).len();

    for phase in 1..=cap {
        let fragments_before = fragments(net);
        if fragments_before == target_fragments {
            return Ok(outcome);
        }
        let leaders = elect_leaders(net)?.leaders();
        let edges_added = run_phase(net, &leaders)?;
        outcome.edges_marked += edges_added;
        let fragments_after = fragments(net);
        outcome.phases.push(PhaseReport { phase, fragments_before, fragments_after, edges_added });
        debug_assert!(net.forest().validate(net.graph()).is_ok());
    }

    let fragments_left = fragments(net);
    if fragments_left == target_fragments {
        Ok(outcome)
    } else {
        Err(CoreError::PhaseBudgetExhausted { phases: cap, fragments_left })
    }
}

/// The `Add Edge` step that ends every successful search: the endpoint that
/// learned the result tells the other endpoint across `found`'s edge (one
/// message carrying the edge number), and both mark it. Returns whether the
/// edge was newly marked.
pub(crate) fn add_edge(net: &mut Network, found: &FoundEdge) -> bool {
    net.cost_mut()
        .record_message_in(Phase::Announce, found.edge_number.as_u128().bit_size() as u64);
    let new = !net.forest().is_marked(found.edge);
    if new {
        net.mark(found.edge);
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, verify_mst, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    fn build_and_verify(g: Graph, seed: u64) -> Network {
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        build_mst(&mut net, &cfg(), &mut rng).expect("construction converges");
        let forest = net.marked_forest_snapshot();
        verify_mst(net.graph(), &forest).expect("marked edges are the MST");
        net
    }

    #[test]
    fn builds_the_mst_on_random_graphs() {
        for (i, n) in [8usize, 16, 40, 64].iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let g = generators::connected_gnp(*n, 0.15, 1000, &mut rng);
            build_and_verify(g, 100 + i as u64);
        }
    }

    #[test]
    fn builds_the_mst_on_structured_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        build_and_verify(generators::ring(16, 50, &mut rng), 1);
        build_and_verify(generators::grid(4, 5, false, 30, &mut rng), 2);
        build_and_verify(generators::complete(12, 20, &mut rng), 3);
        build_and_verify(generators::preferential_attachment(30, 2, 40, &mut rng), 4);
    }

    #[test]
    fn handles_duplicate_raw_weights() {
        // All weights equal: the tie-break alone decides the MST.
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::connected_gnp(24, 0.3, 1, &mut rng);
        build_and_verify(g, 9);
    }

    #[test]
    fn builds_a_forest_on_disconnected_graphs() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut g = Graph::new(20);
        // Two components of 10 nodes each.
        for offset in [0usize, 10] {
            let sub = generators::connected_gnp(10, 0.3, 100, &mut rng);
            for e in sub.live_edges() {
                let edge = sub.edge(e);
                g.add_edge(edge.u + offset, edge.v + offset, edge.weight);
            }
        }
        let mut net = Network::new(g, NetworkConfig::default());
        build_mst(&mut net, &cfg(), &mut rng).unwrap();
        let forest = net.marked_forest_snapshot();
        verify_mst(net.graph(), &forest).unwrap();
        assert_eq!(forest.edges.len(), 18);
    }

    #[test]
    fn single_node_and_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3] {
            let g = generators::connected_gnp(n, 0.5, 10, &mut rng);
            let mut net = Network::new(g, NetworkConfig::default());
            build_mst(&mut net, &cfg(), &mut rng).unwrap();
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::connected_gnp(64, 0.2, 500, &mut rng);
        let mut net = Network::new(g, NetworkConfig::default());
        let outcome = build_mst(&mut net, &cfg(), &mut rng).unwrap();
        // With per-fragment success probability well above 1/2, 64 nodes
        // should merge within ~3·lg n phases.
        assert!(outcome.phases.len() <= 20, "{} phases", outcome.phases.len());
        // Fragment counts are non-increasing across phases.
        for w in outcome.phases.windows(2) {
            assert!(w[1].fragments_before <= w[0].fragments_before);
        }
    }

    #[test]
    fn message_count_is_independent_of_density() {
        // Same n, very different m: the KKT construction cost must not grow
        // proportionally to m (that is the whole point of the paper).
        let n = 48;
        let mut rng = StdRng::seed_from_u64(13);
        let sparse = generators::connected_with_edges(n, n + 10, 300, &mut rng);
        let dense = generators::complete(n, 300, &mut rng);
        let m_sparse = sparse.edge_count() as f64;
        let m_dense = dense.edge_count() as f64;
        assert!(m_dense > 15.0 * m_sparse);

        let run = |g: Graph, seed| {
            let mut net = Network::new(g, NetworkConfig::default());
            let mut r = StdRng::seed_from_u64(seed);
            build_mst(&mut net, &cfg(), &mut r).unwrap();
            verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
            net.cost().messages as f64
        };
        let msgs_sparse = run(sparse, 1);
        let msgs_dense = run(dense, 2);
        let ratio = msgs_dense / msgs_sparse;
        assert!(
            ratio < 4.0,
            "a ~{}x density increase should not inflate messages by {ratio:.1}x",
            (m_dense / m_sparse).round()
        );
    }

    #[test]
    fn completes_a_partially_marked_forest() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = generators::connected_gnp(30, 0.2, 200, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        // Pre-mark half the true MST, then let Build MST finish the job.
        net.mark_all(&mst.edges[..mst.edges.len() / 2]);
        build_mst(&mut net, &cfg(), &mut rng).unwrap();
        verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();
    }
}
