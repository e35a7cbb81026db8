//! Leaf-initiated fragment leader election (and cycle detection).
//!
//! §3.3 of the paper elects a fragment leader with the saturation technique of
//! Korach–Rotem–Santoro: every leaf behaves as if it had just received a
//! broadcast and echoes towards its only tree neighbour; every internal node
//! that has heard from all but one tree neighbour echoes to the remaining one.
//! The echoes converge either on a single node (which becomes leader) or on
//! two adjacent nodes (the higher identifier wins). Each node sends at most
//! one message, so a fragment of size `s` pays at most `s` messages.
//!
//! §4.2 reuses the same run for *cycle detection* during `Build ST`: if the
//! marked edges of a fragment contain a cycle, saturation stalls on the cycle
//! and the cycle nodes are exactly those that fail to hear from two of their
//! tree neighbours. [`LeaderElection::cycle_nodes`] exposes that set.

use std::collections::BTreeSet;

use kkt_graphs::NodeId;

use crate::engine::{Engine, Outbox, Protocol};
use crate::error::CongestError;
use crate::model::{Network, NodeView};

/// Per-node program of the saturation election.
#[derive(Debug, Clone, Default)]
struct Saturation {
    heard_from: BTreeSet<NodeId>,
    sent_to: Option<NodeId>,
    is_leader: bool,
}

impl Saturation {
    fn maybe_send(&mut self, view: &NodeView, out: &mut Outbox<bool>) {
        let degree = view.tree_degree();
        if self.sent_to.is_none() && self.heard_from.len() + 1 == degree {
            let missing = view
                .tree_edges()
                .map(|e| e.neighbor)
                .find(|x| !self.heard_from.contains(x))
                .expect("exactly one tree neighbour is missing");
            out.send(missing, true);
            self.sent_to = Some(missing);
        }
    }
}

impl Protocol for Saturation {
    type Msg = bool;
    type Output = ();

    fn on_start(&mut self, view: &NodeView, out: &mut Outbox<bool>) {
        if view.tree_degree() == 0 {
            // A singleton fragment elects itself without any communication.
            self.is_leader = true;
        } else {
            self.maybe_send(view, out);
        }
    }

    fn on_message(&mut self, from: NodeId, _msg: bool, view: &NodeView, out: &mut Outbox<bool>) {
        self.heard_from.insert(from);
        let degree = view.tree_degree();
        if self.heard_from.len() == degree {
            match self.sent_to {
                // Saturated without ever sending: unique convergence point.
                None => self.is_leader = true,
                // The echo crossed on the edge to `partner`: both endpoints are
                // candidates and the higher identifier wins. Both sides make
                // the same comparison from KT1 knowledge, so exactly one wins.
                Some(partner) => {
                    if partner == from {
                        let partner_id = view
                            .edge_to(partner)
                            .map(|e| e.neighbor_id)
                            .expect("partner is a neighbour");
                        self.is_leader = view.id > partner_id;
                    }
                }
            }
        } else {
            self.maybe_send(view, out);
        }
    }
}

/// The outcome of one network-wide saturation run: every fragment whose marked
/// edges form a tree elects exactly one leader; fragments whose marked edges
/// contain a cycle elect nobody and expose the cycle nodes instead.
#[derive(Debug, Clone)]
pub struct LeaderElection {
    /// Per node: did it elect itself?
    pub is_leader: Vec<bool>,
    /// Per node: tree neighbours it never heard from (non-empty only on
    /// cycles or when the node itself terminated the election).
    pub unheard: Vec<Vec<NodeId>>,
    /// Messages spent by the election.
    pub messages: u64,
}

impl LeaderElection {
    /// All elected leaders, ascending.
    pub fn leaders(&self) -> Vec<NodeId> {
        self.is_leader.iter().enumerate().filter_map(|(x, &l)| l.then_some(x)).collect()
    }

    /// Nodes that failed to hear from exactly two tree neighbours — by the
    /// argument in §4.2 these are exactly the nodes lying on a marked cycle.
    pub fn cycle_nodes(&self) -> Vec<NodeId> {
        self.unheard.iter().enumerate().filter_map(|(x, u)| (u.len() == 2).then_some(x)).collect()
    }
}

/// Runs the saturation election over every fragment simultaneously.
pub fn elect_leaders(net: &mut Network) -> Result<LeaderElection, CongestError> {
    let n = net.node_count();
    let (programs, stats) = net.span(kkt_obs::Phase::LeaderElection, |net| {
        Engine::run_all(net, |_| Saturation::default())
    })?;
    let mut is_leader = vec![false; n];
    let mut unheard = vec![Vec::new(); n];
    for x in 0..n {
        let default = Saturation::default();
        let p = programs.get(x).unwrap_or(&default);
        is_leader[x] = p.is_leader;
        unheard[x] = net
            .view(x)
            .tree_edges()
            .map(|e| e.neighbor)
            .filter(|y| !p.heard_from.contains(y))
            .collect();
    }
    Ok(LeaderElection { is_leader, unheard, messages: stats.messages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkConfig;
    use kkt_graphs::{generators, kruskal, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mst_network(n: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, 0.2, 50, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        net
    }

    #[test]
    fn one_leader_per_spanning_tree() {
        for seed in 0..5 {
            let mut net = mst_network(40, seed);
            let outcome = elect_leaders(&mut net).unwrap();
            assert_eq!(outcome.leaders().len(), 1, "seed {seed}");
            let leader_of_13 =
                net.forest().tree_of(net.graph(), 13).into_iter().find(|&y| outcome.is_leader[y]);
            assert_eq!(leader_of_13, Some(outcome.leaders()[0]));
            assert!(outcome.messages <= 40, "each node sends at most one message");
            assert!(outcome.cycle_nodes().is_empty());
        }
    }

    #[test]
    fn every_fragment_elects_its_own_leader() {
        // Mark only part of the MST so several fragments exist.
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::connected_gnp(30, 0.2, 50, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges[..10]);
        let outcome = elect_leaders(&mut net).unwrap();
        let reps = net.forest().fragment_representatives(net.graph());
        assert_eq!(outcome.leaders().len(), reps.len());
        for &r in &reps {
            let leader = net
                .forest()
                .tree_of(net.graph(), r)
                .into_iter()
                .find(|&y| outcome.is_leader[y])
                .expect("every tree fragment has a leader");
            // The leader is in the same fragment.
            assert!(net.forest().tree_of(net.graph(), r).contains(&leader));
        }
    }

    #[test]
    fn singletons_elect_themselves_silently() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::connected_gnp(12, 0.3, 10, &mut rng);
        let mut net = Network::new(g, NetworkConfig::default());
        let outcome = elect_leaders(&mut net).unwrap();
        assert_eq!(outcome.leaders().len(), 12);
        assert_eq!(outcome.messages, 0);
    }

    #[test]
    fn two_node_fragment_elects_higher_id() {
        let mut g = Graph::with_ids(vec![5, 17]);
        let e = g.add_edge(0, 1, 1).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark(e);
        let outcome = elect_leaders(&mut net).unwrap();
        assert_eq!(outcome.leaders(), vec![1], "node with ID 17 wins");
    }

    #[test]
    fn path_elects_exactly_one_even_under_async_timing() {
        let mut g = Graph::new(7);
        let mut edges = Vec::new();
        for i in 0..6 {
            edges.push(g.add_edge(i, i + 1, 1).unwrap());
        }
        for seed in 0..10 {
            let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(seed, 9));
            net.mark_all(&edges);
            let outcome = elect_leaders(&mut net).unwrap();
            assert_eq!(outcome.leaders().len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn cycle_is_detected_instead_of_electing() {
        // Mark a 4-cycle with two pendant paths; the cycle stalls saturation.
        let mut g = Graph::new(7);
        let c01 = g.add_edge(0, 1, 1).unwrap();
        let c12 = g.add_edge(1, 2, 1).unwrap();
        let c23 = g.add_edge(2, 3, 1).unwrap();
        let c30 = g.add_edge(3, 0, 1).unwrap();
        let p4 = g.add_edge(1, 4, 1).unwrap();
        let p5 = g.add_edge(4, 5, 1).unwrap();
        let p6 = g.add_edge(2, 6, 1).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&[c01, c12, c23, c30, p4, p5, p6]);
        let outcome = elect_leaders(&mut net).unwrap();
        assert!(outcome.leaders().is_empty(), "a cyclic fragment elects nobody");
        let mut cycle = outcome.cycle_nodes();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![0, 1, 2, 3]);
    }
}
