//! `HP-TestOut` — high-probability detection of an edge leaving a tree.
//!
//! §2.2 of the paper. Orient every edge from its smaller-ID endpoint to its
//! larger-ID endpoint. For a tree `T`, let `E↑(T)` be the (oriented) edges
//! whose tail lies in `T` and `E↓(T)` those whose head lies in `T`.
//! Observation 1: some edge leaves `T` **iff** `E↑(T) ≠ E↓(T)`.
//!
//! Set equality is tested with one broadcast-and-echo: the root broadcasts a
//! random evaluation point `α ∈ Z_p`; every node evaluates the characteristic
//! polynomials of its local out-edge and in-edge multisets (restricted to the
//! weight interval under test) at `α`; products are combined up the tree; the
//! root compares the two products. If the sets are equal the comparison always
//! says "equal"; if they differ it errs with probability at most `B/p` where
//! `B` bounds the multiset sizes (Schwartz–Zippel).
//!
//! We use the predetermined prime `p = 2^61 − 1` (the paper explicitly allows
//! a predetermined prime when the word size is known to all nodes), so the
//! error is at most `B/2^61` — far below any ε(n) the algorithms request —
//! and step 0 (computing `maxEdgeNum` and `B` to pick `p`) is unnecessary.
//! Edge numbers enter as their 64-bit keys
//! ([`kkt_graphs::EdgeNumber::as_u64_key`]) reduced mod `p`.

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeAggregate};
use kkt_congest::{BitSized, Network, NodeView};
use kkt_graphs::NodeId;
use kkt_hashing::set_equality::EdgeSetPoly;
use rand::Rng;

use crate::error::CoreError;
use crate::weights::{augmented_weight, WeightInterval};

/// The predetermined prime `2^61 − 1` used for the polynomial identity test.
pub const HP_PRIME: u64 = (1u64 << 61) - 1;

/// Broadcast payload of HP-TestOut: the evaluation point and the interval.
#[derive(Debug, Clone, Copy)]
pub struct HpDown {
    /// Random evaluation point `α ∈ Z_p`.
    pub alpha: u64,
    /// Interval of augmented weights under test.
    pub interval: WeightInterval,
}

impl HpDown {
    /// A probe of `interval` at a fresh random evaluation point.
    pub(crate) fn random<R: Rng + ?Sized>(interval: WeightInterval, rng: &mut R) -> Self {
        HpDown { alpha: rng.gen_range(0..HP_PRIME), interval }
    }
}

impl BitSized for HpDown {
    fn bit_size(&self) -> usize {
        self.alpha.bit_size() + self.interval.lo.bit_size() + self.interval.hi.bit_size()
    }
}

/// Echo payload: the two partial products over the subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpUp {
    up_product: u64,
    down_product: u64,
}

impl BitSized for HpUp {
    fn bit_size(&self) -> usize {
        self.up_product.bit_size() + self.down_product.bit_size()
    }
}

/// The HP-TestOut aggregate.
#[derive(Debug, Clone, Copy)]
pub struct HpAggregate {
    pub(crate) down: HpDown,
}

impl TreeAggregate for HpAggregate {
    type Down = HpDown;
    type Up = HpUp;
    type Output = bool;

    fn root_payload(&self, _root_view: &NodeView) -> HpDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &HpDown) -> HpUp {
        let ctx = EdgeSetPoly::new(HP_PRIME, down.alpha);
        let in_interval =
            |e: &kkt_congest::IncidentEdge| down.interval.contains(augmented_weight(view, e));
        // Out-edges: this node is the smaller-ID endpoint (the tail of the
        // canonical orientation). In-edges: it is the head.
        let out_keys = view
            .incident
            .iter()
            .filter(|e| in_interval(e) && view.id < e.neighbor_id)
            .map(|e| crate::weights::compact_key(e.edge_number, view.id_bits));
        let in_keys = view
            .incident
            .iter()
            .filter(|e| in_interval(e) && view.id > e.neighbor_id)
            .map(|e| crate::weights::compact_key(e.edge_number, view.id_bits));
        HpUp { up_product: ctx.eval(out_keys).value(), down_product: ctx.eval(in_keys).value() }
    }

    fn combine(&self, _view: &NodeView, acc: HpUp, child: HpUp) -> HpUp {
        HpUp {
            up_product: kkt_hashing::modular::mul_mod(acc.up_product, child.up_product, HP_PRIME),
            down_product: kkt_hashing::modular::mul_mod(
                acc.down_product,
                child.down_product,
                HP_PRIME,
            ),
        }
    }

    fn finish(&self, _root_view: &NodeView, _down: &HpDown, total: HpUp) -> bool {
        total.up_product != total.down_product
    }
}

/// Runs `HP-TestOut(x, j, k)`: one broadcast-and-echo; returns `true` iff an
/// edge with augmented weight inside `interval` leaves the marked tree
/// containing `root`, with one-sided error: a `true` answer may be missed with
/// probability ≤ `B/2^61`, a `false` answer is only wrong with that same tiny
/// probability, and when no leaving edge exists the answer is always `false`.
pub fn hp_test_out<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    interval: WeightInterval,
    rng: &mut R,
) -> Result<bool, CoreError> {
    Ok(run_broadcast_echo(net, root, HpAggregate { down: HpDown::random(interval, rng) })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spanning_tree_network(n: usize, p: f64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        net
    }

    #[test]
    fn spanning_tree_has_no_leaving_edge() {
        let mut net = spanning_tree_network(40, 0.15, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            assert!(!hp_test_out(&mut net, 5, WeightInterval::everything(), &mut rng).unwrap());
        }
    }

    #[test]
    fn partial_tree_always_detected() {
        // Mark only half the MST: the fragment containing node 0 certainly has
        // leaving edges, and HP-TestOut must find them essentially always.
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::connected_gnp(40, 0.2, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges[..mst.edges.len() / 2]);
        for _ in 0..50 {
            assert!(hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap());
        }
    }

    #[test]
    fn singleton_node_with_edges_is_detected() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::connected_gnp(15, 0.3, 10, &mut rng);
        let mut net = Network::new(g, NetworkConfig::default());
        for _ in 0..20 {
            assert!(hp_test_out(&mut net, 3, WeightInterval::everything(), &mut rng).unwrap());
        }
    }

    #[test]
    fn isolated_node_has_no_leaving_edge() {
        let mut g = Graph::new(3);
        g.add_edge(1, 2, 5);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap());
    }

    #[test]
    fn weight_interval_filters_the_cut() {
        // Two components joined by edges of weight 50 and 60 only.
        let mut g = Graph::new(6);
        let marked = vec![
            g.add_edge(0, 1, 1).unwrap(),
            g.add_edge(1, 2, 2).unwrap(),
            g.add_edge(3, 4, 3).unwrap(),
            g.add_edge(4, 5, 4).unwrap(),
        ];
        g.add_edge(2, 3, 50).unwrap();
        g.add_edge(0, 5, 60).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&marked);
        let id_bits = net.id_bits();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(
            !hp_test_out(&mut net, 0, WeightInterval::up_to_raw(49, id_bits), &mut rng).unwrap()
        );
        assert!(hp_test_out(&mut net, 0, WeightInterval::up_to_raw(55, id_bits), &mut rng).unwrap());
        assert!(hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap());
        // An interval covering only the heavier cut edge.
        let heavy_only = WeightInterval::new(
            crate::weights::pack_weight(51, kkt_graphs::EdgeNumber::from_ids(1, 2), id_bits),
            u128::MAX,
        );
        assert!(hp_test_out(&mut net, 0, heavy_only, &mut rng).unwrap());
    }

    #[test]
    fn cost_is_one_broadcast_echo_with_word_sized_messages() {
        let mut net = spanning_tree_network(25, 0.2, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let before = net.cost();
        hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap();
        let delta = net.cost() - before;
        assert_eq!(delta.broadcast_echoes, 1);
        assert_eq!(delta.messages, 2 * 24);
        assert!(delta.max_message_bits <= 4 * 64 + 8, "messages stay within O(w) bits");
    }

    #[test]
    fn detection_probability_is_essentially_one() {
        // Lemma-level check: over many random fragments with non-empty cuts,
        // HP-TestOut must never miss (error probability ~2^-55 here).
        let mut rng = StdRng::seed_from_u64(10);
        for seed in 0..20 {
            let g = generators::connected_gnp(20, 0.25, 50, &mut rng);
            let mst = kruskal(&g);
            let mut net = Network::new(g, NetworkConfig::default());
            net.mark_all(&mst.edges[..seed % mst.edges.len()]);
            let root = 0;
            let side = net.forest().tree_membership(net.graph(), root);
            let cut_nonempty = !net.graph().cut(&side).is_empty();
            let detected =
                hp_test_out(&mut net, root, WeightInterval::everything(), &mut rng).unwrap();
            assert_eq!(detected, cut_nonempty, "seed {seed}");
        }
    }
}
