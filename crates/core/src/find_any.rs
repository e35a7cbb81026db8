//! `FindAny` — find *some* edge leaving a tree in an expected constant number
//! of broadcast-and-echoes (§4.1 of the paper).
//!
//! The procedure first confirms with `HP-TestOut` that the cut is non-empty
//! (so "no edge" answers are always correct), then repeatedly attempts the
//! isolation trick of Lemma 4:
//!
//! 1. broadcast a pairwise-independent hash `h : edge numbers → [r]` with
//!    `r` a power of two larger than the sum of tree degrees;
//! 2. every node XORs, per prefix level `ℓ`, the parity of its incident edges
//!    hashing below `2^ℓ`; the per-level parities of the *cut* survive the
//!    XOR up the tree (internal edges cancel), and the root picks the lowest
//!    level `min` with odd parity;
//! 3. every node XORs the edge keys of its incident edges hashing below
//!    `2^min`; if exactly one cut edge hashes that low — which happens with
//!    probability ≥ 1/16 — the XOR over the tree is that edge's key;
//! 4. the candidate key is broadcast back down and the number of tree
//!    endpoints incident to it is counted; the attempt succeeds iff that
//!    count is 1.
//!
//! With the [`Budget::Whp`] budget `FindAny` retries attempts until success
//! (expected 16 ≈ O(1) attempts, capped at `16·ln ε(n)^{-1}`); `FindAny-C`
//! ([`Budget::Constant`]) performs a single attempt, so its worst-case cost
//! matches `FindAny`'s expected cost (Lemma 5). The procedure is implemented
//! once, as the `AnySearch` state machine; [`crate::search`] runs it alone or
//! in concurrent waves.

use kkt_congest::broadcast_echo::TreeAggregate;
use kkt_congest::{BitSized, Network, NodeView, Phase};
use kkt_graphs::{EdgeNumber, NodeId};
use kkt_hashing::PairwiseHash;
use rand::Rng;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::hp_test_out::HpDown;
use crate::search::{drive, Budget, Probe, Reply, Search, SearchOutcome, Step};
use crate::weights::WeightInterval;

/// Broadcast payload of the prefix-parity step: the pairwise hash function.
#[derive(Debug, Clone, Copy)]
pub struct PrefixDown {
    pub(crate) a: u64,
    pub(crate) b: u64,
    pub(crate) range: u64,
    /// Restrict attention to edges inside this interval (the paper's
    /// `[j, k]`; the searches send the full range).
    pub(crate) interval: WeightInterval,
}

impl BitSized for PrefixDown {
    fn bit_size(&self) -> usize {
        self.a.bit_size()
            + self.b.bit_size()
            + self.range.bit_size()
            + self.interval.lo.bit_size()
            + self.interval.hi.bit_size()
    }
}

impl PrefixDown {
    fn hash(&self) -> PairwiseHash {
        PairwiseHash::from_parts(self.a, self.b, self.range)
    }
}

/// Step 3a–3c: per-level parities of sampled incident edges, XOR-combined.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixParity {
    pub(crate) down: PrefixDown,
}

impl TreeAggregate for PrefixParity {
    type Down = PrefixDown;
    type Up = u64;
    type Output = u64;

    fn root_payload(&self, _root_view: &NodeView) -> PrefixDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &PrefixDown) -> u64 {
        let hash = down.hash();
        let mut word = 0u64;
        for e in &view.incident {
            if !down.interval.contains(crate::weights::augmented_weight(view, e)) {
                continue;
            }
            let value = hash.eval(crate::weights::compact_key(e.edge_number, view.id_bits));
            // The edge contributes to every prefix level that contains its
            // hash value: levels ℓ with value < 2^ℓ, i.e. ℓ > log2(value).
            let first_level = 64 - value.leading_zeros();
            for level in first_level..=hash.levels() {
                if level < 64 {
                    word ^= 1u64 << level;
                }
            }
        }
        word
    }

    fn combine(&self, _view: &NodeView, acc: u64, child: u64) -> u64 {
        acc ^ child
    }

    fn finish(&self, _root_view: &NodeView, _down: &PrefixDown, total: u64) -> u64 {
        total
    }
}

/// Broadcast payload of the key-isolation step: the hash plus the chosen level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IsolateDown {
    pub(crate) prefix: PrefixDown,
    pub(crate) level: u32,
}

impl BitSized for IsolateDown {
    fn bit_size(&self) -> usize {
        self.prefix.bit_size() + self.level.bit_size()
    }
}

/// Step 3d: XOR of the keys of incident edges hashing below `2^level`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IsolateKeys {
    pub(crate) down: IsolateDown,
}

impl TreeAggregate for IsolateKeys {
    type Down = IsolateDown;
    type Up = u64;
    type Output = u64;

    fn root_payload(&self, _root_view: &NodeView) -> IsolateDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &IsolateDown) -> u64 {
        let hash = down.prefix.hash();
        let mut acc = 0u64;
        for e in &view.incident {
            if !down.prefix.interval.contains(crate::weights::augmented_weight(view, e)) {
                continue;
            }
            let key = crate::weights::compact_key(e.edge_number, view.id_bits);
            if hash.in_prefix(key, down.level) {
                acc ^= key;
            }
        }
        acc
    }

    fn combine(&self, _view: &NodeView, acc: u64, child: u64) -> u64 {
        acc ^ child
    }

    fn finish(&self, _root_view: &NodeView, _down: &IsolateDown, total: u64) -> u64 {
        total
    }
}

/// Broadcast payload of the verification step: the candidate edge key.
#[derive(Debug, Clone, Copy)]
pub struct VerifyDown {
    pub(crate) key: u64,
    pub(crate) interval: WeightInterval,
}

impl BitSized for VerifyDown {
    fn bit_size(&self) -> usize {
        self.key.bit_size() + self.interval.lo.bit_size() + self.interval.hi.bit_size()
    }
}

/// Echo of the verification step: how many tree endpoints recognise the key,
/// and the full edge identification supplied by a recognising endpoint.
#[derive(Debug, Clone, Copy)]
pub struct VerifyUp {
    endpoints: u64,
    edge_number: Option<u128>,
    weight: u64,
}

impl BitSized for VerifyUp {
    fn bit_size(&self) -> usize {
        self.endpoints.bit_size() + self.edge_number.bit_size() + self.weight.bit_size()
    }
}

/// The verification aggregate, shared by `FindAny` (step 4) and `FindMin`'s
/// final identification step. Its output is the recognised edge's number
/// and weight and how many tree endpoints recognised it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifyCandidate {
    pub(crate) down: VerifyDown,
}

impl TreeAggregate for VerifyCandidate {
    type Down = VerifyDown;
    type Up = VerifyUp;
    type Output = Option<(EdgeNumber, u64, u64)>;

    fn root_payload(&self, _root_view: &NodeView) -> VerifyDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &VerifyDown) -> VerifyUp {
        let mut up = VerifyUp { endpoints: 0, edge_number: None, weight: 0 };
        for e in &view.incident {
            if !down.interval.contains(crate::weights::augmented_weight(view, e)) {
                continue;
            }
            if crate::weights::compact_key(e.edge_number, view.id_bits) == down.key {
                up.endpoints += 1;
                up.edge_number = Some(e.edge_number.as_u128());
                up.weight = e.weight;
            }
        }
        up
    }

    fn combine(&self, _view: &NodeView, acc: VerifyUp, child: VerifyUp) -> VerifyUp {
        VerifyUp {
            endpoints: acc.endpoints + child.endpoints,
            edge_number: acc.edge_number.or(child.edge_number),
            weight: if acc.edge_number.is_some() { acc.weight } else { child.weight },
        }
    }

    fn finish(
        &self,
        _root_view: &NodeView,
        _down: &VerifyDown,
        total: VerifyUp,
    ) -> Option<(EdgeNumber, u64, u64)> {
        total.edge_number.map(|packed| {
            let number = EdgeNumber::from_ids((packed >> 64) as u64, packed as u64);
            (number, total.weight, total.endpoints)
        })
    }
}

/// `FindAny` as a resumable state machine, driven by [`crate::search`].
#[derive(Debug)]
pub(crate) struct AnySearch {
    interval: WeightInterval,
    degree_bound: u64,
    attempts: u32,
    tried: u32,
    awaiting: Awaiting,
}

/// The probe an [`AnySearch`] has in flight.
#[derive(Debug, Clone, Copy)]
enum Awaiting {
    /// Nothing yet: the search opens with the emptiness check.
    Start,
    /// HP-TestOut: does any edge leave the tree?
    Empty,
    /// Prefix parities under this attempt's hash.
    Prefix(PrefixDown),
    /// The XOR of the keys hashing below the lowest odd level.
    Isolate,
    /// Verification of the isolated candidate key.
    Verify,
}

impl AnySearch {
    pub(crate) fn new(n: usize, budget: Budget, config: &KktConfig) -> AnySearch {
        // The pairwise hash range must exceed the sum of tree degrees; that
        // sum is below n², which every node knows (KT1), so no extra
        // broadcast-and-echo is needed to size the hash.
        let n64 = n as u64;
        AnySearch {
            interval: WeightInterval::everything(),
            degree_bound: n64.saturating_mul(n64.saturating_sub(1)).max(2),
            attempts: match budget {
                Budget::Whp => config.findany_budget(n).max(1),
                Budget::Constant => 1,
            },
            tried: 0,
            awaiting: Awaiting::Start,
        }
    }

    /// Opens the next isolation attempt (steps 3–5 of the paper) by sampling
    /// a fresh hash, or gives up once the budget is spent.
    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step {
        if self.tried == self.attempts {
            return Step::Done(SearchOutcome::GaveUp);
        }
        self.tried += 1;
        let range = (2 * self.degree_bound).next_power_of_two();
        // Only the sampled hash's range is used, but its two coin draws are
        // part of the coin stream the sealed reports pin. The broadcast
        // carries fresh coefficients, which every node normalises via
        // `from_parts`.
        let hash = PairwiseHash::random(range, rng);
        let down = PrefixDown {
            a: rng.gen::<u64>() | 1,
            b: rng.gen(),
            range: hash.range().max(range),
            interval: self.interval,
        };
        self.awaiting = Awaiting::Prefix(down);
        Step::Probe(Probe::Prefix(down))
    }
}

impl Search for AnySearch {
    fn step<R: Rng + ?Sized>(&mut self, reply: Option<Reply>, rng: &mut R) -> Step {
        match (self.awaiting, reply) {
            // Step 2: w.h.p. emptiness check; "∅" answers are then always
            // correct.
            (Awaiting::Start, None) => {
                self.awaiting = Awaiting::Empty;
                Step::Probe(Probe::Hp(HpDown::random(self.interval, rng)))
            }
            (Awaiting::Empty, Some(Reply::Flag(false))) => Step::Done(SearchOutcome::NoLeavingEdge),
            // Exactly one tree endpoint recognised the isolated key.
            (Awaiting::Verify, Some(Reply::Verified(Some((number, _, 1))))) => {
                Step::Done(SearchOutcome::Found(number))
            }
            // A non-empty cut opens the first attempt; no odd level, no
            // isolated key or a failed verification opens the next one.
            (Awaiting::Empty, Some(Reply::Flag(true)))
            | (Awaiting::Prefix(_) | Awaiting::Isolate, Some(Reply::Word(0)))
            | (Awaiting::Verify, Some(Reply::Verified(_))) => self.sample(rng),
            (Awaiting::Prefix(prefix), Some(Reply::Word(word))) => {
                self.awaiting = Awaiting::Isolate;
                Step::Probe(Probe::Isolate(IsolateDown { prefix, level: word.trailing_zeros() }))
            }
            (Awaiting::Isolate, Some(Reply::Word(key))) => {
                self.awaiting = Awaiting::Verify;
                Step::Probe(Probe::Verify(VerifyDown { key, interval: self.interval }))
            }
            _ => unreachable!("probe reply does not match the awaited step"),
        }
    }
}

/// `FindAny(x)` / `FindAny-C(x)`: some edge leaving the marked tree
/// containing `root`. Under [`Budget::Whp`] it retries isolation attempts
/// (expected O(1) broadcast-and-echoes, i.e. O(|T|) messages) and gives up
/// only with probability `n^{-c}`; under [`Budget::Constant`] it makes a
/// single attempt, which succeeds with probability ≥ 1/16 when a leaving
/// edge exists, for a worst-case cost of O(|T|) messages. Either way it
/// never returns a wrong edge, and always reports
/// [`SearchOutcome::NoLeavingEdge`] when no edge leaves. The whole search
/// bills to [`Phase::FindAnySample`] (attribution only).
pub fn find_any<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    budget: Budget,
    config: &KktConfig,
    rng: &mut R,
) -> Result<SearchOutcome, CoreError> {
    let mut search = AnySearch::new(net.node_count(), budget, config);
    net.span(Phase::FindAnySample, |net| drive(net, root, &mut search, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::FoundEdge;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    fn any(net: &mut Network, root: NodeId, budget: Budget, rng: &mut StdRng) -> SearchOutcome {
        find_any(net, root, budget, &cfg(), rng).unwrap()
    }

    /// Marks the first `marked` MST edges of a connected random graph.
    fn partial_network(n: usize, p: f64, marked: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges[..marked.min(mst.edges.len())]);
        net
    }

    fn crosses_cut(net: &Network, root: NodeId, found: &FoundEdge) -> bool {
        let side = net.forest().tree_membership(net.graph(), root);
        let (u, v) = found.endpoints;
        side[u] != side[v]
    }

    #[test]
    fn spanning_tree_returns_none() {
        let mut net = partial_network(30, 0.2, usize::MAX, 1);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(any(&mut net, 0, Budget::Whp, &mut rng), SearchOutcome::NoLeavingEdge);
        assert_eq!(any(&mut net, 0, Budget::Constant, &mut rng), SearchOutcome::NoLeavingEdge);
    }

    #[test]
    fn finds_a_cut_edge_whp() {
        for seed in 0..8 {
            let mut net = partial_network(30, 0.2, 14, seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let found = any(&mut net, 0, Budget::Whp, &mut rng)
                .edge()
                .expect("a partial fragment has leaving edges");
            assert!(crosses_cut(&net, 0, &found), "seed {seed}: returned edge must cross the cut");
        }
    }

    #[test]
    fn found_edge_is_live_and_resolvable() {
        let mut net = partial_network(25, 0.3, 10, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let found = any(&mut net, 0, Budget::Whp, &mut rng).edge().unwrap();
        assert!(net.graph().is_live(found.edge));
        assert_eq!(net.graph().edge_number(found.edge), found.edge_number);
        assert_eq!(net.graph().edge(found.edge).weight, found.weight);
    }

    #[test]
    fn find_any_c_succeeds_with_constant_probability() {
        let mut net = partial_network(24, 0.25, 12, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 150;
        let mut successes = 0;
        for _ in 0..trials {
            if let Some(found) = any(&mut net, 0, Budget::Constant, &mut rng).edge() {
                assert!(crosses_cut(&net, 0, &found));
                successes += 1;
            }
        }
        let rate = successes as f64 / trials as f64;
        assert!(rate >= 1.0 / 16.0, "FindAny-C success rate {rate} below 1/16");
    }

    #[test]
    fn single_replacement_edge_is_found() {
        // A ring: deleting any tree edge leaves exactly one replacement.
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::ring(12, 50, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        // Unmark one tree edge: the cut it opens has exactly one non-tree edge.
        let removed = mst.edges[3];
        net.unmark(removed);
        let found = any(&mut net, 0, Budget::Whp, &mut rng).edge().unwrap();
        assert!(crosses_cut(&net, 0, &found));
    }

    #[test]
    fn interval_restricted_search_respects_bounds() {
        // Two 3-node paths joined by a weight-5 and a weight-9 edge.
        let mut g = Graph::new(6);
        let marked = vec![
            g.add_edge(0, 1, 1).unwrap(),
            g.add_edge(1, 2, 1).unwrap(),
            g.add_edge(3, 4, 1).unwrap(),
            g.add_edge(4, 5, 1).unwrap(),
        ];
        g.add_edge(2, 3, 5).unwrap();
        g.add_edge(0, 5, 9).unwrap();
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&marked);
        let id_bits = net.id_bits();
        let mut rng = StdRng::seed_from_u64(8);
        let heavy = WeightInterval::new(
            crate::weights::pack_weight(6, kkt_graphs::EdgeNumber::from_ids(1, 2), id_bits),
            u128::MAX,
        );
        let mut in_interval = |interval| {
            let search = AnySearch::new(net.node_count(), Budget::Whp, &cfg());
            drive(&mut net, 0, &mut AnySearch { interval, ..search }, &mut rng).unwrap()
        };
        let found = in_interval(heavy).edge().unwrap();
        assert_eq!(found.weight, 9, "only the weight-9 edge lies in the interval");
        let light = WeightInterval::up_to_raw(4, id_bits);
        assert_eq!(in_interval(light), SearchOutcome::NoLeavingEdge);
    }

    #[test]
    fn cost_is_linear_in_fragment_size_not_graph_size() {
        // A dense graph, but the marked fragment containing the root is tiny.
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::connected_gnp(60, 0.4, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        // Mark a 4-node subtree around node MST edge 0.
        net.mark_all(&mst.edges[..3]);
        let root = {
            let e = net.graph().edge(mst.edges[0]);
            e.u
        };
        let before = net.cost();
        any(&mut net, root, Budget::Whp, &mut rng).edge().unwrap();
        let delta = net.cost() - before;
        let fragment = net.forest().tree_of(net.graph(), root).len() as u64;
        // Every broadcast-and-echo touches only the fragment, so the message
        // count is (number of broadcast-and-echoes) × 2(|T|-1), independent of
        // the 60-node, dense surrounding graph.
        assert_eq!(delta.messages, delta.broadcast_echoes * 2 * (fragment - 1));
        assert!(delta.broadcast_echoes <= 60);
    }

    #[test]
    fn expected_broadcast_echo_count_is_constant() {
        // Lemma 5: expected O(1) broadcast-and-echoes. Average over many runs
        // and insist on a generous constant bound.
        let mut net = partial_network(20, 0.3, 9, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let runs = 60;
        let before = net.cost();
        for _ in 0..runs {
            any(&mut net, 0, Budget::Whp, &mut rng).edge().unwrap();
        }
        let delta = net.cost() - before;
        let per_run = delta.broadcast_echoes as f64 / runs as f64;
        assert!(per_run <= 25.0, "average {per_run} broadcast-and-echoes per FindAny");
    }
}
