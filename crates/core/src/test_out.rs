//! `TestOut` — constant-probability detection of an edge leaving a tree.
//!
//! §2.1 of the paper: broadcast a random 1/8-odd hash function `h` over the
//! tree; every node computes the parity of `h` over its incident edge numbers
//! (restricted to a weight interval); parities are XOR-ed up the tree. Edges
//! with both endpoints inside the tree are counted twice and cancel, so the
//! root learns the parity of `h` over the *cut* — which is odd with
//! probability ≥ 1/8 whenever the cut is non-empty, and always even when it is
//! empty (one-sided error).
//!
//! Lemma 1: one broadcast-and-echo, the broadcast carries the hash function
//! (O(log n) bits) and the echo is a single bit. This module also provides the
//! *word-parallel* variant used by `FindMin` (§3.1): the same broadcast serves
//! `w` sub-intervals at once, with the `w` one-bit echoes packed into one
//! word. On top of the paper's scheme we optionally run `repeats` independent
//! hash functions per sub-interval (derived from one broadcast seed), which is
//! the "parallel repetitions" amplification mentioned in §2.2 — still one
//! broadcast-and-echo and a one-word echo as long as `buckets × repeats ≤ 64`.

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeAggregate};
use kkt_congest::{BitSized, Network, NodeView};
use kkt_graphs::NodeId;
use kkt_hashing::OddHash;
use rand::Rng;

use crate::error::CoreError;
use crate::weights::{augmented_weight, compact_key, WeightInterval};

/// Derives the `rep`-th odd hash function from a broadcast seed. All nodes
/// apply the same derivation, so one word of shared randomness yields the
/// whole family.
fn derive_hash(seed: u64, rep: u32) -> OddHash {
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let a = mix(seed ^ (rep as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let t = mix(a ^ 0xD6E8_FEB8_6659_FD93);
    OddHash::from_parts(a, t)
}

/// Broadcast payload of (plain and word-parallel) TestOut.
#[derive(Debug, Clone, Copy)]
pub struct TestOutDown {
    /// Seed from which every node derives the shared odd hash functions.
    pub seed: u64,
    /// Interval of augmented weights under test.
    pub interval: WeightInterval,
    /// Number of sub-intervals tested in parallel (1 for plain TestOut).
    pub buckets: u32,
    /// Independent hash functions per sub-interval.
    pub repeats: u32,
}

impl BitSized for TestOutDown {
    fn bit_size(&self) -> usize {
        self.seed.bit_size()
            + self.interval.lo.bit_size()
            + self.interval.hi.bit_size()
            + self.buckets.bit_size()
            + self.repeats.bit_size()
    }
}

/// The word-parallel TestOut aggregate: bit `i·repeats + r` of the echo word
/// is the parity of hash `r` over the incident edges falling in sub-interval
/// `i`.
#[derive(Debug, Clone, Copy)]
pub struct TestOutAggregate {
    /// The payload the root broadcasts.
    pub down: TestOutDown,
}

impl TreeAggregate for TestOutAggregate {
    type Down = TestOutDown;
    type Up = u64;
    type Output = u64;

    fn root_payload(&self, _root_view: &NodeView) -> TestOutDown {
        self.down
    }

    fn local(&self, view: &NodeView, down: &TestOutDown) -> u64 {
        let repeats = down.repeats.max(1);
        let hashes: Vec<OddHash> = (0..repeats).map(|r| derive_hash(down.seed, r)).collect();
        let subintervals = down.interval.split(down.buckets);
        let mut word = 0u64;
        for edge in &view.incident {
            let aw = augmented_weight(view, edge);
            if !down.interval.contains(aw) {
                continue;
            }
            // The sub-intervals are sorted and contiguous and cover
            // `down.interval`, so the first whose top reaches `aw` holds it.
            let i = subintervals.partition_point(|iv| iv.hi < aw);
            let key = compact_key(edge.edge_number, view.id_bits);
            for (r, hash) in hashes.iter().enumerate() {
                if hash.bit(key) {
                    let bit = i as u32 * repeats + r as u32;
                    if bit < 64 {
                        word ^= 1u64 << bit;
                    }
                }
            }
        }
        word
    }

    fn combine(&self, _view: &NodeView, acc: u64, child: u64) -> u64 {
        acc ^ child
    }

    fn finish(&self, _root_view: &NodeView, _down: &TestOutDown, total: u64) -> u64 {
        total
    }
}

/// Result of one word-parallel TestOut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideTestOut {
    /// Echo word (see [`TestOutAggregate`] for the bit layout).
    pub word: u64,
    /// Independent hash functions per sub-interval.
    pub repeats: u32,
    /// The sub-intervals, in bit order.
    pub subintervals: Vec<WeightInterval>,
}

impl WideTestOut {
    /// Whether sub-interval `i` reported odd parity under any of its hashes
    /// (hence certainly contains a cut edge).
    pub fn is_positive(&self, i: usize) -> bool {
        let repeats = self.repeats.max(1);
        (0..repeats).any(|r| {
            let bit = i as u32 * repeats + r;
            bit < 64 && self.word & (1u64 << bit) != 0
        })
    }

    /// Index of the lowest sub-interval that certainly contains a cut edge.
    pub fn min_positive(&self) -> Option<usize> {
        (0..self.subintervals.len()).find(|&i| self.is_positive(i))
    }
}

/// Runs the plain `TestOut(x, j, k)` of the paper: one broadcast-and-echo
/// with a single hash function; returns `true` if the cut parity was odd (so
/// a leaving edge certainly exists). A `false` answer is inconclusive (the
/// detection probability is ≥ 1/8 per run).
pub fn test_out<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    interval: WeightInterval,
    rng: &mut R,
) -> Result<bool, CoreError> {
    let wide = wide_test_out(net, root, interval, 1, 1, rng)?;
    Ok(wide.word != 0)
}

/// Runs the word-parallel `TestOut`: splits `interval` into `buckets`
/// sub-intervals, testing each with `repeats` independent hash functions, and
/// answers all of them with one broadcast-and-echo whose echo is a single
/// word (§3.1, "a single broadcast-and-echo can test `w = O(log n)` subranges
/// concurrently").
pub fn wide_test_out<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    interval: WeightInterval,
    buckets: u32,
    repeats: u32,
    rng: &mut R,
) -> Result<WideTestOut, CoreError> {
    let repeats = repeats.clamp(1, 64);
    let buckets = buckets.clamp(1, 64 / repeats);
    let down = TestOutDown { seed: rng.gen(), interval, buckets, repeats };
    let word = run_broadcast_echo(net, root, TestOutAggregate { down })?;
    Ok(WideTestOut { word, repeats, subintervals: interval.split(buckets) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A network whose marked tree is the MST of a connected random graph.
    fn mst_network(n: usize, p: f64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 100, &mut rng);
        let mst = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&mst.edges);
        net
    }

    /// A network with two marked fragments separated by exactly `k` cut edges.
    fn two_fragment_network(cut_size: usize) -> Network {
        // Two paths of 6 nodes each, plus `cut_size` edges between them.
        let mut g = Graph::new(12);
        let mut marked = Vec::new();
        for i in 0..5 {
            marked.push(g.add_edge(i, i + 1, 1).unwrap());
            marked.push(g.add_edge(6 + i, 6 + i + 1, 1).unwrap());
        }
        for j in 0..cut_size {
            g.add_edge(j % 6, 6 + (j * 5 + 1) % 6, 10 + j as u64).unwrap();
        }
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&marked);
        net
    }

    #[test]
    fn empty_cut_never_reports_true() {
        // The whole graph is one marked spanning tree: no edge leaves it.
        let mut net = mst_network(30, 0.0, 1); // p = 0 → the tree is the whole graph
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert!(!test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap());
        }
    }

    #[test]
    fn nonempty_cut_detected_with_constant_probability() {
        let mut net = two_fragment_network(3);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 400;
        let mut hits = 0;
        for _ in 0..trials {
            if test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap() {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!(freq >= 0.125 * 0.7, "detection frequency {freq} too low");
    }

    #[test]
    fn single_cut_edge_is_detected_half_the_time() {
        // With exactly one cut edge the parity is odd iff h(e) = 1, which for
        // the multiply-threshold family happens with probability ~1/2.
        let mut net = two_fragment_network(1);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 600;
        let mut hits = 0;
        for _ in 0..trials {
            if test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap() {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        assert!(freq > 0.3 && freq < 0.7, "expected ~1/2, got {freq}");
    }

    #[test]
    fn repeats_raise_the_detection_probability() {
        let mut net = two_fragment_network(1);
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 400;
        let mut single = 0;
        let mut amplified = 0;
        for _ in 0..trials {
            let all = WeightInterval::everything();
            if wide_test_out(&mut net, 0, all, 1, 1, &mut rng).unwrap().min_positive().is_some() {
                single += 1;
            }
            if wide_test_out(&mut net, 0, all, 1, 8, &mut rng).unwrap().min_positive().is_some() {
                amplified += 1;
            }
        }
        assert!(
            amplified > single,
            "8-fold repetition ({amplified}) should detect more often than a single hash ({single})"
        );
        assert!(amplified as f64 / trials as f64 > 0.85);
    }

    #[test]
    fn interval_restriction_is_respected() {
        let mut net = two_fragment_network(2); // cut edges have weights 10 and 11
        let id_bits = net.id_bits();
        let mut rng = StdRng::seed_from_u64(7);
        // Interval covering only weights below 10: nothing to find, always false.
        let low = WeightInterval::up_to_raw(9, id_bits);
        for _ in 0..40 {
            assert!(!test_out(&mut net, 0, low, &mut rng).unwrap());
        }
        // Interval covering the cut weights: detected with constant probability.
        let all = WeightInterval::up_to_raw(20, id_bits);
        let hits = (0..300).filter(|_| test_out(&mut net, 0, all, &mut rng).unwrap()).count();
        assert!(hits > 20);
    }

    #[test]
    fn echo_is_one_word_and_cost_is_one_broadcast_echo() {
        let mut net = two_fragment_network(2);
        let mut rng = StdRng::seed_from_u64(8);
        let before = net.cost();
        test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap();
        let delta = net.cost() - before;
        assert_eq!(delta.broadcast_echoes, 1);
        // Tree T_0 has 6 nodes → 2·5 messages.
        assert_eq!(delta.messages, 10);
    }

    #[test]
    fn wide_test_out_flags_the_correct_subinterval() {
        // Cut edges have weights 10 and 11; split [0, 15·2^2b] in 16: only the
        // sub-intervals containing those weights may light up.
        let mut net = two_fragment_network(2);
        let id_bits = net.id_bits();
        let mut rng = StdRng::seed_from_u64(11);
        let interval = WeightInterval::up_to_raw(15, id_bits);
        let mut seen_positive = false;
        for _ in 0..200 {
            let wide = wide_test_out(&mut net, 0, interval, 16, 2, &mut rng).unwrap();
            if let Some(i) = wide.min_positive() {
                seen_positive = true;
                let sub = wide.subintervals[i];
                // The flagged sub-interval must contain one of the two cut edges.
                let g = net.graph();
                let side = net.forest().tree_membership(g, 0);
                let contains_cut_edge = g.cut(&side).into_iter().any(|e| {
                    sub.contains(crate::weights::pack_weight(
                        g.edge(e).weight,
                        g.edge_number(e),
                        id_bits,
                    ))
                });
                assert!(contains_cut_edge, "TestOut never reports a false positive");
            }
        }
        assert!(seen_positive, "200 trials should detect the cut at least once");
    }

    #[test]
    fn works_on_singleton_fragment() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::connected_gnp(10, 0.4, 20, &mut rng);
        let mut net = Network::new(g, NetworkConfig::default());
        // Node 0 is a singleton fragment with incident edges (all leaving).
        let hits = (0..300)
            .filter(|_| test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap())
            .count();
        assert!(hits > 10, "a singleton with outgoing edges must be detectable");
        assert_eq!(net.cost().messages, 0, "a singleton TestOut costs no messages");
    }

    #[test]
    fn down_payload_bit_size_is_bounded() {
        let down = TestOutDown {
            seed: u64::MAX,
            interval: WeightInterval::everything(),
            buckets: 16,
            repeats: 4,
        };
        assert!(down.bit_size() <= 64 + 128 + 128 + 16);
    }

    #[test]
    fn derived_hashes_differ_across_repeats_and_agree_across_nodes() {
        let a = derive_hash(42, 0);
        let b = derive_hash(42, 1);
        assert_ne!((a.multiplier(), a.threshold()), (b.multiplier(), b.threshold()));
        assert_eq!(derive_hash(42, 3), derive_hash(42, 3));
    }
}
