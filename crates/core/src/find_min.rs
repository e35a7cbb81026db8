//! `FindMin` — find the minimum-weight edge leaving a tree in
//! `O(log n / log log n)` expected broadcast-and-echoes (§3.1 of the paper).
//!
//! The search narrows an interval of (distinct, augmented) edge weights. One
//! word-parallel `TestOut` tests `w = Θ(log n)` sub-intervals at once: the
//! same odd hash function serves every sub-interval and the `w` one-bit
//! echoes come back packed in a single word. The lowest sub-interval that
//! reports odd parity certainly contains a cut edge (TestOut has no false
//! positives); before narrowing to it, two `HP-TestOut`s verify w.h.p. that
//! (a) no cut edge lies below it and (b) it really contains a cut edge.
//! Each narrowing divides the interval length by `w`, so
//! `log(maxWt)/log w = O(log n / log log n)` successful narrowings suffice,
//! and each succeeds with constant probability `q = 1/8`.
//!
//! With the [`Budget::Whp`] budget `FindMin` retries until it converges
//! w.h.p.; `FindMin-C` ([`Budget::Constant`]) caps the loop at twice the
//! expectation, so its *worst case* matches `FindMin`'s expected cost at the
//! price of a constant failure probability (Lemma 2). The loop is
//! implemented once, as the `MinSearch` state machine; [`crate::search`]
//! runs it alone or in concurrent waves.

use kkt_congest::broadcast_echo::{run_broadcast_echo, TreeStats, TreeStatsOutput};
use kkt_congest::{Histogram, Network, Phase};
use kkt_graphs::NodeId;
use rand::Rng;

use crate::config::{KktConfig, TESTOUT_REPEATS};
use crate::error::CoreError;
use crate::find_any::VerifyDown;
use crate::hp_test_out::HpDown;
use crate::search::{drive, Budget, Probe, Reply, Search, SearchOutcome, Step};
use crate::test_out::{TestOutDown, WideTestOut};
use crate::weights::WeightInterval;

/// Number of search iterations (word-parallel TestOut rounds) used, exposed
/// for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FindMinTrace {
    /// Iterations of the narrow loop.
    pub iterations: u32,
    /// Successful narrowings.
    pub narrowings: u32,
}

/// `FindMin` as a resumable state machine, driven by [`crate::search`].
#[derive(Debug)]
pub(crate) struct MinSearch {
    interval: WeightInterval,
    buckets: u32,
    repeats: u32,
    id_bits: u32,
    budget: u32,
    trace: FindMinTrace,
    awaiting: Awaiting,
}

/// The probe a [`MinSearch`] has in flight.
#[derive(Debug, Clone, Copy)]
enum Awaiting {
    /// Nothing yet; `edges` says whether the tree has incident edges at all.
    Start { edges: bool },
    /// Word-parallel TestOut over the current interval.
    Wide,
    /// HP-TestOut: does any cut edge lie in the current interval?
    Empty,
    /// HP-TestOut: does a cut edge lie below the flagged sub-interval?
    Lighter(WeightInterval),
    /// HP-TestOut: does the flagged sub-interval really hold a cut edge?
    Holds(WeightInterval),
    /// Verification of the singleton interval's edge.
    Identify,
}

impl MinSearch {
    /// Seeds a search from its tree's [`TreeStats`] echo (step 2 of the
    /// paper).
    pub(crate) fn new(
        net: &Network,
        stats: &TreeStatsOutput,
        budget: Budget,
        config: &KktConfig,
    ) -> MinSearch {
        let n = net.node_count();
        let repeats = TESTOUT_REPEATS;
        let bits = weight_bits(net);
        let budget = match budget {
            Budget::Whp => config.findmin_budget(n, bits),
            Budget::Constant => config.findmin_c_budget(n, bits),
        };
        MinSearch {
            interval: WeightInterval::up_to_raw(stats.max_weight, net.id_bits()),
            buckets: config.effective_word_width(n).clamp(1, 64 / repeats),
            repeats,
            id_bits: net.id_bits(),
            budget: budget.max(1),
            trace: FindMinTrace::default(),
            awaiting: Awaiting::Start { edges: stats.degree_sum > 0 },
        }
    }

    /// Opens the next narrowing iteration, or gives up once the budget is
    /// spent.
    fn narrow<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Step {
        if self.trace.iterations == self.budget {
            return Step::Done(SearchOutcome::GaveUp);
        }
        self.trace.iterations += 1;
        self.awaiting = Awaiting::Wide;
        Step::Probe(Probe::Wide(TestOutDown {
            seed: rng.gen(),
            interval: self.interval,
            buckets: self.buckets,
            repeats: self.repeats,
        }))
    }

    fn hp<R: Rng + ?Sized>(
        &mut self,
        awaiting: Awaiting,
        interval: WeightInterval,
        rng: &mut R,
    ) -> Step {
        self.awaiting = awaiting;
        Step::Probe(Probe::Hp(HpDown::random(interval, rng)))
    }
}

impl Search for MinSearch {
    fn step<R: Rng + ?Sized>(&mut self, reply: Option<Reply>, rng: &mut R) -> Step {
        match (self.awaiting, reply) {
            // No incident edges at all: certainly nothing leaves the tree.
            (Awaiting::Start { edges: false }, None) => Step::Done(SearchOutcome::NoLeavingEdge),
            (Awaiting::Start { edges: true }, None) => self.narrow(rng),
            (Awaiting::Wide, Some(Reply::Word(word))) => {
                let subintervals = self.interval.split(self.buckets);
                let wide = WideTestOut { word, repeats: self.repeats, subintervals };
                match wide.min_positive().map(|i| wide.subintervals[i]) {
                    // Nothing detected: either the cut (within the interval)
                    // is empty, or TestOut missed. Resolve w.h.p.
                    None => self.hp(Awaiting::Empty, self.interval, rng),
                    // Verify no cut edge lies strictly below the flagged
                    // sub-interval (otherwise TestOut missed the lighter one).
                    Some(sub) if sub.lo > self.interval.lo => {
                        let below = WeightInterval::new(self.interval.lo, sub.lo - 1);
                        self.hp(Awaiting::Lighter(sub), below, rng)
                    }
                    Some(sub) => self.hp(Awaiting::Holds(sub), sub, rng),
                }
            }
            (Awaiting::Empty, Some(Reply::Flag(false))) => Step::Done(SearchOutcome::NoLeavingEdge),
            // Verify the flagged sub-interval really holds a cut edge
            // (HP-TestOut errs towards "no" with negligible probability).
            (Awaiting::Lighter(sub), Some(Reply::Flag(false))) => {
                self.hp(Awaiting::Holds(sub), sub, rng)
            }
            (Awaiting::Holds(sub), Some(Reply::Flag(true))) => {
                self.interval = sub;
                self.trace.narrowings += 1;
                if !sub.is_singleton() {
                    return self.narrow(rng);
                }
                // Final step: the interval is a single augmented weight; one
                // more broadcast-and-echo retrieves the full edge number from
                // the tree endpoint that owns the edge.
                let key = (sub.lo & ((1u128 << (2 * self.id_bits.clamp(1, 32))) - 1)) as u64;
                self.awaiting = Awaiting::Identify;
                Step::Probe(Probe::Verify(VerifyDown { key, interval: sub }))
            }
            // TestOut missed, a lighter cut edge exists, or the flagged
            // sub-interval was empty after all: iterate again.
            (Awaiting::Empty | Awaiting::Lighter(_) | Awaiting::Holds(_), Some(Reply::Flag(_))) => {
                self.narrow(rng)
            }
            (Awaiting::Identify, Some(Reply::Verified(Some((number, _, 1))))) => {
                Step::Done(SearchOutcome::Found(number))
            }
            (Awaiting::Identify, Some(Reply::Verified(_))) => Step::Done(SearchOutcome::GaveUp),
            _ => unreachable!("probe reply does not match the awaited step"),
        }
    }
}

/// `FindMin(x)` / `FindMin-C(x)`: the lightest edge leaving the marked tree
/// containing `root`, plus the iteration trace. Under [`Budget::Whp`] it
/// succeeds w.h.p. in `O(log n / log log n)` expected broadcast-and-echoes
/// (`O(|T|·log n / log log n)` expected messages). Under
/// [`Budget::Constant`] the loop is capped at twice its expected length, so
/// the worst-case message count is `O(|T|·log n / log log n)` and the search
/// returns the lightest edge with constant probability. Either way it never
/// returns a wrong edge.
pub fn find_min<R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    budget: Budget,
    config: &KktConfig,
    rng: &mut R,
) -> Result<(SearchOutcome, FindMinTrace), CoreError> {
    // The whole narrowing search — statistics wave, TestOut iterations,
    // identification — bills to one phase; attribution only, costs unchanged.
    net.span(Phase::FindMinNarrow, |net| {
        // Step 2: learn maxWt(T) (and the degree sum) in one broadcast-and-echo.
        let stats = run_broadcast_echo(net, root, TreeStats)?;
        let mut search = MinSearch::new(net, &stats, budget, config);
        let outcome = drive(net, root, &mut search, rng)?;
        if let Some(metrics) = net.metrics_mut() {
            let bounds = Histogram::pow2_bounds(10);
            let iterations = u64::from(search.trace.iterations);
            metrics.observe("findmin_narrowing_iterations", &bounds, iterations);
        }
        Ok((outcome, search.trace))
    })
}

/// Number of bits of the augmented-weight universe for this network (raw
/// weight bits + 2·`id_bits` tie-break bits), used to size retry budgets.
/// O(1): the graph maintains its maximum weight.
pub(crate) fn weight_bits(net: &Network) -> u32 {
    let raw_bits = 64 - net.graph().max_weight().leading_zeros();
    raw_bits + 2 * net.id_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::{generators, kruskal, mst, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> KktConfig {
        KktConfig::default()
    }

    fn min(net: &mut Network, root: NodeId, budget: Budget, rng: &mut StdRng) -> SearchOutcome {
        find_min(net, root, budget, &cfg(), rng).unwrap().0
    }

    /// Oracle: the true minimum-unique-weight edge leaving the fragment of `root`.
    fn oracle_min(net: &Network, root: NodeId) -> Option<kkt_graphs::EdgeId> {
        let side = net.forest().tree_membership(net.graph(), root);
        mst::min_cut_edge(net.graph(), &side)
    }

    fn partial_network(n: usize, p: f64, marked: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(n, p, 100, &mut rng);
        let t = kruskal(&g);
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&t.edges[..marked.min(t.edges.len())]);
        net
    }

    #[test]
    fn finds_the_true_minimum_cut_edge() {
        for seed in 0..10 {
            let mut net = partial_network(24, 0.25, 11, seed);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let expected = oracle_min(&net, 0).expect("partial fragment has leaving edges");
            let outcome = min(&mut net, 0, Budget::Whp, &mut rng);
            let found = outcome.edge().expect("FindMin must find the edge w.h.p.");
            assert_eq!(found.edge, expected, "seed {seed}");
        }
    }

    #[test]
    fn spanning_tree_reports_no_leaving_edge() {
        let mut net = partial_network(20, 0.2, usize::MAX, 3);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(min(&mut net, 0, Budget::Whp, &mut rng), SearchOutcome::NoLeavingEdge);
        assert_eq!(min(&mut net, 0, Budget::Constant, &mut rng), SearchOutcome::NoLeavingEdge);
    }

    #[test]
    fn isolated_node_reports_no_leaving_edge() {
        let mut g = Graph::new(4);
        g.add_edge(1, 2, 5);
        g.add_edge(2, 3, 6);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(min(&mut net, 0, Budget::Whp, &mut rng), SearchOutcome::NoLeavingEdge);
    }

    #[test]
    fn singleton_fragment_picks_its_lightest_incident_edge() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 9);
        g.add_edge(0, 2, 3);
        g.add_edge(0, 3, 7);
        g.add_edge(3, 4, 1);
        let mut net = Network::new(g, NetworkConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let found = min(&mut net, 0, Budget::Whp, &mut rng).edge().unwrap();
        assert_eq!(found.weight, 3);
        assert_eq!(found.endpoints, (0, 2));
    }

    #[test]
    fn tie_broken_consistently_with_oracle() {
        // All edges share the same raw weight; the tie-break (edge key) must
        // agree with the sequential oracle's unique-weight order.
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(16, 0.3, 1, &mut rng);
            let t = kruskal(&g);
            let mut net = Network::new(g, NetworkConfig::default());
            net.mark_all(&t.edges[..6]);
            let expected = oracle_min(&net, 0).unwrap();
            let found = min(&mut net, 0, Budget::Whp, &mut rng).edge().unwrap();
            assert_eq!(found.edge, expected, "seed {seed}");
        }
    }

    #[test]
    fn find_min_c_never_returns_a_wrong_edge() {
        let mut net = partial_network(20, 0.3, 9, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let expected = oracle_min(&net, 0).unwrap();
        let mut found_count = 0;
        for _ in 0..40 {
            match min(&mut net, 0, Budget::Constant, &mut rng) {
                SearchOutcome::Found(f) => {
                    assert_eq!(f.edge, expected);
                    found_count += 1;
                }
                SearchOutcome::GaveUp => {}
                SearchOutcome::NoLeavingEdge => {
                    panic!("the fragment certainly has leaving edges")
                }
            }
        }
        assert!(found_count > 10, "FindMin-C should usually succeed, got {found_count}/40");
    }

    #[test]
    fn broadcast_echo_count_scales_like_log_over_loglog() {
        // The iteration count (and hence broadcast-and-echo count) should stay
        // around lg(maxWt)/lg w plus constant retries — far below lg(maxWt).
        let mut net = partial_network(64, 0.1, 30, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let (outcome, trace) = find_min(&mut net, 0, Budget::Whp, &cfg(), &mut rng).unwrap();
        assert!(outcome.edge().is_some());
        let w = cfg().effective_word_width(64) as f64;
        let expected_narrowings = (weight_bits(&net) as f64 / w.log2()).ceil();
        assert!(
            (trace.narrowings as f64) <= expected_narrowings + 2.0,
            "narrowings {} vs expected ~{}",
            trace.narrowings,
            expected_narrowings
        );
        assert!(trace.iterations <= 8 * trace.narrowings.max(1));
    }

    #[test]
    fn messages_are_proportional_to_fragment_size() {
        let mut net = partial_network(50, 0.3, 6, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let root = net.graph().edge(net.forest().edges()[0]).u;
        let fragment = net.forest().tree_of(net.graph(), root).len() as u64;
        let before = net.cost();
        min(&mut net, root, Budget::Whp, &mut rng);
        let delta = net.cost() - before;
        assert_eq!(delta.messages, delta.broadcast_echoes * 2 * (fragment - 1));
    }

    #[test]
    fn works_under_asynchronous_delivery() {
        let mut net = partial_network(24, 0.25, 11, 13);
        net.set_config(NetworkConfig::asynchronous(3, 9));
        let mut rng = StdRng::seed_from_u64(14);
        let expected = oracle_min(&net, 0).unwrap();
        let found = min(&mut net, 0, Budget::Whp, &mut rng).edge().unwrap();
        assert_eq!(found.edge, expected);
    }
}
