//! Envelopes: the paper's construction bounds as executable checks.
//!
//! The golden fingerprints catch any cost change, but cannot say whether a
//! changed cost still matches the paper. Each envelope here builds on
//! `connected_with_edges(n, 4n, ·)` graphs at n ∈ {64, 128, 256} with two
//! seeds, divides the messages sent by the shape of the claimed bound, and
//! checks two things:
//!
//! * every ratio stays below a committed ceiling (the bound's constant);
//! * the n = 256 ratio, averaged over the seeds, stays below a committed
//!   multiple of the n = 64 one (the bound's shape: a ratio that climbs
//!   along the ladder means the cost grows faster than the bound).
//!
//! The constants were fitted on the code that introduced this file, with
//! about 40% headroom over the largest ratio seen. A change that moves
//! construction cost must stay inside them or justify new ones.

use kkt::congest::{Network, NetworkConfig};
use kkt::core::{build_mst, build_st, BuildOutcome, CoreError, KktConfig};
use kkt::graphs::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 3] = [64, 128, 256];
const SEEDS: [u64; 2] = [0xE1, 0xE2];

type Build = fn(&mut Network, &KktConfig, &mut StdRng) -> Result<BuildOutcome, CoreError>;

/// One bound: a construction, the weight range of its graphs, the shape of
/// its message bound in `n`, and the committed constants.
struct Envelope {
    name: &'static str,
    build: Build,
    max_weight: u64,
    shape: fn(f64) -> f64,
    ceiling: f64,
    growth: f64,
}

impl Envelope {
    /// Messages over `shape(n)` for one build at `(n, seed)`.
    fn ratio(&self, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_with_edges(n, 4 * n, self.max_weight, &mut rng);
        let mut net = Network::new(graph, NetworkConfig { seed: seed ^ 1, ..Default::default() });
        let mut coins = StdRng::seed_from_u64(seed ^ 2);
        (self.build)(&mut net, &KktConfig::default(), &mut coins).expect("the build converges");
        net.cost().messages as f64 / (self.shape)(n as f64)
    }

    fn check(&self) {
        let ratios: Vec<[f64; 2]> =
            SIZES.iter().map(|&n| SEEDS.map(|seed| self.ratio(n, seed))).collect();
        let table =
            format!("{}: ratios per n {SIZES:?} and seed {SEEDS:x?}: {ratios:.2?}", self.name);
        for ratio in ratios.iter().flatten() {
            assert!(*ratio < self.ceiling, "{table} exceed the ceiling {}", self.ceiling);
        }
        let mean = |pair: &[f64; 2]| (pair[0] + pair[1]) / 2.0;
        let growth = mean(&ratios[2]) / mean(&ratios[0]);
        assert!(growth < self.growth, "{table} grow {growth:.2}x from n = 64 to 256");
    }
}

#[test]
fn build_mst_messages_stay_within_n_lg2n_over_lglgn() {
    // Lemma 3 and Theorem 1.1: O(n log²n / log log n) messages.
    Envelope {
        name: "Build MST messages / (n lg²n / lg lg n)",
        build: build_mst,
        max_weight: 1_000,
        shape: |n| n * n.log2().powi(2) / n.log2().log2(),
        // Fitted: 7.77 to 10.06, growing 1.06x.
        ceiling: 14.0,
        growth: 1.5,
    }
    .check();
}

#[test]
fn build_st_messages_stay_within_n_lgn() {
    // Lemma 6: O(n log n) messages.
    Envelope {
        name: "Build ST messages / (n lg n)",
        build: build_st,
        max_weight: 1,
        shape: |n| n * n.log2(),
        // Fitted: 4.89 to 9.66, growing 1.07x.
        ceiling: 13.5,
        growth: 1.5,
    }
    .check();
}
