//! Envelopes: the paper's message bounds as executable checks.
//!
//! The golden fingerprints catch any cost change, but cannot say whether a
//! changed cost still matches the paper. Each envelope here measures one
//! operation on `connected_with_edges(n, 4n, ·)` graphs at n ∈ {64, 128, 256}
//! with two seeds, divides the messages it sent by the shape of the claimed
//! bound, and checks two things:
//!
//! * every ratio stays below a committed ceiling (the bound's constant);
//! * the n = 256 ratio, averaged over the seeds, stays below a committed
//!   multiple of the n = 64 one (the bound's shape: a ratio that climbs
//!   along the ladder means the cost grows faster than the bound).
//!
//! The operations are the two constructions (Theorem 1.1, Lemmas 3 and 6)
//! and the impromptu repairs of Theorem 1.2: tree-edge deletions from a
//! Kruskal forest under `RandomAsync { max_delay: 8 }`, each deleted edge
//! re-inserted, as exp3 and exp4 measure them. Two checks pin the model
//! rather than a count: Build MST's messages barely move when the edges
//! grow eightfold (the o(m) separation), and every message of a build or a
//! repair fits in a constant number of CONGEST words.
//!
//! The constants were fitted on the code that introduced each envelope, with
//! about 40% headroom over the largest ratio seen. A change that moves these
//! costs must stay inside them or justify new ones.

use kkt::congest::{Network, NetworkConfig, Scheduler};
use kkt::core::{build_mst, build_st, BuildOutcome, CoreError, KktConfig};
use kkt::graphs::{generators, kruskal, Graph};
use kkt::{MaintainOptions, MaintainedForest, TreeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 3] = [64, 128, 256];
const SEEDS: [u64; 2] = [0xE1, 0xE2];
/// Tree edges cut (and re-inserted) per repair measurement.
const CUTS: usize = 8;

type Build = fn(&mut Network, &KktConfig, &mut StdRng) -> Result<BuildOutcome, CoreError>;

/// One bound: the measure of an operation at `(n, seed)` (its messages, or
/// its largest message in words), the shape of its bound in `n`, and the
/// committed constants.
struct Envelope {
    name: &'static str,
    measure: fn(usize, u64) -> f64,
    shape: fn(f64) -> f64,
    ceiling: f64,
    growth: f64,
}

impl Envelope {
    fn check(&self) {
        let ratios: Vec<[f64; 2]> = SIZES
            .iter()
            .map(|&n| SEEDS.map(|seed| (self.measure)(n, seed) / (self.shape)(n as f64)))
            .collect();
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

/// The seeded base graph: `m` edges on `n` nodes, weights up to `max_weight`.
fn graph(n: usize, m: usize, max_weight: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_with_edges(n, m, max_weight, &mut rng)
}

/// One synchronous build on `graph`; the network holds its costs.
fn built(build: Build, graph: Graph, seed: u64) -> Network {
    let mut net = Network::new(graph, NetworkConfig { seed: seed ^ 1, ..Default::default() });
    let mut coins = StdRng::seed_from_u64(seed ^ 2);
    build(&mut net, &KktConfig::default(), &mut coins).expect("the build converges");
    net
}

/// Messages of one synchronous build on `graph`.
fn build_messages(build: Build, graph: Graph, seed: u64) -> f64 {
    built(build, graph, seed).cost().messages as f64
}

/// The largest message `net` has sent, in CONGEST words of
/// [`Network::word_bits`] bits.
fn words(net: &Network) -> f64 {
    net.cost().max_message_bits as f64 / net.word_bits() as f64
}

/// `CUTS` cuts of a Kruskal forest on the `m = 4n` graph, each deleted edge
/// re-inserted.
struct Repairs {
    /// Mean messages per tree-edge deletion.
    delete: f64,
    /// Mean messages per re-insertion of the deleted edge.
    insert: f64,
    /// The largest message of all the repairs, in words.
    words: f64,
}

fn repairs(kind: TreeKind, n: usize, seed: u64) -> Repairs {
    let max_weight = if kind == TreeKind::Mst { 1_000 } else { 1 };
    let graph = graph(n, 4 * n, max_weight, seed);
    let tree = kruskal(&graph).edges;
    let options = MaintainOptions {
        repair_scheduler: Scheduler::RandomAsync { max_delay: 8 },
        seed: seed ^ 1,
        ..MaintainOptions::default()
    };
    let mut forest =
        MaintainedForest::adopt(graph, kind, &tree, options).expect("a Kruskal forest is valid");
    let (mut deletes, mut inserts) = (0, 0);
    for cut in 0..CUTS {
        let edges = forest.tree_edges();
        let edge = edges[(cut * 7919) % edges.len()];
        let (u, v) = forest.endpoints(edge);
        let weight = forest.network().graph().edge(edge).weight;
        let before = forest.cost().messages;
        forest.delete_edge(u, v).expect("the repair converges");
        let repaired = forest.cost().messages;
        forest.insert_edge(u, v, weight).expect("the deleted edge is absent");
        deletes += repaired - before;
        inserts += forest.cost().messages - repaired;
    }
    forest.verify().expect("the repairs keep the forest valid");
    Repairs {
        delete: deletes as f64 / CUTS as f64,
        insert: inserts as f64 / CUTS as f64,
        words: words(forest.network()),
    }
}

#[test]
fn build_mst_messages_stay_within_n_lg2n_over_lglgn() {
    // Lemma 3 and Theorem 1.1: O(n log²n / log log n) messages.
    Envelope {
        name: "Build MST messages / (n lg²n / lg lg n)",
        measure: |n, seed| build_messages(build_mst, graph(n, 4 * n, 1_000, seed), seed),
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
        measure: |n, seed| build_messages(build_st, graph(n, 4 * n, 1, seed), seed),
        shape: |n| n * n.log2(),
        // Fitted: 4.89 to 9.66, growing 1.07x.
        ceiling: 13.5,
        growth: 1.5,
    }
    .check();
}

#[test]
fn mst_deletion_messages_stay_within_n_lgn_over_lglgn() {
    // Theorem 1.2: O(n log n / log log n) expected messages per MST
    // tree-edge deletion.
    Envelope {
        name: "messages per MST deletion / (n lg n / lg lg n)",
        measure: |n, seed| repairs(TreeKind::Mst, n, seed).delete,
        shape: |n| n * n.log2() / n.log2().log2(),
        // Fitted: 7.51 to 19.60, growing 0.85x.
        ceiling: 27.5,
        growth: 1.5,
    }
    .check();
}

#[test]
fn st_deletion_messages_stay_within_n() {
    // Theorem 1.2: O(n) expected messages per ST tree-edge deletion.
    Envelope {
        name: "messages per ST deletion / n",
        measure: |n, seed| repairs(TreeKind::St, n, seed).delete,
        shape: |n| n,
        // Fitted: 5.80 to 13.29, growing 1.12x.
        ceiling: 18.5,
        growth: 1.5,
    }
    .check();
}

#[test]
fn st_insertion_messages_stay_within_n() {
    // Theorem 1.2: O(n) messages per ST insertion (one path query through
    // the inserting endpoint's tree).
    Envelope {
        name: "messages per ST insertion / n",
        measure: |n, seed| repairs(TreeKind::St, n, seed).insert,
        shape: |n| n,
        // Fitted: 1.97 to 1.99, growing 1.01x.
        ceiling: 2.8,
        growth: 1.5,
    }
    .check();
}

#[test]
fn build_mst_messages_do_not_grow_with_m() {
    // The o(m) separation: at n = 128, m = n²/8 has 4x the edges of m = 4n,
    // so a Θ(m) construction would send about 4x the messages. (n = 256
    // would separate 8x, but its dense builds take about 1 s in a debug
    // build.)
    let n = 128;
    let ratios = SEEDS.map(|seed| {
        let dense = build_messages(build_mst, graph(n, n * n / 8, 1_000, seed), seed);
        dense / build_messages(build_mst, graph(n, 4 * n, 1_000, seed), seed)
    });
    // Fitted: 0.66 and 0.94.
    let ceiling = 1.3;
    let table = format!("Build MST messages, m = n²/8 over m = 4n at n = {n}: {ratios:.2?}");
    assert!(ratios.iter().all(|&r| r < ceiling), "{table} exceed {ceiling}");
}

#[test]
fn mst_messages_stay_within_a_constant_number_of_congest_words() {
    // CONGEST: every message fits in O(log n) bits, so in a constant number
    // of words of `Network::word_bits` bits (the ID and weight bits). The
    // measure is the largest message of one build and of one `CUTS`-cut
    // repair run.
    Envelope {
        name: "largest MST build or repair message / CONGEST word",
        measure: |n, seed| {
            let build = words(&built(build_mst, graph(n, 4 * n, 1_000, seed), seed));
            build.max(repairs(TreeKind::Mst, n, seed).words)
        },
        shape: |_| 1.0,
        // Fitted: 10.17 to 10.58 (122–127 bits over 12-bit words), growing
        // 1.03x.
        ceiling: 15.0,
        growth: 1.5,
    }
    .check();
}

#[test]
fn st_messages_stay_within_a_constant_number_of_congest_words() {
    // As for the MST, on the ST build and repairs.
    Envelope {
        name: "largest ST build or repair message / CONGEST word",
        measure: |n, seed| {
            let build = words(&built(build_st, graph(n, 4 * n, 1, seed), seed));
            build.max(repairs(TreeKind::St, n, seed).words)
        },
        shape: |_| 1.0,
        // Fitted: 27.90 to 34.38 (275–280 bits over 8- to 10-bit words),
        // growing 0.81x. Three times the MST figure: every FindAny broadcast
        // carries `WeightInterval::everything()`, whose 128-bit upper bound
        // excludes nothing.
        ceiling: 48.0,
        growth: 1.5,
    }
    .check();
}
