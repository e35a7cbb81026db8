//! Envelopes: the paper's bounds as executable checks.
//!
//! The golden fingerprints catch any cost change, but cannot say whether a
//! changed cost still matches the paper. Each envelope reads one operation's
//! cost from a claims report (`kkt_bench::claims`), divides it by the shape
//! of the claimed bound, and checks that every ratio stays below a committed
//! ceiling (the bound's constant) and that the n = 256 ratio, averaged over
//! the seeds, stays below a committed multiple of the n = 64 one (the
//! bound's shape: a climbing ratio means the cost grows faster than the
//! bound).
//!
//! Most read the envelope preset: the builds (Theorem 1.1, Lemmas 3 and 6)
//! and the impromptu repairs (Theorem 1.2) on random connected graphs with
//! m = 4n at n ∈ {64, 128, 256} with two seeds, where each repair cuts a
//! Kruskal forest edge on a fresh `RandomAsync { max_delay: 8 }` network and
//! re-inserts it, through E3's and E4's repair code. Two checks pin the
//! model rather than a count: the o(m) separation, and every message fitting
//! in a constant number of CONGEST words. The search primitives' bounds
//! (Lemmas 1 and 4, §3.1, Appendix A) read the quick E5–E7 reports.
//!
//! The constants were fitted on the code that introduced each envelope, with
//! about 40% headroom over the largest ratio seen. A change that moves these
//! costs must stay inside them or justify new ones.

use std::sync::OnceLock;

use kkt_bench::claims::{
    self, Claim, ClaimReport, ENVELOPE_SEEDS as SEEDS, ENVELOPE_SIZES as SIZES,
};
use kkt_bench::{Scale, DEFAULT_SEED};

/// The envelope preset's workloads: weights up to 1000 for the MST, and
/// the unweighted twin for the ST.
const MST: &str = "m=4n";
const ST: &str = "m=4n unweighted";

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
    fn check(&self, seeds: &[u64]) {
        let ratio = |n: usize, seed: &u64| (self.measure)(n, *seed) / (self.shape)(n as f64);
        let ratios = SIZES.map(|n| seeds.iter().map(|seed| ratio(n, seed)).collect::<Vec<_>>());
        let table =
            format!("{}: ratios per n {SIZES:?} and seed {seeds:x?}: {ratios:.2?}", self.name);
        for ratio in ratios.iter().flatten() {
            assert!(*ratio < self.ceiling, "{table} exceed the ceiling {}", self.ceiling);
        }
        let mean = |ratios: &[f64]| ratios.iter().sum::<f64>() / ratios.len() as f64;
        let growth = mean(&ratios[2]) / mean(&ratios[0]);
        assert!(growth < self.growth, "{table} grow {growth:.2}x from n = 64 to 256");
    }
}

/// The envelope preset, measured once for all the tests.
fn preset() -> &'static ClaimReport {
    static PRESET: OnceLock<ClaimReport> = OnceLock::new();
    PRESET.get_or_init(claims::envelope_preset)
}

/// `claim`'s quick report at the default seed, measured once.
fn quick(claim: Claim) -> &'static ClaimReport {
    static REPORTS: [OnceLock<ClaimReport>; 8] = [const { OnceLock::new() }; 8];
    REPORTS[claim as usize].get_or_init(|| claims::run(claim, Scale::Quick, DEFAULT_SEED).1)
}

/// Mean messages per run of `operation` on the preset's `(n, workload,
/// seed)` graph.
fn messages(n: usize, workload: &str, seed: u64, operation: &str) -> f64 {
    let cell = preset().cell(n, workload, seed, operation);
    cell.mean(cell.cost.messages)
}

/// The largest message of `operations` on the preset's graph, in CONGEST
/// words of the graph's `word_bits` bits.
fn words(n: usize, workload: &str, seed: u64, operations: &[&str]) -> f64 {
    let cells = operations.iter().map(|op| preset().cell(n, workload, seed, op));
    cells.map(|c| c.cost.max_message_bits as f64 / c.word_bits as f64).fold(0.0, f64::max)
}

#[test]
fn build_mst_messages_stay_within_n_lg2n_over_lglgn() {
    // Lemma 3 and Theorem 1.1: O(n log²n / log log n) messages.
    Envelope {
        name: "Build MST messages / (n lg²n / lg lg n)",
        measure: |n, seed| messages(n, MST, seed, "kkt_mst"),
        shape: |n| n * n.log2().powi(2) / n.log2().log2(),
        // Fitted: 7.77 to 10.06, growing 1.06x.
        ceiling: 14.0,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn build_st_messages_stay_within_n_lgn() {
    // Lemma 6: O(n log n) messages.
    Envelope {
        name: "Build ST messages / (n lg n)",
        measure: |n, seed| messages(n, ST, seed, "kkt_st"),
        shape: |n| n * n.log2(),
        // Fitted: 4.89 to 9.66, growing 1.07x.
        ceiling: 13.5,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn mst_deletion_messages_stay_within_n_lgn_over_lglgn() {
    // Theorem 1.2: O(n log n / log log n) expected messages per MST
    // tree-edge deletion.
    Envelope {
        name: "messages per MST deletion / (n lg n / lg lg n)",
        measure: |n, seed| messages(n, MST, seed, "delete"),
        shape: |n| n * n.log2() / n.log2().log2(),
        // Fitted: 10.61 to 20.17, growing 1.00x.
        ceiling: 27.5,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn st_deletion_messages_stay_within_n() {
    // Theorem 1.2: O(n) expected messages per ST tree-edge deletion.
    Envelope {
        name: "messages per ST deletion / n",
        measure: |n, seed| messages(n, ST, seed, "delete"),
        shape: |n| n,
        // Fitted: 9.41 to 13.59, growing 1.25x.
        ceiling: 18.5,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn st_insertion_messages_stay_within_n() {
    // Theorem 1.2: O(n) messages per ST insertion (one path query through
    // the inserting endpoint's tree).
    Envelope {
        name: "messages per ST insertion / n",
        measure: |n, seed| messages(n, ST, seed, "insert"),
        shape: |n| n,
        // Fitted: 1.97 to 1.99, growing 1.01x.
        ceiling: 2.8,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn build_mst_messages_do_not_grow_with_m() {
    // The o(m) separation: at n = 128, m = n²/8 has 4x the edges of m = 4n,
    // so a Θ(m) construction would send about 4x the messages. (n = 256
    // would separate 8x, but its dense builds take about 1 s in a debug
    // build.)
    let n = 128;
    let ratios = SEEDS
        .map(|seed| messages(n, "m=n²/8", seed, "kkt_mst") / messages(n, MST, seed, "kkt_mst"));
    // Fitted: 0.66 and 0.93.
    let ceiling = 1.3;
    let table = format!("Build MST messages, m = n²/8 over m = 4n at n = {n}: {ratios:.2?}");
    assert!(ratios.iter().all(|&r| r < ceiling), "{table} exceed {ceiling}");
}

#[test]
fn mst_messages_stay_within_a_constant_number_of_congest_words() {
    // CONGEST: every message fits in O(log n) bits, so in a constant number
    // of words of `Network::word_bits` bits (the ID and weight bits). The
    // measure is the largest message of one build and of the repairs.
    Envelope {
        name: "largest MST build or repair message / CONGEST word",
        measure: |n, seed| words(n, MST, seed, &["kkt_mst", "delete", "insert"]),
        shape: |_| 1.0,
        // Fitted: 10.17 to 10.58 (122–127 bits over 12-bit words), growing
        // 1.03x.
        ceiling: 15.0,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn st_messages_stay_within_a_constant_number_of_congest_words() {
    // As for the MST, on the ST build and repairs.
    Envelope {
        name: "largest ST build or repair message / CONGEST word",
        measure: |n, seed| words(n, ST, seed, &["kkt_st", "delete", "insert"]),
        shape: |_| 1.0,
        // Fitted: 27.90 to 34.38 (275–280 bits over 8- to 10-bit words),
        // growing 0.81x. Three times the MST figure: every FindAny broadcast
        // carries `WeightInterval::everything()`, whose 128-bit upper bound
        // excludes nothing.
        ceiling: 48.0,
        growth: 1.5,
    }
    .check(&SEEDS);
}

#[test]
fn test_out_detects_a_non_empty_cut_at_least_one_time_in_eight() {
    // Lemma 1: TestOut reports a non-empty cut with probability at least
    // 1/8, and neither it nor HP-TestOut ever reports an empty one. E5's
    // quick report: 2,000 trials per cut size. Measured: TestOut 0.334 to
    // 0.500 at cut sizes 1 to 64.
    for cell in &quick(Claim::E5).cells {
        let cut_size = cell.parameter();
        if cut_size == 0 {
            assert_eq!(cell.hits, 0, "{} reported an empty cut", cell.operation);
        } else if cell.operation == "test_out" {
            let detected = format!("{} of {} trials", cell.hits, cell.trials);
            assert!(
                cell.hits * 8 >= cell.trials,
                "TestOut saw a {cut_size}-edge cut in {detected}"
            );
        }
    }
}

#[test]
fn find_any_c_succeeds_at_least_one_time_in_sixteen() {
    // Lemma 4: FindAny-C finds an outgoing edge with probability at least
    // 1/16. E6's quick report: 30 searches per n from a fragment of half an
    // MST. Measured: 0.73 to 0.77.
    for cell in quick(Claim::E6).cells.iter().filter(|c| c.operation == "find_any_c") {
        let found = format!("{} of {} searches", cell.hits, cell.trials);
        assert!(cell.hits * 16 >= cell.trials, "FindAny-C at n = {} found {found}", cell.n);
    }
}

#[test]
fn find_min_broadcast_echoes_stay_within_lgn_over_lglgn() {
    // §3.1: FindMin takes O(log n / log log n) broadcast-and-echoes. E6's
    // quick report: 30 searches per n.
    Envelope {
        name: "broadcast-and-echoes per FindMin / (lg n / lg lg n)",
        measure: |n, seed| {
            let cell = quick(Claim::E6).cell(n, "m=4n", seed, "find_min");
            cell.mean(cell.cost.broadcast_echoes)
        },
        shape: |n| n.log2() / n.log2().log2(),
        // Fitted: 12.30 to 13.50, growing 0.96x.
        ceiling: 19.0,
        growth: 1.5,
    }
    .check(&[DEFAULT_SEED]);
}

#[test]
fn find_min_iterations_stay_within_lg_weights_over_lg_w() {
    // Appendix A: FindMin's iterations grow like lg(maxWt)/lg w, not like
    // lg(maxWt), across E7's five weight universes (8 to 63 bits at
    // n = 256, 3 searches each).
    let ratios: Vec<f64> = (quick(Claim::E7).cells.iter())
        .map(|c| c.mean(c.iterations) / claims::lg_weights_over_lg_w(c))
        .collect();
    // Fitted: 1.21 (8 bits) down to 1.08 (63 bits).
    let ceiling = 1.7;
    let table = format!("FindMin iterations / (lg maxWt / lg w) per universe: {ratios:.2?}");
    assert!(ratios.iter().all(|&r| r < ceiling), "{table} exceed {ceiling}");
}
