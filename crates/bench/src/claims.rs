//! The paper's claims E1–E8 as one sealed, integer report.
//!
//! E1–E8 check Theorems 1.1 and 1.2, Lemmas 1–6 and Appendix A (see
//! `EXPERIMENTS.md`). Each claim is a list of cases, one graph each; [`run`]
//! measures every case once into a [`ClaimReport`] of [`ClaimCell`]s, one
//! per operation on the case's graph, every field an exact count, and
//! renders the claim's table from the report alone. Four measurements serve
//! every claim: a build, a repair (cuts of a Kruskal forest), a search trial
//! (FindAny-C and FindMin) and E5's detection loop. [`envelope_preset`]
//! measures the graphs `tests/envelopes.rs` checks the paper's bounds on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use kkt_baselines::{build_mst_ghs, build_st_by_flooding, flood_repair_delete};
use kkt_congest::{CostReport, CostTracker, Network, NetworkConfig};
use kkt_core::{
    apply_update, build_mst, build_st, find_any, find_min, hp_test_out, test_out, Budget,
    DeleteOutcome, KktConfig, TreeKind, UpdateOutcome, WeightInterval,
};
use kkt_graphs::generators::{connected_with_edges, Update};
use kkt_graphs::{kruskal, verify_mst, verify_spanning_forest, EdgeId, Graph};

use crate::table::Table;
use crate::Scale;

/// One of the paper's quantitative claims, measured by the `exp*` binary of
/// the same number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// MST construction messages, KKT vs GHS (Theorem 1.1, Lemma 3).
    E1,
    /// ST construction messages, KKT vs flooding (Theorem 1.1, Lemma 6).
    E2,
    /// Messages per MST deletion and insertion (Theorem 1.2, Lemma 2).
    E3,
    /// Messages per ST deletion (Theorem 1.2, Lemma 5).
    E4,
    /// TestOut and HP-TestOut detection rates per cut size (Lemma 1).
    E5,
    /// FindAny-C's success rate and FindMin's cost (Lemma 4, §3.1).
    E6,
    /// FindMin's iterations under growing weight universes (Appendix A).
    E7,
    /// Construction messages as `m` grows at a fixed `n` (o(m) separation).
    E8,
}

/// One operation measured on one case's graph: its runs summed, in exact
/// counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimCell {
    /// Nodes of the case's graph.
    pub n: usize,
    /// Live edges of the case's graph.
    pub m: usize,
    /// The case's graph family, or its swept parameter (`cut_size=4`).
    pub workload: String,
    /// The seed the case's networks and coins derive from.
    pub seed: u64,
    /// `kkt_mst`, `kkt_st`, `ghs`, `ghs_clustered`, `flooding`, `delete`, `insert`,
    /// `flood_delete`, `test_out`, `hp_test_out`, `find_any_c` or `find_min`.
    pub operation: String,
    /// Bits of a CONGEST word on the case's graph.
    pub word_bits: u64,
    /// Runs of the operation (trials, cuts).
    pub trials: u64,
    /// Runs that reported an outgoing edge (detections and searches).
    pub hits: u64,
    /// The runs' summed cost (`time` is their rounds), with the largest
    /// message of any run.
    pub cost: CostReport,
    /// The most messages one run sent.
    pub max_messages: u64,
    /// FindMin's narrow-loop iterations, summed over the runs.
    pub iterations: u64,
    /// FindMin's successful narrowings, summed over the runs.
    pub narrowings: u64,
}

impl ClaimCell {
    /// An empty cell of `operation` on the case whose graph `net` holds.
    fn new(net: &Network, workload: &str, seed: u64, operation: &str) -> Self {
        let (n, m, word_bits) = (net.node_count(), net.edge_count(), net.word_bits() as u64);
        let (workload, operation) = (workload.to_string(), operation.to_string());
        ClaimCell { n, m, workload, seed, operation, word_bits, ..ClaimCell::default() }
    }

    /// Runs `op` on `net` as one more run of this cell. The tracker is
    /// zeroed first, so the largest message counted is the run's own.
    fn run<T>(&mut self, net: &mut Network, op: impl FnOnce(&mut Network) -> T) -> T {
        *net.cost_mut() = CostTracker::new();
        let out = op(net);
        let (run, cost) = (net.cost(), &mut self.cost);
        cost.messages += run.messages;
        cost.bits += run.bits;
        cost.time += run.time;
        cost.broadcast_echoes += run.broadcast_echoes;
        cost.max_message_bits = cost.max_message_bits.max(run.max_message_bits);
        self.max_messages = self.max_messages.max(run.messages);
        self.trials += 1;
        out
    }

    /// `total` per run.
    pub fn mean(&self, total: u64) -> f64 {
        total as f64 / self.trials as f64
    }

    /// The number a swept workload names: `cut_size=4` is 4.
    pub fn parameter(&self) -> u64 {
        let value = self.workload.rsplit_once('=').and_then(|(_, value)| value.parse().ok());
        value.expect("a swept workload names its value")
    }
}

type Cells = Vec<ClaimCell>;

/// A claim's sealed report: every cell of every case, in run order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimReport {
    /// `E1`–`E8`, or `envelopes` for [`envelope_preset`].
    pub claim: String,
    /// `quick` or `large`, or `envelopes` for [`envelope_preset`].
    pub scale: String,
    /// Master seed (0 for [`envelope_preset`], whose cases carry their own).
    pub seed: u64,
    /// The cells, case by case.
    pub cells: Cells,
    /// FNV-1a fingerprint of the rest of the document.
    pub fingerprint: String,
}

impl ClaimReport {
    /// The report of `cells`, fingerprinted with its fingerprint field
    /// empty, as every sealed report in the workspace is.
    fn sealed(claim: &str, scale: &str, seed: u64, cells: Cells) -> Self {
        let (claim, scale, fingerprint) = (claim.to_string(), scale.to_string(), String::new());
        let mut report = ClaimReport { claim, scale, seed, cells, fingerprint };
        let doc = serde_json::to_string(&report).expect("report serialises");
        report.fingerprint = kkt_workloads::fingerprint_hex(&doc);
        report
    }

    /// The cell of `operation` on the case `(n, workload, seed)`; panics if
    /// the report measured none.
    pub fn cell(&self, n: usize, workload: &str, seed: u64, operation: &str) -> &ClaimCell {
        let key = |c: &&ClaimCell| (c.n, c.seed) == (n, seed) && c.workload == workload;
        let found = self.cells.iter().filter(key).find(|c| c.operation == operation);
        found.unwrap_or_else(|| panic!("no {operation} cell at n = {n}, {workload}, seed {seed}"))
    }

    /// One row per case: its cells of `operations`, in that order.
    fn rows<const K: usize>(&self, operations: [&str; K]) -> Vec<[&ClaimCell; K]> {
        let firsts = self.cells.iter().filter(|c| c.operation == operations[0]);
        firsts.map(|c| operations.map(|op| self.cell(c.n, &c.workload, c.seed, op))).collect()
    }
}

/// Measures `claim` at `scale` from `seed`: the claim's table, rendered from
/// the report alone, and the sealed report.
pub fn run(claim: Claim, scale: Scale, seed: u64) -> (Table, ClaimReport) {
    let report =
        ClaimReport::sealed(&format!("{claim:?}"), scale.label(), seed, cells(claim, scale, seed));
    (table(claim, &report), report)
}

/// What each `exp1`–`exp8` binary does: runs `claim` at the `KKT_SCALE`
/// scale from the `KKT_SEED` seed, and prints its table on stderr and its
/// sealed report on stdout.
pub fn print(claim: Claim) {
    let (table, report) = run(claim, Scale::from_env(), crate::seed_from_env());
    eprintln!("{table}");
    println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
}

/// The envelope preset's sizes.
pub const ENVELOPE_SIZES: [usize; 3] = [64, 128, 256];
/// The envelope preset's seeds.
pub const ENVELOPE_SEEDS: [u64; 2] = [0xE1, 0xE2];

/// The cases `tests/envelopes.rs` checks, at each of [`ENVELOPE_SIZES`] and
/// [`ENVELOPE_SEEDS`]: Build MST and 8 MST repairs on
/// `connected_with_edges(n, 4n, 1000)` (workload `m=4n`), Build ST and 8 ST
/// repairs on its unweighted twin (`m=4n unweighted`), and at n = 128
/// Build MST with m = n²/8 (`m=n²/8`). Each graph is drawn from its own
/// seed; builds seed the network `seed ^ 1` and the coins `seed ^ 2`, as E1
/// does, and repairs are E3's and E4's.
pub fn envelope_preset() -> ClaimReport {
    let graph = |n, m, w, seed| connected_with_edges(n, m, w, &mut StdRng::seed_from_u64(seed));
    let mut cells = Vec::new();
    for (n, seed) in ENVELOPE_SIZES.into_iter().flat_map(|n| ENVELOPE_SEEDS.map(|s| (n, s))) {
        let cases = [
            (TreeKind::Mst, "kkt_mst", 1_000, "m=4n"),
            (TreeKind::St, "kkt_st", 1, "m=4n unweighted"),
        ];
        for (kind, op, max_weight, workload) in cases {
            let g = graph(n, 4 * n, max_weight, seed);
            cells.push(build(op, g.clone(), workload, seed, (seed ^ 1, seed ^ 2)));
            cells.extend(repairs(kind, &g, workload, seed, 8));
        }
        if n == 128 {
            let dense = graph(n, n * n / 8, 1_000, seed);
            cells.push(build("kkt_mst", dense, "m=n²/8", seed, (seed ^ 1, seed ^ 2)));
        }
    }
    ClaimReport::sealed("envelopes", "envelopes", 0, cells)
}

/// A fresh network over `graph` with `edges` marked.
fn marked(graph: &Graph, edges: &[EdgeId], config: NetworkConfig) -> Network {
    let mut net = Network::new(graph.clone(), config);
    net.mark_all(edges);
    net
}

/// Checks that `net`'s marked forest is its graph's MST (`Mst`) or a
/// spanning forest (`St`).
fn verify(kind: TreeKind, net: &Network) {
    let check = if kind == TreeKind::Mst { verify_mst } else { verify_spanning_forest };
    check(net.graph(), &net.marked_forest_snapshot()).expect("the forest is verified");
}

/// One verified `op` build (`kkt_mst`, `kkt_st`, `ghs` or `flooding`) on a
/// fresh synchronous network over `graph`, seeded `seeds.0`; KKT draws its
/// coins from `seeds.1`.
fn build(op: &str, graph: Graph, workload: &str, seed: u64, seeds: (u64, u64)) -> ClaimCell {
    let (config, mut coins) = (KktConfig::default(), StdRng::seed_from_u64(seeds.1));
    let mut net = Network::new(graph, NetworkConfig { seed: seeds.0, ..NetworkConfig::default() });
    let mut cell = ClaimCell::new(&net, workload, seed, op);
    cell.run(&mut net, |net| match op {
        "kkt_mst" => build_mst(net, &config, &mut coins).map(drop).expect("Build MST converges"),
        "kkt_st" => build_st(net, &config, &mut coins).map(drop).expect("Build ST converges"),
        "ghs" => drop(build_mst_ghs(net)),
        "flooding" => build_st_by_flooding(net, 0).map(drop).expect("flooding spans"),
        _ => panic!("no build named {op}"),
    });
    verify(if matches!(op, "kkt_mst" | "ghs") { TreeKind::Mst } else { TreeKind::St }, &net);
    cell
}

/// `cuts` cuts of `graph`'s Kruskal forest, each on fresh networks with the
/// forest marked: the tree-edge deletion and the deleted edge's re-insertion
/// under `RandomAsync { max_delay: 8 }`, and the flood-repair baseline's
/// deletion on a synchronous network. Cut `t` seeds both networks
/// `seed ^ t`; E3's coin offset and victim stride serve the MST, E4's the ST.
fn repairs(kind: TreeKind, graph: &Graph, workload: &str, seed: u64, cuts: u64) -> Cells {
    let (config, forest) = (KktConfig::default(), kruskal(graph).edges);
    let (coin_offset, stride) = if kind == TreeKind::Mst { (100, 7919) } else { (200, 104729) };
    let case = marked(graph, &forest, NetworkConfig::default());
    let mut cells =
        ["delete", "insert", "flood_delete"].map(|op| ClaimCell::new(&case, workload, seed, op));
    for t in 0..cuts {
        let mut net = marked(graph, &forest, NetworkConfig::asynchronous(seed ^ t, 8));
        let mut coins = StdRng::seed_from_u64(seed ^ (coin_offset + t));
        let edge = *graph.edge(forest[(t as usize * stride) % forest.len()]);
        let (u, v, weight) = (edge.u, edge.v, edge.weight);
        let updates = [Update::Delete { u, v }, Update::Insert { u, v, weight }];
        for (cell, update) in cells.iter_mut().zip(updates) {
            let outcome =
                cell.run(&mut net, |net| apply_update(net, kind, &update, &config, &mut coins));
            let outcome = outcome.expect("the repair converges");
            assert_ne!(outcome, UpdateOutcome::Deleted(DeleteOutcome::NotATreeEdge));
        }
        verify(kind, &net);
        let mut base = marked(graph, &forest, NetworkConfig::synchronous(seed ^ t));
        cells[2].run(&mut base, |net| flood_repair_delete(net, u, v)).expect("flooding repairs");
    }
    cells.into()
}

/// `trials` FindMin searches from node 0, each on a fresh synchronous
/// network seeded `seed ^ t` with half of `g`'s MST marked and coins seeded
/// `seed ^ (offset + t)`; with `any`, a FindAny-C search runs first on the
/// same network and coins.
fn searches(g: &Graph, workload: &str, seed: u64, offset: u64, trials: u64, any: bool) -> Cells {
    let (config, mst) = (KktConfig::default(), kruskal(g).edges);
    let half = &mst[..mst.len() / 2];
    let case = marked(g, half, NetworkConfig::default());
    let [mut find_any_c, mut min] =
        ["find_any_c", "find_min"].map(|op| ClaimCell::new(&case, workload, seed, op));
    for t in 0..trials {
        let mut net = marked(g, half, NetworkConfig::synchronous(seed ^ t));
        let mut coins = StdRng::seed_from_u64(seed ^ (offset + t));
        if any {
            let found = find_any_c
                .run(&mut net, |net| find_any(net, 0, Budget::Constant, &config, &mut coins));
            find_any_c.hits += u64::from(found.expect("FindAny-C runs").edge().is_some());
        }
        let found = min.run(&mut net, |net| find_min(net, 0, Budget::Whp, &config, &mut coins));
        let (outcome, trace) = found.expect("FindMin runs");
        assert!(outcome.edge().is_some(), "half an MST leaves node 0 an outgoing edge");
        min.hits += 1;
        min.iterations += u64::from(trace.iterations);
        min.narrowings += u64::from(trace.narrowings);
    }
    [find_any_c, min].into_iter().filter(|cell| cell.trials > 0).collect()
}

/// E5's case: two 8-node paths, their edges marked, with `cut_size` edges
/// between them, and `trials` TestOut and HP-TestOut calls from node 0
/// drawing their coins from `coins`.
fn detections(cut_size: usize, seed: u64, trials: usize, coins: &mut StdRng) -> Cells {
    let mut g = Graph::new(16);
    let paths: Vec<EdgeId> = (0..7)
        .flat_map(|i| [(i, i + 1), (8 + i, 9 + i)])
        .map(|(u, v)| g.add_edge(u, v, 1).expect("a new edge"))
        .collect();
    for (a, b) in (0..8).flat_map(|a| (8..16).map(move |b| (a, b))).take(cut_size) {
        g.add_edge(a, b, 10 + (a * 16 + b) as u64).expect("a new edge");
    }
    let mut net = marked(&g, &paths, NetworkConfig::default());
    let workload = format!("cut_size={cut_size}");
    let mut cells = ["test_out", "hp_test_out"].map(|op| ClaimCell::new(&net, &workload, seed, op));
    for _ in 0..trials {
        for (cell, detect) in cells.iter_mut().zip([test_out::<StdRng>, hp_test_out::<StdRng>]) {
            let hit = cell.run(&mut net, |net| detect(net, 0, WeightInterval::everything(), coins));
            cell.hits += u64::from(hit.expect("the detection runs"));
        }
    }
    cells.into()
}

/// A two-cluster complete graph whose weights force GHS into its Θ(m)
/// rejection-heavy regime (light intra-cluster edges, heavy inter-cluster
/// edges).
pub fn clustered_complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    for (next, (u, v)) in (1u64..).zip(pairs) {
        let same = (u < n / 2) == (v < n / 2);
        g.add_edge(u, v, if same { next } else { 10_000_000 + next });
    }
    g
}

/// `claim`'s cells at `scale`. Each claim draws its graphs in order from one
/// RNG seeded `seed` (E5 draws its coins from it instead), and seeds each
/// network and coin stream `seed` XORed with a fixed offset.
fn cells(claim: Claim, scale: Scale, seed: u64) -> Cells {
    let mut rng = StdRng::seed_from_u64(seed);
    let (sizes, trials) = (scale.construction_sizes(), scale.trials() as u64);
    let n_to_the_1_5 = |n: usize| ((n as f64).powf(1.5) as usize).max(4 * n);
    let mut cells = Vec::new();
    match claim {
        Claim::E1 => {
            for n in sizes {
                let sparse = ("sparse m≈4n", connected_with_edges(n, 4 * n, 1_000, &mut rng));
                let m = (n as f64).powf(1.5) as usize;
                let dense = ("dense m≈n^1.5", connected_with_edges(n, m, 1_000, &mut rng));
                // The same K_512 at every larger n, so measured only up to it.
                let clustered = (n <= 512).then(|| ("clustered K_n", clustered_complete(n)));
                for (workload, g) in [sparse, dense].into_iter().chain(clustered) {
                    cells.push(build("kkt_mst", g.clone(), workload, seed, (seed ^ 1, seed ^ 2)));
                    cells.push(build("ghs", g, workload, seed, (seed ^ 3, 0)));
                }
            }
        }
        Claim::E2 => {
            for n in sizes {
                let g = connected_with_edges(n, n_to_the_1_5(n), 1, &mut rng);
                cells.push(build("kkt_st", g.clone(), "m≈n^1.5", seed, (seed ^ 11, seed ^ 12)));
                cells.push(build("flooding", g, "m≈n^1.5", seed, (seed ^ 13, 0)));
            }
        }
        Claim::E3 => {
            for n in scale.repair_sizes() {
                let g = connected_with_edges(n, n_to_the_1_5(n), 1_000, &mut rng);
                cells.extend(repairs(TreeKind::Mst, &g, "m≈n^1.5", seed, trials));
            }
        }
        Claim::E4 => {
            for n in scale.repair_sizes() {
                let g = connected_with_edges(n, 6 * n, 1, &mut rng);
                cells.extend(repairs(TreeKind::St, &g, "m=6n unweighted", seed, trials));
            }
        }
        Claim::E5 => {
            for cut_size in [0, 1, 2, 4, 16, 64] {
                cells.extend(detections(cut_size, seed, scale.probability_trials(), &mut rng));
            }
        }
        Claim::E6 => {
            for n in sizes {
                let g = connected_with_edges(n, 4 * n, 1_000, &mut rng);
                cells.extend(searches(&g, "m=4n", seed, 300, trials * 10, true));
            }
        }
        Claim::E7 => {
            let n = *sizes.last().expect("a construction size");
            for bits in [8u32, 16, 32, 48, 63] {
                let max_weight = if bits >= 63 { u64::MAX / 2 } else { (1u64 << bits) - 1 };
                let g = connected_with_edges(n, 4 * n, max_weight, &mut rng);
                let workload = format!("weight_bits={bits}");
                cells.extend(searches(&g, &workload, seed, 400, trials, false));
            }
        }
        Claim::E8 => {
            let (n, degrees) = match scale {
                Scale::Quick => (192usize, vec![2, 8, 32, usize::MAX]),
                Scale::Large => (1024, vec![2, 4, 8, 16, 32, 64, 128, usize::MAX]),
            };
            for degree in degrees {
                let m = (n.saturating_mul(degree) / 2).min(n * (n - 1) / 2);
                let g = connected_with_edges(n, m, 1_000, &mut rng);
                let workload = &format!("avg_degree={}", degree.min(n - 1));
                // GHS runs on the rejection-heavy clustered re-weighting.
                let mut clustered = g.clone();
                for (e, edge) in g.live_edges().map(|e| (e.0 as u64, g.edge(e))) {
                    let same = (edge.u < n / 2) == (edge.v < n / 2);
                    clustered.set_weight(edge.u, edge.v, if same { 1 + e } else { 10_000_000 + e });
                }
                let ghs = build("ghs", clustered, workload, seed, (seed ^ 23, 0));
                cells.push(build("kkt_mst", g.clone(), workload, seed, (seed ^ 21, seed ^ 22)));
                cells.push(ClaimCell { operation: "ghs_clustered".to_string(), ..ghs });
                cells.push(build("kkt_st", g.clone(), workload, seed, (seed ^ 24, seed ^ 25)));
                cells.push(build("flooding", g, workload, seed, (seed ^ 26, 0)));
            }
        }
    }
    cells
}

/// E7's `lg(maxWt)/lg w` for a FindMin cell: the weight bits plus the
/// `2⌈lg n⌉` bits that break ties by endpoint IDs, over the lg of FindMin's
/// word width at `n`.
pub fn lg_weights_over_lg_w(cell: &ClaimCell) -> f64 {
    let w = KktConfig::default().effective_word_width(cell.n) as f64;
    let total_bits = cell.parameter() as f64 + 2.0 * lg(cell.n).ceil();
    total_bits / w.log2()
}

/// `messages / scale` to `digits` decimals, for a ratio column.
fn per(messages: u64, scale: f64, digits: usize) -> String {
    format!("{:.digits$}", messages as f64 / scale)
}

/// `lg n`.
fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

/// `claim`'s table, from `report` alone.
fn table(claim: Claim, report: &ClaimReport) -> Table {
    match claim {
        Claim::E1 => Table::of_rows(
            "E1: MST construction messages (KKT O(n log^2 n / log log n) vs GHS O(m + n log n))",
            &report.rows(["kkt_mst", "ghs"]),
            &[
                ("n", |[k, _]| k.n.to_string()),
                ("workload", |[k, _]| k.workload.clone()),
                ("m", |[k, _]| k.m.to_string()),
                ("kkt_msgs", |[k, _]| k.cost.messages.to_string()),
                ("ghs_msgs", |[_, g]| g.cost.messages.to_string()),
                ("kkt/n", |[k, _]| per(k.cost.messages, k.n as f64, 1)),
                ("ghs/m", |[_, g]| per(g.cost.messages, g.m as f64, 2)),
            ],
        ),
        Claim::E2 => Table::of_rows(
            "E2: ST construction messages (KKT O(n log n) vs flooding Θ(m))",
            &report.rows(["kkt_st", "flooding"]),
            &[
                ("n", |[k, _]| k.n.to_string()),
                ("m", |[k, _]| k.m.to_string()),
                ("kkt_msgs", |[k, _]| k.cost.messages.to_string()),
                ("flood_msgs", |[_, f]| f.cost.messages.to_string()),
                ("kkt/(n lg n)", |[k, _]| per(k.cost.messages, k.n as f64 * lg(k.n), 2)),
                ("flood/m", |[_, f]| per(f.cost.messages, f.m as f64, 2)),
            ],
        ),
        Claim::E3 => Table::of_rows(
            "E3: MST repair messages per update (impromptu O(n log n / log log n) vs flooding Θ(m))",
            &report.rows(["delete", "flood_delete", "insert"]),
            &[
                ("n", |[d, ..]| d.n.to_string()),
                ("m", |[d, ..]| d.m.to_string()),
                ("delete_kkt(mean)", |[d, ..]| format!("{:.0}", d.mean(d.cost.messages))),
                ("delete_flood(mean)", |[_, f, _]| format!("{:.0}", f.mean(f.cost.messages))),
                ("insert_kkt(mean)", |[.., i]| format!("{:.0}", i.mean(i.cost.messages))),
                ("kkt/n", |[d, ..]| format!("{:.1}", d.mean(d.cost.messages) / d.n as f64)),
            ],
        ),
        Claim::E4 => Table::of_rows(
            "E4: ST repair messages per deleted tree edge (expected O(n))",
            &report.rows(["delete"]),
            &[
                ("n", |[d]| d.n.to_string()),
                ("m", |[d]| d.m.to_string()),
                ("delete_st(mean)", |[d]| format!("{:.0}", d.mean(d.cost.messages))),
                ("delete_st(max)", |[d]| d.max_messages.to_string()),
                ("mean/n", |[d]| format!("{:.2}", d.mean(d.cost.messages) / d.n as f64)),
            ],
        ),
        Claim::E5 => Table::of_rows(
            "E5: TestOut / HP-TestOut detection rates (Lemma 1, §2)",
            &report.rows(["test_out", "hp_test_out"]),
            &[
                ("cut_size", |[t, _]| t.parameter().to_string()),
                ("trials", |[t, _]| t.trials.to_string()),
                ("testout_rate", |[t, _]| format!("{:.3}", t.mean(t.hits))),
                ("hp_rate", |[_, h]| format!("{:.3}", h.mean(h.hits))),
                // Any hit on the empty cut is a false positive.
                ("false_positives", |[t, h]| {
                    (if t.parameter() == 0 { t.hits + h.hits } else { 0 }).to_string()
                }),
            ],
        ),
        Claim::E6 => Table::of_rows(
            "E6: FindAny-C success rate and FindMin search iterations",
            &report.rows(["find_any_c", "find_min"]),
            &[
                ("n", |[a, _]| a.n.to_string()),
                ("findany_c_rate", |[a, _]| format!("{:.2}", a.mean(a.hits))),
                ("findmin_iters(mean)", |[_, f]| format!("{:.1}", f.mean(f.iterations))),
                ("findmin_be(mean)", |[_, f]| format!("{:.1}", f.mean(f.cost.broadcast_echoes))),
                ("lg(n)/lglg(n)", |[a, _]| format!("{:.1}", lg(a.n) / lg(a.n).log2())),
            ],
        ),
        Claim::E7 => Table::of_rows(
            "E7: FindMin under growing weight universes (Appendix A)",
            &report.rows(["find_min"]),
            &[
                ("n", |[f]| f.n.to_string()),
                ("weight_bits", |[f]| f.parameter().to_string()),
                ("iters(mean)", |[f]| format!("{:.1}", f.mean(f.iterations))),
                ("narrowings(mean)", |[f]| format!("{:.1}", f.mean(f.narrowings))),
                ("lg(maxWt)/lg(w)", |[f]| format!("{:.1}", lg_weights_over_lg_w(f))),
            ],
        ),
        Claim::E8 => Table::of_rows(
            "E8: density sweep at fixed n — messages vs m (who wins where)",
            &report.rows(["kkt_mst", "ghs_clustered", "kkt_st", "flooding"]),
            &[
                ("n", |[k, ..]| k.n.to_string()),
                ("m", |[k, ..]| k.m.to_string()),
                ("kkt_mst", |[k, ..]| k.cost.messages.to_string()),
                ("ghs(clustered)", |[_, g, ..]| g.cost.messages.to_string()),
                ("kkt_st", |[.., s, _]| s.cost.messages.to_string()),
                ("flooding", |[.., f]| f.cost.messages.to_string()),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn clustered_complete_is_complete() {
        let g = clustered_complete(10);
        assert_eq!(g.edge_count(), 45);
        assert!(g.is_connected());
    }

    #[test]
    fn exp2_smoke_shows_flooding_scaling_with_m() {
        let (table, _) = run(Claim::E2, Scale::Quick, 2);
        assert_eq!(table.len(), Scale::Quick.construction_sizes().len());
        // Flooding messages grow at least linearly in m; the last row's m is
        // the largest, so its flooding count must be the largest too.
        let flood: Vec<f64> = table.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(flood.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn exp5_smoke_runs_and_reports_no_false_positives() {
        let (table, _) = run(Claim::E5, Scale::Quick, 1);
        assert_eq!(table.len(), 6);
        for row in table.rows() {
            assert_eq!(row[4], "0", "TestOut/HP-TestOut must never report a phantom edge");
        }
    }

    fn has_float(value: &Value) -> bool {
        match value {
            Value::Float(_) => true,
            Value::Array(items) => items.iter().any(has_float),
            Value::Object(fields) => fields.iter().any(|(_, v)| has_float(v)),
            _ => false,
        }
    }

    #[test]
    fn claim_reports_are_integer_sealed_and_byte_identical_across_runs() {
        let (table, report) = run(Claim::E7, Scale::Quick, 3);
        let (_, again) = run(Claim::E7, Scale::Quick, 3);
        let json = serde_json::to_string(&report).unwrap();
        assert_eq!(json, serde_json::to_string(&again).unwrap());
        assert!(!has_float(&serde_json::to_value(&report)), "{json}");
        let resealed = ClaimReport::sealed("E7", "quick", 3, report.cells.clone());
        assert_eq!(resealed.fingerprint, report.fingerprint);
        // One cell per weight universe, each summing its trials.
        assert_eq!((report.cells.len(), table.len()), (5, 5));
        assert!(report.cells.iter().all(|c| c.trials == 3 && c.hits == 3));
        assert_ne!(run(Claim::E7, Scale::Quick, 4).1.fingerprint, report.fingerprint);
    }
}
