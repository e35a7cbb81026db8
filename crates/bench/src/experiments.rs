//! The experiment suite: one function per quantitative claim of the paper.
//!
//! Every function is deterministic given its seed, prints nothing, and
//! returns a [`Table`] whose rows are exactly what the corresponding `exp*`
//! binary writes to stdout (and what `EXPERIMENTS.md` records).

use rand::rngs::StdRng;
use rand::SeedableRng;

use serde::{Deserialize, Serialize};

use kkt_baselines::{build_mst_ghs, build_st_by_flooding, flood_repair_delete};
use kkt_congest::{Network, NetworkConfig};
use kkt_core::{
    build_mst, build_st, delete_edge_mst, delete_edge_st, find_any, find_min, hp_test_out,
    insert_edge_mst, test_out, Budget, DeleteOutcome, KktConfig, WeightInterval,
};
use kkt_graphs::{generators, kruskal, Graph};
use kkt_workloads::{
    run_churn_suite, AdversarialTreeCut, AnatomyPoint, ChurnSuiteReport, CostAnatomyReport,
    Density, DensityPoint, DensitySweepReport, MaintenancePolicy, MixedPhases, MultiEdgeCuts,
    PhaseAccumulator, PoissonChurn, ReplayConfig, ReplayHarness, ScalePoint, ScaleSweepReport,
    Scenario, ScenarioComparison, SuiteParams,
};

use crate::stats::Summary;
use crate::table::Table;
use crate::Scale;

fn fresh_net(g: Graph, seed: u64) -> Network {
    Network::new(g, NetworkConfig { seed, ..NetworkConfig::default() })
}

/// A two-cluster complete graph whose weights force GHS into its Θ(m)
/// rejection-heavy regime (light intra-cluster edges, heavy inter-cluster
/// edges).
pub fn clustered_complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    let mut next = 1u64;
    for u in 0..n {
        for v in (u + 1)..n {
            let same = (u < n / 2) == (v < n / 2);
            let w = if same { next } else { 10_000_000 + next };
            next += 1;
            g.add_edge(u, v, w);
        }
    }
    g
}

/// E1 — MST construction messages: KKT vs GHS vs the edge count `m`
/// (Theorem 1.1 / Lemma 3). Two density regimes per `n`, plus the
/// GHS-adversarial clustered instance.
pub fn exp1_mst_construction(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E1: MST construction messages (KKT O(n log^2 n / log log n) vs GHS O(m + n log n))",
        &["n", "workload", "m", "kkt_msgs", "ghs_msgs", "kkt/n", "ghs/m"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.construction_sizes() {
        let workloads: Vec<(&str, Graph)> = vec![
            ("sparse m≈4n", generators::connected_with_edges(n, 4 * n, 1_000, &mut rng)),
            (
                "dense m≈n^1.5",
                generators::connected_with_edges(n, (n as f64).powf(1.5) as usize, 1_000, &mut rng),
            ),
            ("clustered K_n", clustered_complete(n.min(512))),
        ];
        for (name, g) in workloads {
            let n_actual = g.node_count();
            let m = g.edge_count() as u64;
            let mut kkt_net = fresh_net(g.clone(), seed ^ 1);
            let mut r = StdRng::seed_from_u64(seed ^ 2);
            build_mst(&mut kkt_net, &config, &mut r).expect("construction converges");
            kkt_graphs::verify_mst(kkt_net.graph(), &kkt_net.marked_forest_snapshot()).unwrap();
            let kkt_msgs = kkt_net.cost().messages;

            let mut ghs_net = fresh_net(g, seed ^ 3);
            build_mst_ghs(&mut ghs_net);
            kkt_graphs::verify_mst(ghs_net.graph(), &ghs_net.marked_forest_snapshot()).unwrap();
            let ghs_msgs = ghs_net.cost().messages;

            table.push_row(vec![
                n_actual.to_string(),
                name.to_string(),
                m.to_string(),
                kkt_msgs.to_string(),
                ghs_msgs.to_string(),
                format!("{:.1}", kkt_msgs as f64 / n_actual as f64),
                format!("{:.2}", ghs_msgs as f64 / m as f64),
            ]);
        }
    }
    table
}

/// E2 — ST construction messages: KKT `Build ST` vs flooding (Theorem 1.1 /
/// Lemma 6 vs the Ω(m) folk theorem).
pub fn exp2_st_construction(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E2: ST construction messages (KKT O(n log n) vs flooding Θ(m))",
        &["n", "m", "kkt_msgs", "flood_msgs", "kkt/(n lg n)", "flood/m"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.construction_sizes() {
        let m_target = ((n as f64).powf(1.5) as usize).max(4 * n);
        let g = generators::connected_with_edges(n, m_target, 1, &mut rng);
        let m = g.edge_count() as u64;

        let mut kkt_net = fresh_net(g.clone(), seed ^ 11);
        let mut r = StdRng::seed_from_u64(seed ^ 12);
        build_st(&mut kkt_net, &config, &mut r).expect("construction converges");
        kkt_graphs::verify_spanning_forest(kkt_net.graph(), &kkt_net.marked_forest_snapshot())
            .unwrap();
        let kkt_msgs = kkt_net.cost().messages;

        let mut flood_net = fresh_net(g, seed ^ 13);
        build_st_by_flooding(&mut flood_net, 0).unwrap();
        let flood_msgs = flood_net.cost().messages;

        let nlogn = n as f64 * (n as f64).log2();
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            kkt_msgs.to_string(),
            flood_msgs.to_string(),
            format!("{:.2}", kkt_msgs as f64 / nlogn),
            format!("{:.2}", flood_msgs as f64 / m as f64),
        ]);
    }
    table
}

/// E3 — impromptu MST repair: expected messages per tree-edge deletion and
/// per insertion vs the flood-repair baseline (Theorem 1.2 / Lemma 2).
pub fn exp3_mst_repair(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E3: MST repair messages per update (impromptu O(n log n / log log n) vs flooding Θ(m))",
        &["n", "m", "delete_kkt(mean)", "delete_flood(mean)", "insert_kkt(mean)", "kkt/n"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.repair_sizes() {
        let m_target = ((n as f64).powf(1.5) as usize).max(4 * n);
        let g = generators::connected_with_edges(n, m_target, 1_000, &mut rng);
        let m = g.edge_count() as u64;
        let mst = kruskal(&g);
        let trials = scale.trials().max(3);

        let mut kkt_deletes = Vec::new();
        let mut flood_deletes = Vec::new();
        let mut kkt_inserts = Vec::new();
        for t in 0..trials {
            // KKT delete + re-insert cycle, asynchronous delivery.
            let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(seed ^ t as u64, 8));
            net.mark_all(&mst.edges);
            let mut r = StdRng::seed_from_u64(seed ^ (100 + t as u64));
            let victim = mst.edges[(t * 7919) % mst.edges.len()];
            let edge = *net.graph().edge(victim);
            let before = net.cost();
            let outcome = delete_edge_mst(&mut net, edge.u, edge.v, &config, &mut r).unwrap();
            assert!(!matches!(outcome, DeleteOutcome::NotATreeEdge));
            kkt_deletes.push((net.cost() - before).messages);

            let before = net.cost();
            insert_edge_mst(&mut net, edge.u, edge.v, edge.weight).unwrap();
            kkt_inserts.push((net.cost() - before).messages);
            kkt_graphs::verify_mst(net.graph(), &net.marked_forest_snapshot()).unwrap();

            // Flood-repair baseline on the same deletion.
            let mut base = Network::new(g.clone(), NetworkConfig::synchronous(seed ^ t as u64));
            base.mark_all(&mst.edges);
            let outcome = flood_repair_delete(&mut base, edge.u, edge.v).unwrap();
            flood_deletes.push(outcome.messages);
        }
        let kd = Summary::of_u64(&kkt_deletes);
        let fd = Summary::of_u64(&flood_deletes);
        let ki = Summary::of_u64(&kkt_inserts);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            format!("{:.0}", kd.mean),
            format!("{:.0}", fd.mean),
            format!("{:.0}", ki.mean),
            format!("{:.1}", kd.mean / n as f64),
        ]);
    }
    table
}

/// E4 — impromptu ST repair: expected messages per tree-edge deletion
/// (Theorem 1.2 / Lemma 5: O(n)).
pub fn exp4_st_repair(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E4: ST repair messages per deleted tree edge (expected O(n))",
        &["n", "m", "delete_st(mean)", "delete_st(max)", "mean/n"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.repair_sizes() {
        let g = generators::connected_with_edges(n, 6 * n, 1, &mut rng);
        let m = g.edge_count() as u64;
        let st = kruskal(&g);
        let trials = scale.trials().max(3);
        let mut costs = Vec::new();
        for t in 0..trials {
            let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(seed ^ t as u64, 8));
            net.mark_all(&st.edges);
            let mut r = StdRng::seed_from_u64(seed ^ (200 + t as u64));
            let victim = st.edges[(t * 104729) % st.edges.len()];
            let edge = *net.graph().edge(victim);
            let before = net.cost();
            delete_edge_st(&mut net, edge.u, edge.v, &config, &mut r).unwrap();
            costs.push((net.cost() - before).messages);
            kkt_graphs::verify_spanning_forest(net.graph(), &net.marked_forest_snapshot()).unwrap();
        }
        let s = Summary::of_u64(&costs);
        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            format!("{:.0}", s.mean),
            format!("{:.0}", s.max),
            format!("{:.2}", s.mean / n as f64),
        ]);
    }
    table
}

/// E5 — primitive success probabilities: TestOut detection rate per cut size
/// (claim: ≥ 1/8, one-sided) and HP-TestOut miss rate (claim: ≤ ε(n) ≈ 0).
pub fn exp5_testout_probability(scale: Scale, seed: u64) -> Table {
    let mut table = Table::new(
        "E5: TestOut / HP-TestOut detection rates (Lemma 1, §2)",
        &["cut_size", "trials", "testout_rate", "hp_rate", "false_positives"],
    );
    let trials = scale.probability_trials();
    let mut rng = StdRng::seed_from_u64(seed);
    for cut_size in [0usize, 1, 2, 4, 16, 64] {
        // Two 8-node paths with `cut_size` extra edges between them.
        let mut g = Graph::new(16);
        let mut marked = Vec::new();
        for i in 0..7 {
            marked.push(g.add_edge(i, i + 1, 1).unwrap());
            marked.push(g.add_edge(8 + i, 8 + i + 1, 1).unwrap());
        }
        let mut added = 0;
        'outer: for a in 0..8usize {
            for b in 8..16usize {
                if added >= cut_size {
                    break 'outer;
                }
                if g.add_edge(a, b, 10 + (a * 16 + b) as u64).is_some() {
                    added += 1;
                }
            }
        }
        let mut net = Network::new(g, NetworkConfig::default());
        net.mark_all(&marked);
        let mut testout_hits = 0u64;
        let mut hp_hits = 0u64;
        let mut false_positives = 0u64;
        for _ in 0..trials {
            let t = test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap();
            let h = hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap();
            if t {
                testout_hits += 1;
                if cut_size == 0 {
                    false_positives += 1;
                }
            }
            if h {
                hp_hits += 1;
                if cut_size == 0 {
                    false_positives += 1;
                }
            }
        }
        table.push_row(vec![
            cut_size.to_string(),
            trials.to_string(),
            format!("{:.3}", testout_hits as f64 / trials as f64),
            format!("{:.3}", hp_hits as f64 / trials as f64),
            false_positives.to_string(),
        ]);
    }
    table
}

/// E6 — FindAny-C success rate (claim: ≥ 1/16 per attempt) and FindMin
/// broadcast-and-echo count scaling (claim: `O(log n / log log n)`).
pub fn exp6_find_primitives(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E6: FindAny-C success rate and FindMin search iterations",
        &["n", "findany_c_rate", "findmin_iters(mean)", "findmin_be(mean)", "lg(n)/lglg(n)"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for n in scale.construction_sizes() {
        let g = generators::connected_with_edges(n, 4 * n, 1_000, &mut rng);
        let mst = kruskal(&g);
        let trials = (scale.trials() * 10).max(20);
        let mut successes = 0u64;
        let mut iterations = Vec::new();
        let mut broadcast_echoes = Vec::new();
        for t in 0..trials {
            let mut net = Network::new(g.clone(), NetworkConfig::synchronous(seed ^ t as u64));
            // Mark half the MST so the fragment of node 0 has outgoing edges.
            net.mark_all(&mst.edges[..mst.edges.len() / 2]);
            let mut r = StdRng::seed_from_u64(seed ^ (300 + t as u64));
            if find_any(&mut net, 0, Budget::Constant, &config, &mut r).unwrap().edge().is_some() {
                successes += 1;
            }
            let before = net.cost();
            let (outcome, trace) = find_min(&mut net, 0, Budget::Whp, &config, &mut r).unwrap();
            assert!(outcome.edge().is_some());
            iterations.push(trace.iterations as u64);
            broadcast_echoes.push((net.cost() - before).broadcast_echoes);
        }
        let lg = (n as f64).log2();
        table.push_row(vec![
            n.to_string(),
            format!("{:.2}", successes as f64 / trials as f64),
            format!("{:.1}", Summary::of_u64(&iterations).mean),
            format!("{:.1}", Summary::of_u64(&broadcast_echoes).mean),
            format!("{:.1}", lg / lg.log2()),
        ]);
    }
    table
}

/// E7 — superpolynomial edge weights (Appendix A / Theorem A.1): FindMin with
/// weights drawn from ever larger universes; the iteration count grows like
/// `log(maxWt)/log w`, not like `log(maxWt)`.
pub fn exp7_superpoly_weights(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let mut table = Table::new(
        "E7: FindMin under growing weight universes (Appendix A)",
        &["n", "weight_bits", "iters(mean)", "narrowings(mean)", "lg(maxWt)/lg(w)"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = *scale.construction_sizes().last().unwrap_or(&256);
    for weight_bits in [8u32, 16, 32, 48, 63] {
        let max_weight = if weight_bits >= 63 { u64::MAX / 2 } else { (1u64 << weight_bits) - 1 };
        let g = generators::connected_with_edges(n, 4 * n, max_weight, &mut rng);
        let mst = kruskal(&g);
        let trials = scale.trials().max(3);
        let mut iters = Vec::new();
        let mut narrowings = Vec::new();
        for t in 0..trials {
            let mut net = Network::new(g.clone(), NetworkConfig::synchronous(seed ^ t as u64));
            net.mark_all(&mst.edges[..mst.edges.len() / 2]);
            let mut r = StdRng::seed_from_u64(seed ^ (400 + t as u64));
            let (outcome, trace) = find_min(&mut net, 0, Budget::Whp, &config, &mut r).unwrap();
            assert!(outcome.edge().is_some());
            iters.push(trace.iterations as u64);
            narrowings.push(trace.narrowings as u64);
        }
        let w = config.effective_word_width(n) as f64;
        let total_bits = weight_bits as f64 + 2.0 * (n as f64).log2().ceil();
        table.push_row(vec![
            n.to_string(),
            weight_bits.to_string(),
            format!("{:.1}", Summary::of_u64(&iters).mean),
            format!("{:.1}", Summary::of_u64(&narrowings).mean),
            format!("{:.1}", total_bits / w.log2()),
        ]);
    }
    table
}

/// E8 — density crossover at fixed `n`: messages of KKT construction vs the
/// baselines as `m/n` grows (the "o(m)" headline).
pub fn exp8_density_crossover(scale: Scale, seed: u64) -> Table {
    let config = KktConfig::default();
    let n = match scale {
        Scale::Quick => 192,
        Scale::Large => 1024,
    };
    let mut table = Table::new(
        "E8: density sweep at fixed n — messages vs m (who wins where)",
        &["n", "m", "kkt_mst", "ghs(clustered)", "kkt_st", "flooding"],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let densities: Vec<usize> = match scale {
        Scale::Quick => vec![2, 8, 32, usize::MAX],
        Scale::Large => vec![2, 4, 8, 16, 32, 64, 128, usize::MAX],
    };
    for avg_degree in densities {
        let m_target = if avg_degree == usize::MAX {
            n * (n - 1) / 2
        } else {
            (n * avg_degree / 2).min(n * (n - 1) / 2)
        };
        let weighted = generators::connected_with_edges(n, m_target, 1_000, &mut rng);
        let m = weighted.edge_count() as u64;

        let mut kkt_net = fresh_net(weighted.clone(), seed ^ 21);
        let mut r = StdRng::seed_from_u64(seed ^ 22);
        build_mst(&mut kkt_net, &config, &mut r).unwrap();
        let kkt_mst = kkt_net.cost().messages;

        // GHS on a rejection-heavy instance with the same m (clustered
        // weights laid over the same topology).
        let mut clustered = weighted.clone();
        for e in clustered.live_edges().collect::<Vec<_>>() {
            let edge = *clustered.edge(e);
            let same = (edge.u < n / 2) == (edge.v < n / 2);
            let w = if same { 1 + e.0 as u64 } else { 10_000_000 + e.0 as u64 };
            clustered.set_weight(edge.u, edge.v, w);
        }
        let mut ghs_net = fresh_net(clustered, seed ^ 23);
        build_mst_ghs(&mut ghs_net);
        let ghs = ghs_net.cost().messages;

        let mut st_net = fresh_net(weighted.clone(), seed ^ 24);
        let mut r = StdRng::seed_from_u64(seed ^ 25);
        build_st(&mut st_net, &config, &mut r).unwrap();
        let kkt_st = st_net.cost().messages;

        let mut flood_net = fresh_net(weighted, seed ^ 26);
        build_st_by_flooding(&mut flood_net, 0).unwrap();
        let flooding = flood_net.cost().messages;

        table.push_row(vec![
            n.to_string(),
            m.to_string(),
            kkt_mst.to_string(),
            ghs.to_string(),
            kkt_st.to_string(),
            flooding.to_string(),
        ]);
    }
    table
}

/// E9 — churn policies: the standard scenario battery (Poisson churn,
/// adversarial tree-cut, partition-and-heal, weight drift, mixed lifecycle)
/// replayed under impromptu repair vs rebuild-from-scratch policies. The
/// amortised version of the repair theorems: over a long trace, repairing
/// beats rebuilding by roughly the ratio of `Õ(n)` to the construction cost.
///
/// Returns the printable table *and* the full sealed JSON report (the
/// `exp9_churn_policies` binary prints the former to stderr and the latter
/// to stdout).
pub fn exp9_churn_policies(scale: Scale, seed: u64) -> (Table, ChurnSuiteReport) {
    let params = match scale {
        Scale::Quick => SuiteParams {
            n: 48,
            m: 4 * 48,
            events: 12,
            verify_every: 4,
            seed,
            ..SuiteParams::default()
        },
        // The ROADMAP's Scale item: the large tier runs the whole battery at
        // n = 1024 through the `scale_preset` ladder (incremental-oracle
        // checkpoints and the index-addressed engine are what make this a
        // minutes-scale sweep instead of an hours-scale one).
        Scale::Large => SuiteParams { seed, ..SuiteParams::scale_preset(1024) },
    };
    let report = run_churn_suite(&params).expect("churn suite replays and verifies");
    let mut table = Table::new(
        "E9: churn policies — impromptu repair vs rebuild, total cost over the whole trace",
        &[
            "scenario",
            "policy",
            "events",
            "msgs_total",
            "bits_total",
            "msgs/event",
            "msgs/event(max)",
            "checkpoints",
        ],
    );
    for scenario in &report.scenarios {
        for r in &scenario.reports {
            table.push_row(vec![
                scenario.scenario.clone(),
                r.policy.clone(),
                r.top_level_events.to_string(),
                r.total.messages.to_string(),
                r.total.bits.to_string(),
                format!("{:.0}", r.mean_messages_per_event),
                r.max_messages_per_event.to_string(),
                r.checkpoints_verified.to_string(),
            ]);
        }
    }
    (table, report)
}

/// E10 — batched repair: `multi_edge_cuts` bursts severing `k` independent
/// tree edges at once, replayed under sequential impromptu repair, the
/// batched repair pipeline, and rebuild-from-scratch, for `k ∈ {1..16}`.
/// This is the crossover the ROADMAP flagged after exp9: sequential repairs
/// lose to one rebuild on bursts, so batching is where o(m) maintenance
/// either wins or dies under churn.
///
/// Returns the printable table *and* the sealed deterministic JSON report
/// (the `exp10_batched_repair` binary prints the former to stderr and the
/// latter to stdout; CI asserts the JSON is byte-identical across runs).
pub fn exp10_batched_repair(scale: Scale, seed: u64) -> (Table, ChurnSuiteReport) {
    let (n, m, events, burst_sizes): (usize, usize, usize, Vec<usize>) = match scale {
        Scale::Quick => (48, 4 * 48, 6, vec![1, 2, 4, 8]),
        Scale::Large => (128, 8 * 128, 10, vec![1, 2, 4, 8, 16]),
    };
    let params = SuiteParams { n, m, events, seed, verify_every: 2, ..SuiteParams::default() };
    let base = params.base_graph();
    let harness = ReplayHarness::new(ReplayConfig {
        kind: params.kind,
        scheduler: params.scheduler,
        verify_every: params.verify_every,
        seed,
        ..ReplayConfig::default()
    });
    let policies = [
        MaintenancePolicy::Impromptu,
        MaintenancePolicy::BatchedRepair,
        MaintenancePolicy::RebuildKkt,
    ];
    let mut scenarios = Vec::new();
    for &k in &burst_sizes {
        let scenario = MultiEdgeCuts { burst_size: k, max_weight: params.max_weight };
        let workload = scenario.generate(&base, events, seed);
        let stats = workload.validate(&base).expect("generated trace is applicable");
        let mut reports = Vec::new();
        for policy in policies {
            reports.push(
                harness
                    .replay(&base, &workload, policy)
                    .expect("every checkpoint verifies against the Kruskal oracle"),
            );
        }
        scenarios.push(ScenarioComparison {
            scenario: workload.scenario.clone(),
            workload_fingerprint: workload.fingerprint(),
            stats,
            reports,
        });
    }
    let mut report = ChurnSuiteReport {
        n: base.node_count(),
        m: base.edge_count(),
        events_per_scenario: events,
        m_over_n: kkt_workloads::report::m_over_n(&base),
        seed,
        tree_kind: "mst".to_string(),
        scheduler: kkt_workloads::report::scheduler_label(params.scheduler),
        scenarios,
        fingerprint: String::new(),
    };
    report.seal();

    let mut table = Table::new(
        "E10: batched repair — sequential vs batched vs rebuild on k simultaneous cuts",
        &[
            "k",
            "policy",
            "events",
            "msgs_total",
            "bits_total",
            "time_total",
            "vs_seq(bits)",
            "checkpoints",
        ],
    );
    for (scenario, &k) in report.scenarios.iter().zip(&burst_sizes) {
        let sequential_bits =
            scenario.report_for("impromptu_repair").map(|r| r.total.bits).unwrap_or(0).max(1);
        for r in &scenario.reports {
            table.push_row(vec![
                k.to_string(),
                r.policy.clone(),
                r.top_level_events.to_string(),
                r.total.messages.to_string(),
                r.total.bits.to_string(),
                r.total.time.to_string(),
                format!("{:.2}x", r.total.bits as f64 / sequential_bits as f64),
                r.checkpoints_verified.to_string(),
            ]);
        }
    }
    (table, report)
}

/// E11 — the scale sweep: one Poisson-churn scenario instantiated at a
/// ladder of network sizes (the `SuiteParams::scale_preset` rungs), replayed
/// under all four MST policies, pricing **bits per event vs n**. This is the
/// regime where the paper's asymptotics either show up or don't: at n ≤ 200
/// constant factors drown the `O(n log²n / log log n)`-vs-`Θ(m)` separation,
/// at n ≥ 1024 the per-event repair bill has to grow visibly slower than the
/// rebuild baselines'.
///
/// `only_n` restricts the sweep to a single rung (the `KKT_EXP11_N`
/// environment variable in the binary) — CI uses it to run the n = 1024
/// scenario twice inside a wall-clock budget and assert byte-identical
/// reports.
///
/// Returns the printable table *and* the sealed deterministic JSON report.
pub fn exp11_scale_sweep(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
) -> (Table, ScaleSweepReport) {
    let sizes: Vec<usize> = scale
        .scale_sweep_sizes()
        .into_iter()
        .filter(|&n| only_n.is_none_or(|only| only == n))
        .collect();
    // An unmatched restriction must fail loudly: an empty sweep would exit 0
    // with an empty report, and the CI determinism guard would green-light
    // while comparing two trivially identical files.
    assert!(
        !sizes.is_empty(),
        "KKT_EXP11_N={:?} matches no rung of the {:?} ladder {:?}",
        only_n,
        scale,
        scale.scale_sweep_sizes()
    );
    let policies = MaintenancePolicy::all_for(kkt_core::TreeKind::Mst);
    let mut points = Vec::new();
    let mut scheduler = String::new();
    for n in sizes {
        let params = SuiteParams { seed, ..SuiteParams::scale_preset(n) };
        let base = params.base_graph();
        let harness = ReplayHarness::new(ReplayConfig {
            kind: params.kind,
            scheduler: params.scheduler,
            verify_every: params.verify_every,
            seed,
            ..ReplayConfig::default()
        });
        scheduler = kkt_workloads::report::scheduler_label(params.scheduler);
        // Two regimes per rung: steady-state background churn, and the
        // adversary that severs a current tree edge on every deletion —
        // the latter forces a real FindMin repair per event, which is what
        // the repair-vs-rebuild scaling exponents are measured on.
        let scenarios: Vec<Box<dyn Scenario>> = vec![
            Box::new(PoissonChurn { delete_fraction: 0.5, max_weight: params.max_weight }),
            Box::new(AdversarialTreeCut { max_weight: params.max_weight }),
        ];
        for scenario in scenarios {
            let workload = scenario.generate(&base, params.events, seed);
            let stats = workload.validate(&base).expect("generated trace is applicable");
            let mut reports = Vec::new();
            for &policy in &policies {
                reports.push(
                    harness
                        .replay(&base, &workload, policy)
                        .expect("every checkpoint verifies against the shadow oracle"),
                );
            }
            points.push(ScalePoint {
                n: base.node_count(),
                m: base.edge_count(),
                events: workload.len(),
                verify_every: params.verify_every,
                scenario: workload.scenario.clone(),
                workload_fingerprint: workload.fingerprint(),
                stats,
                reports,
            });
        }
    }
    let mut report = ScaleSweepReport {
        seed,
        tree_kind: "mst".to_string(),
        scheduler,
        points,
        fingerprint: String::new(),
    };
    report.seal();

    let mut table = Table::new(
        "E11: scale sweep — bits per event vs n, repair policies vs rebuild baselines",
        &[
            "n",
            "m",
            "scenario",
            "policy",
            "events",
            "bits_total",
            "bits/event",
            "msgs/event",
            "vs_rebuild(bits)",
            "checkpoints",
        ],
    );
    for point in &report.points {
        let rebuild_bits =
            point.report_for("rebuild_kkt").map(|r| r.total.bits).unwrap_or(0).max(1);
        for r in &point.reports {
            let events = r.top_level_events.max(1) as f64;
            table.push_row(vec![
                point.n.to_string(),
                point.m.to_string(),
                point.scenario.clone(),
                r.policy.clone(),
                r.top_level_events.to_string(),
                r.total.bits.to_string(),
                format!("{:.0}", r.total.bits as f64 / events),
                format!("{:.0}", r.total.messages as f64 / events),
                format!("{:.3}x", r.total.bits as f64 / rebuild_bits as f64),
                r.checkpoints_verified.to_string(),
            ]);
        }
    }
    (table, report)
}

/// One policy's timing at one rung of the E12 wall-clock sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallclockPolicy {
    /// Policy label (`impromptu_repair`, `batched_repair`, …).
    pub policy: String,
    /// End-to-end wall-clock seconds of the replay (build + events +
    /// checkpoints), as measured on the machine that ran the binary.
    pub seconds: f64,
    /// Total message bits of the replay — the cost-model invariant: this
    /// column must not move when the data plane gets faster.
    pub bits: u64,
    /// Total messages of the replay (same invariance contract as `bits`).
    pub messages: u64,
    /// Oracle checkpoints verified during the replay.
    pub checkpoints: usize,
}

/// One rung (network size) of the E12 wall-clock sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallclockRung {
    /// Nodes.
    pub n: usize,
    /// Live edges of the base graph.
    pub m: usize,
    /// Top-level events of the trace.
    pub events: usize,
    /// Scenario id of the replayed trace.
    pub scenario: String,
    /// Per-policy timings.
    pub policies: Vec<WallclockPolicy>,
}

/// The sealed output of [`exp12_wallclock`] (`BENCH_*.json` family).
///
/// Unlike the exp9–exp11 reports this one is **not** fingerprinted: the
/// `seconds` fields are machine- and run-dependent by nature. The `bits` /
/// `messages` columns are the determinism anchor instead — they must match
/// the cost-model reports exactly, which is what ties a wall-clock number to
/// a specific, verified replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallclockReport {
    /// Report schema version (`BENCH_PR4.json` documents the fields).
    pub schema: u32,
    /// Master seed of the traces and protocol coins.
    pub seed: u64,
    /// `quick` or `large`.
    pub scale: String,
    /// Per-rung timings.
    pub rungs: Vec<WallclockRung>,
}

/// E12 — wall-clock of the data plane: the mixed-lifecycle churn trace (the
/// `mixed_lifecycle` battery member that exercises deletions, insertions,
/// partitions, healing and weight drift in one trace) replayed under every
/// MST policy at the `scale_preset` ladder, timed end-to-end. The cost-model
/// columns (bits/messages) must be byte-for-byte what exp9/exp11 would
/// record; only `seconds` is allowed to change across machines or PRs — a
/// pure data-plane optimization shows up here and *only* here.
pub fn exp12_wallclock(scale: Scale, seed: u64, only_n: Option<usize>) -> (Table, WallclockReport) {
    let sizes: Vec<usize> = scale
        .scale_sweep_sizes()
        .into_iter()
        .filter(|&n| only_n.is_none_or(|only| only == n))
        .collect();
    assert!(
        !sizes.is_empty(),
        "KKT_EXP12_N={:?} matches no rung of the {:?} ladder {:?}",
        only_n,
        scale,
        scale.scale_sweep_sizes()
    );
    let policies = MaintenancePolicy::all_for(kkt_core::TreeKind::Mst);
    let mut rungs = Vec::new();
    for n in sizes {
        let params = SuiteParams { seed, ..SuiteParams::scale_preset(n) };
        let base = params.base_graph();
        let harness = ReplayHarness::new(ReplayConfig {
            kind: params.kind,
            scheduler: params.scheduler,
            verify_every: params.verify_every,
            seed,
            ..ReplayConfig::default()
        });
        let scenario = MixedPhases::standard(params.max_weight);
        let workload = scenario.generate(&base, params.events, seed);
        let mut timed = Vec::new();
        for &policy in &policies {
            // Clock read allowed (clippy.toml/R2): exp12 *is* the wall-clock
            // experiment; its seconds column is never fingerprinted.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            let report = harness
                .replay(&base, &workload, policy)
                .expect("every checkpoint verifies against the shadow oracle");
            let seconds = start.elapsed().as_secs_f64();
            timed.push(WallclockPolicy {
                policy: report.policy.clone(),
                seconds,
                bits: report.total.bits,
                messages: report.total.messages,
                checkpoints: report.checkpoints_verified,
            });
        }
        rungs.push(WallclockRung {
            n: base.node_count(),
            m: base.edge_count(),
            events: workload.len(),
            scenario: workload.scenario.clone(),
            policies: timed,
        });
    }
    let report = WallclockReport {
        schema: 1,
        seed,
        scale: match scale {
            Scale::Quick => "quick".to_string(),
            Scale::Large => "large".to_string(),
        },
        rungs,
    };

    let mut table = Table::new(
        "E12: wall-clock of the data plane — mixed-lifecycle replay, seconds per policy",
        &["n", "m", "scenario", "policy", "events", "seconds", "bits_total", "checkpoints"],
    );
    for rung in &report.rungs {
        for p in &rung.policies {
            table.push_row(vec![
                rung.n.to_string(),
                rung.m.to_string(),
                rung.scenario.clone(),
                p.policy.clone(),
                rung.events.to_string(),
                format!("{:.3}", p.seconds),
                p.bits.to_string(),
                p.checkpoints.to_string(),
            ]);
        }
    }
    (table, report)
}

/// E13 — the dynamic density sweep: where does rebuild-from-scratch stop
/// being competitive *under churn*? E8 located the static construction
/// crossover (messages vs `m` for one build); E13 asks the maintained
/// question the ROADMAP's density item names: a Poisson-churn trace and an
/// adversarial tree-cut trace replayed under all four MST maintenance
/// policies at every rung of the `m/n ∈ {2, 4, 8, 16, n/8, n/2}` ladder
/// ([`Density::LADDER`]), for each grid size `n`. Repair policies price
/// `Õ(n)` per event independent of density; `rebuild_ghs` is `O(m + n log
/// n)` per event, so its bits grow linearly along the ladder — the per-
/// family crossover (tabulated in `EXPERIMENTS.md` §E13) is where those
/// curves cross.
///
/// `only_n` restricts the sweep to one grid size (the `KKT_EXP13_N`
/// environment variable in the binary) — CI runs the n = 256 column (whose
/// densest rung is the complete graph `K_256`) twice inside a wall-clock
/// budget and asserts byte-identical reports.
///
/// Returns the printable table *and* the sealed deterministic JSON report.
pub fn exp13_dynamic_density(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
) -> (Table, DensitySweepReport) {
    let sizes: Vec<usize> = scale
        .density_grid_sizes()
        .into_iter()
        .filter(|&n| only_n.is_none_or(|only| only == n))
        .collect();
    // An unmatched restriction must fail loudly, not emit an empty report
    // the CI byte-compare would green-light (same guard as exp11/exp12).
    assert!(
        !sizes.is_empty(),
        "KKT_EXP13_N={:?} matches no rung of the {:?} grid {:?}",
        only_n,
        scale,
        scale.density_grid_sizes()
    );
    let policies = MaintenancePolicy::all_for(kkt_core::TreeKind::Mst);
    let mut points = Vec::new();
    let mut scheduler = String::new();
    for n in sizes {
        for &density in &Density::LADDER {
            let params = SuiteParams { seed, ..SuiteParams::density_preset(n, density) };
            let base = params.base_graph();
            let harness = ReplayHarness::new(ReplayConfig {
                kind: params.kind,
                scheduler: params.scheduler,
                verify_every: params.verify_every,
                seed,
                ..ReplayConfig::default()
            });
            scheduler = kkt_workloads::report::scheduler_label(params.scheduler);
            // The same two regimes as the scale sweep: steady background
            // churn (how often does churn hit the tree at this density?) and
            // the adversary that severs a tree edge every deletion (what
            // does a forced repair cost at this density?).
            let scenarios: Vec<Box<dyn Scenario>> = vec![
                Box::new(PoissonChurn { delete_fraction: 0.5, max_weight: params.max_weight }),
                Box::new(AdversarialTreeCut { max_weight: params.max_weight }),
            ];
            for scenario in scenarios {
                let workload = scenario.generate(&base, params.events, seed);
                let stats = workload.validate(&base).expect("generated trace is applicable");
                let mut reports = Vec::new();
                for &policy in &policies {
                    reports.push(
                        harness
                            .replay(&base, &workload, policy)
                            .expect("every checkpoint verifies against the shadow oracle"),
                    );
                }
                points.push(DensityPoint {
                    n: base.node_count(),
                    m: base.edge_count(),
                    density: density.label(),
                    m_over_n: kkt_workloads::report::m_over_n(&base),
                    events: workload.len(),
                    verify_every: params.verify_every,
                    scenario: workload.scenario.clone(),
                    workload_fingerprint: workload.fingerprint(),
                    stats,
                    reports,
                });
            }
        }
    }
    let mut report = DensitySweepReport {
        seed,
        tree_kind: "mst".to_string(),
        scheduler,
        points,
        fingerprint: String::new(),
    };
    report.seal();

    let mut table = Table::new(
        "E13: dynamic density sweep — bits per event vs m/n, repair vs rebuild under churn",
        &[
            "n",
            "m",
            "m/n",
            "scenario",
            "policy",
            "events",
            "bits_total",
            "bits/event",
            "vs_rebuild(bits)",
            "checkpoints",
        ],
    );
    for point in &report.points {
        let rebuild_bits =
            point.report_for("rebuild_kkt").map(|r| r.total.bits).unwrap_or(0).max(1);
        for r in &point.reports {
            let events = r.top_level_events.max(1) as f64;
            table.push_row(vec![
                point.n.to_string(),
                point.m.to_string(),
                point.density.clone(),
                point.scenario.clone(),
                r.policy.clone(),
                r.top_level_events.to_string(),
                r.total.bits.to_string(),
                format!("{:.0}", r.total.bits as f64 / events),
                format!("{:.3}x", r.total.bits as f64 / rebuild_bits as f64),
                r.checkpoints_verified.to_string(),
            ]);
        }
    }
    (table, report)
}

/// E14 — the cost anatomy: *where do the bits go?* Every `(n, density)` cell
/// of the E13 grid is replayed under every MST policy with the
/// phase-attributing observer installed, decomposing each policy's
/// bits-per-event into the paper's phases (delivery, broadcast-echo, leader
/// election, `FindMin` narrowing, `FindAny` sampling, announce, rebuild
/// sweep). The decomposition *conserves* — phase sums are asserted equal to
/// the untraced totals bit-for-bit, so E14's rows reconcile exactly against
/// E13's — and makes the asymptotics legible: repair policies should be
/// dominated by `FindMin`/`FindAny` searches with a density-independent
/// announce tail, while the rebuild baselines concentrate in the rebuild
/// sweep whose bits track `m`.
///
/// `only_n` restricts the sweep to one grid size (the `KKT_EXP14_N`
/// environment variable in the binary) — CI runs the n = 256 column twice
/// inside a wall-clock budget and asserts byte-identical reports.
///
/// Returns the printable table *and* the sealed deterministic JSON report.
pub fn exp14_cost_anatomy(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
) -> (Table, CostAnatomyReport) {
    let sizes: Vec<usize> = scale
        .density_grid_sizes()
        .into_iter()
        .filter(|&n| only_n.is_none_or(|only| only == n))
        .collect();
    // An unmatched restriction must fail loudly, not emit an empty report
    // the CI byte-compare would green-light (same guard as exp11/exp13).
    assert!(
        !sizes.is_empty(),
        "KKT_EXP14_N={:?} matches no rung of the {:?} grid {:?}",
        only_n,
        scale,
        scale.density_grid_sizes()
    );
    let policies = MaintenancePolicy::all_for(kkt_core::TreeKind::Mst);
    let mut points = Vec::new();
    let mut scheduler = String::new();
    for n in sizes {
        for &density in &Density::LADDER {
            let params = SuiteParams { seed, ..SuiteParams::density_preset(n, density) };
            let base = params.base_graph();
            let harness = ReplayHarness::new(ReplayConfig {
                kind: params.kind,
                scheduler: params.scheduler,
                verify_every: params.verify_every,
                seed,
                ..ReplayConfig::default()
            });
            scheduler = kkt_workloads::report::scheduler_label(params.scheduler);
            // The same two regimes as E13, so the anatomy decomposes exactly
            // the totals that sweep prices.
            let scenarios: Vec<Box<dyn Scenario>> = vec![
                Box::new(PoissonChurn { delete_fraction: 0.5, max_weight: params.max_weight }),
                Box::new(AdversarialTreeCut { max_weight: params.max_weight }),
            ];
            for scenario in scenarios {
                let workload = scenario.generate(&base, params.events, seed);
                for &policy in &policies {
                    let mut acc = PhaseAccumulator::new();
                    let report = harness
                        .replay_observed(&base, &workload, policy, &mut acc)
                        .expect("every checkpoint verifies against the shadow oracle");
                    let phases = acc.ledger;
                    let total = phases.total();
                    // The tracing layer's contract, re-checked at the report
                    // boundary: attribution never loses (or invents) a bit.
                    assert!(
                        total.messages == report.total.messages
                            && total.bits == report.total.bits
                            && total.time == report.total.time
                            && total.broadcast_echoes == report.total.broadcast_echoes,
                        "phase ledger does not conserve for {} at n={n}: {total:?} vs {:?}",
                        policy.label(),
                        report.total,
                    );
                    let dominant_phase = phases
                        .entries()
                        .max_by_key(|&(phase, cost)| (cost.bits, std::cmp::Reverse(phase)))
                        .map(|(phase, _)| phase.label().to_string())
                        .expect("ledger has a fixed set of phases");
                    points.push(AnatomyPoint {
                        n: base.node_count(),
                        m: base.edge_count(),
                        density: density.label(),
                        m_over_n: kkt_workloads::report::m_over_n(&base),
                        scenario: workload.scenario.clone(),
                        policy: policy.label().to_string(),
                        events: workload.len(),
                        checkpoints_verified: report.checkpoints_verified,
                        workload_fingerprint: workload.fingerprint(),
                        phases,
                        total,
                        dominant_phase,
                    });
                }
            }
        }
    }
    let mut report = CostAnatomyReport {
        seed,
        tree_kind: "mst".to_string(),
        scheduler,
        points,
        fingerprint: String::new(),
    };
    report.seal();

    let mut table = Table::new(
        "E14: cost anatomy — bits per event by phase, every policy across the density grid",
        &[
            "n",
            "m/n",
            "scenario",
            "policy",
            "bits/event",
            "delivery%",
            "becho%",
            "elect%",
            "findmin%",
            "findany%",
            "announce%",
            "rebuild%",
            "dominant",
        ],
    );
    for point in &report.points {
        let events = point.events.max(1) as f64;
        let total_bits = point.total.bits.max(1) as f64;
        let share = |phase: kkt_congest::Phase| {
            format!("{:.1}", 100.0 * point.phases.get(phase).bits as f64 / total_bits)
        };
        table.push_row(vec![
            point.n.to_string(),
            point.density.clone(),
            point.scenario.clone(),
            point.policy.clone(),
            format!("{:.0}", point.total.bits as f64 / events),
            share(kkt_congest::Phase::Delivery),
            share(kkt_congest::Phase::BroadcastEcho),
            share(kkt_congest::Phase::LeaderElection),
            share(kkt_congest::Phase::FindMinNarrow),
            share(kkt_congest::Phase::FindAnySample),
            share(kkt_congest::Phase::Announce),
            share(kkt_congest::Phase::RebuildSweep),
            point.dominant_phase.clone(),
        ]);
    }
    (table, report)
}

/// E16 — the seed fleet: every headline number re-priced as a
/// *distribution*. The (policy × rung × density × scenario) grid of the E13
/// crossover and the E11/E15 scaling regime is replayed under ≥ 32 mixed
/// seeds per cell ([`crate::fleet::mix_seed`] over the seed ordinal, so the
/// seed set is stable under grid reordering), sharded across `threads`
/// scoped workers, and merged in deterministic grid order — the sealed
/// report is byte-identical for any thread count. Each cell carries the
/// production framing: integer-exact mean ± 95% CI (micro-unit fixed
/// point) plus p50/p99/max tails of repair *rounds*, bits and messages per
/// event, reported like an SLO; no float reaches a fingerprinted field.
///
/// `only_n` restricts the sweep to one size rung (the `KKT_EXP16_N`
/// environment variable in the binary) — CI runs the quick preset twice at
/// 2 threads inside a wall-clock budget and asserts byte-identical reports
/// against a 1-thread run.
///
/// Returns the printable table *and* the sealed deterministic JSON report.
pub fn exp16_seed_fleet(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
    threads: usize,
) -> (Table, crate::fleet::FleetReport) {
    let params = match scale {
        Scale::Quick => crate::fleet::FleetParams::quick(seed),
        Scale::Large => crate::fleet::FleetParams::large(seed),
    }
    .restrict_to(only_n);
    // An unmatched restriction must fail loudly, not emit an empty report
    // the CI byte-compare would green-light (same guard as exp11–exp14).
    assert!(
        !params.rungs.is_empty(),
        "KKT_EXP16_N={only_n:?} matches no rung of the {scale:?} fleet grid"
    );
    let report = crate::fleet::run_replay_fleet(&params, threads);

    let mut table = Table::new(
        "E16: seed fleet — per-event distributions across ≥ 32 seeds, mean±CI95 and tail SLOs",
        &[
            "n",
            "m/n",
            "scenario",
            "policy",
            "seeds",
            "rounds(mean±ci)",
            "rounds p99",
            "bits/ev(mean±ci)",
            "bits p50",
            "bits p99",
            "bits max",
            "checkpoints",
        ],
    );
    for cell in &report.cells {
        table.push_row(vec![
            cell.n.to_string(),
            cell.density.clone(),
            cell.scenario.clone(),
            cell.policy.clone(),
            cell.rounds.seeds.to_string(),
            cell.rounds.mean_ci_display(),
            cell.rounds.p99.to_string(),
            cell.bits.mean_ci_display(),
            cell.bits.p50.to_string(),
            cell.bits.p99.to_string(),
            cell.bits.max.to_string(),
            cell.checkpoints_verified.to_string(),
        ]);
    }
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_complete_is_complete() {
        let g = clustered_complete(10);
        assert_eq!(g.edge_count(), 45);
        assert!(g.is_connected());
    }

    #[test]
    fn exp5_smoke_runs_and_reports_no_false_positives() {
        // Tiny trial count: the point is exercising the pipeline end-to-end.
        let table = exp5_testout_probability(Scale::Quick, 1);
        assert_eq!(table.len(), 6);
        for row in table.rows() {
            assert_eq!(row[4], "0", "TestOut/HP-TestOut must never report a phantom edge");
        }
    }

    #[test]
    fn exp9_repair_beats_rebuild_on_poisson_churn() {
        let (table, report) = exp9_churn_policies(Scale::Quick, 7);
        // 5 scenarios × 4 MST policies (sequential, batched, KKT/GHS rebuild).
        assert_eq!(table.len(), 20);
        let poisson = report
            .scenarios
            .iter()
            .find(|s| s.scenario.starts_with("poisson_churn"))
            .expect("the battery includes Poisson churn");
        let repair = poisson.report_for("impromptu_repair").unwrap();
        let rebuild = poisson.report_for("rebuild_kkt").unwrap();
        assert!(
            repair.total.bits < rebuild.total.bits,
            "impromptu repair ({} bits) must beat rebuild ({} bits)",
            repair.total.bits,
            rebuild.total.bits
        );
        assert!(!report.fingerprint.is_empty());
    }

    #[test]
    fn exp10_batched_repair_beats_sequential_on_large_bursts() {
        let (table, report) = exp10_batched_repair(Scale::Quick, 0xFEED);
        // 4 burst sizes × 3 policies.
        assert_eq!(table.len(), 12);
        assert!(!report.fingerprint.is_empty());
        for scenario in &report.scenarios {
            let k: usize = scenario
                .scenario
                .trim_start_matches("multi_edge_cuts(k=")
                .trim_end_matches(')')
                .parse()
                .unwrap();
            let sequential = scenario.report_for("impromptu_repair").unwrap();
            let batched = scenario.report_for("batched_repair").unwrap();
            assert!(sequential.checkpoints_verified > 0);
            assert!(batched.checkpoints_verified > 0);
            if k >= 4 {
                assert!(
                    batched.total.bits < sequential.total.bits,
                    "k={k}: batched {} bits must beat sequential {}",
                    batched.total.bits,
                    sequential.total.bits
                );
            }
        }
    }

    #[test]
    fn exp10_report_is_deterministic() {
        let a = exp10_batched_repair(Scale::Quick, 42).1;
        let b = exp10_batched_repair(Scale::Quick, 42).1;
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must give byte-identical JSON"
        );
    }

    #[test]
    fn exp11_quick_sweep_prices_all_four_policies() {
        let (table, report) = exp11_scale_sweep(Scale::Quick, 0xFEED, None);
        assert_eq!(report.points.len(), 4, "two rungs (n = 64, 256) x two scenarios");
        assert_eq!(table.len(), 4 * 4);
        assert_eq!(report.fingerprint.len(), 16);
        for point in &report.points {
            assert_eq!(point.reports.len(), 4, "n={}", point.n);
            for r in &point.reports {
                assert!(r.checkpoints_verified > 0, "n={} {}", point.n, r.policy);
            }
            let repair = point.report_for("impromptu_repair").unwrap();
            let rebuild = point.report_for("rebuild_kkt").unwrap();
            assert!(
                repair.total.bits < rebuild.total.bits,
                "n={} {}: repair ({} bits) must undercut rebuild ({} bits)",
                point.n,
                point.scenario,
                repair.total.bits,
                rebuild.total.bits
            );
        }
        // The adversarial regime really forces repairs: every deletion is a
        // current-tree edge.
        let adversarial =
            report.points.iter().find(|p| p.scenario == "adversarial_tree_cut").unwrap();
        assert_eq!(adversarial.stats.tree_edge_deletions, adversarial.stats.deletions);
        assert!(adversarial.stats.deletions > 0);
    }

    #[test]
    fn exp11_only_n_restricts_the_sweep() {
        let (table, report) = exp11_scale_sweep(Scale::Quick, 7, Some(64));
        assert_eq!(report.points.len(), 2);
        assert!(report.points.iter().all(|p| p.n == 64));
        assert_eq!(table.len(), 2 * 4);
        // The restricted run prices its rungs identically to the full sweep.
        let (_, full) = exp11_scale_sweep(Scale::Quick, 7, None);
        assert_eq!(report.points[0], full.points[0]);
        assert_eq!(report.points[1], full.points[1]);
    }

    #[test]
    fn exp11_report_is_deterministic() {
        let a = exp11_scale_sweep(Scale::Quick, 42, Some(64)).1;
        let b = exp11_scale_sweep(Scale::Quick, 42, Some(64)).1;
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must give byte-identical JSON"
        );
    }

    #[test]
    fn exp12_wallclock_prices_all_four_policies_and_anchors_costs() {
        let (table, report) = exp12_wallclock(Scale::Quick, 0xFEED, Some(64));
        assert_eq!(report.rungs.len(), 1);
        assert_eq!(table.len(), 4);
        let rung = &report.rungs[0];
        assert_eq!(rung.n, 64);
        assert_eq!(rung.policies.len(), 4);
        for p in &rung.policies {
            assert!(p.seconds >= 0.0, "{}: wall-clock is non-negative", p.policy);
            assert!(p.bits > 0 && p.messages > 0, "{}: cost columns are real", p.policy);
            assert!(p.checkpoints > 0, "{}: every replay verified", p.policy);
        }
        // The cost columns are the determinism anchor: a second run must
        // reproduce them exactly (only `seconds` may differ).
        let (_, again) = exp12_wallclock(Scale::Quick, 0xFEED, Some(64));
        for (a, b) in report.rungs[0].policies.iter().zip(&again.rungs[0].policies) {
            assert_eq!((a.bits, a.messages, a.checkpoints), (b.bits, b.messages, b.checkpoints));
        }
    }

    #[test]
    fn exp13_density_sweep_prices_the_whole_ladder() {
        // One grid column (n = 48) of the quick sweep: 6 density rungs × 2
        // scenarios, each under all four MST policies, every checkpoint
        // verified.
        let (table, report) = exp13_dynamic_density(Scale::Quick, 0xFEED, Some(48));
        assert_eq!(report.points.len(), 6 * 2, "six rungs x two scenarios");
        assert_eq!(table.len(), 6 * 2 * 4);
        assert_eq!(report.fingerprint.len(), 16);
        let n = 48;
        let max_edges = n * (n - 1) / 2;
        for point in &report.points {
            assert_eq!(point.n, n);
            assert_eq!(point.reports.len(), 4, "density={}", point.density);
            for r in &point.reports {
                assert!(r.checkpoints_verified > 0, "{}/{}", point.density, r.policy);
            }
            assert!((point.m_over_n - point.m as f64 / n as f64).abs() < 1e-12);
            if point.density == "n/2" {
                assert_eq!(point.m, max_edges, "the densest rung is K_n");
            }
        }
        // Density is the sweep axis: the achieved m must rise from the "2"
        // rung to the "n/2" rung within a scenario family.
        let poisson: Vec<&DensityPoint> =
            report.points.iter().filter(|p| p.scenario.starts_with("poisson")).collect();
        assert_eq!(poisson.len(), 6);
        assert!(poisson.first().unwrap().m < poisson.last().unwrap().m);
        // Both repair policies undercut rebuild_kkt at every grid cell (the
        // paper's own construction re-run pays its large constants per
        // event at every density).
        for point in &report.points {
            let rebuild = point.report_for("rebuild_kkt").unwrap();
            for policy in ["impromptu_repair", "batched_repair"] {
                let r = point.report_for(policy).unwrap();
                assert!(
                    r.total.bits < rebuild.total.bits,
                    "{}/{}/{}: repair must undercut rebuild_kkt",
                    point.density,
                    point.scenario,
                    policy
                );
            }
        }
        // Under steady Poisson churn at the densest rung, churn almost never
        // severs the tree (a random deletion hits the MST with probability
        // ≈ n/m), so repair beats even the cheap GHS rebuild outright.
        let dense_poisson = report
            .points
            .iter()
            .find(|p| p.density == "n/2" && p.scenario.starts_with("poisson"))
            .unwrap();
        let repair = dense_poisson.report_for("impromptu_repair").unwrap();
        let ghs = dense_poisson.report_for("rebuild_ghs").unwrap();
        assert!(
            repair.total.bits < ghs.total.bits,
            "K_n poisson: repair ({} bits) must undercut GHS rebuild ({} bits)",
            repair.total.bits,
            ghs.total.bits
        );
    }

    #[test]
    fn exp13_only_n_restriction_must_match_a_rung() {
        let result = std::panic::catch_unwind(|| {
            exp13_dynamic_density(Scale::Quick, 1, Some(1234));
        });
        assert!(result.is_err(), "an unmatched KKT_EXP13_N must fail loudly");
    }

    #[test]
    fn exp2_smoke_shows_flooding_scaling_with_m() {
        let table = exp2_st_construction(Scale::Quick, 2);
        assert_eq!(table.len(), Scale::Quick.construction_sizes().len());
        // Flooding messages grow at least linearly in m; the last row's m is
        // the largest, so its flooding count must be the largest too.
        let flood: Vec<f64> = table.rows().iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(flood.windows(2).all(|w| w[0] < w[1]));
    }
}
