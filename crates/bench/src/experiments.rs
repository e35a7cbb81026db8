//! The later experiments, E9–E16: one function per measurement.
//!
//! Every function is deterministic given its seed, prints nothing, and
//! returns a [`Table`] (what the corresponding `exp*` binary writes to
//! stderr and `EXPERIMENTS.md` records) together with the JSON report the
//! binary writes to stdout.
//! The paper's own claims, E1–E8, are measured by [`crate::claims`].

use serde::{Deserialize, Serialize};

use kkt_congest::Phase;
use kkt_workloads::{
    Density, MaintenancePolicy, MixedPhases, MultiEdgeCuts, ReplayReport, Scenario, SuiteParams,
    Sweep, SweepPoint, SweepReport,
};

use crate::fleet::FleetScenario;
use crate::table::Table;
use crate::Scale;

/// The rungs of `ladder` that a `KKT_EXP*_N` restriction (`var`) keeps.
///
/// # Panics
///
/// If the restriction matches no rung: an empty sweep would exit 0 with an
/// empty report, and a CI byte-compare would pass on two trivially
/// identical files.
fn restrict(var: &str, scale: Scale, only_n: Option<usize>, ladder: Vec<usize>) -> Vec<usize> {
    let sizes: Vec<usize> =
        ladder.iter().copied().filter(|&n| only_n.is_none_or(|only| only == n)).collect();
    assert!(
        !sizes.is_empty(),
        "{var}={only_n:?} matches no rung of the {scale:?} ladder {ladder:?}"
    );
    sizes
}

/// Every MST policy over the seed fleet's two churn regimes in `cells` (the
/// grid of E11 and E13): steady background churn (how often does churn
/// hit the tree?) and the adversary that severs a tree edge on every
/// deletion (what does a forced repair cost?).
fn churn_sweep(cells: Vec<SuiteParams>) -> Sweep {
    let max_weight = cells[0].max_weight;
    Sweep {
        cells,
        scenarios: FleetScenario::ALL.iter().map(|s| s.generator(max_weight)).collect(),
        policies: MaintenancePolicy::all_for(kkt_core::TreeKind::Mst),
    }
}

/// A sweep report's replays, each beside its point, in report order.
fn replays(report: &SweepReport) -> Vec<(&SweepPoint, &ReplayReport)> {
    report.points.iter().flat_map(|p| p.reports.iter().map(move |r| (p, r))).collect()
}

/// `value` per top-level event of `r`, rounded.
fn per_event(value: u64, r: &ReplayReport) -> String {
    format!("{:.0}", value as f64 / r.top_level_events.max(1) as f64)
}

/// `r`'s bits over those of the point's `baseline` replay, to `digits`.
fn bits_vs(point: &SweepPoint, r: &ReplayReport, baseline: &str, digits: usize) -> String {
    let base = point.report_for(baseline).map_or(0, |b| b.total.bits).max(1);
    format!("{:.digits$}x", r.total.bits as f64 / base as f64)
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
pub fn exp9_churn_policies(scale: Scale, seed: u64) -> (Table, SweepReport) {
    let cell = match scale {
        Scale::Quick => SuiteParams { events: 12, seed, ..SuiteParams::with_n(48) },
        // The ROADMAP's Scale item: the large tier runs the whole battery at
        // n = 1024 through the `scale_preset` ladder (incremental-oracle
        // checkpoints and the index-addressed engine are what make this a
        // minutes-scale sweep instead of an hours-scale one).
        Scale::Large => SuiteParams::scale_preset(1024).with_seed(seed),
    };
    let report = Sweep::battery(cell).run().expect("churn suite replays and verifies");
    let table = Table::of_rows(
        "E9: churn policies — impromptu repair vs rebuild, total cost over the whole trace",
        &replays(&report),
        &[
            ("scenario", |(p, _)| p.scenario.clone()),
            ("policy", |(_, r)| r.policy.clone()),
            ("events", |(_, r)| r.top_level_events.to_string()),
            ("msgs_total", |(_, r)| r.total.messages.to_string()),
            ("bits_total", |(_, r)| r.total.bits.to_string()),
            ("msgs/event", |(_, r)| format!("{:.0}", r.mean_messages_per_event)),
            ("msgs/event(max)", |(_, r)| r.max_messages_per_event.to_string()),
            ("checkpoints", |(_, r)| r.checkpoints_verified.to_string()),
        ],
    );
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
pub fn exp10_batched_repair(scale: Scale, seed: u64) -> (Table, SweepReport) {
    let (n, density, events, burst_sizes) = match scale {
        Scale::Quick => (48, Density::Ratio(4), 6, vec![1, 2, 4, 8]),
        Scale::Large => (128, Density::Ratio(8), 10, vec![1, 2, 4, 8, 16]),
    };
    let params = SuiteParams {
        events,
        verify_every: 2,
        ..SuiteParams::density_preset(n, density).with_seed(seed)
    };
    let max_weight = params.max_weight;
    let sweep = Sweep {
        cells: vec![params],
        scenarios: burst_sizes
            .iter()
            .map(|&burst_size| {
                Box::new(MultiEdgeCuts { burst_size, max_weight }) as Box<dyn Scenario>
            })
            .collect(),
        policies: vec![
            MaintenancePolicy::Impromptu,
            MaintenancePolicy::BatchedRepair,
            MaintenancePolicy::RebuildKkt,
        ],
    };
    let report = sweep.run().expect("every checkpoint verifies against the shadow oracle");

    let rows: Vec<(usize, &SweepPoint, &ReplayReport)> = (report.points.iter().zip(&burst_sizes))
        .flat_map(|(p, &k)| p.reports.iter().map(move |r| (k, p, r)))
        .collect();
    let table = Table::of_rows(
        "E10: batched repair — sequential vs batched vs rebuild on k simultaneous cuts",
        &rows,
        &[
            ("k", |(k, _, _)| k.to_string()),
            ("policy", |(_, _, r)| r.policy.clone()),
            ("events", |(_, _, r)| r.top_level_events.to_string()),
            ("msgs_total", |(_, _, r)| r.total.messages.to_string()),
            ("bits_total", |(_, _, r)| r.total.bits.to_string()),
            ("time_total", |(_, _, r)| r.total.time.to_string()),
            ("vs_seq(bits)", |(_, p, r)| bits_vs(p, r, "impromptu_repair", 2)),
            ("checkpoints", |(_, _, r)| r.checkpoints_verified.to_string()),
        ],
    );
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
pub fn exp11_scale_sweep(scale: Scale, seed: u64, only_n: Option<usize>) -> (Table, SweepReport) {
    let sizes = restrict("KKT_EXP11_N", scale, only_n, scale.scale_sweep_sizes());
    let sweep = churn_sweep(
        sizes.into_iter().map(|n| SuiteParams::scale_preset(n).with_seed(seed)).collect(),
    );
    let report = sweep.run().expect("every checkpoint verifies against the shadow oracle");

    let table = Table::of_rows(
        "E11: scale sweep — bits per event vs n, repair policies vs rebuild baselines",
        &replays(&report),
        &[
            ("n", |(p, _)| p.n.to_string()),
            ("m", |(p, _)| p.m.to_string()),
            ("scenario", |(p, _)| p.scenario.clone()),
            ("policy", |(_, r)| r.policy.clone()),
            ("events", |(_, r)| r.top_level_events.to_string()),
            ("bits_total", |(_, r)| r.total.bits.to_string()),
            ("bits/event", |(_, r)| per_event(r.total.bits, r)),
            ("msgs/event", |(_, r)| per_event(r.total.messages, r)),
            ("vs_rebuild(bits)", |(p, r)| bits_vs(p, r, "rebuild_kkt", 3)),
            ("checkpoints", |(_, r)| r.checkpoints_verified.to_string()),
        ],
    );
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
    let sizes = restrict("KKT_EXP12_N", scale, only_n, scale.scale_sweep_sizes());
    let cells: Vec<SuiteParams> =
        sizes.into_iter().map(|n| SuiteParams::scale_preset(n).with_seed(seed)).collect();
    let sweep = Sweep {
        scenarios: vec![Box::new(MixedPhases::standard(cells[0].max_weight))],
        cells,
        policies: MaintenancePolicy::all_for(kkt_core::TreeKind::Mst),
    };
    let timed = sweep
        .replay_each(|setup, workload, policy| {
            // Clock read allowed (clippy.toml/R2): exp12 *is* the wall-clock
            // experiment; its seconds column is never fingerprinted.
            #[allow(clippy::disallowed_methods)]
            let start = std::time::Instant::now();
            let report = setup.harness.replay(&setup.base, workload, policy)?;
            Ok(WallclockPolicy {
                seconds: start.elapsed().as_secs_f64(),
                policy: report.policy,
                bits: report.total.bits,
                messages: report.total.messages,
                checkpoints: report.checkpoints_verified,
            })
        })
        .expect("every checkpoint verifies against the shadow oracle");
    let rungs = timed
        .into_iter()
        .map(|(point, policies)| WallclockRung {
            n: point.n,
            m: point.m,
            events: point.events,
            scenario: point.scenario,
            policies,
        })
        .collect();
    let report = WallclockReport { schema: 1, seed, scale: scale.label().to_string(), rungs };

    let rows: Vec<(&WallclockRung, &WallclockPolicy)> =
        report.rungs.iter().flat_map(|rung| rung.policies.iter().map(move |p| (rung, p))).collect();
    let table = Table::of_rows(
        "E12: wall-clock of the data plane — mixed-lifecycle replay, seconds per policy",
        &rows,
        &[
            ("n", |(rung, _)| rung.n.to_string()),
            ("m", |(rung, _)| rung.m.to_string()),
            ("scenario", |(rung, _)| rung.scenario.clone()),
            ("policy", |(_, p)| p.policy.clone()),
            ("events", |(rung, _)| rung.events.to_string()),
            ("seconds", |(_, p)| format!("{:.3}", p.seconds)),
            ("bits_total", |(_, p)| p.bits.to_string()),
            ("checkpoints", |(_, p)| p.checkpoints.to_string()),
        ],
    );
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
/// Returns the printable table *and* the sealed deterministic JSON report,
/// whose replays carry the phase ledgers [`exp14_cost_anatomy`] tabulates.
pub fn exp13_dynamic_density(
    scale: Scale,
    seed: u64,
    only_n: Option<usize>,
) -> (Table, SweepReport) {
    let sizes = restrict("KKT_EXP13_N", scale, only_n, scale.density_grid_sizes());
    let report = churn_sweep(
        sizes
            .into_iter()
            .flat_map(|n| {
                Density::LADDER
                    .map(|density| SuiteParams::density_preset(n, density).with_seed(seed))
            })
            .collect(),
    )
    .run()
    .expect("every checkpoint verifies against the shadow oracle");

    let table = Table::of_rows(
        "E13: dynamic density sweep — bits per event vs m/n, repair vs rebuild under churn",
        &replays(&report),
        &[
            ("n", |(p, _)| p.n.to_string()),
            ("m", |(p, _)| p.m.to_string()),
            ("m/n", |(p, _)| p.density.clone()),
            ("scenario", |(p, _)| p.scenario.clone()),
            ("policy", |(_, r)| r.policy.clone()),
            ("events", |(_, r)| r.top_level_events.to_string()),
            ("bits_total", |(_, r)| r.total.bits.to_string()),
            ("bits/event", |(_, r)| per_event(r.total.bits, r)),
            ("vs_rebuild(bits)", |(p, r)| bits_vs(p, r, "rebuild_kkt", 3)),
            ("checkpoints", |(_, r)| r.checkpoints_verified.to_string()),
        ],
    );
    (table, report)
}

/// `phase`'s share of a replay's bits, in percent.
fn share(r: &ReplayReport, phase: Phase) -> String {
    format!("{:.1}", 100.0 * r.phases.get(phase).bits as f64 / r.total.bits.max(1) as f64)
}

/// The phase with the most bits in `r` (ties break in ledger order).
fn dominant_phase(r: &ReplayReport) -> String {
    r.phases
        .entries()
        .max_by_key(|&(phase, cost)| (cost.bits, std::cmp::Reverse(phase)))
        .map(|(phase, _)| phase.label().to_string())
        .expect("ledger has a fixed set of phases")
}

/// E14 — the cost anatomy: *where do the bits go?* Each replay of an E13
/// report, with its bits per event decomposed into the paper's phases
/// (delivery, broadcast-echo, leader election, `FindMin` narrowing,
/// `FindAny` sampling, announce, rebuild sweep). Each replay's totals are
/// its ledger's sums, so E14's rows reconcile exactly against E13's. It
/// makes the asymptotics legible: repair policies should be
/// dominated by `FindMin`/`FindAny` searches with a density-independent
/// announce tail, while the rebuild baselines concentrate in the rebuild
/// sweep whose bits track `m`.
///
/// A pure function of the report: the `exp13_dynamic_density` binary prints
/// this table after E13's.
pub fn exp14_cost_anatomy(report: &SweepReport) -> Table {
    Table::of_rows(
        "E14: cost anatomy — bits per event by phase, every policy across the density grid",
        &replays(report),
        &[
            ("n", |(p, _)| p.n.to_string()),
            ("m/n", |(p, _)| p.density.clone()),
            ("scenario", |(p, _)| p.scenario.clone()),
            ("policy", |(_, r)| r.policy.clone()),
            ("bits/event", |(_, r)| per_event(r.total.bits, r)),
            ("delivery%", |(_, r)| share(r, Phase::Delivery)),
            ("becho%", |(_, r)| share(r, Phase::BroadcastEcho)),
            ("elect%", |(_, r)| share(r, Phase::LeaderElection)),
            ("findmin%", |(_, r)| share(r, Phase::FindMinNarrow)),
            ("findany%", |(_, r)| share(r, Phase::FindAnySample)),
            ("announce%", |(_, r)| share(r, Phase::Announce)),
            ("rebuild%", |(_, r)| share(r, Phase::RebuildSweep)),
            ("dominant", |(_, r)| dominant_phase(r)),
        ],
    )
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
    // the CI byte-compare would green-light (same guard as exp11–exp13).
    assert!(
        !params.rungs.is_empty(),
        "KKT_EXP16_N={only_n:?} matches no rung of the {scale:?} fleet grid"
    );
    let report = crate::fleet::run_replay_fleet(&params, threads);

    let table = Table::of_rows(
        "E16: seed fleet — per-event distributions across ≥ 32 seeds, mean±CI95 and tail SLOs",
        &report.cells,
        &[
            ("n", |c| c.n.to_string()),
            ("m/n", |c| c.density.clone()),
            ("scenario", |c| c.scenario.clone()),
            ("policy", |c| c.policy.clone()),
            ("seeds", |c| c.rounds.seeds.to_string()),
            ("rounds(mean±ci)", |c| c.rounds.mean_ci_display()),
            ("rounds p99", |c| c.rounds.p99.to_string()),
            ("bits/ev(mean±ci)", |c| c.bits.mean_ci_display()),
            ("bits p50", |c| c.bits.p50.to_string()),
            ("bits p99", |c| c.bits.p99.to_string()),
            ("bits max", |c| c.bits.max.to_string()),
            ("checkpoints", |c| c.checkpoints_verified.to_string()),
        ],
    );
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp9_repair_beats_rebuild_on_poisson_churn() {
        let (table, report) = exp9_churn_policies(Scale::Quick, 7);
        // 5 scenarios × 4 MST policies (sequential, batched, KKT/GHS rebuild).
        assert_eq!(table.len(), 20);
        let poisson = report
            .points
            .iter()
            .find(|p| p.scenario.starts_with("poisson_churn"))
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
        for point in &report.points {
            let k: usize = point
                .scenario
                .trim_start_matches("multi_edge_cuts(k=")
                .trim_end_matches(')')
                .parse()
                .unwrap();
            let sequential = point.report_for("impromptu_repair").unwrap();
            let batched = point.report_for("batched_repair").unwrap();
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
        let poisson: Vec<&kkt_workloads::SweepPoint> =
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
        // E14 tabulates the same replays by phase, one row each: the seven
        // shares cover the replay's bits, and only the GHS rebuild is
        // dominated by the rebuild sweep.
        let anatomy = exp14_cost_anatomy(&report);
        assert_eq!(anatomy.len(), table.len());
        for ((point, r), row) in replays(&report).into_iter().zip(anatomy.rows()) {
            assert_eq!((&row[2], &row[3]), (&point.scenario, &r.policy));
            let shares: f64 = row[5..12].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((shares - 100.0).abs() < 0.5, "{}/{}: {shares}", point.density, r.policy);
            assert_eq!(row[12] == "rebuild_sweep", r.policy == "rebuild_ghs", "{}", r.policy);
        }
    }

    #[test]
    fn exp13_only_n_restriction_must_match_a_rung() {
        let result = std::panic::catch_unwind(|| {
            exp13_dynamic_density(Scale::Quick, 1, Some(1234));
        });
        assert!(result.is_err(), "an unmatched KKT_EXP13_N must fail loudly");
    }
}
