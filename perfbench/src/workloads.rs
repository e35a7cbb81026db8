//! The four workloads: how a repetition generates its inputs (`setup`), runs
//! its one timed operation (`op`), and what the result is checked on
//! (`check`). README.md gives the reason for each workload.

use kkt_bench::fleet::{run_replay_fleet, FleetCell, FleetParams, FleetReport, FleetScenario};
use kkt_bench::{mix_seed, SloSummary};
use kkt_congest::Histogram;
use kkt_core::{MaintainOptions, MaintainedForest, TreeKind};
use kkt_graphs::generators::Update;
use kkt_graphs::{kruskal, Graph, ShadowOracle};
use kkt_workloads::report::scheduler_label;
use kkt_workloads::{
    AdversarialTreeCut, MaintenancePolicy, MultiEdgeCuts, PoissonChurn, ReplayConfig,
    ReplayHarness, Scenario, SuiteParams, Workload, WorkloadEvent,
};
use serde_json::Value;

use crate::trace::Tracer;

/// Network size of `construct`, `repair` and `burst` (`m/n = 4`).
const N: usize = 4096;
/// Base graphs built per `construct` repetition: one build's simulated work
/// moves by about 12% with the graph, four together by about half that.
const CONSTRUCT_GRAPHS: u64 = 4;
/// Top-level events of the `repair` trace.
const REPAIR_EVENTS: usize = 96;
/// Top-level events of the `burst` trace, and tree edges cut per burst.
const BURST_EVENTS: usize = 64;
const BURST_SIZE: usize = 8;
/// Oracle checkpoint interval of the replays, in top-level events.
const CHECK_EVERY: usize = 4;
/// Seeds per aggregate cell of the `fleet` grid.
const FLEET_SEEDS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Construct,
    Repair,
    Burst,
    Fleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Construct, Kind::Repair, Kind::Burst, Kind::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Construct => "construct",
            Kind::Repair => "repair",
            Kind::Burst => "burst",
            Kind::Fleet => "fleet",
        }
    }
}

/// One repetition's inputs. Moved once per repetition, so the size of the
/// largest variant does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// Per graph: its seed, and one copy for the MST and one for the ST.
    Construct {
        graphs: Vec<(u64, Graph, Graph)>,
    },
    Replay {
        trace: Workload,
        passes: [(MaintainedForest, ShadowOracle); 2],
    },
    Fleet {
        params: FleetParams,
        checkpoints: Vec<u64>,
    },
}

/// What an operation leaves behind for the untimed check.
#[allow(clippy::large_enum_variant)]
pub enum Done {
    Built(Vec<MaintainedForest>),
    Replayed,
    Fleet(FleetReport, Vec<u64>),
}

fn options(seed: u64) -> MaintainOptions {
    MaintainOptions { seed, ..MaintainOptions::default() }
}

/// The fleet grid of one repetition: `FleetParams::quick` with fewer seeds.
fn fleet_params(seed: u64) -> FleetParams {
    FleetParams { seeds_per_cell: FLEET_SEEDS, ..FleetParams::quick(seed) }
}

/// The generator behind a fleet scenario, tuned as in the fleet runner.
fn fleet_generator(scenario: FleetScenario, max_weight: u64) -> Box<dyn Scenario> {
    match scenario {
        FleetScenario::PoissonChurn => Box::new(PoissonChurn { delete_fraction: 0.5, max_weight }),
        FleetScenario::AdversarialTreeCut => Box::new(AdversarialTreeCut { max_weight }),
    }
}

/// Oracle checkpoints a replay of `events` top-level events verifies.
fn checkpoints_of(events: usize, verify_every: usize) -> u64 {
    let periodic = events.checked_div(verify_every).unwrap_or(0);
    let final_extra = usize::from(verify_every == 0 || !events.is_multiple_of(verify_every));
    (periodic + final_extra) as u64
}

/// The base graph of `repair` and `burst`, and of each `construct` build.
pub fn base_graph(seed: u64) -> Graph {
    SuiteParams::scale_preset(N).with_seed(seed).base_graph()
}

/// The seed of the `k`-th graph of a `construct` repetition.
pub fn construct_seed(seed: u64, k: u64) -> u64 {
    mix_seed(seed, k)
}

pub fn setup(kind: Kind, seed: u64, t: &mut Tracer) -> Inputs {
    let params = SuiteParams::scale_preset(N).with_seed(seed);
    match kind {
        Kind::Construct => {
            let graphs = (0..CONSTRUCT_GRAPHS)
                .map(|k| {
                    let seed = construct_seed(seed, k);
                    let base = t.span("graphs.base_graph_s", || base_graph(seed));
                    (seed, base.clone(), base)
                })
                .collect();
            Inputs::Construct { graphs }
        }
        Kind::Repair | Kind::Burst => {
            let base = t.span("graphs.base_graph_s", || base_graph(seed));
            let trace = t.span("workloads.generate_s", || {
                let max_weight = params.max_weight;
                if kind == Kind::Repair {
                    AdversarialTreeCut { max_weight }.generate(&base, REPAIR_EVENTS, seed)
                } else {
                    let cuts = MultiEdgeCuts { burst_size: BURST_SIZE, max_weight };
                    cuts.generate(&base, BURST_EVENTS, seed)
                }
            });
            let tree = t.span("graphs.kruskal_s", || kruskal(&base));
            let passes = [TreeKind::Mst, TreeKind::St].map(|tree_kind| {
                let forest = t.span("core.adopt_s", || {
                    MaintainedForest::adopt(base.clone(), tree_kind, &tree.edges, options(seed))
                        .expect("the Kruskal forest is a valid spanning forest")
                });
                (forest, t.span("graphs.oracle_new_s", || ShadowOracle::new(&base)))
            });
            Inputs::Replay { trace, passes }
        }
        Kind::Fleet => {
            // The grid's distinct inputs: every policy of an aggregate cell
            // replays the same (graph, trace) pair of each seed.
            let params = fleet_params(seed);
            let mut checkpoints = Vec::new();
            for rung in &params.rungs {
                for &density in &rung.densities {
                    for scenario in FleetScenario::ALL {
                        let mut sum = 0;
                        for seed in params.mixed_seeds() {
                            let cell = SuiteParams::density_preset(rung.n, density).with_seed(seed);
                            let base = t.span("graphs.base_graph_s", || cell.base_graph());
                            let trace = t.span("workloads.generate_s", || {
                                fleet_generator(scenario, cell.max_weight).generate(
                                    &base,
                                    cell.events,
                                    seed,
                                )
                            });
                            sum += checkpoints_of(trace.len(), cell.verify_every);
                        }
                        checkpoints.push(sum);
                    }
                }
            }
            Inputs::Fleet { params, checkpoints }
        }
    }
}

/// Runs one core call inside a span and charges its simulated cost.
fn core_call<T>(
    t: &mut Tracer,
    span: &'static str,
    call: &str,
    forest: &mut MaintainedForest,
    f: impl FnOnce(&mut MaintainedForest) -> T,
) -> T {
    let (cost, phases) = (forest.cost(), forest.phase_ledger());
    let out = t.span(span, || f(forest));
    t.charge(call, forest.cost() - cost, forest.phase_ledger() - phases);
    out
}

/// A top-level event as updates, applied to the oracle on the way.
fn as_updates(event: &WorkloadEvent, oracle: &mut ShadowOracle) -> Result<Vec<Update>, String> {
    event
        .primitives()
        .into_iter()
        .map(|primitive| {
            let update = primitive
                .as_update(oracle.graph())
                .ok_or_else(|| format!("inapplicable event {primitive:?}"))?;
            oracle.apply(&update)?;
            Ok(update)
        })
        .collect()
}

/// One verified replay of `trace`: sequential repairs for `repair`, the
/// batched pipeline for `burst`, with an oracle checkpoint every
/// `CHECK_EVERY` events and after the last.
fn replay(
    kind: Kind,
    trace: &Workload,
    forest: &mut MaintainedForest,
    oracle: &mut ShadowOracle,
    t: &mut Tracer,
) -> Result<(), String> {
    let tree_kind = forest.kind();
    let (span, call) = match (kind, tree_kind) {
        (Kind::Repair, TreeKind::Mst) => ("core.repair_mst_s", "repair_mst"),
        (Kind::Repair, TreeKind::St) => ("core.repair_st_s", "repair_st"),
        (_, TreeKind::Mst) => ("core.batch_mst_s", "batch_mst"),
        (_, TreeKind::St) => ("core.batch_st_s", "batch_st"),
    };
    for (i, event) in trace.events.iter().enumerate() {
        let updates = t.span("graphs.oracle_apply_s", || as_updates(event, oracle))?;
        let batch = core_call(t, span, call, forest, |f| {
            if kind == Kind::Repair {
                f.apply_batch_sequential(&updates).map(|_| None)
            } else {
                f.apply_batch_detailed(&updates).map(|(_, stats)| Some(stats))
            }
        })
        .map_err(|e| format!("{call} event {i}: {e}"))?;
        if let Some(stats) = batch {
            t.count("core.batch_searches".into(), u64::from(stats.searches));
            t.count("core.batch_rounds".into(), u64::from(stats.rounds));
        }
        if (i + 1).is_multiple_of(CHECK_EVERY) || i + 1 == trace.len() {
            t.span("graphs.checkpoint_s", || {
                let snapshot = forest.snapshot();
                match tree_kind {
                    TreeKind::Mst => oracle.verify_msf(&snapshot),
                    TreeKind::St => oracle.verify_forest(&snapshot),
                }
            })
            .map_err(|e| format!("{call} checkpoint after event {i}: {e}"))?;
        }
    }
    Ok(())
}

/// One construction (Theorem 1.1) inside a span, charged to `call`.
fn build(
    t: &mut Tracer,
    span: &'static str,
    call: &str,
    graph: Graph,
    tree_kind: TreeKind,
    seed: u64,
) -> Result<MaintainedForest, String> {
    let forest = t
        .span(span, || MaintainedForest::build(graph, tree_kind, options(seed)))
        .map_err(|e| format!("{call}: {e}"))?;
    t.charge(call, forest.build_cost(), forest.phase_ledger());
    Ok(forest)
}

/// FindMin-C (MST) or FindAny-C (ST) searches of a build: one per fragment
/// per phase.
fn searches(forest: &MaintainedForest) -> u64 {
    forest.build_outcome().phases.iter().map(|p| p.fragments_before as u64).sum()
}

pub fn op(kind: Kind, inputs: Inputs, t: &mut Tracer) -> Result<Done, String> {
    match inputs {
        Inputs::Construct { graphs } => {
            let mut forests = Vec::new();
            for (seed, mst, st) in graphs {
                let mst = build(t, "core.build_mst_s", "build_mst", mst, TreeKind::Mst, seed)?;
                t.count("core.findmin_c_calls".into(), searches(&mst));
                let st = build(t, "core.build_st_s", "build_st", st, TreeKind::St, seed)?;
                t.count("core.findany_c_calls".into(), searches(&st));
                forests.extend([mst, st]);
            }
            Ok(Done::Built(forests))
        }
        Inputs::Replay { trace, mut passes } => {
            for (forest, oracle) in &mut passes {
                replay(kind, &trace, forest, oracle, t)?;
            }
            Ok(Done::Replayed)
        }
        Inputs::Fleet { params, checkpoints } => {
            let report =
                if t.traced() { fleet_traced(&params, t) } else { run_replay_fleet(&params, 1) };
            Ok(Done::Fleet(report, checkpoints))
        }
    }
}

/// What a checked operation produced.
pub struct Checked {
    /// The simulated messages, bits and rounds, or for `fleet` the report
    /// fingerprint: every repetition at one seed must produce the same.
    pub anchor: Value,
    /// Simulated messages the operation sent: the divisor of `op_ns_per_msg`.
    pub messages: u64,
}

/// Checks what the operation produced.
pub fn check(done: Done, t: &Tracer) -> Result<Checked, String> {
    let count = |name: &str| t.counts().get(name).copied().unwrap_or(0);
    let sim = || Checked {
        anchor: Value::Object(vec![
            ("messages".to_string(), Value::UInt(count("sim.messages").into())),
            ("bits".to_string(), Value::UInt(count("sim.bits").into())),
            ("rounds".to_string(), Value::UInt(count("sim.rounds").into())),
        ]),
        messages: count("sim.messages"),
    };
    match done {
        Done::Built(forests) => {
            for forest in &forests {
                forest.verify().map_err(|e| format!("{:?} build: {e}", forest.kind()))?;
            }
            Ok(sim())
        }
        Done::Replayed => Ok(sim()),
        Done::Fleet(report, checkpoints) => {
            // Every policy of a (density, scenario) group replays the same
            // traces, so each must have verified all their checkpoints.
            let policies = report.cells.len() / checkpoints.len().max(1);
            if policies * checkpoints.len() != report.cells.len() {
                return Err(format!("fleet report has {} cells", report.cells.len()));
            }
            for (group, &want) in report.cells.chunks(policies).zip(&checkpoints) {
                for cell in group {
                    if cell.checkpoints_verified != want {
                        return Err(format!(
                            "fleet cell {}/{}/{} verified {} of {want} checkpoints",
                            cell.density, cell.scenario, cell.policy, cell.checkpoints_verified
                        ));
                    }
                }
            }
            // The report holds per-event messages as a mean over seeds of
            // per-seed means (micro-units) and a pooled sample count.
            let messages: u128 = report
                .cells
                .iter()
                .map(|c| u128::from(c.messages.mean_micro) * u128::from(c.messages.samples))
                .sum::<u128>()
                / 1_000_000;
            Ok(Checked {
                anchor: Value::Object(vec![(
                    "fingerprint".to_string(),
                    Value::String(report.fingerprint),
                )]),
                messages: messages as u64,
            })
        }
    }
}

/// `run_replay_fleet(params, 1)` unrolled, so spans can sit around the calls
/// into kkt-workloads and kkt-bench. Its report must carry the same
/// fingerprint, which the anchor check enforces.
fn fleet_traced(params: &FleetParams, t: &mut Tracer) -> FleetReport {
    let seeds = params.mixed_seeds();
    let mut cells = Vec::new();
    let mut scheduler = String::new();
    for agg in params.aggregate_cells() {
        let span = match agg.policy {
            MaintenancePolicy::Impromptu => "workloads.replay_s.impromptu_repair",
            MaintenancePolicy::BatchedRepair => "workloads.replay_s.batched_repair",
            MaintenancePolicy::RebuildKkt => "workloads.replay_s.rebuild_kkt",
            MaintenancePolicy::RebuildGhs => "workloads.replay_s.rebuild_ghs",
            MaintenancePolicy::RebuildFlood => "workloads.replay_s.rebuild_flood",
        };
        let cell = SuiteParams::density_preset(agg.n, agg.density);
        let (mut rounds, mut bits, mut messages, mut checkpoints) = (vec![], vec![], vec![], 0);
        for &seed in &seeds {
            let (base, workload, harness) = t.span("workloads.cell_inputs_s", || {
                let cell = cell.with_seed(seed);
                let base = cell.base_graph();
                let workload = fleet_generator(agg.scenario, cell.max_weight).generate(
                    &base,
                    cell.events,
                    seed,
                );
                workload.validate(&base).expect("generated trace is applicable");
                let harness = ReplayHarness::new(ReplayConfig {
                    kind: cell.kind,
                    scheduler: cell.scheduler,
                    verify_every: cell.verify_every,
                    seed,
                    ..ReplayConfig::default()
                });
                (base, workload, harness)
            });
            let report = t
                .span(span, || harness.replay(&base, &workload, agg.policy))
                .expect("every checkpoint verifies against the shadow oracle");
            rounds.push(report.per_event.iter().map(|e| e.time).collect());
            bits.push(report.per_event.iter().map(|e| e.bits).collect::<Vec<u64>>());
            messages.push(report.per_event.iter().map(|e| e.messages).collect());
            checkpoints += report.checkpoints_verified as u64;
        }
        let mut hist = Histogram::with_bounds(&Histogram::pow2_bounds(48));
        bits.iter().flatten().for_each(|&b| hist.record(b));
        scheduler = scheduler_label(cell.scheduler);
        cells.push(FleetCell {
            n: agg.n,
            m_target: agg.density.target_edges(agg.n),
            density: agg.density.label(),
            scenario: agg.scenario.label().to_string(),
            policy: agg.policy.label().to_string(),
            events_per_seed: cell.events,
            rounds: SloSummary::of_groups(&rounds),
            bits: SloSummary::of_groups(&bits),
            messages: SloSummary::of_groups(&messages),
            bits_hist_p99: hist.p99(),
            checkpoints_verified: checkpoints,
        });
    }
    let mut report = FleetReport {
        base_seed: params.base_seed,
        seeds_per_cell: seeds.len(),
        mixed_seeds: seeds,
        tree_kind: "mst".to_string(),
        scheduler,
        cells,
        fingerprint: String::new(),
    };
    t.span("bench.seal_s", || report.seal());
    report
}
