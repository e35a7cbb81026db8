//! Suite parameters, the density ladder, and the sweep runner: every
//! single-seed experiment grid is cells × scenarios × policies, replayed
//! here and sealed into one [`SweepReport`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_congest::Scheduler;
use kkt_core::TreeKind;
use kkt_graphs::{generators, Graph};

use crate::replay::{MaintenancePolicy, ReplayConfig, ReplayError, ReplayHarness};
use crate::report::{m_over_n, scheduler_label, tree_kind_label, SweepPoint, SweepReport};
use crate::scenarios::{standard_suite, Scenario};
use crate::workload::{Workload, WorkloadStats};

/// A rung of the dynamic density ladder: the target edge budget expressed
/// as a ratio `m/n`. The interesting sweep axis of the o(m) claims — sparse
/// rungs are where rebuild baselines are cheap (`Θ(m)` with small `m`),
/// superlinear rungs (`m/n ∈ {n/8, n/2}`) are where they pay and impromptu
/// repair's `Õ(n)` does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Density {
    /// Constant ratio: `m = ratio · n` (clamped to the complete graph).
    Ratio(usize),
    /// Superlinear: `m = n²/8` — a quarter of the complete graph.
    NOver8,
    /// Superlinear: `m = n²/2`, which clamps to the complete graph `K_n`
    /// (`n(n-1)/2` edges) — the densest rung.
    NOver2,
}

impl Density {
    /// The standard E13 ladder: `m/n ∈ {2, 4, 8, 16, n/8, n/2}`.
    pub const LADDER: [Density; 6] = [
        Density::Ratio(2),
        Density::Ratio(4),
        Density::Ratio(8),
        Density::Ratio(16),
        Density::NOver8,
        Density::NOver2,
    ];

    /// The target live-edge count at network size `n`, clamped to
    /// `[n - 1, n(n-1)/2]` so every rung is connectable and simple.
    pub fn target_edges(self, n: usize) -> usize {
        let max_edges = if n < 2 { 0 } else { n * (n - 1) / 2 };
        let raw = match self {
            Density::Ratio(ratio) => ratio * n,
            Density::NOver8 => n * n / 8,
            Density::NOver2 => n * n / 2,
        };
        raw.clamp(n.saturating_sub(1), max_edges.max(n.saturating_sub(1)))
    }

    /// Stable report/table label for the rung (`"2"`, …, `"n/8"`, `"n/2"`).
    pub fn label(self) -> String {
        match self {
            Density::Ratio(ratio) => ratio.to_string(),
            Density::NOver8 => "n/8".to_string(),
            Density::NOver2 => "n/2".to_string(),
        }
    }
}

/// Parameters of a churn-suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteParams {
    /// Nodes of the base graph.
    pub n: usize,
    /// Target live edges of the base graph.
    pub m: usize,
    /// Maximum raw weight.
    pub max_weight: u64,
    /// Top-level events per scenario.
    pub events: usize,
    /// Master seed (graph, traces, protocol coins, delivery delays).
    pub seed: u64,
    /// Which structure to maintain.
    pub kind: TreeKind,
    /// Delivery model for repairs (and scheduler-tolerant rebuilds).
    pub scheduler: Scheduler,
    /// Oracle checkpoint interval (`0` = final event only).
    pub verify_every: usize,
}

impl Default for SuiteParams {
    fn default() -> Self {
        Self::with_n(48)
    }
}

impl SuiteParams {
    /// Default-shaped parameters for an arbitrary `n`: the target edge count
    /// is *derived* from `n` at the default density ratio `m/n = 4` (the
    /// old `Default` hard-coded `m = 4 * 48` as a literal, so overriding `n`
    /// silently kept a 48-node edge budget).
    pub fn with_n(n: usize) -> Self {
        SuiteParams {
            n,
            m: 4 * n,
            max_weight: 1_000,
            events: 16,
            seed: 0xC0DE,
            kind: TreeKind::Mst,
            scheduler: Scheduler::RandomAsync { max_delay: 8 },
            verify_every: 4,
        }
    }

    /// The `KKT_SCALE=large` presets of the scale sweeps (exp9, exp11),
    /// tuned for n ∈ {256, 1024, 4096, 16384, 65536}: density stays at the
    /// default ratio while the event budget and checkpoint interval taper
    /// with `n`, so a single scenario stays inside a CI-sized wall-clock at
    /// n = 1024 and above. The n ≥ 16384 rungs shrink the event budget
    /// further and keep the final-event-only checkpointing — at that size a
    /// single oracle verification is already Θ(m) work.
    pub fn scale_preset(n: usize) -> Self {
        let (events, verify_every) = if n >= 65536 {
            (4, 0)
        } else if n >= 16384 {
            (6, 0)
        } else if n >= 4096 {
            (8, 0) // final-event checkpoint only
        } else if n >= 1024 {
            (12, 6)
        } else {
            (16, 4)
        };
        SuiteParams { events, verify_every, ..Self::with_n(n) }
    }

    /// The density axis of the dynamic sweeps (E13): `scale_preset`-shaped
    /// parameters at network size `n` with the edge budget set by the
    /// [`Density`] rung instead of the default `m/n = 4`. Event budget and
    /// checkpoint interval taper with `n` exactly as in
    /// [`SuiteParams::scale_preset`], so a rung's cost differences come from
    /// density alone.
    pub fn density_preset(n: usize, density: Density) -> Self {
        SuiteParams { m: density.target_edges(n), ..Self::scale_preset(n) }
    }

    /// The same parameters replayed under a different master seed — the
    /// per-cell plumbing of the seed-fleet runner, where every (rung,
    /// density) preset is instantiated once per mixed seed. A builder method
    /// (rather than struct-update syntax at each call site) so fleet cells
    /// cannot accidentally override anything but the seed.
    pub fn with_seed(self, seed: u64) -> Self {
        SuiteParams { seed, ..self }
    }

    /// The deterministic base graph of the run.
    ///
    /// Sparse budgets use the rejection-sampling builder
    /// ([`generators::connected_with_edges`]); budgets at or above a quarter
    /// of the complete graph switch to the enumerating dense builder
    /// ([`generators::connected_dense`]), whose work stays bounded all the
    /// way to `K_n` where rejection degenerates into a coupon collector.
    /// The switch keeps every *standard* pre-density-ladder preset on the
    /// historical path byte-for-byte (`with_n`/`scale_preset` sit at
    /// `m/n = 4`, below the threshold for every preset size n ≥ 48); ad-hoc
    /// configs at n ≤ 33 with that ratio land above it and route dense.
    pub fn base_graph(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBA5E_6AF0);
        let max_edges = if self.n < 2 { 0 } else { self.n * (self.n - 1) / 2 };
        if self.m * 4 >= max_edges.max(1) {
            generators::connected_dense(self.n, self.m, self.max_weight, &mut rng)
        } else {
            generators::connected_with_edges(self.n, self.m, self.max_weight, &mut rng)
        }
    }
}

/// One cell of a sweep: a density rung, which labels the cell in reports,
/// and the suite parameters it runs at (`params.m` is the rung's target).
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// The density rung of the cell.
    pub density: Density,
    /// Everything else: size, events, seed, tree kind, scheduler, checkpoints.
    pub params: SuiteParams,
}

impl SweepCell {
    /// The [`SuiteParams::density_preset`] cell at `(n, density)` under
    /// `seed`.
    pub fn preset(n: usize, density: Density, seed: u64) -> Self {
        SweepCell { density, params: SuiteParams::density_preset(n, density).with_seed(seed) }
    }

    /// Builds the cell's base graph and replay harness.
    ///
    /// # Panics
    ///
    /// If `params.m` is not the rung's target: a report must never label a
    /// cell with the wrong density.
    pub fn setup(self) -> CellSetup {
        let p = self.params;
        assert_eq!(
            p.m,
            self.density.target_edges(p.n),
            "m is not the {:?} rung's target",
            self.density
        );
        let harness = ReplayHarness::new(ReplayConfig {
            kind: p.kind,
            scheduler: p.scheduler,
            verify_every: p.verify_every,
            seed: p.seed,
            ..ReplayConfig::default()
        });
        CellSetup { cell: self, base: p.base_graph(), harness }
    }
}

/// A cell's base graph and harness, built once and shared by every trace
/// and policy replayed in the cell.
#[derive(Debug, Clone)]
pub struct CellSetup {
    /// The cell these were built for.
    pub cell: SweepCell,
    /// The base graph every trace of the cell starts from.
    pub base: Graph,
    /// The harness every replay of the cell runs under.
    pub harness: ReplayHarness,
}

impl CellSetup {
    /// Generates `scenario`'s trace over the base graph and validates it.
    ///
    /// # Errors
    ///
    /// [`ReplayError::InvalidTrace`] if an event does not apply in order.
    pub fn trace(&self, scenario: &dyn Scenario) -> Result<(Workload, WorkloadStats), ReplayError> {
        let p = self.cell.params;
        let workload = scenario.generate(&self.base, p.events, p.seed);
        let stats = workload.validate(&self.base).map_err(ReplayError::InvalidTrace)?;
        Ok((workload, stats))
    }
}

/// A single-seed experiment grid: every scenario's trace in every cell,
/// replayed under every policy, each list in report order.
pub struct Sweep {
    /// The cells; they share the seed, tree kind and scheduler of the report.
    pub cells: Vec<SweepCell>,
    /// The trace generators.
    pub scenarios: Vec<Box<dyn Scenario>>,
    /// The maintenance policies.
    pub policies: Vec<MaintenancePolicy>,
}

impl Sweep {
    /// The standard battery ([`standard_suite`]) in one cell, under every
    /// policy applicable to the cell's tree kind.
    pub fn battery(cell: SweepCell) -> Self {
        Sweep {
            scenarios: standard_suite(cell.params.max_weight),
            policies: MaintenancePolicy::all_for(cell.params.kind),
            cells: vec![cell],
        }
    }

    /// Runs the grid through `replay`: each cell's base graph and harness
    /// are built once, each trace is generated and validated once, and
    /// `replay` runs once per policy. Returns one point per (cell, scenario)
    /// trace, with empty `reports`, beside that trace's per-policy results.
    ///
    /// # Errors
    ///
    /// The first invalid trace or failed replay.
    pub fn replay_each<R>(
        &self,
        mut replay: impl FnMut(&CellSetup, &Workload, MaintenancePolicy) -> Result<R, ReplayError>,
    ) -> Result<Vec<(SweepPoint, Vec<R>)>, ReplayError> {
        let mut out = Vec::new();
        for &cell in &self.cells {
            let setup = cell.setup();
            for scenario in &self.scenarios {
                let (workload, stats) = setup.trace(scenario.as_ref())?;
                let results = self
                    .policies
                    .iter()
                    .map(|&policy| replay(&setup, &workload, policy))
                    .collect::<Result<_, _>>()?;
                let point = SweepPoint {
                    n: setup.base.node_count(),
                    m: setup.base.edge_count(),
                    density: cell.density.label(),
                    m_over_n: m_over_n(&setup.base),
                    events: workload.len(),
                    verify_every: cell.params.verify_every,
                    scenario: workload.scenario.clone(),
                    workload_fingerprint: workload.fingerprint(),
                    stats,
                    reports: Vec::new(),
                };
                out.push((point, results));
            }
        }
        Ok(out)
    }

    /// Replays the grid and seals every replay report into a
    /// [`SweepReport`], headed by the first cell's seed, tree kind and
    /// scheduler.
    ///
    /// # Errors
    ///
    /// The first failure, oracle mismatches included: a report exists only
    /// when every checkpoint verified.
    ///
    /// # Panics
    ///
    /// If the sweep has no cell.
    pub fn run(&self) -> Result<SweepReport, ReplayError> {
        let points = self
            .replay_each(|setup, workload, policy| {
                setup.harness.replay(&setup.base, workload, policy)
            })?
            .into_iter()
            .map(|(point, reports)| SweepPoint { reports, ..point })
            .collect();
        let first = self.cells[0].params;
        let mut report = SweepReport {
            seed: first.seed,
            tree_kind: tree_kind_label(first.kind),
            scheduler: scheduler_label(first.scheduler),
            points,
            fingerprint: String::new(),
        };
        report.seal();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The battery at n = 16, m/n = 2, with a short trace.
    fn tiny(seed: u64) -> Sweep {
        let cell = SweepCell::preset(16, Density::Ratio(2), seed);
        Sweep::battery(SweepCell {
            params: SuiteParams { events: 4, verify_every: 2, ..cell.params },
            ..cell
        })
    }

    #[test]
    fn suite_runs_and_seals() {
        let report = tiny(0xC0DE).run().unwrap();
        assert_eq!(report.points.len(), 5);
        for p in &report.points {
            assert_eq!(p.reports.len(), 4, "{}", p.scenario);
            assert_eq!((p.n, p.density.as_str()), (16, "2"));
            for r in &p.reports {
                assert!(r.checkpoints_verified > 0);
            }
        }
        assert_eq!(report.fingerprint.len(), 16);
    }

    #[test]
    fn replay_each_builds_one_trace_per_cell_and_scenario() {
        let sweep = Sweep {
            cells: vec![
                SweepCell::preset(16, Density::Ratio(2), 7),
                SweepCell::preset(16, Density::NOver2, 7),
            ],
            scenarios: standard_suite(1_000).into_iter().take(2).collect(),
            policies: vec![MaintenancePolicy::Impromptu, MaintenancePolicy::RebuildGhs],
        };
        let mut calls = Vec::new();
        let rows = sweep
            .replay_each(|setup, workload, policy| {
                calls.push((setup.cell.density.label(), workload.scenario.clone(), policy));
                Ok(workload.len())
            })
            .unwrap();
        // Cell-major, then scenario, then policy order; points carry no
        // reports of their own.
        assert_eq!(rows.len(), 2 * 2);
        assert_eq!(calls.len(), 2 * 2 * 2);
        assert_eq!(calls[0].0, "2");
        assert_eq!(calls[4].0, "n/2");
        assert_eq!(calls[0].1, calls[1].1);
        assert_ne!(calls[0].1, calls[2].1);
        assert_eq!(calls[1].2, MaintenancePolicy::RebuildGhs);
        for (point, results) in &rows {
            assert!(point.reports.is_empty());
            assert_eq!(results, &vec![point.events; 2]);
        }
        // The plain run prices the same traces.
        let report = sweep.run().unwrap();
        let fingerprints: Vec<&String> =
            report.points.iter().map(|p| &p.workload_fingerprint).collect();
        assert_eq!(
            fingerprints,
            rows.iter().map(|(p, _)| &p.workload_fingerprint).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "rung's target")]
    fn a_cell_off_its_rung_is_rejected() {
        let params = SuiteParams { m: 40, ..SuiteParams::with_n(16) };
        SweepCell { density: Density::Ratio(2), params }.setup();
    }

    #[test]
    fn with_n_keeps_the_density_ratio() {
        let d = SuiteParams::default();
        assert_eq!(d.n, 48);
        assert_eq!(d.m, 4 * d.n, "default m is derived from n");
        for n in [16usize, 48, 256, 1024, 4096] {
            let p = SuiteParams::with_n(n);
            assert_eq!(p.n, n);
            assert_eq!(p.m, 4 * n, "with_n must keep m/n = 4");
            assert_eq!(p.events, d.events);
            assert_eq!(p.verify_every, d.verify_every);
            assert_eq!(p.seed, d.seed);
        }
    }

    #[test]
    fn scale_presets_taper_with_n() {
        let rungs: Vec<SuiteParams> =
            [256, 1024, 4096, 16384, 65536].map(SuiteParams::scale_preset).into();
        for p in &rungs {
            assert_eq!(p.m, 4 * p.n, "presets keep the density ratio");
        }
        assert!(rungs.windows(2).all(|w| w[0].events >= w[1].events), "event budgets taper");
        for p in &rungs[2..] {
            assert_eq!(p.verify_every, 0, "n ≥ 4096 checkpoints the final event only");
        }
        // The pre-PR-9 rungs are frozen: the taper extension must not move
        // any historical preset (byte-compat of exp9/exp11 JSON).
        assert_eq!((rungs[0].events, rungs[0].verify_every), (16, 4));
        assert_eq!((rungs[1].events, rungs[1].verify_every), (12, 6));
        assert_eq!((rungs[2].events, rungs[2].verify_every), (8, 0));
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let p = SuiteParams::density_preset(64, Density::Ratio(8));
        let q = p.with_seed(0xABCD);
        assert_eq!(q.seed, 0xABCD);
        assert_eq!((q.n, q.m, q.events, q.verify_every), (p.n, p.m, p.events, p.verify_every));
        assert_eq!(q.max_weight, p.max_weight);
        // Different seeds must actually produce different base graphs (the
        // whole point of a seed fleet) while keeping the same shape targets.
        let (a, b) = (p.base_graph(), q.base_graph());
        assert_eq!(a.node_count(), b.node_count());
        let edges = |g: &Graph| {
            g.live_edges()
                .map(|id| {
                    let e = g.edge(id);
                    (e.u, e.v, e.weight)
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(edges(&a), edges(&b), "distinct seeds should sample distinct graphs");
    }

    #[test]
    fn density_ladder_targets_and_labels() {
        let labels: Vec<String> = Density::LADDER.iter().map(|d| d.label()).collect();
        assert_eq!(labels, ["2", "4", "8", "16", "n/8", "n/2"]);
        let n = 64;
        let max_edges = n * (n - 1) / 2;
        assert_eq!(Density::Ratio(2).target_edges(n), 2 * n);
        assert_eq!(Density::Ratio(16).target_edges(n), 16 * n);
        assert_eq!(Density::NOver8.target_edges(n), n * n / 8);
        assert_eq!(Density::NOver2.target_edges(n), max_edges, "n/2 clamps to complete");
        // Targets are monotone along the ladder once n/8 clears the constant
        // rungs (n ≥ 128; smaller grids interleave, which is fine — the
        // ladder is a set of rungs, not an ordered sweep).
        let targets: Vec<usize> = Density::LADDER.iter().map(|d| d.target_edges(256)).collect();
        assert!(targets.windows(2).all(|w| w[0] < w[1]), "{targets:?}");
        // Tiny networks clamp sanely in both directions.
        assert_eq!(Density::Ratio(16).target_edges(4), 6, "clamped to K_4");
        assert_eq!(Density::Ratio(2).target_edges(2), 1);
    }

    #[test]
    fn density_preset_wires_the_ladder_into_suite_params() {
        for n in [64usize, 256] {
            for &density in &Density::LADDER {
                let p = SuiteParams::density_preset(n, density);
                assert_eq!(p.n, n);
                assert_eq!(p.m, density.target_edges(n), "{}", density.label());
                // Everything but the edge budget matches the scale preset.
                let scale = SuiteParams::scale_preset(n);
                assert_eq!(p.events, scale.events);
                assert_eq!(p.verify_every, scale.verify_every);
                assert_eq!(p.seed, scale.seed);
            }
        }
        // density_preset at the default rung is exactly the scale preset.
        let p = SuiteParams::density_preset(256, Density::Ratio(4));
        assert_eq!(p.m, SuiteParams::scale_preset(256).m);
    }

    #[test]
    fn base_graph_hits_every_density_rung_exactly() {
        // The dense builder takes over where rejection sampling would
        // degenerate; every rung must land on its exact target, connected.
        for n in [32usize, 64] {
            for &density in &Density::LADDER {
                let p = SuiteParams { seed: 0xD0, ..SuiteParams::density_preset(n, density) };
                let g = p.base_graph();
                assert_eq!(g.node_count(), n);
                assert!(g.is_connected(), "n={n} density={}", density.label());
                let target = density.target_edges(n);
                // The rejection path may undershoot slightly; the dense path
                // (superlinear rungs) is exact.
                assert!(g.edge_count() <= target);
                assert!(
                    g.edge_count() * 10 >= target * 9,
                    "n={n} density={}: got {} of {target}",
                    density.label(),
                    g.edge_count()
                );
                if matches!(density, Density::NOver8 | Density::NOver2) {
                    assert_eq!(g.edge_count(), target, "dense builder is exact");
                }
            }
        }
    }

    #[test]
    fn suite_runs_on_a_dense_rung() {
        // The whole battery replays and verifies on a dense base graph (the
        // regime none of the pre-E13 suites ever exercised).
        let params = SuiteParams {
            events: 4,
            verify_every: 2,
            ..SuiteParams::density_preset(16, Density::NOver2)
        };
        let report = Sweep::battery(SweepCell { density: Density::NOver2, params }).run().unwrap();
        assert_eq!(report.points.len(), 5);
        for p in &report.points {
            assert_eq!(p.m, 16 * 15 / 2, "the n/2 rung is the complete graph");
            assert!((p.m_over_n - 7.5).abs() < 1e-12);
            for r in &p.reports {
                assert!(r.checkpoints_verified > 0, "{}/{}", p.scenario, r.policy);
            }
        }
    }

    #[test]
    fn suite_is_deterministic_across_runs() {
        let a = tiny(0xC0DE).run().unwrap();
        let b = tiny(0xC0DE).run().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must give byte-identical JSON"
        );
        let c = tiny(99).run().unwrap();
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
