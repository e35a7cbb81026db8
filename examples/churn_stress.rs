//! Churn stress: the whole scenario battery against every maintenance
//! policy, with oracle verification at every checkpoint.
//!
//! This is the `kkt-workloads` subsystem end-to-end: five scenario
//! generators (memoryless churn, adversarial tree-cutting, partition bursts,
//! weight drift, a mixed lifecycle) replayed under impromptu repair and
//! under rebuild-from-scratch baselines, on both an MST and a plain spanning
//! tree. Everything is seeded — run it twice and the output (including the
//! suite fingerprints) is byte-identical.
//!
//! ```bash
//! cargo run --release --example churn_stress
//! ```

use kkt::core::TreeKind;
use kkt::workloads::{Density, MixedPhases, Scenario, SuiteParams, Sweep, SweepCell, SweepReport};

fn summarise(params: &SuiteParams, report: &SweepReport) {
    println!(
        "== {} maintenance, {} (n = {}, m = {}, {} events/scenario, fingerprint {})",
        report.tree_kind,
        report.scheduler,
        report.points[0].n,
        report.points[0].m,
        params.events,
        report.fingerprint
    );
    for point in &report.points {
        println!(
            "  {} (deletions {}, of which tree {}; insertions {}; weight changes {}; max components {})",
            point.scenario,
            point.stats.deletions,
            point.stats.tree_edge_deletions,
            point.stats.insertions,
            point.stats.weight_changes,
            point.stats.max_components,
        );
        let impromptu_bits = point.report_for("impromptu_repair").map_or(0, |r| r.total.bits);
        for r in &point.reports {
            let ratio = if impromptu_bits > 0 {
                format!("{:.2}x impromptu", r.total.bits as f64 / impromptu_bits as f64)
            } else {
                "-".to_string()
            };
            println!(
                "    {:<16} {:>9} msgs {:>12} bits ({} checkpoints ok, {})",
                r.policy, r.total.messages, r.total.bits, r.checkpoints_verified, ratio
            );
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mst = SuiteParams { n: 48, m: 192, events: 12, verify_every: 3, ..SuiteParams::default() };
    let cell = SweepCell { density: Density::Ratio(4), params: mst };
    let mst_report = Sweep::battery(cell).run()?;
    summarise(&mst, &mst_report);

    // The same battery on an unweighted spanning tree: repairs use FindAny
    // (expected O(n)) and the rebuild baseline is Θ(m) flooding.
    let st = SuiteParams { kind: TreeKind::St, max_weight: 1, ..mst };
    summarise(&st, &Sweep::battery(SweepCell { params: st, ..cell }).run()?);

    // KKT_TRACE=1: each MST policy's bits on the mixed lifecycle, by phase.
    // Every replay report carries its phase split, so this reads the MST
    // battery above and replays nothing.
    if std::env::var("KKT_TRACE").is_ok_and(|v| v == "1") {
        let mixed = MixedPhases::standard(mst.max_weight).id();
        let point = mst_report
            .points
            .iter()
            .find(|p| p.scenario == mixed)
            .expect("the battery replays the mixed lifecycle");
        println!("\n== phase anatomy of {} (KKT_TRACE=1)", point.scenario);
        for report in &point.reports {
            println!("-- {}", report.policy);
            println!("{}", report.phases);
        }
    }
    Ok(())
}
