//! A dynamic network scenario: a long stream of link failures, recoveries and
//! latency changes, maintained impromptu (no state between updates beyond the
//! marked tree itself).
//!
//! The event stream comes from the `kkt-workloads` scenario engine: a seeded
//! Poisson-churn trace, replayed through the paper's repairs by the
//! [`kkt::workloads::ReplayHarness`] with a Kruskal-oracle check after every
//! event. Same seed ⇒ same trace ⇒ same costs ⇒ identical output.
//!
//! ```bash
//! cargo run --example dynamic_network
//! ```

use kkt::graphs::generators;
use kkt::workloads::{MaintenancePolicy, PoissonChurn, ReplayHarness, Scenario};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let graph = generators::connected_with_edges(192, 1200, 500, &mut rng);
    let m = graph.edge_count();

    let scenario = PoissonChurn { delete_fraction: 0.5, max_weight: 500 };
    let workload = scenario.generate(&graph, 60, 7);
    println!(
        "scenario {} over n = {}, m = {}: {} events (trace fingerprint {})",
        workload.scenario,
        graph.node_count(),
        m,
        workload.len(),
        workload.fingerprint()
    );

    let harness = ReplayHarness::default();
    let report = harness.replay(&graph, &workload, MaintenancePolicy::Impromptu)?;

    println!("initial MST: {} messages", report.build.messages);
    println!(
        "processed {} updates: {} messages total, {:.0} per update on average, {} worst case \
         ({} oracle checkpoints passed)",
        report.per_event.len(),
        report.total.messages,
        report.mean_messages_per_event,
        report.max_messages_per_event,
        report.checkpoints_verified,
    );
    println!(
        "for reference, re-flooding after every update would cost ≈ {} messages per update",
        2 * m
    );
    // KKT_TRACE=1 adds the report's phase split of the total; everything
    // above prints the same either way.
    if std::env::var("KKT_TRACE").is_ok_and(|v| v == "1") {
        println!("\nwhere the bits went (KKT_TRACE=1):");
        println!("{}", report.phases);
    }
    Ok(())
}
