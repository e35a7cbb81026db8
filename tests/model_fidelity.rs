//! Integration tests for the fidelity of the simulation model itself:
//! impromptu-ness of the repair state, and reproducibility. (CONGEST message
//! sizes are an envelope in `tests/envelopes.rs`.)

use kkt::congest::{Network, NetworkConfig};
use kkt::core::{apply_update, KktConfig};
use kkt::graphs::generators::{self, Update};
use kkt::graphs::kruskal;
use kkt::{MaintainOptions, MaintainedForest, TreeKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn repairs_are_impromptu_no_state_survives_between_updates() {
    // Between updates the only distributed state is the marking itself: we
    // can tear the network down to (graph, marked edges) and rebuild it, and
    // repairs behave identically. This is the "impromptu" property.
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::connected_with_edges(64, 400, 500, &mut rng);
    let mst = kruskal(&g);

    // Continuously maintained network.
    let mut live = Network::new(g.clone(), NetworkConfig::synchronous(42));
    live.mark_all(&mst.edges);
    // Network reconstructed from scratch, keeping only the marking.
    let mut resumed = Network::new(g.clone(), NetworkConfig::synchronous(42));
    resumed.mark_all(&mst.edges);

    let victim = *g.edge(mst.edges[7]);
    let delete = Update::Delete { u: victim.u, v: victim.v };
    let cfg = KktConfig::default();
    let mut r1 = StdRng::seed_from_u64(9);
    let mut r2 = StdRng::seed_from_u64(9);
    let a = apply_update(&mut live, TreeKind::Mst, &delete, &cfg, &mut r1).unwrap();
    let b = apply_update(&mut resumed, TreeKind::Mst, &delete, &cfg, &mut r2).unwrap();
    assert_eq!(a, b, "repair outcome must depend only on (graph, marking, coins)");
    assert_eq!(live.marked_forest_snapshot(), resumed.marked_forest_snapshot());
    assert_eq!(live.cost().messages, resumed.cost().messages);
}

#[test]
fn runs_are_reproducible_for_a_fixed_seed() {
    let build = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(123);
        let g = generators::connected_with_edges(80, 500, 700, &mut rng);
        let forest = MaintainedForest::build(
            g,
            TreeKind::Mst,
            MaintainOptions { seed, ..Default::default() },
        )
        .unwrap();
        (forest.snapshot(), forest.cost())
    };
    assert_eq!(build(5), build(5));
    // A different seed may legitimately lead to different costs (different
    // coins), but must still produce the same (unique) MST.
    assert_eq!(build(5).0, build(6).0);
}

#[test]
fn asynchronous_and_synchronous_repairs_agree_on_the_result() {
    let mut rng = StdRng::seed_from_u64(15);
    let g = generators::connected_with_edges(64, 380, 900, &mut rng);
    let mst = kruskal(&g);
    let victim = *g.edge(mst.edges[20]);
    let delete = Update::Delete { u: victim.u, v: victim.v };
    let cfg = KktConfig::default();

    let run = |config: NetworkConfig| {
        let mut net = Network::new(g.clone(), config);
        net.mark_all(&mst.edges);
        let mut r = StdRng::seed_from_u64(77);
        apply_update(&mut net, TreeKind::Mst, &delete, &cfg, &mut r).unwrap();
        net.marked_forest_snapshot()
    };
    let sync_forest = run(NetworkConfig::synchronous(1));
    let async_forest = run(NetworkConfig::asynchronous(2, 16));
    // The replacement edge is the unique minimum across the cut, so both
    // timing models must converge to the same repaired MST.
    assert_eq!(sync_forest, async_forest);
    kkt::graphs::verify_mst(
        &{
            let mut g2 = g.clone();
            g2.remove_edge(victim.u, victim.v);
            g2
        },
        &sync_forest,
    )
    .unwrap();
}
