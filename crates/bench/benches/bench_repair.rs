//! Criterion benches for experiments E3/E4: impromptu repair vs flood repair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_baselines::flood_repair_delete;
use kkt_congest::{Network, NetworkConfig};
use kkt_core::{delete_edge_mst, delete_edge_st, insert_edge_mst, KktConfig};
use kkt_graphs::{generators, kruskal, Graph, SpanningForest};

fn workload(n: usize, seed: u64) -> (Graph, SpanningForest) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_with_edges(n, 6 * n, 1_000, &mut rng);
    let mst = kruskal(&g);
    (g, mst)
}

fn bench_repair(c: &mut Criterion) {
    let config = KktConfig::default();
    let mut group = c.benchmark_group("repair");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for &n in &[128usize, 256] {
        let (g, mst) = workload(n, 11);
        let victim = *g.edge(mst.edges[n / 2]);

        group.bench_with_input(BenchmarkId::new("kkt_delete_mst", n), &g, |b, g| {
            b.iter(|| {
                let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(1, 8));
                net.mark_all(&mst.edges);
                let mut rng = StdRng::seed_from_u64(2);
                delete_edge_mst(&mut net, victim.u, victim.v, &config, &mut rng).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("kkt_delete_st", n), &g, |b, g| {
            b.iter(|| {
                let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(3, 8));
                net.mark_all(&mst.edges);
                let mut rng = StdRng::seed_from_u64(4);
                delete_edge_st(&mut net, victim.u, victim.v, &config, &mut rng).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("kkt_insert_mst", n), &g, |b, g| {
            b.iter(|| {
                let mut net = Network::new(g.clone(), NetworkConfig::asynchronous(5, 8));
                net.mark_all(&mst.edges);
                net.delete_edge(victim.u, victim.v);
                insert_edge_mst(&mut net, victim.u, victim.v, victim.weight).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("flood_repair_delete", n), &g, |b, g| {
            b.iter(|| {
                let mut net = Network::new(g.clone(), NetworkConfig::synchronous(6));
                net.mark_all(&mst.edges);
                flood_repair_delete(&mut net, victim.u, victim.v).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair);
criterion_main!(benches);
