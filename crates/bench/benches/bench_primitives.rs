//! Criterion benches for experiments E5/E6/E7 (see EXPERIMENTS.md): the
//! search primitives, plus an ablation of FindMin's word-parallel interval
//! search against binary search (word width w vs w = 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use kkt_congest::{Network, NetworkConfig};
use kkt_core::{find_any, find_min, hp_test_out, test_out, Budget, KktConfig, WeightInterval};
use kkt_graphs::{generators, kruskal, Graph, SpanningForest};

fn half_marked(n: usize, seed: u64) -> (Graph, SpanningForest) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_with_edges(n, 4 * n, 1_000, &mut rng);
    let mst = kruskal(&g);
    (g, mst)
}

fn network_with_half_marks(g: &Graph, mst: &SpanningForest, seed: u64) -> Network {
    let mut net = Network::new(g.clone(), NetworkConfig::synchronous(seed));
    net.mark_all(&mst.edges[..mst.edges.len() / 2]);
    net
}

fn bench_primitives(c: &mut Criterion) {
    let config = KktConfig::default();
    let mut group = c.benchmark_group("primitives");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    let n = 128;
    let (g, mst) = half_marked(n, 21);

    group.bench_function(BenchmarkId::new("test_out", n), |b| {
        let mut net = network_with_half_marks(&g, &mst, 1);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap())
    });
    group.bench_function(BenchmarkId::new("hp_test_out", n), |b| {
        let mut net = network_with_half_marks(&g, &mst, 3);
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| hp_test_out(&mut net, 0, WeightInterval::everything(), &mut rng).unwrap())
    });
    group.bench_function(BenchmarkId::new("find_any", n), |b| {
        let mut net = network_with_half_marks(&g, &mst, 5);
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| find_any(&mut net, 0, Budget::Whp, &config, &mut rng).unwrap())
    });
    group.bench_function(BenchmarkId::new("find_min_word_parallel", n), |b| {
        let mut net = network_with_half_marks(&g, &mst, 7);
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| find_min(&mut net, 0, Budget::Whp, &config, &mut rng).unwrap())
    });
    // Ablation: restrict the word width to 2 sub-intervals (binary search),
    // removing the log log n speed-up of word-parallel narrowing.
    let binary_config = KktConfig { word_width: Some(2), ..KktConfig::default() };
    group.bench_function(BenchmarkId::new("find_min_binary_search_ablation", n), |b| {
        let mut net = network_with_half_marks(&g, &mst, 9);
        let mut rng = StdRng::seed_from_u64(10);
        b.iter(|| find_min(&mut net, 0, Budget::Whp, &binary_config, &mut rng).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
