//! Differential test: the engine, which drains its deliveries from the
//! calendar wheel, against a reference engine written here over a
//! `(time, seq)`-ordered `BinaryHeap`.
//!
//! The reference reproduces the engine's run semantics through the public
//! API alone: the run-local delay RNG is seeded from one draw of the
//! network RNG, initiators start in order at time 0, every send takes the
//! next `seq` and one delay draw (none under the synchronous scheduler), and
//! deliveries pop in `(time, seq)` order. A 64-case seeded sweep (16 seeds ×
//! 4 schedulers, including the `max_delay = 1` degenerate wheel) runs a
//! traffic-generating protocol under both on identical networks and asserts
//! that every observable is identical: per-node receive logs in delivery
//! order, node activation order, [`RunStats`], and the network's cost report
//! (messages, bits, time — the fingerprint feedstock).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kkt_congest::engine::Outbox;
use kkt_congest::{
    BitSized, CostReport, Engine, Network, NetworkConfig, NodeView, Protocol, RunStats, Scheduler,
};
use kkt_graphs::{generators, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gossip with a countdown: initiators flood a TTL token to every neighbour;
/// receivers log each delivery and forward a decremented token to a
/// deterministically varying neighbour. Generates bursty, reply-heavy
/// traffic whose delivery interleaving exercises the within-tick order.
#[derive(Debug, Default)]
struct Gossip {
    log: Vec<(NodeId, u64)>,
}

impl Gossip {
    fn start(&self, view: &NodeView) -> Vec<(NodeId, u64)> {
        if view.node.is_multiple_of(3) {
            view.incident.iter().map(|e| (e.neighbor, 6)).collect()
        } else {
            Vec::new()
        }
    }

    fn receive(&mut self, from: NodeId, msg: u64, view: &NodeView) -> Vec<(NodeId, u64)> {
        self.log.push((from, msg));
        if msg == 0 {
            return Vec::new();
        }
        let pick = (msg as usize + self.log.len()) % view.incident.len();
        vec![(view.incident[pick].neighbor, msg - 1)]
    }
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u64>) {
        for (to, msg) in self.start(view) {
            out.send(to, msg);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: u64, view: &NodeView, out: &mut Outbox<u64>) {
        for (to, msg) in self.receive(from, msg, view) {
            out.send(to, msg);
        }
    }
}

/// Per-node receive logs in delivery order, keyed by node.
type DeliveryLogs = Vec<(NodeId, Vec<(NodeId, u64)>)>;

/// Everything a run lets a caller observe.
type Observables = (Vec<NodeId>, DeliveryLogs, RunStats, CostReport);

/// One pending delivery of the reference engine: `Reverse` turns the
/// max-heap into a `(time, seq)` min-heap.
type HeapEvent = Reverse<(u64, u64, NodeId, NodeId, u64)>;

/// The reference engine: [`Engine::run_all`]'s semantics over a binary heap.
fn reference_run_all(net: &mut Network) -> Observables {
    let scheduler = net.config().scheduler;
    let mut delay_rng = StdRng::seed_from_u64(net.rng_mut().gen());
    let mut heap: BinaryHeap<HeapEvent> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<HeapEvent>, now, from, sends: Vec<(NodeId, u64)>| {
        for (to, msg) in sends {
            let delay = match scheduler {
                Scheduler::Synchronous => 1,
                Scheduler::RandomAsync { max_delay } => delay_rng.gen_range(1..=max_delay.max(1)),
            };
            seq += 1;
            heap.push(Reverse((now + delay, seq, from, to, msg)));
        }
    };

    let mut programs: Vec<(NodeId, Gossip)> = Vec::new();
    let mut slot_of = vec![None; net.node_count()];
    let mut touch = |programs: &mut Vec<(NodeId, Gossip)>, x: NodeId| {
        *slot_of[x].get_or_insert_with(|| {
            programs.push((x, Gossip::default()));
            programs.len() - 1
        })
    };

    for x in 0..net.node_count() {
        let idx = touch(&mut programs, x);
        let sends = programs[idx].1.start(&net.view(x));
        schedule(&mut heap, 0, x, sends);
    }
    let mut stats = RunStats::default();
    while let Some(Reverse((now, _, from, to, msg))) = heap.pop() {
        let bits = msg.bit_size() as u64;
        stats.messages += 1;
        stats.bits += bits;
        stats.makespan = stats.makespan.max(now);
        net.cost_mut().record_message(bits);
        let idx = touch(&mut programs, to);
        let sends = programs[idx].1.receive(from, msg, &net.view(to));
        schedule(&mut heap, now, to, sends);
    }
    net.cost_mut().record_time(stats.makespan);

    let activation_order = programs.iter().map(|(x, _)| *x).collect();
    let logs = programs.into_iter().map(|(x, p)| (x, p.log)).collect();
    (activation_order, logs, stats, net.cost())
}

/// The engine's run of the same protocol.
fn engine_run_all(net: &mut Network) -> Observables {
    let (programs, stats) = Engine::run_all(net, |_| Gossip::default()).expect("gossip completes");
    let activation_order = programs.iter().map(|(x, _)| x).collect();
    let logs = programs.iter().map(|(x, p)| (x, p.log.clone())).collect();
    (activation_order, logs, stats, net.cost())
}

/// A fresh seeded network under `scheduler`; equal arguments give equal
/// networks.
fn network(seed: u64, scheduler: Scheduler) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::connected_gnp(24, 0.18, 50, &mut rng);
    Network::new(g, NetworkConfig { scheduler, seed, ..NetworkConfig::default() })
}

fn assert_equivalent(seed: u64, scheduler: Scheduler) {
    let wheel = engine_run_all(&mut network(seed, scheduler));
    let heap = reference_run_all(&mut network(seed, scheduler));
    assert_eq!(wheel.0, heap.0, "activation order, seed {seed}, {scheduler:?}");
    assert_eq!(wheel.1, heap.1, "per-node delivery logs, seed {seed}, {scheduler:?}");
    assert_eq!(wheel.2, heap.2, "run stats, seed {seed}, {scheduler:?}");
    assert_eq!(wheel.3, heap.3, "cost report, seed {seed}, {scheduler:?}");
    assert!(wheel.2.messages > 0, "the case generated traffic, seed {seed}, {scheduler:?}");
}

/// The 64-case sweep: 16 seeds × 4 schedulers. `max_delay = 1` is the
/// degenerate two-slot wheel (identical to the synchronous schedule shape
/// but drawing RNG delays), 8 is the preset used by every replay, 64 is a
/// wide sparse wheel.
#[test]
fn wheel_matches_heap_over_64_seeded_cases() {
    let schedulers = [
        Scheduler::Synchronous,
        Scheduler::RandomAsync { max_delay: 1 },
        Scheduler::RandomAsync { max_delay: 8 },
        Scheduler::RandomAsync { max_delay: 64 },
    ];
    for seed in 0..16u64 {
        for scheduler in schedulers {
            assert_equivalent(seed, scheduler);
        }
    }
}
