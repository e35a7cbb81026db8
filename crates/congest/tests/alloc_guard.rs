//! Allocation guard: the steady-state delivery loop performs **zero heap
//! allocations per delivered message**.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! run establishes the pooled capacities (view cache, delivery queue, tick
//! and staging buffers, program slot table) on a fixed topology, two
//! measured runs deliver workloads two orders of magnitude apart in message
//! count. Per-run setup still allocates a bounded amount (the run's payload
//! arena ramps to its in-flight high-water mark, the program entries fill,
//! the returned `ProgramMap` builds its index) — but none of that scales
//! with deliveries, so the two runs must allocate **exactly the same number
//! of times**. One allocation on the per-message path would separate the
//! counts by ~49k.
//!
//! The counter is per thread: it counts only the measuring thread's calls,
//! so an allocation by another thread of the test binary (the test harness's
//! own, or a concurrently running test's) cannot separate the two counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kkt_congest::engine::Outbox;
use kkt_congest::{Engine, Network, NetworkConfig, NodeView, Protocol};
use kkt_graphs::{Graph, NodeId};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and free of destructors, so reading it from inside
    // the allocator never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    ALLOC_CALLS.with(|calls| calls.set(calls.get() + 1));
}

/// Allocator calls the current thread has made so far.
fn calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// The shim-free way to observe the hot loop's allocation behaviour: count
// every call that can acquire heap memory, delegate the actual work to the
// system allocator. `dealloc` is not counted — frees are the mirror image
// of the counted acquisitions.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Two nodes bounce a countdown token; deliveries = initial TTL + 1. The
/// message type is `Copy` and payload-arena-interned, so every delivery
/// exercises the full hot path (stage, validate, schedule, deliver) with a
/// tunable message count on a fixed two-node topology.
#[derive(Debug)]
struct BounceTtl {
    ttl: u64,
}

impl Protocol for BounceTtl {
    type Msg = u64;
    type Output = ();

    fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u64>) {
        out.send(view.incident[0].neighbor, self.ttl);
    }

    fn on_message(&mut self, from: NodeId, msg: u64, _view: &NodeView, out: &mut Outbox<u64>) {
        if msg > 0 {
            out.send(from, msg - 1);
        }
    }
}

fn run_bounce(net: &mut Network, ttl: u64) -> u64 {
    let (_, stats) = Engine::run(net, &[0], |_| BounceTtl { ttl }).expect("bounce completes");
    stats.messages
}

#[test]
fn steady_state_delivery_allocates_zero_per_message() {
    let mut g = Graph::new(2);
    g.add_edge(0, 1, 1);
    let mut net = Network::new(g, NetworkConfig::default());

    // Warmup: builds the views, the wheel, and every pooled buffer.
    run_bounce(&mut net, 64);

    let before_small = calls();
    let small = run_bounce(&mut net, 512);
    let small_allocs = calls() - before_small;

    let before_large = calls();
    let large = run_bounce(&mut net, 50_000);
    let large_allocs = calls() - before_large;

    assert_eq!(small, 513);
    assert_eq!(large, 50_001);
    assert_eq!(
        small_allocs, large_allocs,
        "allocation count must be independent of delivered-message count \
         ({small} vs {large} deliveries)"
    );
}
