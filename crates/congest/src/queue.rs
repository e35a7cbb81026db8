//! The calendar (timing-wheel) delivery queue.
//!
//! Both schedulers bound every per-message delay by a small integer: the
//! synchronous model delivers after exactly one tick, the random-async model
//! draws uniformly from `[1, max_delay]`. Delivery times are therefore always
//! inside the window `(now, now + max_delay]`, which a circular array of
//! `max_delay + 1` tick buckets covers exactly — push and pop become O(1)
//! array operations instead of the O(log q) binary-heap sifts the engine
//! used to pay per message.
//!
//! # Order equivalence with the heap
//!
//! The engine's observable order is the heap's `(time, seq)` order. The
//! wheel reproduces it exactly:
//!
//! * **Across ticks** — every delay is ≥ 1, so while tick `t` is being
//!   drained all new events land strictly after `t`; a tick's bucket is
//!   complete before the engine starts draining it, and ticks are visited in
//!   increasing order.
//! * **Within a tick** — `seq` increases monotonically over the whole run,
//!   so events arrive at a bucket in ascending-`seq` order and FIFO draining
//!   yields exactly the heap's secondary order.
//! * **Slot aliasing is safe** — with `W = max_delay + 1` slots, events
//!   pushed while tick `t` drains have times in `[t + 1, t + max_delay]`,
//!   which map to the `W - 1` slots *other than* `t`'s own (`t + max_delay ≡
//!   t - 1 (mod W)`). The earliest time that aliases back onto slot `t` is
//!   `t + W`, pushable only once the engine has advanced past `t` — by which
//!   point the slot's bucket has been swapped out empty.
//!
//! A run with `max_delay + 1 > MAX_WHEEL_TICKS` (far beyond both schedulers'
//! presets) transparently falls back to the reference `EventHeap`; the
//! differential test in `crates/congest/tests/queue_differential.rs` sweeps
//! both implementations against each other across schedulers and seeds.
//!
//! Everything here is plain owned data — no hasher-ordered containers, no
//! floats, no interior mutability (lint rules R1/R3/R5 apply to this file) —
//! so a queue can be sharded per engine instance by the fleet runner.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::engine::Scheduler;

/// Which delivery-queue implementation an engine run uses.
///
/// Purely an execution-strategy knob: the two implementations produce
/// bit-identical delivery orders, costs, and fingerprints (asserted by the
/// differential tests), so this never needs to appear in a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryQueueKind {
    /// Calendar wheel when the scheduler's delay bound fits
    /// [`MAX_WHEEL_TICKS`], reference heap otherwise. The default.
    #[default]
    Auto,
    /// Always the reference `BinaryHeap` — the baseline side of the
    /// differential tests.
    ForceHeap,
}

/// Widest wheel the auto policy will build (ticks = `max_delay + 1`).
/// Both schedulers' presets are far below this; a wider delay bound falls
/// back to the heap, whose ordering the wheel replicates anyway.
pub const MAX_WHEEL_TICKS: u64 = 4096;

/// One scheduled delivery, queue-side. Non-generic on purpose: the payload
/// lives in the run's [`crate::arena::PayloadArena`] and travels as a `u32`
/// handle, which is what lets the queue (and its grown bucket capacities) be
/// pooled in the network's `EngineScratch` across runs of *different*
/// protocols.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRec {
    /// Global send order; the tiebreaker within a tick.
    pub seq: u64,
    /// Semantic message size in bits, computed once at send time.
    pub bits: u64,
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Arena handle of the payload.
    pub payload: u32,
}

/// The calendar wheel: `max_delay + 1` circular tick buckets.
#[derive(Debug, Default)]
pub(crate) struct CalendarWheel {
    buckets: Vec<Vec<EventRec>>,
    now: u64,
    pending: usize,
}

impl CalendarWheel {
    fn new(max_delay: u64) -> Self {
        let slots = (max_delay + 1) as usize;
        let mut buckets = Vec::with_capacity(slots);
        buckets.resize_with(slots, Vec::new);
        CalendarWheel { buckets, now: 0, pending: 0 }
    }

    fn slots(&self) -> usize {
        self.buckets.len()
    }

    fn push(&mut self, time: u64, rec: EventRec) {
        let w = self.buckets.len() as u64;
        debug_assert!(time > self.now, "delays are >= 1");
        debug_assert!(time - self.now < w, "delay fits the wheel");
        self.buckets[(time % w) as usize].push(rec);
        self.pending += 1;
    }

    /// Swaps the next non-empty tick's bucket into `buf` (cleared first) and
    /// returns its time, or `None` when the wheel is empty. The swap donates
    /// `buf`'s grown capacity back to the slot, so bucket storage ping-pongs
    /// between the wheel and the engine's tick buffer without reallocating.
    fn take_tick(&mut self, buf: &mut Vec<EventRec>) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let w = self.buckets.len() as u64;
        loop {
            self.now += 1;
            let bucket = &mut self.buckets[(self.now % w) as usize];
            if !bucket.is_empty() {
                buf.clear();
                std::mem::swap(bucket, buf);
                self.pending -= buf.len();
                return Some(self.now);
            }
        }
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.now = 0;
        self.pending = 0;
    }
}

/// The reference implementation: a plain `(time, seq)`-ordered binary heap.
/// Used when the delay bound exceeds [`MAX_WHEEL_TICKS`], when
/// [`DeliveryQueueKind::ForceHeap`] is requested, and as the oracle side of
/// the differential tests.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    heap: BinaryHeap<HeapEntry>,
}

#[derive(Debug)]
struct HeapEntry {
    time: u64,
    rec: EventRec,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rec.seq == other.rec.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering so the BinaryHeap pops the earliest event first.
        (other.time, other.rec.seq).cmp(&(self.time, self.rec.seq))
    }
}

impl EventHeap {
    fn push(&mut self, time: u64, rec: EventRec) {
        self.heap.push(HeapEntry { time, rec });
    }

    /// Pops every event of the earliest pending tick into `buf` (cleared
    /// first), in ascending `seq` order, and returns the tick time.
    fn take_tick(&mut self, buf: &mut Vec<EventRec>) -> Option<u64> {
        let first = self.heap.pop()?;
        let time = first.time;
        buf.clear();
        buf.push(first.rec);
        while let Some(next) = self.heap.peek() {
            if next.time != time {
                break;
            }
            buf.push(self.heap.pop().expect("peeked entry pops").rec);
        }
        Some(time)
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The engine's delivery queue: calendar wheel in the hot configurations,
/// reference heap otherwise. Lives in the network's `EngineScratch` between
/// runs so bucket/heap capacities are paid once per network, not per run.
#[derive(Debug)]
pub(crate) enum DeliveryQueue {
    /// O(1) calendar wheel (see module docs).
    Wheel(CalendarWheel),
    /// Reference binary heap.
    Heap(EventHeap),
}

impl Default for DeliveryQueue {
    fn default() -> Self {
        DeliveryQueue::Heap(EventHeap::default())
    }
}

impl DeliveryQueue {
    /// Reshapes the queue for a run under `scheduler`/`kind`, reusing the
    /// existing storage when the shape already matches (the steady state of
    /// every replay: same scheduler run after run ⇒ zero allocation here).
    ///
    /// `initiators` sizes the cold-start heap: a broadcast-style wave keeps
    /// at most a few in-flight messages per initiator's tree edge, so a small
    /// multiple of the initiator count avoids the early doubling
    /// re-allocations without over-committing for small-fragment runs (the
    /// old engine reserved `clamp(64, 4n)` slots per run from `n` alone,
    /// which over-allocated for every small-fragment repair on a large
    /// network — and then threw the buffer away at the end of the run).
    pub(crate) fn prepare(
        &mut self,
        scheduler: Scheduler,
        kind: DeliveryQueueKind,
        initiators: usize,
    ) {
        let bound = scheduler.max_delay_bound();
        let wheel_slots = match kind {
            DeliveryQueueKind::Auto if bound < MAX_WHEEL_TICKS => Some((bound + 1) as usize),
            _ => None,
        };
        match (wheel_slots, &mut *self) {
            (Some(slots), DeliveryQueue::Wheel(wheel)) if wheel.slots() == slots => {
                debug_assert!(wheel.pending == 0, "queues are drained between runs");
                wheel.now = 0;
            }
            (Some(slots), _) => *self = DeliveryQueue::Wheel(CalendarWheel::new(slots as u64 - 1)),
            (None, DeliveryQueue::Heap(heap)) => {
                debug_assert!(heap.heap.is_empty(), "queues are drained between runs");
            }
            (None, slot) => {
                let mut heap = EventHeap::default();
                heap.heap.reserve((initiators * 4).max(64));
                *slot = DeliveryQueue::Heap(heap);
            }
        }
    }

    /// Schedules `rec` for delivery at `time` (strictly in the future).
    pub(crate) fn push(&mut self, time: u64, rec: EventRec) {
        match self {
            DeliveryQueue::Wheel(wheel) => wheel.push(time, rec),
            DeliveryQueue::Heap(heap) => heap.push(time, rec),
        }
    }

    /// Drains the next pending tick into `buf` in `(time, seq)` order,
    /// returning its time; `None` when the queue is empty.
    pub(crate) fn take_tick(&mut self, buf: &mut Vec<EventRec>) -> Option<u64> {
        match self {
            DeliveryQueue::Wheel(wheel) => wheel.take_tick(buf),
            DeliveryQueue::Heap(heap) => heap.take_tick(buf),
        }
    }

    /// True if no deliveries are pending.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            DeliveryQueue::Wheel(wheel) => wheel.pending == 0,
            DeliveryQueue::Heap(heap) => heap.heap.is_empty(),
        }
    }

    /// Drops all pending deliveries (error-path cleanup; their payloads die
    /// with the run's arena).
    pub(crate) fn clear(&mut self) {
        match self {
            DeliveryQueue::Wheel(wheel) => wheel.clear(),
            DeliveryQueue::Heap(heap) => heap.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> EventRec {
        EventRec { seq, bits: 1, from: 0, to: 0, payload: 0 }
    }

    fn drain_order(queue: &mut DeliveryQueue) -> Vec<(u64, u64)> {
        let mut buf = Vec::new();
        let mut order = Vec::new();
        while let Some(time) = queue.take_tick(&mut buf) {
            for r in &buf {
                order.push((time, r.seq));
            }
        }
        order
    }

    /// Feeds the same (time, seq) schedule to the wheel and the heap,
    /// interleaving pushes with tick drains the way the engine does, and
    /// asserts identical pop orders.
    #[test]
    fn wheel_matches_heap_under_interleaved_pushes() {
        for max_delay in [1u64, 2, 3, 8] {
            let mut wheel = DeliveryQueue::Wheel(CalendarWheel::new(max_delay));
            let mut heap = DeliveryQueue::Heap(EventHeap::default());
            // A deterministic but scrambled delay pattern.
            let mut seq = 0u64;
            let mut push_both = |w: &mut DeliveryQueue, h: &mut DeliveryQueue, now: u64| {
                for k in 0..3u64 {
                    seq += 1;
                    let delay = 1 + (seq * 7 + k * 13) % max_delay.max(1);
                    w.push(now + delay, rec(seq));
                    h.push(now + delay, rec(seq));
                }
            };
            push_both(&mut wheel, &mut heap, 0);
            let (mut wbuf, mut hbuf) = (Vec::new(), Vec::new());
            for _ in 0..5 {
                let wt = wheel.take_tick(&mut wbuf);
                let ht = heap.take_tick(&mut hbuf);
                assert_eq!(wt, ht);
                assert_eq!(
                    wbuf.iter().map(|r| r.seq).collect::<Vec<_>>(),
                    hbuf.iter().map(|r| r.seq).collect::<Vec<_>>()
                );
                if let Some(now) = wt {
                    push_both(&mut wheel, &mut heap, now);
                }
            }
            assert_eq!(drain_order(&mut wheel), drain_order(&mut heap));
        }
    }

    #[test]
    fn within_tick_order_is_fifo_by_seq() {
        let mut wheel = DeliveryQueue::Wheel(CalendarWheel::new(4));
        for seq in 1..=6u64 {
            wheel.push(3, rec(seq));
        }
        assert_eq!(drain_order(&mut wheel), (1..=6).map(|s| (3, s)).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_ticks_are_skipped() {
        let mut wheel = DeliveryQueue::Wheel(CalendarWheel::new(8));
        wheel.push(7, rec(1));
        let mut buf = Vec::new();
        assert_eq!(wheel.take_tick(&mut buf), Some(7));
        assert_eq!(buf.len(), 1);
        assert_eq!(wheel.take_tick(&mut buf), None);
    }

    #[test]
    fn prepare_reuses_matching_shapes_and_reshapes_otherwise() {
        let sync = Scheduler::Synchronous;
        let wide = Scheduler::RandomAsync { max_delay: MAX_WHEEL_TICKS + 5 };
        let mut q = DeliveryQueue::default();
        q.prepare(sync, DeliveryQueueKind::Auto, 4);
        assert!(matches!(q, DeliveryQueue::Wheel(ref w) if w.slots() == 2));
        q.prepare(sync, DeliveryQueueKind::Auto, 4);
        assert!(matches!(q, DeliveryQueue::Wheel(_)));
        q.prepare(wide, DeliveryQueueKind::Auto, 4);
        assert!(matches!(q, DeliveryQueue::Heap(_)), "delay bound past the wheel cap");
        q.prepare(sync, DeliveryQueueKind::ForceHeap, 4);
        assert!(matches!(q, DeliveryQueue::Heap(_)));
        q.prepare(Scheduler::RandomAsync { max_delay: 8 }, DeliveryQueueKind::Auto, 4);
        assert!(matches!(q, DeliveryQueue::Wheel(ref w) if w.slots() == 9));
    }

    #[test]
    fn clear_resets_the_wheel() {
        let mut q = DeliveryQueue::Wheel(CalendarWheel::new(3));
        q.push(2, rec(1));
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        let mut buf = Vec::new();
        assert_eq!(q.take_tick(&mut buf), None);
    }
}
