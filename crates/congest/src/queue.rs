//! The calendar (timing-wheel) delivery queue.
//!
//! Both schedulers bound every per-message delay by a small integer: the
//! synchronous model delivers after exactly one tick, the random-async model
//! draws uniformly from `[1, max_delay]`. Delivery times are therefore always
//! inside the window `(now, now + max_delay]`, which a circular array of
//! `max_delay + 1` tick buckets covers exactly — push and pop are O(1)
//! array operations.
//!
//! # Delivery order
//!
//! The engine's observable order is `(time, seq)`: by delivery time, then by
//! global send order. The wheel yields exactly that order:
//!
//! * **Across ticks** — every delay is ≥ 1, so while tick `t` is being
//!   drained all new events land strictly after `t`; a tick's bucket is
//!   complete before the engine starts draining it, and ticks are visited in
//!   increasing order.
//! * **Within a tick** — `seq` increases monotonically over the whole run,
//!   so events arrive at a bucket in ascending-`seq` order and FIFO draining
//!   yields exactly the secondary order.
//! * **Slot aliasing is safe** — with `W = max_delay + 1` slots, events
//!   pushed while tick `t` drains have times in `[t + 1, t + max_delay]`,
//!   which map to the `W - 1` slots *other than* `t`'s own (`t + max_delay ≡
//!   t - 1 (mod W)`). The earliest time that aliases back onto slot `t` is
//!   `t + W`, pushable only once the engine has advanced past `t` — by which
//!   point the slot's bucket has been swapped out empty.
//!
//! The widest wheel has [`MAX_WHEEL_TICKS`] slots; the network rejects a
//! scheduler whose delay bound does not fit it. The tests below check the
//! wheel against a `(time, seq)`-ordered binary heap over seeded traffic.
//!
//! Everything here is plain owned data — no hasher-ordered containers, no
//! floats, no interior mutability (lint rules R1/R3/R5 apply to this file) —
//! so a queue can be sharded per engine instance by the fleet runner.

use crate::engine::Scheduler;

/// Widest wheel the engine builds (ticks = `max_delay + 1`), so every delay
/// bound must stay below it.
pub(crate) const MAX_WHEEL_TICKS: u64 = 4096;

/// One scheduled delivery, queue-side. Non-generic on purpose: the payload
/// lives in the run's [`crate::arena::PayloadArena`] and travels as a `u32`
/// handle, which is what lets the queue (and its grown bucket capacities) be
/// pooled in the network's `EngineScratch` across runs of *different*
/// protocols.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRec {
    /// Global send order; each bucket holds its events in ascending `seq`.
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

/// The engine's delivery queue: `max_delay + 1` circular tick buckets. Lives
/// in the network's `EngineScratch` between runs so bucket capacities are
/// paid once per network, not per run.
#[derive(Debug, Default)]
pub(crate) struct DeliveryQueue {
    buckets: Vec<Vec<EventRec>>,
    now: u64,
    pending: usize,
}

impl DeliveryQueue {
    fn new(slots: usize) -> Self {
        let mut buckets = Vec::with_capacity(slots);
        buckets.resize_with(slots, Vec::new);
        DeliveryQueue { buckets, now: 0, pending: 0 }
    }

    /// Shapes the wheel for a run under `scheduler`: a new wheel when the
    /// delay bound changed, otherwise the existing one rewound (the steady
    /// state of every replay: same scheduler run after run ⇒ zero allocation
    /// here).
    pub(crate) fn prepare(&mut self, scheduler: Scheduler) {
        let slots = scheduler.max_delay_bound() + 1;
        debug_assert!(slots <= MAX_WHEEL_TICKS, "the network checks the delay bound");
        if self.buckets.len() as u64 == slots {
            debug_assert!(self.pending == 0, "queues are drained between runs");
            self.now = 0;
        } else {
            *self = DeliveryQueue::new(slots as usize);
        }
    }

    /// Schedules `rec` for delivery at `time` (strictly in the future).
    pub(crate) fn push(&mut self, time: u64, rec: EventRec) {
        let w = self.buckets.len() as u64;
        debug_assert!(time > self.now, "delays are >= 1");
        debug_assert!(time - self.now < w, "delay fits the wheel");
        let bucket = &mut self.buckets[(time % w) as usize];
        debug_assert!(
            bucket.last().is_none_or(|last| last.seq < rec.seq),
            "each bucket fills in send order"
        );
        bucket.push(rec);
        self.pending += 1;
    }

    /// Swaps the next non-empty tick's bucket into `buf` (cleared first) and
    /// returns its time, or `None` when the wheel is empty. The swap donates
    /// `buf`'s grown capacity back to the slot, so bucket storage ping-pongs
    /// between the wheel and the engine's tick buffer without reallocating.
    pub(crate) fn take_tick(&mut self, buf: &mut Vec<EventRec>) -> Option<u64> {
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

    /// True if no deliveries are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Drops all pending deliveries (error-path cleanup; their payloads die
    /// with the run's arena).
    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.now = 0;
        self.pending = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn rec(seq: u64) -> EventRec {
        EventRec { seq, bits: 1, from: 0, to: 0, payload: 0 }
    }

    fn wheel(max_delay: u64) -> DeliveryQueue {
        let mut queue = DeliveryQueue::default();
        queue.prepare(Scheduler::RandomAsync { max_delay });
        queue
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

    /// Messages one sweep case sends at most.
    const SENDS: u64 = 2000;

    /// The wheel and the reference `(time, seq)` min-heap, fed the same
    /// sends.
    struct Twin {
        wheel: DeliveryQueue,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
        max_delay: u64,
        rng: StdRng,
    }

    impl Twin {
        /// Sends `count` messages at `now`, each with a delay drawn from
        /// `[1, max_delay]`, until the case has sent [`SENDS`].
        fn send(&mut self, now: u64, count: u64) {
            for _ in 0..count.min(SENDS - self.seq) {
                self.seq += 1;
                let time = now + self.rng.gen_range(1..=self.max_delay);
                self.wheel.push(time, rec(self.seq));
                self.heap.push(Reverse((time, self.seq)));
            }
        }

        /// Pops the heap's earliest tick: its events as `(time, seq)`.
        fn heap_tick(&mut self) -> Vec<(u64, u64)> {
            let mut tick: Vec<(u64, u64)> = Vec::new();
            while let Some(&Reverse(next)) = self.heap.peek() {
                if tick.first().is_some_and(|&(time, _)| time != next.0) {
                    break;
                }
                tick.push(next);
                self.heap.pop();
            }
            tick
        }
    }

    /// Drives the wheel as the engine does — 1–4 sends at time 0, then 0–3
    /// sends per delivery of each drained tick — next to the reference heap,
    /// and asserts that every tick drains exactly the heap's earliest tick,
    /// in its order. 16 seeds for each delay bound, up to the widest wheel.
    #[test]
    fn wheel_matches_heap_under_interleaved_pushes() {
        for max_delay in [1u64, 2, 8, 64, MAX_WHEEL_TICKS - 1] {
            let mut sent = 0;
            for seed in 0..16u64 {
                let mut twin = Twin {
                    wheel: wheel(max_delay),
                    heap: BinaryHeap::new(),
                    seq: 0,
                    max_delay,
                    rng: StdRng::seed_from_u64(seed),
                };
                let initial = twin.rng.gen_range(1..=4);
                twin.send(0, initial);
                let mut buf = Vec::new();
                while let Some(now) = twin.wheel.take_tick(&mut buf) {
                    let drained: Vec<(u64, u64)> = buf.iter().map(|r| (now, r.seq)).collect();
                    assert_eq!(drained, twin.heap_tick(), "max_delay {max_delay}, seed {seed}");
                    for _ in 0..buf.len() {
                        let count = twin.rng.gen_range(0..=3);
                        twin.send(now, count);
                    }
                }
                assert!(twin.heap.is_empty(), "max_delay {max_delay}, seed {seed}");
                sent += twin.seq;
            }
            assert!(sent > 8 * SENDS, "most cases reach the send cap, max_delay {max_delay}");
        }
    }

    #[test]
    fn within_tick_order_is_fifo_by_seq() {
        let mut wheel = wheel(4);
        for seq in 1..=6u64 {
            wheel.push(3, rec(seq));
        }
        assert_eq!(drain_order(&mut wheel), (1..=6).map(|s| (3, s)).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_ticks_are_skipped() {
        let mut wheel = wheel(8);
        wheel.push(7, rec(1));
        let mut buf = Vec::new();
        assert_eq!(wheel.take_tick(&mut buf), Some(7));
        assert_eq!(buf.len(), 1);
        assert_eq!(wheel.take_tick(&mut buf), None);
    }

    #[test]
    fn prepare_reuses_matching_shapes_and_reshapes_otherwise() {
        let mut q = DeliveryQueue::default();
        q.prepare(Scheduler::Synchronous);
        assert_eq!(q.buckets.len(), 2);
        let storage = q.buckets.as_ptr();
        q.push(1, rec(1));
        assert_eq!(q.take_tick(&mut Vec::new()), Some(1));
        q.prepare(Scheduler::Synchronous);
        assert_eq!((q.buckets.as_ptr(), q.now), (storage, 0), "same shape: rewound in place");
        q.prepare(Scheduler::RandomAsync { max_delay: 8 });
        assert_eq!(q.buckets.len(), 9);
        q.prepare(Scheduler::RandomAsync { max_delay: MAX_WHEEL_TICKS - 1 });
        assert_eq!(q.buckets.len() as u64, MAX_WHEEL_TICKS);
    }

    #[test]
    fn clear_resets_the_wheel() {
        let mut q = wheel(3);
        q.push(2, rec(1));
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        let mut buf = Vec::new();
        assert_eq!(q.take_tick(&mut buf), None);
    }
}
