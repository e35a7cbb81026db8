//! Slab arena for in-flight message payloads.
//!
//! The delivery engine never moves owned message values through its event
//! queue: a staged payload is interned here at [`crate::engine::Outbox::send`]
//! time and travels as a `u32` handle (`PayloadArena::insert`), then is
//! taken back out exactly once at delivery (`PayloadArena::take`). Freed
//! slots go onto a free list and are reused LIFO, so once the in-flight
//! high-water mark of a run is reached the arena performs **zero heap
//! allocation per message** — the engine's steady-state delivery loop only
//! ever touches already-owned storage (the allocation-guard test in
//! `crates/congest/tests/alloc_guard.rs` pins this down).
//!
//! Handles are plain dense indices; their numeric values are simulation
//! bookkeeping and never reach protocol code, costs, or fingerprints.

/// A slab of in-flight payloads with free-list slot reuse.
///
/// One arena lives for the duration of one engine run (it is generic in the
/// protocol's message type, so unlike the [`crate::queue::DeliveryQueue`] it
/// cannot be pooled across runs of different protocols); within the run every
/// delivered message recycles its slot.
#[derive(Debug)]
pub(crate) struct PayloadArena<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> PayloadArena<M> {
    /// An empty arena. Allocates nothing until the first insert.
    pub(crate) fn new() -> Self {
        PayloadArena { slots: Vec::new(), free: Vec::new() }
    }

    /// Interns `msg`, returning its handle. Reuses a freed slot if one is
    /// available, otherwise grows the slab.
    pub(crate) fn insert(&mut self, msg: M) -> u32 {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none(), "free-listed slot is vacant");
                self.slots[i as usize] = Some(msg);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(msg));
                i
            }
        }
    }

    /// Removes and returns the payload behind `handle`, freeing its slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle was never issued or was already taken — both are
    /// engine bugs, not protocol-reachable states.
    pub(crate) fn take(&mut self, handle: u32) -> M {
        let msg = self.slots[handle as usize].take().expect("payload handle is live");
        self.free.push(handle);
        msg
    }

    /// Number of payloads currently in flight.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Capacity high-water mark: total slots ever allocated.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut arena: PayloadArena<u64> = PayloadArena::new();
        let a = arena.insert(10);
        let b = arena.insert(20);
        assert_ne!(a, b);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(a), 10);
        assert_eq!(arena.take(b), 20);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut arena: PayloadArena<u32> = PayloadArena::new();
        let a = arena.insert(1);
        arena.take(a);
        let b = arena.insert(2);
        assert_eq!(a, b, "LIFO free-list reuses the slot");
        assert_eq!(arena.high_water(), 1, "no slab growth past the high-water mark");
        // A bounded in-flight pattern never grows the slab again.
        arena.take(b);
        for i in 0..1000u32 {
            let h1 = arena.insert(i);
            let h2 = arena.insert(i + 1);
            arena.take(h1);
            arena.take(h2);
        }
        assert_eq!(arena.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "payload handle is live")]
    fn double_take_panics() {
        let mut arena: PayloadArena<u8> = PayloadArena::new();
        let h = arena.insert(3);
        arena.take(h);
        arena.take(h);
    }
}
