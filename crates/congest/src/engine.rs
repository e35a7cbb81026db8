//! The event-driven simulation engine.
//!
//! One engine covers both timing models of the paper:
//!
//! * [`Scheduler::Synchronous`] delivers every message exactly one time unit
//!   after it was sent. Because all initiators are started at time 0, the
//!   global time is the round number — this is the synchronous CONGEST model
//!   of the construction theorems.
//! * [`Scheduler::RandomAsync`] delays each message independently and
//!   uniformly in `[1, max_delay]`. Messages are eventually delivered and a
//!   node acts only when a message arrives — the asynchronous model of the
//!   repair theorems.
//!
//! Protocols are written once, as per-node state machines implementing
//! [`Protocol`], and run unchanged under either scheduler. The engine charges
//! every message to the network's [`crate::CostTracker`] using its semantic
//! [`BitSized`] size and reports the makespan.
//!
//! # The hot loop
//!
//! Deliveries are driven by an O(1) calendar queue, the crate's only
//! delivery queue: both schedulers bound delays by a small integer, so a
//! ring of `max_delay + 1` tick buckets holds every message in flight and
//! drains them in exact `(time, seq)` order. Message payloads never move
//! through the queue: they are interned in the run's `PayloadArena` at
//! send time and travel as `u32` handles, and the queue, tick buffer,
//! staging buffer and program-slot table are pooled in the network's
//! `EngineScratch` across runs — steady-state delivery performs **zero
//! heap allocation per message** (pinned by `tests/alloc_guard.rs`).
//! Same-tick deliveries to the same node are batched into one program step
//! (one program/view lookup amortized across the batch) while `on_message`
//! still fires per message in exact `(time, seq)` order, so protocol
//! semantics, RNG draw order, and costs are untouched.
//!
//! # Lazy instantiation
//!
//! A run is seeded with an explicit set of *initiators* (the nodes that know
//! to start — the root of a broadcast-and-echo, every node for a leader
//! election). Program state and KT1 views are materialised only for nodes
//! that are actually activated, so the cost of simulating an operation on a
//! small fragment is proportional to the fragment (plus its incident edges),
//! not to the whole network. This matters: `Build MST` runs thousands of
//! broadcast-and-echoes on fragments of all sizes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use kkt_graphs::NodeId;

use crate::arena::PayloadArena;
use crate::error::CongestError;
use crate::message::BitSized;
use crate::model::{Network, NetworkConfig, NodeView, ViewCache};
use crate::queue::{DeliveryQueue, EventRec};

/// Message-delivery timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheduler {
    /// Every message takes exactly one time unit: lock-step rounds.
    Synchronous,
    /// Every message independently takes a uniform delay in `[1, max_delay]`.
    RandomAsync {
        /// Maximum per-message delay (≥ 1; 0 counts as 1). At most 4095: the
        /// delivery queue holds delays below 4096, and a [`Network`] given a
        /// larger one panics.
        max_delay: u64,
    },
}

impl Scheduler {
    fn delay<R: Rng>(&self, rng: &mut R) -> u64 {
        match *self {
            Scheduler::Synchronous => 1,
            Scheduler::RandomAsync { max_delay } => rng.gen_range(1..=max_delay.max(1)),
        }
    }

    /// The largest delay [`Scheduler::delay`] can return — the calendar
    /// queue holds `max_delay_bound() + 1` ticks.
    pub(crate) fn max_delay_bound(&self) -> u64 {
        match *self {
            Scheduler::Synchronous => 1,
            Scheduler::RandomAsync { max_delay } => max_delay.max(1),
        }
    }
}

/// A staged (sent but not yet validated/scheduled) message: destination,
/// arena handle of the payload, and its semantic size. Non-generic so the
/// staging buffer can be pooled in [`EngineScratch`] across runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedMsg {
    to: u32,
    payload: u32,
    bits: u64,
}

/// Buffer of messages a node emits during one activation. The engine drains
/// it after every activation; the payload is interned in the run's arena at
/// [`Outbox::send`] time and the staging vector itself is pooled across runs,
/// so sending allocates nothing once the run's high-water marks are reached.
#[derive(Debug)]
pub struct Outbox<M> {
    staged: Vec<StagedMsg>,
    arena: PayloadArena<M>,
}

impl<M: BitSized> Outbox<M> {
    /// Queues a message to the neighbour `to`. The engine validates that `to`
    /// really is adjacent to the sending node.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let bits = msg.bit_size() as u64;
        let payload = self.arena.insert(msg);
        self.staged.push(StagedMsg { to: to as u32, payload, bits });
    }
}

/// A per-node state machine run by the engine.
///
/// One instance of the implementing type is created (lazily) per activated
/// node; the engine calls [`Protocol::on_start`] once for every initiator at
/// time 0, then [`Protocol::on_message`] for each delivered message. The run
/// ends when no messages remain in flight.
pub trait Protocol {
    /// The message type exchanged by this protocol.
    type Msg: Clone + BitSized;
    /// The value the protocol computes (usually meaningful only at an
    /// initiator or leader node).
    type Output;

    /// Called once when the simulation starts, for initiator nodes only.
    fn on_start(&mut self, view: &NodeView, out: &mut Outbox<Self::Msg>);

    /// Called when a message from neighbour `from` is delivered.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        view: &NodeView,
        out: &mut Outbox<Self::Msg>,
    );

    /// The output this node can report after quiescence, if any.
    fn output(&self) -> Option<Self::Output> {
        None
    }
}

/// Statistics of a single engine run (also folded into the network's
/// cumulative cost tracker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Messages delivered.
    pub messages: u64,
    /// Bits delivered.
    pub bits: u64,
    /// Time of the last delivery (rounds under the synchronous scheduler).
    pub makespan: u64,
}

/// The per-node program states touched by a run.
///
/// Index-addressed replacement for the old `HashMap<NodeId, P>` routing
/// state. During the run the engine routes through the pooled `u32` slot
/// table in `EngineScratch` (two array indexations per delivery, no hash,
/// no per-run `memset` — the table is repaired O(touched) at run end); the
/// returned map carries the activation-ordered entries plus a node-ordered
/// index, so [`ProgramMap::get`] stays O(log touched) without borrowing
/// engine state. Program state (and the cached KT1 view the engine
/// keeps alongside) is still materialised only for nodes that were actually
/// activated — simulating an operation on a small fragment stays
/// proportional to the fragment.
#[derive(Debug)]
pub struct ProgramMap<P> {
    entries: Vec<(NodeId, P)>,
    /// Entry indices in ascending node order.
    by_node: Vec<u32>,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// The node-ordered index of a run's entries: their entry indices in
/// ascending node order, read through the slot table. Must run before
/// [`EngineScratch::end_run`] clears the table.
///
/// A run that touched `t` of the table's `n` nodes gets the cheaper of two
/// ways to the same `Vec` (capacity `t`): when `t·⌈lg t⌉ ≥ n` (a wave over a
/// whole tree), one O(n) pass over the table in node order; otherwise (the
/// many small fragment runs of a build) the touched nodes sorted as compact
/// `u32`s, O(t log t), then mapped through the table.
fn index_by_node<P>(entries: &[(NodeId, P)], slots: &[u32]) -> Vec<u32> {
    let t = entries.len();
    if t * t.next_power_of_two().trailing_zeros() as usize >= slots.len() {
        let mut by_node = Vec::with_capacity(t);
        by_node.extend(slots.iter().copied().filter(|&slot| slot != EMPTY_SLOT));
        return by_node;
    }
    let mut by_node: Vec<u32> = entries.iter().map(|&(x, _)| x as u32).collect();
    by_node.sort_unstable();
    for handle in &mut by_node {
        *handle = slots[*handle as usize];
    }
    by_node
}

impl<P> ProgramMap<P> {
    fn index_of(&self, node: NodeId) -> Option<usize> {
        self.by_node
            .binary_search_by_key(&node, |&i| self.entries[i as usize].0)
            .ok()
            .map(|pos| self.by_node[pos] as usize)
    }

    /// The program state of `node`, if it was activated during the run.
    pub fn get(&self, node: NodeId) -> Option<&P> {
        self.index_of(node).map(|i| &self.entries[i].1)
    }

    /// Mutable access to the program state of `node`, if it was activated.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut P> {
        self.index_of(node).map(|i| &mut self.entries[i].1)
    }

    /// Number of nodes that were activated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no node was ever activated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The activated nodes' program states, in activation order.
    pub fn values(&self) -> impl Iterator<Item = &P> {
        self.entries.iter().map(|(_, p)| p)
    }

    /// `(node, program)` pairs in activation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.entries.iter().map(|(x, p)| (*x, p))
    }
}

/// Engine buffers pooled on the [`Network`] across runs (taken/restored
/// around each run like the view cache): the delivery queue, the tick drain
/// buffer, the outbox staging buffer, and the program-slot routing table.
/// Everything non-generic lives here; only the run's payload arena and
/// program entries (generic in the protocol) are per-run.
///
/// Invariants between runs: the queue is drained, the buffers are empty, and
/// every slot-table entry is `EMPTY_SLOT` (repaired O(touched) at run end,
/// so a small-fragment run never pays O(n) cleanup).
#[derive(Debug, Default)]
pub(crate) struct EngineScratch {
    queue: DeliveryQueue,
    tick: Vec<EventRec>,
    staged: Vec<StagedMsg>,
    slots: Vec<u32>,
}

impl EngineScratch {
    fn begin_run(&mut self, n: usize, config: &NetworkConfig) {
        if self.slots.len() < n {
            self.slots.resize(n, EMPTY_SLOT);
        }
        self.queue.prepare(config.scheduler);
    }

    fn end_run(&mut self, touched: impl Iterator<Item = NodeId>) {
        for x in touched {
            self.slots[x] = EMPTY_SLOT;
        }
        self.tick.clear();
        if !self.queue.is_empty() {
            // Error runs abandon in-flight events; their payloads die with
            // the run's arena.
            self.queue.clear();
        }
    }
}

/// The simulation engine. Stateless; all state lives in the [`Network`] and
/// the protocol instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

/// Routes `node` to its program index, materialising the program on first
/// touch.
fn touch<P>(
    slots: &mut [u32],
    entries: &mut Vec<(NodeId, P)>,
    make: &mut impl FnMut(NodeId) -> P,
    node: NodeId,
) -> usize {
    let slot = slots[node];
    if slot != EMPTY_SLOT {
        return slot as usize;
    }
    let idx = entries.len();
    slots[node] = idx as u32;
    entries.push((node, make(node)));
    idx
}

/// Validates, delays and schedules everything the activation just staged.
/// Exact staged order: neighbour check, then bandwidth, then one RNG draw
/// per message — the observable error precedence and delay stream.
fn drain_staged<M>(
    out: &mut Outbox<M>,
    view: &NodeView,
    config: &NetworkConfig,
    queue: &mut DeliveryQueue,
    delay_rng: &mut StdRng,
    seq: &mut u64,
    now: u64,
) -> Result<(), CongestError> {
    for staged in out.staged.drain(..) {
        let to = staged.to as NodeId;
        if !view.has_neighbor(to) {
            return Err(CongestError::NotANeighbor { from: view.node, to });
        }
        if let Some(limit) = config.bandwidth_limit {
            if staged.bits as usize > limit {
                return Err(CongestError::BandwidthExceeded { bits: staged.bits as usize, limit });
            }
        }
        let delay = config.scheduler.delay(delay_rng);
        *seq += 1;
        queue.push(
            now + delay,
            EventRec {
                seq: *seq,
                bits: staged.bits,
                from: view.node as u32,
                to: staged.to,
                payload: staged.payload,
            },
        );
    }
    Ok(())
}

/// The run body: start the initiators, then drain the queue tick by tick,
/// batching same-tick deliveries to the same node under one program/view
/// lookup. Split out of [`Engine::run_session`] so the setup/cleanup there
/// runs on the error paths too.
#[allow(clippy::too_many_arguments)]
fn run_core<P: Protocol>(
    net: &mut Network,
    config: &NetworkConfig,
    views: &mut ViewCache,
    scratch: &mut EngineScratch,
    entries: &mut Vec<(NodeId, P)>,
    out: &mut Outbox<P::Msg>,
    delay_rng: &mut StdRng,
    stats: &mut RunStats,
    initiators: &[NodeId],
    make: &mut impl FnMut(NodeId) -> P,
) -> Result<(), CongestError> {
    let n = net.node_count();
    let mut seq = 0u64;
    for &x in initiators {
        if x >= n {
            return Err(CongestError::InvalidNode(x));
        }
        let idx = touch(&mut scratch.slots, entries, make, x);
        let view = views.get_or_build(net, x);
        entries[idx].1.on_start(view, out);
        drain_staged(out, view, config, &mut scratch.queue, delay_rng, &mut seq, 0)?;
    }

    while let Some(now) = scratch.queue.take_tick(&mut scratch.tick) {
        let mut i = 0;
        while i < scratch.tick.len() {
            // One program/view lookup for the whole run of same-node
            // deliveries within this tick; `on_message` still fires per
            // message in `(time, seq)` order.
            let node = scratch.tick[i].to as NodeId;
            let idx = touch(&mut scratch.slots, entries, make, node);
            let view = views.get_or_build(net, node);
            while i < scratch.tick.len() && scratch.tick[i].to as NodeId == node {
                let rec = scratch.tick[i];
                i += 1;
                if stats.messages == config.event_limit {
                    return Err(CongestError::EventLimitExceeded(config.event_limit));
                }
                stats.messages += 1;
                let bits = rec.bits;
                stats.bits += bits;
                stats.makespan = stats.makespan.max(now);
                net.cost_mut().record_message(bits);
                let msg = out.arena.take(rec.payload);
                entries[idx].1.on_message(rec.from as NodeId, msg, view, out);
                drain_staged(out, view, config, &mut scratch.queue, delay_rng, &mut seq, now)?;
            }
        }
    }

    net.cost_mut().record_time(stats.makespan);
    Ok(())
}

impl Engine {
    /// Runs a protocol until quiescence.
    ///
    /// `initiators` are the nodes whose [`Protocol::on_start`] fires at time 0
    /// (all other nodes are woken only by incoming messages); `make` builds
    /// the per-node program state lazily on first activation.
    ///
    /// # Errors
    ///
    /// Returns an error if a protocol sends to a non-neighbour, a message
    /// exceeds the configured bandwidth limit, an initiator index is out of
    /// range, or the event safety cap trips.
    pub fn run<P: Protocol>(
        net: &mut Network,
        initiators: &[NodeId],
        make: impl FnMut(NodeId) -> P,
    ) -> Result<(ProgramMap<P>, RunStats), CongestError> {
        // Detach the view cache and the engine scratch so activations can
        // borrow views while the run loop charges costs to the network;
        // restore both afterwards (on errors too — a failed run leaves the
        // cache intact and coherent, since runs never mutate topology or
        // markings, and the scratch is cleaned on every exit path).
        let mut views = net.take_view_cache();
        let mut scratch = net.take_engine_scratch();
        let result = Self::run_session(net, &mut views, &mut scratch, initiators, make);
        net.restore_engine_scratch(scratch);
        net.restore_view_cache(views);
        result
    }

    fn run_session<P: Protocol>(
        net: &mut Network,
        views: &mut ViewCache,
        scratch: &mut EngineScratch,
        initiators: &[NodeId],
        mut make: impl FnMut(NodeId) -> P,
    ) -> Result<(ProgramMap<P>, RunStats), CongestError> {
        let config = net.config();
        // Delivery delays come from a run-local RNG derived from the network
        // RNG so runs are reproducible and do not fight the borrow checker for
        // access to `net` mid-activation.
        let mut delay_rng = StdRng::seed_from_u64(net.rng_mut().gen());
        scratch.begin_run(net.node_count(), &config);
        let mut out: Outbox<P::Msg> =
            Outbox { staged: std::mem::take(&mut scratch.staged), arena: PayloadArena::new() };
        let mut entries: Vec<(NodeId, P)> = Vec::new();
        let mut stats = RunStats::default();

        let core = run_core(
            net,
            &config,
            views,
            scratch,
            &mut entries,
            &mut out,
            &mut delay_rng,
            &mut stats,
            initiators,
            &mut make,
        );

        // Hand the staging buffer's capacity back to the pool, index a
        // successful run's programs while the slot table still routes them,
        // restore the table's invariant, then surface the run's outcome.
        out.staged.clear();
        scratch.staged = std::mem::take(&mut out.staged);
        let by_node = core.map(|()| index_by_node(&entries, &scratch.slots));
        scratch.end_run(entries.iter().map(|&(x, _)| x));
        by_node.map(|by_node| (ProgramMap { entries, by_node }, stats))
    }

    /// Convenience wrapper for protocols in which *every* node is an
    /// initiator (leader election, flooding from all sources, gossiping).
    pub fn run_all<P: Protocol>(
        net: &mut Network,
        make: impl FnMut(NodeId) -> P,
    ) -> Result<(ProgramMap<P>, RunStats), CongestError> {
        let everyone: Vec<NodeId> = (0..net.node_count()).collect();
        Self::run(net, &everyone, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkConfig;
    use kkt_graphs::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every node sends a token to each neighbour at start; tokens are counted
    /// on arrival and not forwarded. Exercises start-up, delivery and
    /// accounting: exactly 2m messages, makespan 1 under the synchronous
    /// scheduler.
    #[derive(Debug, Clone)]
    struct CountTokens {
        received: u64,
    }

    impl Protocol for CountTokens {
        type Msg = u8;
        type Output = u64;

        fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u8>) {
            for e in &view.incident {
                out.send(e.neighbor, 1);
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: u8, _view: &NodeView, _out: &mut Outbox<u8>) {
            self.received += msg as u64;
        }

        fn output(&self) -> Option<u64> {
            Some(self.received)
        }
    }

    /// A token relayed a fixed number of hops, to test that replies are
    /// possible and the makespan grows with the number of hops.
    #[derive(Debug)]
    struct Relay {
        hops_left: u64,
    }

    impl Protocol for Relay {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u64>) {
            if view.node == 0 && self.hops_left > 0 {
                if let Some(e) = view.incident.first() {
                    out.send(e.neighbor, self.hops_left - 1);
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u64, view: &NodeView, out: &mut Outbox<u64>) {
            self.hops_left = msg;
            if msg > 0 {
                let next =
                    view.incident.iter().map(|e| e.neighbor).find(|&x| x != from).unwrap_or(from);
                out.send(next, msg - 1);
            }
        }
    }

    fn net(n: usize, p: f64, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(generators::connected_gnp(n, p, 10, &mut rng), NetworkConfig::default())
    }

    #[test]
    fn token_count_equals_twice_edges() {
        let mut network = net(30, 0.2, 1);
        let m = network.edge_count() as u64;
        let (programs, stats) =
            Engine::run_all(&mut network, |_| CountTokens { received: 0 }).unwrap();
        assert_eq!(stats.messages, 2 * m);
        assert_eq!(stats.makespan, 1, "all tokens arrive in round 1");
        let total: u64 = programs.values().map(|p| p.output().unwrap()).sum();
        assert_eq!(total, 2 * m);
        assert_eq!(network.cost().messages, 2 * m);
        assert_eq!(network.cost().time, 1);
    }

    #[test]
    fn relay_makespan_counts_hops_synchronously() {
        // A path of 6 nodes, token relayed 5 hops.
        let mut g = Graph::new(6);
        for i in 0..5 {
            g.add_edge(i, i + 1, 1);
        }
        let mut network = Network::new(g, NetworkConfig::synchronous(3));
        let (programs, stats) =
            Engine::run(&mut network, &[0], |_| Relay { hops_left: 5 }).unwrap();
        assert_eq!(stats.messages, 5);
        assert_eq!(stats.makespan, 5);
        // Only the nodes along the relay path were ever materialised.
        assert!(programs.len() <= 6);
    }

    #[test]
    fn only_touched_nodes_are_materialised() {
        let mut network = net(100, 0.05, 9);
        let (programs, _) = Engine::run(&mut network, &[0], |_| Relay { hops_left: 3 }).unwrap();
        assert!(
            programs.len() <= 5,
            "a 3-hop relay touches at most 4 nodes, got {}",
            programs.len()
        );
    }

    #[test]
    fn async_scheduler_still_delivers_everything() {
        let mut network = net(25, 0.15, 7);
        network.set_config(NetworkConfig::asynchronous(9, 10));
        let m = network.edge_count() as u64;
        let (_, stats) = Engine::run_all(&mut network, |_| CountTokens { received: 0 }).unwrap();
        assert_eq!(stats.messages, 2 * m);
        assert!(stats.makespan >= 1 && stats.makespan <= 10);
    }

    #[test]
    fn async_runs_are_reproducible_per_seed() {
        let run = |seed: u64| {
            let mut network = net(20, 0.2, 5);
            network.set_config(NetworkConfig::asynchronous(seed, 8));
            let (_, stats) =
                Engine::run_all(&mut network, |_| CountTokens { received: 0 }).unwrap();
            stats
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn sending_to_non_neighbor_errors() {
        #[derive(Debug)]
        struct Bad;
        impl Protocol for Bad {
            type Msg = u8;
            type Output = ();
            fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u8>) {
                let non_neighbor =
                    (0..view.n).find(|&x| x != view.node && view.edge_to(x).is_none());
                if let Some(x) = non_neighbor {
                    out.send(x, 1);
                }
            }
            fn on_message(&mut self, _: NodeId, _: u8, _: &NodeView, _: &mut Outbox<u8>) {}
        }
        // A path graph guarantees node 0 has a non-neighbour.
        let mut g = Graph::new(4);
        for i in 0..3 {
            g.add_edge(i, i + 1, 1);
        }
        let mut network = Network::new(g, NetworkConfig::default());
        let err = Engine::run(&mut network, &[0], |_| Bad).unwrap_err();
        assert!(matches!(err, CongestError::NotANeighbor { .. }));
    }

    #[test]
    fn bandwidth_limit_is_enforced() {
        #[derive(Debug)]
        struct Wide;
        impl Protocol for Wide {
            type Msg = u64;
            type Output = ();
            fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u64>) {
                if let Some(e) = view.incident.first() {
                    out.send(e.neighbor, u64::MAX);
                }
            }
            fn on_message(&mut self, _: NodeId, _: u64, _: &NodeView, _: &mut Outbox<u64>) {}
        }
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1);
        let mut network = Network::new(
            g,
            NetworkConfig { bandwidth_limit: Some(16), ..NetworkConfig::default() },
        );
        let err = Engine::run(&mut network, &[0], |_| Wide).unwrap_err();
        assert!(matches!(err, CongestError::BandwidthExceeded { bits: 64, limit: 16 }));
    }

    #[test]
    fn event_limit_catches_livelock() {
        // Two nodes bouncing a token forever.
        #[derive(Debug)]
        struct Forever;
        impl Protocol for Forever {
            type Msg = u8;
            type Output = ();
            fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u8>) {
                if view.node == 0 {
                    out.send(view.incident[0].neighbor, 1);
                }
            }
            fn on_message(&mut self, from: NodeId, msg: u8, _: &NodeView, out: &mut Outbox<u8>) {
                out.send(from, msg);
            }
        }
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1);
        let mut network =
            Network::new(g, NetworkConfig { event_limit: 100, ..NetworkConfig::default() });
        let err = Engine::run(&mut network, &[0], |_| Forever).unwrap_err();
        assert!(matches!(err, CongestError::EventLimitExceeded(100)));
    }

    #[test]
    fn event_limit_admits_exactly_its_count() {
        // A relay of `hops` hops delivers exactly `hops` messages.
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1);
        let mut network =
            Network::new(g, NetworkConfig { event_limit: 10, ..NetworkConfig::default() });
        let (_, stats) = Engine::run(&mut network, &[0], |_| Relay { hops_left: 10 }).unwrap();
        assert_eq!(stats.messages, 10);
        let err = Engine::run(&mut network, &[0], |_| Relay { hops_left: 11 }).unwrap_err();
        assert!(matches!(err, CongestError::EventLimitExceeded(10)));
    }

    #[test]
    fn out_of_range_initiator_is_rejected() {
        let mut network = net(5, 0.5, 2);
        let err = Engine::run(&mut network, &[77], |_| CountTokens { received: 0 }).unwrap_err();
        assert!(matches!(err, CongestError::InvalidNode(77)));
    }

    #[test]
    fn runs_after_an_error_run_are_clean() {
        // An error run abandons in-flight events in the pooled scratch; the
        // next run on the same network must start from a drained queue and a
        // pristine slot table.
        #[derive(Debug)]
        struct FloodThenDie;
        impl Protocol for FloodThenDie {
            type Msg = u8;
            type Output = ();
            fn on_start(&mut self, view: &NodeView, out: &mut Outbox<u8>) {
                for e in &view.incident {
                    out.send(e.neighbor, 1);
                }
            }
            fn on_message(&mut self, from: NodeId, _: u8, _: &NodeView, out: &mut Outbox<u8>) {
                out.send(from, 2);
            }
        }
        let mut network = net(12, 0.4, 4);
        // Trip the event limit mid-flood, leaving events in flight.
        let mut tight = network.config();
        tight.event_limit = 5;
        network.set_config(tight);
        let err = Engine::run_all(&mut network, |_| FloodThenDie).unwrap_err();
        assert!(matches!(err, CongestError::EventLimitExceeded(5)));
        // Back to a normal config: the next run must see none of the
        // abandoned events and count exactly its own messages.
        let mut normal = network.config();
        normal.event_limit = NetworkConfig::default().event_limit;
        network.set_config(normal);
        let m = network.edge_count() as u64;
        let (_, stats) = Engine::run_all(&mut network, |_| CountTokens { received: 0 }).unwrap();
        assert_eq!(stats.messages, 2 * m);
        assert_eq!(stats.makespan, 1);
    }

    #[test]
    fn program_map_lookup_matches_iteration() {
        // A run over every node: t = n = 40 and t·⌈lg t⌉ ≥ n, so
        // `index_by_node` reads the slot table in node order.
        let mut network = net(40, 0.15, 6);
        let (programs, _) = Engine::run_all(&mut network, |_| CountTokens { received: 0 }).unwrap();
        assert_eq!(programs.len(), 40);
        for (node, p) in programs.iter() {
            assert_eq!(
                programs.get(node).map(|q| q.received),
                Some(p.received),
                "sorted-index get agrees with activation-order iteration"
            );
        }
        assert!(programs.get(usize::MAX - 1).is_none());

        // A partial run: a relay from node 0 touches a handful of nodes, in
        // an activation order that is not node order. At most 7 nodes, so
        // t·⌈lg t⌉ ≤ 21 < n and `index_by_node` sorts them. The index answers
        // for exactly those nodes.
        let (programs, _) = Engine::run(&mut network, &[0], |_| Relay { hops_left: 6 }).unwrap();
        let touched: Vec<NodeId> = programs.iter().map(|(x, _)| x).collect();
        assert!(touched.len() > 1 && touched.len() < 40, "a partial run, got {touched:?}");
        assert!(!touched.is_sorted(), "activation order differs from node order");
        for (node, p) in programs.iter() {
            assert_eq!(programs.get(node).map(|q| q.hops_left), Some(p.hops_left));
        }
        for x in (0..40).filter(|x| !touched.contains(x)) {
            assert!(programs.get(x).is_none(), "untouched node {x} has no program");
        }
    }
}
