//! The global communication graph.
//!
//! [`Graph`] is the simulator's ground-truth topology. Nodes are dense indices
//! `0..n`; each carries a distributed *identifier* drawn from a (possibly much
//! larger) ID space, matching the KT1 model where IDs live in `{1, .., n^c}`.
//! The simulator (`kkt_congest::Network::new`) accepts IDs below `2^32`.
//!
//! # Data plane
//!
//! The structure is tuned for the replay hot path, where every simulated
//! message delivery reads adjacency and every churn event mutates it:
//!
//! * Adjacency is a **CSR-style slab arena** (`AdjArena`): one contiguous
//!   entry buffer, per-node slabs in power-of-two capacities, and a free list
//!   that recycles outgrown slabs, so sustained churn reuses memory instead
//!   of reallocating per node. Entries carry `(neighbor, edge)` pairs, so an
//!   adjacency walk never touches the edge table just to find the far
//!   endpoint. Within a slab, entries keep **insertion order** — the same
//!   order the old `Vec<Vec<EdgeId>>` exposed — because view iteration order
//!   feeds the async scheduler's delay RNG and must stay bit-stable.
//! * Presence is a **hashed pair table** (`PairTable`): open addressing
//!   over `(min, max) → EdgeId` with a fixed multiplicative hash, making
//!   `edge_between`/duplicate checks O(1) amortized and fully deterministic
//!   (no per-process hasher seeds).
//! * `node_with_id` resolves through a sorted ID index (IDs are fixed at
//!   construction) instead of a linear scan.
//! * The live-edge count is maintained incrementally, so [`Graph::edge_count`]
//!   is O(1), and [`Graph::cut_iter`]/[`Graph::live_edges`] stream without
//!   allocating.
//! * The largest live weight is maintained, not scanned: every mutation
//!   updates it together with the number of live edges carrying it, and the
//!   live edges are rescanned only when the last of those leaves or is
//!   lowered (so churn on a graph whose edges all weigh 1 never rescans).
//!   [`Graph::max_weight`], which every `FindMin` reads to size its retry
//!   budget, is O(1).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::edge::{EdgeId, EdgeNumber, UniqueWeight, Weight};

/// Dense index of a node in the graph (`0..n`).
///
/// The *distributed identifier* of a node (what neighbours learn in the KT1
/// model) is a separate value, see [`Graph::id_of`]. Keeping the two apart lets
/// the workloads use sparse, adversarial or exponentially-large ID spaces while
/// the simulator keeps O(1) indexing.
pub type NodeId = usize;

/// A single undirected edge of the communication graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Smaller endpoint (by dense index).
    pub u: NodeId,
    /// Larger endpoint (by dense index).
    pub v: NodeId,
    /// Raw (not necessarily distinct) weight in `{1, .., u_max}`. For
    /// unweighted problems this is `1` for every edge.
    pub weight: Weight,
}

impl Edge {
    /// The endpoint of the edge that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }

    /// True if `x` is one of the two endpoints.
    pub fn is_endpoint(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }
}

// ---------------------------------------------------------------------------
// CSR slab arena
// ---------------------------------------------------------------------------

/// One adjacency entry: the far endpoint and the edge handle, packed to 8
/// bytes so a slab walk stays within a cache line for typical degrees.
#[derive(Debug, Clone, Copy, Default)]
struct AdjEntry {
    neighbor: u32,
    edge: u32,
}

/// A node's slab: `cap` is always zero or a power of two ≥ `MIN_SLAB`.
#[derive(Debug, Clone, Copy, Default)]
struct Slab {
    offset: u32,
    len: u32,
    cap: u32,
}

const MIN_SLAB: u32 = 4;

/// The CSR-style adjacency arena: per-node slabs carved out of one entry
/// buffer, with outgrown slabs recycled through per-size free lists.
#[derive(Debug, Clone, Default)]
struct AdjArena {
    entries: Vec<AdjEntry>,
    slabs: Vec<Slab>,
    /// `free[k]` holds offsets of free slabs of capacity `1 << k`.
    free: Vec<Vec<u32>>,
}

impl AdjArena {
    fn new(n: usize) -> Self {
        AdjArena { entries: Vec::new(), slabs: vec![Slab::default(); n], free: Vec::new() }
    }

    fn entries_of(&self, x: NodeId) -> &[AdjEntry] {
        let s = self.slabs[x];
        &self.entries[s.offset as usize..(s.offset + s.len) as usize]
    }

    fn len_of(&self, x: NodeId) -> usize {
        self.slabs[x].len as usize
    }

    /// Acquires a slab of exactly `cap` (a power of two): recycled from the
    /// free list when possible, freshly carved from the buffer end otherwise.
    fn acquire(&mut self, cap: u32) -> u32 {
        let k = cap.trailing_zeros() as usize;
        if let Some(offset) = self.free.get_mut(k).and_then(Vec::pop) {
            return offset;
        }
        let offset = self.entries.len() as u32;
        self.entries.resize(self.entries.len() + cap as usize, AdjEntry::default());
        offset
    }

    fn release(&mut self, offset: u32, cap: u32) {
        if cap == 0 {
            return;
        }
        let k = cap.trailing_zeros() as usize;
        if self.free.len() <= k {
            self.free.resize_with(k + 1, Vec::new);
        }
        self.free[k].push(offset);
    }

    /// Appends an entry to `x`'s slab, growing (and relocating) it when full.
    fn push(&mut self, x: NodeId, entry: AdjEntry) {
        let slab = self.slabs[x];
        if slab.len == slab.cap {
            let new_cap = (slab.cap * 2).max(MIN_SLAB);
            let new_offset = self.acquire(new_cap);
            // `acquire` may have reallocated `entries`; copy within the
            // buffer via split indices to keep the borrow checker happy.
            for i in 0..slab.len {
                self.entries[(new_offset + i) as usize] = self.entries[(slab.offset + i) as usize];
            }
            self.release(slab.offset, slab.cap);
            self.slabs[x] = Slab { offset: new_offset, len: slab.len, cap: new_cap };
        }
        let s = self.slabs[x];
        self.entries[(s.offset + s.len) as usize] = entry;
        self.slabs[x].len += 1;
    }

    /// Removes the entry for `edge` from `x`'s slab, preserving the order of
    /// the remaining entries (the order contract of the adjacency lists).
    fn remove(&mut self, x: NodeId, edge: u32) {
        let s = self.slabs[x];
        let (offset, len) = (s.offset as usize, s.len as usize);
        let pos = self.entries[offset..offset + len]
            .iter()
            .position(|e| e.edge == edge)
            .expect("edge is present in its endpoint's adjacency");
        self.entries.copy_within(offset + pos + 1..offset + len, offset + pos);
        self.slabs[x].len -= 1;
    }
}

// ---------------------------------------------------------------------------
// Hashed pair table
// ---------------------------------------------------------------------------

/// Open-addressing map from a packed node pair `(min << 32) | max` to an
/// edge id. The hash is a fixed multiplicative mix (no per-process seeding),
/// so behaviour is deterministic across runs and builds. `EMPTY`/`TOMB` are
/// impossible keys: a real key always has `min < max`, so the high half is
/// strictly smaller than the low half.
#[derive(Debug, Clone)]
struct PairTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
    tombstones: usize,
}

const EMPTY_KEY: u64 = 0;
const TOMB_KEY: u64 = u64::MAX;

fn mix(key: u64) -> u64 {
    // splitmix64 finalizer: full-avalanche, deterministic.
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pack_pair(u: NodeId, v: NodeId) -> u64 {
    let (lo, hi) = (u.min(v) as u64, u.max(v) as u64);
    (lo << 32) | (hi + 1)
}

impl PairTable {
    fn new() -> Self {
        PairTable { keys: vec![EMPTY_KEY; 16], vals: vec![0; 16], len: 0, tombstones: 0 }
    }

    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = mix(key) as usize & mask;
        loop {
            match self.keys[i] {
                EMPTY_KEY => return None,
                k if k == key => return Some(self.vals[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn insert(&mut self, key: u64, val: u32) {
        if (self.len + self.tombstones + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = mix(key) as usize & mask;
        loop {
            match self.keys[i] {
                EMPTY_KEY | TOMB_KEY => {
                    if self.keys[i] == TOMB_KEY {
                        self.tombstones -= 1;
                    }
                    self.keys[i] = key;
                    self.vals[i] = val;
                    self.len += 1;
                    return;
                }
                k => {
                    debug_assert_ne!(k, key, "pair inserted twice");
                    i = (i + 1) & mask;
                }
            }
        }
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = mix(key) as usize & mask;
        loop {
            match self.keys[i] {
                EMPTY_KEY => return None,
                k if k == key => {
                    self.keys[i] = TOMB_KEY;
                    self.len -= 1;
                    self.tombstones += 1;
                    return Some(self.vals[i]);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; new_cap];
        self.tombstones = 0;
        self.len = 0;
        for (key, val) in old_keys.into_iter().zip(old_vals) {
            if key != EMPTY_KEY && key != TOMB_KEY {
                self.insert(key, val);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Maintained maximum weight
// ---------------------------------------------------------------------------

/// The largest raw weight over live edges and how many live edges carry it
/// (`count == 0` iff no edge is live).
#[derive(Debug, Clone, Copy, Default)]
struct LiveMax {
    weight: Weight,
    count: usize,
}

impl LiveMax {
    /// Accounts an edge of `weight` becoming live.
    fn insert(&mut self, weight: Weight) {
        if self.count == 0 || weight > self.weight {
            *self = LiveMax { weight, count: 1 };
        } else if weight == self.weight {
            self.count += 1;
        }
    }

    /// Accounts a live edge of `weight` leaving. Returns false when it was
    /// the last one carrying the maximum, which the owner must then rescan.
    #[must_use]
    fn remove(&mut self, weight: Weight) -> bool {
        if weight != self.weight {
            return true;
        }
        self.count -= 1;
        self.count > 0
    }
}

// ---------------------------------------------------------------------------
// The graph
// ---------------------------------------------------------------------------

/// An undirected weighted graph with stable edge identifiers.
///
/// The graph is simple (no parallel edges, no self-loops); attempts to insert a
/// duplicate or loop edge are rejected. Edges are never physically removed —
/// [`Graph::remove_edge`] tombstones them — so [`EdgeId`]s remain stable across
/// dynamic updates, which is what the repair algorithms key on.
#[derive(Debug, Clone)]
pub struct Graph {
    ids: Vec<u64>,
    edges: Vec<Edge>,
    alive: Vec<bool>,
    live_count: usize,
    max: LiveMax,
    adjacency: AdjArena,
    present: PairTable,
    /// `(id, node)` sorted by id, for O(log n) [`Graph::node_with_id`].
    id_index: Vec<(u64, u32)>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes whose distributed IDs are
    /// `1..=n` (the simplest valid KT1 ID assignment).
    pub fn new(n: usize) -> Self {
        Self::with_ids((1..=n as u64).collect())
    }

    /// Creates a graph whose node `i` carries the distributed identifier
    /// `ids[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are not pairwise distinct or if any is zero
    /// (the paper's ID space is `{1, .., n^c}`).
    pub fn with_ids(ids: Vec<u64>) -> Self {
        let mut seen = BTreeSet::new();
        for &id in &ids {
            assert!(id != 0, "node identifiers must be non-zero");
            assert!(seen.insert(id), "duplicate node identifier {id}");
        }
        assert!(ids.len() < u32::MAX as usize, "node count must fit the u32 data plane");
        let n = ids.len();
        let mut id_index: Vec<(u64, u32)> =
            ids.iter().enumerate().map(|(x, &id)| (id, x as u32)).collect();
        id_index.sort_unstable();
        Graph {
            ids,
            edges: Vec::new(),
            alive: Vec::new(),
            live_count: 0,
            max: LiveMax::default(),
            adjacency: AdjArena::new(n),
            present: PairTable::new(),
            id_index,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of *live* edges (tombstoned edges excluded). O(1).
    pub fn edge_count(&self) -> usize {
        self.live_count
    }

    /// Distributed identifier of node `x`.
    pub fn id_of(&self, x: NodeId) -> u64 {
        self.ids[x]
    }

    /// Dense index of the node with distributed identifier `id`, if any.
    pub fn node_with_id(&self, id: u64) -> Option<NodeId> {
        self.id_index
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|pos| self.id_index[pos].1 as usize)
    }

    /// Iterator over node indices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count()
    }

    /// Adds an undirected edge `{u, v}` with the given raw weight and returns
    /// its identifier, or `None` if the edge already exists or is a self-loop.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Option<EdgeId> {
        if u == v || u >= self.node_count() || v >= self.node_count() {
            return None;
        }
        let key = pack_pair(u, v);
        if self.present.get(key).is_some() {
            return None;
        }
        debug_assert!(self.edges.len() < u32::MAX as usize);
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { u: u.min(v), v: u.max(v), weight });
        self.alive.push(true);
        self.live_count += 1;
        self.max.insert(weight);
        self.adjacency.push(u, AdjEntry { neighbor: v as u32, edge: id.0 as u32 });
        self.adjacency.push(v, AdjEntry { neighbor: u as u32, edge: id.0 as u32 });
        self.present.insert(key, id.0 as u32);
        Some(id)
    }

    /// Tombstones the edge `{u, v}`; returns the removed edge's identifier.
    ///
    /// The identifier stays valid for [`Graph::edge`] lookups (so repair
    /// algorithms can still refer to the deleted edge) but the edge no longer
    /// appears in adjacency lists, [`Graph::live_edges`], or cut computations.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v || u >= self.node_count() || v >= self.node_count() {
            return None;
        }
        let raw = self.present.remove(pack_pair(u, v))?;
        self.alive[raw as usize] = false;
        self.live_count -= 1;
        self.forget_weight(self.edges[raw as usize].weight);
        self.adjacency.remove(u, raw);
        self.adjacency.remove(v, raw);
        Some(EdgeId(raw as usize))
    }

    /// Changes the raw weight of live edge `{u, v}`, returning the old weight.
    pub fn set_weight(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Option<Weight> {
        let id = self.edge_between(u, v)?;
        let old = std::mem::replace(&mut self.edges[id.0].weight, weight);
        // Count the new weight before withdrawing the old one: the other
        // order could rescan with the new weight already in place and then
        // count it twice.
        self.max.insert(weight);
        self.forget_weight(old);
        Some(old)
    }

    /// Withdraws a weight that is no longer live from the maintained
    /// maximum. The O(m) rescan runs only when the last live edge carrying
    /// the maximum left or was lowered.
    fn forget_weight(&mut self, weight: Weight) {
        if !self.max.remove(weight) {
            let mut max = LiveMax::default();
            for e in self.live_edges() {
                max.insert(self.edges[e.0].weight);
            }
            self.max = max;
        }
    }

    /// The edge record for `id`. Valid for tombstoned edges too.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Whether the edge is still part of the graph.
    pub fn is_live(&self, id: EdgeId) -> bool {
        self.alive[id.0]
    }

    /// Identifier of the live edge between `u` and `v`, if present. O(1).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v || u >= self.node_count() || v >= self.node_count() {
            return None;
        }
        self.present.get(pack_pair(u, v)).map(|raw| EdgeId(raw as usize))
    }

    /// Live edges incident to `x`, in insertion order. Allocation-free; every
    /// entry is live by construction (removal compacts the slab).
    pub fn incident(&self, x: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adjacency.entries_of(x).iter().map(|e| EdgeId(e.edge as usize))
    }

    /// Live `(edge, neighbor)` pairs incident to `x`, in insertion order —
    /// the far endpoint comes straight from the CSR entry, with no detour
    /// through the edge table (the per-view build path of `kkt-congest`).
    pub fn incident_with_neighbors(
        &self,
        x: NodeId,
    ) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.adjacency.entries_of(x).iter().map(|e| (EdgeId(e.edge as usize), e.neighbor as usize))
    }

    /// Degree of `x` counting live edges only. O(1).
    pub fn degree(&self, x: NodeId) -> usize {
        self.adjacency.len_of(x)
    }

    /// All live edges.
    pub fn live_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId).filter(move |&e| self.alive[e.0])
    }

    /// The KT1 "edge number" of an edge: the concatenation of its endpoints'
    /// distributed identifiers, smaller first (§2 "Definitions").
    pub fn edge_number(&self, id: EdgeId) -> EdgeNumber {
        let e = self.edge(id);
        EdgeNumber::from_ids(self.id_of(e.u), self.id_of(e.v))
    }

    /// The distinct weight of an edge: raw weight concatenated with the edge
    /// number (§2 "Definitions"), which makes all weights unique.
    pub fn unique_weight(&self, id: EdgeId) -> UniqueWeight {
        UniqueWeight::new(self.edge(id).weight, self.edge_number(id))
    }

    /// Maximum raw weight over live edges (1 if there are no edges). O(1):
    /// the maximum is maintained by every mutation, not scanned.
    pub fn max_weight(&self) -> Weight {
        if self.max.count == 0 {
            1
        } else {
            self.max.weight
        }
    }

    /// Maximum edge number over all live edges (that of IDs `1, 2` if there
    /// are no edges). An O(m) scan.
    pub fn max_edge_number(&self) -> EdgeNumber {
        self.live_edges().map(|e| self.edge_number(e)).max().unwrap_or(EdgeNumber::from_ids(1, 2))
    }

    /// Whether the graph (restricted to live edges) is connected.
    /// An empty graph and a single-node graph are connected.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(x) = stack.pop() {
            for (_, y) in self.incident_with_neighbors(x) {
                if !seen[y] {
                    seen[y] = true;
                    count += 1;
                    stack.push(y);
                }
            }
        }
        count == n
    }

    /// Number of connected components over live edges.
    pub fn component_count(&self) -> usize {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut comps = 0;
        for s in 0..n {
            if seen[s] {
                continue;
            }
            comps += 1;
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(x) = stack.pop() {
                for (_, y) in self.incident_with_neighbors(x) {
                    if !seen[y] {
                        seen[y] = true;
                        stack.push(y);
                    }
                }
            }
        }
        comps
    }

    /// Streaming form of [`Graph::cut`]: the live edges with exactly one
    /// endpoint in `side`, in ascending [`EdgeId`] order, without allocating.
    pub fn cut_iter<'a>(&'a self, side: &'a [bool]) -> impl Iterator<Item = EdgeId> + 'a {
        self.live_edges().filter(move |&e| {
            let edge = self.edge(e);
            side[edge.u] != side[edge.v]
        })
    }

    /// The set of live edges with exactly one endpoint in `side`
    /// (`Cut(T, V \ T)` in the paper's notation).
    pub fn cut(&self, side: &[bool]) -> Vec<EdgeId> {
        self.cut_iter(side).collect()
    }
}

// ---------------------------------------------------------------------------
// Serialization: the wire format carries only the logical state (ids, edge
// table, liveness); the CSR arena, pair table, ID index and maximum live
// weight are derived structures rebuilt on deserialization.
// ---------------------------------------------------------------------------

impl Serialize for Graph {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("ids".to_string(), self.ids.to_value()),
            ("edges".to_string(), self.edges.to_value()),
            ("alive".to_string(), self.alive.to_value()),
        ])
    }
}

impl Deserialize for Graph {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| serde::DeError::new(format!("Graph missing `{name}`")))
        };
        let ids = Vec::<u64>::from_value(field("ids")?)?;
        let edges = Vec::<Edge>::from_value(field("edges")?)?;
        let alive = Vec::<bool>::from_value(field("alive")?)?;
        if edges.len() != alive.len() {
            return Err(serde::DeError::new("Graph edge/alive length mismatch"));
        }
        let mut g = Graph::with_ids(ids);
        for (edge, &is_alive) in edges.iter().zip(&alive) {
            let id = EdgeId(g.edges.len());
            g.edges.push(*edge);
            g.alive.push(is_alive);
            if is_alive {
                if edge.u == edge.v || edge.u.max(edge.v) >= g.node_count() {
                    return Err(serde::DeError::new("Graph edge has invalid endpoints"));
                }
                g.live_count += 1;
                g.max.insert(edge.weight);
                g.adjacency.push(edge.u, AdjEntry { neighbor: edge.v as u32, edge: id.0 as u32 });
                g.adjacency.push(edge.v, AdjEntry { neighbor: edge.u as u32, edge: id.0 as u32 });
                g.present.insert(pack_pair(edge.u, edge.v), id.0 as u32);
            }
        }
        Ok(g)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 3).unwrap();
        g.add_edge(0, 2, 7).unwrap();
        g
    }

    #[test]
    fn new_graph_has_no_edges() {
        let g = Graph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_connected());
        assert_eq!(g.component_count(), 4);
    }

    #[test]
    fn single_node_graph_is_connected() {
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_connected());
    }

    #[test]
    fn add_edge_rejects_self_loops_and_duplicates() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 0, 1).is_none());
        assert!(g.add_edge(0, 1, 1).is_some());
        assert!(g.add_edge(1, 0, 2).is_none(), "duplicate in reverse orientation");
        assert!(g.add_edge(0, 7, 1).is_none(), "out of range endpoint");
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge_between(0, 2).unwrap();
        assert_eq!(g.edge(e).other(0), 2);
        assert_eq!(g.edge(e).other(2), 0);
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_between(0, 2).unwrap();
        g.edge(e).other(1);
    }

    #[test]
    fn remove_edge_tombstones() {
        let mut g = triangle();
        let id = g.remove_edge(1, 2).unwrap();
        assert!(!g.is_live(id));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 1);
        assert!(g.edge_between(1, 2).is_none());
        // The tombstoned record is still inspectable.
        assert_eq!(g.edge(id).weight, 3);
        // Re-inserting works and yields a fresh id.
        let id2 = g.add_edge(2, 1, 9).unwrap();
        assert_ne!(id, id2);
        assert_eq!(g.edge(id2).weight, 9);
    }

    #[test]
    fn remove_missing_edge_returns_none() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1);
        assert!(g.remove_edge(1, 2).is_none());
        assert!(g.remove_edge(0, 1).is_some());
        assert!(g.remove_edge(0, 1).is_none());
    }

    #[test]
    fn set_weight_updates_live_edge() {
        let mut g = triangle();
        assert_eq!(g.set_weight(0, 1, 11), Some(5));
        let e = g.edge_between(0, 1).unwrap();
        assert_eq!(g.edge(e).weight, 11);
        assert_eq!(g.set_weight(2, 2, 1), None);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(3, 4, 1);
        assert!(!g.is_connected());
        assert_eq!(g.component_count(), 2);
        g.add_edge(2, 3, 1);
        assert!(g.is_connected());
        assert_eq!(g.component_count(), 1);
    }

    #[test]
    fn cut_finds_crossing_edges() {
        let g = triangle();
        let cut = g.cut(&[true, false, false]);
        assert_eq!(cut.len(), 2);
        for e in cut {
            assert!(g.edge(e).is_endpoint(0));
        }
        // The streaming form agrees with the collected one.
        let streamed: Vec<EdgeId> = g.cut_iter(&[true, false, false]).collect();
        assert_eq!(streamed, g.cut(&[true, false, false]));
    }

    #[test]
    fn edge_number_uses_distributed_ids() {
        let g = Graph::with_ids(vec![100, 7, 55]);
        let mut g2 = g.clone();
        let e = g2.add_edge(0, 1, 1).unwrap();
        let num = g2.edge_number(e);
        assert_eq!(num, EdgeNumber::from_ids(7, 100));
    }

    #[test]
    #[should_panic]
    fn duplicate_ids_rejected() {
        Graph::with_ids(vec![1, 2, 2]);
    }

    #[test]
    fn node_with_id_resolves_every_node() {
        let g = Graph::with_ids(vec![100, 7, 55, 9000]);
        for x in g.nodes() {
            assert_eq!(g.node_with_id(g.id_of(x)), Some(x));
        }
        assert_eq!(g.node_with_id(1), None);
        assert_eq!(g.node_with_id(u64::MAX), None);
    }

    #[test]
    fn unique_weights_are_distinct_even_for_equal_raw_weights() {
        let mut g = Graph::new(4);
        let a = g.add_edge(0, 1, 5).unwrap();
        let b = g.add_edge(2, 3, 5).unwrap();
        assert_ne!(g.unique_weight(a), g.unique_weight(b));
        assert_eq!(g.unique_weight(a).raw(), g.unique_weight(b).raw());
    }

    #[test]
    fn incident_preserves_insertion_order_across_churn() {
        // The adjacency order contract: entries appear in insertion order,
        // removals compact without reordering, and a re-insert appends at the
        // end — exactly the observable order of the old Vec<Vec<EdgeId>>.
        let mut g = Graph::new(6);
        let e1 = g.add_edge(0, 1, 1).unwrap();
        let e2 = g.add_edge(0, 2, 1).unwrap();
        let e3 = g.add_edge(0, 3, 1).unwrap();
        let e4 = g.add_edge(0, 4, 1).unwrap();
        assert_eq!(g.incident(0).collect::<Vec<_>>(), vec![e1, e2, e3, e4]);
        g.remove_edge(0, 2);
        assert_eq!(g.incident(0).collect::<Vec<_>>(), vec![e1, e3, e4]);
        let e5 = g.add_edge(2, 0, 1).unwrap();
        assert_eq!(g.incident(0).collect::<Vec<_>>(), vec![e1, e3, e4, e5]);
        let neighbors: Vec<NodeId> = g.incident_with_neighbors(0).map(|(_, y)| y).collect();
        assert_eq!(neighbors, vec![1, 3, 4, 2]);
    }

    #[test]
    fn slab_churn_reuses_arena_memory() {
        // Grow one node's slab through several doublings, then grow another
        // node: the freed smaller slabs must be recycled, so the arena stays
        // within a constant factor of the live entry count.
        let mut g = Graph::new(64);
        for v in 1..33 {
            g.add_edge(0, v, 1).unwrap();
        }
        let after_first = g.adjacency.entries.len();
        for v in 2..33 {
            g.add_edge(1, v, 1).unwrap();
        }
        // Node 1's growth path (4 → 8 → 16 → 32) reuses node 0's released
        // slabs of the same sizes; only the largest capacity is fresh.
        assert!(
            g.adjacency.entries.len() <= after_first + 32,
            "arena grew by {} entries, expected ≤ 32 (free-list reuse)",
            g.adjacency.entries.len() - after_first
        );
    }

    #[test]
    fn serde_round_trips_through_the_logical_state() {
        use serde::{Deserialize as _, Serialize as _};
        let mut g = triangle();
        g.remove_edge(1, 2);
        g.add_edge(1, 2, 9).unwrap();
        let back = Graph::from_value(&g.to_value()).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for e in g.live_edges() {
            assert!(back.is_live(e));
            assert_eq!(back.edge(e), g.edge(e));
        }
        assert_eq!(back.edge_between(1, 2), g.edge_between(1, 2));
        assert_eq!(back.max_weight(), 9);
        // The maximum is rebuilt from live edges only: a tombstoned heaviest
        // edge does not survive the round trip.
        g.remove_edge(1, 2);
        let back = Graph::from_value(&g.to_value()).unwrap();
        assert_eq!((g.max_weight(), back.max_weight()), (7, 7));
    }

    #[test]
    fn display_summarises() {
        let g = triangle();
        assert_eq!(format!("{g}"), "Graph(n=3, m=3)");
    }
}
