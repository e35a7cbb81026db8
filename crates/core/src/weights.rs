//! Augmented weights and edge identification shared by the search primitives.
//!
//! `FindMin` performs an interval search over *distinct* edge weights. The
//! paper obtains distinct weights by concatenating the raw weight with the
//! edge number (§2 "Definitions"); we realise that concatenation literally:
//! with an identifier space of `id_bits` bits (the `c·log n` of the KT1
//! model, shared knowledge carried in every [`NodeView`]), the *compact key*
//! of an edge is `min_id · 2^id_bits + max_id`, and its *augmented weight* is
//!
//! ```text
//! augmented = raw_weight · 2^(2·id_bits)  +  compact_key
//! ```
//!
//! Augmented weights are therefore distinct, ordered primarily by raw weight
//! with ties broken by edge number — exactly the order the sequential oracle
//! ([`kkt_graphs::UniqueWeight`]) uses — and only `log u + 2c·log n` bits
//! long, which is what keeps `FindMin`'s narrowing count at
//! `O(log n / log log n)`.

use kkt_congest::{IncidentEdge, Network, NodeView};
use kkt_graphs::{EdgeId, EdgeNumber, NodeId, Weight};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// A distinct weight: raw weight in the high bits, compact edge key below.
pub type AugmentedWeight = u128;

/// The compact key of an edge number: `min_id · 2^id_bits + max_id`.
/// Injective as long as both IDs fit in `id_bits` bits, which
/// [`kkt_congest::Network::new`] guarantees by rejecting IDs of 2³⁰ or more
/// (see [`kkt_congest::Network::id_bits`]). Keys are then below 2⁶⁰, so
/// they stay distinct modulo the prime 2⁶¹ − 1 the hash functions reduce
/// them by.
pub fn compact_key(number: EdgeNumber, id_bits: u32) -> u64 {
    let bits = id_bits.clamp(1, 32);
    (number.min_id() << bits) | (number.max_id() & ((1u64 << bits) - 1))
}

/// Inverts [`compact_key`].
pub fn key_to_edge_number(key: u64, id_bits: u32) -> EdgeNumber {
    let bits = id_bits.clamp(1, 32);
    EdgeNumber::from_ids(key >> bits, key & ((1u64 << bits) - 1))
}

/// Packs a raw weight and an edge number into an augmented weight.
pub fn pack_weight(weight: Weight, number: EdgeNumber, id_bits: u32) -> AugmentedWeight {
    let bits = id_bits.clamp(1, 32);
    ((weight as u128) << (2 * bits)) | compact_key(number, bits) as u128
}

/// Builds the augmented weight of an incident edge from a node's local view.
pub fn augmented_weight(view: &NodeView, edge: &IncidentEdge) -> AugmentedWeight {
    pack_weight(edge.weight, edge.edge_number, view.id_bits)
}

/// An inclusive interval of augmented weights (the `[j, k]` of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WeightInterval {
    /// Lower bound, inclusive.
    pub lo: AugmentedWeight,
    /// Upper bound, inclusive.
    pub hi: AugmentedWeight,
}

impl WeightInterval {
    /// The full range of augmented weights.
    pub fn everything() -> Self {
        WeightInterval { lo: 0, hi: u128::MAX }
    }

    /// All augmented weights whose raw weight is at most `max_weight`, for an
    /// identifier space of `id_bits` bits.
    pub fn up_to_raw(max_weight: Weight, id_bits: u32) -> Self {
        let bits = id_bits.clamp(1, 32);
        WeightInterval {
            lo: 0,
            hi: ((max_weight as u128) << (2 * bits)) | ((1u128 << (2 * bits)) - 1),
        }
    }

    /// An interval from explicit bounds (swapping if necessary).
    pub fn new(lo: AugmentedWeight, hi: AugmentedWeight) -> Self {
        if lo <= hi {
            WeightInterval { lo, hi }
        } else {
            WeightInterval { lo: hi, hi: lo }
        }
    }

    /// Membership test.
    pub fn contains(&self, w: AugmentedWeight) -> bool {
        self.lo <= w && w <= self.hi
    }

    /// True if the interval is a single value.
    pub fn is_singleton(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values in the interval (saturating).
    pub fn width(&self) -> u128 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Splits the interval into (at most) `parts` consecutive sub-intervals
    /// covering it exactly. Every node computes the same split from the same
    /// broadcast `(lo, hi, parts)`, which is what lets one echo word answer
    /// all sub-interval TestOuts at once.
    pub fn split(&self, parts: u32) -> Vec<WeightInterval> {
        let parts = parts.max(1) as u128;
        let width = self.width();
        // Ceiling division without overflowing near u128::MAX, in u64 when
        // the width fits (a hardware divide instead of a 128-bit one).
        let chunk = match u64::try_from(width) {
            Ok(width) => width.div_ceil(parts as u64) as u128,
            Err(_) => width / parts + if width.is_multiple_of(parts) { 0 } else { 1 },
        }
        .max(1);
        let mut out = Vec::new();
        let mut lo = self.lo;
        for part in 0..parts {
            if lo > self.hi {
                break;
            }
            // The last piece always extends to the upper bound, which also
            // absorbs the rounding slack of the saturated width computation.
            let hi =
                if part + 1 == parts { self.hi } else { lo.saturating_add(chunk - 1).min(self.hi) };
            out.push(WeightInterval { lo, hi });
            if hi == self.hi {
                break;
            }
            lo = hi + 1;
        }
        out
    }
}

/// An edge identified by a search primitive, described purely in terms of
/// knowledge the endpoints hold (edge number + raw weight), plus the
/// simulation handle resolved for the caller's convenience.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoundEdge {
    /// The edge number (identifies both endpoints by their IDs).
    pub edge_number: EdgeNumber,
    /// The raw weight of the edge.
    pub weight: Weight,
    /// The simulation handle of the edge.
    pub edge: EdgeId,
    /// Dense handles of the endpoints `(u, v)` with `id(u) < id(v)`.
    pub endpoints: (NodeId, NodeId),
}

/// Resolves an edge number (knowledge the endpoints hold) to the simulation
/// handle, by looking up the two endpoint IDs.
pub fn resolve_edge(net: &Network, number: EdgeNumber) -> Result<FoundEdge, CoreError> {
    let g = net.graph();
    let u = g
        .node_with_id(number.min_id())
        .ok_or_else(|| CoreError::Internal(format!("no node with ID {}", number.min_id())))?;
    let v = g
        .node_with_id(number.max_id())
        .ok_or_else(|| CoreError::Internal(format!("no node with ID {}", number.max_id())))?;
    let edge = g.edge_between(u, v).ok_or(CoreError::NoSuchEdge { u, v })?;
    Ok(FoundEdge { edge_number: number, weight: g.edge(edge).weight, edge, endpoints: (u, v) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_congest::NetworkConfig;
    use kkt_graphs::Graph;

    #[test]
    fn compact_key_round_trips() {
        for id_bits in [4u32, 10, 20, 32] {
            let max = (1u64 << id_bits) - 1;
            for (a, b) in [(1u64, 2u64), (3, max), (max - 1, max)] {
                let n = EdgeNumber::from_ids(a, b);
                let key = compact_key(n, id_bits);
                assert_eq!(key_to_edge_number(key, id_bits), n);
            }
        }
    }

    #[test]
    fn compact_key_order_matches_edge_number_order() {
        let ids = [1u64, 2, 5, 9, 14];
        let mut numbers = Vec::new();
        for &a in &ids {
            for &b in &ids {
                if a < b {
                    numbers.push(EdgeNumber::from_ids(a, b));
                }
            }
        }
        let mut by_number = numbers.clone();
        by_number.sort();
        let mut by_key = numbers.clone();
        by_key.sort_by_key(|n| compact_key(*n, 8));
        assert_eq!(by_number, by_key);
    }

    #[test]
    fn augmented_weight_orders_by_raw_weight_first() {
        let light = pack_weight(2, EdgeNumber::from_ids(1000, 2000), 12);
        let heavy = pack_weight(3, EdgeNumber::from_ids(1, 2), 12);
        assert!(light < heavy);
    }

    #[test]
    fn augmented_weight_matches_unique_weight_order() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 7);
        g.add_edge(2, 3, 7);
        g.add_edge(4, 5, 3);
        g.add_edge(1, 2, 9);
        let net = Network::new(g, NetworkConfig::default());
        let g = net.graph();
        let mut by_unique: Vec<_> = g.live_edges().collect();
        by_unique.sort_by_key(|&e| g.unique_weight(e));
        let mut by_aug: Vec<_> = g.live_edges().collect();
        by_aug.sort_by_key(|&e| pack_weight(g.edge(e).weight, g.edge_number(e), net.id_bits()));
        assert_eq!(by_unique, by_aug);
    }

    #[test]
    fn interval_constructors() {
        assert_eq!(WeightInterval::new(9, 3), WeightInterval { lo: 3, hi: 9 });
        let all = WeightInterval::everything();
        assert!(all.contains(0) && all.contains(u128::MAX));
        let bounded = WeightInterval::up_to_raw(7, 10);
        assert!(bounded.contains(pack_weight(7, EdgeNumber::from_ids(1, 2), 10)));
        assert!(!bounded.contains(pack_weight(8, EdgeNumber::from_ids(1, 2), 10)));
    }

    #[test]
    fn split_covers_exactly_without_overlap() {
        let iv = WeightInterval::new(10, 109);
        for parts in [1u32, 2, 3, 7, 10, 50, 200] {
            let pieces = iv.split(parts);
            assert!(!pieces.is_empty());
            assert_eq!(pieces[0].lo, 10);
            assert_eq!(pieces.last().unwrap().hi, 109);
            for w in pieces.windows(2) {
                assert_eq!(w[0].hi + 1, w[1].lo, "consecutive, no gap/overlap");
            }
            let total: u128 = pieces.iter().map(|p| p.width()).sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn split_singleton_and_tiny() {
        let iv = WeightInterval::new(5, 5);
        assert!(iv.is_singleton());
        let pieces = iv.split(8);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0], iv);
        let iv2 = WeightInterval::new(5, 6);
        assert_eq!(iv2.split(8).len(), 2);
    }

    #[test]
    fn split_huge_interval_has_requested_parts() {
        let pieces = WeightInterval::everything().split(32);
        assert_eq!(pieces.len(), 32);
        assert_eq!(pieces.last().unwrap().hi, u128::MAX);
    }

    #[test]
    fn resolve_edge_finds_endpoints_by_id() {
        let mut g = Graph::with_ids(vec![10, 20, 30]);
        let e = g.add_edge(0, 2, 5).unwrap();
        let number = g.edge_number(e);
        let net = Network::new(g, NetworkConfig::default());
        let found = resolve_edge(&net, number).unwrap();
        assert_eq!(found.edge, e);
        assert_eq!(found.weight, 5);
        assert_eq!(found.endpoints, (0, 2));
        let missing = resolve_edge(&net, EdgeNumber::from_ids(10, 20));
        assert!(matches!(missing, Err(CoreError::NoSuchEdge { .. })));
        let unknown = resolve_edge(&net, EdgeNumber::from_ids(10, 99));
        assert!(matches!(unknown, Err(CoreError::Internal(_))));
    }
}
