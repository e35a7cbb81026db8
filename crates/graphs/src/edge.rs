//! Edge identification and weight disambiguation.
//!
//! The paper (§2 "Definitions") identifies an edge `{u, v}` by its *edge
//! number*: the concatenation of the unique IDs of its endpoints, smallest
//! first. Distinct weights are manufactured — as in GHS 1983 — by concatenating
//! the raw weight to the *front* of the edge number, so ties between raw
//! weights are broken by edge number.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Raw edge weight. Weights live in `{1, .., u}` for a positive integer `u`
/// chosen by the workload; `u` may be superpolynomial in `n` (Appendix A).
pub type Weight = u64;

/// Stable dense identifier of an edge inside a [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The KT1 edge number: concatenation of the two endpoint identifiers,
/// smaller identifier first.
///
/// We realise "concatenation" as the pair `(min_id, max_id)` packed into a
/// `u128` with the smaller ID in the high 64 bits, which preserves the paper's
/// lexicographic order (compare by smaller ID, then larger ID) and gives every
/// edge of the network a globally unique number computable locally by either
/// endpoint — the crucial KT1 property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeNumber(u128);

impl EdgeNumber {
    /// Builds the edge number from the two endpoint identifiers (in either
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are equal (self-loops have no edge number).
    pub fn from_ids(a: u64, b: u64) -> Self {
        assert!(a != b, "an edge number requires two distinct endpoint IDs");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        EdgeNumber(((lo as u128) << 64) | hi as u128)
    }

    /// The smaller endpoint identifier.
    pub fn min_id(&self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The larger endpoint identifier.
    pub fn max_id(&self) -> u64 {
        self.0 as u64
    }

    /// The packed 128-bit value (used as hash-function input).
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// A 64-bit key suitable for the word-sized hash functions of §2.1.
    ///
    /// The paper hashes edge numbers from `[1, maxEdgeNum]`; in an
    /// implementation with word size `w = 64` we fold the 128-bit
    /// concatenation into a single word with a fixed splitmix-style mix of
    /// the two IDs. The mix is injective while every ID is below
    /// 2 971 215 073: two keys can only meet when the smaller endpoints of
    /// their edges differ by at least that much. Beyond it, up to the `2^32`
    /// the simulator accepts, distinct edges can share a key — `{41,
    /// 2147483653}` and `{2971215114, 3171499658}` do.
    pub fn as_u64_key(&self) -> u64 {
        let lo = self.min_id();
        let hi = self.max_id();
        // splitmix-style mixing of the two halves; deterministic and
        // endpoint-order independent because (lo, hi) is already sorted.
        let mut z = lo.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hi;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl fmt::Display for EdgeNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}:{}", self.min_id(), self.max_id())
    }
}

/// A globally distinct weight: raw weight in the most significant position,
/// edge number as the tie-breaker (§2 "Definitions").
///
/// Ordering compares the raw weight first and breaks ties by the edge number
/// (smaller endpoint ID, then larger endpoint ID) — the same order the
/// distributed search primitives use — so the sequential oracle and the
/// distributed algorithms agree on *which* minimum spanning tree is the
/// unique one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UniqueWeight {
    raw: Weight,
    number: EdgeNumber,
}

impl UniqueWeight {
    /// Concatenates a raw weight with an edge number.
    pub fn new(raw: Weight, number: EdgeNumber) -> Self {
        UniqueWeight { raw, number }
    }

    /// The raw (possibly non-distinct) weight.
    pub fn raw(&self) -> Weight {
        self.raw
    }

    /// The tie-breaking edge number.
    pub fn edge_number(&self) -> EdgeNumber {
        self.number
    }
}

impl fmt::Display for UniqueWeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}·{}", self.raw, self.number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_number_is_order_independent() {
        assert_eq!(EdgeNumber::from_ids(3, 9), EdgeNumber::from_ids(9, 3));
    }

    #[test]
    fn edge_number_orders_by_smaller_then_larger_id() {
        let a = EdgeNumber::from_ids(1, 100);
        let b = EdgeNumber::from_ids(2, 3);
        let c = EdgeNumber::from_ids(2, 4);
        assert!(a < b, "smaller min-ID sorts first");
        assert!(b < c, "ties on min-ID broken by max-ID");
    }

    #[test]
    #[should_panic]
    fn self_loop_edge_number_panics() {
        EdgeNumber::from_ids(5, 5);
    }

    #[test]
    fn u64_key_is_order_independent_and_distinct_for_small_ids() {
        use std::collections::BTreeSet;
        let mut seen = BTreeSet::new();
        for a in 1u64..40 {
            for b in (a + 1)..40 {
                let k = EdgeNumber::from_ids(a, b).as_u64_key();
                assert_eq!(k, EdgeNumber::from_ids(b, a).as_u64_key());
                assert!(seen.insert(k), "collision for ({a},{b})");
            }
        }
    }

    #[test]
    fn u64_key_is_not_injective_on_32_bit_ids() {
        // The pair `as_u64_key`'s doc names; one ID is above 2 971 215 073.
        let a = EdgeNumber::from_ids(41, 2_147_483_653);
        let b = EdgeNumber::from_ids(2_971_215_114, 3_171_499_658);
        assert_ne!(a, b);
        assert_eq!(a.as_u64_key(), b.as_u64_key());
    }

    #[test]
    fn unique_weight_orders_by_raw_weight_first() {
        let light = UniqueWeight::new(3, EdgeNumber::from_ids(900, 901));
        let heavy = UniqueWeight::new(4, EdgeNumber::from_ids(1, 2));
        assert!(light < heavy);
    }

    #[test]
    fn unique_weight_breaks_ties_by_edge_number() {
        let a = UniqueWeight::new(7, EdgeNumber::from_ids(1, 2));
        let b = UniqueWeight::new(7, EdgeNumber::from_ids(1, 3));
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn accessors_round_trip() {
        let n = EdgeNumber::from_ids(17, 4);
        assert_eq!(n.min_id(), 4);
        assert_eq!(n.max_id(), 17);
        let w = UniqueWeight::new(9, n);
        assert_eq!(w.raw(), 9);
        assert_eq!(w.edge_number(), n);
        assert_eq!(format!("{w}"), "9·#4:17");
    }
}
