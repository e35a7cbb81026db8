//! Schwartz–Zippel set-equality sketches over `Z_p`.
//!
//! `HP-TestOut` (§2.2) reduces "is there an edge leaving the tree `T`?" to the
//! set-equality question `E↑(T) = E↓(T)`, where `E↑(u)` are the edges `(u, v)`
//! oriented away from `u` and `E↓(u)` those oriented towards `u`
//! (Observation 1: the two multisets over the whole tree differ iff some edge
//! has exactly one endpoint in `T`).
//!
//! Set equality is tested by comparing the characteristic polynomials
//! `P(D)(z) = Π_{e ∈ D} (z − edgeNumber(e)) mod p` at a random point
//! `α ∈ Z_p` (Blum–Kannan / Schwartz–Zippel): if the sets differ, the
//! evaluations differ with probability at least `1 − B/p`, where `B` bounds
//! the multiset sizes.
//!
//! The sketch is a single element of `Z_p`, multiplicative under disjoint
//! union, so it aggregates up a broadcast-and-echo tree in `O(log p)`-bit
//! messages — exactly the cost HP-TestOut is charged in the paper. The
//! prime is the fixed Mersenne prime [`crate::modular::P`] `= 2^61 − 1`.

use serde::{Deserialize, Serialize};

use crate::modular::{mul_mod, reduce, sub_mod};

/// Evaluation context for the characteristic polynomial of an edge multiset
/// over `Z_p`, `p = 2^61 − 1`: the random evaluation point `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeSetPoly {
    alpha: u64,
}

impl EdgeSetPoly {
    /// Creates an evaluation context. `alpha` is reduced modulo `p`.
    pub fn new(alpha: u64) -> Self {
        EdgeSetPoly { alpha: reduce(alpha) }
    }

    /// Evaluates `Π (α − key) mod p` over the given multiset of edge keys —
    /// the per-node local computation `Local↑` / `Local↓` of HP-TestOut.
    pub fn eval<I: IntoIterator<Item = u64>>(&self, keys: I) -> SetEqualitySketch {
        keys.into_iter().fold(SetEqualitySketch::EMPTY, |sketch, key| self.add(sketch, key))
    }

    /// The sketch of `sketch`'s multiset plus one `key`: one more factor
    /// `(α − key)`. Folding keys in one at a time lets a caller build several
    /// sketches in one pass over its edges.
    pub fn add(&self, sketch: SetEqualitySketch, key: u64) -> SetEqualitySketch {
        SetEqualitySketch { value: mul_mod(sketch.value, sub_mod(self.alpha, key)) }
    }
}

/// The evaluation of an edge multiset's characteristic polynomial — one
/// `Z_p` element, combinable across disjoint node-local multisets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetEqualitySketch {
    value: u64,
}

impl SetEqualitySketch {
    /// The sketch of the empty multiset: the empty product, 1.
    pub const EMPTY: SetEqualitySketch = SetEqualitySketch { value: 1 };

    /// The raw `Z_p` value (what is put on the wire during the echo). The
    /// sketches of disjoint multisets combine by multiplying their values
    /// in `Z_p` ([`crate::modular::mul_mod`]).
    pub fn value(&self) -> u64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::modular::P;

    fn ctx(alpha: u64) -> EdgeSetPoly {
        EdgeSetPoly::new(alpha)
    }

    #[test]
    fn equal_multisets_always_match() {
        let mut rng = StdRng::seed_from_u64(0);
        let set: Vec<u64> = (0..50).map(|_| rng.gen_range(1..1u64 << 30)).collect();
        for _ in 0..100 {
            let c = ctx(rng.gen());
            let mut shuffled = set.clone();
            use rand::seq::SliceRandom;
            shuffled.shuffle(&mut rng);
            assert_eq!(c.eval(set.iter().copied()), c.eval(shuffled.into_iter()));
        }
    }

    #[test]
    fn unequal_multisets_almost_always_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<u64> = (1..=60).collect();
        let mut b = a.clone();
        b[30] = 1_000_003; // one element differs
        let mut mismatches = 0;
        let trials = 500;
        for _ in 0..trials {
            let c = ctx(rng.gen());
            if c.eval(a.iter().copied()) != c.eval(b.iter().copied()) {
                mismatches += 1;
            }
        }
        assert_eq!(mismatches, trials, "with a 61-bit prime a collision is ~2^-55 likely");
    }

    #[test]
    fn multiset_multiplicity_matters() {
        let c = ctx(987654321);
        let once = c.eval([7u64, 9]);
        let twice = c.eval([7u64, 7, 9]);
        assert_ne!(once, twice);
    }

    #[test]
    fn combine_matches_concatenation() {
        // HP-TestOut's echo multiplies the children's values: the sketch of
        // a disjoint union.
        let mut rng = StdRng::seed_from_u64(2);
        let c = ctx(rng.gen());
        let left: Vec<u64> = (0..20).map(|_| rng.gen_range(1..1u64 << 35)).collect();
        let right: Vec<u64> = (0..33).map(|_| rng.gen_range(1..1u64 << 35)).collect();
        let combined =
            mul_mod(c.eval(left.iter().copied()).value(), c.eval(right.iter().copied()).value());
        let concatenated = c.eval(left.iter().chain(right.iter()).copied());
        assert_eq!(combined, concatenated.value());
    }

    #[test]
    fn identity_is_neutral() {
        // The empty multiset (a leaf with no edges in the interval) echoes 1.
        let c = ctx(5);
        let s = c.eval([3u64, 14, 15]);
        assert_eq!(c.eval(std::iter::empty()).value(), 1);
        assert_eq!(mul_mod(s.value(), 1), s.value());
        assert_eq!(c.eval(std::iter::empty()), SetEqualitySketch::EMPTY);
    }

    #[test]
    fn keys_and_alpha_are_read_modulo_p() {
        // α and every key enter as residues, as the u128 `%` path took them.
        let c = ctx(P + 5);
        assert_eq!(c, ctx(5));
        assert_eq!(c.eval([3u64, P + 14]), c.eval([P + 3, 14]));
    }

    #[test]
    fn adding_keys_one_at_a_time_matches_eval() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = ctx(rng.gen());
        let keys: Vec<u64> = (0..40).map(|_| rng.gen()).collect();
        let folded = keys.iter().fold(SetEqualitySketch::EMPTY, |s, &k| c.add(s, k));
        assert_eq!(folded, c.eval(keys));
    }
}
