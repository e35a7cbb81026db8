//! Arithmetic in `Z_p` for the Mersenne prime `p = 2^61 − 1`.
//!
//! `HP-TestOut` evaluates products of linear factors over `Z_p` along the
//! broadcast-and-echo tree, and the pairwise family hashes over the same
//! field; both use this one prime and no other. Since `2^61 ≡ 1 (mod p)`, a
//! value reduces by adding its bits above bit 61 to its low 61 bits: a
//! shift, a mask and an add, then at most one subtraction of `p`, where a
//! generic modulus would need a 128-bit division. Every function accepts any
//! `u64` operand and returns the exact residue in `[0, p)`.

/// The Mersenne prime `2^61 − 1`, the modulus of every function here.
pub const P: u64 = (1 << 61) - 1;

/// `x mod p`.
pub fn reduce(x: u64) -> u64 {
    // (x mod 2^61) + ⌊x / 2^61⌋ ≤ p + 7, so one subtraction finishes it.
    let folded = (x & P) + (x >> 61);
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

/// `(a + b) mod p`.
pub fn add_mod(a: u64, b: u64) -> u64 {
    // Two residues sum to below 2p < 2^62.
    let sum = reduce(a) + reduce(b);
    if sum >= P {
        sum - P
    } else {
        sum
    }
}

/// `(a − b) mod p`, always in `[0, p)`.
pub fn sub_mod(a: u64, b: u64) -> u64 {
    let (a, b) = (reduce(a), reduce(b));
    if a >= b {
        a - b
    } else {
        a + (P - b)
    }
}

/// `(a · b) mod p`.
pub fn mul_mod(a: u64, b: u64) -> u64 {
    // The product of two residues is below 2^122: its bits above bit 61 are
    // below p, and they add to its low 61 bits without overflowing 2^62.
    let product = reduce(a) as u128 * reduce(b) as u128;
    let folded = (product as u64 & P) + (product >> 61) as u64;
    if folded >= P {
        folded - P
    } else {
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The generic formulas over `u128` `%` the shift-and-add reductions
    /// must match bit for bit.
    mod reference {
        use super::P;

        pub fn reduce(x: u64) -> u64 {
            x % P
        }

        pub fn add_mod(a: u64, b: u64) -> u64 {
            ((a as u128 + b as u128) % P as u128) as u64
        }

        pub fn sub_mod(a: u64, b: u64) -> u64 {
            let (a, b) = (a % P, b % P);
            if a >= b {
                a - b
            } else {
                a + (P - b)
            }
        }

        pub fn mul_mod(a: u64, b: u64) -> u64 {
            ((a as u128 * b as u128) % P as u128) as u64
        }
    }

    /// Every function against the reference on one pair of operands.
    fn check(a: u64, b: u64) {
        assert_eq!(reduce(a), reference::reduce(a), "reduce({a})");
        assert_eq!(add_mod(a, b), reference::add_mod(a, b), "add_mod({a}, {b})");
        assert_eq!(sub_mod(a, b), reference::sub_mod(a, b), "sub_mod({a}, {b})");
        assert_eq!(mul_mod(a, b), reference::mul_mod(a, b), "mul_mod({a}, {b})");
    }

    #[test]
    fn edge_operands_match_the_reference() {
        let edges = [0, 1, P - 1, P, P + 1, 2 * P, 1 << 61, u64::MAX];
        for a in edges {
            for b in edges {
                check(a, b);
            }
        }
    }

    #[test]
    fn seeded_stream_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..100_000 {
            // Full-range operands, and residues as the callers mostly pass.
            let (a, b): (u64, u64) = (rng.gen(), rng.gen());
            check(a, b);
            check(a % P, b % P);
        }
    }

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(P - 1, 5), 4);
        assert_eq!(add_mod(0, 0), 0);
        assert_eq!(add_mod(u64::MAX, u64::MAX), ((u64::MAX as u128 * 2) % P as u128) as u64);
    }

    #[test]
    fn sub_stays_nonnegative() {
        assert_eq!(sub_mod(3, 10), P - 7);
        assert_eq!(sub_mod(10, 3), 7);
        assert_eq!(sub_mod(5, 5), 0);
        assert_eq!(sub_mod(P, P + 1), P - 1, "operands are reduced first");
    }

    #[test]
    fn mul_large_operands() {
        let big = (1u64 << 62) + 12345;
        let expected = ((big as u128 * big as u128) % P as u128) as u64;
        assert_eq!(mul_mod(big, big), expected);
        assert_eq!(mul_mod(P - 1, P - 1), 1, "(−1)² = 1");
    }
}
