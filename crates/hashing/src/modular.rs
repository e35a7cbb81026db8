//! Overflow-free arithmetic in `Z_p` for 64-bit primes.
//!
//! `HP-TestOut` evaluates products of linear factors over `Z_p` along the
//! broadcast-and-echo tree; these helpers keep every intermediate inside
//! `u128` so the computation is exact for any prime below `2^63`.

/// `(a + b) mod m`.
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    (((a as u128) + (b as u128)) % (m as u128)) as u64
}

/// `(a - b) mod m`, always in `[0, m)`.
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    let (a, b) = (a % m, b % m);
    if a >= b {
        a - b
    } else {
        a + (m - b)
    }
}

/// `(a * b) mod m` computed through `u128`.
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    (((a as u128) * (b as u128)) % (m as u128)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = 1_000_000_007;

    #[test]
    fn add_wraps() {
        assert_eq!(add_mod(P - 1, 5, P), 4);
        assert_eq!(add_mod(0, 0, P), 0);
        assert_eq!(add_mod(u64::MAX, u64::MAX, P), ((u64::MAX as u128 * 2) % P as u128) as u64);
    }

    #[test]
    fn sub_stays_nonnegative() {
        assert_eq!(sub_mod(3, 10, P), P - 7);
        assert_eq!(sub_mod(10, 3, P), 7);
        assert_eq!(sub_mod(5, 5, P), 0);
    }

    #[test]
    fn mul_large_operands() {
        let big = (1u64 << 62) + 12345;
        let expected = ((big as u128 * big as u128) % P as u128) as u64;
        assert_eq!(mul_mod(big, big, P), expected);
    }
}
