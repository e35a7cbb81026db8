//! Randomised hashing substrate for the `kkt-spanning` workspace.
//!
//! Everything probabilistic in King–Kutten–Thorup bottoms out in one of three
//! primitives, each of which lives in its own module here:
//!
//! * [`odd_hash`] — Thorup's multiply-threshold *ε-odd* hash family
//!   (`h(x) = [a·x mod 2^w ≤ t]`, a 1/8-odd distinguisher), the engine of
//!   `TestOut` (§2.1 of the paper, citing arXiv:1411.4982).
//! * [`pairwise`] — 2-wise independent hash families into a power-of-two
//!   range, the engine of `FindAny`'s "isolate a single cut edge" step
//!   (Lemma 4, §4.1).
//! * [`set_equality`] — Schwartz–Zippel polynomial identity testing over
//!   `Z_p`, the engine of `HP-TestOut` (§2.2, citing Blum–Kannan).
//!
//! Supporting module: [`modular`] (`Z_p` arithmetic for the Mersenne prime
//! `p = 2^61 − 1`, by shift-and-add). The pairwise family and HP-TestOut
//! both work modulo that fixed prime, so no prime is chosen at run time.
//! Node IDs are below `2^30` (the simulator rejects larger ones), so two of
//! them pack into an edge key below `p` and no ID space needs compressing
//! either: §1's Karp–Rabin step has no counterpart here.
//!
//! # Example: an odd hash detects a non-empty cut with constant probability
//!
//! ```rust
//! use kkt_hashing::odd_hash::OddHash;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let set: Vec<u64> = (10..30).collect();
//! let mut hits = 0;
//! for _ in 0..1000 {
//!     let h = OddHash::random(&mut rng);
//!     let parity: u64 = set.iter().map(|&x| h.bit(x) as u64).sum::<u64>() % 2;
//!     hits += parity;
//! }
//! assert!(hits > 125, "odd parity should occur with probability >= 1/8");
//! ```

pub mod modular;
pub mod odd_hash;
pub mod pairwise;
pub mod set_equality;

pub use odd_hash::OddHash;
pub use pairwise::PairwiseHash;
pub use set_equality::{EdgeSetPoly, SetEqualitySketch};
