//! E1, MST construction messages, KKT vs GHS (Theorem 1.1, Lemma 3): the table
//! on stderr, the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E1);
}
