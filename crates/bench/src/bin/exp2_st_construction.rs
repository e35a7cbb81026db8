//! E2, ST construction messages, KKT vs flooding (Theorem 1.1, Lemma 6): the
//! table on stderr, the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E2);
}
