//! E3, messages per MST deletion and insertion (Theorem 1.2, Lemma 2): the
//! table on stderr, the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E3);
}
