//! E4, messages per ST deletion (Theorem 1.2, Lemma 5): the table on stderr,
//! the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E4);
}
