//! E5, TestOut and HP-TestOut detection rates (Lemma 1): the table on stderr,
//! the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E5);
}
