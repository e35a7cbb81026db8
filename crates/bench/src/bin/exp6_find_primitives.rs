//! E6, FindAny-C success rate and FindMin broadcast-and-echoes (Lemma 4, §3.1):
//! the table on stderr, the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E6);
}
