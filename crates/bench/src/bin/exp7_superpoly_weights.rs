//! E7, FindMin under growing weight universes (Appendix A): the table on
//! stderr, the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E7);
}
