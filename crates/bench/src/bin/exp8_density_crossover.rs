//! E8, construction messages as m grows at fixed n (the o(m) separation): the
//! table on stderr, the sealed claims report on stdout (`EXPERIMENTS.md`).

fn main() {
    kkt_bench::claims::print(kkt_bench::claims::Claim::E8);
}
