//! Running the paper's searches: one at a time, or many in concurrent waves.
//!
//! `FindMin` (`MinSearch` in `find_min.rs`) and `FindAny` (`AnySearch` in
//! `find_any.rs`) are each implemented once, as a resumable state machine:
//! `Search::step` consumes the echo of the previous broadcast-and-echo and
//! returns the next `Probe` to run, or the verdict. Coins come from an RNG
//! the caller lends to every step, so a machine never owns randomness. Two
//! loops run the machines:
//!
//! * `drive` runs one search to completion, one broadcast-and-echo at a
//!   time, each probe over its own typed aggregate. The repairs and the
//!   Borůvka construction phases use it, drawing from the caller's RNG.
//! * `drive_waves` runs many searches over vertex-disjoint trees at once
//!   (the batched repair pipeline). Every wave runs each unfinished search's
//!   next probe concurrently in one engine pass, as a `ProbeAggregate`
//!   whose 3-bit tag lets searches at different steps share the pass; each
//!   search draws from its own seeded RNG.

use rand::rngs::StdRng;
use rand::Rng;

use kkt_congest::broadcast_echo::{run_broadcast_echo, run_broadcast_echoes, TreeAggregate};
use kkt_congest::{BitSized, Network, NodeView, Phase};
use kkt_graphs::{EdgeNumber, NodeId};

use crate::error::CoreError;
use crate::find_any::{
    IsolateDown, IsolateKeys, PrefixDown, PrefixParity, VerifyCandidate, VerifyDown, VerifyUp,
};
use crate::hp_test_out::{HpAggregate, HpDown, HpUp};
use crate::test_out::{TestOutAggregate, TestOutDown};
use crate::weights::{resolve_edge, FoundEdge, WeightInterval};

/// How many retries a search may spend before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// The with-high-probability budget of `FindMin` / `FindAny`: the search
    /// gives up only with probability `n^{-c}`.
    Whp,
    /// The capped budget of `FindMin-C` / `FindAny-C`: the worst-case cost
    /// matches the uncapped search's expected cost, at the price of giving
    /// up with constant probability.
    Constant,
}

/// What a search concluded. It never reports a wrong edge; a give-up means
/// the budget ran out before the search converged. Callers see the found
/// edge as a [`FoundEdge`]; inside a search it is the `EdgeNumber` the
/// endpoints know, which `drive` and `drive_waves` resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome<E = FoundEdge> {
    /// An edge leaving the tree (for `FindMin`, the lightest one).
    Found(E),
    /// No edge leaves the tree (verified w.h.p. by HP-TestOut).
    NoLeavingEdge,
    /// The retry budget ran out (constant probability under
    /// [`Budget::Constant`], probability `n^{-c}` under [`Budget::Whp`]).
    GaveUp,
}

impl SearchOutcome {
    /// The found edge, if any.
    pub fn edge(&self) -> Option<FoundEdge> {
        match self {
            SearchOutcome::Found(e) => Some(*e),
            _ => None,
        }
    }
}

impl SearchOutcome<EdgeNumber> {
    /// Resolves a found edge number (knowledge the endpoints hold) to its
    /// simulation handle.
    fn resolve(self, net: &Network) -> Result<SearchOutcome, CoreError> {
        Ok(match self {
            SearchOutcome::Found(number) => SearchOutcome::Found(resolve_edge(net, number)?),
            SearchOutcome::NoLeavingEdge => SearchOutcome::NoLeavingEdge,
            SearchOutcome::GaveUp => SearchOutcome::GaveUp,
        })
    }
}

/// One broadcast-and-echo a search asks to have run from its root.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe {
    /// Word-parallel TestOut over sub-intervals (`FindMin` narrowing).
    Wide(TestOutDown),
    /// HP-TestOut emptiness / verification probe.
    Hp(HpDown),
    /// `FindAny` prefix-parity sampling.
    Prefix(PrefixDown),
    /// `FindAny` key isolation at a chosen level.
    Isolate(IsolateDown),
    /// Candidate-edge verification (the final step of both searches).
    Verify(VerifyDown),
}

/// The root's decoded echo of a [`Probe`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reply {
    /// Wide, prefix and isolate probes echo one XOR-combined word.
    Word(u64),
    /// HP-TestOut: does a cut edge lie in the interval?
    Flag(bool),
    /// Verification: the recognised edge's number and weight, and how many
    /// tree endpoints recognised it (a verified edge has exactly one).
    Verified(Option<(EdgeNumber, u64, u64)>),
}

/// What a search wants next.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Run this probe from the search's root and pass back its reply.
    Probe(Probe),
    /// The search is over.
    Done(SearchOutcome<EdgeNumber>),
}

/// A search as a resumable state machine.
pub(crate) trait Search {
    /// Consumes the reply to the previous probe (`None` on the first call)
    /// and returns the next step, drawing any coins it needs from `rng`.
    fn step<R: Rng + ?Sized>(&mut self, reply: Option<Reply>, rng: &mut R) -> Step;
}

/// Runs one search to completion from `root`, one broadcast-and-echo at a
/// time, each probe over its own typed aggregate.
pub(crate) fn drive<S: Search, R: Rng + ?Sized>(
    net: &mut Network,
    root: NodeId,
    search: &mut S,
    rng: &mut R,
) -> Result<SearchOutcome, CoreError> {
    let mut reply = None;
    loop {
        let probe = match search.step(reply, rng) {
            Step::Probe(probe) => probe,
            Step::Done(outcome) => return outcome.resolve(net),
        };
        reply = Some(match probe {
            Probe::Wide(down) => {
                Reply::Word(run_broadcast_echo(net, root, TestOutAggregate { down })?)
            }
            Probe::Hp(down) => Reply::Flag(run_broadcast_echo(net, root, HpAggregate { down })?),
            Probe::Prefix(down) => {
                Reply::Word(run_broadcast_echo(net, root, PrefixParity { down })?)
            }
            Probe::Isolate(down) => {
                Reply::Word(run_broadcast_echo(net, root, IsolateKeys { down })?)
            }
            Probe::Verify(down) => {
                Reply::Verified(run_broadcast_echo(net, root, VerifyCandidate { down })?)
            }
        });
    }
}

/// One search's place in a [`drive_waves`] run: the running machine, then
/// its outcome. The slots are the run's only per-search storage, so their
/// size is what a run allocates per search (perfbench's burst workload
/// records those bytes exactly).
#[derive(Debug)]
pub(crate) enum Slot<S> {
    /// Searching from `root`, drawing coins from `rng`.
    Running { root: NodeId, search: S, rng: StdRng },
    /// Over.
    Done(SearchOutcome),
}

/// Runs many searches, each rooted in its own vertex-disjoint tree, to
/// completion. Every wave runs all unfinished searches' next probes
/// concurrently in one engine pass ([`run_broadcast_echoes`]), billed to
/// `phase`, so the makespan is the slowest search's rather than the sum;
/// finished searches drop out of the wave. Yields the outcomes in slot
/// order.
pub(crate) fn drive_waves<S: Search>(
    net: &mut Network,
    phase: Phase,
    mut slots: Vec<Slot<S>>,
) -> Result<impl Iterator<Item = SearchOutcome>, CoreError> {
    let mut wave = Vec::new();
    for (pos, slot) in slots.iter_mut().enumerate() {
        advance(net, pos, slot, None, &mut wave)?;
    }
    while !wave.is_empty() {
        let replies = net.span(phase, |net| {
            run_broadcast_echoes(net, wave.iter().map(|&(_, root, agg)| (root, agg)).collect())
        })?;
        let mut next = Vec::new();
        for ((pos, _, _), reply) in wave.into_iter().zip(replies) {
            advance(net, pos, &mut slots[pos], Some(reply), &mut next)?;
        }
        wave = next;
    }
    Ok(slots.into_iter().map(|slot| match slot {
        Slot::Done(outcome) => outcome,
        Slot::Running { .. } => unreachable!("the wave loop ends only when every search is done"),
    }))
}

/// Steps the search in `slot` (position `pos`) with `reply`: queues its
/// next probe on `wave`, or stores its outcome.
fn advance<S: Search>(
    net: &Network,
    pos: usize,
    slot: &mut Slot<S>,
    reply: Option<Reply>,
    wave: &mut Vec<(usize, NodeId, ProbeAggregate)>,
) -> Result<(), CoreError> {
    let Slot::Running { root, search, rng } = slot else {
        unreachable!("a finished search leaves the wave")
    };
    match search.step(reply, rng) {
        Step::Probe(request) => wave.push((pos, *root, ProbeAggregate { request })),
        Step::Done(outcome) => *slot = Slot::Done(outcome.resolve(net)?),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tagged probe aggregate: one wire type for every search step
// ---------------------------------------------------------------------------

const PROBE_TAG_BITS: usize = 3;

impl BitSized for Probe {
    fn bit_size(&self) -> usize {
        PROBE_TAG_BITS
            + match self {
                Probe::Wide(d) => d.bit_size(),
                Probe::Hp(d) => d.bit_size(),
                Probe::Prefix(d) => d.bit_size(),
                Probe::Isolate(d) => d.bit_size(),
                Probe::Verify(d) => d.bit_size(),
            }
    }
}

/// The echo of a tagged [`Probe`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProbeUp {
    Word(u64),
    Hp(HpUp),
    Verify(VerifyUp),
}

impl BitSized for ProbeUp {
    fn bit_size(&self) -> usize {
        PROBE_TAG_BITS
            + match self {
                ProbeUp::Word(w) => w.bit_size(),
                ProbeUp::Hp(u) => u.bit_size(),
                ProbeUp::Verify(u) => u.bit_size(),
            }
    }
}

/// The aggregate carrying one [`Probe`] in a shared wave. Each root carries
/// its *own* request; every other node acts purely on the broadcast payload
/// (the documented accounting-honesty contract of [`TreeAggregate`]), which
/// is what lets searches with different requests share one engine pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeAggregate {
    request: Probe,
}

impl TreeAggregate for ProbeAggregate {
    type Down = Probe;
    type Up = ProbeUp;
    type Output = Reply;

    fn root_payload(&self, _root_view: &NodeView) -> Probe {
        self.request
    }

    fn local(&self, view: &NodeView, down: &Probe) -> ProbeUp {
        match down {
            Probe::Wide(d) => ProbeUp::Word(TestOutAggregate { down: *d }.local(view, d)),
            Probe::Hp(d) => ProbeUp::Hp(HpAggregate { down: *d }.local(view, d)),
            Probe::Prefix(d) => ProbeUp::Word(PrefixParity { down: *d }.local(view, d)),
            Probe::Isolate(d) => ProbeUp::Word(IsolateKeys { down: *d }.local(view, d)),
            Probe::Verify(d) => ProbeUp::Verify(VerifyCandidate { down: *d }.local(view, d)),
        }
    }

    fn combine(&self, view: &NodeView, acc: ProbeUp, child: ProbeUp) -> ProbeUp {
        match (acc, child) {
            (ProbeUp::Word(a), ProbeUp::Word(b)) => ProbeUp::Word(a ^ b),
            (ProbeUp::Hp(a), ProbeUp::Hp(b)) => {
                // The modular products combine independently of the payload.
                let dummy = HpAggregate {
                    down: HpDown { alpha: 0, interval: WeightInterval::everything() },
                };
                ProbeUp::Hp(dummy.combine(view, a, b))
            }
            (ProbeUp::Verify(a), ProbeUp::Verify(b)) => {
                let dummy = VerifyCandidate {
                    down: VerifyDown { key: 0, interval: WeightInterval::everything() },
                };
                ProbeUp::Verify(dummy.combine(view, a, b))
            }
            // Echo kinds cannot mix inside one tree: each search runs
            // exactly one probe per wave and trees are vertex-disjoint.
            _ => unreachable!("mismatched probe echoes within one tree"),
        }
    }

    fn finish(&self, root_view: &NodeView, down: &Probe, total: ProbeUp) -> Reply {
        match (down, total) {
            (Probe::Wide(_) | Probe::Prefix(_) | Probe::Isolate(_), ProbeUp::Word(w)) => {
                Reply::Word(w)
            }
            (Probe::Hp(d), ProbeUp::Hp(u)) => {
                Reply::Flag(HpAggregate { down: *d }.finish(root_view, d, u))
            }
            (Probe::Verify(d), ProbeUp::Verify(u)) => {
                Reply::Verified(VerifyCandidate { down: *d }.finish(root_view, d, u))
            }
            _ => unreachable!("probe echo kind does not match its request"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KktConfig;
    use crate::find_any::AnySearch;
    use crate::find_min::MinSearch;
    use crate::maintained::TreeKind;
    use kkt_congest::broadcast_echo::TreeStats;
    use kkt_congest::{CostReport, NetworkConfig, Scheduler};
    use kkt_graphs::{generators, kruskal};
    use rand::SeedableRng;

    /// Runs one search from `root` through `drive` or `drive_waves` and
    /// returns its outcome and cost. The network is rebuilt from `seed` each time, so
    /// both runs see the same graph, marks and delivery delays.
    fn search_cost(
        seed: u64,
        kind: TreeKind,
        budget: Budget,
        scheduler: Scheduler,
        waves: bool,
    ) -> (SearchOutcome, CostReport) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::connected_gnp(24, 0.25, 200, &mut rng);
        let mst = kruskal(&g);
        let mut net =
            Network::new(g, NetworkConfig { scheduler, seed, ..NetworkConfig::default() });
        net.mark_all(&mst.edges[..8 + seed as usize % 8]);
        // An endpoint of a marked edge: a singleton root sends no messages.
        let root = net.graph().edge(mst.edges[0]).u;
        let config = KktConfig::default();
        let stats = run_broadcast_echo(&mut net, root, TreeStats).unwrap();
        let before = net.cost();
        let coins = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let outcome = match kind {
            TreeKind::Mst => {
                let search = MinSearch::new(&net, &stats, budget, &config);
                run(&mut net, root, search, coins, Phase::FindMinNarrow, waves)
            }
            TreeKind::St => {
                let search = AnySearch::new(net.node_count(), budget, &config);
                run(&mut net, root, search, coins, Phase::FindAnySample, waves)
            }
        };
        (outcome, net.cost() - before)
    }

    fn run<S: Search>(
        net: &mut Network,
        root: NodeId,
        mut search: S,
        mut coins: StdRng,
        phase: Phase,
        waves: bool,
    ) -> SearchOutcome {
        if waves {
            let slot = Slot::Running { root, search, rng: coins };
            drive_waves(net, phase, vec![slot]).unwrap().next().unwrap()
        } else {
            drive(net, root, &mut search, &mut coins).unwrap()
        }
    }

    #[test]
    fn blocking_and_wave_runs_agree_up_to_the_probe_tags() {
        let mut cases = 0;
        let mut found = 0;
        for seed in 0..8u64 {
            for kind in [TreeKind::Mst, TreeKind::St] {
                for budget in [Budget::Whp, Budget::Constant] {
                    for scheduler in
                        [Scheduler::Synchronous, Scheduler::RandomAsync { max_delay: 5 }]
                    {
                        let case = format!("seed {seed}, {kind:?}, {budget:?}, {scheduler:?}");
                        let (blocking, b) = search_cost(seed, kind, budget, scheduler, false);
                        let (wave, w) = search_cost(seed, kind, budget, scheduler, true);
                        assert_eq!(blocking, wave, "{case}: verdicts");
                        assert!(b.messages > 0, "{case}: the root's fragment sends messages");
                        assert_eq!(b.messages, w.messages, "{case}: messages");
                        assert_eq!(b.time, w.time, "{case}: rounds");
                        assert_eq!(b.broadcast_echoes, w.broadcast_echoes, "{case}: waves");
                        let tags = PROBE_TAG_BITS as u64 * b.messages;
                        assert_eq!(w.bits, b.bits + tags, "{case}: every message pays the tag");
                        cases += 1;
                        found += usize::from(blocking.edge().is_some());
                    }
                }
            }
        }
        assert_eq!(cases, 64);
        assert!(found > 32, "most searches find an edge ({found}/64)");
    }
}
