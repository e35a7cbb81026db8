//! Batched impromptu repair: classify a burst once, apply the cheap
//! operations immediately, and mend *all* severed tree edges in one
//! pipelined pass.
//!
//! The paper prices impromptu repair per single edge event (Theorem 1.2), but
//! a burst that severs `k` tree edges pays that price `k` times when the
//! repairs run back-to-back — and each of those repairs searches a fragment
//! that is almost the whole tree, because the previous repair just re-joined
//! it. This module instead repairs the burst the way `Build MST` builds
//! (Borůvka phases over vertex-disjoint fragments, §3.3):
//!
//! 1. **Classify & stage.** Walking the batch in order, each update gets the
//!    sequential path's local / cut / link classification ([`crate::repair`]).
//!    A cut is applied to the graph but its repair is deferred; a link first
//!    forces a flush of the deferred cuts (its path query needs an intact
//!    tree); then every non-deferred update runs the sequential
//!    [`apply_update`]. Deferring nothing gives
//!    [`crate::MaintainedForest::apply_batch_sequential`].
//! 2. **Flush = pipelined Borůvka.** The fragment partition induced by all
//!    severed edges is computed once. Each round opens with a concurrent
//!    `TreeStats` census over the unresolved fragments, which pays for
//!    electing (and exempting from the search) each cluster's largest
//!    fragment and doubles as `FindMin`'s step-2 statistics; every other
//!    fragment then runs its `FindMin` (MST) or `FindAny` (ST) search. The
//!    searches are *interleaved* by the wave loop of [`crate::search`] —
//!    every broadcast-and-echo wave runs all fragments' current probes
//!    concurrently in a single engine pass ([`run_broadcast_echoes`]), so the
//!    makespan is the slowest fragment's, not the sum. Found replacement
//!    edges are marked simultaneously (safe by the cut property for
//!    distinct weights; guarded by a union–find cycle check for the ST
//!    case) and fragments merge.
//! 3. **Amortized announces.** Instead of one tree-wide decision broadcast
//!    per cut, each *repaired fragment* broadcasts a single batch digest once
//!    the burst is fully mended, so announce costs are paid per merged
//!    fragment rather than per severed edge.
//!
//! Because every marked edge is the exact minimum (augmented-weight) edge
//! leaving some fragment while the marked forest is a subset of the MST, the
//! final forest is the *unique* MST of the final graph — the same forest the
//! sequential path reaches — so Kruskal-oracle checkpoints are unaffected.
//!
//! Error semantics are explicit: [`BatchError`] carries the per-update
//! outcomes of the applied prefix and the failing index, so replay harnesses
//! can never misattribute state after a partial failure.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kkt_congest::broadcast_echo::{run_broadcast_echoes, TreeStats};
use kkt_congest::{BitSized, Network, Phase};
use kkt_graphs::generators::Update;
use kkt_graphs::NodeId;

use crate::config::KktConfig;
use crate::error::CoreError;
use crate::find_any::AnySearch;
use crate::find_min::MinSearch;
use crate::maintained::{TreeKind, UpdateOutcome};
use crate::repair::{announce, apply_update, classify, edit, DeleteOutcome, Effect};
use crate::search::{drive_waves, Budget, Reply, Search, SearchOutcome, Slot, Step};

// ---------------------------------------------------------------------------
// Public result / error types
// ---------------------------------------------------------------------------

/// A batch application that failed partway. `applied` holds the outcomes of
/// exactly the updates *before* `failed_index`; that prefix remains applied,
/// with every deferred cut among it repaired, so the forest state it
/// describes is trustworthy. `failed_index` names the update that could not
/// be applied. When the failure came from the repair pipeline itself rather
/// than from a bad update (probability `n^{-c}`: an engine fault mid-flush),
/// graph mutations of updates at or after `failed_index` may additionally
/// persist and the caller should re-`verify()` before relying on the forest.
#[derive(Debug)]
pub struct BatchError {
    /// Outcomes of the updates applied before the failure, in batch order.
    pub applied: Vec<UpdateOutcome>,
    /// Index (into the batch) of the update that failed.
    pub failed_index: usize,
    /// Why it failed.
    pub source: CoreError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch failed at update {} after {} applied: {}",
            self.failed_index,
            self.applied.len(),
            self.source
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Progress counters of one batched application, exposed for the experiment
/// harness (`exp10_batched_repair`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tree edges severed by the batch (deferred cuts).
    pub severed: usize,
    /// Pipelined repair passes executed (≥ 1 iff any cut was deferred).
    pub flushes: u32,
    /// Borůvka rounds across all flushes.
    pub rounds: u32,
    /// Fragment searches issued across all rounds.
    pub searches: u32,
    /// Amortized decision broadcasts (one per repaired fragment).
    pub announces: u32,
}

// ---------------------------------------------------------------------------
// Fragment bookkeeping (driver-side orchestration)
// ---------------------------------------------------------------------------

/// A tree cut whose repair has been deferred to the next flush.
#[derive(Debug, Clone, Copy)]
struct PendingCut {
    /// Index of the originating update in the batch (for outcome patching).
    index: usize,
    /// Whether the originating update was a deletion (only deletions report
    /// a [`DeleteOutcome`]; weight increases report `Reweighted` regardless).
    from_delete: bool,
    u: NodeId,
    v: NodeId,
}

/// Union–find over the affected fragments, carrying per-group metadata.
/// Fragment *sizes* are deliberately absent: the election of each cluster's
/// largest fragment works from TreeStats echoes, so the communication that
/// knowledge costs is charged.
struct Groups {
    parent: Vec<usize>,
    /// The group's initiator (smallest-ID severed endpoint), per the paper's
    /// "smaller ID initiates" rule.
    root_node: Vec<NodeId>,
    root_id: Vec<u64>,
    /// Set when the group's search concluded (no leaving edge / gave up).
    done: Vec<bool>,
    /// Replacement edges marked on behalf of the group.
    merges: Vec<u32>,
    /// XOR digest of the marked edge numbers (the announce payload).
    digest: Vec<u128>,
}

impl Groups {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges two groups; the merged group becomes searchable again.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        debug_assert_ne!(ra, rb);
        // Deterministic: the smaller initiator ID leads the merged group.
        let (keep, drop) = if self.root_id[ra] <= self.root_id[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[drop] = keep;
        self.merges[keep] += self.merges[drop];
        self.digest[keep] ^= self.digest[drop];
        self.done[keep] = false;
        keep
    }
}

/// A fragment's search: `FindMin` to mend an MST, `FindAny` to mend an ST.
/// One type lets a flush build its slots in one pass, and gives both kinds
/// the same [`Slot`] size (see its note on allocation).
#[derive(Debug)]
enum FragmentSearch {
    Min(MinSearch),
    Any(AnySearch),
}

impl Search for FragmentSearch {
    fn step<R: Rng + ?Sized>(&mut self, reply: Option<Reply>, rng: &mut R) -> Step {
        match self {
            FragmentSearch::Min(search) => search.step(reply, rng),
            FragmentSearch::Any(search) => search.step(reply, rng),
        }
    }
}

// ---------------------------------------------------------------------------
// The batched application
// ---------------------------------------------------------------------------

/// Applies a batch of updates. With `defer_cuts`, severed tree edges are
/// repaired together in pipelined passes; without it, each cut is mended as
/// soon as it is staged, one update after another. See the module docs for
/// the algorithm and [`BatchError`] for the partial-failure contract.
pub(crate) fn apply_batch<R: Rng>(
    net: &mut Network,
    kind: TreeKind,
    config: &KktConfig,
    rng: &mut R,
    updates: &[Update],
    defer_cuts: bool,
) -> Result<(Vec<UpdateOutcome>, BatchStats), BatchError> {
    let mut outcomes = Vec::with_capacity(updates.len());
    let mut pending: Vec<PendingCut> = Vec::new();
    let mut stats = BatchStats::default();

    for (i, update) in updates.iter().enumerate() {
        if let Err(source) = stage(
            net,
            kind,
            config,
            rng,
            update,
            defer_cuts,
            &mut pending,
            &mut outcomes,
            &mut stats,
        ) {
            // Mend what the applied prefix severed before reporting, so the
            // caller observes a consistent forest for exactly `applied`.
            // (If this flush itself fails — probability n^{-c} — the original
            // error still wins; the forest then needs a verify()/rebuild.)
            let _ = flush(net, kind, config, rng, &mut pending, &mut outcomes, &mut stats);
            return Err(BatchError { applied: outcomes, failed_index: i, source });
        }
    }
    let first_pending = pending.first().map(|c| c.index);
    if let Err(source) = flush(net, kind, config, rng, &mut pending, &mut outcomes, &mut stats) {
        // The first unrepaired cut is the update that failed; everything
        // before it was applied *and* repaired (any earlier cuts were
        // flushed by a tree-dependent operation in between). Outcomes from
        // that point on cannot be trusted — drop them so `applied` describes
        // exactly the consistent prefix.
        let failed_index = first_pending.unwrap_or(updates.len().saturating_sub(1));
        outcomes.truncate(failed_index);
        return Err(BatchError { applied: outcomes, failed_index, source });
    }
    Ok((outcomes, stats))
}

/// Applies one update with [`apply_update`], unless cuts are deferred: then
/// a cut waits for the next flush, and a link first flushes the deferred
/// cuts (its path query needs an intact tree). Pushes exactly one outcome on
/// success; on error the batch state is untouched by this update (except for
/// the flush a link may already have forced).
#[allow(clippy::too_many_arguments)]
fn stage<R: Rng>(
    net: &mut Network,
    kind: TreeKind,
    config: &KktConfig,
    rng: &mut R,
    update: &Update,
    defer_cuts: bool,
    pending: &mut Vec<PendingCut>,
    outcomes: &mut Vec<UpdateOutcome>,
    stats: &mut BatchStats,
) -> Result<(), CoreError> {
    if defer_cuts {
        let effect = classify(net, kind, update)?;
        if effect == Effect::Cut {
            edit(net, update, effect)?;
            let (Update::Delete { u, v }
            | Update::Insert { u, v, .. }
            | Update::ChangeWeight { u, v, .. }) = *update;
            let from_delete = matches!(update, Update::Delete { .. });
            stats.severed += 1;
            pending.push(PendingCut { index: outcomes.len(), from_delete, u, v });
            // A deletion's placeholder is patched by the flush (Bridge ⇒
            // stayed split); a weight change reports Reweighted either way.
            outcomes.push(if from_delete {
                UpdateOutcome::Deleted(DeleteOutcome::Bridge)
            } else {
                UpdateOutcome::Reweighted
            });
            return Ok(());
        }
        if effect == Effect::Link {
            // The flush may mark this very edge (a lighter non-tree edge that
            // was the lightest across a deferred cut), so `apply_update`
            // classifies the update again after it.
            flush(net, kind, config, rng, pending, outcomes, stats)?;
        }
    }
    outcomes.push(apply_update(net, kind, update, config, rng)?);
    Ok(())
}

/// Repairs every pending cut in one pipelined Borůvka pass and patches the
/// deferred outcomes. Drains `pending` up front, so a failed flush is not
/// retried on the same cuts.
fn flush<R: Rng>(
    net: &mut Network,
    kind: TreeKind,
    config: &KktConfig,
    rng: &mut R,
    pending: &mut Vec<PendingCut>,
    outcomes: &mut [UpdateOutcome],
    stats: &mut BatchStats,
) -> Result<(), CoreError> {
    let cuts = std::mem::take(pending);
    if cuts.is_empty() {
        return Ok(());
    }
    stats.flushes += 1;
    let n = net.node_count();

    // -- Fragment partition, computed once for the whole batch -------------
    // Label the fragments containing severed endpoints (driver-side
    // orchestration: the endpoints know their marks; the election of one
    // initiator per fragment follows the paper's smaller-ID rule).
    let mut frag_of = vec![usize::MAX; n];
    let mut groups = Groups {
        parent: Vec::new(),
        root_node: Vec::new(),
        root_id: Vec::new(),
        done: Vec::new(),
        merges: Vec::new(),
        digest: Vec::new(),
    };
    let claim = |node: NodeId, net: &Network, frag_of: &mut Vec<usize>, groups: &mut Groups| {
        if frag_of[node] != usize::MAX {
            return;
        }
        let members = net.forest().tree_of(net.graph(), node);
        let id = groups.parent.len();
        for &member in &members {
            frag_of[member] = id;
        }
        groups.parent.push(id);
        groups.root_node.push(node);
        groups.root_id.push(net.graph().id_of(node));
        groups.done.push(false);
        groups.merges.push(0);
        groups.digest.push(0);
    };
    for cut in &cuts {
        claim(cut.u, net, &mut frag_of, &mut groups);
        claim(cut.v, net, &mut frag_of, &mut groups);
        // Keep the initiator rule: the smallest severed-endpoint ID leads.
        for node in [cut.u, cut.v] {
            let f = frag_of[node];
            let id = net.graph().id_of(node);
            if id < groups.root_id[f] {
                groups.root_id[f] = id;
                groups.root_node[f] = node;
            }
        }
    }

    // Clusters: fragments linked by the severed edges — i.e. the pieces of
    // each pre-batch tree. A cluster is mended when its pieces have merged
    // back into one fragment; pieces that span their own component resolve
    // individually (the Bridge case).
    let frag_count = groups.parent.len();
    let mut cluster = (0..frag_count).collect::<Vec<usize>>();
    fn cluster_find(cluster: &mut [usize], mut x: usize) -> usize {
        while cluster[x] != x {
            cluster[x] = cluster[cluster[x]];
            x = cluster[x];
        }
        x
    }
    for cut in &cuts {
        let (a, b) = (frag_of[cut.u], frag_of[cut.v]);
        let (ra, rb) = (cluster_find(&mut cluster, a), cluster_find(&mut cluster, b));
        if ra != rb {
            cluster[ra.max(rb)] = ra.min(rb);
        }
    }

    // -- Borůvka rounds ----------------------------------------------------
    loop {
        // Group the current merge-representatives by cluster.
        let mut by_cluster: Vec<(usize, Vec<usize>)> = Vec::new();
        for f in 0..frag_count {
            let c = cluster_find(&mut cluster, f);
            let rep = groups.find(f);
            match by_cluster.iter_mut().find(|(cl, _)| *cl == c) {
                Some((_, reps)) => {
                    if !reps.contains(&rep) {
                        reps.push(rep);
                    }
                }
                None => by_cluster.push((c, vec![rep])),
            }
        }
        // This round's candidates: every unresolved, not-done fragment.
        let mut election: Vec<usize> = Vec::new();
        let mut cluster_actives: Vec<Vec<usize>> = Vec::new();
        for (_, reps) in &by_cluster {
            if reps.len() == 1 {
                continue; // fully merged: mended.
            }
            let active: Vec<usize> = reps.iter().copied().filter(|&r| !groups.done[r]).collect();
            if active.is_empty() {
                continue; // every piece spans its own component (bridges).
            }
            election.extend(&active);
            cluster_actives.push(active);
        }
        if election.is_empty() {
            break;
        }
        election.sort_by_key(|&r| groups.root_id[r]);
        stats.rounds += 1;

        // Census wave: every candidate fragment answers one TreeStats
        // broadcast-and-echo, all concurrently. This *charges* the election
        // of each cluster's largest fragment (sizes come from the echoes,
        // not from free driver-side knowledge) and doubles as `FindMin`'s
        // step-2 statistics (maxWt, degree sum) for the fragments that then
        // search.
        let census = net.span(Phase::BroadcastEcho, |net| {
            run_broadcast_echoes(
                net,
                election.iter().map(|&r| (groups.root_node[r], TreeStats)).collect(),
            )
        })?;
        let stat_of = |r: usize| census[election.iter().position(|&e| e == r).expect("candidate")];

        // Searchers: every candidate except the largest of its cluster — the
        // big piece need not search; the small pieces' minimum leaving edges
        // re-attach it, which is where batching beats k sequential
        // whole-tree searches.
        let mut searchers: Vec<usize> = Vec::new();
        for active in &cluster_actives {
            if active.len() == 1 {
                searchers.push(active[0]);
            } else {
                let largest = *active
                    .iter()
                    .max_by_key(|&&r| (stat_of(r).size, u64::MAX - groups.root_id[r]))
                    .expect("non-empty");
                searchers.extend(active.iter().copied().filter(|&r| r != largest));
            }
        }
        searchers.sort_by_key(|&r| groups.root_id[r]);
        stats.searches += searchers.len() as u32;

        // Every searcher runs its FindMin (MST) or FindAny (ST) with coins
        // from its own seeded RNG; the searches advance together, one
        // concurrent probe wave at a time.
        let slots = searchers
            .iter()
            .map(|&r| {
                let search = match kind {
                    TreeKind::Mst => {
                        FragmentSearch::Min(MinSearch::new(net, &stat_of(r), Budget::Whp, config))
                    }
                    TreeKind::St => FragmentSearch::Any(AnySearch::new(n, Budget::Whp, config)),
                };
                let rng = StdRng::seed_from_u64(rng.gen());
                Slot::Running { root: groups.root_node[r], search, rng }
            })
            .collect();
        // Probe waves are the batched analogue of the sequential searches,
        // so they attribute to the same phase the sequential path uses.
        let probe_phase = match kind {
            TreeKind::Mst => Phase::FindMinNarrow,
            TreeKind::St => Phase::FindAnySample,
        };
        let outcomes = drive_waves(net, probe_phase, slots)?;

        // Mark the found replacements simultaneously. Each is the minimum
        // edge leaving its fragment, so for an MST all of them belong to the
        // (unique) MST; the union–find check only skips same-round
        // duplicates — and, for an ST, edges that would close a cycle.
        for (&rep, outcome) in searchers.iter().zip(outcomes) {
            match outcome {
                SearchOutcome::Found(found) => {
                    let (x, y) = found.endpoints;
                    if frag_of[x] == usize::MAX || frag_of[y] == usize::MAX {
                        return Err(CoreError::Internal(format!(
                            "replacement edge {:?} leaves the affected region",
                            found.edge_number
                        )));
                    }
                    let (gx, gy) = (groups.find(frag_of[x]), groups.find(frag_of[y]));
                    if gx == gy {
                        continue; // both sides picked the same cut this round
                    }
                    // The learning endpoint forwards the decision across the
                    // new edge (one message), as in the sequential repair;
                    // the tree-wide announce is amortized to one per mended
                    // fragment below.
                    net.cost_mut().record_message_in(
                        Phase::Announce,
                        found.edge_number.as_u128().bit_size() as u64,
                    );
                    net.mark(found.edge);
                    let merged = groups.union(gx, gy);
                    groups.merges[merged] += 1;
                    groups.digest[merged] ^= found.edge_number.as_u128();
                }
                SearchOutcome::NoLeavingEdge | SearchOutcome::GaveUp => {
                    let g = groups.find(rep);
                    groups.done[g] = true;
                }
            }
        }
    }

    // -- Amortized announces ------------------------------------------------
    // One decision broadcast per repaired fragment (instead of one per cut):
    // the digest of the batch's replacement edges travels the merged tree.
    let mut announced: Vec<usize> = Vec::new();
    for f in 0..frag_count {
        let rep = groups.find(f);
        if groups.merges[rep] > 0 && !announced.contains(&rep) {
            announced.push(rep);
        }
    }
    announced.sort_by_key(|&r| groups.root_id[r]);
    for &rep in &announced {
        announce(net, groups.root_node[rep], groups.digest[rep])?;
        stats.announces += 1;
    }

    // -- Patch the deferred outcomes ----------------------------------------
    for cut in &cuts {
        if !cut.from_delete {
            continue; // weight increases report Reweighted either way.
        }
        let mended = groups.find(frag_of[cut.u]) == groups.find(frag_of[cut.v]);
        outcomes[cut.index] = UpdateOutcome::Deleted(if mended {
            DeleteOutcome::BatchRepaired
        } else {
            DeleteOutcome::Bridge
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintained::{MaintainOptions, MaintainedForest};
    use kkt_congest::CostReport;
    use kkt_graphs::{generators, EdgeId, Graph};

    fn options(seed: u64) -> MaintainOptions {
        MaintainOptions { seed, ..MaintainOptions::default() }
    }

    /// `k` tree edges of the current forest whose simultaneous removal keeps
    /// the graph connected, as delete updates.
    fn independent_cuts(forest: &MaintainedForest, k: usize) -> Vec<Update> {
        let g = forest.network().graph();
        let mut probe = g.clone();
        let mut cuts = Vec::new();
        for e in forest.tree_edges() {
            if cuts.len() == k {
                break;
            }
            let edge = *g.edge(e);
            probe.remove_edge(edge.u, edge.v);
            if probe.component_count() == 1 {
                cuts.push(Update::Delete { u: edge.u, v: edge.v });
            } else {
                probe.add_edge(edge.u, edge.v, edge.weight);
            }
        }
        cuts
    }

    fn batch_cost(kind: TreeKind, updates: &[Update], g: &Graph, seed: u64) -> CostReport {
        let mut forest = MaintainedForest::build(g.clone(), kind, options(seed)).unwrap();
        let before = forest.cost();
        forest.apply_batch(updates).unwrap();
        forest.verify().unwrap();
        forest.cost() - before
    }

    fn sequential_cost(kind: TreeKind, updates: &[Update], g: &Graph, seed: u64) -> CostReport {
        let mut forest = MaintainedForest::build(g.clone(), kind, options(seed)).unwrap();
        let before = forest.cost();
        forest.apply_batch_sequential(updates).unwrap();
        forest.verify().unwrap();
        forest.cost() - before
    }

    #[test]
    fn batched_multi_cut_restores_the_unique_mst() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(40, 0.2, 500, &mut rng);
            let mut forest =
                MaintainedForest::build(g, TreeKind::Mst, options(100 + seed)).unwrap();
            let cuts = independent_cuts(&forest, 5);
            assert!(cuts.len() >= 4, "seed {seed}: dense graph has independent tree edges");
            let (outcomes, stats) = forest.apply_batch_detailed(&cuts).unwrap();
            forest.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(stats.severed, cuts.len());
            assert_eq!(stats.flushes, 1, "one pipelined pass repairs the whole burst");
            assert!(stats.searches >= 1 && stats.rounds >= 1);
            assert!(stats.announces >= 1);
            for o in outcomes {
                assert_eq!(o, UpdateOutcome::Deleted(DeleteOutcome::BatchRepaired));
            }
        }
    }

    #[test]
    fn batched_multi_cut_restores_a_spanning_forest_for_st() {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(40 + seed);
            let g = generators::connected_gnp(32, 0.25, 1, &mut rng);
            let mut forest = MaintainedForest::build(g, TreeKind::St, options(200 + seed)).unwrap();
            let cuts = independent_cuts(&forest, 4);
            assert!(!cuts.is_empty());
            forest.apply_batch(&cuts).unwrap();
            forest.verify().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn batched_beats_sequential_on_independent_bursts() {
        // The acceptance bar of the batch subsystem: on k ≥ 4 simultaneous
        // independent cuts, the pipelined pass must spend strictly fewer
        // message bits than k back-to-back repairs.
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::connected_gnp(48, 0.2, 800, &mut rng);
        let forest = MaintainedForest::build(g.clone(), TreeKind::Mst, options(8)).unwrap();
        let cuts = independent_cuts(&forest, 6);
        assert!(cuts.len() >= 4);
        let batched = batch_cost(TreeKind::Mst, &cuts, &g, 8);
        let sequential = sequential_cost(TreeKind::Mst, &cuts, &g, 8);
        assert!(
            batched.bits < sequential.bits,
            "batched {} bits must beat sequential {} bits",
            batched.bits,
            sequential.bits
        );
        assert!(batched.messages < sequential.messages);
    }

    #[test]
    fn batched_partition_burst_reports_bridges() {
        // Sever *all* edges around one node: the network genuinely
        // partitions, every deferred cut must report Bridge, and the lone
        // node's forest stays valid.
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::connected_gnp(24, 0.2, 300, &mut rng);
        let victim = 5usize;
        let cuts: Vec<Update> = g
            .incident(victim)
            .map(|e| {
                let edge = g.edge(e);
                Update::Delete { u: edge.u, v: edge.v }
            })
            .collect();
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(12)).unwrap();
        let outcomes = forest.apply_batch(&cuts).unwrap();
        forest.verify().unwrap();
        // The victim ends up isolated, so at least the last severed tree edge
        // cannot be mended.
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, UpdateOutcome::Deleted(DeleteOutcome::Bridge))));
        assert_eq!(forest.network().graph().component_count(), 2);
    }

    #[test]
    fn mixed_batches_flush_before_tree_dependent_operations() {
        // delete-tree-edge → insert → delete again: the insert forces a
        // flush, so its path query runs on an intact tree and the final
        // forest is still the exact MST.
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::connected_gnp(30, 0.25, 400, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(14)).unwrap();
        let cuts = independent_cuts(&forest, 4);
        assert_eq!(cuts.len(), 4);
        let absent = {
            let g = forest.network().graph();
            (0..30)
                .flat_map(|a| (0..30).map(move |b| (a, b)))
                .find(|&(a, b)| a != b && g.edge_between(a, b).is_none())
                .unwrap()
        };
        let mut updates = cuts[..3].to_vec();
        updates.push(Update::Insert { u: absent.0, v: absent.1, weight: 7 });
        updates.push(cuts[3].clone());
        let (_, stats) = forest.apply_batch_detailed(&updates).unwrap();
        forest.verify().unwrap();
        assert!(stats.flushes >= 2, "the insert and the batch end each force a flush");
    }

    #[test]
    fn lowering_an_edge_the_flush_just_marked_costs_nothing() {
        // A burst cuts tree edge e and lowers by 1 the weight of f, the
        // lightest edge across e's cut. Before the burst f is a non-tree
        // edge, so its weight drop is a link, which needs an intact tree and
        // flushes the cut first — and the flush marks f. Classified again,
        // the drop is a tree edge getting lighter, which is free: the burst
        // must cost exactly what the cut alone does.
        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::connected_gnp(30, 0.3, 500, &mut rng);
        let cost_of = |updates: &[Update]| {
            let mut forest =
                MaintainedForest::build(g.clone(), TreeKind::Mst, options(30)).unwrap();
            let before = forest.cost();
            let (_, stats) = forest.apply_batch_detailed(updates).unwrap();
            forest.verify().unwrap();
            assert_eq!(stats.flushes, 1, "{updates:?}");
            forest.cost() - before
        };
        let forest = MaintainedForest::build(g.clone(), TreeKind::Mst, options(30)).unwrap();
        let cut = independent_cuts(&forest, 1).remove(0);
        let Update::Delete { u, v } = cut else { unreachable!("cuts are deletions") };
        // f is the edge the MST of the graph without e gains.
        let mut without_e = g.clone();
        without_e.remove_edge(u, v);
        let tree = forest.tree_edges();
        let f = kkt_graphs::kruskal(&without_e)
            .edges
            .into_iter()
            .find(|f| !tree.contains(f))
            .expect("e is not a bridge");
        let f = *g.edge(f);
        assert!(f.weight > 1, "f's weight can drop");
        let drop = Update::ChangeWeight { u: f.u, v: f.v, weight: f.weight - 1 };
        assert_eq!(cost_of(&[cut.clone(), drop]), cost_of(&[cut]));
    }

    #[test]
    fn batched_weight_increases_re_justify_tree_edges() {
        let mut rng = StdRng::seed_from_u64(15);
        let g = generators::connected_gnp(26, 0.3, 200, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(16)).unwrap();
        let updates: Vec<Update> = forest.tree_edges()[..4]
            .iter()
            .map(|&e| {
                let (u, v) = forest.endpoints(e);
                Update::ChangeWeight { u, v, weight: 900_000 }
            })
            .collect();
        let (outcomes, stats) = forest.apply_batch_detailed(&updates).unwrap();
        forest.verify().unwrap();
        assert_eq!(stats.severed, 4);
        assert!(outcomes.iter().all(|o| *o == UpdateOutcome::Reweighted));
    }

    #[test]
    fn batch_error_carries_applied_prefix_and_failing_index() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::connected_gnp(20, 0.3, 100, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(18)).unwrap();
        let tree_edge = forest.tree_edges()[0];
        let (u, v) = forest.endpoints(tree_edge);
        let missing = {
            let g = forest.network().graph();
            (0..20)
                .flat_map(|a| (0..20).map(move |b| (a, b)))
                .find(|&(a, b)| a != b && g.edge_between(a, b).is_none())
                .unwrap()
        };
        let updates = vec![
            Update::Delete { u, v },
            Update::Delete { u: missing.0, v: missing.1 }, // fails
            Update::Insert { u, v, weight: 1 },            // never reached
        ];
        let err = forest.apply_batch(&updates).unwrap_err();
        assert_eq!(err.failed_index, 1);
        assert_eq!(err.applied.len(), 1);
        assert!(matches!(err.source, CoreError::NoSuchEdge { .. }));
        // The prefix stays applied *and* repaired: the severed cut was mended
        // before the error was reported, so the forest verifies and the
        // outcome names the batch repair.
        assert!(matches!(
            err.applied[0],
            UpdateOutcome::Deleted(DeleteOutcome::BatchRepaired | DeleteOutcome::Bridge)
        ));
        forest.verify().unwrap();
        assert!(forest.network().graph().edge_between(u, v).is_none(), "the delete stuck");
        let shown = format!("{err}");
        assert!(shown.contains("update 1") && shown.contains("1 applied"), "{shown}");
    }

    #[test]
    fn batched_repair_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(19);
        let g = generators::connected_gnp(36, 0.2, 600, &mut rng);
        let run = |g: &Graph| {
            let mut forest =
                MaintainedForest::build(g.clone(), TreeKind::Mst, options(20)).unwrap();
            let cuts = independent_cuts(&forest, 5);
            forest.apply_batch(&cuts).unwrap();
            (forest.cost(), forest.snapshot())
        };
        assert_eq!(run(&g), run(&g));
    }

    #[test]
    fn batched_repair_works_under_both_schedulers() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::connected_gnp(32, 0.25, 500, &mut rng);
        for scheduler in [
            kkt_congest::Scheduler::Synchronous,
            kkt_congest::Scheduler::RandomAsync { max_delay: 7 },
        ] {
            let opts = MaintainOptions { repair_scheduler: scheduler, ..options(22) };
            let mut forest = MaintainedForest::build(g.clone(), TreeKind::Mst, opts).unwrap();
            let cuts = independent_cuts(&forest, 4);
            forest.apply_batch(&cuts).unwrap();
            forest.verify().unwrap();
        }
    }

    #[test]
    fn concurrent_searches_overlap_in_simulated_time() {
        // The same burst repaired batched vs sequentially: the batched pass
        // must also finish in less simulated time, because the per-fragment
        // searches interleave instead of running back-to-back.
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::connected_gnp(44, 0.2, 700, &mut rng);
        let forest = MaintainedForest::build(g.clone(), TreeKind::Mst, options(24)).unwrap();
        let cuts = independent_cuts(&forest, 6);
        assert!(cuts.len() >= 4);
        let batched = batch_cost(TreeKind::Mst, &cuts, &g, 24);
        let sequential = sequential_cost(TreeKind::Mst, &cuts, &g, 24);
        assert!(
            batched.time < sequential.time,
            "batched makespan {} must beat sequential {}",
            batched.time,
            sequential.time
        );
    }

    #[test]
    fn single_cut_batches_still_verify_and_stay_cheap() {
        // k = 1 degenerates gracefully: one fragment searches (the smaller
        // side), the cut is mended, and the oracle is satisfied.
        let mut rng = StdRng::seed_from_u64(25);
        let g = generators::connected_gnp(28, 0.25, 300, &mut rng);
        let mut forest = MaintainedForest::build(g, TreeKind::Mst, options(26)).unwrap();
        let cuts = independent_cuts(&forest, 1);
        assert_eq!(cuts.len(), 1);
        let (outcomes, stats) = forest.apply_batch_detailed(&cuts).unwrap();
        forest.verify().unwrap();
        assert_eq!(stats.searches, 1, "only the smaller side searches");
        assert_eq!(outcomes[0], UpdateOutcome::Deleted(DeleteOutcome::BatchRepaired));
    }

    #[test]
    fn empty_and_free_batches_cost_nothing() {
        let mut rng = StdRng::seed_from_u64(27);
        let g = generators::connected_gnp(20, 0.4, 100, &mut rng);
        let non_tree: Vec<EdgeId> = {
            let mut forest =
                MaintainedForest::build(g.clone(), TreeKind::Mst, options(28)).unwrap();
            let tree = forest.tree_edges();
            let all: Vec<EdgeId> = forest.network().graph().live_edges().collect();
            let _ = &mut forest;
            all.into_iter().filter(|e| !tree.contains(e)).take(3).collect()
        };
        let mut forest = MaintainedForest::build(g.clone(), TreeKind::Mst, options(28)).unwrap();
        let before = forest.cost();
        assert!(forest.apply_batch(&[]).unwrap().is_empty());
        let updates: Vec<Update> = non_tree
            .iter()
            .map(|&e| {
                let edge = g.edge(e);
                Update::Delete { u: edge.u, v: edge.v }
            })
            .collect();
        let (outcomes, stats) = forest.apply_batch_detailed(&updates).unwrap();
        assert_eq!(forest.cost(), before, "non-tree deletions are free, batched or not");
        assert_eq!(stats.flushes, 0);
        assert!(outcomes.iter().all(|o| *o == UpdateOutcome::Deleted(DeleteOutcome::NotATreeEdge)));
        forest.verify().unwrap();
    }
}
