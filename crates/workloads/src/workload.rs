//! A named, seeded, replayable trace of dynamic-network events.

use serde::{Deserialize, Serialize};

use kkt_graphs::{kruskal, Graph};

use crate::event::WorkloadEvent;
use crate::fingerprint::fingerprint_hex;

/// A deterministic dynamic-network trace: the output of a scenario
/// generator, the input of the replay harness.
///
/// Two [`Workload`]s generated from the same scenario, base graph and seed
/// are identical — including their [`Workload::fingerprint`] — which is what
/// makes experiment reports reproducible byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable name (defaults to the scenario id).
    pub name: String,
    /// Identifier of the generating scenario (e.g. `poisson_churn(0.50)`).
    pub scenario: String,
    /// The seed the trace was generated from.
    pub seed: u64,
    /// Node count of the base graph the trace applies to.
    pub n: usize,
    /// The events, in replay order.
    pub events: Vec<WorkloadEvent>,
}

/// Statistics of a validated trace (computed by [`Workload::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Primitive deletions (inside and outside bursts).
    pub deletions: usize,
    /// Deletions that hit an edge of the evolving graph's current minimum
    /// spanning forest — the expensive case for impromptu repair.
    pub tree_edge_deletions: usize,
    /// Primitive insertions.
    pub insertions: usize,
    /// Primitive weight changes.
    pub weight_changes: usize,
    /// Burst events (however many primitives each contains).
    pub bursts: usize,
    /// Largest number of connected components the graph reaches at any
    /// event boundary (1 = the trace keeps the network connected).
    pub max_components: usize,
    /// Live edges after the whole trace.
    pub final_edges: usize,
}

impl Workload {
    /// Number of top-level events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of primitive events (bursts flattened).
    pub fn primitive_count(&self) -> usize {
        self.events.iter().map(WorkloadEvent::primitive_count).sum()
    }

    /// A stable 64-bit FNV-1a fingerprint of the canonical JSON encoding.
    /// Equal traces fingerprint equal; a one-event difference changes it.
    pub fn fingerprint(&self) -> String {
        fingerprint_hex(&serde_json::to_string(self).expect("workload serialises"))
    }

    /// Checks that the trace is applicable to `base` (right node count,
    /// every primitive applicable in order) without computing statistics —
    /// unlike [`Workload::validate`] this never runs the Kruskal oracle, so
    /// it is the cheap pre-flight check the replay harness uses.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inapplicable event.
    pub fn check_applicable(&self, base: &Graph) -> Result<(), String> {
        if base.node_count() != self.n {
            return Err(format!(
                "workload was generated for n = {}, got a base graph with n = {}",
                self.n,
                base.node_count()
            ));
        }
        let mut shadow = base.clone();
        for (i, event) in self.events.iter().enumerate() {
            event.apply_to_graph(&mut shadow).map_err(|e| format!("event {i}: {e}"))?;
        }
        Ok(())
    }

    /// Replays the trace against a shadow copy of `base`, checking that
    /// every primitive is applicable in order, and collects [`WorkloadStats`]
    /// (tree-edge hit counts are measured against the evolving Kruskal MST,
    /// i.e. "at generation time" rather than during distributed replay).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inapplicable event.
    pub fn validate(&self, base: &Graph) -> Result<WorkloadStats, String> {
        if base.node_count() != self.n {
            return Err(format!(
                "workload was generated for n = {}, got a base graph with n = {}",
                self.n,
                base.node_count()
            ));
        }
        let mut shadow = base.clone();
        let mut stats =
            WorkloadStats { max_components: shadow.component_count(), ..WorkloadStats::default() };
        for (i, event) in self.events.iter().enumerate() {
            if let WorkloadEvent::Burst { .. } = event {
                stats.bursts += 1;
            }
            for primitive in event.primitives() {
                match *primitive {
                    WorkloadEvent::DeleteEdge { u, v } => {
                        stats.deletions += 1;
                        let forest = kruskal(&shadow);
                        if let Some(e) = shadow.edge_between(u, v) {
                            if forest.contains(e) {
                                stats.tree_edge_deletions += 1;
                            }
                        }
                    }
                    WorkloadEvent::InsertEdge { .. } => stats.insertions += 1,
                    WorkloadEvent::ChangeWeight { .. } => stats.weight_changes += 1,
                    WorkloadEvent::Burst { .. } => unreachable!("primitives() flattens bursts"),
                }
                primitive.apply_to_graph(&mut shadow).map_err(|e| format!("event {i}: {e}"))?;
                stats.max_components = stats.max_components.max(shadow.component_count());
            }
        }
        stats.final_edges = shadow.edge_count();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kkt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base() -> Graph {
        let mut rng = StdRng::seed_from_u64(3);
        generators::connected_gnp(12, 0.4, 50, &mut rng)
    }

    fn tiny_workload(g: &Graph) -> Workload {
        let e = g.live_edges().next().unwrap();
        let edge = *g.edge(e);
        Workload {
            name: "tiny".into(),
            scenario: "hand_rolled".into(),
            seed: 1,
            n: g.node_count(),
            events: vec![
                WorkloadEvent::ChangeWeight { u: edge.u, v: edge.v, weight: 99 },
                WorkloadEvent::Burst {
                    events: vec![
                        WorkloadEvent::DeleteEdge { u: edge.u, v: edge.v },
                        WorkloadEvent::InsertEdge { u: edge.u, v: edge.v, weight: 1 },
                    ],
                },
            ],
        }
    }

    #[test]
    fn validate_collects_stats() {
        let g = base();
        let w = tiny_workload(&g);
        let stats = w.validate(&g).unwrap();
        assert_eq!(stats.deletions, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.weight_changes, 1);
        assert_eq!(stats.bursts, 1);
        assert_eq!(stats.final_edges, g.edge_count());
        assert_eq!(w.primitive_count(), 3);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn validate_rejects_wrong_base() {
        let g = base();
        let w = tiny_workload(&g);
        let mut wrong = Graph::new(5);
        wrong.add_edge(0, 1, 1);
        assert!(w.validate(&wrong).is_err());
        assert!(w.check_applicable(&wrong).is_err());
        assert!(w.check_applicable(&g).is_ok());
        // An inapplicable event is reported with its index.
        let mut broken = w.clone();
        broken.events.insert(0, WorkloadEvent::DeleteEdge { u: 0, v: 0 });
        let err = broken.validate(&g).unwrap_err();
        assert!(err.contains("event 0"), "{err}");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let g = base();
        let w = tiny_workload(&g);
        assert_eq!(w.fingerprint(), w.fingerprint());
        let mut other = w.clone();
        other.events.pop();
        assert_ne!(w.fingerprint(), other.fingerprint());
    }

    #[test]
    fn workload_round_trips_through_json() {
        let g = base();
        let w = tiny_workload(&g);
        let text = serde_json::to_string_pretty(&w).unwrap();
        let back: Workload = serde_json::from_str(&text).unwrap();
        assert_eq!(back, w);
        assert_eq!(back.fingerprint(), w.fingerprint());
    }
}
