//! The event vocabulary of a dynamic-network trace.

use serde::{Deserialize, Serialize};

use kkt_graphs::generators::Update;
use kkt_graphs::{Graph, NodeId, ShadowOracle, Weight};

/// One step of a dynamic-network scenario.
///
/// Events name endpoints, not edge handles: [`kkt_graphs::EdgeId`]s are
/// simulation artefacts that change when an edge is re-inserted, while the
/// endpoint pair is what a network operator (and the paper's repair
/// algorithms) actually see.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadEvent {
    /// Delete the live edge `{u, v}`.
    DeleteEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Insert a new edge `{u, v}` with the given weight.
    InsertEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Raw weight of the new edge.
        weight: Weight,
    },
    /// Change the weight of live edge `{u, v}` to `weight`.
    ChangeWeight {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The new raw weight.
        weight: Weight,
    },
    /// A batched burst: the contained events hit the network back-to-back,
    /// with no verification (and for rebuild policies, no rebuild) between
    /// them. This is how correlated failures — a rack losing power, a
    /// partition healing — are expressed.
    Burst {
        /// The events of the burst, in order. Generators only produce flat
        /// bursts (no burst-in-burst), but replay tolerates nesting.
        events: Vec<WorkloadEvent>,
    },
}

impl WorkloadEvent {
    /// Number of primitive (non-burst) events, counting nested bursts.
    pub fn primitive_count(&self) -> usize {
        match self {
            WorkloadEvent::Burst { events } => events.iter().map(Self::primitive_count).sum(),
            _ => 1,
        }
    }

    /// Flattens into primitive events (bursts expanded in order).
    pub fn primitives(&self) -> Vec<&WorkloadEvent> {
        match self {
            WorkloadEvent::Burst { events } => events.iter().flat_map(Self::primitives).collect(),
            other => vec![other],
        }
    }

    /// A short label for cost tables and per-event reports.
    pub fn kind(&self) -> String {
        match self {
            WorkloadEvent::DeleteEdge { .. } => "delete".to_string(),
            WorkloadEvent::InsertEdge { .. } => "insert".to_string(),
            WorkloadEvent::ChangeWeight { .. } => "change_weight".to_string(),
            WorkloadEvent::Burst { events } => format!("burst({})", events.len()),
        }
    }

    /// Converts a *primitive* event into the [`Update`] vocabulary of
    /// `kkt_graphs::generators`.
    ///
    /// Returns `None` for bursts (callers flatten first) — and for a weight
    /// change whose edge is missing from `g`, leaving the error to the
    /// applying layer.
    pub fn as_update(&self, g: &Graph) -> Option<Update> {
        match *self {
            WorkloadEvent::DeleteEdge { u, v } => Some(Update::Delete { u, v }),
            WorkloadEvent::InsertEdge { u, v, weight } => Some(Update::Insert { u, v, weight }),
            WorkloadEvent::ChangeWeight { u, v, weight } => {
                g.edge_between(u, v).map(|_| Update::ChangeWeight { u, v, weight })
            }
            WorkloadEvent::Burst { .. } => None,
        }
    }

    /// Applies the event to a plain (shadow) graph, mirroring exactly what
    /// the simulated network would do. Used by trace validation and by the
    /// rebuild policies.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inapplicable primitive (deleting a
    /// missing edge, inserting a duplicate, reweighting a missing edge).
    pub fn apply_to_graph(&self, g: &mut Graph) -> Result<(), String> {
        match *self {
            WorkloadEvent::DeleteEdge { u, v } => g
                .remove_edge(u, v)
                .map(|_| ())
                .ok_or_else(|| format!("delete of missing edge ({u}, {v})")),
            WorkloadEvent::InsertEdge { u, v, weight } => g
                .add_edge(u, v, weight)
                .map(|_| ())
                .ok_or_else(|| format!("insert of duplicate or invalid edge ({u}, {v})")),
            WorkloadEvent::ChangeWeight { u, v, weight } => g
                .set_weight(u, v, weight)
                .map(|_| ())
                .ok_or_else(|| format!("weight change of missing edge ({u}, {v})")),
            WorkloadEvent::Burst { ref events } => {
                for e in events {
                    e.apply_to_graph(g)?;
                }
                Ok(())
            }
        }
    }

    /// Applies the event to a shadow oracle, whose graph then changes
    /// exactly as [`WorkloadEvent::apply_to_graph`] would change a plain
    /// graph and whose forest stays the graph's minimum spanning forest.
    /// Used by trace validation and by the generators that target the tree.
    ///
    /// # Errors
    ///
    /// The same descriptions as [`WorkloadEvent::apply_to_graph`].
    pub fn apply_to_oracle(&self, oracle: &mut ShadowOracle) -> Result<(), String> {
        match *self {
            WorkloadEvent::DeleteEdge { u, v } => oracle.delete(u, v),
            WorkloadEvent::InsertEdge { u, v, weight } => oracle.insert(u, v, weight),
            WorkloadEvent::ChangeWeight { u, v, weight } => oracle.change_weight(u, v, weight),
            WorkloadEvent::Burst { ref events } => {
                for e in events {
                    e.apply_to_oracle(oracle)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5).unwrap();
        g.add_edge(1, 2, 7).unwrap();
        g
    }

    #[test]
    fn primitive_count_flattens_bursts() {
        let burst = WorkloadEvent::Burst {
            events: vec![
                WorkloadEvent::DeleteEdge { u: 0, v: 1 },
                WorkloadEvent::Burst {
                    events: vec![WorkloadEvent::InsertEdge { u: 0, v: 2, weight: 1 }],
                },
            ],
        };
        assert_eq!(burst.primitive_count(), 2);
        assert_eq!(burst.primitives().len(), 2);
        assert_eq!(burst.kind(), "burst(2)");
    }

    #[test]
    fn as_update_needs_a_live_edge_for_a_weight_change() {
        let g = path3();
        for weight in [9, 2] {
            let update = WorkloadEvent::ChangeWeight { u: 0, v: 1, weight }.as_update(&g);
            assert_eq!(update, Some(Update::ChangeWeight { u: 0, v: 1, weight }));
        }
        assert!(WorkloadEvent::ChangeWeight { u: 0, v: 2, weight: 2 }.as_update(&g).is_none());
    }

    #[test]
    fn apply_to_graph_validates() {
        let mut g = path3();
        WorkloadEvent::DeleteEdge { u: 0, v: 1 }.apply_to_graph(&mut g).unwrap();
        assert!(WorkloadEvent::DeleteEdge { u: 0, v: 1 }.apply_to_graph(&mut g).is_err());
        WorkloadEvent::InsertEdge { u: 0, v: 1, weight: 3 }.apply_to_graph(&mut g).unwrap();
        assert!(WorkloadEvent::InsertEdge { u: 0, v: 1, weight: 3 }
            .apply_to_graph(&mut g)
            .is_err());
        WorkloadEvent::ChangeWeight { u: 0, v: 1, weight: 8 }.apply_to_graph(&mut g).unwrap();
    }

    #[test]
    fn apply_to_oracle_mirrors_apply_to_graph() {
        let mut g = path3();
        let mut oracle = ShadowOracle::new(&g);
        let events = [
            WorkloadEvent::InsertEdge { u: 0, v: 2, weight: 1 },
            WorkloadEvent::ChangeWeight { u: 1, v: 2, weight: 9 },
            WorkloadEvent::DeleteEdge { u: 0, v: 1 },
            WorkloadEvent::DeleteEdge { u: 0, v: 1 },
            WorkloadEvent::InsertEdge { u: 0, v: 2, weight: 4 },
            WorkloadEvent::ChangeWeight { u: 0, v: 1, weight: 2 },
        ];
        for event in &events {
            assert_eq!(event.apply_to_oracle(&mut oracle), event.apply_to_graph(&mut g));
            assert_eq!(
                oracle.graph().live_edges().collect::<Vec<_>>(),
                g.live_edges().collect::<Vec<_>>()
            );
            assert_eq!(oracle.component_count(), g.component_count());
        }
        assert!(oracle.is_tree_edge(g.edge_between(0, 2).unwrap()));
    }

    #[test]
    fn events_round_trip_through_json() {
        let e = WorkloadEvent::Burst {
            events: vec![
                WorkloadEvent::DeleteEdge { u: 1, v: 2 },
                WorkloadEvent::InsertEdge { u: 0, v: 2, weight: 11 },
                WorkloadEvent::ChangeWeight { u: 0, v: 1, weight: 4 },
            ],
        };
        let text = serde_json::to_string(&e).unwrap();
        let back: WorkloadEvent = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }
}
