//! Small structural metrics used by the experiment harness (degree
//! statistics).

use crate::graph::Graph;

/// Degree statistics of a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m / n`).
    pub mean: f64,
}

/// Computes min/max/mean degree. Returns zeros for the empty graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.node_count();
    if n == 0 {
        return DegreeStats { min: 0, max: 0, mean: 0.0 };
    }
    let degrees: Vec<usize> = g.nodes().map(|x| g.degree(x)).collect();
    DegreeStats {
        min: degrees.iter().copied().min().unwrap_or(0),
        max: degrees.iter().copied().max().unwrap_or(0),
        mean: 2.0 * g.edge_count() as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_stats_on_star() {
        let mut g = Graph::new(5);
        for i in 1..5 {
            g.add_edge(0, i, 1);
        }
        let s = degree_stats(&g);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-9);
    }

    #[test]
    fn degree_stats_empty() {
        let s = degree_stats(&Graph::new(0));
        assert_eq!(s, DegreeStats { min: 0, max: 0, mean: 0.0 });
    }
}
