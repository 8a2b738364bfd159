//! Undirected node- and edge-weighted graphs.
//!
//! The NEWST model (Section IV-B of the paper) works on a connected,
//! undirected graph `G = (V, E, S, w, c)` where `w` assigns a positive weight
//! to every vertex and `c` a positive cost to every edge.  [`WeightedGraph`]
//! is that object: the RePaGer pipeline builds one from the sub-citation
//! graph, with node weights from Eq. (3) and edge costs from Eq. (2), and the
//! Steiner machinery in [`crate::steiner`] consumes it.

use crate::{GraphError, NodeId};
use serde::{Deserialize, Serialize};

/// An undirected graph with positive node weights and positive edge costs.
///
/// Nodes are dense indices `0..node_count`.  Parallel edges are collapsed to
/// the cheapest cost seen; self-loops are rejected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightedGraph {
    node_weights: Vec<f64>,
    adjacency: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl WeightedGraph {
    /// Creates a graph with the given per-node weights and no edges.
    ///
    /// Returns an error if any weight is negative or not finite.
    pub fn new(node_weights: Vec<f64>) -> Result<Self, GraphError> {
        for (i, &w) in node_weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight {
                    what: format!("node weight {w} at node n{i}"),
                });
            }
        }
        let n = node_weights.len();
        Ok(WeightedGraph {
            node_weights,
            adjacency: vec![Vec::new(); n],
            edge_count: 0,
        })
    }

    /// Creates a graph of `node_count` nodes whose weights are all zero.
    pub fn with_zero_weights(node_count: usize) -> Self {
        WeightedGraph {
            node_weights: vec![0.0; node_count],
            adjacency: vec![Vec::new(); node_count],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether `node` is a valid node index.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Validates a node index.
    pub fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        }
    }

    /// The weight `w(node)` of a vertex.
    #[inline]
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.node_weights[node.index()]
    }

    /// The neighbours of `node` together with the cost of the connecting edge.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, f64)] {
        &self.adjacency[node.index()]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// The cost of the edge `{a, b}`, if present.
    pub fn edge_cost(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.adjacency
            .get(a.index())?
            .iter()
            .find_map(|&(n, c)| (n == b).then_some(c))
    }

    /// Adds the undirected edge `{a, b}` with cost `cost`.
    ///
    /// If the edge already exists, its cost is lowered to `cost` when `cost`
    /// is cheaper (and left unchanged otherwise); this collapses parallel
    /// edges conservatively.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, cost: f64) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        self.check_node(a)?;
        self.check_node(b)?;
        if !cost.is_finite() || cost < 0.0 {
            return Err(GraphError::InvalidWeight {
                what: format!("edge cost {cost}"),
            });
        }
        let existing = self.adjacency[a.index()].iter().position(|&(n, _)| n == b);
        match existing {
            Some(pos_a) => {
                let current = self.adjacency[a.index()][pos_a].1;
                if cost < current {
                    self.adjacency[a.index()][pos_a].1 = cost;
                    let pos_b = self.adjacency[b.index()]
                        .iter()
                        .position(|&(n, _)| n == a)
                        .expect("undirected edge stored on both endpoints");
                    self.adjacency[b.index()][pos_b].1 = cost;
                }
            }
            None => {
                self.adjacency[a.index()].push((b, cost));
                self.adjacency[b.index()].push((a, cost));
                self.edge_count += 1;
            }
        }
        Ok(())
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all undirected edges as `(a, b, cost)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, c)| (a, b, c))
        })
    }

    /// Sum of all edge costs.
    pub fn total_edge_cost(&self) -> f64 {
        self.edges().map(|(_, _, c)| c).sum()
    }

    /// The cost of a tree (or any sub-graph given as an edge list) under the
    /// NEWST objective of Eq. (1): the sum of its edge costs plus the sum of
    /// the weights of every vertex incident to at least one of its edges.
    ///
    /// `extra_vertices` lets callers include vertices that carry weight but
    /// have no incident edge (e.g. a single-terminal "tree").
    pub fn subgraph_cost(&self, edges: &[(NodeId, NodeId)], extra_vertices: &[NodeId]) -> f64 {
        let mut in_tree = vec![false; self.node_count()];
        let mut cost = 0.0;
        for &(a, b) in edges {
            cost += self.edge_cost(a, b).unwrap_or(0.0);
            in_tree[a.index()] = true;
            in_tree[b.index()] = true;
        }
        for &v in extra_vertices {
            in_tree[v.index()] = true;
        }
        for (i, &included) in in_tree.iter().enumerate() {
            if included {
                cost += self.node_weights[i];
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = WeightedGraph::new(vec![1.0, 2.0, 3.0]).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 10.0).unwrap();
        g
    }

    #[test]
    fn construction_validates_weights() {
        assert!(WeightedGraph::new(vec![0.0, 1.0]).is_ok());
        assert!(WeightedGraph::new(vec![-1.0]).is_err());
        assert!(WeightedGraph::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn edge_costs_are_symmetric() {
        let g = triangle();
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), Some(1.0));
        assert_eq!(g.edge_cost(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn parallel_edges_keep_minimum_cost() {
        let mut g = WeightedGraph::with_zero_weights(2);
        g.add_edge(NodeId(0), NodeId(1), 5.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 3.0).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 7.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(g.edge_cost(NodeId(1), NodeId(0)), Some(3.0));
    }

    #[test]
    fn self_loops_and_bad_costs_are_rejected() {
        let mut g = WeightedGraph::with_zero_weights(2);
        assert!(g.add_edge(NodeId(0), NodeId(0), 1.0).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(1), -1.0).is_err());
        assert!(g.add_edge(NodeId(0), NodeId(1), f64::INFINITY).is_err());
    }

    #[test]
    fn edge_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(a, b, _)| a < b));
    }

    #[test]
    fn totals_sum_weights_and_costs() {
        let g = triangle();
        assert!((g.total_edge_cost() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_cost_counts_incident_vertices_once() {
        let g = triangle();
        // Tree {0-1, 1-2}: edges 1 + 2, vertices 1 + 2 + 3.
        let cost = g.subgraph_cost(&[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))], &[]);
        assert!((cost - 9.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_cost_includes_extra_vertices() {
        let g = triangle();
        let cost = g.subgraph_cost(&[], &[NodeId(2)]);
        assert!((cost - 3.0).abs() < 1e-12);
    }
}
