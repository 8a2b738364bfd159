//! Incremental construction of [`CitationGraph`]s.
//!
//! The corpus generator and the dataset-construction pipeline both produce
//! citation edges one at a time; [`GraphBuilder`] accumulates them and lays
//! them out into CSR form in a single pass at [`GraphBuilder::build`].

use crate::{CitationGraph, GraphError, NodeId};

/// Accumulates `paper -> cited paper` edges and produces a [`CitationGraph`].
///
/// Duplicate edges are deduplicated at build time (a survey citing the same
/// paper several times is represented by occurrence counts at the corpus
/// level, not by parallel edges).  Self-loops are rejected eagerly because a
/// paper cannot cite itself in a temporally consistent corpus.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes (ids
    /// `0..node_count`).
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Creates a builder and pre-reserves space for `edge_hint` edges.
    pub fn with_edge_capacity(node_count: usize, edge_hint: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::with_capacity(edge_hint),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Records the citation "`citing` cites `cited`".
    ///
    /// Returns an error if either endpoint is out of bounds or if the edge is
    /// a self-loop.
    pub fn add_citation(&mut self, citing: NodeId, cited: NodeId) -> Result<(), GraphError> {
        if citing == cited {
            return Err(GraphError::SelfLoop { node: citing });
        }
        for node in [citing, cited] {
            if node.index() >= self.node_count {
                return Err(GraphError::NodeOutOfBounds {
                    node,
                    node_count: self.node_count,
                });
            }
        }
        self.edges.push((citing, cited));
        Ok(())
    }

    /// Finalises the builder into an immutable CSR graph.
    ///
    /// Duplicate `(citing, cited)` pairs collapse into a single edge.
    pub fn build(mut self) -> CitationGraph {
        // Sort by (source, target) so duplicates are adjacent and target
        // slices come out sorted, which makes adjacency slices deterministic.
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.node_count;
        let mut out_degree = vec![0u32; n];
        let mut in_degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            out_degree[u.index()] += 1;
            in_degree[v.index()] += 1;
        }

        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for i in 0..n {
            out_offsets[i + 1] = out_offsets[i] + out_degree[i];
            in_offsets[i + 1] = in_offsets[i] + in_degree[i];
        }

        let m = self.edges.len();
        let mut out_targets = vec![NodeId(0); m];
        let mut in_targets = vec![NodeId(0); m];
        let mut out_cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
        for &(u, v) in &self.edges {
            let oc = &mut out_cursor[u.index()];
            out_targets[*oc as usize] = v;
            *oc += 1;
            let ic = &mut in_cursor[v.index()];
            in_targets[*ic as usize] = u;
            *ic += 1;
        }

        CitationGraph::from_csr(out_offsets, out_targets, in_offsets, in_targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn deduplicates_parallel_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_citation(NodeId(0), NodeId(1)).unwrap();
        b.add_citation(NodeId(0), NodeId(1)).unwrap();
        b.add_citation(NodeId(0), NodeId(2)).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.references(NodeId(0)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn rejects_self_loops() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_citation(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop { node: NodeId(1) })
        );
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_citation(NodeId(0), NodeId(5)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    #[test]
    fn adjacency_slices_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_citation(NodeId(0), NodeId(4)).unwrap();
        b.add_citation(NodeId(0), NodeId(2)).unwrap();
        b.add_citation(NodeId(0), NodeId(3)).unwrap();
        let g = b.build();
        assert_eq!(g.references(NodeId(0)), &[NodeId(2), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn reverse_adjacency_matches_forward() {
        let mut b = GraphBuilder::new(4);
        b.add_citation(NodeId(0), NodeId(3)).unwrap();
        b.add_citation(NodeId(1), NodeId(3)).unwrap();
        b.add_citation(NodeId(2), NodeId(3)).unwrap();
        let g = b.build();
        let mut citers = g.cited_by(NodeId(3)).to_vec();
        citers.sort();
        assert_eq!(citers, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every inserted edge is present after building, and edge count never
        /// exceeds the number of distinct inserted pairs.
        #[test]
        fn built_graph_preserves_edges(edges in prop::collection::vec((0u32..50, 0u32..50), 0..200)) {
            let mut b = GraphBuilder::new(50);
            let mut distinct = std::collections::HashSet::new();
            for (u, v) in edges {
                if u != v {
                    b.add_citation(NodeId(u), NodeId(v)).unwrap();
                    distinct.insert((u, v));
                }
            }
            let g = b.build();
            prop_assert_eq!(g.edge_count(), distinct.len());
            for &(u, v) in &distinct {
                prop_assert!(g.has_edge(NodeId(u), NodeId(v)));
            }
        }

        /// The sum of out-degrees and the sum of in-degrees both equal the
        /// edge count.
        #[test]
        fn degree_sums_equal_edge_count(edges in prop::collection::vec((0u32..30, 0u32..30), 0..150)) {
            let mut b = GraphBuilder::new(30);
            for (u, v) in edges {
                if u != v {
                    b.add_citation(NodeId(u), NodeId(v)).unwrap();
                }
            }
            let g = b.build();
            let out_sum: usize = g.nodes().map(|n| g.out_degree(n)).sum();
            let in_sum: usize = g.nodes().map(|n| g.in_degree(n)).sum();
            prop_assert_eq!(out_sum, g.edge_count());
            prop_assert_eq!(in_sum, g.edge_count());
        }
    }
}
