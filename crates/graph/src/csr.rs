//! Compressed-sparse-row storage of the citation relation.
//!
//! The paper's citation graph links ~6 million computer-science papers by the
//! relation "paper *i* cites paper *j*".  [`CitationGraph`] stores that
//! relation in CSR form in both directions so that both "references of a
//! paper" (outgoing) and "papers citing a paper" (incoming) are O(degree)
//! slices, which is what the neighbourhood expansion of the RePaGer pipeline
//! needs.

use crate::{GraphError, NodeId};
use serde::{Deserialize, Serialize};

/// A directed citation graph in compressed-sparse-row form.
///
/// * `out` adjacency: `graph.references(p)` lists the papers that `p` cites.
/// * `in` adjacency: `graph.cited_by(p)` lists the papers that cite `p`.
///
/// The graph is immutable once built (see [`crate::GraphBuilder`]); all
/// algorithms in this crate borrow it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CitationGraph {
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u32>,
    in_targets: Vec<NodeId>,
    edge_count: usize,
}

impl CitationGraph {
    /// Builds a graph directly from CSR arrays.  Intended for use by
    /// [`crate::GraphBuilder`]; prefer the builder in user code.
    pub(crate) fn from_csr(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_targets: Vec<NodeId>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), in_offsets.len());
        debug_assert_eq!(out_targets.len(), in_targets.len());
        let edge_count = out_targets.len();
        CitationGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            edge_count,
        }
    }

    /// Rebuilds a graph from externally supplied out-direction CSR arrays
    /// (e.g. a decoded snapshot section), validating them and deriving the
    /// in-direction adjacency.
    ///
    /// The incoming adjacency is reconstructed by scanning sources in
    /// ascending order, which reproduces [`crate::GraphBuilder`]'s layout
    /// exactly (the builder fills in-lists from source-sorted edges), so a
    /// graph round-tripped through its out arrays is indistinguishable from
    /// the originally built one.
    pub fn from_csr_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let malformed = |what: String| GraphError::MalformedCsr { what };
        if out_offsets.is_empty() {
            return Err(malformed("offsets array is empty".to_string()));
        }
        if out_offsets[0] != 0 {
            return Err(malformed(format!(
                "offsets must start at 0, got {}",
                out_offsets[0]
            )));
        }
        if let Some(w) = out_offsets.windows(2).find(|w| w[0] > w[1]) {
            return Err(malformed(format!(
                "offsets are not monotonic ({} > {})",
                w[0], w[1]
            )));
        }
        let n = out_offsets.len() - 1;
        let last = *out_offsets.last().expect("non-empty offsets") as usize;
        if last != out_targets.len() {
            return Err(malformed(format!(
                "final offset {last} does not match target count {}",
                out_targets.len()
            )));
        }
        if let Some(&bad) = out_targets.iter().find(|t| t.index() >= n) {
            return Err(malformed(format!(
                "target {bad} out of bounds for {n} nodes"
            )));
        }

        let mut in_degree = vec![0u32; n];
        for t in &out_targets {
            in_degree[t.index()] += 1;
        }
        let mut in_offsets = vec![0u32; n + 1];
        for i in 0..n {
            in_offsets[i + 1] = in_offsets[i] + in_degree[i];
        }
        let mut in_targets = vec![NodeId(0); out_targets.len()];
        let mut in_cursor: Vec<u32> = in_offsets[..n].to_vec();
        for u in 0..n {
            let start = out_offsets[u] as usize;
            let end = out_offsets[u + 1] as usize;
            for &v in &out_targets[start..end] {
                let c = &mut in_cursor[v.index()];
                in_targets[*c as usize] = NodeId::from_index(u);
                *c += 1;
            }
        }
        Ok(CitationGraph::from_csr(
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        ))
    }

    /// The out-direction CSR offsets array (`node_count + 1` entries).
    /// Together with [`Self::out_targets`] this is the full serialisable
    /// state of the graph (see [`Self::from_csr_parts`]).
    #[inline]
    pub fn out_offsets(&self) -> &[u32] {
        &self.out_offsets
    }

    /// The out-direction CSR target array, concatenated reference lists in
    /// node order.
    #[inline]
    pub fn out_targets(&self) -> &[NodeId] {
        &self.out_targets
    }

    /// Creates an empty graph with `node_count` isolated nodes.
    pub fn empty(node_count: usize) -> Self {
        CitationGraph {
            out_offsets: vec![0; node_count + 1],
            out_targets: Vec::new(),
            in_offsets: vec![0; node_count + 1],
            in_targets: Vec::new(),
            edge_count: 0,
        }
    }

    /// Number of nodes (papers) in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed citation edges in the graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Returns `true` if `node` is a valid node of this graph.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.node_count()
    }

    /// Validates that `node` is in bounds, returning a typed error otherwise.
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

    /// The papers cited by `node` (its reference list), as graph nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds; call [`Self::check_node`] first when
    /// handling untrusted ids.
    #[inline]
    pub fn references(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let start = self.out_offsets[i] as usize;
        let end = self.out_offsets[i + 1] as usize;
        &self.out_targets[start..end]
    }

    /// The papers that cite `node`, as graph nodes.
    #[inline]
    pub fn cited_by(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let start = self.in_offsets[i] as usize;
        let end = self.in_offsets[i + 1] as usize;
        &self.in_targets[start..end]
    }

    /// Out-degree of `node`: the size of its reference list.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.references(node).len()
    }

    /// In-degree of `node`: how many papers cite it (its citation count inside
    /// the corpus).
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.cited_by(node).len()
    }

    /// Returns `true` if the directed edge `from -> to` ("from cites to")
    /// exists.  O(out-degree of `from`).
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.references(from).contains(&to)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all directed edges as `(citing, cited)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.references(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates over the undirected neighbours of `node` (references followed
    /// by citers).  A paper never appears twice because citation edges are
    /// temporally ordered (a paper cannot both cite and be cited by the same
    /// paper in a well-formed corpus); if the input data violates this, the
    /// duplicate is harmless for traversal purposes.
    pub fn neighbors_undirected(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.references(node)
            .iter()
            .copied()
            .chain(self.cited_by(node).iter().copied())
    }

    /// Total number of citation edges incident to `node` whose other endpoint
    /// satisfies `pred`.  Used by co-occurrence seed reallocation.
    pub fn count_citers_where<F: Fn(NodeId) -> bool>(&self, node: NodeId, pred: F) -> usize {
        self.cited_by(node).iter().filter(|&&c| pred(c)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Small fixture: 0 cites 1 and 2; 1 cites 2; 3 cites 2; 4 isolated.
    fn fixture() -> CitationGraph {
        let mut b = GraphBuilder::new(5);
        b.add_citation(NodeId(0), NodeId(1)).unwrap();
        b.add_citation(NodeId(0), NodeId(2)).unwrap();
        b.add_citation(NodeId(1), NodeId(2)).unwrap();
        b.add_citation(NodeId(3), NodeId(2)).unwrap();
        b.build()
    }

    #[test]
    fn counts_match_fixture() {
        let g = fixture();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(!g.is_empty());
    }

    #[test]
    fn references_and_cited_by_are_consistent() {
        let g = fixture();
        assert_eq!(g.references(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.references(NodeId(4)), &[] as &[NodeId]);
        let mut citers: Vec<_> = g.cited_by(NodeId(2)).to_vec();
        citers.sort();
        assert_eq!(citers, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn degrees_match_adjacency() {
        let g = fixture();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(2)), 3);
    }

    #[test]
    fn has_edge_is_directional() {
        let g = fixture();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(4), NodeId(0)));
    }

    #[test]
    fn edge_iterator_yields_every_edge_once() {
        let g = fixture();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2)),
                (NodeId(3), NodeId(2)),
            ]
        );
    }

    #[test]
    fn undirected_neighbors_merge_both_directions() {
        let g = fixture();
        let mut n: Vec<_> = g.neighbors_undirected(NodeId(1)).collect();
        n.sort();
        assert_eq!(n, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn check_node_rejects_out_of_bounds() {
        let g = fixture();
        assert!(g.check_node(NodeId(4)).is_ok());
        assert_eq!(
            g.check_node(NodeId(5)),
            Err(GraphError::NodeOutOfBounds {
                node: NodeId(5),
                node_count: 5
            })
        );
    }

    #[test]
    fn empty_graph_has_isolated_nodes() {
        let g = CitationGraph::empty(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        for n in g.nodes() {
            assert_eq!(g.out_degree(n), 0);
            assert_eq!(g.in_degree(n), 0);
        }
    }

    #[test]
    fn from_csr_parts_round_trips_builder_output() {
        let g = fixture();
        let rebuilt =
            CitationGraph::from_csr_parts(g.out_offsets().to_vec(), g.out_targets().to_vec())
                .unwrap();
        assert_eq!(rebuilt.node_count(), g.node_count());
        assert_eq!(rebuilt.edge_count(), g.edge_count());
        for n in g.nodes() {
            assert_eq!(rebuilt.references(n), g.references(n));
            assert_eq!(rebuilt.cited_by(n), g.cited_by(n));
        }
    }

    #[test]
    fn from_csr_parts_rejects_malformed_arrays() {
        let malformed = |r: Result<CitationGraph, GraphError>| {
            assert!(matches!(r.unwrap_err(), GraphError::MalformedCsr { .. }));
        };
        malformed(CitationGraph::from_csr_parts(vec![], vec![]));
        malformed(CitationGraph::from_csr_parts(vec![1, 1], vec![NodeId(0)]));
        malformed(CitationGraph::from_csr_parts(vec![0, 2, 1], vec![]));
        malformed(CitationGraph::from_csr_parts(vec![0, 2], vec![NodeId(0)]));
        malformed(CitationGraph::from_csr_parts(
            vec![0, 1],
            vec![NodeId(7)], // out of bounds for 1 node
        ));
    }

    #[test]
    fn count_citers_where_filters_predicate() {
        let g = fixture();
        let only_small = g.count_citers_where(NodeId(2), |c| c.index() <= 1);
        assert_eq!(only_small, 2);
    }
}
